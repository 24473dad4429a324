#include "obs/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/json.hpp"

namespace wsn::obs {

namespace {

/// util::Histogram -> plain snapshot data.
HistogramData ToData(const util::Histogram& h) {
  HistogramData d;
  d.low = h.Low();
  d.high = h.High();
  d.counts.reserve(h.Bins());
  for (std::size_t i = 0; i < h.Bins(); ++i) {
    d.counts.push_back(h.BinCount(i));
  }
  d.underflow = h.Underflow();
  d.overflow = h.Overflow();
  d.nan = h.Nan();
  d.total = h.TotalCount();
  d.sum = h.Sum();
  return d;
}

void WriteHistogram(util::JsonWriter& w, const HistogramData& d) {
  w.BeginObject();
  w.Key("low").Number(d.low);
  w.Key("high").Number(d.high);
  w.Key("total").UInt(d.total);
  w.Key("sum").Number(d.sum);
  w.Key("underflow").UInt(d.underflow);
  w.Key("overflow").UInt(d.overflow);
  w.Key("nan").UInt(d.nan);
  w.Key("counts").BeginArray();
  for (std::uint64_t c : d.counts) w.UInt(c);
  w.EndArray();
  w.EndObject();
}

void WriteHistogramMap(util::JsonWriter& w, const std::string& key,
                       const std::map<std::string, HistogramData>& m) {
  w.Key(key).BeginObject();
  for (const auto& [name, data] : m) {
    w.Key(name);
    WriteHistogram(w, data);
  }
  w.EndObject();
}

}  // namespace

void HistogramData::MergeFrom(const HistogramData& other) {
  util::Require(low == other.low && high == other.high &&
                    counts.size() == other.counts.size(),
                "cannot merge histogram snapshots with different shapes");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  underflow += other.underflow;
  overflow += other.overflow;
  nan += other.nan;
  total += other.total;
  sum += other.sum;
}

bool MetricsSnapshot::Empty() const noexcept {
  return counters.empty() && gauges.empty() && sums.empty() &&
         histograms.empty() && timings.empty() && timing_histograms.empty();
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) {
    auto [it, inserted] = gauges.emplace(name, value);
    if (!inserted) it->second = std::max(it->second, value);
  }
  for (const auto& [name, value] : other.sums) sums[name] += value;
  for (const auto& [name, data] : other.histograms) {
    auto [it, inserted] = histograms.emplace(name, data);
    if (!inserted) it->second.MergeFrom(data);
  }
  for (const auto& [name, sw] : other.timings) timings[name].MergeFrom(sw);
  for (const auto& [name, data] : other.timing_histograms) {
    auto [it, inserted] = timing_histograms.emplace(name, data);
    if (!inserted) it->second.MergeFrom(data);
  }
}

void MetricsSnapshot::WriteJson(util::JsonWriter& w,
                                bool include_timings) const {
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) w.Key(name).UInt(value);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) w.Key(name).Number(value);
  w.EndObject();
  w.Key("sums").BeginObject();
  for (const auto& [name, value] : sums) w.Key(name).Number(value);
  w.EndObject();
  WriteHistogramMap(w, "histograms", histograms);
  if (!include_timings) return;
  w.Key("timings").BeginObject();
  for (const auto& [name, sw] : timings) {
    w.Key(name).BeginObject();
    w.Key("calls").UInt(sw.calls);
    w.Key("seconds").Number(sw.seconds);
    w.EndObject();
  }
  w.EndObject();
  WriteHistogramMap(w, "timing_histograms", timing_histograms);
}

std::string MetricsSnapshot::ToJson(int indent, bool include_timings) const {
  util::JsonWriter w(indent);
  w.BeginObject();
  WriteJson(w, include_timings);
  w.EndObject();
  return w.Str();
}

std::uint64_t* MetricsRegistry::Counter(const std::string& name) {
  return &counters_[name];
}

double* MetricsRegistry::Gauge(const std::string& name) {
  return &gauges_[name];
}

void MetricsRegistry::GaugeMax(const std::string& name, double value) {
  double* g = Gauge(name);
  *g = std::max(*g, value);
}

double* MetricsRegistry::Sum(const std::string& name) { return &sums_[name]; }

Stopwatch* MetricsRegistry::Timing(const std::string& name) {
  return &timings_[name];
}

util::Histogram* MetricsRegistry::Hist(const std::string& name, double low,
                                       double high, std::size_t bins) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, util::Histogram(low, high, bins,
                                            util::HistogramEdgePolicy::kClamp))
             .first;
  } else {
    util::Require(it->second.Low() == low && it->second.High() == high &&
                      it->second.Bins() == bins,
                  "metrics histogram re-registered with a different shape");
  }
  return &it->second;
}

util::Histogram* MetricsRegistry::TimingHist(const std::string& name,
                                             double low, double high,
                                             std::size_t bins) {
  auto it = timing_histograms_.find(name);
  if (it == timing_histograms_.end()) {
    it = timing_histograms_
             .emplace(name, util::Histogram(low, high, bins,
                                            util::HistogramEdgePolicy::kClamp))
             .first;
  } else {
    util::Require(it->second.Low() == low && it->second.High() == high &&
                      it->second.Bins() == bins,
                  "metrics histogram re-registered with a different shape");
  }
  return &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot s;
  s.counters = counters_;
  s.gauges = gauges_;
  s.sums = sums_;
  s.timings = timings_;
  for (const auto& [name, hist] : histograms_) {
    s.histograms.emplace(name, ToData(hist));
  }
  for (const auto& [name, hist] : timing_histograms_) {
    s.timing_histograms.emplace(name, ToData(hist));
  }
  return s;
}

}  // namespace wsn::obs
