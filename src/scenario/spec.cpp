#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "core/models.hpp"
#include "des/bursty_workload.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

namespace {

[[noreturn]] void SpecFail(const std::string& message) {
  throw util::InvalidArgument("spec: " + message);
}

/// Compact number rendering for error messages: integers without a
/// decimal point, everything else in %g form.
std::string NumStr(double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  return buf;
}

std::string JoinList(std::initializer_list<const char*> items) {
  std::string out;
  for (const char* item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

/// A JSON object plus its "$.section" path: every getter validates type
/// and range and fails with the member's full path.  Accepted-key lists
/// are kept sorted in the source so error messages read alphabetically.
class ObjView {
 public:
  ObjView(const util::JsonValue& v, std::string path)
      : v_(&v), path_(std::move(path)) {}

  const std::string& Path() const { return path_; }
  std::string At(const char* key) const { return path_ + "." + key; }
  bool Has(const char* key) const { return v_->Find(key) != nullptr; }
  bool Empty() const { return v_->Members().empty(); }

  /// Reject members outside `accepted`.  `note` qualifies the accepted
  /// list, e.g. " for study 'lifetime'" at the document root.
  void RequireKeys(std::initializer_list<const char*> accepted,
                   const std::string& note = "") const {
    for (const auto& [key, value] : v_->Members()) {
      bool known = false;
      for (const char* a : accepted) {
        if (key == a) {
          known = true;
          break;
        }
      }
      if (!known) {
        SpecFail("unknown key '" + key + "' at " + path_ + " (accepted" +
                 note + ": " + JoinList(accepted) + ")");
      }
    }
  }

  double Number(const char* key, double fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    return m->AsNumber();
  }

  double Positive(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v > 0.0)) SpecFail(At(key) + ": must be > 0 (got " + NumStr(v) + ")");
    return v;
  }

  double NonNegative(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0)) {
      SpecFail(At(key) + ": must be >= 0 (got " + NumStr(v) + ")");
    }
    return v;
  }

  /// Loss probabilities live in [0, 1) — MacConfig rejects p_loss = 1.
  double LossProb(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0 && v < 1.0)) {
      SpecFail(At(key) + ": must be in [0, 1) (got " + NumStr(v) + ")");
    }
    return v;
  }

  /// Head fractions / jam losses live in (0, 1].
  double FractionOpenLow(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v > 0.0 && v <= 1.0)) {
      SpecFail(At(key) + ": must be in (0, 1] (got " + NumStr(v) + ")");
    }
    return v;
  }

  /// Advanced-node fractions live in [0, 1].
  double FractionClosed(const char* key, double fallback) const {
    const double v = Number(key, fallback);
    if (!(v >= 0.0 && v <= 1.0)) {
      SpecFail(At(key) + ": must be in [0, 1] (got " + NumStr(v) + ")");
    }
    return v;
  }

  std::size_t Count(const char* key, std::size_t fallback,
                    std::size_t min) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    const double v = m->AsNumber();
    if (v != std::floor(v) || std::abs(v) > 9.0e15) {
      SpecFail(At(key) + ": expected an integer, got " + NumStr(v));
    }
    if (v < static_cast<double>(min)) {
      SpecFail(At(key) + ": must be >= " + std::to_string(min) + " (got " +
               NumStr(v) + ")");
    }
    return static_cast<std::size_t>(v);
  }

  std::uint64_t U64(const char* key, std::uint64_t fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_number()) {
      SpecFail(At(key) + ": expected a number, got " + m->TypeName());
    }
    const double v = m->AsNumber();
    if (v != std::floor(v) || std::abs(v) > 9.0e15) {
      SpecFail(At(key) + ": expected an integer, got " + NumStr(v));
    }
    if (v < 0.0) {
      SpecFail(At(key) + ": must be >= 0 (got " + NumStr(v) + ")");
    }
    return static_cast<std::uint64_t>(v);
  }

  bool Bool(const char* key, bool fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_bool()) {
      SpecFail(At(key) + ": expected a boolean, got " + m->TypeName());
    }
    return m->AsBool();
  }

  std::string Choice(const char* key, const std::string& fallback,
                     std::initializer_list<const char*> choices) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_string()) {
      SpecFail(At(key) + ": expected a string, got " + m->TypeName());
    }
    const std::string& v = m->AsString();
    for (const char* c : choices) {
      if (v == c) return v;
    }
    SpecFail(At(key) + ": unknown value '" + v +
             "' (one of: " + JoinList(choices) + ")");
  }

  /// Non-empty array of strictly positive numbers (a sweep-axis list in
  /// the faults study).  Arity errors name the count.
  std::vector<double> PositiveArray(const char* key,
                                    std::vector<double> fallback) const {
    const util::JsonValue* m = v_->Find(key);
    if (m == nullptr) return fallback;
    if (!m->is_array()) {
      SpecFail(At(key) + ": expected an array of numbers, got " +
               m->TypeName());
    }
    const auto& items = m->Items();
    if (items.empty()) {
      SpecFail(At(key) + ": needs at least 1 entry (got 0)");
    }
    std::vector<double> values;
    values.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string at = At(key) + "[" + std::to_string(i) + "]";
      if (!items[i].is_number()) {
        SpecFail(at + ": expected a number, got " + items[i].TypeName());
      }
      const double v = items[i].AsNumber();
      if (!(v > 0.0)) SpecFail(at + ": must be > 0 (got " + NumStr(v) + ")");
      values.push_back(v);
    }
    return values;
  }

  const util::JsonValue* Raw(const char* key) const { return v_->Find(key); }

 private:
  const util::JsonValue* v_;
  std::string path_;
};

/// Fetch an optional object-valued section of `root`.
std::optional<ObjView> Section(const ObjView& root, const char* key) {
  const util::JsonValue* v = root.Raw(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_object()) {
    SpecFail(root.At(key) + ": expected an object, got " + v->TypeName());
  }
  return ObjView(*v, root.At(key));
}

/// The shared `run` section of the named studies (the generic study
/// adds `stop_at` and parses its own).
void ParseRunSection(const std::optional<ObjView>& run, double& horizon_s,
                     std::size_t& replications, std::uint64_t& seed) {
  if (!run) return;
  run->RequireKeys({"horizon_s", "replications", "seed"});
  horizon_s = run->Positive("horizon_s", horizon_s);
  replications = run->Count("replications", replications, 1);
  seed = run->U64("seed", seed);
}

/// `topology` section of the cols x rows grid studies.  `sinks`
/// participates only where the registry twin exposes --sinks.
void ParseGridTopology(const std::optional<ObjView>& t, std::size_t& cols,
                       std::size_t& rows, double& spacing_m, double& hop_m,
                       std::size_t* sinks) {
  if (!t) return;
  if (sinks != nullptr) {
    t->RequireKeys({"cols", "hop", "rows", "sinks", "spacing"});
    *sinks = t->Count("sinks", *sinks, 1);
    if (*sinks > 4) {
      SpecFail(t->At("sinks") + ": must be in 1..4 (got " +
               std::to_string(*sinks) + ")");
    }
  } else {
    t->RequireKeys({"cols", "hop", "rows", "spacing"});
  }
  cols = t->Count("cols", cols, 1);
  rows = t->Count("rows", rows, 1);
  spacing_m = t->Positive("spacing", spacing_m);
  hop_m = t->Positive("hop", hop_m);
}

void ParseClusterSection(const ObjView& c, ClusterKnobs& knobs) {
  c.RequireKeys({"aggregation", "head_fraction", "protocol", "round_s",
                 "static_heads"});
  knobs.protocol = netsim::ParseClusterProtocolKind(
      c.Choice("protocol", netsim::ClusterProtocolKindName(knobs.protocol),
               {"leach", "static"}));
  knobs.head_fraction = c.FractionOpenLow("head_fraction", knobs.head_fraction);
  knobs.static_heads = c.Count("static_heads", knobs.static_heads, 0);
  knobs.round_s = c.Positive("round_s", knobs.round_s);
  knobs.aggregation = c.Count("aggregation", knobs.aggregation, 1);
}

// ------------------------------------------------------------- studies

LifetimeStudyParams ParseLifetime(const ObjView& root) {
  root.RequireKeys({"node", "run", "study", "topology", "traffic"},
                   " for study 'lifetime'");
  LifetimeStudyParams p;
  ParseGridTopology(Section(root, "topology"), p.cols, p.rows, p.spacing_m,
                    p.hop_m, nullptr);
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"battery_mah", "rate"});
    p.rate_hz = n->Positive("rate", p.rate_hz);
    p.battery_mah = n->Positive("battery_mah", p.battery_mah);
  }
  if (const auto t = Section(root, "traffic")) {
    t->RequireKeys({"kind"});
    p.steady = t->Choice("kind", p.steady ? "steady" : "bursty",
                         {"bursty", "steady"}) == "steady";
  }
  ParseRunSection(Section(root, "run"), p.horizon_s, p.replications, p.seed);
  return p;
}

ThroughputStudyParams ParseThroughput(const ObjView& root) {
  root.RequireKeys({"cluster", "node", "run", "study", "topology"},
                   " for study 'throughput'");
  ThroughputStudyParams p;
  ParseGridTopology(Section(root, "topology"), p.cols, p.rows, p.spacing_m,
                    p.hop_m, nullptr);
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"rate"});
    p.rate_hz = n->Positive("rate", p.rate_hz);
  }
  if (const auto c = Section(root, "cluster")) {
    if (!c->Empty()) {
      SpecFail(c->Path() +
               ": study 'throughput' derives its cluster knobs (round = "
               "horizon/5, aggregation 4); pass an empty object to enable "
               "the clustered data path");
    }
    p.clustered = true;
  }
  ParseRunSection(Section(root, "run"), p.horizon_s, p.replications, p.seed);
  return p;
}

ClusteredStudyParams ParseClustered(const ObjView& root) {
  root.RequireKeys({"cluster", "node", "run", "study", "topology"},
                   " for study 'clustered'");
  ClusteredStudyParams p;
  ParseGridTopology(Section(root, "topology"), p.grid.cols, p.grid.rows,
                    p.grid.spacing_m, p.grid.hop_m, &p.grid.sinks);
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"battery_mah", "rate"});
    p.grid.rate_hz = n->Positive("rate", p.grid.rate_hz);
    p.grid.battery_mah = n->Positive("battery_mah", p.grid.battery_mah);
  }
  if (const auto c = Section(root, "cluster")) {
    ParseClusterSection(*c, p.cluster);
  }
  if (const auto run = Section(root, "run")) {
    run->RequireKeys({"horizon_s", "replications", "seed"});
    p.grid.horizon_s = run->Positive("horizon_s", p.grid.horizon_s);
    p.replications = run->Count("replications", p.replications, 1);
    p.seed = run->U64("seed", p.seed);
  }
  return p;
}

HeterogeneousStudyParams ParseHeterogeneous(const ObjView& root) {
  root.RequireKeys({"classes", "node", "run", "study", "topology"},
                   " for study 'heterogeneous'");
  HeterogeneousStudyParams p;
  ParseGridTopology(Section(root, "topology"), p.grid.cols, p.grid.rows,
                    p.grid.spacing_m, p.grid.hop_m, nullptr);
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"battery_mah", "rate"});
    p.grid.rate_hz = n->Positive("rate", p.grid.rate_hz);
    p.grid.battery_mah = n->Positive("battery_mah", p.grid.battery_mah);
  }
  if (const auto c = Section(root, "classes")) {
    c->RequireKeys({"advanced_fraction", "battery_factor", "placement"});
    p.advanced_fraction =
        c->FractionClosed("advanced_fraction", p.advanced_fraction);
    p.battery_factor = c->Positive("battery_factor", p.battery_factor);
    p.placement = c->Choice("placement", p.placement, {"hotspot", "spread"});
  }
  if (const auto run = Section(root, "run")) {
    run->RequireKeys({"horizon_s", "replications", "seed"});
    p.grid.horizon_s = run->Positive("horizon_s", p.grid.horizon_s);
    p.replications = run->Count("replications", p.replications, 1);
    p.seed = run->U64("seed", p.seed);
  }
  return p;
}

FaultStudyParams ParseFaults(const ObjView& root) {
  root.RequireKeys({"faults", "node", "run", "study", "topology"},
                   " for study 'faults'");
  FaultStudyParams p;
  if (const auto t = Section(root, "topology")) {
    t->RequireKeys({"hop", "nodes", "spacing"});
    p.nodes = t->Count("nodes", p.nodes, 2);
    p.spacing_m = t->Positive("spacing", p.spacing_m);
    p.hop_m = t->Positive("hop", p.hop_m);
  }
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"rate"});
    p.rate_hz = n->Positive("rate", p.rate_hz);
  }
  if (const auto f = Section(root, "faults")) {
    f->RequireKeys({"crash_rates", "jam_duration", "jam_p_loss", "jam_radius",
                    "jam_windows", "outages", "sink_outage_s",
                    "sink_outages"});
    p.crash_rates = f->PositiveArray("crash_rates", p.crash_rates);
    p.outages = f->PositiveArray("outages", p.outages);
    p.jam_windows = f->Count("jam_windows", p.jam_windows, 0);
    p.jam_radius_m = f->Positive("jam_radius", p.jam_radius_m);
    if (f->Has("jam_duration")) {
      p.jam_duration_s = f->Positive("jam_duration", p.jam_duration_s);
    }
    p.jam_p_loss = f->FractionOpenLow("jam_p_loss", p.jam_p_loss);
    p.sink_outages = f->Count("sink_outages", p.sink_outages, 0);
    if (f->Has("sink_outage_s")) {
      p.sink_outage_s = f->Positive("sink_outage_s", p.sink_outage_s);
    }
  }
  ParseRunSection(Section(root, "run"), p.horizon_s, p.replications, p.seed);
  return p;
}

// ------------------------------------------------------------- generic

/// Range discipline of a sweepable knob.
enum class AxisRange { kPositive, kLossProb, kFractionOpenLow };

struct SweepableKnob {
  const char* key;
  AxisRange range;
  bool needs_cluster;
};

/// Sorted by key — the order error messages list them in.
constexpr SweepableKnob kSweepable[] = {
    {"cluster.head_fraction", AxisRange::kFractionOpenLow, true},
    {"cluster.round_s", AxisRange::kPositive, true},
    {"faults.crash_rate", AxisRange::kPositive, false},
    {"faults.outage_s", AxisRange::kPositive, false},
    {"mac.p_loss", AxisRange::kLossProb, false},
    {"node.battery_mah", AxisRange::kPositive, false},
    {"node.rate", AxisRange::kPositive, false},
    {"run.horizon_s", AxisRange::kPositive, false},
    {"topology.hop", AxisRange::kPositive, false},
    {"topology.spacing", AxisRange::kPositive, false},
};

std::string SweepableList() {
  std::string out;
  for (const SweepableKnob& k : kSweepable) {
    if (!out.empty()) out += ", ";
    out += k.key;
  }
  return out;
}

/// Sorted column vocabulary of the generic study's cells table.
constexpr const char* kColumns[] = {
    "conserved",     "crashes",   "delivered", "delivery_ratio",
    "dropped",       "events",    "first_death_s", "generated",
    "healed",        "in_flight", "partition_s",   "recoveries",
};

std::string ColumnList() {
  std::string out;
  for (const char* c : kColumns) {
    if (!out.empty()) out += ", ";
    out += c;
  }
  return out;
}

void ApplyAxis(GenericSpec& g, const std::string& key, double v) {
  if (key == "node.rate") {
    g.rate_hz = v;
  } else if (key == "node.battery_mah") {
    g.battery_mah = v;
  } else if (key == "topology.hop") {
    g.hop_m = v;
  } else if (key == "topology.spacing") {
    g.spacing_m = v;
  } else if (key == "faults.crash_rate") {
    g.crash_rate_hz = v;
  } else if (key == "faults.outage_s") {
    g.outage_s = v;
  } else if (key == "cluster.head_fraction") {
    g.cluster.head_fraction = v;
  } else if (key == "cluster.round_s") {
    g.cluster.round_s = v;
  } else if (key == "mac.p_loss") {
    g.p_loss = v;
  } else if (key == "run.horizon_s") {
    g.horizon_s = v;
  }
}

void ParseSweep(const ObjView& root, GenericSpec& g) {
  const util::JsonValue* sv = root.Raw("sweep");
  if (sv == nullptr) return;
  if (!sv->is_array()) {
    SpecFail(root.At("sweep") + ": expected an array of axis objects, got " +
             sv->TypeName());
  }
  const auto& items = sv->Items();
  if (items.size() > 3) {
    SpecFail(root.At("sweep") + ": at most 3 axes (got " +
             std::to_string(items.size()) + ")");
  }
  std::size_t cells = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string at = root.At("sweep") + "[" + std::to_string(i) + "]";
    if (!items[i].is_object()) {
      SpecFail(at + ": expected an axis object, got " + items[i].TypeName());
    }
    const ObjView axis_view(items[i], at);
    axis_view.RequireKeys({"key", "values"});
    if (!axis_view.Has("key")) {
      SpecFail("missing required key 'key' at " + at);
    }
    if (!axis_view.Has("values")) {
      SpecFail("missing required key 'values' at " + at);
    }
    const util::JsonValue* key = axis_view.Raw("key");
    if (!key->is_string()) {
      SpecFail(at + ".key: expected a string, got " + key->TypeName());
    }
    SweepAxis axis;
    axis.key = key->AsString();
    const SweepableKnob* knob = nullptr;
    for (const SweepableKnob& k : kSweepable) {
      if (axis.key == k.key) {
        knob = &k;
        break;
      }
    }
    if (knob == nullptr) {
      SpecFail(at + ".key: '" + axis.key +
               "' is not sweepable (sweepable: " + SweepableList() + ")");
    }
    for (const SweepAxis& seen : g.sweep) {
      if (seen.key == axis.key) {
        SpecFail(at + ".key: duplicate axis '" + axis.key + "'");
      }
    }
    if (knob->needs_cluster && !g.clustered) {
      SpecFail(at + ".key: '" + axis.key + "' requires a cluster section");
    }
    const util::JsonValue* vals = axis_view.Raw("values");
    if (!vals->is_array()) {
      SpecFail(at + ".values: expected an array of numbers, got " +
               vals->TypeName());
    }
    if (vals->Items().empty()) {
      SpecFail(at + ".values: needs at least 1 entry (got 0)");
    }
    for (std::size_t j = 0; j < vals->Items().size(); ++j) {
      const std::string vat = at + ".values[" + std::to_string(j) + "]";
      const util::JsonValue& item = vals->Items()[j];
      if (!item.is_number()) {
        SpecFail(vat + ": expected a number, got " + item.TypeName());
      }
      const double v = item.AsNumber();
      switch (knob->range) {
        case AxisRange::kPositive:
          if (!(v > 0.0)) {
            SpecFail(vat + ": must be > 0 (got " + NumStr(v) + ")");
          }
          break;
        case AxisRange::kLossProb:
          if (!(v >= 0.0 && v < 1.0)) {
            SpecFail(vat + ": must be in [0, 1) (got " + NumStr(v) + ")");
          }
          break;
        case AxisRange::kFractionOpenLow:
          if (!(v > 0.0 && v <= 1.0)) {
            SpecFail(vat + ": must be in (0, 1] (got " + NumStr(v) + ")");
          }
          break;
      }
      axis.values.push_back(v);
    }
    cells *= axis.values.size();
    g.sweep.push_back(std::move(axis));
  }
  if (cells > 64) {
    SpecFail(root.At("sweep") + ": " + std::to_string(cells) +
             " cells exceed the 64-cell cap (axis lengths multiply)");
  }
}

/// The first generic knob that makes the analytic cross-check invalid,
/// or "" when the spec is analytically comparable.
std::string AnalyticConflict(const GenericSpec& g) {
  if (g.clustered) {
    return "the cluster section (the analytic estimator models flat greedy "
           "routing)";
  }
  if (g.bursty) {
    return "traffic.kind 'bursty' (the analytic estimator assumes steady "
           "Poisson traffic)";
  }
  if (g.crash_rate_hz > 0.0 || g.jam_windows > 0 || g.sink_outages > 0) {
    return "the faults section (the analytic estimator has no fault model)";
  }
  if (g.p_loss > 0.0) {
    return "mac.p_loss > 0 (the analytic estimator assumes a lossless MAC)";
  }
  if (g.wakeup_interval_s > 0.0) {
    return "mac.wakeup_interval_s > 0 (the analytic estimator assumes an "
           "always-on MAC)";
  }
  if (g.rerouting) {
    return "routing.rerouting true (disable rerouting so the simulated first "
           "death matches the static routes)";
  }
  if (g.stop_at != "first_death") {
    return "run.stop_at '" + g.stop_at +
           "' (use 'first_death' so the run measures lifetime)";
  }
  if (g.sinks > 1) {
    return "topology.sinks > 1 (the analytic estimator models a single "
           "sink)";
  }
  return "";
}

GenericSpec ParseGeneric(const ObjView& root) {
  root.RequireKeys({"classes", "cluster", "faults", "mac", "node", "output",
                    "routing", "run", "study", "sweep", "topology", "traffic",
                    "verify"},
                   " for study 'generic'");
  GenericSpec g;
  if (const auto t = Section(root, "topology")) {
    t->RequireKeys({"cols", "hop", "nodes", "rows", "sinks", "spacing"});
    if (t->Has("nodes") && (t->Has("cols") || t->Has("rows"))) {
      SpecFail(t->Path() +
               ": 'nodes' conflicts with 'cols'/'rows' (a 'nodes' deployment "
               "derives its own near-square grid)");
    }
    g.nodes = t->Count("nodes", g.nodes, 2);
    g.cols = t->Count("cols", g.cols, 1);
    g.rows = t->Count("rows", g.rows, 1);
    g.spacing_m = t->Positive("spacing", g.spacing_m);
    g.hop_m = t->Positive("hop", g.hop_m);
    g.sinks = t->Count("sinks", g.sinks, 1);
    if (g.sinks > 4) {
      SpecFail(t->At("sinks") + ": must be in 1..4 (got " +
               std::to_string(g.sinks) + ")");
    }
  }
  if (const auto n = Section(root, "node")) {
    n->RequireKeys({"battery_mah", "rate"});
    g.rate_hz = n->Positive("rate", g.rate_hz);
    g.battery_mah = n->Positive("battery_mah", g.battery_mah);
  }
  if (const auto t = Section(root, "traffic")) {
    t->RequireKeys({"kind"});
    g.bursty = t->Choice("kind", g.bursty ? "bursty" : "steady",
                         {"bursty", "steady"}) == "bursty";
  }
  if (const auto m = Section(root, "mac")) {
    m->RequireKeys({"max_queue", "max_retries", "p_loss",
                    "wakeup_interval_s"});
    g.p_loss = m->LossProb("p_loss", g.p_loss);
    g.wakeup_interval_s =
        m->NonNegative("wakeup_interval_s", g.wakeup_interval_s);
    g.max_retries = m->Count("max_retries", g.max_retries, 0);
    g.max_queue = m->Count("max_queue", g.max_queue, 1);
  }
  if (const auto r = Section(root, "routing")) {
    r->RequireKeys({"rerouting"});
    g.rerouting = r->Bool("rerouting", g.rerouting);
  }
  if (const auto c = Section(root, "cluster")) {
    g.clustered = true;
    c->RequireKeys({"aggregation", "head_fraction", "protocol", "round_s",
                    "static_heads"});
    ClusterKnobs knobs = g.cluster;
    knobs.protocol = netsim::ParseClusterProtocolKind(
        c->Choice("protocol", "leach", {"leach", "static"}));
    knobs.head_fraction =
        c->FractionOpenLow("head_fraction", knobs.head_fraction);
    knobs.static_heads = c->Count("static_heads", knobs.static_heads, 0);
    knobs.round_s = c->Positive("round_s", knobs.round_s);
    knobs.aggregation = c->Count("aggregation", knobs.aggregation, 1);
    g.cluster = knobs;
  }
  if (const auto c = Section(root, "classes")) {
    c->RequireKeys({"advanced_fraction", "battery_factor", "placement"});
    g.advanced_fraction =
        c->FractionClosed("advanced_fraction", g.advanced_fraction);
    g.battery_factor = c->Positive("battery_factor", g.battery_factor);
    g.placement = c->Choice("placement", g.placement, {"hotspot", "spread"});
  }
  if (const auto f = Section(root, "faults")) {
    f->RequireKeys({"crash_rate", "jam_duration", "jam_p_loss", "jam_radius",
                    "jam_windows", "outage_s", "sink_outage_s",
                    "sink_outages"});
    g.crash_rate_hz = f->NonNegative("crash_rate", g.crash_rate_hz);
    g.outage_s = f->NonNegative("outage_s", g.outage_s);
    g.jam_windows = f->Count("jam_windows", g.jam_windows, 0);
    g.jam_radius_m = f->Positive("jam_radius", g.jam_radius_m);
    if (f->Has("jam_duration")) {
      g.jam_duration_s = f->Positive("jam_duration", g.jam_duration_s);
    }
    g.jam_p_loss = f->FractionOpenLow("jam_p_loss", g.jam_p_loss);
    g.sink_outages = f->Count("sink_outages", g.sink_outages, 0);
    if (f->Has("sink_outage_s")) {
      g.sink_outage_s = f->Positive("sink_outage_s", g.sink_outage_s);
    }
    if (g.crash_rate_hz > 0.0 && !(g.outage_s > 0.0)) {
      SpecFail(f->Path() + ": 'crash_rate' > 0 requires 'outage_s' > 0");
    }
  }
  if (const auto run = Section(root, "run")) {
    run->RequireKeys({"horizon_s", "replications", "seed", "stop_at"});
    g.horizon_s = run->Positive("horizon_s", g.horizon_s);
    g.stop_at = run->Choice("stop_at", g.stop_at,
                            {"first_death", "horizon", "partition"});
    g.replications = run->Count("replications", g.replications, 1);
    g.seed = run->U64("seed", g.seed);
  }
  ParseSweep(root, g);
  if (const auto o = Section(root, "output")) {
    o->RequireKeys({"columns"});
    const util::JsonValue* cols = o->Raw("columns");
    if (cols != nullptr) {
      if (!cols->is_array()) {
        SpecFail(o->At("columns") + ": expected an array of column names, "
                 "got " + cols->TypeName());
      }
      if (cols->Items().empty()) {
        SpecFail(o->At("columns") + ": needs at least 1 entry (got 0)");
      }
      for (std::size_t i = 0; i < cols->Items().size(); ++i) {
        const std::string at =
            o->At("columns") + "[" + std::to_string(i) + "]";
        const util::JsonValue& item = cols->Items()[i];
        if (!item.is_string()) {
          SpecFail(at + ": expected a string, got " + item.TypeName());
        }
        const std::string& name = item.AsString();
        bool known = false;
        for (const char* c : kColumns) {
          if (name == c) {
            known = true;
            break;
          }
        }
        if (!known) {
          SpecFail(at + ": unknown column '" + name +
                   "' (available: " + ColumnList() + ")");
        }
        if (std::find(g.columns.begin(), g.columns.end(), name) !=
            g.columns.end()) {
          SpecFail(at + ": duplicate column '" + name + "'");
        }
        g.columns.push_back(name);
      }
    }
  }
  if (const auto v = Section(root, "verify")) {
    v->RequireKeys({"analytic", "oracle"});
    g.verify_oracle = v->Bool("oracle", g.verify_oracle);
    g.verify_analytic = v->Bool("analytic", g.verify_analytic);
  }
  if (g.verify_analytic) {
    const std::string conflict = AnalyticConflict(g);
    if (!conflict.empty()) {
      SpecFail(root.At("verify") + ".analytic: conflicts with " + conflict);
    }
    for (const SweepAxis& axis : g.sweep) {
      if (axis.key == "mac.p_loss" || axis.key == "faults.crash_rate" ||
          axis.key == "faults.outage_s") {
        SpecFail(root.At("verify") + ".analytic: conflicts with sweep axis '" +
                 axis.key + "'");
      }
    }
  }
  if (g.columns.empty()) {
    g.columns = {"generated",      "delivered",     "dropped",
                 "delivery_ratio", "first_death_s", "conserved"};
  }
  return g;
}

// ------------------------------------------------- generic interpreter

netsim::NetSimConfig BuildGenericConfig(const GenericSpec& g) {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = g.rate_hz;
  cfg.network.node.cpu.service_rate = 10.0 * std::max(g.rate_hz, 0.1);
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = g.battery_mah;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = g.hop_m;

  std::size_t cols = g.cols;
  std::size_t rows = g.rows;
  if (g.nodes > 0) {
    cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(g.nodes))));
    rows = (g.nodes + cols - 1) / cols;
    cfg.positions = NearSquareGrid(g.nodes, g.spacing_m);
  } else {
    cfg.positions = node::MakeGrid(cols, rows, g.spacing_m);
  }
  cfg.horizon_s = g.horizon_s;

  const double x_max = (static_cast<double>(cols) + 1.0) * g.spacing_m;
  const double y_max = (static_cast<double>(rows) + 1.0) * g.spacing_m;
  if (g.sinks >= 2) cfg.sinks = {{0.0, 0.0}, {x_max, y_max}};
  if (g.sinks >= 3) cfg.sinks.push_back({x_max, 0.0});
  if (g.sinks >= 4) cfg.sinks.push_back({0.0, y_max});

  cfg.mac.p_loss = g.p_loss;
  cfg.mac.wakeup_interval_s = g.wakeup_interval_s;
  cfg.mac.max_retries = g.max_retries;
  cfg.mac.max_queue = g.max_queue;

  cfg.rerouting = g.rerouting;
  cfg.stop_at_first_death = g.stop_at == "first_death";
  cfg.stop_at_partition = g.stop_at == "partition";

  if (g.clustered) ApplyClusterKnobs(cfg, g.cluster);

  if (g.bursty) {
    // Same quiet/storm MMPP shape as the lifetime study: 20% of the
    // nominal rate most of the time, 10x bursts, long-run mean close to
    // the nominal rate.
    const double rate = g.rate_hz;
    cfg.traffic_factory = [rate](std::size_t) {
      return std::make_unique<des::MmppWorkload>(
          std::vector<double>{0.2 * rate, 10.0 * rate},
          std::vector<std::vector<double>>{{-0.02, 0.02}, {0.2, -0.2}});
    };
  }

  if (g.crash_rate_hz > 0.0) {
    cfg.faults.crash_rate_hz = g.crash_rate_hz;
    cfg.faults.mean_outage_s = g.outage_s;
  }
  if (g.jam_windows > 0) {
    cfg.faults.jam_windows = g.jam_windows;
    cfg.faults.jam_radius_m = g.jam_radius_m;
    cfg.faults.jam_duration_s =
        g.jam_duration_s > 0.0 ? g.jam_duration_s : g.horizon_s / 10.0;
    cfg.faults.jam_p_loss = g.jam_p_loss;
  }
  if (g.sink_outages > 0) {
    cfg.faults.sink_outages = g.sink_outages;
    cfg.faults.sink_outage_s =
        g.sink_outage_s > 0.0 ? g.sink_outage_s : g.horizon_s / 10.0;
  }

  if (g.advanced_fraction > 0.0) {
    netsim::NodeClass standard;
    standard.name = "standard";
    standard.battery_mah = cfg.network.node.battery_mah;
    standard.battery_volts = cfg.network.node.battery_volts;
    standard.radio = cfg.network.node.radio;
    standard.listen_duty_cycle = cfg.network.node.listen_duty_cycle;
    netsim::NodeClass advanced = standard;
    advanced.name = "advanced";
    advanced.battery_mah = standard.battery_mah * g.battery_factor;
    cfg.classes = {standard, advanced};

    const std::size_t n = cfg.positions.size();
    const std::size_t advanced_count = static_cast<std::size_t>(
        std::lround(g.advanced_fraction * static_cast<double>(n)));
    cfg.node_class.assign(n, "standard");
    if (advanced_count > 0 && g.placement == "hotspot") {
      const core::MarkovCpuModel model;
      const node::Network analytic_net(cfg.network, cfg.positions);
      const node::NetworkReport report = analytic_net.Evaluate(model);
      std::vector<std::size_t> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const double la = report.nodes[a].relay_packets_per_second;
                  const double lb = report.nodes[b].relay_packets_per_second;
                  if (la != lb) return la > lb;
                  return a < b;
                });
      for (std::size_t j = 0; j < advanced_count; ++j) {
        cfg.node_class[order[j]] = "advanced";
      }
    } else if (advanced_count > 0) {  // spread
      for (std::size_t j = 0; j < advanced_count; ++j) {
        const std::size_t pick = (j * n + n / 2) / advanced_count;
        cfg.node_class[std::min(pick, n - 1)] = "advanced";
      }
    }
  }
  return cfg;
}

/// One expanded sweep cell: the base spec with axis values applied.
struct SpecCell {
  GenericSpec spec;
  std::string label;
};

std::vector<SpecCell> ExpandCells(const GenericSpec& g) {
  std::vector<SpecCell> cells{{g, ""}};
  for (const SweepAxis& axis : g.sweep) {
    std::vector<SpecCell> next;
    next.reserve(cells.size() * axis.values.size());
    for (const SpecCell& cell : cells) {
      for (const double v : axis.values) {
        SpecCell expanded = cell;
        ApplyAxis(expanded.spec, axis.key, v);
        if (!expanded.label.empty()) expanded.label += " ";
        expanded.label += axis.key + "=" + NumStr(v);
        next.push_back(std::move(expanded));
      }
    }
    cells = std::move(next);
  }
  for (SpecCell& cell : cells) {
    if (cell.label.empty()) cell.label = "base";
  }
  return cells;
}

ResultSet RunGenericStudy(const ScenarioContext& ctx, const GenericSpec& g) {
  const std::vector<SpecCell> cells = ExpandCells(g);
  netsim::ReplicationConfig rep;
  rep.replications = g.replications;
  rep.seed = g.seed;
  rep.keep_reports = true;

  ResultSet results(
      "declarative generic study: conservation-checked sweep cells");
  results.SetMeta("study", "generic");
  results.SetMeta("cells", std::to_string(cells.size()));
  results.SetMeta("replications", std::to_string(rep.replications));
  results.SetMeta("seed", std::to_string(rep.seed));
  std::string verify = "conservation";
  if (g.verify_oracle) verify += " + oracle";
  if (g.verify_analytic) verify += " + analytic";
  results.SetMeta("verify", verify);

  std::vector<std::string> header{"cell"};
  for (const std::string& column : g.columns) header.push_back(column);
  if (g.verify_analytic) {
    header.push_back("analytic first death (s)");
    header.push_back("rel err");
  }
  ResultTable& table = results.AddTable("cells", header);

  const core::MarkovCpuModel model;
  // The whole cell — production run, oracle twin, analytic check and
  // column formatting — is one sweep point, run (or replayed) through
  // the point harness; `cctx` may carry a forked worker's executor.
  const auto run_cell = [&](const ScenarioContext& cctx,
                            const SpecCell& cell) -> std::vector<std::string> {
    netsim::NetSimConfig cfg = BuildGenericConfig(cell.spec);
    ApplyObs(cctx, cfg);
    const netsim::ReplicationSummary summary =
        RunReplications(cfg, model, rep, cctx.Executor());
    ContributeObs(cctx, summary);

    const std::string where = "spec cell '" + cell.label + "'";
    for (std::size_t r = 0; r < summary.reports.size(); ++r) {
      RequireConserved(summary.reports[r], where, r);
    }

    if (g.verify_oracle) {
      // Oracle twin on identical streams: full routing recompute (flat)
      // or all-pairs head assignment (clustered).  Contributes no
      // observability output — it exists only to be compared against.
      netsim::NetSimConfig twin = cfg;
      twin.obs = obs::ObsConfig{};
      twin.oracle = true;
      const netsim::ReplicationSummary shadow =
          RunReplications(twin, model, rep, cctx.Executor());
      for (std::size_t r = 0; r < summary.reports.size(); ++r) {
        RequireEqualReports(summary.reports[r], shadow.reports[r], where, r);
      }
    }

    double analytic_s = 0.0;
    if (g.verify_analytic) {
      const node::Network analytic_net(cfg.network, cfg.positions);
      const node::NetworkReport analytic =
          cfg.classes.empty()
              ? analytic_net.Evaluate(model)
              : analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));
      analytic_s = analytic.network_lifetime_seconds;
      if (summary.first_death_s.observed != rep.replications) {
        throw util::Error(
            where + ": verify.analytic needs a death in every replication "
            "(observed " +
            std::to_string(summary.first_death_s.observed) + "/" +
            std::to_string(rep.replications) +
            "; raise run.horizon_s or shrink node.battery_mah)");
      }
      const double mean = summary.first_death_s.ci.mean;
      const double bound = std::max(3.0 * summary.first_death_s.ci.half_width,
                                    0.1 * analytic_s);
      if (std::abs(mean - analytic_s) > bound) {
        throw util::Error(
            where + ": simulated first death " + util::FormatFixed(mean, 1) +
            " s strayed from the analytic estimate " +
            util::FormatFixed(analytic_s, 1) + " s (bound " +
            util::FormatFixed(bound, 1) + " s)");
      }
    }

    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t events = 0;
    std::size_t healed = 0;
    for (const netsim::NetSimReport& report : summary.reports) {
      crashes += report.crashes;
      recoveries += report.recoveries;
      in_flight += report.in_flight;
      generated += report.packets.generated;
      delivered += report.packets.delivered;
      dropped += report.packets.TotalDropped();
      events += report.events;
      if (std::isfinite(report.heal_s)) ++healed;
    }

    std::vector<std::string> row{cell.label};
    for (const std::string& column : g.columns) {
      if (column == "generated") {
        row.push_back(std::to_string(generated));
      } else if (column == "delivered") {
        row.push_back(std::to_string(delivered));
      } else if (column == "dropped") {
        row.push_back(std::to_string(dropped));
      } else if (column == "crashes") {
        row.push_back(std::to_string(crashes));
      } else if (column == "recoveries") {
        row.push_back(std::to_string(recoveries));
      } else if (column == "events") {
        row.push_back(std::to_string(events));
      } else if (column == "in_flight") {
        row.push_back(std::to_string(in_flight));
      } else if (column == "delivery_ratio") {
        row.push_back(MetricCell(summary.delivery_ratio, 4));
      } else if (column == "first_death_s") {
        row.push_back(MetricCell(summary.first_death_s, 1));
      } else if (column == "partition_s") {
        row.push_back(MetricCell(summary.partition_s, 1));
      } else if (column == "healed") {
        row.push_back(ObservedCell(healed, summary.replications));
      } else {  // conserved — RequireConserved above hard-fails otherwise
        row.push_back("yes");
      }
    }
    if (g.verify_analytic) {
      const double mean = summary.first_death_s.ci.mean;
      row.push_back(util::FormatFixed(analytic_s, 1));
      row.push_back(
          util::FormatFixed(100.0 * std::abs(mean - analytic_s) / analytic_s,
                            2) +
          " %");
    }
    return row;
  };

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SpecCell& cell = cells[i];
    RunPointRow(ctx, table,
                "cell " + std::to_string(i) + ": " + cell.label, g.seed,
                cell.label,
                [&run_cell, &cell](const ScenarioContext& cctx,
                                   const PointEnv&) {
                  return run_cell(cctx, cell);
                });
  }

  results.AddNote(
      "every cell asserted packet conservation on every replication" +
      std::string(g.verify_oracle
                      ? "; every replication also ran against its "
                        "full-recompute oracle twin and matched field for "
                        "field"
                      : "") +
      std::string(g.verify_analytic
                      ? "; the simulated first death was checked against "
                        "the closed-form estimator within max(3 CI "
                        "half-widths, 10%)"
                      : "") +
      ".  All columns are deterministic per seed: any --threads value "
      "produces byte-identical output.");
  return results;
}

}  // namespace

ScenarioSpec ParseScenarioSpec(const std::string& json_text) {
  const util::JsonValue doc = util::ParseJson(json_text);
  if (!doc.is_object()) {
    SpecFail("expected a JSON object at $, got " + std::string(doc.TypeName()));
  }
  const ObjView root(doc, "$");
  const util::JsonValue* study = root.Raw("study");
  if (study == nullptr) {
    SpecFail(
        "missing required key 'study' at $ (one of: clustered, faults, "
        "generic, heterogeneous, lifetime, throughput)");
  }
  if (!study->is_string()) {
    SpecFail("$.study: expected a string, got " +
             std::string(study->TypeName()));
  }
  ScenarioSpec spec;
  spec.study = study->AsString();
  if (spec.study == "lifetime") {
    spec.lifetime = ParseLifetime(root);
  } else if (spec.study == "throughput") {
    spec.throughput = ParseThroughput(root);
  } else if (spec.study == "clustered") {
    spec.clustered = ParseClustered(root);
  } else if (spec.study == "heterogeneous") {
    spec.heterogeneous = ParseHeterogeneous(root);
  } else if (spec.study == "faults") {
    spec.faults = ParseFaults(root);
  } else if (spec.study == "generic") {
    spec.generic = ParseGeneric(root);
  } else {
    SpecFail("$.study: unknown study '" + spec.study +
             "' (one of: clustered, faults, generic, heterogeneous, "
             "lifetime, throughput)");
  }
  return spec;
}

ScenarioSpec LoadScenarioSpecFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::InvalidArgument("spec: cannot read file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseScenarioSpec(text.str());
  } catch (const util::InvalidArgument& e) {
    throw util::InvalidArgument(path + ": " + e.what());
  }
}

ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec) {
  if (spec.study == "lifetime") return RunLifetimeStudy(ctx, spec.lifetime);
  if (spec.study == "throughput") {
    return RunThroughputStudy(ctx, spec.throughput);
  }
  if (spec.study == "clustered") return RunClusteredStudy(ctx, spec.clustered);
  if (spec.study == "heterogeneous") {
    return RunHeterogeneousStudy(ctx, spec.heterogeneous);
  }
  if (spec.study == "faults") return RunFaultStudy(ctx, spec.faults);
  return RunGenericStudy(ctx, spec.generic);
}

}  // namespace wsn::scenario
