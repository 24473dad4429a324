#include "netsim/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace wsn::netsim {

using util::Require;

void FaultConfig::Validate() const {
  Require(crash_rate_hz >= 0.0, "fault crash rate must be >= 0");
  Require(mean_outage_s >= 0.0, "fault mean outage must be >= 0");
  if (crash_rate_hz > 0.0) {
    Require(mean_outage_s > 0.0,
            "fault crashes need a positive mean outage (mean_outage_s)");
  }
  Require(jam_radius_m >= 0.0, "jam radius must be >= 0");
  Require(jam_duration_s >= 0.0, "jam duration must be >= 0");
  if (jam_windows > 0) {
    Require(jam_radius_m > 0.0, "jam windows need a positive radius");
    Require(jam_duration_s > 0.0, "jam windows need a positive duration");
    Require(jam_p_loss > 0.0 && jam_p_loss <= 1.0,
            "jam p_loss must be in (0, 1]");
  }
  Require(sink_outage_s >= 0.0, "sink outage length must be >= 0");
  if (sink_outages > 0) {
    Require(sink_outage_s > 0.0,
            "sink outages need a positive length (sink_outage_s)");
  }
  for (const FaultEvent& e : scripted) {
    Require(e.t >= 0.0, "scripted fault events must have t >= 0");
  }
}

namespace {

/// Exponential variate with mean `mean` (> 0).
double ExpDraw(util::Rng& rng, double mean) {
  return -std::log(util::UniformDoubleOpenLow(rng)) * mean;
}

}  // namespace

FaultPlan FaultPlan::Generate(const FaultConfig& config,
                              const std::vector<node::Position>& positions,
                              std::size_t sink_count, double horizon_s,
                              util::Rng rng) {
  config.Validate();
  Require(horizon_s > 0.0, "fault plan needs a positive horizon");
  const std::size_t n = positions.size();
  FaultPlan plan;

  for (const FaultEvent& e : config.scripted) {
    Require(e.node < n, "scripted fault event targets an unknown node");
    plan.events.push_back(e);
  }

  // Per-node crash Poisson process, nodes in index order so the plan is
  // a pure function of (config, topology, stream).  No crash can land
  // while the node is still down: the clock advances past each recovery.
  if (config.crash_rate_hz > 0.0) {
    const double mean_gap = 1.0 / config.crash_rate_hz;
    for (std::size_t i = 0; i < n; ++i) {
      double t = ExpDraw(rng, mean_gap);
      while (t < horizon_s) {
        const double outage = ExpDraw(rng, config.mean_outage_s);
        plan.events.push_back(
            {t, FaultEventKind::kCrash, static_cast<std::uint32_t>(i)});
        plan.events.push_back({t + outage, FaultEventKind::kRecover,
                               static_cast<std::uint32_t>(i)});
        t += outage + ExpDraw(rng, mean_gap);
      }
    }
  }
  // Stable by time: same-instant events fire in generation order, which
  // is itself deterministic — replays are exact, and a scripted
  // crash/recover pair at one instant keeps its authored order.
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.t < b.t; });

  if (config.jam_windows > 0) {
    // Window centers land uniformly over the deployment's bounding box,
    // starts uniformly over the horizon.
    double min_x = std::numeric_limits<double>::infinity();
    double min_y = std::numeric_limits<double>::infinity();
    double max_x = -std::numeric_limits<double>::infinity();
    double max_y = -std::numeric_limits<double>::infinity();
    for (const node::Position& p : positions) {
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
    for (std::size_t k = 0; k < config.jam_windows; ++k) {
      JamWindow jam;
      jam.center.x = min_x + util::UniformDouble(rng) * (max_x - min_x);
      jam.center.y = min_y + util::UniformDouble(rng) * (max_y - min_y);
      jam.radius_m = config.jam_radius_m;
      jam.start_s = util::UniformDouble(rng) * horizon_s;
      jam.end_s = jam.start_s + config.jam_duration_s;
      jam.p_loss = config.jam_p_loss;
      plan.jams.push_back(jam);
    }
  }

  if (config.sink_outages > 0) {
    Require(sink_count > 0, "sink outages need at least one sink");
    for (std::size_t k = 0; k < config.sink_outages; ++k) {
      SinkOutage outage;
      outage.sink = static_cast<std::uint32_t>(k % sink_count);
      outage.start_s = util::UniformDouble(rng) * horizon_s;
      outage.end_s = outage.start_s + config.sink_outage_s;
      plan.sink_outages.push_back(outage);
    }
  }
  return plan;
}

double FaultEngine::JamExtraLoss(const node::Position& p,
                                 double now) const noexcept {
  double pass = 1.0;
  for (const JamWindow& jam : plan_.jams) {
    if (now < jam.start_s || now >= jam.end_s) continue;
    if (node::Distance2(p, jam.center) > jam.radius_m * jam.radius_m) continue;
    pass *= 1.0 - jam.p_loss;
  }
  return 1.0 - pass;
}

bool FaultEngine::SinkDown(std::size_t sink, double now) const noexcept {
  for (const SinkOutage& outage : plan_.sink_outages) {
    if (outage.sink == sink && now >= outage.start_s && now < outage.end_s) {
      return true;
    }
  }
  return false;
}

}  // namespace wsn::netsim
