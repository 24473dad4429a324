#include "petri/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "petri/enabling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace wsn::petri {

using util::ModelError;
using util::Require;

namespace {

constexpr double kUnscheduled = std::numeric_limits<double>::infinity();

/// Per-net work done once per run or ensemble: checks the config and the
/// net and returns the net's timed transitions in ascending id, which
/// every replication then reads without changing.
std::vector<TransitionId> PrepareRun(const PetriNet& net,
                                     const SimulationConfig& config) {
  Require(config.horizon > 0.0, "horizon must be positive");
  Require(config.warmup >= 0.0 && config.warmup < config.horizon,
          "warmup must lie inside the horizon");
  net.Validate();
  std::vector<TransitionId> timed;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (!net.GetTransition(t).IsImmediate()) timed.push_back(t);
  }
  return timed;
}

/// One replication: owns its marking, timers, RNG and conflict buffer.
class TokenGame {
 public:
  TokenGame(const PetriNet& net, const std::vector<TransitionId>& timed,
            const SimulationConfig& config)
      : net_(net), timed_(timed), config_(config), rng_(config.seed) {}

  SimulationResult Run() {
    const std::size_t np = net_.PlaceCount();
    const std::size_t nt = net_.TransitionCount();
    SimulationResult result;
    result.mean_tokens.assign(np, 0.0);
    result.firings.assign(nt, 0);
    result.observed_time = config_.horizon - config_.warmup;

    Marking m = net_.InitialMarking();
    double now = 0.0;
    ResolveVanishing(m, now, result);

    // Absolute fire time per entry of timed_; infinity = not scheduled.
    std::vector<double> fire_at(timed_.size(), kUnscheduled);
    RefreshSchedule(m, now, fire_at);

    for (;;) {
      if (config_.max_firings != 0 &&
          result.total_firings >= config_.max_firings) {
        break;
      }
      // Earliest scheduled timed transition; ties break by lowest id for
      // determinism (timed_ is ascending).
      std::size_t next = timed_.size();
      double next_time = kUnscheduled;
      for (std::size_t k = 0; k < timed_.size(); ++k) {
        if (fire_at[k] < next_time) {
          next_time = fire_at[k];
          next = k;
        }
      }
      if (next == timed_.size()) {
        // Dead tangible marking: nothing can ever fire again.
        result.deadlocked = true;
        AccumulateTokens(m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }
      if (next_time > config_.horizon) {
        AccumulateTokens(m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }

      AccumulateTokens(m, now, next_time, result);
      now = next_time;
      const TransitionId t = timed_[next];
      FireInPlace(net_, t, m);
      CountFiring(t, now, result);
      // The fired transition resamples if it is enabled again.
      fire_at[next] = kUnscheduled;
      ResolveVanishing(m, now, result);
      RefreshSchedule(m, now, fire_at);
    }

    const double window = result.observed_time;
    for (std::size_t p = 0; p < np; ++p) {
      result.mean_tokens[p] /= window;
    }
    result.throughput.assign(nt, 0.0);
    for (std::size_t t = 0; t < nt; ++t) {
      result.throughput[t] =
          static_cast<double>(result.firings[t]) / window;
    }
    result.final_marking = std::move(m);
    return result;
  }

 private:
  void CountFiring(TransitionId t, double now, SimulationResult& result) {
    ++result.total_firings;
    if (now >= config_.warmup && now <= config_.horizon) {
      ++result.firings[t];
    }
  }

  void AccumulateTokens(const Marking& m, double from, double to,
                        SimulationResult& result) const {
    const double lo = std::max(from, config_.warmup);
    const double hi = std::min(to, config_.horizon);
    if (hi <= lo) return;
    const double dt = hi - lo;
    for (std::size_t p = 0; p < m.size(); ++p) {
      result.mean_tokens[p] += static_cast<double>(m[p]) * dt;
    }
  }

  /// Fire immediate transitions (highest priority first, weighted among
  /// equals) until the marking is tangible.
  void ResolveVanishing(Marking& m, double now, SimulationResult& result) {
    std::uint64_t chain = 0;
    for (;;) {
      EnabledImmediateConflictSet(net_, m, conflict_);
      if (conflict_.empty()) return;
      if (++chain > config_.max_vanishing_chain) {
        throw ModelError(
            "immediate-transition livelock: vanishing chain exceeded " +
            std::to_string(config_.max_vanishing_chain) + " firings");
      }
      const TransitionId t = SampleByWeight(net_, conflict_, rng_);
      FireInPlace(net_, t, m);
      CountFiring(t, now, result);
    }
  }

  /// Enabling-memory schedule maintenance at a tangible marking, in
  /// ascending transition id so delay draws keep their order:
  ///   - newly enabled (or just-fired and re-enabled) transitions sample a
  ///     fresh delay;
  ///   - transitions that stay enabled keep their timers;
  ///   - disabled transitions are descheduled.
  void RefreshSchedule(const Marking& m, double now,
                       std::vector<double>& fire_at) {
    for (std::size_t k = 0; k < timed_.size(); ++k) {
      const TransitionId t = timed_[k];
      if (!IsEnabled(net_, t, m)) {
        fire_at[k] = kUnscheduled;  // enabling memory: timer discarded
      } else if (fire_at[k] == kUnscheduled) {
        fire_at[k] = now + net_.GetTransition(t).delay->Sample(rng_);
      }
    }
  }

  const PetriNet& net_;
  const std::vector<TransitionId>& timed_;
  const SimulationConfig& config_;
  util::Rng rng_;
  std::vector<TransitionId> conflict_;
};

}  // namespace

SimulationResult SimulateSpn(const PetriNet& net,
                             const SimulationConfig& config) {
  const std::vector<TransitionId> timed = PrepareRun(net, config);
  return TokenGame(net, timed, config).Run();
}

EnsembleResult SimulateSpnEnsemble(const PetriNet& net,
                                   const SimulationConfig& config,
                                   std::size_t replications,
                                   std::size_t threads) {
  Require(replications >= 1, "need at least one replication");
  const std::vector<TransitionId> timed = PrepareRun(net, config);
  std::vector<SimulationResult> results(replications);
  util::Rng base(config.seed);
  std::vector<std::uint64_t> seeds(replications);
  for (auto& s : seeds) s = base();

  util::ParallelFor(
      replications,
      [&](std::size_t r) {
        SimulationConfig local = config;
        local.seed = seeds[r];
        results[r] = TokenGame(net, timed, local).Run();
      },
      threads);

  EnsembleResult agg;
  agg.replications = replications;
  agg.mean_tokens.assign(net.PlaceCount(), {});
  agg.throughput.assign(net.TransitionCount(), {});
  for (const SimulationResult& r : results) {
    for (std::size_t p = 0; p < net.PlaceCount(); ++p) {
      agg.mean_tokens[p].Add(r.mean_tokens[p]);
    }
    for (std::size_t t = 0; t < net.TransitionCount(); ++t) {
      agg.throughput[t].Add(r.throughput[t]);
    }
  }
  return agg;
}

}  // namespace wsn::petri
