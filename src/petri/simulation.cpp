#include "petri/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

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

/// The tangible markings one replication has met.  Each keeps its
/// enabled timed transitions, the places that hold tokens and, per timed
/// transition, the vanishing chain that followed its firing there, if
/// that chain drew no number: such a chain is a function of the marking
/// and the transition, so the token game replays it, with the schedule
/// refresh it needs, instead of walking it again.  Markings sit in one
/// flat array (one row of PlaceCount() tokens each) behind an
/// open-addressing index that hashes a row in place.
class ChainCache {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// What firing a timed transition from a marking led to: the tangible
  /// target, the immediates fired on the way, in order, and the timed
  /// entries whose timers the target changes.
  struct Chain {
    std::uint32_t target = kNone;  ///< kNone = not recorded
    std::uint32_t deschedule = 0;  ///< entries of Deschedule()
    std::uint32_t sample = 0;      ///< entries of Sample()
    std::size_t first = 0;         ///< offset into Fired()
    std::size_t count = 0;
    std::size_t refresh = 0;       ///< offset into the refresh pool
  };

  ChainCache(const PetriNet& net, const std::vector<TransitionId>& timed)
      : net_(net), timed_(timed), places_(net.PlaceCount()),
        slots_(kInitialSlots, kNone) {}

  /// Index of `m`, interned with its enabled flags if new; kNone once the
  /// cache is full or has given up.
  std::uint32_t Intern(const Marking& m) {
    if (gave_up_) return kNone;
    const std::size_t slot = FindSlot(m.data());
    if (slots_[slot] != kNone || count_ == kMaxMarkings) return slots_[slot];
    const std::uint32_t index = count_++;
    slots_[slot] = index;
    tokens_.insert(tokens_.end(), m.begin(), m.end());
    for (std::uint32_t p = 0; p < places_; ++p) {
      if (m[p] != 0) occupied_.push_back(p);
    }
    occupied_bounds_.push_back(static_cast<std::uint32_t>(occupied_.size()));
    for (const TransitionId t : timed_) {
      enabled_.push_back(IsEnabled(net_, t, m) ? 1 : 0);
    }
    chains_.resize(chains_.size() + timed_.size());
    if (2 * count_ > slots_.size()) Grow();
    return index;
  }

  /// Counts one timed firing; false once the cache has given up.  It
  /// gives up for good when, at 128, 256, 512, ... timed firings, the
  /// markings interned outnumber half of them: markings that do not
  /// repeat would only pay for interning.  The first check waits for 128
  /// because a Fig. 3 replication at a 10 s power-up delay can meet 42
  /// markings in its first 64 timed firings, and then repeats them.
  bool KeepCaching() {
    if (++timed_firings_ == next_check_) {
      next_check_ *= 2;
      if (2 * std::uint64_t{count_} > timed_firings_) gave_up_ = true;
    }
    return !gave_up_;
  }

  /// Stops caching for the rest of the replication.
  void GiveUp() { gave_up_ = true; }

  const std::uint32_t* Tokens(std::uint32_t i) const {
    return tokens_.data() + std::size_t{i} * places_;
  }
  const std::uint8_t* Enabled(std::uint32_t i) const {
    return enabled_.data() + std::size_t{i} * timed_.size();
  }
  const Chain& ChainAt(std::uint32_t i, std::size_t k) const {
    return chains_[std::size_t{i} * timed_.size() + k];
  }
  const TransitionId* Fired(const Chain& c) const {
    return fired_.data() + c.first;
  }
  /// Places of marking i that hold tokens, ascending.
  std::span<const std::uint32_t> Occupied(std::uint32_t i) const {
    return {occupied_.data() + occupied_bounds_[i],
            occupied_bounds_[i + 1] - occupied_bounds_[i]};
  }
  /// Timed entries a replay of `c` deschedules: those disabled at the
  /// target.
  std::span<const std::uint32_t> Deschedule(const Chain& c) const {
    return {refresh_.data() + c.refresh, c.deschedule};
  }
  /// Timed entries a replay of `c` samples, ascending: those enabled at
  /// the target that either fired or were disabled at the source.
  std::span<const std::uint32_t> Sample(const Chain& c) const {
    return {refresh_.data() + c.refresh + c.deschedule, c.sample};
  }

  /// Record that firing timed_[k] from marking `from` led, through the
  /// immediates in `walked`, to marking `to`.  While every timer drawn is
  /// finite (the token game stops caching at the first that is not), an
  /// entry is scheduled after each schedule refresh iff it is enabled, so
  /// before the refresh that follows this firing the entries without a
  /// timer are k and those disabled at `from`: the refresh
  /// RefreshSchedule makes at `to` is Deschedule() then Sample().
  void Record(std::uint32_t from, std::size_t k, std::uint32_t to,
              const std::vector<TransitionId>& walked) {
    Chain& c = chains_[std::size_t{from} * timed_.size() + k];
    c.target = to;
    c.first = fired_.size();
    c.count = walked.size();
    fired_.insert(fired_.end(), walked.begin(), walked.end());
    const std::uint8_t* was = Enabled(from);
    const std::uint8_t* is = Enabled(to);
    c.refresh = refresh_.size();
    for (std::uint32_t j = 0; j < timed_.size(); ++j) {
      if (is[j] == 0) refresh_.push_back(j);
    }
    c.deschedule = static_cast<std::uint32_t>(refresh_.size() - c.refresh);
    for (std::uint32_t j = 0; j < timed_.size(); ++j) {
      if (is[j] != 0 && (j == k || was[j] == 0)) refresh_.push_back(j);
    }
    c.sample = static_cast<std::uint32_t>(refresh_.size() - c.refresh -
                                          c.deschedule);
  }

  std::uint32_t Markings() const { return count_; }

 private:
  static constexpr std::uint32_t kMaxMarkings = 1u << 12;
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr std::uint64_t kFirstCheck = 128;

  /// The slot holding `row`, else the empty slot where it would go
  /// (FNV-1a over the token counts, folded so high bits reach the mask).
  std::size_t FindSlot(const std::uint32_t* row) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t p = 0; p < places_; ++p) {
      h = (h ^ row[p]) * 0x100000001b3ULL;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = (h ^ (h >> 29)) & mask;
    while (slots_[slot] != kNone &&
           !std::equal(row, row + places_, Tokens(slots_[slot]))) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kNone);
    for (std::uint32_t i = 0; i < count_; ++i) slots_[FindSlot(Tokens(i))] = i;
  }

  const PetriNet& net_;
  const std::vector<TransitionId>& timed_;
  std::size_t places_;
  std::vector<std::uint32_t> slots_;      ///< marking index or kNone
  std::vector<std::uint32_t> tokens_;     ///< stride places_
  std::vector<std::uint32_t> occupied_;   ///< places holding tokens
  /// Offsets into occupied_, a leading 0 then one per marking: marking
  /// i's places are [bounds[i], bounds[i + 1]).
  std::vector<std::uint32_t> occupied_bounds_{0};
  std::vector<std::uint8_t> enabled_;     ///< stride timed_.size()
  std::vector<Chain> chains_;             ///< stride timed_.size()
  std::vector<TransitionId> fired_;       ///< immediates of every chain
  std::vector<std::uint32_t> refresh_;    ///< timed entries of every chain
  std::uint32_t count_ = 0;
  std::uint64_t timed_firings_ = 0;
  std::uint64_t next_check_ = kFirstCheck;
  bool gave_up_ = false;
};

/// One replication: owns its marking, timers, RNG, conflict buffer and
/// chain cache.
class TokenGame {
 public:
  TokenGame(const PetriNet& net, const std::vector<TransitionId>& timed,
            const SimulationConfig& config)
      : net_(net), timed_(timed), config_(config), rng_(config.seed),
        cache_(net, timed) {}

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
    // Index of m in the cache; kNone when it is not interned.
    std::uint32_t at = cache_.Intern(m);

    // Absolute fire time per entry of timed_; infinity = not scheduled.
    std::vector<double> fire_at(timed_.size(), kUnscheduled);
    RefreshSchedule(at, m, now, fire_at);

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
        const bool earlier = fire_at[k] < next_time;
        next_time = earlier ? fire_at[k] : next_time;
        next = earlier ? k : next;
      }
      if (next == timed_.size()) {
        // Dead tangible marking: nothing can ever fire again.
        result.deadlocked = true;
        AccumulateTokens(at, m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }
      if (next_time > config_.horizon) {
        AccumulateTokens(at, m, now, config_.horizon, result);
        now = config_.horizon;
        break;
      }

      AccumulateTokens(at, m, now, next_time, result);
      now = next_time;
      const TransitionId t = timed_[next];
      CountFiring(t, now, result);
      // The fired transition resamples if it is enabled again.
      fire_at[next] = kUnscheduled;
      const ChainCache::Chain* chain =
          at == ChainCache::kNone ? nullptr : &cache_.ChainAt(at, next);
      if (chain != nullptr && chain->target != ChainCache::kNone) {
        // Replay: the same counts at the same instant as the walk, and
        // the same schedule refresh, draws in ascending order.
        const TransitionId* fired = cache_.Fired(*chain);
        for (std::size_t i = 0; i < chain->count; ++i) {
          CountFiring(fired[i], now, result);
        }
        at = chain->target;
        std::copy_n(cache_.Tokens(at), np, m.begin());
        for (const std::uint32_t k : cache_.Deschedule(*chain)) {
          fire_at[k] = kUnscheduled;
        }
        for (const std::uint32_t k : cache_.Sample(*chain)) {
          fire_at[k] = NewTimer(k, now);
        }
        ++result.replayed_firings;
      } else {
        FireInPlace(net_, t, m);
        const bool drew = ResolveVanishing(m, now, result);
        const std::uint32_t from = at;
        at = cache_.Intern(m);
        if (!drew && from != ChainCache::kNone && at != ChainCache::kNone) {
          cache_.Record(from, next, at, walked_);
        }
        RefreshSchedule(at, m, now, fire_at);
      }
      if (!cache_.KeepCaching()) at = ChainCache::kNone;
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
    result.tangible_markings = cache_.Markings();
    return result;
  }

 private:
  void CountFiring(TransitionId t, double now, SimulationResult& result) {
    ++result.total_firings;
    if (now >= config_.warmup && now <= config_.horizon) {
      ++result.firings[t];
    }
  }

  /// Adds m's token time over [from, to] inside the window.  When m is
  /// interned as `at`, only its places that hold tokens are walked: the
  /// others would add +0.0 to a non-negative sum, which moves no bit.
  void AccumulateTokens(std::uint32_t at, const Marking& m, double from,
                        double to, SimulationResult& result) const {
    const double lo = std::max(from, config_.warmup);
    const double hi = std::min(to, config_.horizon);
    if (hi <= lo) return;
    const double dt = hi - lo;
    if (at != ChainCache::kNone) {
      for (const std::uint32_t p : cache_.Occupied(at)) {
        result.mean_tokens[p] += static_cast<double>(m[p]) * dt;
      }
      return;
    }
    for (std::size_t p = 0; p < m.size(); ++p) {
      result.mean_tokens[p] += static_cast<double>(m[p]) * dt;
    }
  }

  /// A fresh timer for timed entry k.  One that overflows to +infinity
  /// reads as unscheduled, so the next refresh draws it again; a replay
  /// would not, so such a draw stops the cache.
  double NewTimer(std::size_t k, double now) {
    const double timer =
        now + net_.GetTransition(timed_[k]).delay->Sample(rng_);
    if (timer == kUnscheduled) cache_.GiveUp();
    return timer;
  }

  /// Fire immediate transitions (highest priority first, weighted among
  /// equals) until the marking is tangible.  Leaves the immediates fired
  /// in walked_ and returns true if a weight was drawn.
  bool ResolveVanishing(Marking& m, double now, SimulationResult& result) {
    walked_.clear();
    bool drew = false;
    for (;;) {
      EnabledImmediateConflictSet(net_, m, conflict_);
      if (conflict_.empty()) return drew;
      if (walked_.size() >= config_.max_vanishing_chain) {
        throw ModelError(
            "immediate-transition livelock: vanishing chain exceeded " +
            std::to_string(config_.max_vanishing_chain) + " firings");
      }
      drew = drew || conflict_.size() > 1;
      const TransitionId t = SampleByWeight(net_, conflict_, rng_);
      FireInPlace(net_, t, m);
      CountFiring(t, now, result);
      walked_.push_back(t);
    }
  }

  /// Enabling-memory schedule maintenance at a tangible marking, in
  /// ascending transition id so delay draws keep their order:
  ///   - newly enabled (or just-fired and re-enabled) transitions sample a
  ///     fresh delay;
  ///   - transitions that stay enabled keep their timers;
  ///   - disabled transitions are descheduled.
  /// Enabling comes from the cached flags when `m` is interned as `at`.
  void RefreshSchedule(std::uint32_t at, const Marking& m, double now,
                       std::vector<double>& fire_at) {
    const std::uint8_t* flags =
        at == ChainCache::kNone ? nullptr : cache_.Enabled(at);
    for (std::size_t k = 0; k < timed_.size(); ++k) {
      if (flags != nullptr ? flags[k] == 0 : !IsEnabled(net_, timed_[k], m)) {
        fire_at[k] = kUnscheduled;  // enabling memory: timer discarded
      } else if (fire_at[k] == kUnscheduled) {
        fire_at[k] = NewTimer(k, now);
      }
    }
  }

  const PetriNet& net_;
  const std::vector<TransitionId>& timed_;
  const SimulationConfig& config_;
  util::Rng rng_;
  std::vector<TransitionId> conflict_;
  std::vector<TransitionId> walked_;  ///< immediates of the last walk
  ChainCache cache_;
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
