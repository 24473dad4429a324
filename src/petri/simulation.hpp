// Token-game simulation of EDSPNs — the execution engine the paper uses
// (via TimeNET) to evaluate its Fig. 3 CPU net.
//
// Semantics implemented:
//   * vanishing chains: while any immediate transition is enabled, the
//     highest-priority conflict set is resolved by weight and fired in
//     zero time;
//   * timed transitions race; each samples its delay when it (re)becomes
//     enabled at a tangible marking and keeps its timer while it stays
//     enabled across tangible markings (race policy, enabling memory —
//     a transition that gets disabled loses its timer and resamples on
//     re-enabling, which is exactly the paper's "power down after T of
//     continuous idleness" requirement);
//   * the transition that fires always resamples if immediately
//     re-enabled.
//
// Statistics: time-averaged token counts per place and firing counts /
// throughput per transition, collected over [warmup, horizon].
//
// Chain cache: each replication interns the tangible markings it meets,
// with their enabled timed transitions and the places that hold tokens.
// When the vanishing chain after a timed firing drew no weight (every
// conflict set on it had one member), the chain is a function of the
// marking and the transition, so the game records its target, the
// immediates fired on it and the timers the target changes: the timed
// transitions it disables, and those it samples (the one that fired and
// those it newly enables, ascending).  The next firing of that
// transition from that marking replays the record: the same counts at
// the same instant and the same delay draws in the same order, with no
// enabling scan.  Token time over an interned marking adds only its
// non-empty places.  Every output bit and the RNG stream are those of
// the walk, which stays the reference on every miss.  A replication
// stops caching once the markings it has interned outnumber half its
// timed firings (checked at 128, 256, ...), or at the first timer that
// overflows to +infinity.
#pragma once

#include <cstdint>
#include <vector>

#include "petri/net.hpp"
#include "util/statistics.hpp"

namespace wsn::petri {

struct SimulationConfig {
  double horizon = 1000.0;      ///< simulated seconds per replication
  double warmup = 0.0;          ///< discard statistics before this time
  std::uint64_t seed = 0x5eedULL;
  /// Guard against zero-time livelock through immediate transitions.
  std::uint64_t max_vanishing_chain = 1u << 20;
  /// Optional hard cap on firings (0 = unlimited) for runaway nets.
  std::uint64_t max_firings = 0;
};

struct SimulationResult {
  /// Time-averaged token count per place over [warmup, horizon].
  std::vector<double> mean_tokens;
  /// Firing counts per transition within the observation window.
  std::vector<std::uint64_t> firings;
  /// firings / (horizon - warmup).
  std::vector<double> throughput;
  /// horizon - warmup.
  double observed_time = 0.0;
  /// All firings including warmup (immediate + timed).
  std::uint64_t total_firings = 0;
  /// True when the run ended in a dead marking before the horizon.
  bool deadlocked = false;
  /// Final marking at the horizon.
  Marking final_marking;
  /// Tangible markings interned by the replication's chain cache.
  std::uint64_t tangible_markings = 0;
  /// Timed firings whose vanishing chain was replayed from the cache.
  std::uint64_t replayed_firings = 0;
};

/// One replication of the token game.
SimulationResult SimulateSpn(const PetriNet& net,
                             const SimulationConfig& config);

/// Replication-ensemble statistics (mean token counts and throughputs
/// aggregated across independent replications).
struct EnsembleResult {
  std::vector<util::RunningStats> mean_tokens;  ///< per place
  std::vector<util::RunningStats> throughput;   ///< per transition
  std::size_t replications = 0;
};

/// Run independent replications (seeds derived from config.seed) in
/// parallel on up to `threads` threads (0 = hardware concurrency).
EnsembleResult SimulateSpnEnsemble(const PetriNet& net,
                                   const SimulationConfig& config,
                                   std::size_t replications,
                                   std::size_t threads = 0);

}  // namespace wsn::petri
