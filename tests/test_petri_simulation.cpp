// EDSPN token-game simulator: agreement with closed forms (ping-pong,
// M/M/1/K), exact deterministic cycles, enabling-memory semantics,
// vanishing-chain handling, deadlock detection, warm-up, ensembles,
// bit-exact pins of whole runs at a fixed seed, and the work counts of the
// chain cache.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "markov/mm1.hpp"
#include "petri/simulation.hpp"
#include "petri/standard_nets.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(SpnSimulation, PingPongSteadyState) {
  const double lambda = 2.0, mu = 3.0;
  const PetriNet net = MakePingPongNet(lambda, mu);
  SimulationConfig cfg;
  cfg.horizon = 20000.0;
  cfg.seed = 1;
  const SimulationResult r = SimulateSpn(net, cfg);
  // P(ping) = mu / (lambda + mu) = 0.6.
  EXPECT_NEAR(r.mean_tokens[net.PlaceByName("ping")], 0.6, 0.01);
  EXPECT_NEAR(r.mean_tokens[net.PlaceByName("pong")], 0.4, 0.01);
  // Cycle rate = 1 / (1/lambda + 1/mu) = 1.2 firings/s for each.
  EXPECT_NEAR(r.throughput[net.TransitionByName("go")], 1.2, 0.05);
  EXPECT_NEAR(r.throughput[net.TransitionByName("back")], 1.2, 0.05);
}

TEST(SpnSimulation, Mm1kMatchesClosedForm) {
  const double lambda = 0.8, mu = 1.0;
  const std::uint32_t k = 5;
  const PetriNet net = MakeMm1kNet(lambda, mu, k);
  SimulationConfig cfg;
  cfg.horizon = 50000.0;
  cfg.warmup = 1000.0;
  cfg.seed = 3;
  const SimulationResult r = SimulateSpn(net, cfg);

  const markov::Mm1k ref{lambda, mu, k};
  EXPECT_NEAR(r.mean_tokens[net.PlaceByName("queue")], ref.MeanJobs(), 0.05);
  EXPECT_NEAR(r.throughput[net.TransitionByName("serve")], ref.Throughput(),
              0.02);
  // Arrivals blocked at K: arrive throughput equals serve throughput in
  // steady state.
  EXPECT_NEAR(r.throughput[net.TransitionByName("arrive")],
              r.throughput[net.TransitionByName("serve")], 0.02);
}

TEST(SpnSimulation, DeterministicCycleExactShares) {
  // a --det(1)--> b --det(3)--> a: shares are exactly 1/4, 3/4.
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddDeterministicTransition("ab", 1.0);
  const TransitionId ba = net.AddDeterministicTransition("ba", 3.0);
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);

  SimulationConfig cfg;
  cfg.horizon = 4000.0;  // exactly 1000 cycles
  const SimulationResult r = SimulateSpn(net, cfg);
  EXPECT_NEAR(r.mean_tokens[a], 0.25, 1e-9);
  EXPECT_NEAR(r.mean_tokens[b], 0.75, 1e-9);
  EXPECT_EQ(r.firings[ab], 1000u);
}

TEST(SpnSimulation, EnablingMemoryResetsLoserTimer) {
  // Token cycles quickly through a det(0.2) self-recycling loop; a slow
  // det(1.0) competitor is continuously preempted and must never fire.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId trap = net.AddPlace("trap", 0);
  const TransitionId fast = net.AddDeterministicTransition("fast", 0.2);
  const TransitionId slow = net.AddDeterministicTransition("slow", 1.0);
  net.AddInputArc(fast, p);
  net.AddOutputArc(fast, p);  // instant recycle: p never stays empty
  net.AddInputArc(slow, p);
  net.AddOutputArc(slow, trap);

  SimulationConfig cfg;
  cfg.horizon = 1000.0;
  const SimulationResult r = SimulateSpn(net, cfg);
  // NOTE: `fast` fires and is re-enabled, resampling each time; `slow`
  // also stays enabled through the self-loop firing of `fast`...
  // With enabling memory the self-loop does NOT disable `slow` (p never
  // drops below 1 in the tangible markings), so `slow` eventually wins a
  // race only if its timer survives. Our semantics keep `slow` scheduled
  // because it remains enabled in every tangible marking, so it fires at
  // t = 1.0 and the token is trapped. This documents the "keeps timer
  // while continuously enabled" rule.
  EXPECT_EQ(r.firings[slow], 1u);
  EXPECT_EQ(r.mean_tokens[trap] > 0.99, true);
  EXPECT_EQ(r.firings[fast], 5u);  // fired at .2, .4, .6, .8, 1.0-eps side
  EXPECT_TRUE(r.deadlocked);
}

TEST(SpnSimulation, DisablingDiscardsTimer) {
  // det(1.5) "sleep" competes with exp arrivals that remove its input
  // token via an immediate path before it can ever fire.
  PetriNet net;
  const PlaceId armed = net.AddPlace("armed", 1);
  const PlaceId off = net.AddPlace("off", 0);
  const TransitionId sleep = net.AddDeterministicTransition("sleep", 1.5);
  net.AddInputArc(sleep, armed);
  net.AddOutputArc(sleep, off);
  // Interrupter: every ~0.5 s on average, take the token and put it back
  // (disable/re-enable cycle resets the sleep timer).
  const PlaceId tmp = net.AddPlace("tmp", 0);
  const TransitionId grab = net.AddExponentialTransition("grab", 2.0);
  net.AddInputArc(grab, armed);
  net.AddOutputArc(grab, tmp);
  const TransitionId put = net.AddImmediateTransition("put", 1);
  net.AddInputArc(put, tmp);
  net.AddOutputArc(put, armed);

  SimulationConfig cfg;
  cfg.horizon = 5000.0;
  cfg.seed = 5;
  const SimulationResult r = SimulateSpn(net, cfg);
  // P(Exp(2) > 1.5) = e^-3 ~ 0.0498: sleep rarely wins, but does
  // sometimes; since firing "sleep" deadlocks that branch... it actually
  // traps the token in `off`, after which nothing fires.
  // So we only check that the run either deadlocked with off=1 or sleep
  // never fired; and crucially the timer-reset means the sleep firing
  // time since reset is never observed below 1.5.
  EXPECT_LE(r.firings[sleep], 1u);
  if (r.firings[sleep] == 1u) {
    EXPECT_EQ(r.final_marking[off], 1u);
  }
}

TEST(SpnSimulation, ImmediateLivelockDetected) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddImmediateTransition("ab", 1);
  const TransitionId ba = net.AddImmediateTransition("ba", 1);
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);

  SimulationConfig cfg;
  cfg.max_vanishing_chain = 1000;
  EXPECT_THROW(SimulateSpn(net, cfg), util::ModelError);
}

TEST(SpnSimulation, DeadMarkingSetsDeadlockFlag) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddExponentialTransition("t", 5.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, b);

  SimulationConfig cfg;
  cfg.horizon = 100.0;
  const SimulationResult r = SimulateSpn(net, cfg);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_EQ(r.final_marking[b], 1u);
  EXPECT_EQ(r.firings[t], 1u);
  // After the single firing, b holds the token for ~all of the horizon.
  EXPECT_GT(r.mean_tokens[b], 0.9);
}

TEST(SpnSimulation, WarmupWindowExcluded) {
  // Token starts in a, moves to b at exactly t=10 and stays.
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddDeterministicTransition("t", 10.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, b);

  SimulationConfig cfg;
  cfg.horizon = 20.0;
  cfg.warmup = 10.0;
  const SimulationResult r = SimulateSpn(net, cfg);
  EXPECT_NEAR(r.mean_tokens[b], 1.0, 1e-9);
  EXPECT_NEAR(r.mean_tokens[a], 0.0, 1e-9);
  EXPECT_NEAR(r.observed_time, 10.0, 1e-12);
}

TEST(SpnSimulation, ReproducibleForSeed) {
  const PetriNet net = MakeMm1kNet(0.5, 1.0, 8);
  SimulationConfig cfg;
  cfg.horizon = 2000.0;
  cfg.seed = 42;
  const SimulationResult a = SimulateSpn(net, cfg);
  const SimulationResult b = SimulateSpn(net, cfg);
  EXPECT_DOUBLE_EQ(a.mean_tokens[0], b.mean_tokens[0]);
  EXPECT_EQ(a.total_firings, b.total_firings);
}

TEST(SpnSimulation, EnsembleAggregatesReplications) {
  const PetriNet net = MakePingPongNet(1.0, 1.0);
  SimulationConfig cfg;
  cfg.horizon = 500.0;
  const EnsembleResult agg = SimulateSpnEnsemble(net, cfg, 16, 4);
  EXPECT_EQ(agg.replications, 16u);
  EXPECT_EQ(agg.mean_tokens[0].Count(), 16u);
  EXPECT_NEAR(agg.mean_tokens[net.PlaceByName("ping")].Mean(), 0.5, 0.03);
  // Replications differ (independent streams).
  EXPECT_GT(agg.mean_tokens[0].StdDev(), 0.0);
}

TEST(SpnSimulation, ConfigValidation) {
  const PetriNet net = MakePingPongNet(1.0, 1.0);
  SimulationConfig cfg;
  cfg.horizon = 0.0;
  EXPECT_THROW(SimulateSpn(net, cfg), util::InvalidArgument);
  SimulationConfig cfg2;
  cfg2.warmup = cfg2.horizon + 1.0;
  EXPECT_THROW(SimulateSpn(net, cfg2), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bit-exact pins.  Each expectation below was captured from the token game
// before its hot loop was restructured or its vanishing chains were cached;
// any change to the RNG draw order (delays sampled in ascending transition
// id, a weight drawn only for a conflict of two or more), to the enabling
// rule, to the timer policy or to the order in which token time is
// accumulated moves these bits.

struct PinnedRun {
  std::uint64_t total_firings;
  std::vector<std::uint64_t> firings;
  std::vector<std::uint64_t> mean_token_bits;
};

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

SimulationConfig PinConfig() {
  SimulationConfig cfg;
  cfg.horizon = 500.0;
  cfg.warmup = 50.0;
  cfg.seed = 2008;
  return cfg;
}

void ExpectPinned(const PetriNet& net, const PinnedRun& want) {
  const SimulationResult r = SimulateSpn(net, PinConfig());
  EXPECT_EQ(r.total_firings, want.total_firings);
  EXPECT_EQ(r.firings, want.firings);
  EXPECT_EQ(Bits(r.mean_tokens), want.mean_token_bits);
}

PetriNet CpuNet(double power_down_threshold, double power_up_delay) {
  core::CpuParams params;
  params.arrival_rate = 1.0;
  params.service_rate = 10.0;
  params.power_down_threshold = power_down_threshold;
  params.power_up_delay = power_up_delay;
  return core::BuildCpuPetriNet(params);
}

TEST(SpnSimulationPin, CpuNetWithDeterministicPowerTransitions) {
  ExpectPinned(CpuNet(0.1, 0.3),
               {2968,
                {430, 430, 269, 270, 161, 431, 431, 270},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x3fcf6bd735e2dd90ULL, 0x3fca997ce8142397ULL,
                 0x3fe5009fe3d02081ULL, 0x3fc704e26bb8c496ULL,
                 0x3fc4f89e0506b969ULL, 0x3fecc7fe163deb9cULL,
                 0x3fb9c00f4e10a320ULL}});
}

TEST(SpnSimulationPin, CpuNetWithImmediatePowerTransitions) {
  // T = D = 0 turns PUT and PDT into priority-0 immediates.
  ExpectPinned(CpuNet(0.0, 0.0),
               {3151,
                {417, 417, 372, 372, 45, 417, 417, 372},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x3f8322205e8f28ffULL, 0x0000000000000000ULL,
                 0x3fecf4b4c6277017ULL, 0x0000000000000000ULL,
                 0x3fb85a59cec47f4dULL, 0x3fecf4b4c6277017ULL,
                 0x3fb85a59cec47f4dULL}});
}

TEST(SpnSimulationPin, WeightedConflictsDrawWeights) {
  // Equal-priority acquire_* transitions compete for one resource token.
  ExpectPinned(MakeSharedResourceNet(3, 1.0, 2.0),
               {1420,
                {126, 126, 126, 155, 155, 155, 151, 151, 152},
                {0x3f91abcbf6f63ddeULL, 0x3fe1cb303a53ccfbULL,
                 0x3fd31ac49a68bed1ULL, 0x3fc29db5e1df4e72ULL,
                 0x3fe03ddd43e3c0a7ULL, 0x3fd58f41649f3fbfULL,
                 0x3fc3ea0827327de5ULL, 0x3fdd55780392726eULL,
                 0x3fd63b3d41889d92ULL, 0x3fc8de9575c9e000ULL}});
}

TEST(SpnSimulationPin, GenericDelayDistributions) {
  // Erlang and Uniform delays go through the generic sampler.
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddTimedTransition("ab", util::Erlang{3, 2.0});
  const TransitionId ba =
      net.AddTimedTransition("ba", util::Uniform{0.5, 1.5});
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);
  ExpectPinned(net, {399,
                     {182, 182},
                     {0x3fe39d0e4458ab3dULL, 0x3fd8c5e3774ea985ULL}});
}

// A run pinned with its end state too: whether it deadlocked and the
// marking it ended in.
struct PinnedEnd {
  PinnedRun run;
  bool deadlocked;
  Marking final_marking;
};

void ExpectPinnedEnd(const PetriNet& net, const SimulationConfig& cfg,
                     const PinnedEnd& want) {
  const SimulationResult r = SimulateSpn(net, cfg);
  EXPECT_EQ(r.total_firings, want.run.total_firings);
  EXPECT_EQ(r.firings, want.run.firings);
  EXPECT_EQ(Bits(r.mean_tokens), want.run.mean_token_bits);
  EXPECT_EQ(r.deadlocked, want.deadlocked);
  EXPECT_EQ(r.final_marking, want.final_marking);
}

// Each tick adds a token to `count`, so no tangible marking ever repeats.
PetriNet CounterNet() {
  PetriNet net;
  const PlaceId clock = net.AddPlace("clock", 1);
  const PlaceId tallied = net.AddPlace("tallied", 0);
  const PlaceId count = net.AddPlace("count", 0);
  const TransitionId tick = net.AddExponentialTransition("tick", 2.0);
  net.AddInputArc(tick, clock);
  net.AddOutputArc(tick, tallied);
  const TransitionId tally = net.AddImmediateTransition("tally", 1);
  net.AddInputArc(tally, tallied);
  net.AddOutputArc(tally, clock);
  net.AddOutputArc(tally, count);
  return net;
}

// From `home`, `loop` leads through one immediate back to `home`, while
// `branch` leads to a weighted conflict between `left` and `right`.
PetriNet MixedChainNet() {
  PetriNet net;
  const PlaceId home = net.AddPlace("home", 1);
  const PlaceId looped = net.AddPlace("looped", 0);
  const PlaceId branched = net.AddPlace("branched", 0);
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId loop = net.AddExponentialTransition("loop", 1.0);
  net.AddInputArc(loop, home);
  net.AddOutputArc(loop, looped);
  const TransitionId back = net.AddImmediateTransition("return", 2);
  net.AddInputArc(back, looped);
  net.AddOutputArc(back, home);
  const TransitionId branch = net.AddExponentialTransition("branch", 0.5);
  net.AddInputArc(branch, home);
  net.AddOutputArc(branch, branched);
  const TransitionId left = net.AddImmediateTransition("left", 1, 1.0);
  net.AddInputArc(left, branched);
  net.AddOutputArc(left, a);
  const TransitionId right = net.AddImmediateTransition("right", 1, 3.0);
  net.AddInputArc(right, branched);
  net.AddOutputArc(right, b);
  const TransitionId a_done = net.AddExponentialTransition("a_done", 2.0);
  net.AddInputArc(a_done, a);
  net.AddOutputArc(a_done, home);
  const TransitionId b_done = net.AddDeterministicTransition("b_done", 0.4);
  net.AddInputArc(b_done, b);
  net.AddOutputArc(b_done, looped);
  return net;
}

// `spin` loops through one immediate until `die`, whose timer survives
// every loop, buries the token in a dead marking.
PetriNet DyingLoopNet() {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId spun = net.AddPlace("spun", 0);
  const PlaceId dying = net.AddPlace("dying", 0);
  const PlaceId grave = net.AddPlace("grave", 0);
  const TransitionId spin = net.AddExponentialTransition("spin", 5.0);
  net.AddInputArc(spin, p);
  net.AddOutputArc(spin, spun);
  const TransitionId back = net.AddImmediateTransition("back", 1);
  net.AddInputArc(back, spun);
  net.AddOutputArc(back, p);
  const TransitionId die = net.AddExponentialTransition("die", 0.005);
  net.AddInputArc(die, p);
  net.AddOutputArc(die, dying);
  const TransitionId bury = net.AddImmediateTransition("bury", 1);
  net.AddInputArc(bury, dying);
  net.AddOutputArc(bury, grave);
  return net;
}

TEST(SpnSimulationPin, CounterNetNeverRepeatsAMarking) {
  ExpectPinnedEnd(CounterNet(), PinConfig(),
                  {{1894,
                    {858, 858},
                    {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                     0x40803f0d8b9d9d0eULL}},
                   false,
                   {1, 0, 947}});
}

TEST(SpnSimulationPin, DeterministicChainBesideWeightedConflict) {
  ExpectPinnedEnd(MixedChainNet(), PinConfig(),
                  {{1547,
                    {382, 495, 175, 62, 113, 63, 113},
                    {0x3feafa95e77ea131ULL, 0x0000000000000000ULL,
                     0x0000000000000000ULL, 0x3face92d402d98d8ULL,
                     0x3fb9b6ba23f42a0eULL}},
                   false,
                   {1, 0, 0, 0, 0}});
}

TEST(SpnSimulationPin, MaxFiringsStopsTheCpuNet) {
  SimulationConfig cfg = PinConfig();
  cfg.max_firings = 1001;
  ExpectPinnedEnd(CpuNet(0.1, 0.3), cfg,
                  {{1001,
                    {114, 114, 76, 77, 38, 115, 115, 76},
                    {0x3fd15f7a51e4e78bULL, 0x0000000000000000ULL,
                     0x3fb0417025b69d11ULL, 0x3fad836be7520cefULL,
                     0x3fc712b03c7806b5ULL, 0x3faa32f0c40cb420ULL,
                     0x3fa47e20d93a6d63ULL, 0x3fcfd010807bbdd1ULL,
                     0x3f9777211a708a27ULL}},
                   false,
                   {1, 0, 0, 0, 0, 0, 1, 1, 0}});
}

TEST(SpnSimulationPin, DeadMarkingAfterRepeatedChains) {
  SimulationConfig cfg = PinConfig();
  cfg.warmup = 5.0;
  ExpectPinnedEnd(DyingLoopNet(), cfg,
                  {{114,
                    {32, 32, 1, 1},
                    {0x3f930adee379c9ccULL, 0x0000000000000000ULL,
                     0x0000000000000000ULL, 0x3fef67a908e431b1ULL}},
                   true,
                   {0, 0, 0, 1}});
}

// Work counts of the chain cache.  They repeat exactly, so an
// algorithmic regression fails here even on a host too noisy to time it.

// `slow` is always enabled and its rate is so small that most of its
// draws overflow to +infinity.  Such a timer reads as unscheduled, so the
// next schedule refresh draws it again; a replayed chain would skip that
// draw, so the cache must stop at the first such timer.  Captured before
// replays carried their schedule refresh.
TEST(SpnSimulationPin, OverflowingTimerStopsTheCache) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId q = net.AddPlace("q", 0);
  const PlaceId never = net.AddPlace("never", 0);
  const TransitionId go = net.AddExponentialTransition("go", 1.0);
  net.AddInputArc(go, p);
  net.AddOutputArc(go, q);
  const TransitionId back = net.AddExponentialTransition("back", 1.0);
  net.AddInputArc(back, q);
  net.AddOutputArc(back, p);
  const TransitionId slow = net.AddExponentialTransition("slow", 1e-309);
  net.AddInhibitorArc(slow, never);
  SimulationConfig cfg = PinConfig();
  cfg.seed = 1;
  const SimulationResult r = SimulateSpn(net, cfg);
  EXPECT_EQ(r.total_firings, 521u);
  EXPECT_EQ(r.firings, (std::vector<std::uint64_t>{235, 235, 0}));
  EXPECT_EQ(Bits(r.mean_tokens),
            (std::vector<std::uint64_t>{0x3fe01fe01dfcb7beULL,
                                        0x3fdfc03fc4069084ULL,
                                        0x0000000000000000ULL}));
}

TEST(SpnSimulationPin, ChainCacheCountsOnTheCpuNet) {
  const SimulationResult r = SimulateSpn(CpuNet(0.1, 0.3), PinConfig());
  EXPECT_EQ(r.tangible_markings, 10u);
  EXPECT_EQ(r.replayed_firings, 1529u);
}

TEST(SpnSimulationPin, ChainCacheNeverReplaysAWeightedConflict) {
  // `branch` draws between `left` and `right`, so only `loop`, `a_done`
  // and `b_done` replay.
  const PetriNet net = MixedChainNet();
  const SimulationResult r = SimulateSpn(net, PinConfig());
  EXPECT_EQ(r.tangible_markings, 3u);
  EXPECT_EQ(r.replayed_firings, 612u);
}

TEST(SpnSimulationPin, ChainCacheGivesUpOnMarkingsThatNeverRepeat) {
  const SimulationResult r = SimulateSpn(CounterNet(), PinConfig());
  // The initial marking plus one per tick, up to the first check at 128
  // timed firings; none after it.
  EXPECT_EQ(r.tangible_markings, 129u);
  EXPECT_EQ(r.replayed_firings, 0u);
}

TEST(SpnSimulation, ChainCacheReplaysMostTimedFiringsAtPaperPoints) {
  // One 1000 s replication per paper PUD at T = 0.5 s, no warm-up, so
  // `firings` counts every timed firing.
  for (const double pud : {0.001, 0.3, 10.0}) {
    const PetriNet net = CpuNet(0.5, pud);
    SimulationConfig cfg;
    cfg.horizon = 1000.0;
    cfg.seed = 2008;
    const SimulationResult r = SimulateSpn(net, cfg);
    std::uint64_t timed = 0;
    for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
      if (!net.GetTransition(t).IsImmediate()) timed += r.firings[t];
    }
    EXPECT_GE(r.replayed_firings * 100, timed * 95) << "PUD " << pud;
    EXPECT_LE(r.tangible_markings, 64u) << "PUD " << pud;
  }
}

TEST(SpnSimulationPin, EnsembleIdenticalAcrossThreadCounts) {
  const PetriNet net = CpuNet(0.1, 0.3);
  SimulationConfig cfg;
  cfg.horizon = 200.0;
  cfg.seed = 2008;
  const std::vector<std::uint64_t> want = {
      0x3ff0000000000000ULL, 0x0000000000000000ULL, 0x3fcea8f36b7f3c30ULL,
      0x3fca7b80e3f111e7ULL, 0x3fe52dce7766d50dULL, 0x3fc71904fa845f22ULL,
      0x3fc42fc127e04cacULL, 0x3fecf7a4d0f6690aULL, 0x3fb842d9784cb7aeULL};
  for (const std::size_t threads : {1u, 4u}) {
    const EnsembleResult agg = SimulateSpnEnsemble(net, cfg, 6, threads);
    std::vector<double> means;
    for (const util::RunningStats& s : agg.mean_tokens) {
      means.push_back(s.Mean());
    }
    EXPECT_EQ(Bits(means), want) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace wsn::petri
