// Exact DSPN solver (embedded Markov chain + subordinated CTMCs):
// closed-form fixtures, agreement with the token-game simulator and the
// Erlang stage expansion, precondition checks, the paper's CPU net, and
// bit-exact pins of both exact solvers on that net.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "core/experiment.hpp"
#include "core/models.hpp"
#include "petri/ctmc_solver.hpp"
#include "petri/dspn_solver.hpp"
#include "petri/simulation.hpp"
#include "petri/standard_nets.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(DspnExact, DeterministicCycleClosedForm) {
  // a --det(1)--> b --det(3)--> a: alternating renewal, shares 1/4, 3/4.
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddDeterministicTransition("ab", 1.0);
  const TransitionId ba = net.AddDeterministicTransition("ba", 3.0);
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);

  const SpnSteadyState ss = SolveDspnExact(net);
  EXPECT_NEAR(ss.mean_tokens[a], 0.25, 1e-12);
  EXPECT_NEAR(ss.mean_tokens[b], 0.75, 1e-12);
  EXPECT_NEAR(ss.throughput[ab], 0.25, 1e-12);
  EXPECT_NEAR(ss.throughput[ba], 0.25, 1e-12);
}

TEST(DspnExact, MixedExponentialDeterministicCycle) {
  // a --det(2)--> b --exp(0.5)--> a: shares 2/(2+2) each.
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddDeterministicTransition("ab", 2.0);
  const TransitionId ba = net.AddExponentialTransition("ba", 0.5);
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);

  const SpnSteadyState ss = SolveDspnExact(net);
  EXPECT_NEAR(ss.mean_tokens[a], 0.5, 1e-10);
  EXPECT_NEAR(ss.mean_tokens[b], 0.5, 1e-10);
  EXPECT_NEAR(ss.throughput[ab], 0.25, 1e-10);
}

TEST(DspnExact, PreemptionProbabilityMatchesRaceFormula) {
  // armed: det(1.0) "sleep" races exp(lambda) "grab" that leads to a
  // state from which exp "put" returns.  P(sleep wins a round) = e^-lambda.
  // Long-run sleep throughput has a closed form via renewal-reward, but
  // the cleanest invariant is against the high-k stage expansion.
  PetriNet net;
  const PlaceId armed = net.AddPlace("armed", 1);
  const PlaceId off = net.AddPlace("off", 0);
  const TransitionId sleep = net.AddDeterministicTransition("sleep", 1.0);
  net.AddInputArc(sleep, armed);
  net.AddOutputArc(sleep, off);
  const TransitionId wake = net.AddExponentialTransition("wake", 0.5);
  net.AddInputArc(wake, off);
  net.AddOutputArc(wake, armed);
  const PlaceId tmp = net.AddPlace("tmp", 0);
  const TransitionId grab = net.AddExponentialTransition("grab", 1.0);
  net.AddInputArc(grab, armed);
  net.AddOutputArc(grab, tmp);
  const TransitionId put = net.AddExponentialTransition("put", 4.0);
  net.AddInputArc(put, tmp);
  net.AddOutputArc(put, armed);

  const SpnSteadyState exact = SolveDspnExact(net);

  // Cross-check 1: Erlang-80 stage expansion should approach it.
  SolverOptions stage_opts;
  stage_opts.det_stages = 80;
  const SpnSteadyState stages = SolveSteadyState(net, stage_opts);
  for (PlaceId p : {armed, off, tmp}) {
    EXPECT_NEAR(exact.mean_tokens[p], stages.mean_tokens[p], 5e-3)
        << net.GetPlace(p).name;
  }

  // Cross-check 2: long token-game simulation.
  SimulationConfig cfg;
  cfg.horizon = 400000.0;
  cfg.seed = 5;
  const SimulationResult sim = SimulateSpn(net, cfg);
  for (PlaceId p : {armed, off, tmp}) {
    EXPECT_NEAR(exact.mean_tokens[p], sim.mean_tokens[p], 5e-3)
        << net.GetPlace(p).name;
  }
  EXPECT_NEAR(exact.throughput[sleep], sim.throughput[sleep], 5e-3);
}

TEST(DspnExact, ExponentialOnlyNetMatchesCtmcSolver) {
  // With no deterministic transitions the EMC method reduces to the plain
  // CTMC solution.
  const PetriNet net = MakeMm1kNet(0.8, 1.0, 6);
  const SpnSteadyState emc = SolveDspnExact(net);
  const SpnSteadyState ctmc = SolveExponentialNet(net);
  for (std::size_t p = 0; p < net.PlaceCount(); ++p) {
    EXPECT_NEAR(emc.mean_tokens[p], ctmc.mean_tokens[p], 1e-9);
  }
  for (std::size_t t = 0; t < net.TransitionCount(); ++t) {
    EXPECT_NEAR(emc.throughput[t], ctmc.throughput[t], 1e-9);
  }
}

TEST(DspnExact, WeightedImmediateForkAfterDeterministic) {
  // det feeds a weighted immediate fork (1:3) into two exp drains; the
  // vanishing resolution inside the EMC must respect the weights.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId fork = net.AddPlace("fork", 0);
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId go = net.AddDeterministicTransition("go", 1.0);
  net.AddInputArc(go, p);
  net.AddOutputArc(go, fork);
  const TransitionId ta = net.AddImmediateTransition("ta", 1, 1.0);
  net.AddInputArc(ta, fork);
  net.AddOutputArc(ta, a);
  const TransitionId tb = net.AddImmediateTransition("tb", 1, 3.0);
  net.AddInputArc(tb, fork);
  net.AddOutputArc(tb, b);
  const TransitionId da = net.AddExponentialTransition("da", 1.0);
  net.AddInputArc(da, a);
  net.AddOutputArc(da, p);
  const TransitionId db = net.AddExponentialTransition("db", 1.0);
  net.AddInputArc(db, b);
  net.AddOutputArc(db, p);

  const SpnSteadyState ss = SolveDspnExact(net);
  EXPECT_NEAR(ss.throughput[db] / ss.throughput[da], 3.0, 1e-9);
  // Cycle: 1 s det + 1 s exp on average => p holds the token half the time.
  EXPECT_NEAR(ss.mean_tokens[p], 0.5, 1e-9);
}

TEST(DspnExact, RejectsConcurrentDeterministicTransitions) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 1);
  const TransitionId ta = net.AddDeterministicTransition("ta", 1.0);
  net.AddInputArc(ta, a);
  net.AddOutputArc(ta, a);
  const TransitionId tb = net.AddDeterministicTransition("tb", 2.0);
  net.AddInputArc(tb, b);
  net.AddOutputArc(tb, b);
  EXPECT_THROW(SolveDspnExact(net), util::ModelError);
}

TEST(DspnExact, RejectsUnsupportedDistributions) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const TransitionId t = net.AddTimedTransition(
      "t", util::Distribution(util::Erlang{2, 1.0}));
  net.AddInputArc(t, a);
  net.AddOutputArc(t, a);
  EXPECT_THROW(SolveDspnExact(net), util::ModelError);
}

TEST(DspnExact, RejectsDeadMarking) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddDeterministicTransition("t", 1.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, b);
  EXPECT_THROW(SolveDspnExact(net), util::ModelError);
}

// The paper's CPU net, exactly solved, against the DES ground truth.
class DspnCpuCases
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DspnCpuCases, MatchesDesSimulationWithinCi) {
  const auto [pdt, pud] = GetParam();
  core::CpuParams params;
  params.power_down_threshold = pdt;
  params.power_up_delay = pud;

  const core::DspnExactCpuModel exact;
  const auto ee = exact.Evaluate(params);
  EXPECT_NO_THROW(ee.shares.Validate(1e-6));

  core::EvalConfig cfg;
  cfg.sim_time = 4000.0;
  cfg.replications = 16;
  const core::SimulationCpuModel sim(cfg);
  const auto es = sim.Evaluate(params);

  const double tol = std::max(0.01, 3.0 * es.share_ci_halfwidth);
  EXPECT_NEAR(ee.shares.standby, es.shares.standby, tol);
  EXPECT_NEAR(ee.shares.powerup, es.shares.powerup, tol);
  EXPECT_NEAR(ee.shares.idle, es.shares.idle, tol);
  EXPECT_NEAR(ee.shares.active, es.shares.active, tol);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterPlane, DspnCpuCases,
    ::testing::Values(std::make_tuple(0.1, 0.001),
                      std::make_tuple(0.5, 0.001),
                      std::make_tuple(0.3, 0.3),
                      std::make_tuple(1.0, 0.3),
                      std::make_tuple(0.5, 10.0)));

TEST(DspnExact, CpuNetBeatsSupplementaryVariablesAtLargePud) {
  // The whole point of the exact solver: at PUD = 10 s it must agree with
  // the DES simulation where the supplementary-variable model fails.
  core::CpuParams params;
  params.power_down_threshold = 0.5;
  params.power_up_delay = 10.0;

  core::EvalConfig cfg;
  cfg.sim_time = 8000.0;
  cfg.replications = 16;
  const auto es = core::SimulationCpuModel(cfg).Evaluate(params);
  const auto ee = core::DspnExactCpuModel().Evaluate(params);
  const auto em = core::MarkovCpuModel().Evaluate(params);

  const double exact_err = std::abs(ee.shares.standby - es.shares.standby) +
                           std::abs(ee.shares.idle - es.shares.idle);
  const double markov_err = std::abs(em.shares.standby - es.shares.standby) +
                            std::abs(em.shares.idle - es.shares.idle);
  EXPECT_LT(exact_err, 0.03);
  EXPECT_GT(markov_err, 10.0 * exact_err);
}

// The Fig. 3 CPU net in closed form, by a renewal-reward argument.  One
// cycle is a standby wait (mean 1/lambda), a power-up of length D, busy
// periods, and idle spells that each end at an arrival or after T.  With
// rho = lambda/mu and Z = e^{lambda T} + lambda D the long-run shares are
// standby (1 - rho)/Z, power-up lambda D (1 - rho)/Z, idle
// (e^{lambda T} - 1)(1 - rho)/Z and active rho.
energy::StateShares RenewalRewardShares(const core::CpuParams& params) {
  const double lambda = params.arrival_rate;
  const double rho = params.Rho();
  const double wait = std::exp(lambda * params.power_down_threshold);
  const double z = wait + lambda * params.power_up_delay;
  energy::StateShares shares;
  shares.standby = (1.0 - rho) / z;
  shares.powerup = lambda * params.power_up_delay * (1.0 - rho) / z;
  shares.idle = (wait - 1.0) * (1.0 - rho) / z;
  shares.active = rho;
  return shares;
}

core::CpuParams CpuPoint(double lambda, double pud, double pdt) {
  core::CpuParams params;
  params.arrival_rate = lambda;
  params.service_rate = 10.0;
  params.power_down_threshold = pdt;
  params.power_up_delay = pud;
  return params;
}

// The exact solver must match the closed form at every paper PUD and PDT
// point, at three loads.
TEST(DspnExact, CpuNetMatchesRenewalRewardClosedForm) {
  const core::DspnExactCpuModel exact;
  for (const double lambda : {0.5, 1.0, 5.0}) {
    for (const double pud : {0.001, 0.3, 10.0}) {
      for (const double pdt : core::PaperPdtGrid()) {
        SCOPED_TRACE("lambda=" + std::to_string(lambda) +
                     " pud=" + std::to_string(pud) +
                     " pdt=" + std::to_string(pdt));
        const core::CpuParams params = CpuPoint(lambda, pud, pdt);
        const energy::StateShares want = RenewalRewardShares(params);
        const energy::StateShares shares = exact.Evaluate(params).shares;
        EXPECT_NEAR(shares.standby, want.standby, 1e-9);
        EXPECT_NEAR(shares.powerup, want.powerup, 1e-9);
        EXPECT_NEAR(shares.idle, want.idle, 1e-9);
        EXPECT_NEAR(shares.active, want.active, 1e-9);
      }
    }
  }
}

// The k-stage models replace each deterministic delay by k exponential
// stages, so their error against the closed form falls as about 1/k:
// doubling k from 20 to 40 must cut the largest share error to at most
// 0.55 times its value, and at k = 20 it must already be <= 1e-2.
TEST(DspnExact, StageModelsConvergeToTheClosedForm) {
  const auto largest_error = [](const core::CpuEnergyModel& model,
                                const core::CpuParams& params) {
    const energy::StateShares want = RenewalRewardShares(params);
    const energy::StateShares got = model.Evaluate(params).shares;
    return std::max({std::abs(got.standby - want.standby),
                     std::abs(got.powerup - want.powerup),
                     std::abs(got.idle - want.idle),
                     std::abs(got.active - want.active)});
  };
  for (const double pud : {0.001, 0.3, 10.0}) {
    for (const double pdt : {0.1, 0.5, 1.0}) {
      SCOPED_TRACE("pud=" + std::to_string(pud) +
                   " pdt=" + std::to_string(pdt));
      const core::CpuParams params = CpuPoint(1.0, pud, pdt);
      const double petri_20 =
          largest_error(core::PetriSolverCpuModel(20), params);
      const double petri_40 =
          largest_error(core::PetriSolverCpuModel(40), params);
      EXPECT_LE(petri_20, 1e-2);
      EXPECT_LE(petri_40, 0.55 * petri_20);
      const double stages_20 =
          largest_error(core::StagesMarkovCpuModel(20), params);
      const double stages_40 =
          largest_error(core::StagesMarkovCpuModel(40), params);
      EXPECT_LE(stages_20, 1e-2);
      EXPECT_LE(stages_40, 0.55 * stages_20);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-exact pins of the exact DSPN solver and the Erlang stage expansion on
// the Fig. 3 net at PUD = 10 s, PDT = 0.5 s (lambda = 1, mu = 10).  Both
// solvers are RNG-free; these bits move only if the arithmetic, its order,
// or the order in which tangible markings and their successors are visited
// changes.  At both caps below some mass is truncated, both in plain CTMC
// steps and inside PUT windows, and PDT windows have exits, so every branch
// of the embedded-chain construction is covered.

struct PinnedSteadyState {
  std::size_t tangible_states;
  std::size_t expanded_states;
  std::vector<std::uint64_t> mean_token_bits;
  std::vector<std::uint64_t> prob_nonempty_bits;
  std::vector<std::uint64_t> throughput_bits;
};

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void ExpectPinned(const SpnSteadyState& ss, const PinnedSteadyState& want) {
  EXPECT_EQ(ss.tangible_states, want.tangible_states);
  EXPECT_EQ(ss.expanded_states, want.expanded_states);
  EXPECT_EQ(Bits(ss.mean_tokens), want.mean_token_bits);
  EXPECT_EQ(Bits(ss.prob_nonempty), want.prob_nonempty_bits);
  EXPECT_EQ(Bits(ss.throughput), want.throughput_bits);
}

PetriNet PinCpuNet() {
  core::CpuParams params;
  params.arrival_rate = 1.0;
  params.service_rate = 10.0;
  params.power_up_delay = 10.0;
  params.power_down_threshold = 0.5;
  return core::BuildCpuPetriNet(params);
}

SpnSteadyState PinDspn(std::uint32_t truncate_tokens) {
  DspnOptions opts;
  opts.truncate_tokens = truncate_tokens;
  return SolveDspnExact(PinCpuNet(), opts);
}

SpnSteadyState PinStages(std::uint32_t truncate_tokens) {
  SolverOptions opts;
  opts.det_stages = 4;
  opts.truncate_tokens = truncate_tokens;
  return SolveSteadyState(PinCpuNet(), opts);
}

TEST(ExactSolverPin, DspnCpuNetAtModelCap) {
  ExpectPinned(PinDspn(70),
               {143,
                143,
                {0x3ff0000000000005ULL, 0x0000000000000000ULL,
                 0x4014a5c6c568a140ULL, 0x40128af5743a5887ULL,
                 0x3fb3c76c37b5b7bdULL, 0x3fe8b94745a324e6ULL,
                 0x3fc3372ccd98909bULL, 0x3fecccccccccd09cULL,
                 0x3fb9999999997b64ULL},
                {0x3ff0000000000005ULL, 0x0000000000000000ULL,
                 0x3feb842051b88fcfULL, 0x3fe8b94745a324e6ULL,
                 0x3fb3c76c37b5b7bdULL, 0x3fe8b94745a324e6ULL,
                 0x3fc3372ccd98909bULL, 0x3fecccccccccd09cULL,
                 0x3fb9999999997b64ULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x0000000000000000ULL, 0x3fb3c76c37b5b7bdULL,
                 0x0000000000000000ULL, 0x0000000000000000ULL,
                 0x3fefffffffffda35ULL, 0x3fb3c76c37b5c43bULL}});
}

TEST(ExactSolverPin, DspnCpuNetAtSmallCap) {
  ExpectPinned(PinDspn(6),
               {15,
                15,
                {0x3ff0000000000001ULL, 0x0000000000000000ULL,
                 0x400e39801beeb9fdULL, 0x400d1d5cf66c9ce6ULL,
                 0x3fb4ad0ee030aed0ULL, 0x3fe9d852983cd9b6ULL,
                 0x3fbc905c5de8838bULL, 0x3fee1b2b79703b1eULL,
                 0x3fae4d4868fc4e41ULL},
                {0x3ff0000000000001ULL, 0x0000000000000000ULL,
                 0x3feb50116eade1ceULL, 0x3fe9d852983cd9b6ULL,
                 0x3fb4ad0ee030aed0ULL, 0x3fe9d852983cd9b6ULL,
                 0x3fbc905c5de8838bULL, 0x3fee1b2b79703b1eULL,
                 0x3fae4d4868fc4e41ULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x0000000000000000ULL, 0x3fb4ad0ee030aecfULL,
                 0x0000000000000000ULL, 0x0000000000000000ULL,
                 0x3fe2f04d419db0e8ULL, 0x3fb4ad0ee030a33aULL}});
}

TEST(ExactSolverPin, StageExpansionCpuNetAtModelCap) {
  ExpectPinned(PinStages(70),
               {143,
                356,
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x40190a61803aada6ULL, 0x40167f1a5d1eab49ULL,
                 0x3fb3dbe5db7d01b6ULL, 0x3fe8d2df525c4223ULL,
                 0x3fc2c68fc8d0769fULL, 0x3fecccccce58bfb3ULL,
                 0x3fb999998d3a026cULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x3feba04791370f7aULL, 0x3fe8d2df525c4223ULL,
                 0x3fb3dbe5db7d01b6ULL, 0x3fe8d2df525c4223ULL,
                 0x3fc2c68fc8d0769fULL, 0x3fecccccce58bfb3ULL,
                 0x3fb999998d3a026cULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x0000000000000000ULL, 0x3fb3dbe5db7d01b8ULL,
                 0x0000000000000000ULL, 0x0000000000000000ULL,
                 0x3feffffff0888308ULL, 0x3fb3dbe5db7d01b6ULL}});
}

TEST(ExactSolverPin, StageExpansionCpuNetAtSmallCap) {
  ExpectPinned(PinStages(6),
               {15,
                36,
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x400ec2bc5ca08a3fULL, 0x400dbd87f1209f5fULL,
                 0x3fb4d30c0be01bfaULL, 0x3fea07cf0ed822faULL,
                 0x3fbaee7b7d5ecc27ULL, 0x3fee3338de50d856ULL,
                 0x3faccc721af27aa5ULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x3feb69d86894d21eULL, 0x3fea07cf0ed822faULL,
                 0x3fb4d30c0be01bfaULL, 0x3fea07cf0ed822faULL,
                 0x3fbaee7b7d5ecc27ULL, 0x3fee3338de50d856ULL,
                 0x3faccc721af27aa5ULL},
                {0x3ff0000000000000ULL, 0x0000000000000000ULL,
                 0x0000000000000000ULL, 0x3fb4d30c0be01bfeULL,
                 0x0000000000000000ULL, 0x0000000000000000ULL,
                 0x3fe1ffc750d78ca8ULL, 0x3fb4d30c0be01bfaULL}});
}

}  // namespace
}  // namespace wsn::petri
