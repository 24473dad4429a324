// The classic-net fixtures themselves: structure, boundedness and basic
// steady-state sanity via the solver.
#include <gtest/gtest.h>

#include "petri/ctmc_solver.hpp"
#include "petri/reachability.hpp"
#include "petri/standard_nets.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(StandardNets, AllValidate) {
  EXPECT_NO_THROW(MakeMm1kNet(1.0, 2.0, 5).Validate());
  EXPECT_NO_THROW(MakePingPongNet(1.0, 1.0).Validate());
  EXPECT_NO_THROW(MakeProducerConsumerNet(1.0, 1.0, 2).Validate());
  EXPECT_NO_THROW(MakeForkJoinNet(3, 1.0).Validate());
  EXPECT_NO_THROW(MakeSharedResourceNet(3, 1.0, 2.0).Validate());
}

TEST(StandardNets, ParameterValidation) {
  EXPECT_THROW(MakeMm1kNet(0.0, 1.0, 5), util::InvalidArgument);
  EXPECT_THROW(MakeMm1kNet(1.0, 1.0, 0), util::InvalidArgument);
  EXPECT_THROW(MakeProducerConsumerNet(1.0, 1.0, 0), util::InvalidArgument);
  EXPECT_THROW(MakeForkJoinNet(0, 1.0), util::InvalidArgument);
  EXPECT_THROW(MakeSharedResourceNet(0, 1.0, 1.0), util::InvalidArgument);
}

TEST(StandardNets, ProducerConsumerBounded) {
  const PetriNet net = MakeProducerConsumerNet(2.0, 1.0, 4);
  const ReachabilityGraph g = ExploreReachability(net);
  EXPECT_LE(g.MaxTokens(), 4u);
}

TEST(StandardNets, ProducerConsumerBufferNeverOverflows) {
  const PetriNet net = MakeProducerConsumerNet(5.0, 0.5, 2);
  const ReachabilityGraph g = ExploreReachability(net);
  const PlaceId items = net.PlaceByName("items");
  for (const Marking& m : g.markings) {
    EXPECT_LE(m[items], 2u);
  }
}

TEST(StandardNets, ForkJoinStateSpace) {
  // 3 branches: start + done + each branch in {running, finished}:
  // 1 (start) + 2^3 (branch combos) + 1 (done) = 10 markings.
  const PetriNet net = MakeForkJoinNet(3, 1.0);
  const ReachabilityGraph g = ExploreReachability(net);
  EXPECT_EQ(g.Size(), 10u);
}

TEST(StandardNets, ForkJoinThroughputMatchesHarmonicExpectation) {
  // Expected fork-to-join makespan for n iid Exp(1) branches is H_n;
  // cycle time adds the Exp(1) reset: throughput = 1/(H_3 + 1).
  const PetriNet net = MakeForkJoinNet(3, 1.0);
  const SpnSteadyState ss = SolveSteadyState(net);
  const double h3 = 1.0 + 0.5 + 1.0 / 3.0;
  EXPECT_NEAR(ss.throughput[net.TransitionByName("reset")],
              1.0 / (h3 + 1.0), 1e-9);
}

TEST(StandardNets, SharedResourceMutualExclusion) {
  const PetriNet net = MakeSharedResourceNet(3, 1.0, 1.0);
  const ReachabilityGraph g = ExploreReachability(net);
  // At most one user holds the resource in every reachable marking.
  for (const Marking& m : g.markings) {
    std::uint32_t holders = 0;
    for (std::uint32_t u = 0; u < 3; ++u) {
      holders += m[net.PlaceByName("using_" + std::to_string(u))];
    }
    EXPECT_LE(holders, 1u);
  }
}

TEST(StandardNets, Mm1kStateSpaceScalesWithCapacity) {
  for (std::uint32_t k : {1u, 3u, 9u}) {
    const ReachabilityGraph g =
        ExploreReachability(MakeMm1kNet(1.0, 1.0, k));
    EXPECT_EQ(g.Size(), static_cast<std::size_t>(k) + 1);
  }
}

}  // namespace
}  // namespace wsn::petri
