// Reachability: state counts on known nets, tangible/vanishing
// classification, dead markings, unboundedness guards, vanishing
// resolution distributions, the tangible firing table, and a bit-exact pin
// of a tangible graph.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "petri/enabling.hpp"
#include "petri/reachability.hpp"
#include "petri/standard_nets.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(Reachability, PingPongHasTwoMarkings) {
  const PetriNet net = MakePingPongNet(1.0, 1.0);
  const ReachabilityGraph g = ExploreReachability(net);
  EXPECT_EQ(g.Size(), 2u);
  EXPECT_EQ(g.edges.size(), 2u);
  EXPECT_TRUE(g.complete);
  EXPECT_TRUE(g.tangible[0]);
  EXPECT_TRUE(g.tangible[1]);
}

TEST(Reachability, Mm1kHasCapacityPlusOneMarkings) {
  const PetriNet net = MakeMm1kNet(1.0, 2.0, 7);
  const ReachabilityGraph g = ExploreReachability(net);
  EXPECT_EQ(g.Size(), 8u);  // 0..7 jobs
  EXPECT_EQ(g.MaxTokens(), 7u);
}

TEST(Reachability, DeadMarkingHasNoSuccessor) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, b);
  const ReachabilityGraph g = ExploreReachability(net);
  EXPECT_EQ(g.Size(), 2u);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.markings[g.edges[0].to][b], 1u);
}

TEST(Reachability, UnboundedNetTriggersGuard) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0);
  const PlaceId gen = net.AddPlace("gen", 1);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, gen);
  net.AddOutputArc(t, gen);
  net.AddOutputArc(t, p);  // p grows forever

  ReachabilityOptions opts;
  opts.max_tokens_per_place = 50;
  EXPECT_THROW(ExploreReachability(net, opts), util::ModelError);
}

TEST(Reachability, MarkingCapTriggersGuard) {
  const PetriNet net = MakeMm1kNet(1.0, 2.0, 100);
  ReachabilityOptions opts;
  opts.max_markings = 10;
  EXPECT_THROW(ExploreReachability(net, opts), util::ModelError);
}

TEST(Reachability, VanishingClassification) {
  const PetriNet net = MakeProducerConsumerNet(1.0, 1.0, 2);
  const ReachabilityGraph g = ExploreReachability(net);
  // A token in "produced" enables the immediate deposit — and makes the
  // marking vanishing — iff a buffer slot is free; with the buffer full
  // the producer blocks in a tangible marking.
  const PlaceId produced = net.PlaceByName("produced");
  const PlaceId slots = net.PlaceByName("slots");
  bool saw_vanishing = false;
  for (std::size_t i = 0; i < g.Size(); ++i) {
    if (g.markings[i][produced] > 0) {
      const bool expect_vanishing = g.markings[i][slots] > 0;
      EXPECT_EQ(g.tangible[i], !expect_vanishing);
      saw_vanishing = saw_vanishing || expect_vanishing;
    }
  }
  EXPECT_TRUE(saw_vanishing);
}

TEST(VanishingResolution, TangibleMarkingIsIdentity) {
  const PetriNet net = MakePingPongNet(1.0, 1.0);
  const Marking m = net.InitialMarking();
  const auto dist = ResolveVanishingDistribution(net, m);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist.at(m), 1.0);
}

TEST(VanishingResolution, WeightedBranchProbabilities) {
  // One token, two immediate transitions with weights 1 and 3 leading to
  // distinct tangible markings.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ta = net.AddImmediateTransition("ta", 1, 1.0);
  const TransitionId tb = net.AddImmediateTransition("tb", 1, 3.0);
  net.AddInputArc(ta, p);
  net.AddOutputArc(ta, a);
  net.AddInputArc(tb, p);
  net.AddOutputArc(tb, b);
  // A timed transition so tangible markings aren't dead-ends structurally.
  const TransitionId back = net.AddExponentialTransition("back", 1.0);
  net.AddInputArc(back, a);
  net.AddOutputArc(back, p);

  const auto dist = ResolveVanishingDistribution(net, net.InitialMarking());
  ASSERT_EQ(dist.size(), 2u);
  Marking ma{0, 1, 0}, mb{0, 0, 1};
  EXPECT_NEAR(dist.at(ma), 0.25, 1e-12);
  EXPECT_NEAR(dist.at(mb), 0.75, 1e-12);
}

TEST(VanishingResolution, MultiStepChain) {
  // p -> q -> r through two immediates: resolves straight to r's marking.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId q = net.AddPlace("q", 0);
  const PlaceId r = net.AddPlace("r", 0);
  const TransitionId t1 = net.AddImmediateTransition("t1", 1);
  const TransitionId t2 = net.AddImmediateTransition("t2", 1);
  net.AddInputArc(t1, p);
  net.AddOutputArc(t1, q);
  net.AddInputArc(t2, q);
  net.AddOutputArc(t2, r);
  const TransitionId timed = net.AddExponentialTransition("timed", 1.0);
  net.AddInputArc(timed, r);
  net.AddOutputArc(timed, p);

  const auto dist = ResolveVanishingDistribution(net, net.InitialMarking());
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist.at(Marking{0, 0, 1}), 1.0);
}

TEST(VanishingResolution, LoopThrows) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId ab = net.AddImmediateTransition("ab", 1);
  const TransitionId ba = net.AddImmediateTransition("ba", 1);
  net.AddInputArc(ab, a);
  net.AddOutputArc(ab, b);
  net.AddInputArc(ba, b);
  net.AddOutputArc(ba, a);
  EXPECT_THROW(ResolveVanishingDistribution(net, net.InitialMarking()),
               util::ModelError);
}

TEST(TangibleGraph, PingPong) {
  const PetriNet net = MakePingPongNet(2.0, 5.0);
  const TangibleGraph g = BuildTangibleGraph(net);
  EXPECT_EQ(g.markings.size(), 2u);
  ASSERT_EQ(g.edges.size(), 2u);
  double total_rate = 0.0;
  for (const auto& e : g.edges) total_rate += e.rate;
  EXPECT_NEAR(total_rate, 7.0, 1e-12);
  EXPECT_NEAR(g.initial_distribution[0] + g.initial_distribution[1], 1.0,
              1e-12);
}

TEST(TangibleGraph, FoldsVanishingChains) {
  const PetriNet net = MakeProducerConsumerNet(1.0, 2.0, 3);
  const TangibleGraph g = BuildTangibleGraph(net);
  // The deposit immediate is folded into the produce edges: a token can
  // only linger in "produced" when the buffer is full (deposit disabled).
  for (const Marking& m : g.markings) {
    if (m[net.PlaceByName("produced")] > 0) {
      EXPECT_EQ(m[net.PlaceByName("slots")], 0u);
    }
  }
  EXPECT_GT(g.edges.size(), 0u);
}

TEST(TangibleGraph, RejectsDeterministicNets) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const TransitionId t = net.AddDeterministicTransition("t", 1.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, a);
  EXPECT_THROW(BuildTangibleGraph(net), util::InvalidArgument);
}

// The Fig. 3 net at PUD = 10 s, PDT = 0.5 s, truncated at `cap` tokens:
// every list holds exactly the enabled timed transitions, each firing's
// kept and dropped mass sums to 1, and mass is dropped both inside PUT
// windows and in plain CTMC steps.
void ExpectCpuNetSpace(std::uint32_t cap, std::size_t want_size) {
  SCOPED_TRACE("cap " + std::to_string(cap));
  core::CpuParams params;
  params.power_up_delay = 10.0;
  params.power_down_threshold = 0.5;
  core::CpuNetLayout layout;
  const PetriNet net = core::BuildCpuPetriNet(params, &layout);
  TangibleSpace space(net, cap);
  const auto init = space.Initial();
  ASSERT_EQ(init.size(), 1u);
  EXPECT_EQ(init[0].second, 1.0);

  bool dropped_in_put_window = false;
  bool dropped_in_plain_step = false;
  for (std::size_t i = 0; i < space.Size(); ++i) {
    const std::vector<TangibleSpace::Firing>& firings = space.Firings(i);
    EXPECT_EQ(&firings, &space.Firings(i)) << "a list is computed once";
    const Marking& m = space.Markings()[i];
    EXPECT_TRUE(IsTangible(net, m));
    std::vector<TransitionId> fired;
    bool put = false;
    bool pdt = false;
    double dropped = 0.0;
    for (const TangibleSpace::Firing& f : firings) {
      fired.push_back(f.t);
      put = put || f.t == layout.put;
      pdt = pdt || f.t == layout.pdt;
      dropped += f.dropped;
      double total = f.dropped;
      for (const auto& [to, p] : f.targets) {
        EXPECT_LT(to, space.Size());
        total += p;
      }
      EXPECT_NEAR(total, 1.0, 1e-12);
    }
    EXPECT_EQ(fired, EnabledTimedTransitions(net, m));
    for (std::uint32_t v : m) EXPECT_LE(v, cap);
    if (dropped > 0.0 && put) dropped_in_put_window = true;
    if (dropped > 0.0 && !put && !pdt) dropped_in_plain_step = true;
  }
  EXPECT_EQ(space.Size(), want_size);
  EXPECT_TRUE(dropped_in_put_window);
  EXPECT_TRUE(dropped_in_plain_step);
}

TEST(TangibleSpace, FiresEachEnabledTimedTransitionOnce) {
  // The state counts the exact solvers report for this net and cap.
  ExpectCpuNetSpace(6, 15);
  ExpectCpuNetSpace(70, 143);
}

PetriNet GrowingNet(std::uint32_t initial_tokens) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", initial_tokens);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddOutputArc(t, p);  // p grows forever
  return net;
}

TEST(TangibleSpace, TruncationBoundsAnOpenNet) {
  const PetriNet net = GrowingNet(0);
  TangibleSpace space(net, 5);
  space.Initial();
  for (std::size_t i = 0; i < space.Size(); ++i) space.Firings(i);
  ASSERT_EQ(space.Size(), 6u);
  const TangibleSpace::Firing& last = space.Firings(5).front();
  EXPECT_TRUE(last.targets.empty());
  EXPECT_EQ(last.dropped, 1.0);
  EXPECT_THROW(space.Firings(6), util::InvalidArgument);

  const PetriNet over = GrowingNet(3);
  EXPECT_THROW(TangibleSpace(over, 2).Initial(), util::InvalidArgument);
}

TEST(TangibleSpace, MarkingCapTriggersGuard) {
  const PetriNet net = MakeMm1kNet(1.0, 2.0, 100);
  ReachabilityOptions opts;
  opts.max_markings = 10;
  TangibleSpace space(net, 0, opts);
  space.Initial();
  EXPECT_THROW(
      {
        for (std::size_t i = 0; i < space.Size(); ++i) space.Firings(i);
      },
      util::ModelError);
}

TEST(TangibleGraph, PinnedOnWeightedConflicts) {
  // Equal-priority acquire_* immediates with weights 1, 2, 3 give
  // multi-target vanishing distributions.  Every edge (from, via, to,
  // rate bits) is pinned in emission order, together with the initial
  // distribution: these move if tangible markings are interned in another
  // order or a firing's targets are visited in another order.
  struct PinnedEdge {
    std::size_t from;
    TransitionId via;
    std::size_t to;
    std::uint64_t rate_bits;
  };
  const std::vector<PinnedEdge> want = {
      {0, 7, 3, 0x3fe5555555555555ULL},  {0, 7, 4, 0x3fd5555555555555ULL},
      {1, 4, 5, 0x3fe8000000000000ULL},  {1, 4, 6, 0x3fd0000000000000ULL},
      {2, 1, 7, 0x3fe3333333333333ULL},  {2, 1, 8, 0x3fd999999999999aULL},
      {3, 4, 9, 0x3ff0000000000000ULL},  {3, 8, 1, 0x4000000000000000ULL},
      {4, 1, 10, 0x3ff0000000000000ULL}, {4, 8, 2, 0x4000000000000000ULL},
      {5, 5, 0, 0x4000000000000000ULL},  {5, 7, 9, 0x3ff0000000000000ULL},
      {6, 1, 11, 0x3ff0000000000000ULL}, {6, 5, 2, 0x4000000000000000ULL},
      {7, 2, 0, 0x4000000000000000ULL},  {7, 7, 10, 0x3ff0000000000000ULL},
      {8, 2, 1, 0x4000000000000000ULL},  {8, 4, 11, 0x3ff0000000000000ULL},
      {9, 1, 12, 0x3ff0000000000000ULL}, {9, 5, 4, 0x4000000000000000ULL},
      {9, 8, 6, 0x4000000000000000ULL},  {10, 2, 3, 0x4000000000000000ULL},
      {10, 4, 12, 0x3ff0000000000000ULL}, {10, 8, 8, 0x4000000000000000ULL},
      {11, 2, 5, 0x4000000000000000ULL}, {11, 5, 7, 0x4000000000000000ULL},
      {11, 7, 12, 0x3ff0000000000000ULL}, {12, 2, 9, 0x4000000000000000ULL},
      {12, 5, 10, 0x4000000000000000ULL}, {12, 8, 11, 0x4000000000000000ULL},
  };
  const TangibleGraph g =
      BuildTangibleGraph(MakeSharedResourceNet(3, 1.0, 2.0));
  EXPECT_EQ(g.markings.size(), 13u);
  ASSERT_EQ(g.edges.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TangibleEdge& e = g.edges[i];
    EXPECT_EQ(e.from, want[i].from) << "edge " << i;
    EXPECT_EQ(e.via, want[i].via) << "edge " << i;
    EXPECT_EQ(e.to, want[i].to) << "edge " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.rate), want[i].rate_bits)
        << "edge " << i;
  }
  std::vector<std::uint64_t> init_bits;
  for (double p : g.initial_distribution) {
    init_bits.push_back(std::bit_cast<std::uint64_t>(p));
  }
  std::vector<std::uint64_t> want_init(13, 0);
  want_init[0] = 0x3fe0000000000000ULL;
  want_init[1] = 0x3fd5555555555555ULL;
  want_init[2] = 0x3fc5555555555555ULL;
  EXPECT_EQ(init_bits, want_init);
}

}  // namespace
}  // namespace wsn::petri
