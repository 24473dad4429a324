// Enabling semantics: multiplicities, inhibitor arcs, firing, conflict
// sets with priorities and weighted sampling.
#include <gtest/gtest.h>

#include "petri/enabling.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

TEST(Enabling, InputMultiplicity) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p, 3);

  Marking m{2};
  EXPECT_FALSE(IsEnabled(net, t, m));
  m[0] = 3;
  EXPECT_TRUE(IsEnabled(net, t, m));
}

TEST(Enabling, InhibitorBlocksAtThreshold) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0);
  const PlaceId src = net.AddPlace("src", 1);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, src);
  net.AddInhibitorArc(t, p, 2);

  EXPECT_TRUE(IsEnabled(net, t, {0, 1}));
  EXPECT_TRUE(IsEnabled(net, t, {1, 1}));
  EXPECT_FALSE(IsEnabled(net, t, {2, 1}));
  EXPECT_FALSE(IsEnabled(net, t, {5, 1}));
}

TEST(Enabling, FireMovesTokens) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 0);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a, 2);
  net.AddOutputArc(t, b, 3);

  const Marking next = Fire(net, t, {5, 1});
  EXPECT_EQ(next[a], 3u);
  EXPECT_EQ(next[b], 4u);
}

TEST(Enabling, FireDisabledThrows) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a);
  EXPECT_THROW(Fire(net, t, {0}), util::InvalidArgument);
}

TEST(Enabling, SelfLoopKeepsToken) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const PlaceId out = net.AddPlace("out", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p);
  net.AddOutputArc(t, p);
  net.AddOutputArc(t, out);
  const Marking next = Fire(net, t, net.InitialMarking());
  EXPECT_EQ(next[p], 1u);
  EXPECT_EQ(next[out], 1u);
}

// The buffer form must clear a buffer that arrives holding stale ids and
// then agree with the returning form.
void ExpectBufferFormAgrees(const PetriNet& net, const Marking& m) {
  std::vector<TransitionId> buffer{7, 7, 7};
  EnabledImmediateConflictSet(net, m, buffer);
  EXPECT_EQ(buffer, EnabledImmediateConflictSet(net, m));
}

TEST(ConflictSet, HighestPriorityWins) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId low = net.AddImmediateTransition("low", 1);
  const TransitionId high = net.AddImmediateTransition("high", 5);
  const TransitionId timed = net.AddExponentialTransition("timed", 1.0);
  net.AddInputArc(low, p);
  net.AddInputArc(high, p);
  net.AddInputArc(timed, p);

  const auto conflict = EnabledImmediateConflictSet(net, {1});
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], high);
  EXPECT_FALSE(IsTangible(net, {1}));
  EXPECT_TRUE(IsTangible(net, {0}));
  ExpectBufferFormAgrees(net, {1});
  ExpectBufferFormAgrees(net, {0});
}

TEST(ConflictSet, EqualPriorityGroups) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId a = net.AddImmediateTransition("a", 2, 1.0);
  const TransitionId b = net.AddImmediateTransition("b", 2, 3.0);
  const TransitionId c = net.AddImmediateTransition("c", 1, 1.0);
  net.AddInputArc(a, p);
  net.AddInputArc(b, p);
  net.AddInputArc(c, p);

  const auto conflict = EnabledImmediateConflictSet(net, {1});
  ASSERT_EQ(conflict.size(), 2u);
  EXPECT_EQ(conflict[0], a);
  EXPECT_EQ(conflict[1], b);
  ExpectBufferFormAgrees(net, {1});
  ExpectBufferFormAgrees(net, {0});
}

TEST(ConflictSet, WeightedSamplingMatchesProportions) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId a = net.AddImmediateTransition("a", 1, 1.0);
  const TransitionId b = net.AddImmediateTransition("b", 1, 3.0);
  net.AddInputArc(a, p);
  net.AddInputArc(b, p);

  util::Rng rng(77);
  const std::vector<TransitionId> conflict{a, b};
  int picked_b = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (SampleByWeight(net, conflict, rng) == b) ++picked_b;
  }
  EXPECT_NEAR(static_cast<double>(picked_b) / n, 0.75, 0.01);
}

TEST(Enabling, OutOfRangeTransitionThrows) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p);
  EXPECT_THROW(net.GetTransition(net.TransitionCount()),
               util::InvalidArgument);
  EXPECT_THROW(IsEnabled(net, t + 1, {1}), util::InvalidArgument);
}

TEST(EnabledLists, TimedVsImmediate) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId imm = net.AddImmediateTransition("imm", 1);
  const TransitionId exp = net.AddExponentialTransition("exp", 1.0);
  net.AddInputArc(imm, p);
  net.AddInputArc(exp, p);

  const auto timed = EnabledTimedTransitions(net, {1});
  ASSERT_EQ(timed.size(), 1u);
  EXPECT_EQ(timed[0], exp);
  EXPECT_TRUE(EnabledTimedTransitions(net, {0}).empty());
}

}  // namespace
}  // namespace wsn::petri
