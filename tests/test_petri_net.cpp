// PetriNet structure: construction, lookup, validation, incidence matrix
// and the DOT exporter.
#include <gtest/gtest.h>

#include "petri/dot.hpp"
#include "petri/net.hpp"
#include "util/error.hpp"

namespace wsn::petri {
namespace {

PetriNet SmallNet() {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 1);
  const PlaceId b = net.AddPlace("b", 0);
  const TransitionId t = net.AddExponentialTransition("t", 2.0);
  net.AddInputArc(t, a);
  net.AddOutputArc(t, b);
  return net;
}

TEST(PetriNet, CountsAndInitialMarking) {
  const PetriNet net = SmallNet();
  EXPECT_EQ(net.PlaceCount(), 2u);
  EXPECT_EQ(net.TransitionCount(), 1u);
  const Marking m = net.InitialMarking();
  EXPECT_EQ(m[0], 1u);
  EXPECT_EQ(m[1], 0u);
}

TEST(PetriNet, LookupByName) {
  const PetriNet net = SmallNet();
  EXPECT_EQ(net.PlaceByName("a"), 0u);
  EXPECT_EQ(net.TransitionByName("t"), 0u);
  EXPECT_THROW(net.PlaceByName("zzz"), util::InvalidArgument);
  EXPECT_THROW(net.TransitionByName("zzz"), util::InvalidArgument);
}

TEST(PetriNet, TransitionKindsAndParameters) {
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId imm = net.AddImmediateTransition("imm", 3, 2.5);
  const TransitionId exp = net.AddExponentialTransition("exp", 4.0);
  const TransitionId det = net.AddDeterministicTransition("det", 0.7);
  net.AddInputArc(imm, p);
  net.AddInputArc(exp, p);
  net.AddInputArc(det, p);

  EXPECT_TRUE(net.GetTransition(imm).IsImmediate());
  EXPECT_EQ(net.GetTransition(imm).priority, 3);
  EXPECT_DOUBLE_EQ(net.GetTransition(imm).weight, 2.5);
  EXPECT_TRUE(net.GetTransition(exp).delay->IsMemoryless());
  EXPECT_TRUE(net.GetTransition(det).delay->IsDeterministic());
  EXPECT_FALSE(net.AllTimedExponential());
}

TEST(PetriNet, AllTimedExponentialDetection) {
  PetriNet net = SmallNet();
  EXPECT_TRUE(net.AllTimedExponential());
}

TEST(PetriNet, ValidationCatchesProblems) {
  PetriNet empty;
  EXPECT_THROW(empty.Validate(), util::ModelError);

  PetriNet no_arcs;
  no_arcs.AddPlace("p", 0);
  no_arcs.AddExponentialTransition("t", 1.0);
  EXPECT_THROW(no_arcs.Validate(), util::ModelError);

  PetriNet dup;
  dup.AddPlace("x", 0);
  dup.AddPlace("x", 0);
  const TransitionId t = dup.AddExponentialTransition("t", 1.0);
  dup.AddInputArc(t, 0);
  EXPECT_THROW(dup.Validate(), util::ModelError);

  // An immediate transition with only output arcs would fire forever in
  // zero time.
  PetriNet livelock;
  livelock.AddPlace("p", 0);
  const TransitionId bad = livelock.AddImmediateTransition("bad", 1);
  livelock.AddOutputArc(bad, 0);
  EXPECT_THROW(livelock.Validate(), util::ModelError);
}

TEST(PetriNet, ArcValidation) {
  PetriNet net = SmallNet();
  EXPECT_THROW(net.AddInputArc(5, 0), util::InvalidArgument);
  EXPECT_THROW(net.AddInputArc(0, 5), util::InvalidArgument);
  EXPECT_THROW(net.AddInputArc(0, 0, 0), util::InvalidArgument);
  EXPECT_THROW(net.AddImmediateTransition("w", 1, 0.0),
               util::InvalidArgument);
}

TEST(PetriNet, IncidenceMatrix) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 2);
  const PlaceId b = net.AddPlace("b", 0);
  const PlaceId guard = net.AddPlace("guard", 0);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, a, 2);
  net.AddOutputArc(t, b, 3);
  net.AddInhibitorArc(t, guard);  // moves no tokens

  const auto c = net.IncidenceMatrix();
  EXPECT_EQ(c[0][a], -2);
  EXPECT_EQ(c[0][b], 3);
  EXPECT_EQ(c[0][guard], 0);
}

TEST(PetriNet, SelfLoopNetsIncidence) {
  // input+output on the same place cancels in the incidence matrix.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 1);
  const TransitionId t = net.AddExponentialTransition("t", 1.0);
  net.AddInputArc(t, p);
  net.AddOutputArc(t, p);
  EXPECT_EQ(net.IncidenceMatrix()[0][p], 0);
}

TEST(Dot, ExportsAllElements) {
  PetriNet net;
  const PlaceId p = net.AddPlace("queue", 3);
  const TransitionId imm = net.AddImmediateTransition("choose", 2);
  const TransitionId det = net.AddDeterministicTransition("wait", 1.5);
  net.AddInputArc(imm, p);
  net.AddInhibitorArc(det, p);
  net.AddOutputArc(det, p, 2);

  const std::string dot = ToDot(net, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  EXPECT_NE(dot.find("queue"), std::string::npos);
  EXPECT_NE(dot.find("choose"), std::string::npos);
  EXPECT_NE(dot.find("Det(1.5)"), std::string::npos);
  EXPECT_NE(dot.find("odot"), std::string::npos);  // inhibitor arrowhead
}

}  // namespace
}  // namespace wsn::petri
