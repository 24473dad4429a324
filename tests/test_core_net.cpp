// The Fig. 3 CPU net: structure per paper Table 1, token-flow walkthrough
// of the paper's steps 1-9, P-invariants, and reachability sanity.
#include <gtest/gtest.h>

#include "core/cpu_petri_net.hpp"
#include "petri/enabling.hpp"
#include "petri/invariants.hpp"
#include "petri/reachability.hpp"

namespace wsn::core {
namespace {

using petri::Marking;

CpuParams Defaults() {
  CpuParams p;
  p.arrival_rate = 1.0;
  p.service_rate = 10.0;
  p.power_down_threshold = 0.1;
  p.power_up_delay = 0.001;
  return p;
}

TEST(CpuNet, StructureMatchesTable1) {
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(Defaults(), &l);
  EXPECT_EQ(net.PlaceCount(), 9u);
  EXPECT_EQ(net.TransitionCount(), 8u);

  EXPECT_TRUE(net.GetTransition(l.ar).delay->IsMemoryless());
  EXPECT_TRUE(net.GetTransition(l.sr).delay->IsMemoryless());
  EXPECT_TRUE(net.GetTransition(l.put).delay->IsDeterministic());
  EXPECT_TRUE(net.GetTransition(l.pdt).delay->IsDeterministic());

  EXPECT_EQ(net.GetTransition(l.t1).priority, 4);
  EXPECT_EQ(net.GetTransition(l.t6).priority, 3);
  EXPECT_EQ(net.GetTransition(l.t5).priority, 2);
  EXPECT_EQ(net.GetTransition(l.t2).priority, 1);

  const Marking m0 = net.InitialMarking();
  EXPECT_EQ(m0[l.p0], 1u);
  EXPECT_EQ(m0[l.standby], 1u);
  EXPECT_EQ(m0[l.idle], 1u);
  EXPECT_EQ(m0[l.cpu_on], 0u);
}

TEST(CpuNet, PaperStepWalkthrough) {
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(Defaults(), &l);
  Marking m = net.InitialMarking();

  // Step 1: AR fires (job generated).
  ASSERT_TRUE(petri::IsEnabled(net, l.ar, m));
  petri::FireInPlace(net, l.ar, m);
  EXPECT_EQ(m[l.p1], 1u);

  // Step 2: T1 is the only enabled immediate and fans out three tokens.
  auto conflict = petri::EnabledImmediateConflictSet(net, m);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], l.t1);
  petri::FireInPlace(net, l.t1, m);
  EXPECT_EQ(m[l.p0], 1u);
  EXPECT_EQ(m[l.p6], 1u);
  EXPECT_EQ(m[l.cpu_buffer], 1u);

  // Step 3: T6 moves StandBy -> PowerUp keeping P6.
  conflict = petri::EnabledImmediateConflictSet(net, m);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], l.t6);
  petri::FireInPlace(net, l.t6, m);
  EXPECT_EQ(m[l.powerup], 1u);
  EXPECT_EQ(m[l.p6], 1u);
  EXPECT_EQ(m[l.standby], 0u);

  // Step 4: only the deterministic PUT is enabled now (tangible marking).
  EXPECT_TRUE(petri::IsTangible(net, m));
  ASSERT_TRUE(petri::IsEnabled(net, l.put, m));
  EXPECT_FALSE(petri::IsEnabled(net, l.pdt, m));
  petri::FireInPlace(net, l.put, m);
  EXPECT_EQ(m[l.cpu_on], 1u);
  EXPECT_EQ(m[l.p6], 0u);

  // Step 5: T2 admits the buffered job.
  conflict = petri::EnabledImmediateConflictSet(net, m);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], l.t2);
  petri::FireInPlace(net, l.t2, m);
  EXPECT_EQ(m[l.active], 1u);
  EXPECT_EQ(m[l.cpu_on], 1u);
  EXPECT_EQ(m[l.idle], 0u);

  // PDT inhibited while Active has a token (step 9's inverse logic).
  EXPECT_FALSE(petri::IsEnabled(net, l.pdt, m));

  // Step 6: service completes.
  ASSERT_TRUE(petri::IsEnabled(net, l.sr, m));
  petri::FireInPlace(net, l.sr, m);
  EXPECT_EQ(m[l.idle], 1u);
  EXPECT_EQ(m[l.active], 0u);

  // Step 9: now PDT is enabled and fires back to StandBy.
  EXPECT_TRUE(petri::IsTangible(net, m));
  ASSERT_TRUE(petri::IsEnabled(net, l.pdt, m));
  petri::FireInPlace(net, l.pdt, m);
  EXPECT_EQ(m[l.standby], 1u);
  EXPECT_EQ(m[l.cpu_on], 0u);
}

TEST(CpuNet, Step7ArrivalWhileOnDrainsP6ViaT5) {
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(Defaults(), &l);
  // Construct the "CPU on and idle" marking directly.
  Marking m(net.PlaceCount(), 0);
  m[l.p0] = 1;
  m[l.cpu_on] = 1;
  m[l.idle] = 1;

  petri::FireInPlace(net, l.ar, m);
  petri::FireInPlace(net, l.t1, m);
  // T5 has priority 2 > T2's 1, so it drains P6 first.
  auto conflict = petri::EnabledImmediateConflictSet(net, m);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], l.t5);
  petri::FireInPlace(net, l.t5, m);
  EXPECT_EQ(m[l.p6], 0u);
  EXPECT_EQ(m[l.cpu_on], 1u);
  // Then T2 admits the job.
  conflict = petri::EnabledImmediateConflictSet(net, m);
  ASSERT_EQ(conflict.size(), 1u);
  EXPECT_EQ(conflict[0], l.t2);
}

TEST(CpuNet, PlaceInvariantsCoverControlStructure) {
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(Defaults(), &l);
  const auto invs = petri::PlaceInvariants(net);

  // The CPU mode token: StandBy + PowerUp + CPU_ON = 1.
  bool mode_invariant = false;
  // The service token: Idle + Active = 1.
  bool service_invariant = false;
  for (const auto& inv : invs) {
    if (inv[l.standby] > 0 && inv[l.powerup] > 0 && inv[l.cpu_on] > 0 &&
        inv[l.idle] == 0 && inv[l.active] == 0 && inv[l.cpu_buffer] == 0) {
      mode_invariant = true;
    }
    if (inv[l.idle] > 0 && inv[l.active] > 0 && inv[l.standby] == 0 &&
        inv[l.cpu_buffer] == 0) {
      service_invariant = true;
    }
  }
  EXPECT_TRUE(mode_invariant);
  EXPECT_TRUE(service_invariant);
}

TEST(CpuNet, ModeInvariantHoldsAlongRandomWalks) {
  // The open workload makes the full reachability set unbounded, so the
  // invariant property is checked along long random firing walks instead.
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(Defaults(), &l);
  util::Rng rng(404);
  Marking m = net.InitialMarking();
  for (int step = 0; step < 20000; ++step) {
    // Respect priority semantics: immediates (highest priority) first.
    auto candidates = petri::EnabledImmediateConflictSet(net, m);
    if (candidates.empty()) {
      candidates = petri::EnabledTimedTransitions(net, m);
    }
    ASSERT_FALSE(candidates.empty()) << "CPU net must never deadlock";
    const auto pick = candidates[util::UniformBelow(rng, candidates.size())];
    petri::FireInPlace(net, pick, m);

    ASSERT_EQ(m[l.standby] + m[l.powerup] + m[l.cpu_on], 1u) << "step " << step;
    ASSERT_EQ(m[l.idle] + m[l.active], 1u) << "step " << step;
    ASSERT_LE(m[l.active], m[l.cpu_on]);  // Active implies CPU_ON
    ASSERT_LE(m[l.p0] + m[l.p1], 2u);     // workload cycle stays bounded
  }
}

TEST(CpuNet, ZeroDelaysBecomeImmediate) {
  CpuParams p = Defaults();
  p.power_down_threshold = 0.0;
  p.power_up_delay = 0.0;
  CpuNetLayout l;
  const petri::PetriNet net = BuildCpuPetriNet(p, &l);
  EXPECT_TRUE(net.GetTransition(l.put).IsImmediate());
  EXPECT_TRUE(net.GetTransition(l.pdt).IsImmediate());
  EXPECT_LT(net.GetTransition(l.put).priority,
            net.GetTransition(l.t2).priority);
}

TEST(CpuNet, RejectsBadParams) {
  CpuParams p = Defaults();
  p.arrival_rate = 0.0;
  EXPECT_THROW(BuildCpuPetriNet(p), util::InvalidArgument);
  CpuParams q = Defaults();
  q.power_up_delay = -1.0;
  EXPECT_THROW(BuildCpuPetriNet(q), util::InvalidArgument);
}

TEST(CpuNet, TruncationCapTracksPowerUpPileUpAndLoad) {
  CpuParams p = Defaults();  // lambda = 1, mu = 10, PUD = 0.001
  EXPECT_EQ(CpuNetTruncateTokens(p), 42u);
  p.power_up_delay = 0.3;
  EXPECT_EQ(CpuNetTruncateTokens(p), 43u);
  p.power_up_delay = 10.0;
  EXPECT_EQ(CpuNetTruncateTokens(p), 70u);

  CpuParams light = Defaults();  // lower clamp
  light.arrival_rate = 0.01;
  EXPECT_EQ(CpuNetTruncateTokens(light), 40u);

  CpuParams heavy = Defaults();  // upper clamp: rho = 0.999
  heavy.arrival_rate = 9.99;
  heavy.power_up_delay = 0.3;
  EXPECT_EQ(CpuNetTruncateTokens(heavy), 2000u);
}

}  // namespace
}  // namespace wsn::core
