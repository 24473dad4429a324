// Enabling rules and the token-moving Fire primitive — shared by the
// token-game simulator, the reachability generator and the CTMC solver so
// all engines agree on semantics by construction.
#pragma once

#include <vector>

#include "petri/net.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wsn::petri {

/// Standard EDSPN enabling: every input arc satisfied
/// (m[p] >= multiplicity) and every inhibitor arc satisfied
/// (m[p] < multiplicity).  Inline: the token game and the solvers call it
/// per transition per marking.
inline bool IsEnabled(const PetriNet& net, TransitionId t, const Marking& m) {
  for (const Arc& a : net.GetTransition(t).arcs) {
    switch (a.kind) {
      case ArcKind::kInput:
        if (m[a.place] < a.multiplicity) return false;
        break;
      case ArcKind::kInhibitor:
        if (m[a.place] >= a.multiplicity) return false;
        break;
      case ArcKind::kOutput:
        break;
    }
  }
  return true;
}

/// Fire `t` in `m` (must be enabled): consume input arcs, produce output
/// arcs.  Inhibitor arcs move no tokens.
Marking Fire(const PetriNet& net, TransitionId t, const Marking& m);

/// In-place variant.
inline void FireInPlace(const PetriNet& net, TransitionId t, Marking& m) {
  util::Require(IsEnabled(net, t, m), "firing a disabled transition");
  const Transition& tr = net.GetTransition(t);
  for (const Arc& a : tr.arcs) {
    if (a.kind == ArcKind::kInput) m[a.place] -= a.multiplicity;
  }
  for (const Arc& a : tr.arcs) {
    if (a.kind == ArcKind::kOutput) m[a.place] += a.multiplicity;
  }
}

/// Enabled immediate transitions of maximal priority in `m` (the conflict
/// set that competes by weight), ascending id.  Empty iff the marking is
/// tangible.
std::vector<TransitionId> EnabledImmediateConflictSet(const PetriNet& net,
                                                      const Marking& m);

/// Same set written into `out`, which is cleared first: a caller that
/// resolves many vanishing markings reuses one buffer instead of
/// allocating per firing.
void EnabledImmediateConflictSet(const PetriNet& net, const Marking& m,
                                 std::vector<TransitionId>& out);

/// Enabled timed transitions in `m` (only meaningful for tangible m).
std::vector<TransitionId> EnabledTimedTransitions(const PetriNet& net,
                                                  const Marking& m);

/// True iff no immediate transition is enabled.
bool IsTangible(const PetriNet& net, const Marking& m);

/// Pick one transition from a non-empty conflict set proportionally to
/// transition weights.
TransitionId SampleByWeight(const PetriNet& net,
                            const std::vector<TransitionId>& conflict_set,
                            util::Rng& rng);

}  // namespace wsn::petri
