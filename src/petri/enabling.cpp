#include "petri/enabling.hpp"

#include "util/error.hpp"

namespace wsn::petri {

using util::Require;

Marking Fire(const PetriNet& net, TransitionId t, const Marking& m) {
  Marking out = m;
  FireInPlace(net, t, out);
  return out;
}

std::vector<TransitionId> EnabledImmediateConflictSet(const PetriNet& net,
                                                      const Marking& m) {
  std::vector<TransitionId> out;
  EnabledImmediateConflictSet(net, m, out);
  return out;
}

void EnabledImmediateConflictSet(const PetriNet& net, const Marking& m,
                                 std::vector<TransitionId>& out) {
  out.clear();
  int best_priority = 0;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    const Transition& tr = net.GetTransition(t);
    if (!tr.IsImmediate() || !IsEnabled(net, t, m)) continue;
    if (out.empty() || tr.priority > best_priority) {
      out.clear();
      out.push_back(t);
      best_priority = tr.priority;
    } else if (tr.priority == best_priority) {
      out.push_back(t);
    }
  }
}

std::vector<TransitionId> EnabledTimedTransitions(const PetriNet& net,
                                                  const Marking& m) {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (net.GetTransition(t).kind == TransitionKind::kTimed &&
        IsEnabled(net, t, m)) {
      out.push_back(t);
    }
  }
  return out;
}

bool IsTangible(const PetriNet& net, const Marking& m) {
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (net.GetTransition(t).IsImmediate() && IsEnabled(net, t, m)) {
      return false;
    }
  }
  return true;
}

TransitionId SampleByWeight(const PetriNet& net,
                            const std::vector<TransitionId>& conflict_set,
                            util::Rng& rng) {
  Require(!conflict_set.empty(), "empty conflict set");
  if (conflict_set.size() == 1) return conflict_set.front();
  double total = 0.0;
  for (TransitionId t : conflict_set) {
    total += net.GetTransition(t).weight;
  }
  double u = util::UniformDouble(rng) * total;
  for (TransitionId t : conflict_set) {
    u -= net.GetTransition(t).weight;
    if (u <= 0.0) return t;
  }
  return conflict_set.back();
}

}  // namespace wsn::petri
