#include "petri/reachability.hpp"

#include <deque>
#include <string>
#include <unordered_set>

#include "petri/enabling.hpp"
#include "util/error.hpp"

namespace wsn::petri {

using util::ModelError;
using util::Require;

std::size_t MarkingHash::operator()(const Marking& m) const noexcept {
  // FNV-1a over the token counts.
  std::size_t h = 1469598103934665603ULL;
  for (std::uint32_t v : m) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

void CheckBound(const Marking& m, std::uint32_t max_tokens) {
  for (std::uint32_t v : m) {
    if (v > max_tokens) {
      throw ModelError(
          "reachability: place exceeded " + std::to_string(max_tokens) +
          " tokens; the net appears unbounded (or raise the guard)");
    }
  }
}

}  // namespace

std::uint32_t ReachabilityGraph::MaxTokens() const noexcept {
  std::uint32_t best = 0;
  for (const Marking& m : markings) {
    for (std::uint32_t v : m) best = std::max(best, v);
  }
  return best;
}

ReachabilityGraph ExploreReachability(const PetriNet& net,
                                      const ReachabilityOptions& opts) {
  net.Validate();
  ReachabilityGraph graph;
  std::unordered_map<Marking, std::size_t, MarkingHash> index;

  const Marking m0 = net.InitialMarking();
  CheckBound(m0, opts.max_tokens_per_place);
  index.emplace(m0, 0);
  graph.markings.push_back(m0);

  std::deque<std::size_t> frontier{0};
  while (!frontier.empty()) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    // NOTE: copy the marking — graph.markings may reallocate below.
    const Marking m = graph.markings[cur];
    for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
      if (!IsEnabled(net, t, m)) continue;
      Marking next = Fire(net, t, m);
      CheckBound(next, opts.max_tokens_per_place);
      auto [it, inserted] = index.emplace(next, graph.markings.size());
      if (inserted) {
        if (graph.markings.size() >= opts.max_markings) {
          graph.complete = false;
          throw ModelError(
              "reachability: more than " +
              std::to_string(opts.max_markings) +
              " markings; the state space is too large or unbounded");
        }
        graph.markings.push_back(std::move(next));
        frontier.push_back(it->second);
      }
      graph.edges.push_back({cur, t, it->second});
    }
  }

  graph.tangible.resize(graph.markings.size());
  for (std::size_t i = 0; i < graph.markings.size(); ++i) {
    graph.tangible[i] = IsTangible(net, graph.markings[i]);
  }
  return graph;
}

namespace {
using Distribution = std::unordered_map<Marking, double, MarkingHash>;
}  // namespace

namespace detail {

/// Depth-first vanishing resolution with memoization and cycle detection.
class VanishingResolver {
 public:
  VanishingResolver(const PetriNet& net, const ReachabilityOptions& opts)
      : net_(net), opts_(opts) {}

  const Distribution& Resolve(const Marking& m) {
    const auto memo_it = memo_.find(m);
    if (memo_it != memo_.end()) return memo_it->second;

    if (on_stack_.count(m) > 0) {
      throw ModelError(
          "vanishing loop: a cycle of immediate transitions never reaches "
          "a tangible marking");
    }
    if (on_stack_.size() > opts_.max_vanishing_depth) {
      throw ModelError("vanishing chain exceeds depth guard");
    }

    Distribution dist;
    const std::vector<TransitionId> conflict =
        EnabledImmediateConflictSet(net_, m);
    if (conflict.empty()) {
      dist.emplace(m, 1.0);
    } else {
      on_stack_.insert(m);
      double total_weight = 0.0;
      for (TransitionId t : conflict) {
        total_weight += net_.GetTransition(t).weight;
      }
      for (TransitionId t : conflict) {
        const double p = net_.GetTransition(t).weight / total_weight;
        Marking next = Fire(net_, t, m);
        CheckBound(next, opts_.max_tokens_per_place);
        const Distribution& sub = Resolve(next);
        for (const auto& [tm, tp] : sub) {
          dist[tm] += p * tp;
        }
      }
      on_stack_.erase(m);
    }
    return memo_.emplace(m, std::move(dist)).first->second;
  }

 private:
  const PetriNet& net_;
  const ReachabilityOptions& opts_;
  std::unordered_map<Marking, Distribution, MarkingHash> memo_;
  std::unordered_set<Marking, MarkingHash> on_stack_;
};

}  // namespace detail

Distribution ResolveVanishingDistribution(const PetriNet& net,
                                          const Marking& m,
                                          const ReachabilityOptions& opts) {
  detail::VanishingResolver resolver(net, opts);
  return resolver.Resolve(m);
}

TangibleSpace::TangibleSpace(const PetriNet& net,
                             std::uint32_t truncate_tokens,
                             const ReachabilityOptions& reach)
    : net_(net),
      truncate_tokens_(truncate_tokens),
      reach_(reach),
      resolver_(std::make_unique<detail::VanishingResolver>(net, reach_)) {
  for (TransitionId t = 0; t < net.TransitionCount(); ++t) {
    if (net.GetTransition(t).kind == TransitionKind::kTimed) {
      timed_.push_back(t);
    }
  }
}

TangibleSpace::~TangibleSpace() = default;

bool TangibleSpace::Truncated(const Marking& m) const noexcept {
  if (truncate_tokens_ == 0) return false;
  for (std::uint32_t v : m) {
    if (v > truncate_tokens_) return true;
  }
  return false;
}

std::vector<std::pair<std::size_t, double>> TangibleSpace::Initial() {
  std::vector<std::pair<std::size_t, double>> out;
  for (const auto& [m, p] : resolver_->Resolve(net_.InitialMarking())) {
    Require(!Truncated(m), "initial marking exceeds truncation");
    out.emplace_back(Intern(m), p);
  }
  return out;
}

std::size_t TangibleSpace::Intern(const Marking& m) {
  const auto [it, inserted] = index_.emplace(m, markings_.size());
  if (inserted) {
    if (markings_.size() >= reach_.max_markings) {
      index_.erase(it);
      throw ModelError("tangible reachability exceeds the marking cap of " +
                       std::to_string(reach_.max_markings));
    }
    markings_.push_back(m);
    firings_.emplace_back();
  }
  return it->second;
}

void TangibleSpace::AddTarget(Firing& f, const Marking& m, double p) {
  if (Truncated(m)) {
    f.dropped += p;
  } else {
    f.targets.emplace_back(Intern(m), p);
  }
}

const std::vector<TangibleSpace::Firing>& TangibleSpace::Firings(
    std::size_t i) {
  Require(i < firings_.size(), "tangible marking index out of range");
  if (firings_[i]) return *firings_[i];
  const Marking m = markings_[i];  // copy: Intern below may grow markings_
  std::vector<Firing> out;
  for (TransitionId t : timed_) {
    if (!IsEnabled(net_, t, m)) continue;
    Firing& f = out.emplace_back(Firing{t, {}, 0.0});
    const Marking next = Fire(net_, t, m);
    CheckBound(next, reach_.max_tokens_per_place);
    if (IsTangible(net_, next)) {
      // The resolver would return {next: 1}; skipping its memo keeps
      // nets without immediate transitions as fast as before the table.
      AddTarget(f, next, 1.0);
      continue;
    }
    for (const auto& [tm, tp] : resolver_->Resolve(next)) {
      AddTarget(f, tm, tp);
    }
  }
  firings_[i] = std::move(out);
  return *firings_[i];
}

TangibleGraph BuildTangibleGraph(const PetriNet& net,
                                 const ReachabilityOptions& opts) {
  net.Validate();
  Require(net.AllTimedExponential(),
          "tangible graph requires all timed transitions exponential; "
          "use the stage-expansion solver for deterministic transitions");

  TangibleSpace space(net, /*truncate_tokens=*/0, opts);
  const auto init = space.Initial();
  TangibleGraph graph;
  // Index order is breadth-first order: Firings(i) appends the markings it
  // discovers behind those already interned.
  for (std::size_t i = 0; i < space.Size(); ++i) {
    for (const TangibleSpace::Firing& f : space.Firings(i)) {
      const double rate = std::get<util::Exponential>(
                              net.GetTransition(f.t).delay->AsVariant())
                              .rate;
      for (const auto& [to, p] : f.targets) {
        graph.edges.push_back({i, f.t, to, rate * p});
      }
    }
  }
  graph.markings = space.Markings();
  graph.initial_distribution.assign(space.Size(), 0.0);
  for (const auto& [idx, p] : init) {
    graph.initial_distribution[idx] += p;
  }
  return graph;
}

}  // namespace wsn::petri
