#include "petri/ctmc_solver.hpp"

#include <deque>
#include <unordered_map>

#include "petri/enabling.hpp"
#include "util/error.hpp"

namespace wsn::petri {

using util::ModelError;
using util::Require;

namespace {

SpnSteadyState StatsFromDistribution(
    const PetriNet& net, const std::vector<Marking>& markings,
    const std::vector<std::size_t>& state_marking,
    const std::vector<double>& pi,
    const std::vector<double>& completion_rate_per_state_transition,
    std::size_t tangible_states) {
  const std::size_t np = net.PlaceCount();
  const std::size_t nt = net.TransitionCount();
  SpnSteadyState out;
  out.mean_tokens.assign(np, 0.0);
  out.prob_nonempty.assign(np, 0.0);
  out.throughput.assign(nt, 0.0);
  out.tangible_states = tangible_states;
  out.expanded_states = pi.size();

  for (std::size_t s = 0; s < pi.size(); ++s) {
    const Marking& m = markings[state_marking[s]];
    for (std::size_t p = 0; p < np; ++p) {
      out.mean_tokens[p] += pi[s] * static_cast<double>(m[p]);
      if (m[p] > 0) out.prob_nonempty[p] += pi[s];
    }
    for (std::size_t t = 0; t < nt; ++t) {
      out.throughput[t] +=
          pi[s] * completion_rate_per_state_transition[s * nt + t];
    }
  }
  return out;
}

}  // namespace

SpnSteadyState SolveExponentialNet(const PetriNet& net,
                                   const SolverOptions& opts) {
  const TangibleGraph graph = BuildTangibleGraph(net, opts.reach);
  const std::size_t n = graph.markings.size();
  Require(n > 0, "no tangible markings");
  const std::size_t nt = net.TransitionCount();

  markov::Ctmc chain(n);
  for (const TangibleEdge& e : graph.edges) {
    if (e.from != e.to) chain.AddRate(e.from, e.to, e.rate);
    // Self-loop rates (firing that returns to the same tangible marking)
    // do not affect the stationary distribution and are dropped.
  }
  const std::vector<double> pi = chain.StationaryDistribution(
      opts.dense_threshold);

  // Completion rates: for exponential transition t enabled in marking s,
  // it completes at its rate.
  std::vector<double> completion(n * nt, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (TransitionId t = 0; t < nt; ++t) {
      const Transition& tr = net.GetTransition(t);
      if (tr.kind != TransitionKind::kTimed) continue;
      if (!IsEnabled(net, t, graph.markings[s])) continue;
      completion[s * nt + t] =
          std::get<util::Exponential>(tr.delay->AsVariant()).rate;
    }
  }

  std::vector<std::size_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = i;
  return StatsFromDistribution(net, graph.markings, identity, pi, completion,
                               n);
}

namespace {

/// Per-transition stage info for the expanded chain.
struct StageInfo {
  bool is_general = false;   ///< deterministic or Erlang
  std::size_t stages = 1;    ///< k
  double phase_rate = 0.0;   ///< nu (rate of each phase)
  double exp_rate = 0.0;     ///< for exponential transitions
  std::size_t general = 0;   ///< index into the general transitions
};

struct ExpandedState {
  std::size_t marking;             ///< index into the tangible space
  std::vector<std::uint32_t> phases;  ///< per general transition

  bool operator==(const ExpandedState& other) const noexcept {
    return marking == other.marking && phases == other.phases;
  }
};

struct ExpandedStateHash {
  std::size_t operator()(const ExpandedState& s) const noexcept {
    std::size_t h = s.marking * 1099511628211ULL + 1469598103934665603ULL;
    for (std::uint32_t v : s.phases) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

class StageExpansionSolver {
 public:
  StageExpansionSolver(const PetriNet& net, const SolverOptions& opts)
      : net_(net),
        opts_(opts),
        space_(net, opts.truncate_tokens, opts.reach) {
    Require(opts.det_stages >= 1,
            "det_stages must be >= 1 for deterministic nets");
    BuildStageInfo();
  }

  SpnSteadyState Solve() {
    Explore();
    const std::size_t n = states_.size();
    markov::Ctmc chain(n);
    for (const auto& [from, to, rate] : edges_) {
      if (from != to) chain.AddRate(from, to, rate);
    }
    const std::vector<double> pi =
        chain.StationaryDistribution(opts_.dense_threshold);

    const std::size_t nt = net_.TransitionCount();
    std::vector<double> completion(n * nt, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      for (const TangibleSpace::Firing& f :
           space_.Firings(states_[s].marking)) {
        const StageInfo& info = stage_info_[f.t];
        if (!info.is_general) {
          completion[s * nt + f.t] = info.exp_rate;
        } else if (states_[s].phases[info.general] + 1 == info.stages) {
          completion[s * nt + f.t] = info.phase_rate;
        }
      }
    }

    std::vector<std::size_t> state_marking(n);
    for (std::size_t s = 0; s < n; ++s) state_marking[s] = states_[s].marking;
    return StatsFromDistribution(net_, space_.Markings(), state_marking, pi,
                                 completion, space_.Size());
  }

 private:
  void BuildStageInfo() {
    stage_info_.resize(net_.TransitionCount());
    for (TransitionId t = 0; t < net_.TransitionCount(); ++t) {
      const Transition& tr = net_.GetTransition(t);
      if (tr.kind != TransitionKind::kTimed) continue;
      StageInfo& info = stage_info_[t];
      const auto& v = tr.delay->AsVariant();
      if (const auto* e = std::get_if<util::Exponential>(&v)) {
        info.exp_rate = e->rate;
      } else if (const auto* d = std::get_if<util::Deterministic>(&v)) {
        Require(d->value > 0.0,
                "deterministic delay must be > 0 for stage expansion "
                "(zero-delay transitions should be immediate)");
        info.is_general = true;
        info.stages = opts_.det_stages;
        info.phase_rate = static_cast<double>(opts_.det_stages) / d->value;
        info.general = general_transitions_.size();
        general_transitions_.push_back(t);
      } else if (const auto* er = std::get_if<util::Erlang>(&v)) {
        info.is_general = true;
        info.stages = static_cast<std::size_t>(er->k);
        info.phase_rate = er->rate;
        info.general = general_transitions_.size();
        general_transitions_.push_back(t);
      } else {
        throw ModelError(
            "numerical solver supports exponential, deterministic and "
            "Erlang delays only; transition '" + tr.name + "' has " +
            tr.delay->Describe());
      }
    }
  }

  std::size_t InternState(ExpandedState s, std::deque<std::size_t>& frontier) {
    auto [it, inserted] = state_index_.emplace(s, states_.size());
    if (inserted) {
      if (states_.size() >= opts_.reach.max_markings) {
        throw ModelError("stage expansion exceeds state cap");
      }
      states_.push_back(std::move(s));
      frontier.push_back(it->second);
    }
    return it->second;
  }

  /// Phase vector after moving from tangible marking `from_m` to `to_m`:
  /// transitions that stay enabled keep phases; everything else resets.
  std::vector<std::uint32_t> SuccessorPhases(
      const std::vector<std::uint32_t>& phases, const Marking& to_m,
      std::size_t fired_general /* index into general list or npos */) const {
    std::vector<std::uint32_t> out(phases.size(), 0);
    for (std::size_t g = 0; g < general_transitions_.size(); ++g) {
      if (g == fired_general) continue;  // fired: phase resets
      if (IsEnabled(net_, general_transitions_[g], to_m)) {
        out[g] = phases[g];
      }
    }
    return out;
  }

  void Explore() {
    std::deque<std::size_t> frontier;
    for (const auto& [marking, p] : space_.Initial()) {
      (void)p;
      ExpandedState s{marking, std::vector<std::uint32_t>(
                                   general_transitions_.size(), 0)};
      InternState(std::move(s), frontier);
    }

    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    while (!frontier.empty()) {
      const std::size_t cur = frontier.front();
      frontier.pop_front();
      const ExpandedState state = states_[cur];  // copy (vector reallocs)

      for (const TangibleSpace::Firing& f : space_.Firings(state.marking)) {
        const StageInfo& info = stage_info_[f.t];
        if (!info.is_general) {
          // Exponential firing.
          EmitFiring(cur, state, f, info.exp_rate, kNone, frontier);
        } else if (state.phases[info.general] + 1 < info.stages) {
          // Phase advance.
          ExpandedState next = state;
          ++next.phases[info.general];
          const std::size_t to = InternState(std::move(next), frontier);
          edges_.emplace_back(cur, to, info.phase_rate);
        } else {
          // Last phase completes: the transition fires.
          EmitFiring(cur, state, f, info.phase_rate, info.general, frontier);
        }
      }
    }
  }

  /// Edges for `firing` completing at `rate` from expanded state `cur`.
  /// Truncated targets get no edge (loss truncation).
  void EmitFiring(std::size_t cur, const ExpandedState& state,
                  const TangibleSpace::Firing& firing, double rate,
                  std::size_t fired_general,
                  std::deque<std::size_t>& frontier) {
    for (const auto& [marking, p] : firing.targets) {
      ExpandedState next{
          marking, SuccessorPhases(state.phases, space_.Markings()[marking],
                                   fired_general)};
      const std::size_t to = InternState(std::move(next), frontier);
      edges_.emplace_back(cur, to, rate * p);
    }
  }

  const PetriNet& net_;
  const SolverOptions& opts_;

  std::vector<StageInfo> stage_info_;
  std::vector<TransitionId> general_transitions_;

  TangibleSpace space_;
  std::vector<ExpandedState> states_;
  std::unordered_map<ExpandedState, std::size_t, ExpandedStateHash>
      state_index_;
  std::vector<std::tuple<std::size_t, std::size_t, double>> edges_;
};

}  // namespace

SpnSteadyState SolveSteadyState(const PetriNet& net,
                                const SolverOptions& opts) {
  net.Validate();
  if (net.AllTimedExponential()) {
    return SolveExponentialNet(net, opts);
  }
  StageExpansionSolver solver(net, opts);
  return solver.Solve();
}

}  // namespace wsn::petri
