// Reachability analysis: full state-space exploration for structural
// questions (boundedness) and tangible reachability
// with vanishing-marking elimination — the front half of the numerical
// SPN solvers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "petri/net.hpp"

namespace wsn::petri {

/// Hash functor so Markings can key unordered containers.
struct MarkingHash {
  std::size_t operator()(const Marking& m) const noexcept;
};

struct ReachabilityOptions {
  std::size_t max_markings = 1u << 20;   ///< exploration cap (throws beyond)
  std::uint32_t max_tokens_per_place = 1u << 20;  ///< unboundedness guard
  std::size_t max_vanishing_depth = 1u << 16;     ///< immediate-loop guard
};

/// An edge of the full reachability graph.
struct ReachabilityEdge {
  std::size_t from;      ///< marking index
  TransitionId transition;
  std::size_t to;        ///< marking index
};

/// Full reachability graph (tangible and vanishing markings alike).
struct ReachabilityGraph {
  std::vector<Marking> markings;
  std::vector<ReachabilityEdge> edges;
  std::vector<bool> tangible;  ///< per marking
  bool complete = true;        ///< false if the exploration cap was hit

  std::size_t Size() const noexcept { return markings.size(); }
  /// Maximum token count observed in any place (bound of the net if
  /// exploration completed).
  std::uint32_t MaxTokens() const noexcept;
};

/// Breadth-first exploration of every reachable marking.
ReachabilityGraph ExploreReachability(const PetriNet& net,
                                      const ReachabilityOptions& opts = {});

/// Probability distribution over tangible markings reached from `m` by
/// resolving immediate transitions (priorities, then weights).  If `m` is
/// already tangible the result is {m: 1}.  Throws ModelError on vanishing
/// loops (a cycle of immediate transitions reachable with probability 1
/// never reaches a tangible marking).
std::unordered_map<Marking, double, MarkingHash> ResolveVanishingDistribution(
    const PetriNet& net, const Marking& m,
    const ReachabilityOptions& opts = {});

namespace detail {
class VanishingResolver;
}  // namespace detail

/// Tangible markings of a net, interned in discovery order, with every
/// enabled timed transition fired from each of them exactly once.  A
/// firing folds in its vanishing chain, leaves out target markings beyond
/// the truncation cap and reports the probability it left out.  The exact
/// DSPN, stage-expansion and tangible-graph solvers all read their
/// successor distributions from this one table.
class TangibleSpace {
 public:
  /// One timed transition fired from one tangible marking.
  struct Firing {
    TransitionId t;  ///< the timed transition fired
    /// (marking index, probability) per tangible target, in the vanishing
    /// resolver's order; truncated targets are left out.
    std::vector<std::pair<std::size_t, double>> targets;
    double dropped = 0.0;  ///< total probability of the truncated targets
  };

  /// `truncate_tokens` removes every target marking holding more tokens
  /// than this in some place (0 = no truncation).  `reach` supplies the
  /// marking cap, the per-place token bound and the vanishing depth
  /// guard.  `net` must be valid and outlive the space.
  TangibleSpace(const PetriNet& net, std::uint32_t truncate_tokens,
                const ReachabilityOptions& reach = {});
  ~TangibleSpace();
  // Neither copyable nor movable: the resolver refers to reach_.
  TangibleSpace(const TangibleSpace&) = delete;
  TangibleSpace& operator=(const TangibleSpace&) = delete;

  /// Resolve the initial marking into tangible markings, intern them and
  /// return (index, probability) pairs in the resolver's order.  Throws
  /// InvalidArgument if one of them exceeds the truncation cap.
  std::vector<std::pair<std::size_t, double>> Initial();

  /// Interned markings, by index.
  const std::vector<Marking>& Markings() const noexcept { return markings_; }

  /// Number of interned markings.
  std::size_t Size() const noexcept { return markings_.size(); }

  /// Firings of the timed transitions enabled in marking `i`, in
  /// ascending transition id.  Computed on the first call for `i`, which
  /// interns any new target markings (throwing ModelError beyond
  /// `reach.max_markings`), and kept for the life of the space; the
  /// reference stays valid as the space grows.
  const std::vector<Firing>& Firings(std::size_t i);

 private:
  std::size_t Intern(const Marking& m);
  bool Truncated(const Marking& m) const noexcept;
  /// Append tangible marking `m` with probability `p` to `f`'s targets,
  /// or to its dropped mass if `m` is truncated.
  void AddTarget(Firing& f, const Marking& m, double p);

  const PetriNet& net_;
  std::uint32_t truncate_tokens_;
  ReachabilityOptions reach_;
  std::unique_ptr<detail::VanishingResolver> resolver_;
  std::vector<TransitionId> timed_;  ///< timed transitions, ascending id
  std::vector<Marking> markings_;
  std::unordered_map<Marking, std::size_t, MarkingHash> index_;
  /// Per marking, empty until computed; a deque keeps references stable.
  std::deque<std::optional<std::vector<Firing>>> firings_;
};

/// Tangible reachability graph: states are tangible markings; edges carry
/// exponential rates with vanishing chains already folded in.  Only valid
/// for nets whose timed transitions are all exponential (checked).
struct TangibleEdge {
  std::size_t from;
  TransitionId via;    ///< the timed transition that initiated the move
  std::size_t to;
  double rate;         ///< exponential rate x vanishing-path probability
};

struct TangibleGraph {
  std::vector<Marking> markings;                 ///< tangible only
  std::vector<TangibleEdge> edges;
  std::vector<double> initial_distribution;      ///< over markings
};

TangibleGraph BuildTangibleGraph(const PetriNet& net,
                                 const ReachabilityOptions& opts = {});

}  // namespace wsn::petri
