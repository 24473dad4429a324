// Extended Deterministic and Stochastic Petri Net (EDSPN) structure.
//
// Supported net class (the one TimeNET simulates and the paper's Fig. 3
// uses):
//   * places with non-negative integer markings;
//   * immediate transitions with firing priorities and race weights;
//   * timed transitions with arbitrary delay distributions (exponential,
//     deterministic, Erlang, ...) under race policy with enabling memory;
//   * input, output and inhibitor arcs with multiplicities.
//
// A PetriNet is a passive description; execution semantics live in
// simulation.hpp (token game) and ctmc_solver.hpp (numerical solution).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/distributions.hpp"

namespace wsn::petri {

using PlaceId = std::size_t;
using TransitionId = std::size_t;

/// Number of tokens per place, indexed by PlaceId.
using Marking = std::vector<std::uint32_t>;

enum class ArcKind { kInput, kOutput, kInhibitor };

struct Arc {
  ArcKind kind;
  PlaceId place;
  std::uint32_t multiplicity = 1;
};

enum class TransitionKind { kImmediate, kTimed };

struct Place {
  std::string name;
  std::uint32_t initial_tokens = 0;
};

struct Transition {
  std::string name;
  TransitionKind kind = TransitionKind::kTimed;

  // Immediate transitions.
  int priority = 0;      ///< higher fires first among enabled immediates
  double weight = 1.0;   ///< race weight among equal-priority immediates

  // Timed transitions.
  std::optional<util::Distribution> delay;

  std::vector<Arc> arcs;

  bool IsImmediate() const noexcept {
    return kind == TransitionKind::kImmediate;
  }
};

class PetriNet {
 public:
  /// Add a place; returns its id.
  PlaceId AddPlace(std::string name, std::uint32_t initial_tokens = 0);

  /// Add an immediate transition.
  TransitionId AddImmediateTransition(std::string name, int priority = 0,
                                      double weight = 1.0);

  /// Add a timed transition with the given delay distribution.
  TransitionId AddTimedTransition(std::string name, util::Distribution delay);

  /// Shorthand for the common exponential case.
  TransitionId AddExponentialTransition(std::string name, double rate);

  /// Shorthand for the deterministic case (paper's PDT / PUT transitions).
  TransitionId AddDeterministicTransition(std::string name, double delay);

  void AddInputArc(TransitionId t, PlaceId p, std::uint32_t multiplicity = 1);
  void AddOutputArc(TransitionId t, PlaceId p, std::uint32_t multiplicity = 1);
  void AddInhibitorArc(TransitionId t, PlaceId p,
                       std::uint32_t multiplicity = 1);

  std::size_t PlaceCount() const noexcept { return places_.size(); }
  std::size_t TransitionCount() const noexcept { return transitions_.size(); }

  const Place& GetPlace(PlaceId p) const;

  /// Inline: every enabling test goes through it.  Throws InvalidArgument
  /// when `t` is out of range.
  const Transition& GetTransition(TransitionId t) const {
    if (t >= transitions_.size()) ThrowTransitionOutOfRange();
    return transitions_[t];
  }

  /// Lookup by name; throws InvalidArgument when absent.
  PlaceId PlaceByName(const std::string& name) const;
  TransitionId TransitionByName(const std::string& name) const;

  Marking InitialMarking() const;

  /// True iff every timed transition is exponential (net is an SPN/GSPN
  /// and solvable exactly as a CTMC).
  bool AllTimedExponential() const noexcept;

  /// Structural checks: at least one place and one transition, every
  /// transition has at least one arc, no duplicate names.  Throws
  /// ModelError describing the first violation.
  void Validate() const;

  /// C = Post - Pre incidence matrix entries as dense rows
  /// (transitions x places), inhibitors excluded (they do not move tokens).
  std::vector<std::vector<long>> IncidenceMatrix() const;

 private:
  void CheckIds(TransitionId t, PlaceId p) const;
  [[noreturn, gnu::cold]] static void ThrowTransitionOutOfRange();

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
};

}  // namespace wsn::petri
