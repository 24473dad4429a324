// Numerical steady-state solution of stochastic Petri nets.
//
// Exponential-only nets (GSPNs) are solved exactly: tangible reachability
// graph -> CTMC generator -> stationary linear solve (the classic
// Marsan/Balbo pipeline, hand-rolled on our linalg substrate).
//
// Nets with deterministic transitions (DSPNs, like the paper's CPU model)
// are additionally solvable by *stage expansion*: each deterministic delay
// d is replaced by an Erlang-k chain (k phases of rate k/d), embedded into
// the state as a per-transition phase counter.  Enabling memory falls out
// naturally: when the transition is disabled its phase resets to zero.
// As k grows the solution converges to the true DSPN steady state; the
// convergence is an explicit ablation (`wsnctl run ablation-stages`).
#pragma once

#include <cstddef>
#include <vector>

#include "markov/ctmc.hpp"
#include "petri/net.hpp"
#include "petri/reachability.hpp"

namespace wsn::petri {

struct SolverOptions {
  /// Erlang stage count used to expand each deterministic transition.
  /// Ignored for exponential-only nets.  Must be >= 1 when the net has
  /// deterministic transitions.
  std::size_t det_stages = 20;
  /// Switch from dense LU to sparse Gauss–Seidel above this state count.
  std::size_t dense_threshold = 512;
  /// State-space truncation for *open* (unbounded) nets, stage-expansion
  /// path only: firings whose target marking would push any place beyond
  /// this many tokens are dropped (the M/M/1/K-style loss truncation).
  /// 0 disables truncation; unbounded nets then hit the reachability
  /// guard instead of silently growing.
  std::uint32_t truncate_tokens = 0;
  ReachabilityOptions reach;
};

struct SpnSteadyState {
  /// Expected token count per place.
  std::vector<double> mean_tokens;
  /// P(place p is non-empty).
  std::vector<double> prob_nonempty;
  /// Mean completion rate per timed transition (firings per unit time).
  /// Immediate transitions report 0 (their firings happen in zero time;
  /// recover them from flow balance if needed).
  std::vector<double> throughput;
  /// Tangible markings in the underlying graph.
  std::size_t tangible_states = 0;
  /// CTMC states after stage expansion (== tangible_states for GSPNs).
  std::size_t expanded_states = 0;
};

/// Solve the net's steady state.  Throws ModelError for unsupported delay
/// distributions (anything other than exponential, deterministic, Erlang)
/// and for unbounded/oversized state spaces.
SpnSteadyState SolveSteadyState(const PetriNet& net,
                                const SolverOptions& opts = {});

/// Exact solver for exponential-only nets; exposed separately for tests.
SpnSteadyState SolveExponentialNet(const PetriNet& net,
                                   const SolverOptions& opts = {});

}  // namespace wsn::petri
