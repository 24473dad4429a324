// Exact steady-state solution of Deterministic and Stochastic Petri Nets
// (DSPNs) by the embedded-Markov-chain method (Ajmone Marsan & Chiola).
//
// Preconditions (checked):
//   * timed transitions are exponential or deterministic;
//   * at most one deterministic transition is enabled in any reachable
//     tangible marking (the classic DSPN solvability condition — the
//     paper's Fig. 3 CPU net satisfies it: PUT needs a PowerUp token,
//     PDT needs a CPU_ON token, and those places are mutually exclusive);
//   * the tangible state space is finite (use `truncate_tokens` for open
//     nets such as the CPU model's unbounded job buffer).
//
// Method.  Tangible markings form the embedded chain's states.  From a
// marking with only exponential transitions enabled, the process behaves
// as a plain CTMC step.  From a marking enabling deterministic d (delay
// tau), the exponential transitions concurrently enabled form a
// *subordinated CTMC* which we analyse transiently over the window
// [0, tau] via uniformization, accumulating
//   * the state distribution at tau  -> where d fires from, and
//   * the expected sojourn time per marking over the window, and
//   * the absorption probabilities into markings that disable d
//     (enabling memory: d's timer is cancelled and the embedded chain
//     resumes there immediately).
// The embedded DTMC's stationary vector, weighted by the expected sojourn
// times (conversion factors), yields exact time-stationary probabilities.
// Every step reads its successor distributions from one TangibleSpace, so
// each timed transition is fired (and its vanishing chain resolved) once
// per tangible marking, however many windows that marking is live in.
//
// Unlike the Erlang stage expansion in ctmc_solver.hpp this introduces no
// distribution-shape approximation; accuracy is limited only by the
// uniformization tolerance (configurable, default 1e-12).
#pragma once

#include <cstddef>
#include <cstdint>

#include "petri/ctmc_solver.hpp"
#include "petri/net.hpp"
#include "petri/reachability.hpp"

namespace wsn::petri {

struct DspnOptions {
  /// Truncation for open nets, as in SolverOptions (0 = none).
  std::uint32_t truncate_tokens = 0;
  /// Relative truncation error of the uniformization series.
  double uniformization_epsilon = 1e-12;
  ReachabilityOptions reach;
};

/// Exact DSPN steady state; same result shape as the approximate solver.
/// Throws ModelError when the net violates the preconditions above.
SpnSteadyState SolveDspnExact(const PetriNet& net,
                              const DspnOptions& opts = {});

}  // namespace wsn::petri
