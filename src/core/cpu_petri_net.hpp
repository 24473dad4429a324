// Programmatic construction of the paper's Fig. 3 EDSPN (with Table 1's
// transition parameters) for a given CpuParams.
//
// Places: P0 (workload cycle), P1, CPU_Buffer, P6, StandBy, PowerUp,
// CPU_ON, Idle, Active.  Initial marking: P0=1, StandBy=1, Idle=1.
//
// Transitions (type, priority per Table 1):
//   AR  exp(lambda)        P0 -> P1
//   T1  immediate pri 4    P1 -> P0 + P6 + CPU_Buffer
//   T6  immediate pri 3    P6 + StandBy -> PowerUp + P6
//   PUT det(D)             PowerUp + P6 -> CPU_ON
//   T5  immediate pri 2    P6 + CPU_ON -> CPU_ON
//   T2  immediate pri 1    CPU_Buffer + Idle + CPU_ON -> Active + CPU_ON
//   SR  exp(mu)            Active -> Idle
//   PDT det(T)             CPU_ON -> StandBy, inhibited by Active and
//                          CPU_Buffer (the paper's "inverse logic" arcs)
//
// State-share mapping: standby = E[#StandBy], powerup = E[#PowerUp],
// active = E[#Active], idle = E[#CPU_ON] - E[#Active] (Active implies
// CPU_ON, and StandBy + PowerUp + CPU_ON is a P-invariant of value 1).
#pragma once

#include <cstdint>

#include "core/params.hpp"
#include "petri/net.hpp"

namespace wsn::core {

/// Place/transition ids of the constructed net, so callers can read
/// statistics without name lookups.
struct CpuNetLayout {
  petri::PlaceId p0, p1, cpu_buffer, p6, standby, powerup, cpu_on, idle,
      active;
  petri::TransitionId ar, t1, t6, put, t5, t2, sr, pdt;
};

/// Build the Fig. 3 net.  When `params.power_down_threshold` or
/// `params.power_up_delay` is zero the corresponding transition becomes
/// immediate with a priority *below* every Table 1 immediate transition,
/// preserving firing order.
petri::PetriNet BuildCpuPetriNet(const CpuParams& params,
                                 CpuNetLayout* layout = nullptr);

/// Token cap at which the numerical solvers truncate the open Fig. 3 net
/// (its job buffer is unbounded): generous relative to the power-up
/// pile-up (lambda * D) and to the queue's busy periods, so the truncated
/// probability mass stays far below solver tolerance.  Clamped to
/// [40, 2000].
std::uint32_t CpuNetTruncateTokens(const CpuParams& params);

}  // namespace wsn::core
