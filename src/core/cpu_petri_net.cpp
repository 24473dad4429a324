#include "core/cpu_petri_net.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wsn::core {

using petri::PetriNet;

PetriNet BuildCpuPetriNet(const CpuParams& params, CpuNetLayout* layout) {
  util::Require(params.arrival_rate > 0.0, "arrival rate must be positive");
  util::Require(params.service_rate > 0.0, "service rate must be positive");
  util::Require(params.power_down_threshold >= 0.0, "T must be >= 0");
  util::Require(params.power_up_delay >= 0.0, "D must be >= 0");

  PetriNet net;
  CpuNetLayout l;

  // Places (paper Fig. 3).  Initial marking: workload cycle armed, CPU in
  // standby, the idle/active state-machine token parked in Idle.
  l.p0 = net.AddPlace("P0", 1);
  l.p1 = net.AddPlace("P1", 0);
  l.cpu_buffer = net.AddPlace("CPU_Buffer", 0);
  l.p6 = net.AddPlace("P6", 0);
  l.standby = net.AddPlace("StandBy", 1);
  l.powerup = net.AddPlace("PowerUp", 0);
  l.cpu_on = net.AddPlace("CPU_ON", 0);
  l.idle = net.AddPlace("Idle", 1);
  l.active = net.AddPlace("Active", 0);

  // AR: open workload generator (Table 1: exponential, "Arrivals").
  l.ar = net.AddExponentialTransition("AR", params.arrival_rate);
  net.AddInputArc(l.ar, l.p0);
  net.AddOutputArc(l.ar, l.p1);

  // T1 (immediate, priority 4): fan a fresh job out to the workload
  // cycle, the wake-up path and the CPU buffer.
  l.t1 = net.AddImmediateTransition("T1", 4);
  net.AddInputArc(l.t1, l.p1);
  net.AddOutputArc(l.t1, l.p0);
  net.AddOutputArc(l.t1, l.p6);
  net.AddOutputArc(l.t1, l.cpu_buffer);

  // T6 (immediate, priority 3): a job found the CPU in standby; begin
  // powering up, keeping the P6 token for the power-up gate.
  l.t6 = net.AddImmediateTransition("T6", 3);
  net.AddInputArc(l.t6, l.p6);
  net.AddInputArc(l.t6, l.standby);
  net.AddOutputArc(l.t6, l.powerup);
  net.AddOutputArc(l.t6, l.p6);

  // PUT: deterministic Power Up Delay (Table 1: "PUD").
  if (params.power_up_delay > 0.0) {
    l.put = net.AddDeterministicTransition("PUT", params.power_up_delay);
  } else {
    // D == 0: power-up is instantaneous; lowest priority keeps Table 1's
    // immediate ordering intact.
    l.put = net.AddImmediateTransition("PUT", 0);
  }
  net.AddInputArc(l.put, l.powerup);
  net.AddInputArc(l.put, l.p6);
  net.AddOutputArc(l.put, l.cpu_on);

  // T5 (immediate, priority 2): CPU already on; drain the wake-up token
  // so P6 never accumulates unboundedly (paper step 7).
  l.t5 = net.AddImmediateTransition("T5", 2);
  net.AddInputArc(l.t5, l.p6);
  net.AddInputArc(l.t5, l.cpu_on);
  net.AddOutputArc(l.t5, l.cpu_on);

  // T2 (immediate, priority 1): admit a buffered job into service.
  l.t2 = net.AddImmediateTransition("T2", 1);
  net.AddInputArc(l.t2, l.cpu_buffer);
  net.AddInputArc(l.t2, l.idle);
  net.AddInputArc(l.t2, l.cpu_on);
  net.AddOutputArc(l.t2, l.active);
  net.AddOutputArc(l.t2, l.cpu_on);

  // SR: exponential service (Table 1: "ServiceRate").
  l.sr = net.AddExponentialTransition("SR", params.service_rate);
  net.AddInputArc(l.sr, l.active);
  net.AddOutputArc(l.sr, l.idle);

  // PDT: deterministic Power Down Threshold, inhibited while a job is in
  // service or buffered (the paper's small-circle "inverse logic" arcs).
  if (params.power_down_threshold > 0.0) {
    l.pdt = net.AddDeterministicTransition("PDT",
                                           params.power_down_threshold);
  } else {
    l.pdt = net.AddImmediateTransition("PDT", 0);
  }
  net.AddInputArc(l.pdt, l.cpu_on);
  net.AddOutputArc(l.pdt, l.standby);
  net.AddInhibitorArc(l.pdt, l.active);
  net.AddInhibitorArc(l.pdt, l.cpu_buffer);

  net.Validate();
  if (layout != nullptr) *layout = l;
  return net;
}

std::uint32_t CpuNetTruncateTokens(const CpuParams& params) {
  const double ld = params.arrival_rate * params.power_up_delay;
  return static_cast<std::uint32_t>(std::clamp(
      std::ceil(ld + 8.0 * std::sqrt(ld + 1.0) + 30.0 / (1.0 - params.Rho())),
      40.0, 2000.0));
}

}  // namespace wsn::core
