// Event-driven simulation of the paper's CPU power model — the reference
// ("software simulation") column of the paper's comparison.
//
// The CPU serves jobs FCFS.  Power-state logic:
//   * ACTIVE while a job is in service;
//   * IDLE when on with an empty system; after a deterministic Power Down
//     Threshold T of *continuous* idleness it drops to STANDBY;
//   * an arrival during STANDBY starts a deterministic Power Up Delay D
//     (POWERUP); service begins only after power-up completes;
//   * arrivals during POWERUP/ACTIVE simply queue.
//
// Engine: the model never has more than two events pending, the next
// arrival and one CPU timer whose meaning is the power state (power-up
// done, service done or power-down; none in STANDBY).  A replication
// keeps these two timers itself rather than running on the general event
// kernel (des::Simulator), and fires them in the kernel's order: earlier
// time first, equal times in the order they were armed.  Events due
// exactly at the horizon fire.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "des/workload.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace wsn::des {

/// The four power states of the modeled CPU.
enum class PowerState { kStandby, kPowerUp, kIdle, kActive };

/// Model parameters (paper Tables 2 and 4/5 sweeps).
struct CpuModelConfig {
  double arrival_rate = 1.0;        ///< lambda, jobs/s (open workload)
  double mean_service_time = 0.1;   ///< 1/mu, seconds
  double power_down_threshold = 0.1;  ///< T, seconds
  double power_up_delay = 0.001;      ///< D, seconds

  double sim_time = 1000.0;  ///< horizon per replication (paper Table 2)
  double warmup_time = 0.0;  ///< statistics discarded before this time

  /// Service-time distribution; exponential(mean_service_time) when unset.
  std::optional<util::Distribution> service_distribution;
};

/// Per-replication outputs.
struct CpuRunResult {
  double time_standby = 0.0;
  double time_powerup = 0.0;
  double time_idle = 0.0;
  double time_active = 0.0;
  double observed_time = 0.0;  ///< horizon minus warmup

  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_completed = 0;
  util::RunningStats latency;        ///< per-job sojourn times
  util::TimeWeightedStats jobs_in_system;  ///< over [warmup, horizon]

  double FractionStandby() const noexcept;
  double FractionPowerUp() const noexcept;
  double FractionIdle() const noexcept;
  double FractionActive() const noexcept;
};

/// One replication of the CPU simulation.
class CpuSimulation {
 public:
  /// `workload` may be null => Poisson(config.arrival_rate).
  CpuSimulation(CpuModelConfig config, std::uint64_t seed,
                std::unique_ptr<Workload> workload = nullptr);

  /// Run to the horizon and return the collected statistics.
  CpuRunResult Run();

 private:
  CpuModelConfig config_;
  std::uint64_t seed_;
  std::unique_ptr<Workload> workload_;
};

/// Run `replications` independent replications, optionally in parallel,
/// and aggregate.  Replication r is seeded with the r-th successive draw
/// of one generator seeded with `seed`.
struct CpuEnsembleResult {
  util::RunningStats standby;
  util::RunningStats powerup;
  util::RunningStats idle;
  util::RunningStats active;
  util::RunningStats mean_latency;
  util::RunningStats mean_jobs;
  util::RunningStats completed;
};

CpuEnsembleResult RunCpuEnsemble(const CpuModelConfig& config,
                                 std::uint64_t seed,
                                 std::size_t replications,
                                 std::size_t threads = 0);

}  // namespace wsn::des
