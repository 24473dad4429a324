#include "des/cpu_model.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace wsn::des {

using util::Require;

double CpuRunResult::FractionStandby() const noexcept {
  return observed_time > 0.0 ? time_standby / observed_time : 0.0;
}
double CpuRunResult::FractionPowerUp() const noexcept {
  return observed_time > 0.0 ? time_powerup / observed_time : 0.0;
}
double CpuRunResult::FractionIdle() const noexcept {
  return observed_time > 0.0 ? time_idle / observed_time : 0.0;
}
double CpuRunResult::FractionActive() const noexcept {
  return observed_time > 0.0 ? time_active / observed_time : 0.0;
}

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// The state machine for one replication, on two timers: the next arrival
/// and the CPU timer, whose meaning is the power state.  Equal times fire
/// in arming order, as in des::Simulator.  Both ties occur (a zero-delay
/// power-up and the next member of its batch; a trace arrival on the
/// instant of a power-down), and breaking them otherwise moves outputs.
class Engine {
 public:
  Engine(const CpuModelConfig& config, std::uint64_t seed,
         Workload* workload)
      : config_(config),
        rng_(seed),
        workload_(workload),
        service_(config.service_distribution.value_or(util::Distribution(
            util::Exponential{1.0 / config.mean_service_time}))) {
    Require(config.arrival_rate > 0.0, "arrival rate must be positive");
    Require(config.mean_service_time > 0.0,
            "mean service time must be positive");
    Require(config.power_down_threshold >= 0.0, "T must be >= 0");
    Require(config.power_up_delay >= 0.0, "D must be >= 0");
    Require(config.sim_time > 0.0, "sim time must be positive");
    Require(config.warmup_time >= 0.0 &&
                config.warmup_time < config.sim_time,
            "warmup must lie inside the horizon");
  }

  CpuRunResult Run() {
    const double horizon = config_.sim_time;
    CountJobs();
    ArmArrival();
    for (;;) {  // events due exactly at the horizon still fire
      const bool arrival =
          arrival_.time < cpu_.time ||
          (arrival_.time == cpu_.time && arrival_.seq < cpu_.seq);
      Timer& next = arrival ? arrival_ : cpu_;
      if (next.time > horizon) break;
      now_ = next.time;
      next.time = kNever;
      if (arrival) {
        OnArrival();
      } else {
        OnCpuTimer();
      }
    }
    AddOccupancy(state_since_, horizon, state_);
    result_.jobs_in_system.Finish(horizon);
    result_.observed_time = horizon - config_.warmup_time;
    return std::move(result_);
  }

 private:
  /// A pending event: its due time (kNever when disarmed) and its
  /// schedule number, which breaks ties between equal times.
  struct Timer {
    double time = kNever;
    std::uint64_t seq = 0;
  };

  void Arm(Timer& timer, double time) { timer = {time, next_seq_++}; }

  void AddOccupancy(double from, double to, PowerState s) {
    const double lo = std::max(from, config_.warmup_time);
    const double hi = std::min(to, config_.sim_time);
    if (hi <= lo) return;
    const double dt = hi - lo;
    switch (s) {
      case PowerState::kStandby: result_.time_standby += dt; break;
      case PowerState::kPowerUp: result_.time_powerup += dt; break;
      case PowerState::kIdle: result_.time_idle += dt; break;
      case PowerState::kActive: result_.time_active += dt; break;
    }
  }

  void EnterState(PowerState s) {
    AddOccupancy(state_since_, now_, state_);
    state_ = s;
    state_since_ = now_;
  }

  /// Jobs in system over [warm-up, horizon], like the state times.
  void CountJobs() {
    result_.jobs_in_system.Update(std::max(now_, config_.warmup_time),
                                  static_cast<double>(queue_.size()));
  }

  void ArmArrival() {
    const std::optional<double> t = workload_->NextArrival(now_, rng_);
    // An arrival past the horizon would never fire.
    if (!t.has_value() || *t > config_.sim_time) return;
    Require(*t >= now_, "cannot schedule into the past");
    Arm(arrival_, *t);
  }

  void OnArrival() {
    ++result_.jobs_arrived;
    queue_.push_back(now_);
    CountJobs();

    switch (state_) {
      case PowerState::kStandby:
        EnterState(PowerState::kPowerUp);
        Arm(cpu_, now_ + config_.power_up_delay);
        break;
      case PowerState::kIdle:
        StartService();  // the service timer replaces the power-down
        break;
      case PowerState::kPowerUp:
      case PowerState::kActive:
        break;  // job waits in the buffer
    }
    ArmArrival();
  }

  void OnCpuTimer() {
    switch (state_) {
      case PowerState::kPowerUp:  // done; the job that woke the CPU waits
        StartService();
        break;
      case PowerState::kActive: CompleteService(); break;
      case PowerState::kIdle: EnterState(PowerState::kStandby); break;
      case PowerState::kStandby: break;  // never armed
    }
  }

  void StartService() {
    EnterState(PowerState::kActive);
    Arm(cpu_, now_ + service_.Sample(rng_));
  }

  void CompleteService() {
    const double admitted = queue_.front();
    queue_.pop_front();
    ++result_.jobs_completed;
    if (now_ >= config_.warmup_time) result_.latency.Add(now_ - admitted);
    CountJobs();

    if (!queue_.empty()) {
      StartService();
    } else {
      EnterState(PowerState::kIdle);
      Arm(cpu_, now_ + config_.power_down_threshold);
    }
  }

  const CpuModelConfig& config_;
  util::Rng rng_;
  Workload* workload_;
  util::Distribution service_;

  double now_ = 0.0;
  Timer arrival_;
  Timer cpu_;
  std::uint64_t next_seq_ = 0;
  PowerState state_ = PowerState::kStandby;
  double state_since_ = 0.0;
  std::deque<double> queue_;  // arrival times of jobs in system (FCFS)
  CpuRunResult result_;
};

}  // namespace

CpuSimulation::CpuSimulation(CpuModelConfig config, std::uint64_t seed,
                             std::unique_ptr<Workload> workload)
    : config_(std::move(config)), seed_(seed), workload_(std::move(workload)) {
  if (!workload_) workload_ = MakePoissonWorkload(config_.arrival_rate);
}

CpuRunResult CpuSimulation::Run() {
  return Engine(config_, seed_, workload_.get()).Run();
}

CpuEnsembleResult RunCpuEnsemble(const CpuModelConfig& config,
                                 std::uint64_t seed,
                                 std::size_t replications,
                                 std::size_t threads) {
  Require(replications >= 1, "need at least one replication");
  std::vector<CpuRunResult> results(replications);
  util::Rng base(seed);
  std::vector<std::uint64_t> seeds(replications);
  for (std::uint64_t& s : seeds) s = base();  // successive draws
  util::ParallelFor(
      replications,
      [&](std::size_t r) {
        results[r] = CpuSimulation(config, seeds[r]).Run();
      },
      threads);

  CpuEnsembleResult agg;
  for (const CpuRunResult& r : results) {
    agg.standby.Add(r.FractionStandby());
    agg.powerup.Add(r.FractionPowerUp());
    agg.idle.Add(r.FractionIdle());
    agg.active.Add(r.FractionActive());
    if (r.latency.Count() > 0) agg.mean_latency.Add(r.latency.Mean());
    agg.mean_jobs.Add(r.jobs_in_system.Mean());
    agg.completed.Add(static_cast<double>(r.jobs_completed));
  }
  return agg;
}

}  // namespace wsn::des
