#include "des/cpu_model.hpp"

#include <algorithm>
#include <deque>

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

/// The actual event-driven state machine for one replication.
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
    EnterState(PowerState::kStandby);
    result_.jobs_in_system.Update(0.0, 0.0);
    ScheduleNextArrival();
    sim_.RunUntil(config_.sim_time);
    CloseOccupancy(config_.sim_time);
    result_.jobs_in_system.Finish(config_.sim_time);
    result_.observed_time = config_.sim_time - config_.warmup_time;
    return std::move(result_);
  }

 private:
  // --- occupancy accounting -------------------------------------------
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
    const double now = sim_.Now();
    if (has_state_) AddOccupancy(state_since_, now, state_);
    state_ = s;
    state_since_ = now;
    has_state_ = true;
  }

  void CloseOccupancy(double horizon) {
    if (has_state_) AddOccupancy(state_since_, horizon, state_);
    state_since_ = horizon;
  }

  // --- workload --------------------------------------------------------
  void ScheduleNextArrival() {
    const auto t = workload_->NextArrival(sim_.Now(), rng_);
    if (!t.has_value()) return;
    if (*t > config_.sim_time) {
      // Still schedule it so RunUntil stops at the horizon naturally;
      // the kernel never fires events beyond the horizon.
      return;
    }
    sim_.ScheduleAt(*t, [this] { OnArrival(); });
  }

  // --- event handlers ---------------------------------------------------
  void OnArrival() {
    const double now = sim_.Now();
    ++result_.jobs_arrived;
    queue_.push_back(now);
    result_.jobs_in_system.Update(now, static_cast<double>(queue_.size()));

    switch (state_) {
      case PowerState::kStandby:
        EnterState(PowerState::kPowerUp);
        sim_.ScheduleAfter(config_.power_up_delay,
                           [this] { OnPowerUpComplete(); });
        break;
      case PowerState::kIdle:
        if (powerdown_event_.has_value()) {
          sim_.Cancel(*powerdown_event_);
          powerdown_event_.reset();
        }
        StartService();
        break;
      case PowerState::kPowerUp:
      case PowerState::kActive:
        break;  // job waits in the buffer
    }
    ScheduleNextArrival();
  }

  void OnPowerUpComplete() {
    // Jobs only accumulate during power-up, so the buffer is non-empty.
    if (queue_.empty()) {
      BecomeIdle();
      return;
    }
    StartService();
  }

  void StartService() {
    EnterState(PowerState::kActive);
    const double duration = service_.Sample(rng_);
    sim_.ScheduleAfter(duration, [this] { OnServiceComplete(); });
  }

  void OnServiceComplete() {
    const double now = sim_.Now();
    const double admitted = queue_.front();
    queue_.pop_front();
    ++result_.jobs_completed;
    if (now >= config_.warmup_time) result_.latency.Add(now - admitted);
    result_.jobs_in_system.Update(now, static_cast<double>(queue_.size()));

    if (!queue_.empty()) {
      StartService();
    } else {
      BecomeIdle();
    }
  }

  void BecomeIdle() {
    EnterState(PowerState::kIdle);
    powerdown_event_ = sim_.ScheduleAfter(config_.power_down_threshold,
                                          [this] { OnPowerDown(); });
  }

  void OnPowerDown() {
    powerdown_event_.reset();
    EnterState(PowerState::kStandby);
  }

  const CpuModelConfig& config_;
  util::Rng rng_;
  Workload* workload_;
  Simulator sim_;
  util::Distribution service_;

  PowerState state_ = PowerState::kStandby;
  double state_since_ = 0.0;
  bool has_state_ = false;
  std::deque<double> queue_;  // arrival times of jobs in system (FCFS)
  std::optional<EventId> powerdown_event_;
  CpuRunResult result_;
};

}  // namespace

CpuSimulation::CpuSimulation(CpuModelConfig config, std::uint64_t seed,
                             std::unique_ptr<Workload> workload)
    : config_(std::move(config)), seed_(seed), workload_(std::move(workload)) {
  if (!workload_) {
    workload_ = MakePoissonWorkload(config_.arrival_rate);
  }
}

CpuRunResult CpuSimulation::Run() {
  Engine engine(config_, seed_, workload_.get());
  return engine.Run();
}

CpuEnsembleResult RunCpuEnsemble(const CpuModelConfig& config,
                                 std::uint64_t seed,
                                 std::size_t replications,
                                 std::size_t threads) {
  Require(replications >= 1, "need at least one replication");
  std::vector<CpuRunResult> results(replications);
  util::Rng base(seed);
  std::vector<std::uint64_t> seeds(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    // Derive per-replication seeds from independent draws of the base
    // generator; each replication then owns its own Xoshiro instance.
    seeds[r] = base();
  }
  util::ParallelFor(
      replications,
      [&](std::size_t r) {
        CpuSimulation sim(config, seeds[r]);
        results[r] = sim.Run();
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
