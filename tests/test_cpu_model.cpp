// CPU power-state simulator: exact timelines under deterministic traces,
// M/M/1 limits, share normalization, warm-up handling and ensembles.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "des/bursty_workload.hpp"
#include "des/cpu_model.hpp"
#include "markov/mm1.hpp"
#include "util/error.hpp"

namespace wsn::des {
namespace {

// Replays a fixed, sorted list of arrival instants, so a test can check
// the power-state machine at exact times.
class TraceWorkload final : public Workload {
 public:
  explicit TraceWorkload(std::vector<double> arrival_times)
      : times_(std::move(arrival_times)) {}

  std::optional<double> NextArrival(double, util::Rng&) override {
    if (next_ >= times_.size()) return std::nullopt;
    return times_[next_++];
  }
  std::string Describe() const override { return "trace"; }

 private:
  std::vector<double> times_;
  std::size_t next_ = 0;
};

TEST(CpuModel, SharesSumToOne) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.2;
  cfg.power_up_delay = 0.3;
  cfg.sim_time = 500.0;
  CpuSimulation sim(cfg, 7);
  const CpuRunResult r = sim.Run();
  EXPECT_NEAR(r.FractionStandby() + r.FractionPowerUp() + r.FractionIdle() +
                  r.FractionActive(),
              1.0, 1e-9);
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(CpuModel, DeterministicTraceExactTimeline) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;  // unused with a trace workload
  cfg.mean_service_time = 0.5;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.5});
  cfg.power_down_threshold = 1.0;
  cfg.power_up_delay = 0.25;
  cfg.sim_time = 10.0;

  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{1.0, 5.0}));
  const CpuRunResult r = sim.Run();

  // standby [0,1) u [2.75,5) u [6.75,10]; powerup [1,1.25) u [5,5.25);
  // active [1.25,1.75) u [5.25,5.75); idle [1.75,2.75) u [5.75,6.75).
  EXPECT_NEAR(r.time_standby, 6.5, 1e-9);
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 1.0, 1e-9);
  EXPECT_NEAR(r.time_idle, 2.0, 1e-9);
  EXPECT_EQ(r.jobs_completed, 2u);
  EXPECT_NEAR(r.latency.Mean(), 0.75, 1e-9);
}

TEST(CpuModel, ArrivalDuringPowerUpQueues) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 2.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 4.0;
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{1.0, 1.1}));
  const CpuRunResult r = sim.Run();
  EXPECT_EQ(r.jobs_completed, 2u);
  // Job 1 done at 1.6 (waited through power-up), job 2 at 1.7.
  EXPECT_NEAR(r.latency.Mean(), 0.6, 1e-9);
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 0.2, 1e-9);
}

TEST(CpuModel, ArrivalDuringIdleCancelsPowerDown) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 1.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 3.0;
  // Second arrival lands inside the idle window of the first job, so the
  // CPU never powers down between them.
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{0.0, 0.7}));
  const CpuRunResult r = sim.Run();
  // Timeline: powerup [0,.5), active [.5,.6), idle [.6,.7),
  // active [.7,.8), idle [.8,1.8), standby [1.8,3).
  EXPECT_NEAR(r.time_powerup, 0.5, 1e-9);
  EXPECT_NEAR(r.time_active, 0.2, 1e-9);
  EXPECT_NEAR(r.time_idle, 1.1, 1e-9);
  EXPECT_NEAR(r.time_standby, 1.2, 1e-9);
}

// An arrival due at the instant the power-down timer expires.  Events
// due at one instant fire in the order they were scheduled: the arrival
// at 2 s was scheduled at 1 s, the power-down at 1.75 s, so the arrival
// finds the CPU idle and is served at once.  Firing the power-down first
// would read standby 2.0 s and power-up 1.0 s.
TEST(CpuModel, ArrivalTiedWithPowerDownFiresFirst) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.25});
  cfg.power_down_threshold = 0.25;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 4.0;
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{1.0, 2.0}));
  const CpuRunResult r = sim.Run();
  // standby [0,1) u [2.5,4]; powerup [1,1.5); active [1.5,1.75) u
  // [2,2.25); idle [1.75,2) u [2.25,2.5).
  EXPECT_DOUBLE_EQ(r.time_standby, 2.5);
  EXPECT_DOUBLE_EQ(r.time_powerup, 0.5);
  EXPECT_DOUBLE_EQ(r.time_idle, 0.5);
  EXPECT_DOUBLE_EQ(r.time_active, 0.5);
  EXPECT_EQ(r.jobs_completed, 2u);
}

TEST(CpuModel, HugeThresholdBehavesLikeMm1) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 1e9;  // never powers down after first wake
  cfg.power_up_delay = 0.001;
  cfg.sim_time = 20000.0;
  const CpuEnsembleResult agg = RunCpuEnsemble(cfg, 11, 8);

  const markov::Mm1 mm1{1.0, 10.0};
  EXPECT_NEAR(agg.active.Mean(), mm1.Utilization(), 0.01);
  EXPECT_NEAR(agg.idle.Mean(), 1.0 - mm1.Utilization(), 0.02);
  EXPECT_LT(agg.standby.Mean(), 1e-3);
  EXPECT_NEAR(agg.mean_latency.Mean(), mm1.MeanLatency(), 0.02);
}

TEST(CpuModel, ZeroDelaysMatchMm1WithSleep) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = 0.0;
  cfg.power_up_delay = 0.0;
  cfg.sim_time = 20000.0;
  const CpuEnsembleResult agg = RunCpuEnsemble(cfg, 13, 8);
  EXPECT_NEAR(agg.active.Mean(), 0.1, 0.01);
  EXPECT_NEAR(agg.standby.Mean(), 0.9, 0.01);
  EXPECT_LT(agg.idle.Mean(), 1e-9);
  EXPECT_LT(agg.powerup.Mean(), 1e-9);
  // D = 0 makes the queue an exact M/M/1.
  const markov::Mm1 mm1{1.0, 10.0};
  EXPECT_NEAR(agg.mean_latency.Mean(), mm1.MeanLatency(), 0.02);
}

TEST(CpuModel, WarmupExcludedFromStatistics) {
  CpuModelConfig cfg;
  cfg.service_distribution = util::Distribution(util::Deterministic{0.1});
  cfg.power_down_threshold = 10.0;
  cfg.power_up_delay = 0.5;
  cfg.sim_time = 3.0;
  cfg.warmup_time = 2.0;
  // Single arrival at t = 0: all powerup/active action is inside warmup.
  CpuSimulation sim(cfg, 1,
                    std::make_unique<TraceWorkload>(
                        std::vector<double>{0.0}));
  const CpuRunResult r = sim.Run();
  EXPECT_NEAR(r.observed_time, 1.0, 1e-12);
  EXPECT_NEAR(r.time_idle, 1.0, 1e-9);  // only idle remains after warmup
  EXPECT_NEAR(r.time_powerup, 0.0, 1e-9);
  EXPECT_EQ(r.latency.Count(), 0u);  // completion happened during warmup
  // Jobs in system share the window: the job left at 0.6 s.
  EXPECT_EQ(r.jobs_in_system.ElapsedTime(), cfg.sim_time - cfg.warmup_time);
  EXPECT_EQ(r.jobs_in_system.Mean(), 0.0);
}

TEST(CpuModel, JobsConserved) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 2.0;
  cfg.mean_service_time = 0.2;
  cfg.power_down_threshold = 0.1;
  cfg.power_up_delay = 0.05;
  cfg.sim_time = 1000.0;
  CpuSimulation sim(cfg, 99);
  const CpuRunResult r = sim.Run();
  // Completions can lag arrivals only by the residual queue.
  EXPECT_LE(r.jobs_completed, r.jobs_arrived);
  EXPECT_GE(r.jobs_completed + 50, r.jobs_arrived);
  // Roughly rate * horizon arrivals.
  EXPECT_NEAR(static_cast<double>(r.jobs_arrived), 2000.0, 5.0 * 45.0);
}

TEST(CpuModel, EnsembleCiShrinksWithReplications) {
  CpuModelConfig cfg;
  cfg.sim_time = 200.0;
  const auto few = RunCpuEnsemble(cfg, 5, 4);
  const auto many = RunCpuEnsemble(cfg, 5, 32);
  EXPECT_GT(few.idle.StdError(), many.idle.StdError());
}

TEST(CpuModel, DeterministicGivenSeed) {
  CpuModelConfig cfg;
  cfg.sim_time = 300.0;
  const CpuRunResult a = CpuSimulation(cfg, 1234).Run();
  const CpuRunResult b = CpuSimulation(cfg, 1234).Run();
  EXPECT_DOUBLE_EQ(a.time_idle, b.time_idle);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
}

TEST(CpuModel, RejectsBadConfig) {
  CpuModelConfig cfg;
  cfg.sim_time = -1.0;
  EXPECT_THROW(CpuSimulation(cfg, 1).Run(), util::InvalidArgument);
  CpuModelConfig cfg2;
  cfg2.warmup_time = cfg2.sim_time + 1.0;
  EXPECT_THROW(CpuSimulation(cfg2, 1).Run(), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Bit-exact pins.  Each expectation below was captured from the engine
// while it ran on the general event kernel (des::Simulator), except the
// jobs-in-system words of LongDelayWithWarmup, captured again when jobs in
// system stopped counting the warm-up; any change to the event order, to
// the RNG draw order or to the order in which occupancy and statistics
// accumulate moves these bits.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void AppendStats(const util::RunningStats& s, std::vector<std::uint64_t>& out) {
  out.insert(out.end(), {s.Count(), Bits(s.Mean()), Bits(s.Variance()),
                         Bits(s.Min()), Bits(s.Max())});
}

// Every field of a replication, doubles as bit patterns.
std::vector<std::uint64_t> Fields(const CpuRunResult& r) {
  std::vector<std::uint64_t> out = {
      Bits(r.time_standby), Bits(r.time_powerup), Bits(r.time_idle),
      Bits(r.time_active),  Bits(r.observed_time), r.jobs_arrived,
      r.jobs_completed};
  AppendStats(r.latency, out);
  out.insert(out.end(), {Bits(r.jobs_in_system.Mean()),
                         Bits(r.jobs_in_system.ElapsedTime()),
                         Bits(r.jobs_in_system.CurrentValue())});
  return out;
}

std::vector<std::uint64_t> Fields(const CpuEnsembleResult& e) {
  std::vector<std::uint64_t> out;
  for (const util::RunningStats* s :
       {&e.standby, &e.powerup, &e.idle, &e.active, &e.mean_latency,
        &e.mean_jobs, &e.completed}) {
    AppendStats(*s, out);
  }
  return out;
}

// Paper rates: lambda = 1 job/s, mu = 10 jobs/s, over 500 s.
CpuModelConfig PinConfig(double power_down_threshold, double power_up_delay,
                         double warmup_time) {
  CpuModelConfig cfg;
  cfg.arrival_rate = 1.0;
  cfg.mean_service_time = 0.1;
  cfg.power_down_threshold = power_down_threshold;
  cfg.power_up_delay = power_up_delay;
  cfg.sim_time = 500.0;
  cfg.warmup_time = warmup_time;
  return cfg;
}

TEST(CpuSimulationPin, ShortThresholdAndDelay) {
  const CpuModelConfig cfg = PinConfig(0.1, 0.3, 0.0);
  EXPECT_EQ(Fields(CpuSimulation(cfg, 2008).Run()),
            (std::vector<std::uint64_t>{
                0x4074ab74d77c04acULL, 0x4056599999999a46ULL,
                0x403f47e9dd83a768ULL, 0x40484d31222ad25dULL,
                0x407f400000000000ULL, 465, 465, 465,
                0x3fd7563a55ce0e1aULL, 0x3f961cf940b80a36ULL,
                0x3f6a783567f30000ULL, 0x3fefb3c3a94c9600ULL,
                0x3fd5b4082bf5642aULL, 0x407f400000000000ULL,
                0x0000000000000000ULL}));
  EXPECT_EQ(Fields(CpuSimulation(cfg, 7).Run()),
            (std::vector<std::uint64_t>{
                0x4074290ddaee030fULL, 0x40578ccccccccd80ULL,
                0x4040bf03a188242fULL, 0x4048def3ed6e2855ULL,
                0x407f400000000000ULL, 502, 501, 501,
                0x3fd67da85ca29cc5ULL, 0x3f99fe5c407d4ae7ULL,
                0x3f4e05d3a45c0000ULL, 0x3ff0bca9fc75ba00ULL,
                0x3fd69506faf5ed0fULL, 0x407f400000000000ULL,
                0x3ff0000000000000ULL}));
}

TEST(CpuSimulationPin, LongDelayWithWarmup) {
  const CpuModelConfig cfg = PinConfig(0.5, 10.0, 100.0);
  EXPECT_EQ(Fields(CpuSimulation(cfg, 2008).Run()),
            (std::vector<std::uint64_t>{
                0x4038e2195ec8e880ULL, 0x4073a8b8f31deea1ULL,
                0x4034e6812ab53bbcULL, 0x4043d5eb225178d8ULL,
                0x4079000000000000ULL, 467, 458, 386,
                0x4014fab3eb889334ULL, 0x40257e16741251c5ULL,
                0x3f885485d8ff0000ULL, 0x4024b84d16b12540ULL,
                0x4013dd49c8ec3a96ULL, 0x4079000000000000ULL,
                0x4022000000000000ULL}));
  EXPECT_EQ(Fields(CpuSimulation(cfg, 7).Run()),
            (std::vector<std::uint64_t>{
                0x404028eb983cd3d4ULL, 0x40736a39c8ad1fe6ULL,
                0x40354f2cb3b18b60ULL, 0x4041ddafc881674aULL,
                0x4079000000000000ULL, 475, 475, 386,
                0x40154529e37671e9ULL, 0x4027f25e975aff31ULL,
                0x3f3d903e76d00000ULL, 0x4024659d84e863e0ULL,
                0x401414721542503aULL, 0x4079000000000000ULL,
                0x0000000000000000ULL}));
}

// A batch's members arrive at one instant.  With D = 0 the power-up the
// first member starts is due at that instant too; it was scheduled before
// the next member, so it fires first and the service draw precedes the
// next batch's interarrival draw.  Firing the member first moves every
// share.
TEST(CpuSimulationPin, ZeroDelayPowerUpBeforeCoArrival) {
  CpuModelConfig cfg;
  cfg.power_down_threshold = 0.1;
  cfg.power_up_delay = 0.0;
  cfg.sim_time = 200.0;
  CpuSimulation sim(cfg, 7,
                    std::make_unique<BatchRenewalWorkload>(
                        util::Distribution(util::Exponential{0.5}), 4));
  EXPECT_EQ(Fields(sim.Run()),
            (std::vector<std::uint64_t>{
                0x4063b98f063b6c98ULL, 0x0000000000000000ULL,
                0x401d2d2a84526d89ULL, 0x4041741e9687ffedULL,
                0x4069000000000000ULL, 356, 356, 356,
                0x3fd23a5063952d56ULL, 0x3fa6df11a540d7f7ULL,
                0x3f4e05d3a45c0000ULL, 0x3feec0c8461caf00ULL,
                0x3fe03904fc77f7b6ULL, 0x4069000000000000ULL,
                0x0000000000000000ULL}));
}

TEST(CpuSimulationPin, EnsembleIndependentOfThreadCount) {
  CpuModelConfig cfg = PinConfig(0.1, 0.3, 0.0);
  cfg.sim_time = 200.0;
  const std::vector<std::uint64_t> want = {
      4, 0x3fe5385b6edd91e1ULL, 0x3f125f676d594c6fULL,
      0x3fe4f83b6998ad77ULL, 0x3fe58dffa8362d64ULL,
      4, 0x3fc6f131060ac5aaULL, 0x3f0da86fd7f53cf5ULL,
      0x3fc5e170205c3cd8ULL, 0x3fc83126e978d543ULL,
      4, 0x3fb01c17ae522483ULL, 0x3eeb688b3c631755ULL,
      0x3faf2dd9b345593aULL, 0x3fb17ecb67a3a82cULL,
      4, 0x3fb83eaaceabc125ULL, 0x3f0ab0c94622c0d4ULL,
      0x3fb65d0b78a54194ULL, 0x3fbab977c1bea746ULL,
      4, 0x3fd6cf1d0b15c7c8ULL, 0x3f2dca5241798814ULL,
      0x3fd59d45d40a071eULL, 0x3fd7d05b006618a8ULL,
      4, 0x3fd542c5337c5811ULL, 0x3f21f9fbdf601505ULL,
      0x3fd4889befd6538dULL, 0x3fd64fa5eadffa4aULL,
      4, 0x4067400000000000ULL, 0x4043000000000003ULL,
      0x4066200000000000ULL, 0x4067c00000000000ULL};
  EXPECT_EQ(Fields(RunCpuEnsemble(cfg, 2008, 4, 1)), want);
  EXPECT_EQ(Fields(RunCpuEnsemble(cfg, 2008, 4, 4)), want);
}

}  // namespace
}  // namespace wsn::des
