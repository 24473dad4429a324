// Engineering microbenchmarks (google-benchmark): RNG throughput, the DES
// kernel's event set and CPU model, SPN token game, reachability + solver
// and the closed-form evaluators.  These back the performance claims in the
// README and catch regressions in the hot paths.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/cpu_petri_net.hpp"
#include "core/models.hpp"
#include "des/cpu_model.hpp"
#include "des/simulator.hpp"
#include "linalg/iterative.hpp"
#include "linalg/lu.hpp"
#include "markov/stages.hpp"
#include "markov/supplementary.hpp"
#include "petri/ctmc_solver.hpp"
#include "petri/dspn_solver.hpp"
#include "petri/simulation.hpp"
#include "petri/standard_nets.hpp"
#include "util/rng.hpp"

namespace {

using namespace wsn;

void BM_RngXoshiro(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
}
BENCHMARK(BM_RngXoshiro);

void BM_RngExponential(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SampleExponential(rng, 1.0));
  }
}
BENCHMARK(BM_RngExponential);

// Classic hold model over the kernel's event set: `pending` events stay
// scheduled; each step fires the earliest, which reschedules itself.
struct HoldEvent {
  des::Simulator* sim;
  util::Rng* rng;
  void operator()() const {
    sim->ScheduleAfter(util::UniformDouble(*rng) * 10.0, *this);
  }
};

void BM_SimulatorHoldModel(benchmark::State& state) {
  des::Simulator sim;
  util::Rng rng(7);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    sim.ScheduleAt(util::UniformDouble(rng) * 10.0, HoldEvent{&sim, &rng});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorHoldModel)->Arg(16)->Arg(1024)->Arg(65536);

// The hold model plus netsim's death-timer pattern: every node also owns
// a far-future timer that each of its firings cancels and reschedules,
// so half the pending events are timers that never fire.
struct DrainEvent {
  des::Simulator* sim;
  util::Rng* rng;
  std::vector<des::EventId>* death;
  std::size_t node;
  void operator()() const {
    sim->Cancel((*death)[node]);
    (*death)[node] =
        sim->ScheduleAfter(1.0e6 + util::UniformDouble(*rng), [] {});
    sim->ScheduleAfter(util::UniformDouble(*rng) * 10.0, *this);
  }
};

void BM_SimulatorCancelReschedule(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  des::Simulator sim;
  util::Rng rng(7);
  std::vector<des::EventId> death(nodes, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    sim.ScheduleAt(util::UniformDouble(rng) * 10.0,
                   DrainEvent{&sim, &rng, &death, i});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorCancelReschedule)->Arg(16)->Arg(1024)->Arg(65536);

void BM_DesCpuModelSecondOfSimulation(benchmark::State& state) {
  des::CpuModelConfig cfg;
  cfg.sim_time = 100.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    des::CpuSimulation sim(cfg, seed++);
    benchmark::DoNotOptimize(sim.Run().jobs_completed);
  }
  state.SetItemsProcessed(state.iterations() * 100);  // simulated seconds
}
BENCHMARK(BM_DesCpuModelSecondOfSimulation);

void BM_SpnTokenGameCpuNet(benchmark::State& state) {
  core::CpuParams params;
  const petri::PetriNet net = core::BuildCpuPetriNet(params);
  petri::SimulationConfig cfg;
  cfg.horizon = 100.0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(petri::SimulateSpn(net, cfg).total_firings);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SpnTokenGameCpuNet);

// Equal-priority acquire_* immediates compete by weight, so every chain
// after a timed firing draws and the chain cache never replays one.
void BM_SpnTokenGameSharedResource(benchmark::State& state) {
  const petri::PetriNet net = petri::MakeSharedResourceNet(3, 1.0, 2.0);
  petri::SimulationConfig cfg;
  cfg.horizon = 1000.0;
  std::uint64_t seed = 1;
  std::uint64_t firings = 0;
  for (auto _ : state) {
    cfg.seed = seed++;
    const std::uint64_t fired = petri::SimulateSpn(net, cfg).total_firings;
    benchmark::DoNotOptimize(fired);
    firings += fired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(firings));
}
BENCHMARK(BM_SpnTokenGameSharedResource);

// Each tick adds a token to `count`, so no tangible marking repeats: the
// chain cache interns markings until it gives up, then only walks.
void BM_SpnTokenGameCounter(benchmark::State& state) {
  petri::PetriNet net;
  const petri::PlaceId clock = net.AddPlace("clock", 1);
  const petri::PlaceId tallied = net.AddPlace("tallied", 0);
  const petri::PlaceId count = net.AddPlace("count", 0);
  const petri::TransitionId tick = net.AddExponentialTransition("tick", 2.0);
  net.AddInputArc(tick, clock);
  net.AddOutputArc(tick, tallied);
  const petri::TransitionId tally = net.AddImmediateTransition("tally", 1);
  net.AddInputArc(tally, tallied);
  net.AddOutputArc(tally, clock);
  net.AddOutputArc(tally, count);
  petri::SimulationConfig cfg;
  cfg.horizon = 1000.0;
  std::uint64_t seed = 1;
  std::uint64_t firings = 0;
  for (auto _ : state) {
    cfg.seed = seed++;
    const std::uint64_t fired = petri::SimulateSpn(net, cfg).total_firings;
    benchmark::DoNotOptimize(fired);
    firings += fired;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(firings));
}
BENCHMARK(BM_SpnTokenGameCounter);

void BM_SpnTokenGameMm1k(benchmark::State& state) {
  const petri::PetriNet net = petri::MakeMm1kNet(0.8, 1.0, 10);
  petri::SimulationConfig cfg;
  cfg.horizon = static_cast<double>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(petri::SimulateSpn(net, cfg).total_firings);
  }
}
BENCHMARK(BM_SpnTokenGameMm1k)->Arg(100)->Arg(1000);

void BM_TangibleReachabilityMm1k(benchmark::State& state) {
  const petri::PetriNet net =
      petri::MakeMm1kNet(0.8, 1.0, static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(petri::BuildTangibleGraph(net).markings.size());
  }
}
BENCHMARK(BM_TangibleReachabilityMm1k)->Arg(16)->Arg(128)->Arg(512);

void BM_SpnSolverStageExpansion(benchmark::State& state) {
  core::CpuParams params;
  params.power_down_threshold = 0.3;
  params.power_up_delay = 0.3;
  const petri::PetriNet net = core::BuildCpuPetriNet(params);
  petri::SolverOptions opts;
  opts.det_stages = static_cast<std::size_t>(state.range(0));
  opts.truncate_tokens = 60;  // the Fig. 3 net is open (unbounded buffer)
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        petri::SolveSteadyState(net, opts).expanded_states);
  }
}
BENCHMARK(BM_SpnSolverStageExpansion)->Arg(2)->Arg(8)->Arg(20);

void BM_DspnExactCpuNet(benchmark::State& state) {
  // PUD = 10 s: long PUT windows, the exact solver's expensive regime.
  core::CpuParams params;
  params.power_down_threshold = 0.5;
  params.power_up_delay = 10.0;
  const petri::PetriNet net = core::BuildCpuPetriNet(params);
  petri::DspnOptions opts;
  opts.truncate_tokens = core::CpuNetTruncateTokens(params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(petri::SolveDspnExact(net, opts).tangible_states);
  }
}
BENCHMARK(BM_DspnExactCpuNet);

void BM_SupplementaryClosedForm(benchmark::State& state) {
  for (auto _ : state) {
    const markov::SupplementaryVariableModel m(1.0, 10.0, 0.3, 0.3);
    benchmark::DoNotOptimize(m.Evaluate().p_idle);
  }
}
BENCHMARK(BM_SupplementaryClosedForm);

void BM_StagesCtmcSolve(benchmark::State& state) {
  for (auto _ : state) {
    const markov::StagesCpuModel m(
        1.0, 10.0, 0.3, 0.3, static_cast<std::size_t>(state.range(0)),
        static_cast<std::size_t>(state.range(0)));
    benchmark::DoNotOptimize(m.Evaluate().p_idle);
  }
}
BENCHMARK(BM_StagesCtmcSolve)->Arg(1)->Arg(4)->Arg(10);

void BM_DenseLuSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      a(r, c) = util::UniformDouble(rng);
      sum += a(r, c);
    }
    a(r, r) += sum + 1.0;
  }
  const std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SolveDense(a, b));
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_GaussSeidelStationary(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  linalg::CooBuilder coo(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = (i + 1) % n;
    const double r1 = util::UniformDouble(rng) + 0.1;
    coo.Add(i, next, r1);
    coo.Add(i, i, -r1);
    const std::size_t far = (i + n / 2) % n;
    if (far != i) {
      const double r2 = util::UniformDouble(rng) + 0.1;
      coo.Add(i, far, r2);
      coo.Add(i, i, -r2);
    }
  }
  const linalg::CsrMatrix q(coo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::StationaryGaussSeidel(q).iterations);
  }
}
BENCHMARK(BM_GaussSeidelStationary)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
