#include "scenario/common.hpp"

#include <sched.h>

#include <cstdint>
#include <fstream>
#include <thread>

#include "obs/session.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace wsn::scenario {

core::CpuParams PaperParams() {
  core::CpuParams p;
  p.arrival_rate = 1.0;
  p.service_rate = 10.0;
  p.power_down_threshold = 0.1;
  p.power_up_delay = 0.001;
  return p;
}

core::EvalConfig EvalConfigFromArgs(const util::CliArgs& args) {
  core::EvalConfig cfg;
  cfg.sim_time = args.GetDouble("sim-time", 1000.0);
  util::Require(cfg.sim_time > 0.0, "flag --sim-time must be positive");
  cfg.replications = args.GetCount("replications", 24, 1);
  cfg.seed = static_cast<std::uint64_t>(args.GetCount("seed", 2008));
  cfg.threads = 1;  // parallelism lives in the scenario's executor
  return cfg;
}

std::size_t SweepPointsFromArgs(const util::CliArgs& args) {
  return args.GetCount("points", 11, 2);
}

std::vector<util::FlagSpec> CommonEvalFlags() {
  return {
      {"sim-time", "S", "1000", "simulated horizon per replication (s)"},
      {"replications", "R", "24", "independent replications (>= 1)"},
      {"seed", "N", "2008", "master RNG seed (non-negative)"},
  };
}

util::FlagSpec PointsFlag() {
  return {"points", "K", "11", "sweep resolution over the PDT grid (>= 2)"};
}

std::string ObservedCell(std::size_t observed, std::size_t total) {
  return std::to_string(observed) + "/" + std::to_string(total) + " reps";
}

std::string MetricCell(const netsim::MetricSummary& metric, int precision) {
  if (metric.observed == 0) return "n/a";
  return util::FormatInterval(metric.ci.mean, metric.ci.half_width, precision);
}

void ApplyObs(const ScenarioContext& ctx, netsim::NetSimConfig& config) {
  if (ctx.obs == nullptr) return;
  config.obs = ctx.obs->MakeConfig();
}

void ContributeObs(const ScenarioContext& ctx,
                   const netsim::ReplicationSummary& summary) {
  if (ctx.obs == nullptr) return;
  ctx.obs->Contribute(summary.metrics, summary.trace);
}

// CMakeLists.txt defines the build type; wsnbench/ compiles this file
// without it.
#ifndef WSN_BUILD_TYPE
#define WSN_BUILD_TYPE "unknown"
#endif

void StampMachineFingerprint(ResultSet& results) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  }
  cpu_set_t allowed;
  const std::size_t nproc =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&allowed))
          : std::thread::hardware_concurrency();
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  results.SetMeta("cpu", cpu);
  results.SetMeta("nproc", std::to_string(nproc));
  results.SetMeta("compiler", compiler);
  results.SetMeta("build-type", WSN_BUILD_TYPE);
}

}  // namespace wsn::scenario
