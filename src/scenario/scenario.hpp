/// \file
/// The Scenario abstraction: one registered, named experiment = one paper
/// table/figure, ablation, exploration or netsim study.
///
/// A scenario declares its flag vocabulary (FlagSpec drives both unknown-
/// flag rejection and auto-generated --help), consumes a parsed CliArgs,
/// fans its sweep/replication grid across the ParallelExecutor it is
/// handed, and returns a structured ResultSet.  The wsnctl driver above
/// it lives in run_main.{hpp,cpp}.
///
/// Registration is self-contained: each scenarios_*.cpp translation unit
/// defines file-scope ScenarioRegistrar objects whose constructors insert
/// into the process-wide ScenarioRegistry.  Those translation units live
/// in the `wsn_scenarios` CMake object library so the linker can never
/// drop them (a classic static-library registration hazard).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/result.hpp"
#include "util/cli.hpp"
#include "util/executor.hpp"

/// \namespace wsn::scenario
/// The experiment engine: registered scenarios, structured results and
/// the shared wsnctl driver plumbing.

namespace wsn::obs {
class Session;
}  // namespace wsn::obs

namespace wsn::scenario {

class PointHarness;

/// Everything a scenario run receives from the driver: the parsed
/// command line and the executor to fan independent jobs through.
struct ScenarioContext {
  const util::CliArgs* args = nullptr;          ///< parsed flags (non-owning)
  util::ParallelExecutor* executor = nullptr;   ///< fan-out engine (non-owning)
  /// The wsnctl observability session (--metrics/--trace), or null when
  /// neither output was requested.  Scenarios that run the network
  /// simulator participate through scenario::ApplyObs/ContributeObs.
  obs::Session* obs = nullptr;
  /// The sweep-point harness (isolation, deadlines/retry, journal,
  /// resume), or null when every harness feature is off.  Studies route
  /// sweep cells through scenario::RunPointRow, which falls back to a
  /// plain AddRow when this is null — see scenario/harness.hpp.
  PointHarness* harness = nullptr;

  /// The parsed command line (must be set).
  const util::CliArgs& Args() const { return *args; }
  /// The executor scenario jobs map through (must be set).
  util::ParallelExecutor& Executor() const { return *executor; }
};

/// Interface every registered experiment implements (usually through
/// MakeScenario rather than a hand-written subclass).
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Registry key, e.g. "table4" — what `wsnctl run <name>` matches.
  virtual std::string Name() const = 0;

  /// One-line description for `wsnctl list`.
  virtual std::string Summary() const = 0;

  /// The paper artifact this reproduces ("paper Table 4", "extension").
  virtual std::string Artifact() const = 0;

  /// Accepted flags (validation + --help).  Scenario-specific only; the
  /// driver appends the global flags (--threads, --format, --help).
  virtual std::vector<util::FlagSpec> Flags() const = 0;

  virtual ResultSet Run(const ScenarioContext& ctx) const = 0;
};

/// Process-wide name -> Scenario map populated at static-init time by
/// ScenarioRegistrar objects.
class ScenarioRegistry {
 public:
  /// The process-wide registry.
  static ScenarioRegistry& Instance();

  /// Throws InvalidArgument on duplicate names.
  void Register(std::unique_ptr<Scenario> scenario);

  /// Null when not found.
  const Scenario* Find(const std::string& name) const;

  /// All scenarios, sorted by name.
  std::vector<const Scenario*> All() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// File-scope helper: constructing one registers the scenario.
struct ScenarioRegistrar {
  /// Registers `scenario` into ScenarioRegistry::Instance().
  explicit ScenarioRegistrar(std::unique_ptr<Scenario> scenario);
};

/// Build a Scenario from plain data plus a run function — the idiom the
/// scenarios_*.cpp registration files use.
std::unique_ptr<Scenario> MakeScenario(
    std::string name, std::string summary, std::string artifact,
    std::vector<util::FlagSpec> flags,
    std::function<ResultSet(const ScenarioContext&)> run);

}  // namespace wsn::scenario
