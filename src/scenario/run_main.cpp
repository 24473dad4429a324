#include "scenario/run_main.hpp"

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "scenario/harness.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/subproc.hpp"
#include "util/table.hpp"

namespace wsn::scenario {

namespace {

std::vector<util::FlagSpec> GlobalFlags() {
  return {
      {"threads", "T", "0",
       "worker threads for the sweep/replication grid (0 = hardware)"},
      {"format", "FMT", "table", "output format: table, csv or json"},
      {"metrics", "PATH", "",
       "write the merged obs metrics registry as JSON to PATH"},
      {"metrics-timings", "", "",
       "include wall-clock timing sections in the metrics file "
       "(machine-dependent, so off by default)"},
      {"trace", "PATH", "",
       "write the packet-lifecycle trace as JSONL to PATH"},
      {"trace-nodes", "CSV", "",
       "trace only these node indices (comma-separated; empty = all)"},
      {"trace-from", "S", "0", "trace events at simulated time >= S"},
      {"trace-until", "S", "inf", "trace events at simulated time < S"},
      {"trace-max", "N", "1000000", "max trace lines per replication"},
      {"log-level", "LVL", "warn",
       "log threshold: debug, info, warn, error or off"},
      // Sweep-point harness (docs/robustness.md): crash isolation,
      // deadlines/retry, graceful degradation and the resumable journal.
      {"isolate", "", "",
       "run each sweep point in a forked worker process (crash isolation)"},
      {"deadline", "S", "0",
       "wall-clock deadline per sweep point in seconds (implies --isolate)"},
      {"rss-limit", "MB", "0",
       "address-space cap per worker in MB (implies --isolate)"},
      {"retries", "N", "0",
       "retry a failed point up to N times with exponential backoff "
       "(implies --isolate)"},
      {"backoff", "S", "0.25",
       "delay before the first retry; doubles for each further retry"},
      {"keep-going", "", "",
       "record exhausted points as explicit error rows and finish the "
       "sweep (exit code 3) instead of aborting"},
      {"journal", "PATH", "",
       "append one fsync'd JSONL record per completed sweep point to PATH"},
      {"resume", "", "",
       "replay points already completed in the --journal file instead of "
       "re-running them"},
  };
}

HarnessOptions HarnessOptionsFromArgs(const util::CliArgs& args) {
  HarnessOptions o;
  o.isolate = args.GetBool("isolate");
  o.deadline_s = args.GetDouble("deadline", 0.0);
  o.rss_limit_mb = args.GetCount("rss-limit", 0);
  o.retries = args.GetCount("retries", 0);
  o.backoff_s = args.GetDouble("backoff", 0.25);
  o.keep_going = args.GetBool("keep-going");
  o.journal_path = args.GetString("journal", "");
  o.resume = args.GetBool("resume");
  o.threads = args.GetCount("threads", 0);
  util::Require(o.deadline_s >= 0.0, "--deadline must be >= 0");
  util::Require(o.backoff_s >= 0.0, "--backoff must be >= 0");
  if (o.resume && o.journal_path.empty()) {
    throw util::InvalidArgument("--resume requires --journal PATH");
  }
  return o;
}

/// A harness is constructed when any of its features is on; otherwise
/// ctx.harness stays null and studies take the historical AddRow path.
bool HarnessActive(const HarnessOptions& o) {
  return o.Isolating() || o.keep_going || !o.journal_path.empty();
}

/// Flags that select *how* a run executes rather than *what* it
/// computes.  The journal's run id must be stable across them: a resume
/// at --threads 4 of a journal written at --threads 1 is legal (and the
/// byte-identity tests exercise exactly that), as is resuming with a
/// different --format or deadline.
bool IsExecutionFlag(const std::string& name) {
  static const std::set<std::string> kExecutionFlags = {
      "threads",   "format",      "help",       "metrics", "metrics-timings",
      "trace",     "trace-nodes", "trace-from", "trace-until", "trace-max",
      "log-level", "isolate",     "deadline",   "rss-limit",   "retries",
      "backoff",   "keep-going",  "journal",    "resume",      "file",
  };
  return kExecutionFlags.count(name) > 0;
}

/// 16-hex run id: FNV over the run's identity (`scenario:<name>` or the
/// spec file's bytes) plus every non-execution flag, so a journal can
/// only be resumed by the command line that computes the same sweep.
std::string RunConfigId(const std::string& identity,
                        const util::CliArgs& args) {
  std::uint64_t h = util::Fnv1a64(identity);
  for (const std::string& name : args.FlagNames()) {
    if (IsExecutionFlag(name)) continue;
    h = util::Fnv1a64(name + "=" + args.GetString(name, "") + "\n", h);
  }
  return util::HexU64(h);
}

extern "C" void HarnessSignalHandler(int sig) {
  // Async-signal-safe interruption: reap the in-flight worker so it is
  // not orphaned, then exit with the conventional 128+signal status.
  // Journal durability needs no flushing here — every completed record
  // was already fsync'd when it was appended.
  util::KillActiveWorker();
  ::_exit(128 + sig);
}

void InstallHarnessSignalHandlers() {
  struct sigaction sa;
  sa.sa_handler = HarnessSignalHandler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// "3,17,42" -> {3, 17, 42}; throws InvalidArgument on junk.
std::vector<std::size_t> ParseNodeList(const std::string& csv) {
  std::vector<std::size_t> nodes;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    try {
      std::size_t consumed = 0;
      const unsigned long long v = std::stoull(token, &consumed);
      util::Require(consumed == token.size(), "trailing junk");
      nodes.push_back(static_cast<std::size_t>(v));
    } catch (const std::exception&) {
      throw util::InvalidArgument("--trace-nodes: bad node index '" + token +
                                  "'");
    }
  }
  return nodes;
}

obs::SessionOptions ObsOptionsFromArgs(const util::CliArgs& args) {
  obs::SessionOptions options;
  options.metrics_path = args.GetString("metrics", "");
  options.metrics_timings = args.GetBool("metrics-timings");
  options.trace_path = args.GetString("trace", "");
  options.trace.nodes = ParseNodeList(args.GetString("trace-nodes", ""));
  options.trace.from_s = args.GetDouble("trace-from", 0.0);
  options.trace.until_s = args.GetDouble(
      "trace-until", std::numeric_limits<double>::infinity());
  options.trace.max_events = args.GetCount("trace-max", 1'000'000, 1);
  return options;
}

/// Shared back half of RunOne/RunSpecFile: construct executor, obs
/// session and (when any of its features is on) the point harness, run
/// the scenario/spec, append the harness-errors table, contribute
/// harness counters, write artifacts and print.  Returns 0, or 3 when
/// points failed under --keep-going.
int DriveRun(const util::CliArgs& args, const std::string& run_identity,
             const std::string& no_metrics_what,
             const std::string& no_metrics_value,
             const std::function<ResultSet(const ScenarioContext&)>& run) {
  const OutputFormat format =
      ParseOutputFormat(args.GetString("format", "table"));
  util::ParallelExecutor executor(args.GetCount("threads", 0));
  obs::Session obs_session(ObsOptionsFromArgs(args));
  const HarnessOptions harness_options = HarnessOptionsFromArgs(args);
  std::unique_ptr<PointHarness> harness;
  if (HarnessActive(harness_options)) {
    harness = std::make_unique<PointHarness>(
        harness_options, RunConfigId(run_identity, args), executor);
    InstallHarnessSignalHandlers();
  }

  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  ctx.obs = obs_session.Enabled() ? &obs_session : nullptr;
  ctx.harness = harness.get();
  ResultSet results = run(ctx);

  if (harness != nullptr) {
    if (!harness->Failures().empty()) {
      ResultTable& errors = results.AddTable(
          "harness-errors", {"point", "failure", "attempts", "detail"});
      for (const PointFailure& f : harness->Failures()) {
        errors.AddRow({f.point, f.failure, std::to_string(f.attempts),
                       f.detail});
      }
    }
    const auto counters = harness->Counters();
    if (obs_session.MetricsEnabled()) {
      obs::MetricsSnapshot snapshot;
      snapshot.counters = counters;
      obs_session.Contribute(snapshot, "");
    }
    // Run-dependent by design (a resume replays, a clean run executes),
    // so this summary goes to stderr, never into the ResultSet — the
    // rendered output must stay byte-identical either way.
    (util::LogInfo() << "harness summary")
        .Kv("executed", counters.at("harness.points.executed"))
        .Kv("replayed", counters.at("harness.points.replayed"))
        .Kv("failed", counters.at("harness.points.failed"))
        .Kv("retries", counters.at("harness.worker.retries"));
  }

  if (obs_session.MetricsEnabled() && obs_session.Merged().Empty()) {
    (util::LogWarn() << "scenario contributed no metrics; the --metrics "
                        "file will hold empty sections")
        .Kv(no_metrics_what, no_metrics_value);
  }
  obs_session.WriteFiles();
  std::cout << results.Render(format);
  if (harness != nullptr && !harness->Failures().empty()) {
    (util::LogError() << "sweep finished with failed points (--keep-going)")
        .Kv("failed", harness->Failures().size());
    return 3;
  }
  return 0;
}

std::vector<util::FlagSpec> AllFlags(const Scenario& scenario) {
  std::vector<util::FlagSpec> flags = scenario.Flags();
  for (util::FlagSpec& f : GlobalFlags()) flags.push_back(std::move(f));
  return flags;
}

std::string ScenarioHelp(const Scenario& scenario) {
  return util::RenderHelp(
      "wsnctl run " + scenario.Name() + " [flags]",
      scenario.Summary() + "\nreproduces: " + scenario.Artifact(),
      AllFlags(scenario));
}

/// Validate, execute and print one scenario (`wsnctl run <name>`).
/// Positional tokens beyond the subcommand and the scenario name are
/// flags typed without their dashes and must fail as loudly as an
/// unknown flag would.
int RunOne(const Scenario& scenario, const util::CliArgs& args) {
  if (args.GetBool("help")) {
    std::cout << ScenarioHelp(scenario);
    return 0;
  }
  if (args.Positional().size() > 2) {
    throw util::InvalidArgument(
        "unexpected argument '" + args.Positional()[2] +
        "' (flags are written --name=value; run with --help)");
  }
  util::RequireKnownFlags(args, AllFlags(scenario));
  util::SetLogLevel(util::ParseLogLevel(args.GetString("log-level", "warn")));
  return DriveRun(args, "scenario:" + scenario.Name(), "scenario",
                  scenario.Name(),
                  [&scenario](const ScenarioContext& ctx) {
                    return scenario.Run(ctx);
                  });
}

/// Run a declarative spec file (`wsnctl run --file exp.json`) with the
/// same global-flag surface, executor and observability session a
/// registered scenario gets — the spec interpreter and the registry
/// wrappers share the study runners, so a preset file's output is
/// byte-identical to its compiled-in twin.
int RunSpecFile(const std::string& path, const util::CliArgs& args) {
  if (args.Positional().size() > 1) {
    throw util::InvalidArgument(
        "unexpected argument '" + args.Positional()[1] +
        "' (flags are written --name=value; run with --help)");
  }
  std::vector<util::FlagSpec> flags = GlobalFlags();
  flags.push_back({"file", "PATH", "", "declarative scenario spec to run"});
  util::RequireKnownFlags(args, flags);
  util::SetLogLevel(util::ParseLogLevel(args.GetString("log-level", "warn")));
  const ScenarioSpec spec = LoadScenarioSpecFile(path);
  // The journal run id for a --file run hashes the spec *content*, not
  // the path: moving or renaming the file must not orphan its journal,
  // while editing a single knob must.
  std::ifstream spec_in(path, std::ios::binary);
  std::ostringstream spec_text;
  spec_text << spec_in.rdbuf();
  return DriveRun(args, "file:" + spec_text.str(), "file", path,
                  [&spec](const ScenarioContext& ctx) {
                    return RunSpec(ctx, spec);
                  });
}

int ListScenarios() {
  util::TextTable table({"name", "artifact", "summary"});
  for (const Scenario* s : ScenarioRegistry::Instance().All()) {
    table.AddRow({s->Name(), s->Artifact(), s->Summary()});
  }
  std::cout << table.Render();
  std::cout << "\nrun one with: wsnctl run <name> [--help]\n"
               "or run a declarative spec with: wsnctl run --file "
               "presets/<name>.json\n   (committed presets mirror the "
               "registered scenarios byte for byte; see docs/scenarios.md)\n";
  return 0;
}

const Scenario* FindOrComplain(const std::string& name) {
  const Scenario* s = ScenarioRegistry::Instance().Find(name);
  if (s == nullptr) {
    (util::LogError() << "unknown scenario (see `wsnctl list`)")
        .Kv("scenario", name);
  }
  return s;
}

int Usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  wsnctl list                    show registered scenarios\n"
        "  wsnctl help <scenario>         show a scenario's flags\n"
        "  wsnctl run <scenario> [flags]  run and print results\n"
        "  wsnctl run --file <spec.json>  run a declarative scenario spec\n";
  return code;
}

}  // namespace

int WsnctlMain(int argc, const char* const* argv) {
  try {
    const util::CliArgs args(argc, argv);
    const auto& positional = args.Positional();
    if (positional.empty()) {
      return Usage(args.GetBool("help") ? std::cout : std::cerr,
                   args.GetBool("help") ? 0 : 2);
    }
    const std::string& command = positional[0];
    if (command == "list") {
      // list/help take no flags; a typo'd flag must not pass silently.
      util::RequireKnownFlags(args, {});
      return ListScenarios();
    }
    if (command == "help") {
      if (positional.size() < 2) return Usage(std::cerr, 2);
      util::RequireKnownFlags(args, {});
      const Scenario* s = FindOrComplain(positional[1]);
      if (s == nullptr) return 2;
      std::cout << ScenarioHelp(*s);
      return 0;
    }
    if (command == "run") {
      const std::string file = args.GetString("file", "");
      if (!file.empty() && positional.size() >= 2) {
        throw util::InvalidArgument(
            "wsnctl run: pass either a scenario name or --file=<spec.json>, "
            "not both");
      }
      if (!file.empty()) return RunSpecFile(file, args);
      if (positional.size() < 2) return Usage(std::cerr, 2);
      const Scenario* s = FindOrComplain(positional[1]);
      if (s == nullptr) return 2;
      return RunOne(*s, args);
    }
    (util::LogError() << "unknown command").Kv("command", command);
    return Usage(std::cerr, 2);
  } catch (const std::exception& e) {
    util::LogError() << e.what();
    return 1;
  }
}

}  // namespace wsn::scenario
