// Scenario engine: registry contents, flag validation, and the PR's
// acceptance pin — running a scenario at --threads=1 and --threads=8
// produces byte-identical table/CSV/JSON output for the same seed, for
// both an analytic sweep (table4) and a netsim replication scenario
// (netsim-lifetime).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/result.hpp"
#include "scenario/run_main.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"
#include "util/json.hpp"

namespace wsn::scenario {
namespace {

const Scenario& Lookup(const std::string& name) {
  const Scenario* s = ScenarioRegistry::Instance().Find(name);
  EXPECT_NE(s, nullptr) << "scenario '" << name << "' not registered";
  return *s;
}

/// All three sinks of `results` concatenated.
std::string RenderAll(const ResultSet& results) {
  return results.RenderText() + "\n#####\n" + results.RenderCsv() +
         "\n#####\n" + results.RenderJson();
}

/// Run `name` with `flags` on an executor of `threads` workers.
ResultSet RunScenario(const std::string& name,
                      const std::vector<std::string>& flags,
                      std::size_t threads) {
  std::vector<const char*> argv = {"test"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  const util::CliArgs args(static_cast<int>(argv.size()), argv.data());
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  return Lookup(name).Run(ctx);
}

/// RunScenario with all three sinks rendered and concatenated.
std::string RunAll(const std::string& name,
                   const std::vector<std::string>& flags,
                   std::size_t threads) {
  return RenderAll(RunScenario(name, flags, threads));
}

TEST(ScenarioRegistry, PaperArtifactsAreRegistered) {
  for (const char* name : {"table4", "table5", "fig4", "fig5",
                           "ablation-stages", "ablation-steady", "duty-cycle",
                           "model-comparison", "wsn-lifetime",
                           "netsim-lifetime", "netsim-throughput",
                           "netsim-clustered", "netsim-heterogeneous",
                           "cluster-ablation"}) {
    EXPECT_NE(ScenarioRegistry::Instance().Find(name), nullptr)
        << "missing scenario " << name;
  }
}

TEST(ScenarioRegistry, FindReturnsNullForUnknown) {
  EXPECT_EQ(ScenarioRegistry::Instance().Find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, AllIsSortedByName) {
  const auto all = ScenarioRegistry::Instance().All();
  ASSERT_GE(all.size(), 11u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->Name(), all[i]->Name());
  }
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  EXPECT_THROW(
      ScenarioRegistry::Instance().Register(MakeScenario(
          "table4", "dup", "dup", {},
          [](const ScenarioContext&) { return ResultSet("dup"); })),
      util::InvalidArgument);
}

TEST(ScenarioRegistry, EveryScenarioDeclaresItsFlags) {
  // The unknown-flag guard only works if scenarios declare a vocabulary;
  // every sweep scenario here takes at least one flag.
  for (const Scenario* s : ScenarioRegistry::Instance().All()) {
    EXPECT_FALSE(s->Flags().empty()) << s->Name();
    EXPECT_FALSE(s->Summary().empty()) << s->Name();
    EXPECT_FALSE(s->Artifact().empty()) << s->Name();
  }
}

// Acceptance pin: analytic sweep determinism across thread counts.
TEST(ScenarioDeterminism, Table4ByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--points=3", "--replications=2",
                                          "--sim-time=20", "--seed=7"};
  const std::string serial = RunAll("table4", flags, 1);
  const std::string parallel = RunAll("table4", flags, 8);
  EXPECT_EQ(serial, parallel);
  // Sanity: a different seed must actually change the simulation cells,
  // proving the comparison is not trivially empty.
  const std::string other_seed =
      RunAll("table4", {"--points=3", "--replications=2", "--sim-time=20",
                        "--seed=8"},
             1);
  EXPECT_NE(serial, other_seed);
}

// Acceptance pin: netsim replication determinism across thread counts.
TEST(ScenarioDeterminism, NetsimLifetimeByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--cols=3", "--rows=2",
                                          "--horizon=200",
                                          "--replications=3", "--seed=11"};
  const std::string serial = RunAll("netsim-lifetime", flags, 1);
  const std::string parallel = RunAll("netsim-lifetime", flags, 8);
  EXPECT_EQ(serial, parallel);
}

// Acceptance pin: the clustered workload (rotating elections, repair
// after head death, aggregation) is also byte-identical across thread
// counts.
TEST(ScenarioDeterminism, NetsimClusteredByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> flags = {"--cols=3", "--rows=3",
                                          "--horizon=400",
                                          "--replications=3", "--seed=11"};
  const std::string serial = RunAll("netsim-clustered", flags, 1);
  const std::string parallel = RunAll("netsim-clustered", flags, 8);
  EXPECT_EQ(serial, parallel);
  const std::string other_seed =
      RunAll("netsim-clustered",
             {"--cols=3", "--rows=3", "--horizon=400", "--replications=3",
              "--seed=12"},
             1);
  EXPECT_NE(serial, other_seed);
}

// Cross-change output pins: speed-only changes to netsim or the DES
// kernel (the SoA node-state restructuring, batched LPL wakeups, grid
// head assignment, the kernel's event set) must leave the rendered
// scenario output for a fixed (flags, seed) byte-for-byte unchanged.
// Each FNV-1a hash was captured before the change it guards; a mismatch
// means simulation behaviour changed, not just performance.  Re-pin only
// with an explicit note in docs/performance.md.
std::uint64_t Fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct OutputPin {
  std::string scenario;
  std::vector<std::string> flags;
  std::size_t size;
  std::uint64_t fnv;
};

TEST(ScenarioDeterminism, NetsimOutputsPinned) {
  const std::vector<std::string> large = {"--cols=30", "--rows=25",
                                          "--horizon=300",
                                          "--replications=2", "--seed=2008"};
  const OutputPin pins[] = {
      // 20 and 36 nodes: a few dozen pending events.
      {"netsim-lifetime",
       {"--cols=5", "--rows=4", "--horizon=1200", "--replications=2",
        "--seed=2008"},
       4826u,
       0x2312344034942ccaull},
      {"netsim-clustered",
       {"--cols=6", "--rows=6", "--horizon=900", "--replications=2",
        "--seed=2008"},
       6246u,
       0x659e0f3c8c3316b5ull},
      // 750 and 700 nodes: 789 to 1,396 events pending at once.
      {"netsim-lifetime", large, 4840u, 0x3b7a2722e5b1f4c0ull},
      {"netsim-clustered", large, 6301u, 0x8a043feed934a443ull},
      {"netsim-faults",
       {"--nodes=700", "--horizon=600", "--crash-rates=0.001",
        "--outages=150", "--replications=2", "--seed=2008"},
       4341u,
       0x3ad2ab4f4accc054ull},
      // Two classes, then one (no advanced node).
      {"netsim-heterogeneous",
       {"--cols=5", "--rows=4", "--horizon=2000", "--replications=2"},
       3358u,
       0x136403afe0aa0b74ull},
      {"netsim-heterogeneous",
       {"--cols=5", "--rows=4", "--horizon=2000", "--replications=2",
        "--advanced-fraction=0"},
       3360u,
       0x592a4e63f31b0491ull},
      // A report rate below 0.1/s, where the service-rate rules of the
      // studies differ: 10 x rate here, 10 x max(rate, 0.1) for faults.
      {"netsim-lifetime",
       {"--rate=0.05", "--cols=6", "--rows=4", "--horizon=3000"},
       4787u,
       0x3d0f5cd6aed062eeull},
      {"cluster-ablation",
       {"--rate=0.05", "--horizon=3000", "--sinks=2"},
       4873u,
       0x0a53b594ff0a9641ull},
      // No jam window and no sink outage.
      {"netsim-faults",
       {"--nodes=49", "--horizon=600", "--crash-rates=0.001",
        "--outages=100", "--jam-windows=0", "--sink-outages=0", "--rate=0.5",
        "--replications=2"},
       4326u,
       0x66dbe34b18c81901ull},
  };
  for (const OutputPin& pin : pins) {
    SCOPED_TRACE(pin.scenario + " " + pin.flags.front());
    const std::string out = RunAll(pin.scenario, pin.flags, 1);
    EXPECT_EQ(out.size(), pin.size);
    EXPECT_EQ(Fnv1a64(out), pin.fnv);
  }
}

// The same pins for two generic specs through ParseScenarioSpec and
// RunSpec, each reaching most of the knob surface, and for the
// deterministic parts of two timed scenarios.
TEST(ScenarioDeterminism, GenericSpecAndTimedOutputsPinned) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(1);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  struct SpecPin {
    const char* json;
    std::size_t size;
    std::uint64_t fnv;
  };
  const SpecPin specs[] = {
      // A `nodes` deployment with two sinks, bursty traffic, a lossy LPL
      // MAC, hotspot classes, every fault class, static clusters and two
      // sweep axes (one rate below 0.1/s), against the oracle twin.
      {R"({"study": "generic",
           "topology": {"nodes": 30, "spacing": 15, "hop": 40, "sinks": 2},
           "node": {"rate": 0.5, "battery_mah": 0.02},
           "traffic": {"kind": "bursty"},
           "mac": {"p_loss": 0.1, "wakeup_interval_s": 0.05},
           "cluster": {"protocol": "static", "head_fraction": 0.2,
                       "round_s": 60},
           "classes": {"advanced_fraction": 0.3, "battery_factor": 2},
           "faults": {"crash_rate": 0.002, "outage_s": 40,
                      "jam_windows": 1, "sink_outages": 1},
           "sweep": [{"key": "node.rate", "values": [0.05, 0.6]},
                     {"key": "faults.outage_s", "values": [20, 60]}],
           "output": {"columns": ["generated", "delivered", "dropped",
                                  "crashes", "recoveries", "events",
                                  "in_flight", "delivery_ratio",
                                  "first_death_s", "partition_s", "healed",
                                  "conserved"]},
           "run": {"horizon_s": 400, "replications": 2, "seed": 2008},
           "verify": {"oracle": true}})",
       4547u, 0x5d77c5d96f7e5b79ull},
      // A grid with spread classes and static routes, to the first death,
      // against the analytic estimator.
      {R"({"study": "generic",
           "topology": {"cols": 5, "rows": 4},
           "node": {"battery_mah": 0.02},
           "routing": {"rerouting": false},
           "classes": {"advanced_fraction": 0.25, "battery_factor": 3,
                       "placement": "spread"},
           "output": {"columns": ["generated", "delivered", "first_death_s",
                                  "events"]},
           "run": {"horizon_s": 3000, "stop_at": "first_death",
                   "replications": 3},
           "verify": {"analytic": true}})",
       2165u, 0x97292efaf6389c0full},
  };
  for (const SpecPin& pin : specs) {
    const std::string out =
        RenderAll(RunSpec(ctx, ParseScenarioSpec(pin.json)));
    EXPECT_EQ(out.size(), pin.size);
    EXPECT_EQ(Fnv1a64(out), pin.fnv);
  }

  // netsim-scale: config, nodes, deaths, route updates, events and
  // elections of every row.
  const util::JsonValue scale = util::ParseJson(
      RunScenario("netsim-scale", {"--sizes=100,400", "--horizon=600"}, 1)
          .RenderJson());
  std::string cells;
  for (const util::JsonValue& table : scale.Find("tables")->Items()) {
    if (table.Find("name")->AsString() != "scale") continue;
    for (const util::JsonValue& row : table.Find("rows")->Items()) {
      for (const std::size_t column : {0, 1, 2, 3, 4, 10}) {
        cells += row.Items()[column].AsString() + "|";
      }
      cells += "\n";
    }
  }
  EXPECT_EQ(cells.size(), 302u);
  EXPECT_EQ(Fnv1a64(cells), 0xdab73d148a8e8c79ull);

  // netsim-throughput: the note comparing the serial and executor legs.
  const util::JsonValue throughput = util::ParseJson(
      RunScenario("netsim-throughput",
                  {"--cols=4", "--rows=4", "--horizon=20",
                   "--replications=4", "--clustered"},
                  1)
          .RenderJson());
  EXPECT_EQ(throughput.Find("notes")->Items()[0].AsString(),
            "checks: delivery ratio 0.9960 +- 0.0044 (serial) vs 0.9960 +- "
            "0.0044 (parallel) — identical streams, identical results");
}

// Preset round-trip pins (ISSUE 9): every committed preset file under
// presets/ is the declarative twin of a registered scenario.  Running
// it through `wsnctl run --file`'s load-and-interpret path must render
// byte-for-byte what the registry scenario renders, at any thread
// count.  A mismatch means a preset drifted from its twin (or the spec
// interpreter stopped sharing the registry's study runners).
std::string RunPreset(const std::string& name, std::size_t threads) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ScenarioSpec spec = LoadScenarioSpecFile(
      std::string(WSN_SOURCE_DIR) + "/presets/" + name + ".json");
  return RenderAll(RunSpec(ctx, spec));
}

TEST(ScenarioPresets, LifetimePresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-lifetime", {}, 1);
  EXPECT_EQ(RunPreset("netsim-lifetime", 1), registry);
  EXPECT_EQ(RunPreset("netsim-lifetime", 4), registry);
}

TEST(ScenarioPresets, ClusteredPresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-clustered", {}, 1);
  EXPECT_EQ(RunPreset("netsim-clustered", 1), registry);
  EXPECT_EQ(RunPreset("netsim-clustered", 4), registry);
}

TEST(ScenarioPresets, HeterogeneousPresetMatchesRegistryTwin) {
  const std::string registry = RunAll("netsim-heterogeneous", {}, 1);
  EXPECT_EQ(RunPreset("netsim-heterogeneous", 1), registry);
  EXPECT_EQ(RunPreset("netsim-heterogeneous", 4), registry);
}

TEST(ScenarioPresets, FaultsPresetMatchesRegistryTwin) {
  // The preset pins the single-point study: one crash rate, one outage.
  const std::string registry = RunAll(
      "netsim-faults", {"--crash-rates=0.001", "--outages=150"}, 1);
  EXPECT_EQ(RunPreset("netsim-faults", 1), registry);
  EXPECT_EQ(RunPreset("netsim-faults", 4), registry);
}

// The throughput scenario measures wall-clock, so its preset cannot be
// byte-pinned; pin everything except the timing cells instead: scenario
// name, meta, headers, the mode/threads columns, and the delivery-ratio
// cross-check note (which proves serial and parallel streams agreed).
TEST(ScenarioPresets, ThroughputPresetMatchesRegistryTwinStructurally) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(2);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet from_registry = Lookup("netsim-throughput").Run(ctx);
  const ScenarioSpec spec = LoadScenarioSpecFile(
      std::string(WSN_SOURCE_DIR) + "/presets/netsim-throughput.json");
  const ResultSet from_preset = RunSpec(ctx, spec);

  const util::JsonValue a =
      util::ParseJson(from_registry.Render(OutputFormat::kJson));
  const util::JsonValue b =
      util::ParseJson(from_preset.Render(OutputFormat::kJson));
  EXPECT_EQ(*a.Find("scenario"), *b.Find("scenario"));
  EXPECT_EQ(*a.Find("meta"), *b.Find("meta"));
  EXPECT_EQ(*a.Find("notes"), *b.Find("notes"));
  const auto& ta = a.Find("tables")->Items()[0];
  const auto& tb = b.Find("tables")->Items()[0];
  EXPECT_EQ(*ta.Find("headers"), *tb.Find("headers"));
  const auto& rows_a = ta.Find("rows")->Items();
  const auto& rows_b = tb.Find("rows")->Items();
  ASSERT_EQ(rows_a.size(), rows_b.size());
  for (std::size_t i = 0; i < rows_a.size(); ++i) {
    // Columns 0..1 are mode and threads; the rest are timing.
    EXPECT_EQ(rows_a[i].Items()[0], rows_b[i].Items()[0]);
    EXPECT_EQ(rows_a[i].Items()[1], rows_b[i].Items()[1]);
  }
}

TEST(ScenarioRun, RejectsInvalidEffortFlags) {
  EXPECT_THROW(RunAll("table4", {"--replications=0"}, 1),
               util::InvalidArgument);
  EXPECT_THROW(RunAll("table4", {"--seed=-5"}, 1), util::InvalidArgument);
  EXPECT_THROW(RunAll("table4", {"--points=-2"}, 1), util::InvalidArgument);

  // A netsim flag takes the rule of its spec key and names itself when
  // the value breaks it.  Each row used to run (with tiny effort here):
  // a non-positive jam or sink-outage length fell back to horizon/10,
  // `none` ran without clustering, an unparsable boolean read as false,
  // and a seed past 9e15 was accepted.
  struct Row {
    std::string scenario;
    std::vector<std::string> flags;
    std::string message;
  };
  const std::vector<std::string> faults = {
      "--nodes=9", "--horizon=40", "--crash-rates=0.001", "--outages=10",
      "--replications=1"};
  const std::vector<std::string> grid = {"--cols=2", "--rows=2",
                                         "--horizon=40", "--replications=1"};
  const auto with = [](std::vector<std::string> flags, const char* flag) {
    flags.push_back(flag);
    return flags;
  };
  const Row rows[] = {
      {"netsim-faults", with(faults, "--jam-duration=-3"),
       "flag --jam-duration: must be > 0 (got -3)"},
      {"netsim-faults", with(faults, "--sink-outage=0"),
       "flag --sink-outage: must be > 0 (got 0)"},
      {"netsim-clustered", with(grid, "--protocol=none"),
       "flag --protocol: unknown value 'none' (one of: leach, static)"},
      {"netsim-lifetime", with(grid, "--steady=maybe"),
       "flag --steady: expected a boolean, got 'maybe'"},
      {"netsim-lifetime", with(grid, "--seed=10000000000000000"),
       "flag --seed: expected an integer, got 1e+16"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.scenario + " " + row.flags.back());
    try {
      RunAll(row.scenario, row.flags, 1);
      ADD_FAILURE() << "flag accepted";
    } catch (const util::InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), row.message);
    }
  }

  // --help renders each default from the study's defaults: the
  // heterogeneous study runs 16 replications, as its preset does.
  bool shown = false;
  for (const util::FlagSpec& flag : Lookup("netsim-heterogeneous").Flags()) {
    if (flag.name != "replications") continue;
    EXPECT_EQ(flag.default_value, "16");
    shown = true;
  }
  EXPECT_TRUE(shown);
}

// Flags outside the knob table name themselves too.  netsim-scale's
// numbers take the table's rule for a positive knob; the count lists
// (--sizes, --seeds, the global --trace-nodes) read each entry as a
// count.  Each row used to run or fail inside the simulator: --rate=0
// with "lambda must be positive", --seeds=-1 as seed 2^64 - 1, and
// --trace-nodes=-1 with an empty trace.
TEST(ScenarioRun, OutOfTableFlagsNameThemselves) {
  struct Row {
    std::string scenario;
    std::vector<std::string> flags;
    std::string message;
  };
  const Row rows[] = {
      {"netsim-scale", {"--sizes=100", "--rate=0"},
       "flag --rate: must be > 0 (got 0)"},
      {"netsim-scale", {"--sizes=100", "--hop=-2"},
       "flag --hop: must be > 0 (got -2)"},
      {"netsim-scale", {"--sizes=100", "--spacing=0"},
       "flag --spacing: must be > 0 (got 0)"},
      {"netsim-scale", {"--sizes=100", "--horizon=-600"},
       "flag --horizon: must be > 0 (got -600)"},
      {"netsim-scale", {"--sizes=100", "--round=0"},
       "flag --round: must be > 0 (got 0)"},
      {"netsim-scale", {"--sizes=100,-1"},
       "flag --sizes must be non-negative, got -1"},
      {"harness-chaos", {"--seeds=-1", "--points=2"},
       "flag --seeds must be non-negative, got -1"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.scenario + " " + row.flags.back());
    try {
      RunAll(row.scenario, row.flags, 1);
      ADD_FAILURE() << "flag accepted";
    } catch (const util::InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), row.message);
    }
  }

  const char* argv[] = {"wsnctl",         "run",          "netsim-lifetime",
                        "--cols=2",       "--rows=2",     "--horizon=40",
                        "--replications=1", "--trace-nodes=-1"};
  testing::internal::CaptureStderr();
  const int rc = WsnctlMain(8, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("flag --trace-nodes must be non-negative, got -1"),
            std::string::npos)
      << err;
}

}  // namespace
}  // namespace wsn::scenario
