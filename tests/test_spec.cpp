// Declarative scenario specs (ISSUE 9): the validation error catalog —
// every error class fails with an exact, path-qualified message — plus
// file loading, front-end mutual exclusion, and a small end-to-end run
// of the generic interpreter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/run_main.hpp"
#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"
#include "util/error.hpp"
#include "util/executor.hpp"

namespace wsn::scenario {
namespace {

/// Parse `json` expecting rejection; return the exact error message.
std::string FailMessage(const std::string& json) {
  try {
    ParseScenarioSpec(json);
  } catch (const util::InvalidArgument& e) {
    return e.what();
  }
  ADD_FAILURE() << "spec unexpectedly valid: " << json;
  return "";
}

// ------------------------------------------------------ study dispatch

TEST(SpecErrors, RootMustBeAnObject) {
  EXPECT_EQ(FailMessage("[1, 2]"),
            "spec: expected a JSON object at $, got array");
}

TEST(SpecErrors, MissingStudyNamesTheChoices) {
  EXPECT_EQ(FailMessage("{}"),
            "spec: missing required key 'study' at $ (one of: clustered, "
            "faults, generic, heterogeneous, lifetime, throughput)");
}

TEST(SpecErrors, UnknownStudyNamesTheChoices) {
  EXPECT_EQ(FailMessage(R"({"study": "fig9"})"),
            "spec: $.study: unknown study 'fig9' (one of: clustered, faults, "
            "generic, heterogeneous, lifetime, throughput)");
}

TEST(SpecErrors, StudyMustBeAString) {
  EXPECT_EQ(FailMessage(R"({"study": 4})"),
            "spec: $.study: expected a string, got number");
}

// ------------------------------------- unknown keys name the JSON path

TEST(SpecErrors, UnknownRootKeyListsAcceptedKeysForTheStudy) {
  EXPECT_EQ(FailMessage(R"({"study": "lifetime", "cluster": {}})"),
            "spec: unknown key 'cluster' at $ (accepted for study "
            "'lifetime': node, run, study, topology, traffic)");
}

TEST(SpecErrors, UnknownSectionKeyListsAcceptedKeys) {
  EXPECT_EQ(FailMessage(
                R"({"study": "lifetime", "topology": {"sinks": 2}})"),
            "spec: unknown key 'sinks' at $.topology (accepted: cols, hop, "
            "rows, spacing)");
  // The fast paths' mode keys are gone; verify.oracle runs the oracles.
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "routing": {"update": "full"}})"),
            "spec: unknown key 'update' at $.routing (accepted: rerouting)");
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "cluster": {"assign": "grid"}})"),
            "spec: unknown key 'assign' at $.cluster (accepted: aggregation, "
            "head_fraction, protocol, round_s, static_heads)");
}

TEST(SpecErrors, SectionMustBeAnObject) {
  EXPECT_EQ(FailMessage(R"({"study": "lifetime", "node": 3})"),
            "spec: $.node: expected an object, got number");
}

// ------------------------------------------------- type + range errors

TEST(SpecErrors, WrongScalarTypeNamesTheActualType) {
  EXPECT_EQ(FailMessage(
                R"({"study": "lifetime", "topology": {"cols": "ten"}})"),
            "spec: $.topology.cols: expected a number, got string");
}

TEST(SpecErrors, NonIntegerCountNamesTheValue) {
  EXPECT_EQ(
      FailMessage(R"({"study": "lifetime", "topology": {"cols": 2.5}})"),
      "spec: $.topology.cols: expected an integer, got 2.5");
}

TEST(SpecErrors, CountBelowMinimumNamesBothBounds) {
  EXPECT_EQ(FailMessage(
                R"({"study": "lifetime", "run": {"replications": 0}})"),
            "spec: $.run.replications: must be >= 1 (got 0)");
}

TEST(SpecErrors, NonPositiveKnobNamesTheValue) {
  EXPECT_EQ(FailMessage(
                R"({"study": "lifetime", "topology": {"spacing": 0}})"),
            "spec: $.topology.spacing: must be > 0 (got 0)");
}

TEST(SpecErrors, UnknownChoiceListsTheVocabulary) {
  EXPECT_EQ(FailMessage(
                R"({"study": "lifetime", "traffic": {"kind": "fractal"}})"),
            "spec: $.traffic.kind: unknown value 'fractal' (one of: bursty, "
            "steady)");
}

TEST(SpecErrors, BoolKnobRejectsNumbers) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "routing": {"rerouting": 1}})"),
            "spec: $.routing.rerouting: expected a boolean, got number");
}

TEST(SpecErrors, LossProbabilityIsHalfOpen) {
  EXPECT_EQ(FailMessage(R"({"study": "generic", "mac": {"p_loss": 1}})"),
            "spec: $.mac.p_loss: must be in [0, 1) (got 1)");
}

TEST(SpecErrors, HeadFractionIsOpenLow) {
  EXPECT_EQ(
      FailMessage(
          R"({"study": "generic", "cluster": {"head_fraction": 0}})"),
      "spec: $.cluster.head_fraction: must be in (0, 1] (got 0)");
}

TEST(SpecErrors, SinksRangeIsNamed) {
  EXPECT_EQ(FailMessage(
                R"({"study": "clustered", "topology": {"sinks": 5}})"),
            "spec: $.topology.sinks: must be in 1..4 (got 5)");
}

// --------------------------------------------------- conflicting knobs

TEST(SpecErrors, NodesConflictsWithColsRows) {
  EXPECT_EQ(
      FailMessage(
          R"({"study": "generic", "topology": {"nodes": 20, "cols": 5}})"),
      "spec: $.topology: 'nodes' conflicts with 'cols'/'rows' (a 'nodes' "
      "deployment derives its own near-square grid)");
}

TEST(SpecErrors, CrashRateRequiresAnOutage) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "faults": {"crash_rate": 0.001}})"),
            "spec: $.faults: 'crash_rate' > 0 requires 'outage_s' > 0");
}

TEST(SpecErrors, ThroughputClusterSectionMustBeEmpty) {
  EXPECT_EQ(FailMessage(
                R"({"study": "throughput", "cluster": {"aggregation": 4}})"),
            "spec: $.cluster: study 'throughput' derives its cluster knobs "
            "(round = horizon/5, aggregation 4); pass an empty object to "
            "enable the clustered data path");
}

// ------------------------------------------------- array arity errors

TEST(SpecErrors, EmptyFaultArrayNamesTheCount) {
  EXPECT_EQ(FailMessage(
                R"({"study": "faults", "faults": {"crash_rates": []}})"),
            "spec: $.faults.crash_rates: needs at least 1 entry (got 0)");
}

TEST(SpecErrors, FaultArrayEntryErrorsNameTheIndex) {
  EXPECT_EQ(
      FailMessage(
          R"({"study": "faults", "faults": {"outages": [100, -1]}})"),
      "spec: $.faults.outages[1]: must be > 0 (got -1)");
}

// --------------------------------------------------------- sweep axes

TEST(SpecErrors, SweepMustBeAnArray) {
  EXPECT_EQ(FailMessage(R"({"study": "generic", "sweep": {}})"),
            "spec: $.sweep: expected an array of axis objects, got object");
}

TEST(SpecErrors, SweepIsCappedAtThreeAxes) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "sweep": [
                  {"key": "node.rate", "values": [1]},
                  {"key": "node.battery_mah", "values": [1]},
                  {"key": "topology.hop", "values": [50]},
                  {"key": "topology.spacing", "values": [10]}]})"),
            "spec: $.sweep: at most 3 axes (got 4)");
}

TEST(SpecErrors, SweepAxisRequiresKeyAndValues) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "sweep": [{"values": [1]}]})"),
            "spec: missing required key 'key' at $.sweep[0]");
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "sweep": [{"key": "node.rate"}]})"),
            "spec: missing required key 'values' at $.sweep[0]");
}

TEST(SpecErrors, NonSweepableKeyListsTheSweepables) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic",
                    "sweep": [{"key": "node.favorite_color",
                               "values": [1]}]})"),
            "spec: $.sweep[0].key: 'node.favorite_color' is not sweepable "
            "(sweepable: cluster.head_fraction, cluster.round_s, "
            "faults.crash_rate, faults.outage_s, mac.p_loss, "
            "node.battery_mah, node.rate, run.horizon_s, topology.hop, "
            "topology.spacing)");
}

TEST(SpecErrors, DuplicateSweepAxisIsNamed) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "sweep": [
                  {"key": "node.rate", "values": [1]},
                  {"key": "node.rate", "values": [2]}]})"),
            "spec: $.sweep[1].key: duplicate axis 'node.rate'");
}

TEST(SpecErrors, ClusterAxisRequiresAClusterSection) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic",
                    "sweep": [{"key": "cluster.head_fraction",
                               "values": [0.2]}]})"),
            "spec: $.sweep[0].key: 'cluster.head_fraction' requires a "
            "cluster section");
}

TEST(SpecErrors, SweepValuesRespectTheKnobRange) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic",
                    "sweep": [{"key": "mac.p_loss", "values": [1.5]}]})"),
            "spec: $.sweep[0].values[0]: must be in [0, 1) (got 1.5)");
}

TEST(SpecErrors, SweepCellCapNamesTheProduct) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "sweep": [
                  {"key": "node.rate", "values": [1, 2, 3, 4]},
                  {"key": "topology.hop", "values": [40, 50, 60, 70]},
                  {"key": "run.horizon_s",
                   "values": [100, 200, 300, 400, 500]}]})"),
            "spec: $.sweep: 80 cells exceed the 64-cell cap (axis lengths "
            "multiply)");
}

// ----------------------------------------------------- output columns

TEST(SpecErrors, UnknownColumnListsTheVocabulary) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "output": {"columns": ["latency"]}})"),
            "spec: $.output.columns[0]: unknown column 'latency' (available: "
            "conserved, crashes, delivered, delivery_ratio, dropped, events, "
            "first_death_s, generated, healed, in_flight, partition_s, "
            "recoveries)");
}

TEST(SpecErrors, DuplicateColumnIsNamed) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic",
                    "output": {"columns": ["generated", "generated"]}})"),
            "spec: $.output.columns[1]: duplicate column 'generated'");
}

// ------------------------------------------------ verify.analytic gate

TEST(SpecErrors, AnalyticConflictsWithClustering) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "cluster": {},
                    "verify": {"analytic": true}})"),
            "spec: $.verify.analytic: conflicts with the cluster section "
            "(the analytic estimator models flat greedy routing)");
}

TEST(SpecErrors, AnalyticConflictsWithRerouting) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic", "traffic": {"kind": "steady"},
                    "verify": {"analytic": true}})"),
            "spec: $.verify.analytic: conflicts with routing.rerouting true "
            "(disable rerouting so the simulated first death matches the "
            "static routes)");
}

TEST(SpecErrors, AnalyticConflictsWithForbiddenSweepAxes) {
  EXPECT_EQ(FailMessage(
                R"({"study": "generic",
                    "traffic": {"kind": "steady"},
                    "routing": {"rerouting": false},
                    "run": {"stop_at": "first_death"},
                    "sweep": [{"key": "mac.p_loss", "values": [0]}],
                    "verify": {"analytic": true}})"),
            "spec: $.verify.analytic: conflicts with sweep axis "
            "'mac.p_loss'");
}

// ----------------------------------------- flags fill the same spec

TEST(SpecFlags, FlagsAndFileFillOneSpec) {
  // A number flag parses like strtod (JSON forbids `.5`), a boolean flag
  // selects the choice it names, and a CSV flag becomes a list.
  const char* argv[] = {"test", "--cols=4", "--rate=.5", "--steady",
                        "--seed=77"};
  const ScenarioSpec flags =
      StudySpecFromArgs("lifetime", util::CliArgs(5, argv));
  const ScenarioSpec file = ParseScenarioSpec(
      R"({"study": "lifetime", "topology": {"cols": 4},
          "node": {"rate": 0.5}, "traffic": {"kind": "steady"},
          "run": {"seed": 77}})");
  for (const ScenarioSpec& spec : {flags, file}) {
    EXPECT_EQ(spec.study, "lifetime");
    EXPECT_EQ(spec.cols, 4u);
    EXPECT_EQ(spec.rows, 5u);
    EXPECT_EQ(spec.rate_hz, 0.5);
    EXPECT_EQ(spec.traffic, "steady");
    EXPECT_EQ(spec.seed, 77u);
  }
  // Each study reads only its own keys.
  const char* more[] = {"test", "--outages=50,80", "--clustered"};
  const util::CliArgs args(3, more);
  EXPECT_EQ(StudySpecFromArgs("faults", args).outages,
            (std::vector<double>{50.0, 80.0}));
  EXPECT_TRUE(StudySpecFromArgs("throughput", args).clustered);
  EXPECT_FALSE(StudySpecFromArgs("faults", args).clustered);
}

// -------------------------------------------------------- file loading

TEST(SpecFiles, MissingFileIsNamed) {
  try {
    LoadScenarioSpecFile("/no/such/dir/exp.json");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "spec: cannot read file '/no/such/dir/exp.json'");
  }
}

TEST(SpecFiles, ParseErrorsArePrefixedWithThePath) {
  const std::string path = testing::TempDir() + "bad_spec.json";
  std::ofstream(path) << R"({"study": "fig9"})";
  try {
    LoadScenarioSpecFile(path);
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()),
              path +
                  ": spec: $.study: unknown study 'fig9' (one of: clustered, "
                  "faults, generic, heterogeneous, lifetime, throughput)");
  }
  std::remove(path.c_str());
}

TEST(SpecFiles, CommittedPresetsAllValidate) {
  for (const char* name :
       {"netsim-lifetime", "netsim-throughput", "netsim-clustered",
        "netsim-heterogeneous", "netsim-faults"}) {
    const std::string path =
        std::string(WSN_SOURCE_DIR) + "/presets/" + name + ".json";
    EXPECT_NO_THROW(LoadScenarioSpecFile(path)) << path;
  }
}

// ----------------------------------------- front-end mutual exclusion

TEST(SpecFiles, WsnctlRejectsNameAndFileTogether) {
  const char* argv[] = {"wsnctl", "run", "netsim-lifetime",
                        "--file=presets/netsim-lifetime.json"};
  testing::internal::CaptureStderr();
  const int rc = WsnctlMain(4, argv);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("wsnctl run: pass either a scenario name or "
                     "--file=<spec.json>, not both"),
            std::string::npos)
      << err;
}

// ------------------------------------------------- generic interpreter

/// Run `spec` on `threads` workers and render all three sinks.
std::string RunGeneric(const ScenarioSpec& spec, std::size_t threads) {
  const char* argv[] = {"test"};
  const util::CliArgs args(1, argv);
  util::ParallelExecutor executor(threads);
  ScenarioContext ctx;
  ctx.args = &args;
  ctx.executor = &executor;
  const ResultSet results = RunSpec(ctx, spec);
  return results.RenderText() + "\n#####\n" + results.RenderCsv() +
         "\n#####\n" + results.RenderJson();
}

TEST(SpecInterpreter, GenericSweepIsDeterministicAcrossThreadCounts) {
  const ScenarioSpec spec = ParseScenarioSpec(
      R"({"study": "generic",
          "topology": {"cols": 3, "rows": 2, "spacing": 12, "hop": 30},
          "node": {"rate": 1.0, "battery_mah": 0.02},
          "sweep": [{"key": "node.rate", "values": [0.5, 1.5]}],
          "run": {"horizon_s": 120, "replications": 2, "seed": 5},
          "verify": {"oracle": true}})");
  const std::string serial = RunGeneric(spec, 1);
  const std::string parallel = RunGeneric(spec, 4);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("node.rate=0.5"), std::string::npos);
  EXPECT_NE(serial.find("node.rate=1.5"), std::string::npos);
  EXPECT_NE(serial.find("oracle"), std::string::npos);
}

TEST(SpecInterpreter, DefaultColumnsApplyWhenOutputIsOmitted) {
  const ScenarioSpec spec = ParseScenarioSpec(R"({"study": "generic"})");
  const std::vector<std::string> expect = {"generated",      "delivered",
                                           "dropped",        "delivery_ratio",
                                           "first_death_s",  "conserved"};
  EXPECT_EQ(spec.columns, expect);
}

}  // namespace
}  // namespace wsn::scenario
