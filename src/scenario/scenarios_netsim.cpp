// Registered netsim studies.  Each is a row of the study table in
// scenario/spec.cpp: its flags are the study's knob keys, each default
// rendered from the study's defaults, and a run fills one ScenarioSpec
// from the flags through the knob table and hands it to RunSpec — the
// path `wsnctl run --file` takes with a spec file, so a preset and its
// registered twin are byte-identical by construction.
#include <memory>
#include <string>

#include "scenario/scenario.hpp"
#include "scenario/spec.hpp"

namespace wsn::scenario {
namespace {

std::unique_ptr<Scenario> NetsimStudy(const char* name, const char* study,
                                      const char* summary,
                                      const char* artifact) {
  return MakeScenario(name, summary, artifact, StudyFlags(study),
                      [study](const ScenarioContext& ctx) {
                        return RunSpec(ctx,
                                       StudySpecFromArgs(study, ctx.Args()));
                      });
}

const ScenarioRegistrar reg_netsim_lifetime(NetsimStudy(
    "netsim-lifetime", "lifetime",
    "packet-level lifetime study: deaths, re-routing and partition",
    "extension (dynamic counterpart of wsn-lifetime)"));

const ScenarioRegistrar reg_netsim_throughput(NetsimStudy(
    "netsim-throughput", "throughput",
    "replications/second: serial vs the scenario executor",
    "extension (engineering benchmark)"));

const ScenarioRegistrar reg_netsim_clustered(NetsimStudy(
    "netsim-clustered", "clustered",
    "clustered collection: rotating cluster heads, aggregation, multi-sink",
    "extension (cluster-based workload)"));

const ScenarioRegistrar reg_netsim_heterogeneous(NetsimStudy(
    "netsim-heterogeneous", "heterogeneous",
    "mixed node classes (SEP-style) with analytic cross-validation",
    "extension (heterogeneous workload)"));

const ScenarioRegistrar reg_netsim_faults(NetsimStudy(
    "netsim-faults", "faults",
    "fault-injection chaos sweep: crash-rate x outage-length churn with "
    "jam windows and sink outages, flat and clustered, differentially "
    "verified against full-recompute oracles",
    "extension (robustness / chaos-differential testing)"));

const ScenarioRegistrar reg_cluster_ablation(NetsimStudy(
    "cluster-ablation", "cluster-ablation",
    "flat vs static clusters vs LEACH rotation on one deployment",
    "extension (protocol-policy ablation)"));

}  // namespace
}  // namespace wsn::scenario
