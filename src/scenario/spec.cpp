#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/models.hpp"
#include "des/bursty_workload.hpp"
#include "scenario/common.hpp"
#include "scenario/harness.hpp"
#include "scenario/studies.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "wsn/network.hpp"

namespace wsn::scenario {

namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw util::InvalidArgument(message);
}

[[noreturn]] void SpecFail(const std::string& message) {
  Fail("spec: " + message);
}

/// Compact number rendering for messages and defaults: integers without
/// a decimal point, everything else in %g form.
std::string NumStr(double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%g", v);
  }
  return buf;
}

template <typename Range>
std::string Join(const Range& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

// ------------------------------------------------------------ knob table

/// What a knob's value must satisfy, whether it comes from a spec file
/// or a flag.
enum class Rule {
  kCount,           ///< an integer in [min, max] (max 0 = unbounded)
  kPositive,        ///< > 0
  kNonNegative,     ///< >= 0
  kLossProb,        ///< [0, 1): MacConfig rejects p_loss = 1
  kOpenFraction,    ///< (0, 1]
  kClosedFraction,  ///< [0, 1]
  kBool,
  kChoice,          ///< one of `choices`
  kPositiveList,    ///< a non-empty list of values > 0
  kSection,         ///< the section's presence turns a feature on
};

using Field =
    std::variant<double ScenarioSpec::*, std::uint64_t ScenarioSpec::*,
                 bool ScenarioSpec::*, std::string ScenarioSpec::*,
                 std::vector<double> ScenarioSpec::*>;

/// One netsim knob: where it lives in a spec file and on the command
/// line, what it accepts, and the ScenarioSpec field it fills.
struct Knob {
  const char* key;   ///< spec path below $, e.g. "topology.cols"
  const char* flag;  ///< flag name without "--"; null: spec files only
  const char* hint;  ///< flag value hint; "" makes a boolean flag
  const char* help;
  Rule rule;
  Field field;
  std::uint64_t min = 0;  ///< kCount bounds
  std::uint64_t max = 0;
  std::vector<const char*> choices = {};  ///< kChoice vocabulary
};

/// Every netsim knob, once.  A boolean flag on a choice knob selects the
/// choice named like the flag (--steady: traffic.kind "steady"); on a
/// section knob it adds the empty section (--clustered: `cluster: {}`).
const std::vector<Knob>& Knobs() {
  using S = ScenarioSpec;
  static const std::vector<Knob> knobs = {
      {"topology.cols", "cols", "C", "grid columns", Rule::kCount, &S::cols, 1},
      {"topology.rows", "rows", "R", "grid rows", Rule::kCount, &S::rows, 1},
      {"topology.nodes", "nodes", "N", "deployment size (>= 2)", Rule::kCount,
       &S::nodes, 2},
      {"topology.spacing", "spacing", "M", "grid spacing (m)", Rule::kPositive,
       &S::spacing_m},
      {"topology.hop", "hop", "M", "max radio hop range (m)", Rule::kPositive,
       &S::hop_m},
      {"topology.sinks", "sinks", "N",
       "sink count, 1-4 (placed at deployment corners)", Rule::kCount,
       &S::sinks, 1, 4},
      {"node.rate", "rate", "L", "per-node report rate (1/s)", Rule::kPositive,
       &S::rate_hz},
      {"node.battery_mah", "battery-mah", "MAH", "per-node battery capacity",
       Rule::kPositive, &S::battery_mah},
      {"traffic.kind", "steady", "",
       "steady Poisson traffic instead of bursty MMPP", Rule::kChoice,
       &S::traffic, 0, 0, {"bursty", "steady"}},
      {"mac.p_loss", nullptr, "", "", Rule::kLossProb, &S::p_loss},
      {"mac.wakeup_interval_s", nullptr, "", "", Rule::kNonNegative,
       &S::wakeup_interval_s},
      {"mac.max_retries", nullptr, "", "", Rule::kCount, &S::max_retries, 0},
      {"mac.max_queue", nullptr, "", "", Rule::kCount, &S::max_queue, 1},
      {"routing.rerouting", nullptr, "", "", Rule::kBool, &S::rerouting},
      {"cluster", "clustered", "", "benchmark the clustered (LEACH) data path",
       Rule::kSection, &S::clustered},
      {"cluster.protocol", "protocol", "P",
       "clustering protocol: leach or static", Rule::kChoice, &S::protocol, 0,
       0, {"leach", "static"}},
      {"cluster.head_fraction", "head-fraction", "F",
       "desired cluster-head fraction (0, 1]", Rule::kOpenFraction,
       &S::head_fraction},
      {"cluster.static_heads", "static-heads", "K",
       "static protocol head count (0 = head-fraction * nodes)", Rule::kCount,
       &S::static_heads, 0},
      {"cluster.round_s", "round", "S", "cluster round length (s)",
       Rule::kPositive, &S::round_s},
      {"cluster.aggregation", "aggregation", "K",
       "member samples per upstream packet (>= 1)", Rule::kCount,
       &S::aggregation, 1},
      {"classes.advanced_fraction", "advanced-fraction", "F",
       "fraction of advanced nodes [0, 1]", Rule::kClosedFraction,
       &S::advanced_fraction},
      {"classes.battery_factor", "battery-factor", "X",
       "advanced battery capacity multiplier", Rule::kPositive,
       &S::battery_factor},
      {"classes.placement", "placement", "P",
       "advanced-node placement: hotspot (highest analytic relay load) or "
       "spread (index-strided)",
       Rule::kChoice, &S::placement, 0, 0, {"hotspot", "spread"}},
      {"faults.crash_rate", nullptr, "", "", Rule::kNonNegative,
       &S::crash_rate_hz},
      {"faults.outage_s", nullptr, "", "", Rule::kNonNegative, &S::outage_s},
      {"faults.crash_rates", "crash-rates", "CSV",
       "per-node transient crash rates to sweep (1/s)", Rule::kPositiveList,
       &S::crash_rates},
      {"faults.outages", "outages", "CSV", "mean outage durations to sweep (s)",
       Rule::kPositiveList, &S::outages},
      {"faults.jam_windows", "jam-windows", "N",
       "regional jam windows per run (0 = none)", Rule::kCount,
       &S::jam_windows, 0},
      {"faults.jam_radius", "jam-radius", "M", "jam disc radius (m)",
       Rule::kPositive, &S::jam_radius_m},
      {"faults.jam_duration", "jam-duration", "S",
       "jam window length (s); default horizon/10", Rule::kPositive,
       &S::jam_duration_s},
      {"faults.jam_p_loss", "jam-ploss", "P",
       "extra per-attempt loss inside a jam", Rule::kOpenFraction,
       &S::jam_p_loss},
      {"faults.sink_outages", "sink-outages", "N",
       "sink outage windows per run (0 = none)", Rule::kCount,
       &S::sink_outages, 0},
      {"faults.sink_outage_s", "sink-outage", "S",
       "sink outage window length (s); default horizon/10", Rule::kPositive,
       &S::sink_outage_s},
      {"run.horizon_s", "horizon", "S", "simulation horizon (s)",
       Rule::kPositive, &S::horizon_s},
      {"run.stop_at", nullptr, "", "", Rule::kChoice, &S::stop_at, 0, 0,
       {"first_death", "horizon", "partition"}},
      {"run.replications", "replications", "R",
       "independent replications (>= 1)", Rule::kCount, &S::replications, 1},
      {"run.seed", "seed", "N", "master RNG seed (non-negative)", Rule::kCount,
       &S::seed, 0},
      {"verify.oracle", nullptr, "", "", Rule::kBool, &S::verify_oracle},
      {"verify.analytic", nullptr, "", "", Rule::kBool, &S::verify_analytic},
  };
  return knobs;
}

const Knob& FindKnob(const std::string& key) {
  for (const Knob& knob : Knobs()) {
    if (key == knob.key) return knob;
  }
  throw util::Error("no netsim knob '" + key + "'");
}

/// The message tail for a number `rule` rejects ("must be > 0 (got 0)"),
/// or "" when it holds.
std::string RangeError(Rule rule, const Knob& knob, double v) {
  const std::string got = " (got " + NumStr(v) + ")";
  switch (rule) {
    case Rule::kCount:
      if (v != std::floor(v) || std::abs(v) > 9.0e15) {
        return "expected an integer, got " + NumStr(v);
      }
      if (v < static_cast<double>(knob.min)) {
        return "must be >= " + std::to_string(knob.min) + got;
      }
      if (knob.max > 0 && v > static_cast<double>(knob.max)) {
        return "must be in " + std::to_string(knob.min) + ".." +
               std::to_string(knob.max) + got;
      }
      return "";
    case Rule::kPositive:
    case Rule::kPositiveList:
      return v > 0.0 ? "" : "must be > 0" + got;
    case Rule::kNonNegative:
      return v >= 0.0 ? "" : "must be >= 0" + got;
    case Rule::kLossProb:
      return v >= 0.0 && v < 1.0 ? "" : "must be in [0, 1)" + got;
    case Rule::kOpenFraction:
      return v > 0.0 && v <= 1.0 ? "" : "must be in (0, 1]" + got;
    case Rule::kClosedFraction:
      return v >= 0.0 && v <= 1.0 ? "" : "must be in [0, 1]" + got;
    default:
      return "";
  }
}

/// `v` as a number `rule` accepts; `where` names the value's source.
double CheckedNumber(Rule rule, const Knob& knob, const util::JsonValue& v,
                     const std::string& where) {
  if (!v.is_number()) {
    Fail(where + ": expected a number, got " + v.TypeName());
  }
  const std::string error = RangeError(rule, knob, v.AsNumber());
  if (!error.empty()) Fail(where + ": " + error);
  return v.AsNumber();
}

/// Check `v` against `knob`'s rule and store it in the knob's field.
/// `where` names the source in any error: "spec: $.topology.cols" for a
/// spec file, "flag --cols" for a flag.
void Apply(const Knob& knob, const util::JsonValue& v, const std::string& where,
           ScenarioSpec& spec) {
  std::visit(
      [&](auto field) {
        auto& slot = spec.*field;
        using T = std::decay_t<decltype(slot)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (knob.rule == Rule::kSection) {
            slot = true;  // the caller checked that the section is an object
            return;
          }
          if (!v.is_bool()) {
            Fail(where + ": expected a boolean, got " + v.TypeName());
          }
          slot = v.AsBool();
        } else if constexpr (std::is_same_v<T, std::string>) {
          if (!v.is_string()) {
            Fail(where + ": expected a string, got " + v.TypeName());
          }
          if (std::find(knob.choices.begin(), knob.choices.end(),
                        v.AsString()) == knob.choices.end()) {
            Fail(where + ": unknown value '" + v.AsString() +
                 "' (one of: " + Join(knob.choices) + ")");
          }
          slot = v.AsString();
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          if (!v.is_array()) {
            Fail(where + ": expected an array of numbers, got " +
                 v.TypeName());
          }
          if (v.Items().empty()) {
            Fail(where + ": needs at least 1 entry (got 0)");
          }
          std::vector<double> values;
          for (std::size_t i = 0; i < v.Items().size(); ++i) {
            values.push_back(CheckedNumber(
                knob.rule, knob, v.Items()[i],
                where + "[" + std::to_string(i) + "]"));
          }
          slot = std::move(values);
        } else {
          slot = static_cast<T>(CheckedNumber(knob.rule, knob, v, where));
        }
      },
      knob.field);
}

// ------------------------------------------------------------------ flags

util::JsonValue FlagNumber(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v)) {
    Fail(where + ": expected a number, got '" + text + "'");
  }
  return util::JsonValue::MakeNumber(v);
}

/// A flag's text as the value its spec key would hold, or nothing for a
/// boolean flag that is off.  Numbers parse with strtod, so a flag may
/// spell `.5`, which JSON forbids; a CSV flag becomes a list.
std::optional<util::JsonValue> FlagValue(const Knob& knob,
                                         const std::string& text,
                                         const std::string& where) {
  if (*knob.hint == '\0') {
    const bool on = text == "true" || text == "1" || text == "yes";
    if (!on && text != "false" && text != "0" && text != "no") {
      Fail(where + ": expected a boolean, got '" + text + "'");
    }
    if (!on) return std::nullopt;
    if (knob.rule == Rule::kSection) return util::JsonValue::MakeObject({});
    return util::JsonValue::MakeString(knob.flag);
  }
  if (knob.rule == Rule::kChoice) return util::JsonValue::MakeString(text);
  if (knob.rule != Rule::kPositiveList) return FlagNumber(text, where);
  std::vector<util::JsonValue> items;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    items.push_back(FlagNumber(text.substr(start, comma - start), where));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return util::JsonValue::MakeArray(std::move(items));
}

/// `--help`'s default of a flag: the study default, or "" for a boolean
/// flag and for a default outside the knob's rule (a derived default
/// such as jam-duration's horizon/10).
std::string DefaultText(const Knob& knob, const ScenarioSpec& defaults) {
  if (*knob.hint == '\0') return "";
  return std::visit(
      [&](auto field) -> std::string {
        const auto& value = defaults.*field;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return value;
        } else if constexpr (std::is_same_v<T, std::vector<double>>) {
          std::string out;
          for (const double v : value) {
            out += (out.empty() ? "" : ",") + NumStr(v);
          }
          return out;
        } else {
          const double v = static_cast<double>(value);
          return RangeError(knob.rule, knob, v).empty() ? NumStr(v) : "";
        }
      },
      knob.field);
}

// ------------------------------------------------------------- generic

/// The knobs a generic sweep axis may vary, sorted as messages list them.
/// Every one is a number field.
constexpr const char* kSweepable[] = {
    "cluster.head_fraction", "cluster.round_s",  "faults.crash_rate",
    "faults.outage_s",       "mac.p_loss",       "node.battery_mah",
    "node.rate",             "run.horizon_s",    "topology.hop",
    "topology.spacing",
};

/// Sorted column vocabulary of the generic study's cells table.
constexpr const char* kColumns[] = {
    "conserved",     "crashes",   "delivered", "delivery_ratio",
    "dropped",       "events",    "first_death_s", "generated",
    "healed",        "in_flight", "partition_s",   "recoveries",
};

void ParseSweep(const util::JsonValue& doc, ScenarioSpec& g) {
  const util::JsonValue* sv = doc.Find("sweep");
  if (sv == nullptr) return;
  if (!sv->is_array()) {
    SpecFail("$.sweep: expected an array of axis objects, got " +
             std::string(sv->TypeName()));
  }
  const auto& items = sv->Items();
  if (items.size() > 3) {
    SpecFail("$.sweep: at most 3 axes (got " + std::to_string(items.size()) +
             ")");
  }
  std::size_t cells = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string at = "$.sweep[" + std::to_string(i) + "]";
    const util::JsonValue& item = items[i];
    if (!item.is_object()) {
      SpecFail(at + ": expected an axis object, got " + item.TypeName());
    }
    for (const auto& [member, value] : item.Members()) {
      if (member != "key" && member != "values") {
        SpecFail("unknown key '" + member + "' at " + at +
                 " (accepted: key, values)");
      }
    }
    const util::JsonValue* key = item.Find("key");
    if (key == nullptr) SpecFail("missing required key 'key' at " + at);
    const util::JsonValue* vals = item.Find("values");
    if (vals == nullptr) SpecFail("missing required key 'values' at " + at);
    if (!key->is_string()) {
      SpecFail(at + ".key: expected a string, got " + key->TypeName());
    }
    SweepAxis axis;
    axis.key = key->AsString();
    if (std::find(std::begin(kSweepable), std::end(kSweepable), axis.key) ==
        std::end(kSweepable)) {
      SpecFail(at + ".key: '" + axis.key +
               "' is not sweepable (sweepable: " + Join(kSweepable) + ")");
    }
    for (const SweepAxis& seen : g.sweep) {
      if (seen.key == axis.key) {
        SpecFail(at + ".key: duplicate axis '" + axis.key + "'");
      }
    }
    if (axis.key.rfind("cluster.", 0) == 0 && !g.clustered) {
      SpecFail(at + ".key: '" + axis.key + "' requires a cluster section");
    }
    if (!vals->is_array()) {
      SpecFail(at + ".values: expected an array of numbers, got " +
               vals->TypeName());
    }
    if (vals->Items().empty()) {
      SpecFail(at + ".values: needs at least 1 entry (got 0)");
    }
    // A swept fault knob must be > 0: 0 is the base spec's "off", and a
    // crash rate needs an outage length.
    const Knob& knob = FindKnob(axis.key);
    const Rule rule =
        knob.rule == Rule::kNonNegative ? Rule::kPositive : knob.rule;
    for (std::size_t j = 0; j < vals->Items().size(); ++j) {
      axis.values.push_back(CheckedNumber(
          rule, knob, vals->Items()[j],
          "spec: " + at + ".values[" + std::to_string(j) + "]"));
    }
    cells *= axis.values.size();
    g.sweep.push_back(std::move(axis));
  }
  if (cells > 64) {
    SpecFail("$.sweep: " + std::to_string(cells) +
             " cells exceed the 64-cell cap (axis lengths multiply)");
  }
}

void ParseColumns(const util::JsonValue& doc, ScenarioSpec& g) {
  const util::JsonValue* output = doc.Find("output");
  if (output == nullptr) return;
  if (!output->is_object()) {
    SpecFail("$.output: expected an object, got " +
             std::string(output->TypeName()));
  }
  for (const auto& [member, value] : output->Members()) {
    if (member != "columns") {
      SpecFail("unknown key '" + member + "' at $.output (accepted: columns)");
    }
  }
  const util::JsonValue* cols = output->Find("columns");
  if (cols == nullptr) return;
  if (!cols->is_array()) {
    SpecFail("$.output.columns: expected an array of column names, got " +
             std::string(cols->TypeName()));
  }
  if (cols->Items().empty()) {
    SpecFail("$.output.columns: needs at least 1 entry (got 0)");
  }
  std::vector<std::string> columns;
  for (std::size_t i = 0; i < cols->Items().size(); ++i) {
    const std::string at = "$.output.columns[" + std::to_string(i) + "]";
    const util::JsonValue& item = cols->Items()[i];
    if (!item.is_string()) {
      SpecFail(at + ": expected a string, got " + item.TypeName());
    }
    const std::string& name = item.AsString();
    if (std::find(std::begin(kColumns), std::end(kColumns), name) ==
        std::end(kColumns)) {
      SpecFail(at + ": unknown column '" + name +
               "' (available: " + Join(kColumns) + ")");
    }
    if (std::find(columns.begin(), columns.end(), name) != columns.end()) {
      SpecFail(at + ": duplicate column '" + name + "'");
    }
    columns.push_back(name);
  }
  g.columns = std::move(columns);
}

/// The first generic knob that makes the analytic cross-check invalid,
/// or "" when the spec is analytically comparable.
std::string AnalyticConflict(const ScenarioSpec& g) {
  if (g.clustered) {
    return "the cluster section (the analytic estimator models flat greedy "
           "routing)";
  }
  if (g.traffic == "bursty") {
    return "traffic.kind 'bursty' (the analytic estimator assumes steady "
           "Poisson traffic)";
  }
  if (g.crash_rate_hz > 0.0 || g.jam_windows > 0 || g.sink_outages > 0) {
    return "the faults section (the analytic estimator has no fault model)";
  }
  if (g.p_loss > 0.0) {
    return "mac.p_loss > 0 (the analytic estimator assumes a lossless MAC)";
  }
  if (g.wakeup_interval_s > 0.0) {
    return "mac.wakeup_interval_s > 0 (the analytic estimator assumes an "
           "always-on MAC)";
  }
  if (g.rerouting) {
    return "routing.rerouting true (disable rerouting so the simulated first "
           "death matches the static routes)";
  }
  if (g.stop_at != "first_death") {
    return "run.stop_at '" + g.stop_at +
           "' (use 'first_death' so the run measures lifetime)";
  }
  if (g.sinks > 1) {
    return "topology.sinks > 1 (the analytic estimator models a single "
           "sink)";
  }
  return "";
}

// ------------------------------------------------- generic interpreter

/// One expanded sweep cell: the base spec with axis values applied.
struct SpecCell {
  ScenarioSpec spec;
  std::string label;
};

std::vector<SpecCell> ExpandCells(const ScenarioSpec& g) {
  std::vector<SpecCell> cells{{g, ""}};
  for (const SweepAxis& axis : g.sweep) {
    std::vector<SpecCell> next;
    next.reserve(cells.size() * axis.values.size());
    for (const SpecCell& cell : cells) {
      for (const double v : axis.values) {
        SpecCell expanded = cell;
        expanded.spec.*std::get<double ScenarioSpec::*>(
                            FindKnob(axis.key).field) = v;
        if (!expanded.label.empty()) expanded.label += " ";
        expanded.label += axis.key + "=" + NumStr(v);
        next.push_back(std::move(expanded));
      }
    }
    cells = std::move(next);
  }
  for (SpecCell& cell : cells) {
    if (cell.label.empty()) cell.label = "base";
  }
  return cells;
}

ResultSet RunGenericStudy(const ScenarioContext& ctx, const ScenarioSpec& g) {
  const std::vector<SpecCell> cells = ExpandCells(g);

  ResultSet results(
      "declarative generic study: conservation-checked sweep cells");
  results.SetMeta("study", "generic");
  results.SetMeta("cells", std::to_string(cells.size()));
  results.SetMeta("replications", std::to_string(g.replications));
  results.SetMeta("seed", std::to_string(g.seed));
  std::string verify = "conservation";
  if (g.verify_oracle) verify += " + oracle";
  if (g.verify_analytic) verify += " + analytic";
  results.SetMeta("verify", verify);

  std::vector<std::string> header{"cell"};
  for (const std::string& column : g.columns) header.push_back(column);
  if (g.verify_analytic) {
    header.push_back("analytic first death (s)");
    header.push_back("rel err");
  }
  ResultTable& table = results.AddTable("cells", header);

  // The whole cell — production run, oracle twin, analytic check and
  // column formatting — is one sweep point, run (or replayed) through
  // the point harness; `cctx` may carry a forked worker's executor.
  const auto run_cell = [&](const ScenarioContext& cctx,
                            const SpecCell& cell) -> std::vector<std::string> {
    const netsim::NetSimConfig cfg = BuildNetSimConfig(cell.spec);
    const std::string where = "spec cell '" + cell.label + "'";
    const netsim::ReplicationSummary summary =
        RunCheckedBatch(cctx, cfg, cell.spec, where, g.verify_oracle);

    double analytic_s = 0.0;
    if (g.verify_analytic) {
      const core::MarkovCpuModel model;
      const node::Network analytic_net(cfg.network, cfg.positions);
      const node::NetworkReport analytic =
          cfg.classes.empty()
              ? analytic_net.Evaluate(model)
              : analytic_net.Evaluate(model, netsim::PerNodeConfigs(cfg));
      analytic_s = analytic.network_lifetime_seconds;
      if (summary.first_death_s.observed != g.replications) {
        throw util::Error(
            where + ": verify.analytic needs a death in every replication "
            "(observed " +
            std::to_string(summary.first_death_s.observed) + "/" +
            std::to_string(g.replications) +
            "; raise run.horizon_s or shrink node.battery_mah)");
      }
      const double mean = summary.first_death_s.ci.mean;
      const double bound = std::max(3.0 * summary.first_death_s.ci.half_width,
                                    0.1 * analytic_s);
      if (std::abs(mean - analytic_s) > bound) {
        throw util::Error(
            where + ": simulated first death " + util::FormatFixed(mean, 1) +
            " s strayed from the analytic estimate " +
            util::FormatFixed(analytic_s, 1) + " s (bound " +
            util::FormatFixed(bound, 1) + " s)");
      }
    }

    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t in_flight = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t events = 0;
    std::size_t healed = 0;
    for (const netsim::NetSimReport& report : summary.reports) {
      crashes += report.crashes;
      recoveries += report.recoveries;
      in_flight += report.in_flight;
      generated += report.packets.generated;
      delivered += report.packets.delivered;
      dropped += report.packets.TotalDropped();
      events += report.events;
      if (std::isfinite(report.heal_s)) ++healed;
    }

    std::vector<std::string> row{cell.label};
    for (const std::string& column : g.columns) {
      if (column == "generated") {
        row.push_back(std::to_string(generated));
      } else if (column == "delivered") {
        row.push_back(std::to_string(delivered));
      } else if (column == "dropped") {
        row.push_back(std::to_string(dropped));
      } else if (column == "crashes") {
        row.push_back(std::to_string(crashes));
      } else if (column == "recoveries") {
        row.push_back(std::to_string(recoveries));
      } else if (column == "events") {
        row.push_back(std::to_string(events));
      } else if (column == "in_flight") {
        row.push_back(std::to_string(in_flight));
      } else if (column == "delivery_ratio") {
        row.push_back(MetricCell(summary.delivery_ratio, 4));
      } else if (column == "first_death_s") {
        row.push_back(MetricCell(summary.first_death_s, 1));
      } else if (column == "partition_s") {
        row.push_back(MetricCell(summary.partition_s, 1));
      } else if (column == "healed") {
        row.push_back(ObservedCell(healed, summary.replications));
      } else {  // conserved — RunCheckedBatch hard-fails otherwise
        row.push_back("yes");
      }
    }
    if (g.verify_analytic) {
      const double mean = summary.first_death_s.ci.mean;
      row.push_back(util::FormatFixed(analytic_s, 1));
      row.push_back(
          util::FormatFixed(100.0 * std::abs(mean - analytic_s) / analytic_s,
                            2) +
          " %");
    }
    return row;
  };

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SpecCell& cell = cells[i];
    RunPointRow(ctx, table,
                "cell " + std::to_string(i) + ": " + cell.label, g.seed,
                cell.label,
                [&run_cell, &cell](const ScenarioContext& cctx,
                                   const PointEnv&) {
                  return run_cell(cctx, cell);
                });
  }

  results.AddNote(
      "every cell asserted packet conservation on every replication" +
      std::string(g.verify_oracle
                      ? "; every replication also ran against its "
                        "full-recompute oracle twin and matched field for "
                        "field"
                      : "") +
      std::string(g.verify_analytic
                      ? "; the simulated first death was checked against "
                        "the closed-form estimator within max(3 CI "
                        "half-widths, 10%)"
                      : "") +
      ".  All columns are deterministic per seed: any --threads value "
      "produces byte-identical output.");
  return results;
}


// ------------------------------------------------------------ study table

/// A netsim study: the knobs it accepts — its flags and its spec schema,
/// in flag order — its defaults, its service floor and its runner.  A
/// setting the study fixes is the default of a key it does not accept.
struct Study {
  const char* name;  ///< the spec's `study` value
  bool in_files;     ///< false: flags only (cluster-ablation)
  /// The node's service rate is 10 x max(report rate, service_floor).
  double service_floor;
  std::vector<const char*> keys;
  ScenarioSpec (*defaults)();
  ResultSet (*run)(const ScenarioContext&, const ScenarioSpec&);
};

/// Defaults shared by the clustered, heterogeneous and cluster-ablation
/// grids.
ScenarioSpec GridDefaults() {
  ScenarioSpec s;
  s.rate_hz = 2.0;
  s.horizon_s = 2000.0;
  s.replications = 8;
  return s;
}

/// GridDefaults for the two of them that cluster.
ScenarioSpec ClusteredGridDefaults() {
  ScenarioSpec s = GridDefaults();
  s.clustered = true;
  return s;
}

const std::vector<Study>& Studies() {
  // The grid studies' leading flags, then `more`.
  const auto grid = [](std::initializer_list<const char*> more) {
    std::vector<const char*> keys = {
        "topology.cols",  "topology.rows",    "topology.spacing",
        "node.rate",      "node.battery_mah", "run.horizon_s",
        "run.replications", "run.seed",       "topology.hop"};
    keys.insert(keys.end(), more);
    return keys;
  };
  static const std::vector<Study> studies = {
      {"lifetime", true, 0.0,
       {"topology.cols", "topology.rows", "topology.spacing", "topology.hop",
        "node.rate", "node.battery_mah", "run.horizon_s", "run.replications",
        "run.seed", "traffic.kind"},
       [] {
         ScenarioSpec s;
         s.cols = 10;
         s.rows = 5;
         s.rate_hz = 2.0;
         s.traffic = "bursty";
         s.horizon_s = 4000.0;
         s.stop_at = "partition";  // measure the connected phase
         s.replications = 8;
         return s;
       },
       RunLifetimeStudy},
      {"throughput", true, 0.0,
       {"topology.cols", "topology.rows", "topology.spacing", "topology.hop",
        "node.rate", "run.horizon_s", "run.replications", "run.seed",
        "cluster"},
       [] {
         ScenarioSpec s;
         s.cols = 10;
         s.rows = 10;
         s.spacing_m = 25.0;
         s.rate_hz = 2.0;
         s.battery_mah = node::NodeConfig{}.battery_mah;
         s.horizon_s = 30.0;
         s.replications = 32;
         return s;
       },
       RunThroughputStudy},
      {"clustered", true, 0.0,
       grid({"cluster.protocol", "cluster.head_fraction",
             "cluster.static_heads", "cluster.round_s", "cluster.aggregation",
             "topology.sinks"}),
       ClusteredGridDefaults, RunClusteredStudy},
      // Static routes up to the first death: the analytic estimator's
      // regime.
      {"heterogeneous", true, 0.0,
       grid({"classes.advanced_fraction", "classes.battery_factor",
             "classes.placement"}),
       [] {
         ScenarioSpec s = GridDefaults();
         s.rows = 4;
         s.rerouting = false;
         s.stop_at = "first_death";
         s.replications = 16;
         s.advanced_fraction = 0.2;
         s.battery_factor = 3.0;
         return s;
       },
       RunHeterogeneousStudy},
      {"faults", true, 0.1,
       {"topology.nodes", "topology.spacing", "topology.hop", "node.rate",
        "run.horizon_s", "faults.crash_rates", "faults.outages",
        "faults.jam_windows", "faults.jam_radius", "faults.jam_duration",
        "faults.jam_p_loss", "faults.sink_outages", "faults.sink_outage_s",
        "run.replications", "run.seed"},
       [] {
         ScenarioSpec s;
         s.nodes = 144;
         s.rate_hz = 0.05;
         s.battery_mah = node::NodeConfig{}.battery_mah;
         s.horizon_s = 2000.0;
         s.crash_rates = {0.0002, 0.001};
         s.outages = {100.0, 400.0};
         s.jam_windows = 2;
         s.sink_outages = 1;
         return s;
       },
       RunFaultStudy},
      // The ablation runs every protocol, so it takes no --protocol.
      {"cluster-ablation", false, 0.0,
       grid({"cluster.head_fraction", "cluster.static_heads",
             "cluster.round_s", "cluster.aggregation", "topology.sinks"}),
       ClusteredGridDefaults, RunClusterAblation},
      // Every knob but the faults study's sweep lists.
      {"generic", true, 0.1,
       {"topology.cols", "topology.rows", "topology.nodes", "topology.spacing",
        "topology.hop", "topology.sinks", "node.rate", "node.battery_mah",
        "traffic.kind", "mac.p_loss", "mac.wakeup_interval_s",
        "mac.max_retries", "mac.max_queue", "routing.rerouting", "cluster",
        "cluster.protocol", "cluster.head_fraction", "cluster.static_heads",
        "cluster.round_s", "cluster.aggregation", "classes.advanced_fraction",
        "classes.battery_factor", "classes.placement", "faults.crash_rate",
        "faults.outage_s", "faults.jam_windows", "faults.jam_radius",
        "faults.jam_duration", "faults.jam_p_loss", "faults.sink_outages",
        "faults.sink_outage_s", "run.horizon_s", "run.stop_at",
        "run.replications", "run.seed", "verify.oracle", "verify.analytic"},
       [] {
         ScenarioSpec s;
         s.columns = {"generated",      "delivered",     "dropped",
                      "delivery_ratio", "first_death_s", "conserved"};
         return s;
       },
       RunGenericStudy},
  };
  return studies;
}

const Study* FindStudy(const std::string& name) {
  for (const Study& study : Studies()) {
    if (name == study.name) return &study;
  }
  return nullptr;
}

const Study& RequireStudy(const std::string& name) {
  const Study* study = FindStudy(name);
  if (study == nullptr) throw util::Error("no netsim study '" + name + "'");
  return *study;
}

/// The knob behind `key` when `study` accepts it, else null.
const Knob* StudyKnob(const Study& study, const std::string& key) {
  for (const char* k : study.keys) {
    if (key == k) return &FindKnob(key);
  }
  return nullptr;
}

/// Two named node classes, "advanced" nodes carrying battery_factor
/// times the standard battery, on round(advanced_fraction * n) nodes:
/// those with the highest analytic relay load ("hotspot") or strided
/// through the index order ("spread").
void AssignNodeClasses(netsim::NetSimConfig& cfg, const ScenarioSpec& spec) {
  netsim::NodeClass standard;
  standard.name = "standard";
  standard.battery_mah = cfg.network.node.battery_mah;
  standard.battery_volts = cfg.network.node.battery_volts;
  standard.radio = cfg.network.node.radio;
  standard.listen_duty_cycle = cfg.network.node.listen_duty_cycle;
  netsim::NodeClass advanced = standard;
  advanced.name = "advanced";
  advanced.battery_mah = standard.battery_mah * spec.battery_factor;
  cfg.classes = {standard, advanced};

  const std::size_t n = cfg.positions.size();
  const std::size_t advanced_count = static_cast<std::size_t>(
      std::lround(spec.advanced_fraction * static_cast<double>(n)));
  cfg.node_class.assign(n, "standard");
  if (advanced_count > 0 && spec.placement == "hotspot") {
    // The big batteries go to the nodes the analytic estimator says
    // carry the most relay traffic — the hot path near the sink, where
    // per-node hardware actually moves the first-death time.
    const core::MarkovCpuModel model;
    const node::NetworkReport load =
        node::Network(cfg.network, cfg.positions).Evaluate(model);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const double la = load.nodes[a].relay_packets_per_second;
      const double lb = load.nodes[b].relay_packets_per_second;
      if (la != lb) return la > lb;
      return a < b;
    });
    for (std::size_t j = 0; j < advanced_count; ++j) {
      cfg.node_class[order[j]] = "advanced";
    }
  } else if (advanced_count > 0) {  // spread: strided, blind to load
    for (std::size_t j = 0; j < advanced_count; ++j) {
      const std::size_t pick = (j * n + n / 2) / advanced_count;
      cfg.node_class[std::min(pick, n - 1)] = "advanced";
    }
  }
}

/// The sorted member names `study` accepts in `section`.
std::vector<std::string> SectionKeys(const Study& study,
                                     const std::string& section) {
  std::vector<std::string> members;
  for (const std::string key : study.keys) {
    if (key.rfind(section + ".", 0) == 0) {
      members.push_back(key.substr(section.size() + 1));
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

}  // namespace

ScenarioSpec ParseScenarioSpec(const std::string& json_text) {
  const util::JsonValue doc = util::ParseJson(json_text);
  if (!doc.is_object()) {
    SpecFail("expected a JSON object at $, got " + std::string(doc.TypeName()));
  }
  std::vector<std::string> names;
  for (const Study& s : Studies()) {
    if (s.in_files) names.push_back(s.name);
  }
  std::sort(names.begin(), names.end());
  const util::JsonValue* name = doc.Find("study");
  if (name == nullptr) {
    SpecFail("missing required key 'study' at $ (one of: " + Join(names) + ")");
  }
  if (!name->is_string()) {
    SpecFail("$.study: expected a string, got " +
             std::string(name->TypeName()));
  }
  const Study* study = FindStudy(name->AsString());
  if (study == nullptr || !study->in_files) {
    SpecFail("$.study: unknown study '" + name->AsString() +
             "' (one of: " + Join(names) + ")");
  }
  ScenarioSpec spec = study->defaults();
  spec.study = study->name;
  const bool generic = spec.study == "generic";

  std::vector<std::string> sections{"study"};
  if (generic) sections.insert(sections.end(), {"output", "sweep"});
  for (const std::string key : study->keys) {
    const std::string section = key.substr(0, key.find('.'));
    if (std::find(sections.begin(), sections.end(), section) ==
        sections.end()) {
      sections.push_back(section);
    }
  }
  std::sort(sections.begin(), sections.end());

  for (const auto& [section, value] : doc.Members()) {
    if (std::find(sections.begin(), sections.end(), section) ==
        sections.end()) {
      SpecFail("unknown key '" + section + "' at $ (accepted for study '" +
               spec.study + "': " + Join(sections) + ")");
    }
    if (section == "study" || section == "sweep" || section == "output") {
      continue;
    }
    const std::string path = "$." + section;
    if (!value.is_object()) {
      SpecFail(path + ": expected an object, got " + value.TypeName());
    }
    if (const Knob* presence = StudyKnob(*study, section)) {
      Apply(*presence, value, "spec: " + path, spec);
    }
    if (spec.study == "throughput" && section == "cluster" &&
        !value.Members().empty()) {
      SpecFail(path +
               ": study 'throughput' derives its cluster knobs (round = "
               "horizon/5, aggregation 4); pass an empty object to enable "
               "the clustered data path");
    }
    for (const auto& [member, v] : value.Members()) {
      const Knob* knob = StudyKnob(*study, section + "." + member);
      if (knob == nullptr) {
        SpecFail("unknown key '" + member + "' at " + path + " (accepted: " +
                 Join(SectionKeys(*study, section)) + ")");
      }
      Apply(*knob, v, "spec: " + path + "." + member, spec);
    }
  }
  if (!generic) return spec;

  const util::JsonValue* topology = doc.Find("topology");
  if (topology != nullptr && topology->Find("nodes") != nullptr &&
      (topology->Find("cols") != nullptr ||
       topology->Find("rows") != nullptr)) {
    SpecFail(
        "$.topology: 'nodes' conflicts with 'cols'/'rows' (a 'nodes' "
        "deployment derives its own near-square grid)");
  }
  if (spec.crash_rate_hz > 0.0 && !(spec.outage_s > 0.0)) {
    SpecFail("$.faults: 'crash_rate' > 0 requires 'outage_s' > 0");
  }
  ParseSweep(doc, spec);
  ParseColumns(doc, spec);
  if (spec.verify_analytic) {
    const std::string conflict = AnalyticConflict(spec);
    if (!conflict.empty()) {
      SpecFail("$.verify.analytic: conflicts with " + conflict);
    }
    for (const SweepAxis& axis : spec.sweep) {
      if (axis.key == "mac.p_loss" || axis.key == "faults.crash_rate" ||
          axis.key == "faults.outage_s") {
        SpecFail("$.verify.analytic: conflicts with sweep axis '" + axis.key +
                 "'");
      }
    }
  }
  return spec;
}

ScenarioSpec LoadScenarioSpecFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::InvalidArgument("spec: cannot read file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return ParseScenarioSpec(text.str());
  } catch (const util::InvalidArgument& e) {
    throw util::InvalidArgument(path + ": " + e.what());
  }
}

std::vector<util::FlagSpec> StudyFlags(const std::string& study) {
  const Study& s = RequireStudy(study);
  const ScenarioSpec defaults = s.defaults();
  std::vector<util::FlagSpec> flags;
  for (const char* key : s.keys) {
    const Knob& knob = FindKnob(key);
    if (knob.flag == nullptr) continue;
    flags.push_back(
        {knob.flag, knob.hint, DefaultText(knob, defaults), knob.help});
  }
  return flags;
}

ScenarioSpec StudySpecFromArgs(const std::string& study,
                               const util::CliArgs& args) {
  const Study& s = RequireStudy(study);
  ScenarioSpec spec = s.defaults();
  spec.study = s.name;
  for (const char* key : s.keys) {
    const Knob& knob = FindKnob(key);
    if (knob.flag == nullptr || !args.Has(knob.flag)) continue;
    const std::string where = std::string("flag --") + knob.flag;
    const std::optional<util::JsonValue> value =
        FlagValue(knob, args.GetString(knob.flag, ""), where);
    if (value) Apply(knob, *value, where, spec);
  }
  return spec;
}

double PositiveFlag(const util::CliArgs& args, const std::string& name,
                    double fallback) {
  if (!args.Has(name)) return fallback;
  const std::string where = "flag --" + name;
  const double v = FlagNumber(args.GetString(name, ""), where).AsNumber();
  if (!(v > 0.0)) Fail(where + ": must be > 0 (got " + NumStr(v) + ")");
  return v;
}

ResultSet RunSpec(const ScenarioContext& ctx, const ScenarioSpec& spec) {
  return RequireStudy(spec.study).run(ctx, spec);
}

netsim::NetSimConfig BuildNetSimConfig(const ScenarioSpec& g) {
  netsim::NetSimConfig cfg;
  cfg.network.node.cpu.arrival_rate = g.rate_hz;
  cfg.network.node.cpu.service_rate =
      10.0 * std::max(g.rate_hz, RequireStudy(g.study).service_floor);
  cfg.network.node.cpu_power = energy::Msp430();
  cfg.network.node.sample_bits = 1024;
  cfg.network.node.listen_duty_cycle = 0.01;
  cfg.network.node.battery_mah = g.battery_mah;
  cfg.network.sink = {0.0, 0.0};
  cfg.network.max_hop_m = g.hop_m;

  // A `nodes` deployment is a near-square grid trimmed to n nodes.
  std::size_t cols = g.cols;
  std::size_t rows = g.rows;
  if (g.nodes > 0) {
    cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(g.nodes))));
    rows = (g.nodes + cols - 1) / cols;
  }
  cfg.positions = node::MakeGrid(cols, rows, g.spacing_m);
  if (g.nodes > 0) cfg.positions.resize(g.nodes);
  cfg.horizon_s = g.horizon_s;

  // Extra sinks at the deployment's corners: 2 adds the far corner, 3
  // and 4 the other two (one sink stays at the origin corner).
  const double x_max = (static_cast<double>(cols) + 1.0) * g.spacing_m;
  const double y_max = (static_cast<double>(rows) + 1.0) * g.spacing_m;
  if (g.sinks >= 2) cfg.sinks = {{0.0, 0.0}, {x_max, y_max}};
  if (g.sinks >= 3) cfg.sinks.push_back({x_max, 0.0});
  if (g.sinks >= 4) cfg.sinks.push_back({0.0, y_max});

  cfg.mac.p_loss = g.p_loss;
  cfg.mac.wakeup_interval_s = g.wakeup_interval_s;
  cfg.mac.max_retries = g.max_retries;
  cfg.mac.max_queue = g.max_queue;

  cfg.rerouting = g.rerouting;
  cfg.stop_at_first_death = g.stop_at == "first_death";
  cfg.stop_at_partition = g.stop_at == "partition";

  if (g.clustered) {
    cfg.cluster.protocol = netsim::ParseClusterProtocolKind(g.protocol);
    cfg.cluster.head_fraction = g.head_fraction;
    cfg.cluster.static_heads = g.static_heads;
    cfg.cluster.round_s = g.round_s;
    cfg.cluster.aggregation = g.aggregation;
  }
  if (g.traffic == "bursty") {
    // Event storms: mostly quiet at 20% of the report rate, with bursts
    // at 10x (long-run mean close to the report rate).
    const double rate = g.rate_hz;
    cfg.traffic_factory = [rate](std::size_t) {
      return std::make_unique<des::MmppWorkload>(
          std::vector<double>{0.2 * rate, 10.0 * rate},
          std::vector<std::vector<double>>{{-0.02, 0.02}, {0.2, -0.2}});
    };
  }

  if (g.crash_rate_hz > 0.0) {
    cfg.faults.crash_rate_hz = g.crash_rate_hz;
    cfg.faults.mean_outage_s = g.outage_s;
  }
  if (g.jam_windows > 0) {
    cfg.faults.jam_windows = g.jam_windows;
    cfg.faults.jam_radius_m = g.jam_radius_m;
    cfg.faults.jam_duration_s =
        g.jam_duration_s > 0.0 ? g.jam_duration_s : g.horizon_s / 10.0;
    cfg.faults.jam_p_loss = g.jam_p_loss;
  }
  if (g.sink_outages > 0) {
    cfg.faults.sink_outages = g.sink_outages;
    cfg.faults.sink_outage_s =
        g.sink_outage_s > 0.0 ? g.sink_outage_s : g.horizon_s / 10.0;
  }

  if (g.advanced_fraction > 0.0) AssignNodeClasses(cfg, g);
  return cfg;
}

}  // namespace wsn::scenario
