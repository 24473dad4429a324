/// \file
/// Structured result sink for the scenario engine.
///
/// Every scenario produces a ResultSet: an ordered list of named tables
/// plus free-form notes and (key, value) metadata.  One ResultSet renders
/// to all three supported sinks —
///
///   * text: the diff-friendly column-aligned format the paper-artifact
///     binaries have always printed (util::TextTable underneath);
///   * csv:  RFC-4180 rows, one block per table, each preceded by a
///     `# table: <name>` comment line so multi-table sets stay parseable;
///   * json: a single document {scenario, meta, notes, tables[...]} for
///     CI and BENCH_*.json consumers (util::JsonWriter underneath).
///
/// Cells are stored as already-formatted strings: formatting happens once,
/// in the scenario, so all three renderings agree byte-for-byte on the
/// numbers and the determinism tests can compare whole documents.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace wsn::scenario {

/// One named table of pre-formatted string cells.
struct ResultTable {
  std::string name;                           ///< table key ("summary", ...)
  std::vector<std::string> headers;           ///< column names
  std::vector<std::vector<std::string>> rows; ///< cells, one vector per row

  /// Append a row; arity must match the header.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: fixed-precision doubles.
  void AddNumericRow(const std::vector<double>& cells, int precision = 4);
};

/// The three rendering sinks a ResultSet supports.
enum class OutputFormat {
  kText,  ///< aligned, diff-friendly text
  kCsv,   ///< RFC-4180, one `# table:` block per table
  kJson,  ///< one JSON document
};

/// Parse "table" | "csv" | "json" (throws InvalidArgument otherwise).
OutputFormat ParseOutputFormat(const std::string& s);

/// Ordered collection of tables + metadata + notes a scenario returns.
class ResultSet {
 public:
  /// A result set for the scenario named `scenario_name`.
  explicit ResultSet(std::string scenario_name = "");

  /// The owning scenario's registry name.
  const std::string& ScenarioName() const noexcept { return scenario_; }

  /// Add a table and return a reference for row-filling (stable until the
  /// next AddTable call).
  ResultTable& AddTable(std::string name, std::vector<std::string> headers);

  /// Free-form commentary rendered after the tables (text), collected
  /// into a "notes" array (json), or emitted as `# note:` comment lines
  /// (csv).
  void AddNote(std::string note);

  /// Ordered metadata (effort knobs, seeds) for the json "meta" object;
  /// rendered as `# meta` comments in csv and a header block in text.
  void SetMeta(std::string key, std::string value);

  /// Render as aligned text (see file comment).
  std::string RenderText() const;
  /// Render as RFC-4180 CSV blocks (see file comment).
  std::string RenderCsv() const;
  /// Render as one JSON document (see file comment).
  std::string RenderJson() const;
  /// Render through the sink selected by `format`.
  std::string Render(OutputFormat format) const;

 private:
  std::string scenario_;
  std::vector<ResultTable> tables_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

}  // namespace wsn::scenario
