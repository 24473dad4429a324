// Tiny command-line flag parser for the scenario engine, examples and
// benchmark binaries.  Supports `--name value`, `--name=value` and
// boolean `--name` flags.
//
// Callers that know their full flag vocabulary (every scenario does)
// should declare it as a list of FlagSpec and call RequireKnownFlags:
// a typo'd flag then fails loudly instead of silently falling back to
// its default — the historical footgun this guards against.  The same
// specs drive the auto-generated --help text (RenderHelp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace wsn::util {

/// Declaration of one accepted flag, for validation and --help.
struct FlagSpec {
  std::string name;           ///< without the leading "--"
  std::string value_hint;     ///< e.g. "N", "SECONDS"; empty for booleans
  std::string default_value;  ///< rendered in --help; "" hides the default
  std::string help;           ///< one-line description
};

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  long GetInt(const std::string& name, long fallback) const;
  bool GetBool(const std::string& name, bool fallback = false) const;

  /// Non-negative integer with a lower bound — the safe front door for
  /// counts (replications, sweep points, seeds) that would otherwise be
  /// silently cast to unsigned.  Throws InvalidArgument when the flag
  /// parses negative or below `min_value`.
  std::size_t GetCount(const std::string& name, std::size_t fallback,
                       std::size_t min_value = 0) const;

  /// A comma-separated list of counts, each entry read as GetCount reads
  /// one value, so "-1", "3x" and an empty entry fail naming the flag.
  /// `fallback` when the flag is absent; no entries when it is empty.
  std::vector<std::size_t> GetCountList(
      const std::string& name, std::vector<std::size_t> fallback) const;

  /// Names of every flag present on the command line (sorted).
  std::vector<std::string> FlagNames() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& Positional() const noexcept {
    return positional_;
  }

  const std::string& ProgramName() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Throw InvalidArgument naming the first parsed flag not found in
/// `known` (and suggesting --help).  Flags named "help" are always
/// accepted.
void RequireKnownFlags(const CliArgs& args, const std::vector<FlagSpec>& known);

/// Auto-generated help text: usage line, description, one aligned row
/// per flag ("--name HINT   help (default: X)").
std::string RenderHelp(const std::string& usage, const std::string& description,
                       const std::vector<FlagSpec>& flags);

}  // namespace wsn::util
