#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace wsn::util {

namespace {

/// `text` as the integer value of flag --name; partial parses ("3.9",
/// "10x") are rejected, not truncated: a typo'd sweep config must fail
/// loudly rather than alter results.
long ParseInt(const std::string& name, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  Require(end != text.c_str() && *end == '\0' && !text.empty(),
          "flag --" + name + " is not an integer: '" + text + "'");
  Require(errno != ERANGE,
          "flag --" + name + " is out of range: '" + text + "'");
  return v;
}

/// `text` as a count of flag --name, at least `min_value`.
std::size_t ParseCount(const std::string& name, const std::string& text,
                       std::size_t min_value) {
  const long v = ParseInt(name, text);
  Require(v >= 0, "flag --" + name + " must be non-negative, got " +
                      std::to_string(v));
  const auto u = static_cast<std::size_t>(v);
  Require(u >= min_value, "flag --" + name + " must be at least " +
                              std::to_string(min_value) + ", got " +
                              std::to_string(u));
  return u;
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is itself a flag (or absent),
    // in which case treat as boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::GetString(const std::string& name,
                               const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

double CliArgs::GetDouble(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  Require(end != it->second.c_str() && *end == '\0' && !it->second.empty(),
          "flag --" + name + " is not a number: '" + it->second + "'");
  // ERANGE also fires on underflow to a (representable) subnormal; only
  // overflow is an error.
  Require(!(errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)),
          "flag --" + name + " is out of range: '" + it->second + "'");
  return v;
}

long CliArgs::GetInt(const std::string& name, long fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : ParseInt(name, it->second);
}

bool CliArgs::GetBool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::size_t CliArgs::GetCount(const std::string& name, std::size_t fallback,
                              std::size_t min_value) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : ParseCount(name, it->second, min_value);
}

std::vector<std::size_t> CliArgs::GetCountList(
    const std::string& name, std::vector<std::size_t> fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  std::vector<std::size_t> counts;
  for (std::size_t start = 0; !text.empty();) {
    const std::size_t comma = text.find(',', start);
    counts.push_back(ParseCount(name, text.substr(start, comma - start), 0));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return counts;
}

std::vector<std::string> CliArgs::FlagNames() const {
  std::vector<std::string> names;
  names.reserve(flags_.size());
  for (const auto& [name, value] : flags_) names.push_back(name);
  return names;  // std::map iterates sorted
}

void RequireKnownFlags(const CliArgs& args,
                       const std::vector<FlagSpec>& known) {
  for (const std::string& name : args.FlagNames()) {
    if (name == "help") continue;
    const bool found =
        std::any_of(known.begin(), known.end(),
                    [&](const FlagSpec& f) { return f.name == name; });
    if (!found) {
      throw InvalidArgument("unknown flag --" + name +
                            " (run with --help for the accepted flags)");
    }
  }
}

std::string RenderHelp(const std::string& usage, const std::string& description,
                       const std::vector<FlagSpec>& flags) {
  std::ostringstream os;
  os << "usage: " << usage << "\n";
  if (!description.empty()) os << "\n" << description << "\n";
  if (flags.empty()) return os.str();
  os << "\nflags:\n";
  std::size_t width = 0;
  auto lhs = [](const FlagSpec& f) {
    return "--" + f.name + (f.value_hint.empty() ? "" : " " + f.value_hint);
  };
  for (const FlagSpec& f : flags) width = std::max(width, lhs(f).size());
  for (const FlagSpec& f : flags) {
    std::string left = lhs(f);
    left.append(width - left.size(), ' ');
    os << "  " << left << "  " << f.help;
    if (!f.default_value.empty()) os << " (default: " << f.default_value << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace wsn::util
