// TextTable rendering, CSV escaping, CLI flag parsing and log levels.
#include <gtest/gtest.h>

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace wsn::util {
namespace {

TEST(TextTable, RendersHeaderRuleAndRows) {
  TextTable t({"a", "b"});
  t.AddRow({"1", "2"});
  const std::string s = t.Render();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_EQ(t.Rows(), 1u);
}

TEST(TextTable, RejectsAridityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), InvalidArgument);
}

TEST(TextTable, CsvQuotesCommas) {
  TextTable t({"name", "value"});
  t.AddRow({"a,b", "1"});
  const std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
}

TEST(TextTable, CsvEscapesQuotes) {
  TextTable t({"name"});
  t.AddRow({"say \"hi\","});
  EXPECT_NE(t.RenderCsv().find("\"say \"\"hi\"\",\""), std::string::npos);
}

TEST(TextTable, CsvQuotesEmbeddedNewlines) {
  TextTable t({"name", "value"});
  t.AddRow({"line1\nline2", "a\rb"});
  const std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"line1\nline2\""), std::string::npos);
  EXPECT_NE(csv.find("\"a\rb\""), std::string::npos);
}

TEST(TextTable, CsvQuotedCellWithQuoteAndNewlineTogether) {
  TextTable t({"h"});
  t.AddRow({"he said \"no\"\nthen left"});
  EXPECT_NE(t.RenderCsv().find("\"he said \"\"no\"\"\nthen left\""),
            std::string::npos);
}

TEST(TextTable, CsvEmptyCellsStayUnquoted) {
  TextTable t({"a", "b", "c"});
  t.AddRow({"", "x", ""});
  EXPECT_NE(t.RenderCsv().find(",x,\n"), std::string::npos);
}

TEST(TextTable, CsvHeaderOnlyTable) {
  TextTable t({"only", "headers"});
  EXPECT_EQ(t.RenderCsv(), "only,headers\n");
}

TEST(FormatHelpers, FixedAndInterval) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatInterval(1.0, 0.25, 2), "1.00 +- 0.25");
}

TEST(CliArgs, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--rate", "2.5", "--name=abc", "--flag"};
  CliArgs args(5, argv);
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.0), 2.5);
  EXPECT_EQ(args.GetString("name", ""), "abc");
  EXPECT_TRUE(args.GetBool("flag"));
  EXPECT_FALSE(args.GetBool("absent"));
}

TEST(CliArgs, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_DOUBLE_EQ(args.GetDouble("x", 7.5), 7.5);
  EXPECT_EQ(args.GetInt("n", 42), 42);
  EXPECT_EQ(args.GetString("s", "dflt"), "dflt");
}

TEST(CliArgs, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--v", "1", "out.txt"};
  CliArgs args(5, argv);
  ASSERT_EQ(args.Positional().size(), 2u);
  EXPECT_EQ(args.Positional()[0], "input.txt");
  EXPECT_EQ(args.Positional()[1], "out.txt");
}

TEST(CliArgs, IntegerParsing) {
  const char* argv[] = {"prog", "--n", "123"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.GetInt("n", 0), 123);
}

TEST(CliArgs, RejectsNonNumeric) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliArgs args(3, argv);
  EXPECT_THROW(args.GetInt("n", 0), InvalidArgument);
  EXPECT_THROW(args.GetDouble("n", 0.0), InvalidArgument);
}

TEST(CliArgs, RejectsPartialNumericParses) {
  // "3.9" must not silently truncate to 3, and trailing junk must fail.
  const char* argv[] = {"prog", "--points=3.9", "--n=10x", "--x=1.5e3junk"};
  CliArgs args(4, argv);
  EXPECT_THROW(args.GetInt("points", 0), InvalidArgument);
  EXPECT_THROW(args.GetInt("n", 0), InvalidArgument);
  EXPECT_THROW(args.GetDouble("x", 0.0), InvalidArgument);
  EXPECT_DOUBLE_EQ(args.GetDouble("points", 0.0), 3.9);
}

TEST(CliArgs, RejectsOutOfRangeIntegers) {
  const char* argv[] = {"prog", "--seed=99999999999999999999999"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.GetInt("seed", 0), InvalidArgument);
  EXPECT_THROW(args.GetCount("seed", 0), InvalidArgument);
}

TEST(CliArgs, GetCountRejectsNegativeAndBelowMinimum) {
  const char* argv[] = {"prog", "--seed=-3", "--reps=0", "--points=5"};
  CliArgs args(4, argv);
  EXPECT_THROW(args.GetCount("seed", 0), InvalidArgument);
  EXPECT_THROW(args.GetCount("reps", 1, 1), InvalidArgument);
  EXPECT_EQ(args.GetCount("points", 11, 2), 5u);
  EXPECT_EQ(args.GetCount("absent", 7, 1), 7u);
}

TEST(CliArgs, FlagNamesListsParsedFlagsSorted) {
  const char* argv[] = {"prog", "--zeta", "1", "--alpha=2", "pos"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.FlagNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(RequireKnownFlags, AcceptsDeclaredFlagsAndHelp) {
  const char* argv[] = {"prog", "--rate=2", "--help"};
  CliArgs args(3, argv);
  const std::vector<FlagSpec> known = {{"rate", "L", "1", "arrival rate"}};
  EXPECT_NO_THROW(RequireKnownFlags(args, known));
}

TEST(RequireKnownFlags, RejectsUnknownFlagWithClearError) {
  // The historical footgun: a typo'd flag silently fell back to its
  // default; now it must fail loudly, naming the flag.
  const char* argv[] = {"prog", "--replicatoins=8"};
  CliArgs args(2, argv);
  const std::vector<FlagSpec> known = {
      {"replications", "R", "24", "independent replications"}};
  try {
    RequireKnownFlags(args, known);
    FAIL() << "expected rejection";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--replicatoins"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos);
  }
}

TEST(RenderHelp, ListsEveryFlagWithDefault) {
  const std::vector<FlagSpec> flags = {
      {"points", "K", "11", "sweep resolution"},
      {"steady", "", "", "steady traffic"},
  };
  const std::string help = RenderHelp("prog [flags]", "a description", flags);
  EXPECT_NE(help.find("usage: prog [flags]"), std::string::npos);
  EXPECT_NE(help.find("a description"), std::string::npos);
  EXPECT_NE(help.find("--points K"), std::string::npos);
  EXPECT_NE(help.find("sweep resolution (default: 11)"), std::string::npos);
  EXPECT_NE(help.find("--steady"), std::string::npos);
  // Boolean flag without a default renders no "(default: )" noise.
  EXPECT_EQ(help.find("steady traffic (default:"), std::string::npos);
}

TEST(Logging, LevelThresholding) {
  SetLogLevel(LogLevel::kError);
  LogInfo() << "suppressed";   // must not crash
  LogError() << "emitted";
  SetLogLevel(LogLevel::kWarn);  // the default
}

TEST(Logging, LevelNamesRoundTrip) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError, LogLevel::kOff}) {
    EXPECT_EQ(ParseLogLevel(LogLevelName(level)), level);
  }
  EXPECT_THROW(ParseLogLevel("verbose"), InvalidArgument);
  EXPECT_THROW(ParseLogLevel("WARN"), InvalidArgument);  // case-sensitive
}

// Capture std::clog while a LogLine emits, to pin the Kv quoting rules.
std::string CaptureLog(const std::function<void()>& emit) {
  std::ostringstream captured;
  std::streambuf* old_buf = std::clog.rdbuf(captured.rdbuf());
  SetLogLevel(LogLevel::kDebug);
  emit();
  SetLogLevel(LogLevel::kWarn);  // the default
  std::clog.rdbuf(old_buf);
  return captured.str();
}

TEST(Logging, KvAppendsStructuredFields) {
  const std::string line = CaptureLog([] {
    (LogWarn() << "no metrics").Kv("scenario", "netsim-scale").Kv("runs", 3);
  });
  EXPECT_EQ(line, "[WARN] no metrics scenario=netsim-scale runs=3\n");
}

TEST(Logging, KvQuotesValuesThatBreakSpaceSplitting) {
  const std::string line = CaptureLog([] {
    (LogError() << "bad flag")
        .Kv("value", "two words")
        .Kv("expr", "a=b")
        .Kv("empty", "")
        .Kv("plain", "ok")
        .Kv("flag", true);
  });
  EXPECT_EQ(line,
            "[ERROR] bad flag value=\"two words\" expr=\"a=b\" empty=\"\" "
            "plain=ok flag=true\n");
}

}  // namespace
}  // namespace wsn::util
