// The command-line side of the option tables: util::parse_flags over rows
// keyed "--name", and the usage synopsis util::flag_usage prints from the
// same rows.

#include "util/options.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace capes::util {
namespace {

struct Args {
  std::vector<std::string> workloads;
  std::int64_t clusters = 1;
  std::optional<std::size_t> sim_shards;
  std::optional<std::string> learner;
  std::optional<std::string> transport;
  std::string capture;
  bool verbose = false;
  bool help = false;
};

constexpr std::string_view kAuto[] = {"auto"};
constexpr std::string_view kModes[] = {"sync", "async"};

/// A stand-in spec grammar: "on" or "off".
bool parse_switch(std::string_view text, bool* out, std::string* error) {
  if (text != "on" && text != "off") {
    return reject(error, "expected on or off, got '" + std::string(text) + "'");
  }
  *out = text == "on";
  return true;
}

constexpr Option<Args> kFlags[] = {
    {.key = "--workload", .field = CAPES_FIELD(workloads), .form = "SPEC"},
    {"--clusters", CAPES_FIELD(clusters), at_least(1)},
    {.key = "--sim-shards",
     .field = CAPES_FIELD(sim_shards),
     .range = at_least(1),
     .names = kAuto,
     .form = "auto|N"},
    {"--learner", CAPES_FIELD(learner), {}, kModes},
    {.key = "--transport",
     .field = CAPES_FIELD(transport),
     .form = "on|off",
     .check = parses_as<bool, parse_switch>},
    {.key = "--capture", .field = CAPES_FIELD(capture), .form = "FILE"},
    {"--verbose", CAPES_FIELD(verbose)},
    {"--help", CAPES_FIELD(help)},
};

bool parse(std::vector<std::string> args, Args* out, std::string* error) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_flags(kFlags, static_cast<int>(argv.size()), argv.data(), out,
                     error);
}

TEST(ParseFlags, DefaultsSurviveAnEmptyCommandLine) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({}, &args, &error)) << error;
  EXPECT_TRUE(args.workloads.empty());
  EXPECT_EQ(args.clusters, 1);
  EXPECT_FALSE(args.sim_shards);
  EXPECT_FALSE(args.verbose);
}

TEST(ParseFlags, BareBoolFlagSetsIt) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({"--verbose"}, &args, &error)) << error;
  EXPECT_TRUE(args.verbose);
  // A value flag needs its value.
  EXPECT_FALSE(parse({"--clusters"}, &args, &error));
  EXPECT_EQ(error, "unknown argument: --clusters");
}

TEST(ParseFlags, RepeatableFlagAppendsInOrder) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({"--workload=random:0.1", "--clusters=3",
                     "--workload=seqwrite"},
                    &args, &error))
      << error;
  EXPECT_EQ(args.workloads,
            (std::vector<std::string>{"random:0.1", "seqwrite"}));
  EXPECT_EQ(args.clusters, 3);
}

TEST(ParseFlags, UnknownFlagIsRejectedWithTheToken) {
  Args args;
  std::string error;
  EXPECT_FALSE(parse({"--verbose", "--bogus=1"}, &args, &error));
  EXPECT_EQ(error, "unknown argument: --bogus=1");
  EXPECT_FALSE(parse({"clusters=2"}, &args, &error));
  EXPECT_EQ(error, "unknown argument: clusters=2");
}

TEST(ParseFlags, MalformedValueIsRejectedWithTheToken) {
  Args args;
  std::string error;
  EXPECT_FALSE(parse({"--clusters=abc"}, &args, &error));
  EXPECT_EQ(error, "--clusters must be an integer >= 1, got 'abc'");
  EXPECT_FALSE(parse({"--capture="}, &args, &error));
  EXPECT_EQ(error, "--capture must be non-empty");
  EXPECT_FALSE(parse({"--learner=turbo"}, &args, &error));
  EXPECT_EQ(error, "--learner must be sync or async, got 'turbo'");
  EXPECT_EQ(args.learner, std::nullopt);
}

TEST(ParseFlags, OutOfRangeValueIsRejected) {
  Args args;
  std::string error;
  EXPECT_FALSE(parse({"--clusters=0"}, &args, &error));
  EXPECT_EQ(error, "--clusters must be an integer >= 1, got '0'");
  EXPECT_EQ(args.clusters, 1);
}

TEST(ParseFlags, SimShardsTakesAutoOrAPositiveCount) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({"--sim-shards=auto"}, &args, &error)) << error;
  EXPECT_EQ(args.sim_shards, std::optional<std::size_t>(0));
  ASSERT_TRUE(parse({"--sim-shards=3"}, &args, &error)) << error;
  EXPECT_EQ(args.sim_shards, std::optional<std::size_t>(3));
  for (const char* bad : {"--sim-shards=0", "--sim-shards=many"}) {
    Args fresh;
    EXPECT_FALSE(parse({bad}, &fresh, &error)) << bad;
    EXPECT_NE(error.find("--sim-shards must be auto or an integer >= 1"),
              std::string::npos)
        << error;
    EXPECT_FALSE(fresh.sim_shards);
  }
}

TEST(ParseFlags, CheckRejectsWhatTheSpecGrammarRejects) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({"--transport=on"}, &args, &error)) << error;
  EXPECT_EQ(args.transport, std::optional<std::string>("on"));
  EXPECT_FALSE(parse({"--transport=maybe"}, &args, &error));
  EXPECT_EQ(error,
            "invalid value for --transport: expected on or off, got 'maybe'");
}

TEST(ParseFlags, HelpIsARow) {
  Args args;
  std::string error;
  ASSERT_TRUE(parse({"--help"}, &args, &error)) << error;
  EXPECT_TRUE(args.help);
}

TEST(FlagUsage, NamesEveryRowWithItsValueForm) {
  const std::string usage = flag_usage<Args>(kFlags, "prog");
  EXPECT_EQ(usage.rfind("usage: prog [--workload=SPEC]...", 0), 0u) << usage;
  for (const char* entry :
       {"[--workload=SPEC]...", "[--clusters=N]", "[--sim-shards=auto|N]",
        "[--learner=sync|async]", "[--transport=on|off]", "[--capture=FILE]",
        "[--verbose]", "[--help]"}) {
    EXPECT_NE(usage.find(entry), std::string::npos) << entry << "\n" << usage;
  }
  // Wrapped at 79 columns, continuation lines aligned under the first
  // entry.
  std::istringstream lines(usage);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_LE(line.size(), 79u) << line;
    if (line.rfind("usage:", 0) != 0) {
      EXPECT_EQ(line.rfind("            [", 0), 0u) << line;
    }
  }
}

}  // namespace
}  // namespace capes::util
