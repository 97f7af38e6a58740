// The command line tools/fuzz and tools/advsearch share: strict number
// flags, the shared flags, the --replay argv rule, reproducer file names
// and replay across both schemas.
#include "explore/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/campaign.hpp"

namespace bftsim::explore::cli {
namespace {

Args args_of(const std::vector<const char*>& argv) {
  return Args(static_cast<int>(argv.size()), argv.data());
}

void expect_rejected(const std::string& flag, const std::string& text,
                     std::uint64_t lo, std::uint64_t hi) {
  try {
    (void)parse_count(flag, text, lo, hi);
    ADD_FAILURE() << flag << " " << text << " was accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos) << e.what();
  }
}

TEST(SearchCliNumbers, CountsAcceptWholeNumbersInRange) {
  EXPECT_EQ(parse_count("--scenarios", "12", 1, 100), 12u);
  EXPECT_EQ(parse_count("--seed", "0", 0, kMaxSeed), 0u);
  EXPECT_EQ(parse_count("--seed", "9007199254740991", 0, kMaxSeed), kMaxSeed);
}

TEST(SearchCliNumbers, CountsRejectEverythingElse) {
  const std::uint64_t scenarios = CampaignOptions::kMaxScenarios;
  expect_rejected("--scenarios", "x", 1, scenarios);      // not a number
  expect_rejected("--jobs", "y", 0, kMaxJobs);
  expect_rejected("--scenarios", "12x", 1, scenarios);    // trailing text
  expect_rejected("--scenarios", "12 ", 1, scenarios);
  expect_rejected("--scenarios", " 12", 1, scenarios);    // leading blank
  expect_rejected("--scenarios", "", 1, scenarios);       // empty
  expect_rejected("--jobs", "-1", 0, kMaxJobs);           // sign
  expect_rejected("--jobs", "+1", 0, kMaxJobs);
  expect_rejected("--scenarios", "0", 1, scenarios);      // below range
  expect_rejected("--scenarios", "1000001", 1, scenarios);  // above range
  expect_rejected("--jobs", "1025", 0, kMaxJobs);
  // Seeds at or above 2^53 would not survive the reproducer's JSON.
  expect_rejected("--seed", "9007199254740992", 0, kMaxSeed);
  expect_rejected("--seed", "18446744073709551615", 0, kMaxSeed);
  expect_rejected("--seed", "18446744073709551616", 0, kMaxSeed);  // overflow
}

TEST(SearchCliNumbers, DecimalsRejectNonFiniteAndMalformedValues) {
  EXPECT_DOUBLE_EQ(parse_number("--max-time-ms", "2500.5", 0, 1e12), 2500.5);
  EXPECT_DOUBLE_EQ(parse_number("--max-time-ms", "1e3", 0, 1e12), 1000.0);
  for (const char* bad : {"", "x", "10ms", "nan", "inf", "-5", "1e13"}) {
    EXPECT_THROW((void)parse_number("--max-time-ms", bad, 0, 1e12), UsageError)
        << bad;
  }
}

TEST(SearchCliArgs, SharedFlagsAreConsumedAndToolFlagsReturned) {
  Args args = args_of({"fuzz", "--out", "r.json", "--seed", "5",
                       "--repro-dir", "d", "--canary"});
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(args.is("--seed"));
  EXPECT_EQ(args.count(0, kMaxSeed), 5u);
  ASSERT_TRUE(args.next());
  EXPECT_TRUE(args.is("--canary"));
  EXPECT_FALSE(args.next());
  EXPECT_EQ(args.out, "r.json");
  EXPECT_EQ(args.repro_dir, "d");
  EXPECT_TRUE(args.replay.empty());
}

TEST(SearchCliArgs, ReplayTakesEveryRemainingArgument) {
  Args args = args_of({"fuzz", "--replay-dir", "corpus", "--replay",
                       "-a.json", "--seed", "b.json"});
  EXPECT_FALSE(args.next());
  EXPECT_EQ(args.replay_dir, "corpus");
  EXPECT_EQ(args.replay,
            (std::vector<std::string>{"-a.json", "--seed", "b.json"}));
}

TEST(SearchCliArgs, ReplayWithoutFilesIsAUsageError) {
  Args args = args_of({"advsearch", "--replay"});
  EXPECT_THROW((void)args.next(), UsageError);
}

TEST(SearchCliArgs, MissingValuesAndUnknownFlagsAreUsageErrors) {
  Args missing = args_of({"fuzz", "--out"});
  EXPECT_THROW((void)missing.next(), UsageError);
  Args tool_value = args_of({"fuzz", "--seed"});
  ASSERT_TRUE(tool_value.next());
  EXPECT_THROW((void)tool_value.value(), UsageError);
  Args unknown = args_of({"fuzz", "--bogus"});
  ASSERT_TRUE(unknown.next());
  try {
    unknown.unknown();
  } catch (const UsageError& e) {
    EXPECT_EQ(std::string(e.what()), "unknown option: --bogus");
  }
}

TEST(SearchCliReplay, BothSchemasReplayThroughOneFunction) {
  const std::string data = std::string(BFTSIM_REPO_ROOT) + "/tests/data";
  EXPECT_EQ(replay_files({data + "/fuzz_corpus/campaign-1-scenario-3.json",
                          data + "/adversary_corpus/pbft-eclipse.json"}),
            0);
  EXPECT_EQ(replay_files({data + "/no-such-reproducer.json"}), 1);
}

TEST(SearchCliReplay, FileNamesFollowTheObjective) {
  Reproducer finding;
  finding.id = "campaign-1/scenario-3";
  EXPECT_EQ(finding.file_name(), "campaign-1-scenario-3.json");
  Reproducer worst;
  worst.kind = ObjectiveKind::kDamage;
  worst.config.protocol = "pbft";
  worst.config.attack = "eclipse";
  EXPECT_EQ(worst.file_name(), "pbft-eclipse.json");
}

}  // namespace
}  // namespace bftsim::explore::cli
