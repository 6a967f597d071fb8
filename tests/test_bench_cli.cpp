// Flag-parsing tests for the shared bench CLI: the bare-flag and
// flag-shaped-value cases (which used to be silently treated as an absent
// flag), malformed list entries, and clamping.
#include "bench/bench_cli.h"

#include <gtest/gtest.h>

namespace scout::bench {
namespace {

// gtest-style argv scaffolding: argv[0] is the program name.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("bench"));
    for (auto& a : args_) ptrs_.push_back(a.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(BenchCli, FindFlagAbsent) {
  Argv a{{"--other", "3"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "threads");
  EXPECT_FALSE(f.present);
  EXPECT_EQ(f.value, nullptr);
}

TEST(BenchCli, FindFlagWithSpaceValue) {
  Argv a{{"--threads", "4"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "threads");
  EXPECT_TRUE(f.present);
  ASSERT_NE(f.value, nullptr);
  EXPECT_STREQ(f.value, "4");
}

TEST(BenchCli, FindFlagWithEqualsValue) {
  Argv a{{"--threads=8"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "threads");
  EXPECT_TRUE(f.present);
  ASSERT_NE(f.value, nullptr);
  EXPECT_STREQ(f.value, "8");
}

TEST(BenchCli, BareFlagAtEndIsPresentWithoutValue) {
  // The original bug: "--threads" as the last token was treated as absent,
  // so scalability silently ran its full 1/2/4 sweep.
  Argv a{{"--sizes", "10", "--threads"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "threads");
  EXPECT_TRUE(f.present);
  EXPECT_EQ(f.value, nullptr);
}

TEST(BenchCli, FlagShapedNextTokenIsNotAValue) {
  // "--threads --reps 2": "--reps" must not be consumed as the value of
  // --threads, and --reps itself must still parse.
  Argv a{{"--threads", "--reps", "2"}};
  const FlagLookup threads = find_flag(a.argc(), a.argv(), "threads");
  EXPECT_TRUE(threads.present);
  EXPECT_EQ(threads.value, nullptr);
  EXPECT_EQ(size_flag(a.argc(), a.argv(), "reps", 99), 2u);
}

TEST(BenchCli, RepeatedFlagLastOccurrenceWins) {
  Argv a{{"--threads", "2", "--threads", "8"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "threads");
  ASSERT_NE(f.value, nullptr);
  EXPECT_STREQ(f.value, "8");
  // A later usable value also overrides an earlier bare occurrence.
  Argv bare_then_valid{{"--threads", "--sizes", "10", "--threads", "4"}};
  EXPECT_EQ(size_flag(bare_then_valid.argc(), bare_then_valid.argv(),
                      "threads", 1, 1, 256),
            4u);
}

TEST(BenchCli, FlagShapedEqualsValueIsRejected) {
  Argv a{{"--name=--other"}};
  const FlagLookup f = find_flag(a.argc(), a.argv(), "name");
  EXPECT_TRUE(f.present);
  EXPECT_EQ(f.value, nullptr);
  // flag_value agrees (after warning on stderr).
  EXPECT_EQ(flag_value(a.argc(), a.argv(), "name"), nullptr);
}

TEST(BenchCli, SizeFlagFallsBackOnMissingValue) {
  Argv a{{"--threads"}};
  EXPECT_EQ(size_flag(a.argc(), a.argv(), "threads", 1, 1, 256), 1u);
}

TEST(BenchCli, SizeFlagFallsBackOnMalformedValue) {
  Argv junk{{"--threads", "4x"}};
  EXPECT_EQ(size_flag(junk.argc(), junk.argv(), "threads", 1, 1, 256), 1u);
  Argv negative{{"--threads", "-3"}};
  EXPECT_EQ(size_flag(negative.argc(), negative.argv(), "threads", 1, 1, 256),
            1u);
  // strtoull skips the blank and wraps the '-' to SIZE_MAX.
  Argv blank_negative{{"--threads", " -1"}};
  EXPECT_EQ(size_flag(blank_negative.argc(), blank_negative.argv(), "threads",
                      1, 1, 256),
            1u);
}

TEST(BenchCli, SizeFlagClampsIntoRange) {
  Argv low{{"--threads", "0"}};
  EXPECT_EQ(size_flag(low.argc(), low.argv(), "threads", 1, 1, 256), 1u);
  Argv high{{"--threads", "100000"}};
  EXPECT_EQ(size_flag(high.argc(), high.argv(), "threads", 1, 1,
                      kMaxBenchThreads),
            kMaxBenchThreads);
}

TEST(BenchCli, ParseFractionAcceptsOnlyTheUnitInterval) {
  EXPECT_EQ(parse_fraction("0"), std::optional<double>{0.0});
  EXPECT_EQ(parse_fraction("0.15"), std::optional<double>{0.15});
  EXPECT_EQ(parse_fraction("1"), std::optional<double>{1.0});
  EXPECT_EQ(parse_fraction("1e-1"), std::optional<double>{0.1});
  for (const char* bad : {"abc", "7", "1.0001", "-0.1", "0.5x", "", "nan",
                          "inf"}) {
    EXPECT_FALSE(parse_fraction(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_fraction(nullptr).has_value());
}

TEST(BenchCli, ListFlagDropsMalformedEntriesKeepsRest) {
  Argv a{{"--sizes", "10,frog,0,30"}};
  EXPECT_EQ(list_flag(a.argc(), a.argv(), "sizes", {1, 2}),
            (std::vector<std::size_t>{10, 30}));
}

TEST(BenchCli, ListFlagAllMalformedFallsBack) {
  Argv a{{"--sizes", "frog,,"}};
  EXPECT_EQ(list_flag(a.argc(), a.argv(), "sizes", {7}),
            (std::vector<std::size_t>{7}));
}

TEST(BenchCli, ListFlagBareFlagFallsBack) {
  Argv a{{"--sizes", "--threads", "2"}};
  EXPECT_EQ(list_flag(a.argc(), a.argv(), "sizes", {5, 6}),
            (std::vector<std::size_t>{5, 6}));
}

TEST(BenchCli, BoolFlagExactTokenOnly) {
  Argv a{{"--paper"}};
  EXPECT_TRUE(bool_flag(a.argc(), a.argv(), "paper"));
  EXPECT_FALSE(bool_flag(a.argc(), a.argv(), "pap"));
}

TEST(BenchCli, StringFlagUsesValueOrFallback) {
  Argv a{{"--json", "out.json"}};
  EXPECT_EQ(string_flag(a.argc(), a.argv(), "json", "d.json"), "out.json");
  Argv bare{{"--json"}};
  EXPECT_EQ(string_flag(bare.argc(), bare.argv(), "json", "d.json"),
            "d.json");
}

TEST(BenchCli, ExecutorFromFlagsHonorsThreads) {
  Argv a{{"--threads", "3"}};
  EXPECT_EQ(executor_from_flags(a.argc(), a.argv())->workers(), 3u);
  Argv bare{{"--threads"}};
  EXPECT_EQ(executor_from_flags(bare.argc(), bare.argv())->workers(), 1u);
}

}  // namespace
}  // namespace scout::bench
