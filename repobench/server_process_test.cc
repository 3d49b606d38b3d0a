#include "server_process.h"

#include <gtest/gtest.h>

#include <chrono>

namespace repobench {
namespace {

TEST(RunToCompletionTest, CapturesStdoutAndStderr) {
  auto out = RunToCompletion("/bin/sh", {"-c", "echo out; echo err >&2"}, 10.0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value(), "out\nerr\n");
}

TEST(RunToCompletionTest, NonZeroExitFailsWithOutput) {
  auto out = RunToCompletion("/bin/sh", {"-c", "echo why; exit 3"}, 10.0);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().ToString().find("why"), std::string::npos);
}

TEST(RunToCompletionTest, KillsAndReapsAfterTimeout) {
  const auto start = std::chrono::steady_clock::now();
  auto out = RunToCompletion("/bin/sh", {"-c", "exec sleep 30"}, 0.2);
  EXPECT_FALSE(out.ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(PeakRssTest, ReadsTheHighWaterMark) {
  EXPECT_GT(PeakRssMb("self"), 0.0);
  EXPECT_EQ(PeakRssMb("no-such-process"), 0.0);
}

}  // namespace
}  // namespace repobench
