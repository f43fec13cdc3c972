// The benches' speedup guard (bench/common.hpp): a parallel speedup is
// recorded only when the effective-parallelism probe shows the host runs
// that many workers at once, never on hardware_concurrency() alone.

#include <gtest/gtest.h>

#include <string>

#include "../bench/common.hpp"

namespace {

using bench_common::add_guarded_speedup;
using bench_common::speedup_withheld_reason;
using pops::util::Json;

TEST(SpeedupGuard, WithheldWhenProbeShowsFewerCoresThanWorkers) {
  // A host that reports 4 hardware threads but runs about one.
  const std::string reason = speedup_withheld_reason(1.05, 4, 120.0);
  EXPECT_NE(reason.find("1.05"), std::string::npos) << reason;
  EXPECT_NE(reason.find("4 workers"), std::string::npos) << reason;
  EXPECT_FALSE(speedup_withheld_reason(1.9, 3, 50.0).empty());
  EXPECT_FALSE(speedup_withheld_reason(0.0, 2, 50.0).empty());
}

TEST(SpeedupGuard, RecordedWhenProbeShowsEnoughCores) {
  EXPECT_EQ(speedup_withheld_reason(4.0, 4, 10.0), "");
  EXPECT_EQ(speedup_withheld_reason(7.5, 4, 10.0), "");
  // Probe noise: within kProbeSlack of the worker count still counts.
  EXPECT_EQ(speedup_withheld_reason(bench_common::kProbeSlack * 4, 4, 10.0),
            "");
  EXPECT_FALSE(
      speedup_withheld_reason(bench_common::kProbeSlack * 4 - 0.01, 4, 10.0)
          .empty());
}

TEST(SpeedupGuard, WithheldWithoutParallelTiming) {
  EXPECT_FALSE(speedup_withheld_reason(8.0, 4, 0.0).empty());
  EXPECT_FALSE(speedup_withheld_reason(8.0, 4, -1.0).empty());
}

TEST(SpeedupGuard, RowFollowsTheProbe) {
  Json row = Json::object();
  add_guarded_speedup(row, 100.0, 40.0, 2);
  const double effective = row["effective_parallelism"].as_number();
  EXPECT_GT(effective, 0.0);
  if (speedup_withheld_reason(effective, 2, 40.0).empty()) {
    EXPECT_DOUBLE_EQ(row["speedup"].as_number(), 2.5);
    EXPECT_EQ(row.find("note"), nullptr);
  } else {
    EXPECT_TRUE(row["speedup"].is_null());
    EXPECT_FALSE(row["note"].as_string().empty());
  }
}

}  // namespace
