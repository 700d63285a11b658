#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace flockbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 50), 3);
  EXPECT_EQ(Percentile(v, 100), 5);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(Percentile(Range(100), 99), 99);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(TailRuleTest, HighestLadderPercentileWithTenBeyond) {
  // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 95), 5u);
  EXPECT_EQ(TailPercentile(100, 99.9), 90);
  EXPECT_EQ(TailPercentile(99, 99.9), 75);
  EXPECT_EQ(TailPercentile(1000, 99.9), 99);
  EXPECT_EQ(TailPercentile(10000, 99.9), 99.9);
  // The workload's cap holds the percentile fixed as samples grow.
  EXPECT_EQ(TailPercentile(10000, 99), 99);
  EXPECT_EQ(TailPercentile(20, 99), 50);
  EXPECT_EQ(TailPercentile(19, 99), 0);
}

TEST(TailRuleTest, SummaryRecordsPercentileAndSamplesBeyond) {
  LatencySummary s = Summarize(Range(200), 99.9);
  EXPECT_EQ(s.count, 200u);
  EXPECT_EQ(s.p50, 100);
  EXPECT_EQ(s.tail_pct, 95);
  EXPECT_EQ(s.tail, 190);
  EXPECT_EQ(s.tail_beyond, 10u);
  EXPECT_EQ(s.max, 200);
}

TEST(WindowTest, OneStalledWindowDoesNotMoveTheMedian) {
  std::vector<std::pair<double, double>> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 100; ++i) {
      double ms = w == 2 ? 50.0 + i : 1.0 + i * 0.01;
      samples.push_back({w + i / 100.0, ms});
    }
  }
  WindowedLatency l = SummarizeWindows(samples, 1.0, 99.9);
  EXPECT_EQ(l.windows, 5u);
  EXPECT_EQ(l.min_window_samples, 100u);
  EXPECT_EQ(l.tail_pct, 90);
  EXPECT_NEAR(l.p50, 1.49, 1e-9);
  EXPECT_NEAR(l.tail, 1.89, 1e-9);
  // Each window's own tail, in time order, stalled window included.
  ASSERT_EQ(l.window_tails.size(), 5u);
  EXPECT_NEAR(l.window_tails[0], 1.89, 1e-9);
  EXPECT_NEAR(l.window_tails[2], 139.0, 1e-9);
}

TEST(OpenLoopTest, LatencyIsTimedFromDueTime) {
  // Sent 40 ms late, served in 2 ms: the client waited 42 ms.
  OpenLoopSample late{1.000, 1.040, 1.042, true};
  EXPECT_NEAR(LatencyFromDueMs(late), 42.0, 1e-9);
  EXPECT_NEAR(SendLatenessMs(late), 40.0, 1e-9);
  OpenLoopSample on_time{1.000, 1.000, 1.002, true};
  EXPECT_NEAR(LatencyFromDueMs(on_time), 2.0, 1e-9);
  EXPECT_EQ(SendLatenessMs(on_time), 0.0);
}

TEST(OpenLoopTest, StallIsChargedToEveryDelayedRequest) {
  // A 100 ms stall at t=0 delays the ten requests due in it. Timing from
  // send would report 1 ms each; timing from due reports the wait.
  std::vector<OpenLoopSample> samples;
  for (int i = 0; i < 10; ++i) {
    double due = i * 0.01;
    samples.push_back({due, 0.1, 0.101, true});
  }
  RungResult r = EvaluateRung(100, 0.1, samples, false, 50.0, 99.9);
  EXPECT_NEAR(r.latency.max, 101.0, 1e-6);
  EXPECT_NEAR(r.max_late_ms, 100.0, 1e-6);
  EXPECT_FALSE(r.meets_slo);
}

TEST(OpenLoopTest, DueTimesSplitEvenlyAcrossGenerators) {
  std::vector<double> all;
  for (size_t g = 0; g < 3; ++g) {
    std::vector<double> d = DueTimes(100, 1.0, g, 3);
    all.insert(all.end(), d.begin(), d.end());
  }
  ASSERT_EQ(all.size(), 100u);
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_NEAR(all[i], i * 0.01, 1e-12);
  }
}

std::vector<OpenLoopSample> Steady(size_t n, double rate, double ms) {
  std::vector<OpenLoopSample> s;
  for (size_t i = 0; i < n; ++i) {
    double due = i / rate;
    s.push_back({due, due, due + ms / 1e3 + (i % 7) * 1e-4, true});
  }
  return s;
}

TEST(BacklogTest, SteadyRungHasNoBacklog) {
  EXPECT_FALSE(BacklogGrowing(Steady(300, 100, 2.0), false));
}

TEST(BacklogTest, OverloadedRungGrows) {
  // Offered 100/s, served 80/s: each request waits longer than the last.
  std::vector<OpenLoopSample> s;
  for (size_t i = 0; i < 300; ++i) {
    double due = i / 100.0;
    double done = (i + 1) / 80.0;
    s.push_back({due, due, done, true});
  }
  EXPECT_TRUE(BacklogGrowing(s, false));
}

TEST(BacklogTest, EarlyStopOrTooFewSamplesCountAsGrowing) {
  EXPECT_TRUE(BacklogGrowing(Steady(300, 100, 2.0), true));
  EXPECT_TRUE(BacklogGrowing(Steady(20, 100, 2.0), false));
}

TEST(SloTest, HighestRungBeforeFirstMiss) {
  std::vector<RungResult> rungs;
  for (double rate : {100.0, 200.0, 300.0}) {
    rungs.push_back(
        EvaluateRung(rate, 3.0, Steady(rate * 3, rate, 2.0), false, 10.0,
                     99.0));
  }
  // The fourth rung misses its limit; a later rung that passes again does
  // not count, because its load sat on top of the earlier backlog.
  rungs.push_back(
      EvaluateRung(400, 3.0, Steady(1200, 400, 20.0), false, 10.0, 99.0));
  rungs.push_back(
      EvaluateRung(500, 3.0, Steady(1500, 500, 2.0), false, 10.0, 99.0));
  ASSERT_TRUE(rungs[2].meets_slo);
  ASSERT_FALSE(rungs[3].meets_slo);
  EXPECT_NEAR(SloQps(rungs), rungs[2].achieved_qps, 1e-9);
  EXPECT_NEAR(rungs[2].achieved_qps, 300.0, 1.0);
}

TEST(SloTest, FailedRequestMissesTheLimit) {
  std::vector<OpenLoopSample> s = Steady(300, 100, 2.0);
  s[10].ok = false;
  RungResult r = EvaluateRung(100, 3.0, s, false, 10.0, 99.0);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_FALSE(r.meets_slo);
  EXPECT_EQ(SloQps({r}), 0.0);
}

}  // namespace
}  // namespace flockbench
