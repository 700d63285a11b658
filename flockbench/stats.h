#ifndef FLOCKBENCH_STATS_H_
#define FLOCKBENCH_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

// Sample statistics and open-loop accounting for the benchmark. Pure
// functions over recorded samples, so the rules are unit-tested apart from
// any engine (stats_test.cc).
namespace flockbench {

/// A percentile needs at least this many samples strictly beyond it
/// before the benchmark reports it as a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `samples` (need not be sorted): the smallest
/// sample with at least `pct` percent of all samples at or below it.
/// Returns 0 for an empty input.
double Percentile(std::vector<double> samples, double pct);

/// Number of samples ranked strictly above the nearest-rank `pct`
/// percentile of `n` samples: n - ceil(pct / 100 * n).
size_t SamplesBeyond(size_t n, double pct);

/// The tail rule: the highest percentile on the fixed ladder
/// {50, 75, 90, 95, 99, 99.9}, no higher than `max_pct`, that has at least
/// kMinSamplesBeyond samples beyond it. Returns 0 when even the median has
/// fewer (fewer than 20 samples). A workload fixes `max_pct` so the
/// percentile it reports stays the same from run to run.
double TailPercentile(size_t n, double max_pct);

struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  /// Latency at `tail_pct`, chosen by TailPercentile.
  double tail = 0.0;
  double tail_pct = 0.0;
  /// Samples strictly beyond `tail`'s rank.
  size_t tail_beyond = 0;
  double max = 0.0;
};

LatencySummary Summarize(const std::vector<double>& samples,
                         double max_tail_pct);

/// Latency of a long phase, robust to a transient stall of the host: the
/// phase is cut into windows of `window_s` seconds (by each sample's time),
/// and the result is the median over windows of each window's p50 and of
/// its tail. The tail percentile is chosen once, by the tail rule on the
/// smallest window, so every window reports the same percentile.
struct WindowedLatency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t windows = 0;
  size_t min_window_samples = 0;
  /// Each window's tail, in time order.
  std::vector<double> window_tails;
};

/// `samples` holds (time in seconds since the phase began, latency in ms).
/// Windows with no samples are skipped.
WindowedLatency SummarizeWindows(
    const std::vector<std::pair<double, double>>& samples, double window_s,
    double max_tail_pct);

/// One open-loop request, in seconds since its phase started. `due` is
/// when the schedule says it must be sent, `sent` when the generator got
/// to it, `done` when its reply was observed.
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = true;
};

/// Latency of an open-loop request, timed from when it was due, so a
/// generator that falls behind charges its lateness to the requests it
/// delayed instead of hiding it.
double LatencyFromDueMs(const OpenLoopSample& s);

/// How late the generator sent the request, in ms (never negative).
double SendLatenessMs(const OpenLoopSample& s);

/// Due times for generator `g` of `generators` at an aggregate `rate`
/// (requests per second) over `duration_s`: a fixed-interval schedule
/// 1/rate apart, dealt round-robin, so together the generators send
/// exactly floor(rate * duration_s) requests at even spacing.
std::vector<double> DueTimes(double rate, double duration_s, size_t g,
                             size_t generators);

/// Backlog detection for one ladder rung. A rung whose offered rate the
/// server keeps up with shows the same latency early and late; one it
/// cannot keep up with queues more with every request, so latency from
/// due time climbs through the rung. The backlog is growing when the
/// median latency of the last third of requests (by due time) exceeds
/// `growth` times the first third's median plus `slack_ms`, or when the
/// generator had to stop early because too many requests were
/// outstanding (`stopped_early`). Needs at least 30 samples; fewer count
/// as growing (the rung could not show it kept up).
bool BacklogGrowing(std::vector<OpenLoopSample> samples, bool stopped_early,
                    double growth = 2.0, double slack_ms = 1.0);

/// One rung of the open-loop rate ladder.
struct RungResult {
  double rate = 0.0;      // offered, requests/s
  double duration_s = 0.0;
  size_t sent = 0;
  size_t failed = 0;
  double achieved_qps = 0.0;  // completed OK per second of the rung
  LatencySummary latency;     // from due time, successful requests
  double max_late_ms = 0.0;   // worst generator lateness
  bool stopped_early = false;
  bool backlog = false;
  bool meets_slo = false;
};

/// Folds one rung's samples into its result and decides whether it meets
/// the service level: no failures, no growing backlog, and p99 latency
/// from due time within `limit_ms`.
RungResult EvaluateRung(double rate, double duration_s,
                        const std::vector<OpenLoopSample>& samples,
                        bool stopped_early, double limit_ms,
                        double max_tail_pct);

/// The highest rate the server sustains within the service level: the
/// achieved throughput of the last rung of an ascending ladder before the
/// first rung that misses. 0 when the first rung already misses.
double SloQps(const std::vector<RungResult>& rungs);

}  // namespace flockbench

#endif  // FLOCKBENCH_STATS_H_
