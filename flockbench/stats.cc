#include "stats.h"

#include <algorithm>
#include <cmath>

namespace flockbench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples, ceil(pct / 100 * n),
/// with the product's rounding error absorbed (99.9% of 10000 is 9990).
size_t NearestRank(size_t n, double pct) {
  double exact = pct / 100.0 * static_cast<double>(n);
  return static_cast<size_t>(std::ceil(exact - 1e-9));
}

/// Nearest-rank percentile of already sorted, non-empty samples.
double SortedPercentile(const std::vector<double>& sorted, double pct) {
  size_t rank = NearestRank(sorted.size(), pct);
  return sorted[rank == 0 ? 0 : std::min(rank, sorted.size()) - 1];
}

double MedianMs(const std::vector<OpenLoopSample>& samples, size_t begin,
                size_t end) {
  std::vector<double> latencies;
  latencies.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    latencies.push_back(LatencyFromDueMs(samples[i]));
  }
  return Percentile(std::move(latencies), 50.0);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), pct);
  size_t index = rank == 0 ? 0 : std::min(rank, samples.size()) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

size_t SamplesBeyond(size_t n, double pct) {
  size_t rank = NearestRank(n, pct);
  return rank >= n ? 0 : n - rank;
}

double TailPercentile(size_t n, double max_pct) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (double pct : kLadder) {
    if (pct <= max_pct && SamplesBeyond(n, pct) >= kMinSamplesBeyond) {
      return pct;
    }
  }
  return 0.0;
}

LatencySummary Summarize(const std::vector<double>& samples,
                         double max_tail_pct) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = SortedPercentile(sorted, 50.0);
  s.p99 = SortedPercentile(sorted, 99.0);
  s.tail_pct = TailPercentile(sorted.size(), max_tail_pct);
  s.tail = s.tail_pct > 0.0 ? SortedPercentile(sorted, s.tail_pct) : 0.0;
  s.tail_beyond =
      s.tail_pct > 0.0 ? SamplesBeyond(sorted.size(), s.tail_pct) : 0;
  s.max = sorted.back();
  return s;
}

WindowedLatency SummarizeWindows(
    const std::vector<std::pair<double, double>>& samples, double window_s,
    double max_tail_pct) {
  WindowedLatency out;
  std::vector<std::vector<double>> windows;
  for (const auto& [t, ms] : samples) {
    size_t w = static_cast<size_t>(std::max(0.0, t) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(ms);
  }
  windows.erase(std::remove_if(windows.begin(), windows.end(),
                               [](const auto& w) { return w.empty(); }),
                windows.end());
  if (windows.empty()) return out;
  out.windows = windows.size();
  out.min_window_samples = windows[0].size();
  for (const auto& w : windows) {
    out.min_window_samples = std::min(out.min_window_samples, w.size());
  }
  out.tail_pct = TailPercentile(out.min_window_samples, max_tail_pct);
  std::vector<double> p50s, tails;
  for (auto& w : windows) {
    std::sort(w.begin(), w.end());
    p50s.push_back(SortedPercentile(w, 50.0));
    if (out.tail_pct > 0.0) tails.push_back(SortedPercentile(w, out.tail_pct));
  }
  out.window_tails = tails;
  out.p50 = Percentile(std::move(p50s), 50.0);
  out.tail = Percentile(std::move(tails), 50.0);
  return out;
}

double LatencyFromDueMs(const OpenLoopSample& s) {
  return (s.done - s.due) * 1e3;
}

double SendLatenessMs(const OpenLoopSample& s) {
  return std::max(0.0, (s.sent - s.due) * 1e3);
}

std::vector<double> DueTimes(double rate, double duration_s, size_t g,
                             size_t generators) {
  std::vector<double> due;
  if (rate <= 0.0 || generators == 0) return due;
  size_t total = static_cast<size_t>(std::floor(rate * duration_s));
  for (size_t i = g; i < total; i += generators) {
    due.push_back(static_cast<double>(i) / rate);
  }
  return due;
}

bool BacklogGrowing(std::vector<OpenLoopSample> samples, bool stopped_early,
                    double growth, double slack_ms) {
  if (stopped_early || samples.size() < 30) return true;
  std::sort(samples.begin(), samples.end(),
            [](const OpenLoopSample& a, const OpenLoopSample& b) {
              return a.due < b.due;
            });
  size_t third = samples.size() / 3;
  double first = MedianMs(samples, 0, third);
  double last = MedianMs(samples, samples.size() - third, samples.size());
  return last > growth * first + slack_ms;
}

RungResult EvaluateRung(double rate, double duration_s,
                        const std::vector<OpenLoopSample>& samples,
                        bool stopped_early, double limit_ms,
                        double max_tail_pct) {
  RungResult r;
  r.rate = rate;
  r.duration_s = duration_s;
  r.sent = samples.size();
  r.stopped_early = stopped_early;
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  double last_done = 0.0;
  for (const OpenLoopSample& s : samples) {
    r.max_late_ms = std::max(r.max_late_ms, SendLatenessMs(s));
    if (!s.ok) {
      ++r.failed;
      continue;
    }
    latencies.push_back(LatencyFromDueMs(s));
    last_done = std::max(last_done, s.done);
  }
  r.latency = Summarize(latencies, max_tail_pct);
  double span = std::max(duration_s, last_done);
  r.achieved_qps =
      span > 0.0 ? static_cast<double>(latencies.size()) / span : 0.0;
  r.backlog = BacklogGrowing(samples, stopped_early);
  r.meets_slo = r.failed == 0 && !r.backlog && !latencies.empty() &&
                r.latency.p99 <= limit_ms;
  return r;
}

double SloQps(const std::vector<RungResult>& rungs) {
  double best = 0.0;
  for (const RungResult& r : rungs) {
    if (!r.meets_slo) break;
    best = r.achieved_qps;
  }
  return best;
}

}  // namespace flockbench
