#ifndef FLOCKBENCH_BENCH_H_
#define FLOCKBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "flock/cross_optimizer.h"
#include "flock/flock_engine.h"
#include "sql/engine.h"
#include "stats.h"

// Shared plumbing of the benchmark's workloads: command-line options, the
// result every run prints, the run record, and the per-layer probes that
// time calls into the engine's public functions from the benchmark's own
// code (no tracing is compiled into the engine).
namespace flockbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1e3;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the benchmark may write its own files into (durable data
  /// directories); inside the checkout the benchmark runs from.
  std::string work_dir;
};

/// What one run prints: the correctness verdict, the statement counts,
/// the metrics of the run's kind (end-to-end untraced, per-layer traced)
/// and a run record of everything the metrics rest on.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Sets one field of the run record; `json` is already-encoded JSON.
  void Record(const std::string& key, std::string json);
  /// Marks the run incorrect and says why on stderr and in the record.
  void Fail(const std::string& why);

  void CountAttempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void AddCounts(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty(); }
  /// Leaves only per-layer metrics (set-up durations stay in the record),
  /// and reports 0 for every declared per-layer metric the workload did
  /// not report (it has no path through that layer), listing them in the
  /// record.
  void FinishTraced();
  /// The run record line, then the result line (last line of stdout).
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);
/// [v0, v1, ...] with every number as JsonNumber writes it.
std::string JsonList(const std::vector<double>& values);
/// {"n":..,"p50":..,"tail":..,"tail_pct":..,"tail_beyond":..,...} in ms.
std::string JsonSummary(const LatencySummary& s);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// Sets the workload up `repeats` times through `setup_once` (which must
/// leave the last set-up in place), records every duration, and reports
/// the median as setup_s.
bool TimedSetups(int repeats, const std::function<bool()>& setup_once,
                 Report* report);

/// Runs `window(traced, seconds)` eight times, alternating the in-load
/// tracing instrumentation off and on, each for seconds / 8; each call
/// returns the per-statement latencies (ms) of its window. Returns the p50
/// of the traced windows over the p50 of the untraced ones, minus 1, in
/// percent: the tracing overhead.
double InterleavedOverheadPct(
    double seconds,
    const std::function<std::vector<double>(bool, double)>& window);

/// Per-statement operator metrics summed by operator kind (the label
/// before its first '('), averaged per statement when reported.
class OperatorTotals {
 public:
  void Add(const std::vector<flock::sql::OperatorMetricsSnapshot>& ops,
           uint64_t rows_returned);
  /// exec.<kind>.{rows_in,rows_out,thread_ms} for every kind the
  /// benchmark declares, and exec.rows_scanned_per_row_returned.
  void Report(flockbench::Report* report) const;

 private:
  struct Kind {
    double rows_in = 0, rows_out = 0, thread_ms = 0;
  };
  std::vector<std::pair<std::string, Kind>> kinds_;
  uint64_t statements_ = 0;
  double rows_scanned_ = 0;
  double rows_returned_ = 0;
};

/// Times the sql layer's public stages on `statement`: Parser::Parse,
/// SqlEngine::PlanQuery, OptimizePlan and ExecutePlan, each the median of
/// `repeats` calls, reported as sql.{parse,plan,optimize,execute}_ms. The
/// engine must be quiescent.
void ProbeSqlStages(flock::sql::SqlEngine* sql, const std::string& statement,
                    int repeats, flockbench::Report* report);

/// Times the flock and ml layers' scoring functions for the deployed
/// model `model`, on the first 16K rows of `columns` (its PREDICT
/// arguments) from `table`: flock::AssembleFeatures, flock::ScoreBatch,
/// flock::ScoreThresholdBatch (score > `threshold`), the entry's
/// DenseKernel ScoreBatch and ScoreRow, and the GraphRuntime reference,
/// each as ns per row. A failing call fails the report.
void ProbeScoring(flock::flock::FlockEngine* engine, const std::string& model,
                  const std::string& columns, const std::string& table,
                  double threshold, Report* report);

/// The SQL engine's plan-cache and segment counters at one instant.
struct SqlCounters {
  flock::sql::PlanCacheStats cache;
  uint64_t segments_scanned = 0;
  uint64_t segments_pruned = 0;
};

SqlCounters ReadSqlCounters(const flock::sql::SqlEngine& sql);

/// sql.plan_cache.* and storage.* over the load since `before`; segment
/// counts are per SELECT, `selects` of them.
void ReportSqlCounters(const flock::sql::SqlEngine& sql,
                       const SqlCounters& before, size_t selects,
                       Report* report);

/// flock.cross.* from the cross-optimizer's counters.
void ReportCrossStats(const flock::flock::CrossOptimizer::Stats& stats,
                      Report* report);

/// Workloads. Each builds its own engine, measures for opts.seconds and
/// fills `report`.
void RunFig4Threshold(const Options& opts, flockbench::Report* report);
void RunBatchScore(const Options& opts, flockbench::Report* report);
void RunServePoint(const Options& opts, flockbench::Report* report);
void RunServeMixed(const Options& opts, flockbench::Report* report);

}  // namespace flockbench

#endif  // FLOCKBENCH_BENCH_H_
