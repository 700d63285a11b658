// Batch prediction queries over the Figure 4 clickstream table:
//
//  fig4_threshold  SELECT COUNT(*) ... WHERE f0 > 0.2 AND PREDICT(...) > 0.8
//  batch_score     SELECT segment, AVG(PREDICT(...)) ... GROUP BY segment
//
// One closed-loop client runs the statement back to back on an engine in
// its default configuration (cross-optimizer on, morsel threads = nproc).

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "flock/flock_engine.h"
#include "ml/row_scorer.h"
#include "workload/synthetic.h"

namespace flockbench {

namespace {

namespace ff = flock::flock;
using flock::workload::InferenceWorkload;

/// Rows in the clickstream table: four 64K-row segments (the last one
/// partly filled). Sized so a run of ten seconds holds enough statements
/// of each batch workload for a tail percentile with ten samples beyond
/// it; set-up time is dominated by training, not by rows.
constexpr size_t kRows = 250000;
constexpr double kDataThreshold = 0.2;
constexpr double kScoreThreshold = 0.8;
/// batch_score's AVG may differ from the reference sum in its last bits,
/// because the parallel hash aggregate adds the rows in another order.
constexpr double kAvgRelTolerance = 1e-9;
constexpr int kSetups = 2;
constexpr int kWarmQueries = 3;
const char* const kSegments[] = {"web", "mobile", "tablet"};

std::string PredictArgs() {
  std::string args;
  for (int c = 0; c < 27; ++c) {
    args += 'f';
    args += std::to_string(c);
    args += ", ";
  }
  return args + "segment";
}

std::string PredictCall() { return "PREDICT(ctr, " + PredictArgs() + ")"; }

std::string Fig4Sql() {
  return "SELECT COUNT(*) FROM clickstream WHERE f0 > 0.2 AND " +
         PredictCall() + " > 0.8";
}

std::string BatchScoreSql() {
  return "SELECT segment, AVG(" + PredictCall() +
         ") FROM clickstream GROUP BY segment";
}

struct Clickstream {
  std::unique_ptr<ff::FlockEngine> engine;
  std::optional<InferenceWorkload> workload;
};

/// Builds the table, trains and deploys the model, and warms the
/// statement (plan cache, optimizer specializations, thread pool).
bool SetUp(uint64_t seed, const std::string& sql, Clickstream* out,
           Report* report) {
  out->workload.reset();
  out->engine.reset();
  auto engine = std::make_unique<ff::FlockEngine>();
  flock::workload::InferenceWorkloadOptions options;
  options.num_rows = kRows;
  options.seed = seed;
  auto workload = flock::workload::BuildInferenceWorkload(engine.get(),
                                                          options);
  if (!workload.ok()) {
    report->Fail("workload build: " + workload.status().ToString());
    return false;
  }
  for (int i = 0; i < kWarmQueries; ++i) {
    auto warm = engine->Execute(sql);
    if (!warm.ok()) {
      report->Fail("warm-up: " + warm.status().ToString());
      return false;
    }
  }
  out->engine = std::move(engine);
  out->workload = std::move(workload).value();
  return true;
}

/// RowScorer scores of the generator's raw matrix, outside the engine,
/// split across the host's threads; rows `wanted` rejects stay NaN.
std::vector<double> ReferenceScores(
    const InferenceWorkload& workload,
    const std::function<bool(const double*)>& wanted) {
  const flock::ml::Matrix& raw = workload.raw;
  std::vector<double> scores(raw.rows(), std::nan(""));
  size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      flock::ml::RowScorer scorer(workload.pipeline);
      std::vector<double> row(raw.cols());
      for (size_t r = t; r < raw.rows(); r += threads) {
        const double* src = raw.row(r);
        if (!wanted(src)) continue;
        row.assign(src, src + raw.cols());
        scores[r] = scorer.Score(row);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return scores;
}

/// Checks one result; an empty string means it matches the reference.
using Checker = std::function<std::string(const flock::sql::QueryResult&)>;

/// Runs `sql` back to back for `seconds`, checking every answer. A wrong
/// answer fails the run and is not a latency sample; an error counts as
/// a failed statement.
std::vector<double> ClosedLoop(ff::FlockEngine* engine, const std::string& sql,
                               double seconds, const Checker& check,
                               OperatorTotals* totals, Report* report) {
  std::vector<double> latencies;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds && report->correct()) {
    Clock::time_point t0 = Clock::now();
    auto result = engine->Execute(sql);
    double ms = MillisSince(t0);
    report->CountAttempt(result.ok());
    if (!result.ok()) {
      report->Record("last_error", JsonString(result.status().ToString()));
      continue;
    }
    std::string mismatch = check(*result);
    if (!mismatch.empty()) {
      report->Fail(mismatch);
      break;
    }
    latencies.push_back(ms);
    if (totals != nullptr) {
      totals->Add(result->operator_metrics, result->batch.num_rows());
    }
  }
  return latencies;
}

/// The shared body of both batch workloads.
void RunBatch(const Options& opts, const std::string& sql,
              double max_tail_pct,
              const std::function<Checker(const InferenceWorkload&)>&
                  make_checker,
              const std::function<void(ff::FlockEngine*)>& gate,
              Report* report) {
  Clickstream setup;
  if (!TimedSetups(opts.trace ? 1 : kSetups,
                   [&] { return SetUp(opts.seed, sql, &setup, report); },
                   report)) {
    return;
  }
  ff::FlockEngine* engine = setup.engine.get();
  report->Record("statement", JsonString(sql));
  report->Record("rows", std::to_string(kRows));
  gate(engine);
  if (!report->correct()) return;

  Clock::time_point ref_start = Clock::now();
  Checker check = make_checker(*setup.workload);
  report->Record("reference_s", JsonNumber(SecondsSince(ref_start)));

  if (!opts.trace) {
    Clock::time_point start = Clock::now();
    std::vector<double> latencies =
        ClosedLoop(engine, sql, opts.seconds, check, nullptr, report);
    double elapsed = SecondsSince(start);
    double rss = PeakRssMb();
    LatencySummary s = Summarize(latencies, max_tail_pct);
    report->Record("latency", JsonSummary(s));
    report->Metric("p50_ms", s.p50, "ms");
    report->Metric("tail_ms", s.tail, "ms");
    report->Metric("qps", static_cast<double>(s.count) / elapsed, "1/s");
    report->Metric("rss_mb", rss, "MiB");
    if (s.tail_pct == 0.0) report->Fail("too few statements for a tail");
    return;
  }

  // Traced: cross-optimizer counters as warm-up left them, the in-load
  // windows, then the layer probes on a quiescent engine.
  ReportCrossStats(engine->cross_optimizer()->stats(), report);
  flock::sql::SqlEngine* sql_engine = engine->sql();
  SqlCounters before = ReadSqlCounters(*sql_engine);
  OperatorTotals totals;
  size_t statements = 0;
  double overhead = InterleavedOverheadPct(
      opts.seconds / 2, [&](bool traced, double seconds) {
        std::vector<double> latencies = ClosedLoop(
            engine, sql, seconds, check, traced ? &totals : nullptr, report);
        statements += latencies.size();
        return latencies;
      });
  report->Metric("trace.overhead_pct", overhead, "%");
  totals.Report(report);
  ReportSqlCounters(*sql_engine, before, statements, report);

  ProbeSqlStages(sql_engine, sql, 5, report);
  ProbeScoring(engine, "ctr", PredictArgs(), "clickstream", kScoreThreshold,
               report);
}

}  // namespace

void RunFig4Threshold(const Options& opts, Report* report) {
  auto make_checker = [](const InferenceWorkload& w) -> Checker {
    std::vector<double> scores = ReferenceScores(
        w, [](const double* row) { return row[0] > kDataThreshold; });
    int64_t expected = 0;
    for (double s : scores) {
      if (!std::isnan(s) && s > kScoreThreshold) ++expected;
    }
    return [expected](const flock::sql::QueryResult& r) -> std::string {
      if (r.batch.num_rows() != 1 || r.batch.num_columns() != 1) {
        return "fig4_threshold: expected one COUNT cell";
      }
      int64_t got = r.batch.column(0)->int_at(0);
      if (got == expected) return "";
      return "fig4_threshold: COUNT " + std::to_string(got) +
             " != RowScorer reference " + std::to_string(expected);
    };
  };
  // Mechanism gate: the cached plan must use the pushed-up threshold
  // predicate, and the rewrites that produce it must have fired.
  auto gate = [report](ff::FlockEngine* engine) {
    auto explain = engine->Execute("EXPLAIN " + Fig4Sql());
    if (!explain.ok()) {
      report->Fail("EXPLAIN: " + explain.status().ToString());
      return;
    }
    std::string plan = explain->plan_text;
    for (size_t r = 0; r < explain->batch.num_rows(); ++r) {
      for (size_t c = 0; c < explain->batch.num_columns(); ++c) {
        const auto& col = *explain->batch.column(c);
        if (col.type() == flock::storage::DataType::kString) {
          plan += "\n" + col.string_at(r);
        }
      }
    }
    if (plan.find("PREDICT_GT") == std::string::npos) {
      report->Fail("mechanism gate: warm plan lacks PREDICT_GT");
    }
    const auto& stats = engine->cross_optimizer()->stats();
    if (stats.filters_split == 0 || stats.predicates_pushed_up == 0 ||
        stats.features_pruned == 0) {
      report->Fail("mechanism gate: cross-optimizer rewrites did not fire "
                   "(filters_split, predicates_pushed_up, features_pruned "
                   "must be nonzero)");
    }
  };
  RunBatch(opts, Fig4Sql(), 90.0, make_checker, gate, report);
}

void RunBatchScore(const Options& opts, Report* report) {
  auto make_checker = [](const InferenceWorkload& w) -> Checker {
    std::vector<double> scores =
        ReferenceScores(w, [](const double*) { return true; });
    // The raw matrix's last column holds the segment's vocabulary index.
    double sum[3] = {0, 0, 0};
    double count[3] = {0, 0, 0};
    size_t seg_col = w.raw.cols() - 1;
    for (size_t r = 0; r < w.raw.rows(); ++r) {
      size_t seg = static_cast<size_t>(w.raw.at(r, seg_col));
      sum[seg] += scores[r];
      count[seg] += 1;
    }
    std::vector<double> expected(3);
    for (int s = 0; s < 3; ++s) expected[s] = sum[s] / count[s];
    return [expected](const flock::sql::QueryResult& r) -> std::string {
      if (r.batch.num_rows() != 3 || r.batch.num_columns() != 2) {
        return "batch_score: expected three (segment, AVG) rows";
      }
      bool seen[3] = {false, false, false};
      for (size_t row = 0; row < 3; ++row) {
        const std::string& name = r.batch.column(0)->string_at(row);
        int s = -1;
        for (int k = 0; k < 3; ++k) {
          if (name == kSegments[k]) s = k;
        }
        if (s < 0 || seen[s]) return "batch_score: bad segment " + name;
        seen[s] = true;
        double got = r.batch.column(1)->AsDouble(row);
        double want = expected[s];
        if (!(std::fabs(got - want) <= kAvgRelTolerance * std::fabs(want))) {
          return "batch_score: AVG for " + name + " is " + JsonNumber(got) +
                 ", RowScorer reference " + JsonNumber(want);
        }
      }
      return "";
    };
  };
  RunBatch(opts, BatchScoreSql(), 75.0, make_checker,
           [](ff::FlockEngine*) {}, report);
}

}  // namespace flockbench
