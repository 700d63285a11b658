#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "flock/scoring.h"
#include "ml/runtime.h"
#include "sql/parser.h"

namespace flockbench {

namespace {

/// The operator kinds the per-layer metrics name.
const std::vector<std::string>& DeclaredOperatorKinds() {
  static const std::vector<std::string> kinds = {
      "TableScan", "Filter", "Project", "PredictScore", "HashAggregate"};
  return kinds;
}

/// Median of `repeats` timings of `fn`, in ns per `units` (rows).
double NsPer(int repeats, double units, const std::function<void()>& fn) {
  std::vector<double> ns;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point start = Clock::now();
    fn();
    ns.push_back(SecondsSince(start) * 1e9 / units);
  }
  return Percentile(std::move(ns), 50.0);
}

/// Every per-layer metric a traced run reports, with its unit. Keep in
/// step with "per_layer" in BENCHMARK.json (run.py checks).
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"serve.overhead_ms_p50", "ms"},
        {"serve.overhead_ms_p99", "ms"},
        {"serve.queue_depth_mean", "count"},
        {"serve.shed", "count"},
        {"sql.parse_ms", "ms"},
        {"sql.plan_ms", "ms"},
        {"sql.optimize_ms", "ms"},
        {"sql.execute_ms", "ms"},
        {"sql.plan_cache.hit_rate", "ratio"},
        {"sql.plan_cache.insertions", "count"},
    };
    for (const std::string& kind : DeclaredOperatorKinds()) {
      m.push_back({"exec." + kind + ".rows_in", "count"});
      m.push_back({"exec." + kind + ".rows_out", "count"});
      m.push_back({"exec." + kind + ".thread_ms", "ms"});
    }
    m.insert(m.end(), {
        {"exec.rows_scanned_per_row_returned", "ratio"},
        {"storage.segments_scanned", "count"},
        {"storage.segments_pruned", "count"},
        {"storage.pruned_share", "ratio"},
        {"flock.cross.filters_split", "count"},
        {"flock.cross.predicates_pushed_up", "count"},
        {"flock.cross.features_pruned", "count"},
        {"flock.cross.tree_nodes_compressed", "count"},
        {"flock.threshold_ns_per_row", "ns"},
        {"flock.score_batch_ns_per_row", "ns"},
        {"flock.assemble_ns_per_row", "ns"},
        {"ml.kernel.batch_ns_per_row", "ns"},
        {"ml.kernel.row_ns", "ns"},
        {"ml.graph.batch_ns_per_row", "ns"},
        {"wal.records_per_write", "count"},
        {"wal.syncs_per_write", "count"},
        {"wal.bytes_per_write", "bytes"},
        {"trace.overhead_pct", "%"},
    });
    return m;
  }();
  return metrics;
}

}  // namespace

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonSummary(const LatencySummary& s) {
  return "{\"n\": " + std::to_string(s.count) +
         ", \"p50_ms\": " + JsonNumber(s.p50) +
         ", \"p99_ms\": " + JsonNumber(s.p99) +
         ", \"tail_ms\": " + JsonNumber(s.tail) +
         ", \"tail_pct\": " + JsonNumber(s.tail_pct) +
         ", \"tail_beyond\": " + std::to_string(s.tail_beyond) +
         ", \"max_ms\": " + JsonNumber(s.max) + "}";
}

namespace {

/// Sets `key` in an ordered list of encoded JSON fields, replacing an
/// earlier value.
void SetField(std::vector<std::pair<std::string, std::string>>* fields,
              const std::string& key, std::string json) {
  for (auto& [existing, encoded] : *fields) {
    if (existing == key) {
      encoded = std::move(json);
      return;
    }
  }
  fields->emplace_back(key, std::move(json));
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  SetField(&metrics_, name,
           "{\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(unit) + "}");
}

void Report::Record(const std::string& key, std::string json) {
  SetField(&record_, key, std::move(json));
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "flockbench: FAILED: %s\n", why.c_str());
  errors_.push_back(why);
}

void Report::FinishTraced() {
  std::set<std::string> layers;
  for (const auto& [name, unit] : PerLayerMetrics()) layers.insert(name);
  std::set<std::string> present;
  std::vector<std::pair<std::string, std::string>> kept;
  for (auto& [name, json] : metrics_) {
    if (layers.count(name)) {
      present.insert(name);
      kept.emplace_back(name, std::move(json));
    }
  }
  metrics_ = std::move(kept);
  std::string absent = "[";
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (present.count(name)) continue;
    Metric(name, 0.0, unit);
    absent += (absent.size() > 1 ? ", " : "") + JsonString(name);
  }
  Record("layers_not_on_path", absent + "]");
}

void Report::Print() const {
  std::string record = "{\"run_record\": {";
  for (size_t i = 0; i < record_.size(); ++i) {
    record += (i ? ", " : "") + JsonString(record_[i].first) + ": " +
              record_[i].second;
  }
  record += ", \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    record += (i ? ", " : "") + JsonString(errors_[i]);
  }
  record += "]}}";
  std::printf("%s\n", record.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (correct() ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    result += (i ? ", " : "") + JsonString(metrics_[i].first) + ": " +
              metrics_[i].second;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

bool TimedSetups(int repeats, const std::function<bool()>& setup_once,
                 Report* report) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point start = Clock::now();
    if (!setup_once()) return false;
    seconds.push_back(SecondsSince(start));
  }
  report->Record("setup_seconds", JsonList(seconds));
  report->Metric("setup_s", Median(seconds), "s");
  return true;
}

double InterleavedOverheadPct(
    double seconds,
    const std::function<std::vector<double>(bool, double)>& window) {
  std::vector<double> off, on;
  for (int i = 0; i < 8; ++i) {
    bool traced = i % 2 == 1;
    std::vector<double> got = window(traced, seconds / 8.0);
    (traced ? on : off).insert((traced ? on : off).end(), got.begin(),
                               got.end());
  }
  double base = Median(off);
  return base > 0.0 ? (Median(on) / base - 1.0) * 100.0 : 0.0;
}

void OperatorTotals::Add(
    const std::vector<flock::sql::OperatorMetricsSnapshot>& ops,
    uint64_t rows_returned) {
  ++statements_;
  rows_returned_ += static_cast<double>(rows_returned);
  for (const auto& op : ops) {
    std::string kind = op.name.substr(0, op.name.find('('));
    auto it = std::find_if(kinds_.begin(), kinds_.end(),
                           [&](const auto& k) { return k.first == kind; });
    if (it == kinds_.end()) {
      kinds_.push_back({kind, {}});
      it = kinds_.end() - 1;
    }
    it->second.rows_in += static_cast<double>(op.rows_in);
    it->second.rows_out += static_cast<double>(op.rows_out);
    it->second.thread_ms += op.wall_ms;
    if (kind == "TableScan") rows_scanned_ += static_cast<double>(op.rows_out);
  }
}

void OperatorTotals::Report(flockbench::Report* report) const {
  if (statements_ == 0) return;
  double n = static_cast<double>(statements_);
  std::string seen = "[";
  for (const auto& [kind, totals] : kinds_) {
    seen += (seen.size() > 1 ? ", " : "") + JsonString(kind);
    const auto& declared = DeclaredOperatorKinds();
    if (std::find(declared.begin(), declared.end(), kind) == declared.end()) {
      continue;
    }
    report->Metric("exec." + kind + ".rows_in", totals.rows_in / n, "count");
    report->Metric("exec." + kind + ".rows_out", totals.rows_out / n,
                   "count");
    // Summed over morsel threads, so it can exceed the statement's wall
    // time; the benchmark's own clock gives wall time.
    report->Metric("exec." + kind + ".thread_ms", totals.thread_ms / n, "ms");
  }
  report->Record("operator_kinds_seen", seen + "]");
  report->Record("operator_statements", std::to_string(statements_));
  if (rows_returned_ > 0) {
    report->Metric("exec.rows_scanned_per_row_returned",
                   rows_scanned_ / rows_returned_, "ratio");
  }
}

void ProbeSqlStages(flock::sql::SqlEngine* sql, const std::string& statement,
                    int repeats, flockbench::Report* report) {
  using flock::sql::Parser;
  using flock::sql::SelectStatement;
  std::vector<double> parse, plan, optimize, execute;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point t0 = Clock::now();
    auto parsed = Parser::Parse(statement);
    parse.push_back(MillisSince(t0));
    if (!parsed.ok()) {
      report->Fail("probe parse: " + parsed.status().ToString());
      return;
    }
    const auto* select = dynamic_cast<const SelectStatement*>(parsed->get());
    if (select == nullptr) {
      report->Fail("probe statement is not a SELECT");
      return;
    }
    Clock::time_point t1 = Clock::now();
    auto planned = sql->PlanQuery(*select);
    plan.push_back(MillisSince(t1));
    if (!planned.ok()) {
      report->Fail("probe plan: " + planned.status().ToString());
      return;
    }
    flock::sql::PlanPtr logical = std::move(planned).value();
    Clock::time_point t2 = Clock::now();
    flock::Status optimized = sql->OptimizePlan(&logical);
    optimize.push_back(MillisSince(t2));
    if (!optimized.ok()) {
      report->Fail("probe optimize: " + optimized.ToString());
      return;
    }
    Clock::time_point t3 = Clock::now();
    auto rows = sql->ExecutePlan(*logical);
    execute.push_back(MillisSince(t3));
    if (!rows.ok()) {
      report->Fail("probe execute: " + rows.status().ToString());
      return;
    }
  }
  report->Metric("sql.parse_ms", Median(parse), "ms");
  report->Metric("sql.plan_ms", Median(plan), "ms");
  report->Metric("sql.optimize_ms", Median(optimize), "ms");
  report->Metric("sql.execute_ms", Median(execute), "ms");
  report->Record("sql_probe_samples", std::to_string(repeats));
}

void ProbeScoring(flock::flock::FlockEngine* engine, const std::string& model,
                  const std::string& columns, const std::string& table,
                  double threshold, Report* report) {
  namespace ff = flock::flock;
  constexpr int kRepeats = 9;
  constexpr size_t kRows = 16384;
  auto sample = engine->Execute("SELECT " + columns + " FROM " + table +
                                " LIMIT " + std::to_string(kRows));
  auto found = engine->models()->Get(model);
  if (!sample.ok() || !found.ok()) {
    report->Fail("scoring probe input for " + model);
    return;
  }
  const ff::ModelEntry& entry = **found;
  std::vector<flock::storage::ColumnVectorPtr> args;
  for (size_t c = 0; c < sample->batch.num_columns(); ++c) {
    args.push_back(sample->batch.column(c));
  }
  size_t rows = sample->batch.num_rows();
  double n = static_cast<double>(rows);
  auto raw = ff::AssembleFeatures(entry, args, rows);
  if (!raw.ok()) {
    report->Fail("probe assemble: " + raw.status().ToString());
    return;
  }
  if (entry.kernel == nullptr || !entry.kernel->ok()) {
    report->Fail("deployed model has no compiled DenseKernel");
    return;
  }
  bool ok = true;  // report the first failing call only
  auto check = [&](const flock::Status& s, const char* what) {
    if (!s.ok() && ok) {
      report->Fail(std::string("probe ") + what + ": " + s.ToString());
      ok = false;
    }
  };
  report->Metric("flock.assemble_ns_per_row", NsPer(kRepeats, n, [&] {
                   check(ff::AssembleFeatures(entry, args, rows).status(),
                         "assemble");
                 }),
                 "ns");
  report->Metric("flock.score_batch_ns_per_row", NsPer(kRepeats, n, [&] {
                   check(ff::ScoreBatch(entry, *raw).status(), "score batch");
                 }),
                 "ns");
  report->Metric("flock.threshold_ns_per_row", NsPer(kRepeats, n, [&] {
                   check(ff::ScoreThresholdBatch(entry, *raw, threshold,
                                                 ff::ThresholdOp::kGt)
                             .status(),
                         "threshold");
                 }),
                 "ns");
  flock::ml::DenseKernelScratch scratch;
  std::vector<double> out;
  report->Metric("ml.kernel.batch_ns_per_row", NsPer(kRepeats, n, [&] {
                   check(entry.kernel->ScoreBatch(*raw, &scratch, &out),
                         "kernel batch");
                 }),
                 "ns");
  volatile double sink = 0.0;
  report->Metric("ml.kernel.row_ns", NsPer(kRepeats, n, [&] {
                   double sum = 0.0;
                   for (size_t r = 0; r < rows; ++r) {
                     sum += entry.kernel->ScoreRow(raw->row(r), &scratch);
                   }
                   sink = sum;
                 }),
                 "ns");
  (void)sink;
  flock::ml::GraphRuntime graph(&entry.graph);
  report->Metric("ml.graph.batch_ns_per_row", NsPer(kRepeats, n, [&] {
                   check(graph.RunToScores(*raw).status(), "graph");
                 }),
                 "ns");
  report->Record("scoring_probe",
                 "{\"rows\": " + std::to_string(rows) +
                     ", \"repeats\": " + std::to_string(kRepeats) + "}");
}

SqlCounters ReadSqlCounters(const flock::sql::SqlEngine& sql) {
  return {sql.plan_cache()->stats(), sql.segments_scanned_total(),
          sql.segments_pruned_total()};
}

void ReportSqlCounters(const flock::sql::SqlEngine& sql,
                       const SqlCounters& before, size_t selects,
                       Report* report) {
  SqlCounters after = ReadSqlCounters(sql);
  uint64_t hits = after.cache.hits - before.cache.hits;
  uint64_t lookups = hits + after.cache.misses - before.cache.misses;
  report->Metric("sql.plan_cache.hit_rate",
                 lookups ? static_cast<double>(hits) / lookups : 0.0,
                 "ratio");
  report->Metric(
      "sql.plan_cache.insertions",
      static_cast<double>(after.cache.insertions - before.cache.insertions),
      "count");
  report->Record("plan_cache_lookups", std::to_string(lookups));
  double n = static_cast<double>(std::max<size_t>(1, selects));
  double scanned =
      static_cast<double>(after.segments_scanned - before.segments_scanned);
  double pruned =
      static_cast<double>(after.segments_pruned - before.segments_pruned);
  report->Metric("storage.segments_scanned", scanned / n, "count");
  report->Metric("storage.segments_pruned", pruned / n, "count");
  report->Metric("storage.pruned_share",
                 scanned + pruned > 0 ? pruned / (scanned + pruned) : 0.0,
                 "ratio");
  report->Record("selects", std::to_string(selects));
}

void ReportCrossStats(const flock::flock::CrossOptimizer::Stats& stats,
                      Report* report) {
  report->Metric("flock.cross.filters_split",
                 static_cast<double>(stats.filters_split), "count");
  report->Metric("flock.cross.predicates_pushed_up",
                 static_cast<double>(stats.predicates_pushed_up), "count");
  report->Metric("flock.cross.features_pruned",
                 static_cast<double>(stats.features_pruned), "count");
  report->Metric("flock.cross.tree_nodes_compressed",
                 static_cast<double>(stats.tree_nodes_compressed), "count");
}

}  // namespace flockbench
