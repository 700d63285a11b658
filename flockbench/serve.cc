// Point-PREDICT serving through serve::PredictionServer:
//
//  serve_point  SELECT id, PREDICT(churn, ...) FROM users WHERE id = k
//  serve_mixed  the same reads plus single-row INSERTs and UPDATEs on an
//               engine Open()ed on a fresh data directory
//
// The server is configured as examples/flock_server configures it: four
// workers, a 64-deep admission queue, serial statements
// (sql.num_threads = 1) and no micro-batching. Clients call in through
// the server's in-process API, so the TCP transport is not measured.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "flock/flock_engine.h"
#include "ml/row_scorer.h"
#include "ml/tree.h"
#include "serve/server.h"
#include "storage/record_batch.h"

namespace flockbench {

namespace {

namespace ff = flock::flock;
using flock::Random;
using flock::serve::PredictionServer;
using flock::sql::QueryResult;

/// Four 64K-row segments: a lookup by id prunes three of them.
constexpr size_t kUserRows = 4 * 65536;
/// Distinct ids reads ask for, drawn Zipf(1) by rank. The hottest few
/// hundred take most requests, but the 256-entry plan cache (literals are
/// not parameterized) holds only part of the 4096 statements.
constexpr size_t kReadIds = 4096;
constexpr double kZipfExponent = 1.0;
constexpr size_t kTrainRows = 8000;
constexpr size_t kWorkers = 4;
constexpr size_t kQueueDepth = 64;
/// An open-loop rung stops early (and misses) once this many requests are
/// outstanding, before the admission queue would start shedding.
constexpr size_t kBacklogCap = 48;
constexpr int kSetups = 3;
constexpr size_t kWarmRequests = 2000;
/// Fixed rate ladder (requests/s), the reference rate p50_ms and tail_ms
/// are taken at, and the p99 limit slo_qps is judged by.
const std::vector<double> kLadder = {250, 500, 1000, 1500, 2000, 2500};
constexpr double kReferenceRate = 500;
constexpr double kLatencyLimitMs = 20.0;
/// serve_mixed: every kWriteEvery-th statement of a client is a write,
/// and every kUpdateEvery-th write an UPDATE of an id reads never ask for
/// (the rest INSERT new ids). Fixed shares, so runs differ only in which
/// ids they touch. An UPDATE scans the whole table under the engine's
/// exclusive lock (about 40 ms on a 4-vCPU x86 VM), so it is the costly
/// write; at the open-loop rate it blocks about one read in twenty, which
/// keeps the p75 read tail off the edge of the blocked reads.
constexpr size_t kWriteEvery = 20;
constexpr size_t kUpdateEvery = 8;
/// serve_mixed's one open-loop rate.
constexpr double kMixedRate = 200;
/// Open-loop generator threads: sending is cheap, and every extra thread
/// competes with the server's workers for the host's cores.
constexpr size_t kMaxGenerators = 2;
/// Serve tails stop at p75. On a shared 4-vCPU virtual machine, the time
/// the host takes the CPUs away (1-3% of it in some runs) delays more than
/// one read in ten: p90 over p50 ranged from 1.09 to 1.78 between runs of
/// the same code, and p90 spread by 0.44 of its median over ten runs,
/// while p75 over p50 stayed within 1.05-1.21.
constexpr double kMaxTailPct = 75.0;
const char* const kPlans[] = {"basic", "plus", "pro"};

struct UserRow {
  double age, income, tenure, clicks;
  size_t plan;
};

/// Everything the seed determines: the table's rows, the ids reads ask
/// for (even ids, so odd ids are free for UPDATEs), the Zipf CDF over
/// their ranks, and the order UPDATEs take odd ids in.
struct UserData {
  std::vector<UserRow> rows;
  std::vector<int64_t> read_ids;
  std::vector<double> zipf_cdf;
  std::vector<int64_t> update_ids;
};

UserData MakeUserData(uint64_t seed) {
  UserData d;
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  d.rows.resize(kUserRows);
  for (UserRow& r : d.rows) {
    r.age = 20 + rng.NextDouble() * 50;
    r.income = 30 + rng.NextDouble() * 120;
    r.tenure = rng.NextDouble() * 10;
    r.clicks = rng.NextDouble() * 100;
    r.plan = rng.Uniform(3);
  }
  std::vector<int64_t> even, odd;
  for (size_t i = 0; i < kUserRows; ++i) {
    (i % 2 == 0 ? even : odd).push_back(static_cast<int64_t>(i));
  }
  auto shuffle = [&rng](std::vector<int64_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
    }
  };
  shuffle(&even);
  shuffle(&odd);
  d.read_ids.assign(even.begin(), even.begin() + kReadIds);
  d.update_ids = std::move(odd);
  double total = 0.0;
  for (size_t k = 1; k <= kReadIds; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
    d.zipf_cdf.push_back(total);
  }
  for (double& c : d.zipf_cdf) c /= total;
  return d;
}

std::string PointReadSql(int64_t id) {
  return "SELECT id, PREDICT(churn, age, income, tenure, clicks, plan) "
         "FROM users WHERE id = " +
         std::to_string(id);
}

/// One workload instance: engine (durable for serve_mixed), table, model
/// and server.
struct Serving {
  std::unique_ptr<ff::FlockEngine> engine;
  std::unique_ptr<PredictionServer> server;
  flock::ml::Pipeline pipeline;
};

ff::FlockEngineOptions EngineOptions() {
  ff::FlockEngineOptions options;
  options.sql.num_threads = 1;
  return options;
}

flock::serve::ServerOptions ServerOptions() {
  flock::serve::ServerOptions options;
  options.admission.num_workers = kWorkers;
  options.admission.max_queue_depth = kQueueDepth;
  return options;
}

bool Check(const flock::Status& s, const std::string& what, Report* report) {
  if (!s.ok()) report->Fail(what + ": " + s.ToString());
  return s.ok();
}

/// A statement a client sends, with what its answer is checked against.
struct Request {
  enum Kind { kRead, kInsert, kUpdate } kind = kRead;
  size_t rank = 0;     // kRead: index into read_ids
  int64_t id = 0;
  std::string sql;
};

/// Draws requests for one client or generator from its own seeded
/// stream; write ids come from counters shared by all of them.
class RequestSource {
 public:
  RequestSource(const UserData* data, uint64_t seed, bool writes,
                std::atomic<int64_t>* next_insert,
                std::atomic<size_t>* next_update)
      : data_(data),
        rng_(seed),
        writes_(writes),
        next_insert_(next_insert),
        next_update_(next_update) {}

  Request Next() {
    Request r;
    if (writes_ && ++statements_ % kWriteEvery == 0) {
      char values[128];
      std::snprintf(values, sizeof(values), "%.3f, %.3f, %.3f, %.3f",
                    20 + rng_.NextDouble() * 50, 30 + rng_.NextDouble() * 120,
                    rng_.NextDouble() * 10, rng_.NextDouble() * 100);
      if (++writes_sent_ % kUpdateEvery != 0) {
        r.kind = Request::kInsert;
        r.id = next_insert_->fetch_add(1);
        r.sql = "INSERT INTO users VALUES (" + std::to_string(r.id) + ", " +
                values + ", '" + kPlans[rng_.Uniform(3)] + "')";
      } else {
        r.kind = Request::kUpdate;
        size_t slot = next_update_->fetch_add(1) % data_->update_ids.size();
        r.id = data_->update_ids[slot];
        char clicks[32];
        std::snprintf(clicks, sizeof(clicks), "%.3f",
                      rng_.NextDouble() * 100);
        r.sql = std::string("UPDATE users SET clicks = ") + clicks +
                " WHERE id = " + std::to_string(r.id);
      }
      return r;
    }
    double u = rng_.NextDouble();
    r.rank = static_cast<size_t>(
        std::lower_bound(data_->zipf_cdf.begin(), data_->zipf_cdf.end(), u) -
        data_->zipf_cdf.begin());
    r.rank = std::min(r.rank, kReadIds - 1);
    r.id = data_->read_ids[r.rank];
    r.sql = PointReadSql(r.id);
    return r;
  }

 private:
  const UserData* data_;
  Random rng_;
  bool writes_;
  size_t statements_ = 0;
  size_t writes_sent_ = 0;
  std::atomic<int64_t>* next_insert_;
  std::atomic<size_t>* next_update_;
};

/// Shared state of one measured phase: the expected scores, the acked
/// inserts, and what went wrong. Thread-safe.
class Verifier {
 public:
  explicit Verifier(std::vector<double> expected)
      : expected_(std::move(expected)) {}

  /// Empty string when `result` is the right answer to `r`.
  std::string Check(const Request& r, const QueryResult& result) {
    switch (r.kind) {
      case Request::kRead: {
        if (result.batch.num_rows() != 1 || result.batch.num_columns() != 2) {
          return "point read of id " + std::to_string(r.id) +
                 " did not return one (id, score) row";
        }
        double got = result.batch.column(1)->AsDouble(0);
        double want = expected_[r.rank];
        if (result.batch.column(0)->int_at(0) != r.id ||
            std::memcmp(&got, &want, sizeof(double)) != 0) {
          return "point read of id " + std::to_string(r.id) + ": score " +
                 JsonNumber(got) + " != RowScorer " + JsonNumber(want);
        }
        return "";
      }
      case Request::kInsert:
      case Request::kUpdate:
        if (result.rows_affected != 1) {
          return "write to id " + std::to_string(r.id) + " affected " +
                 std::to_string(result.rows_affected) + " rows";
        }
        if (r.kind == Request::kInsert) {
          std::lock_guard<std::mutex> lock(mu_);
          acked_inserts_.push_back(r.id);
        }
        return "";
    }
    return "unknown request";
  }

  void Mismatch(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mismatches_.size() < 8) mismatches_.push_back(why);
    ++mismatch_count_;
  }

  /// Folds mismatches into the report; true when there were none.
  bool Flush(Report* report) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& m : mismatches_) report->Fail(m);
    if (mismatch_count_ > mismatches_.size()) {
      report->Fail(std::to_string(mismatch_count_) + " wrong answers");
    }
    bool ok = mismatch_count_ == 0;
    mismatches_.clear();
    mismatch_count_ = 0;
    return ok;
  }

  std::vector<int64_t> acked_inserts() {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_inserts_;
  }

 private:
  std::vector<double> expected_;
  std::mutex mu_;
  std::vector<std::string> mismatches_;
  size_t mismatch_count_ = 0;
  std::vector<int64_t> acked_inserts_;
};

/// Per-layer observations a traced phase collects.
struct LayerTrace {
  std::mutex mu;
  OperatorTotals totals;
  std::vector<double> overhead_ms;  // client latency - engine elapsed
};

/// Samples the admission queue depth every millisecond until Finish.
class QueueSampler {
 public:
  explicit QueueSampler(const flock::serve::AdmissionController* admission)
      : admission_(admission), thread_([this] { Loop(); }) {}
  ~QueueSampler() { Finish(); }
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;

  /// Stops sampling; returns the sum of the sampled depths and the
  /// number of samples.
  std::pair<double, size_t> Finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return {sum_, samples_};
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      sum_ += static_cast<double>(admission_->queue_depth());
      ++samples_;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const flock::serve::AdmissionController* admission_;
  std::atomic<bool> stop_{false};
  double sum_ = 0.0;
  size_t samples_ = 0;
  std::thread thread_;
};

/// What every load phase of one run shares: the server, the seeded data,
/// whether writes are mixed in, the answer checker and the counters that
/// hand out write ids.
struct Load {
  Load(PredictionServer* server, const UserData* data, uint64_t seed,
       bool writes, std::vector<double> expected)
      : server(server),
        data(data),
        seed(seed),
        writes(writes),
        verifier(std::move(expected)) {}

  PredictionServer* server;
  const UserData* data;
  uint64_t seed;
  bool writes;
  Verifier verifier;
  std::atomic<int64_t> next_insert{static_cast<int64_t>(kUserRows)};
  std::atomic<size_t> next_update{0};
};

/// Latencies of one phase, split by statement kind.
struct PhaseSamples {
  std::vector<double> reads_ms;
  std::vector<double> writes_ms;
  std::vector<double> done_s;  // completion times of both kinds
  size_t attempted = 0;
  size_t failed = 0;
  double seconds = 0.0;
};

/// `clients` closed-loop clients, each waiting for its reply before
/// sending the next statement, for `seconds`.
PhaseSamples ClosedLoop(Load* load, size_t clients, double seconds,
                        LayerTrace* trace) {
  std::vector<PhaseSamples> per(clients);
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseSamples& mine = per[c];
      auto session = load->server->OpenSession();
      if (!session.ok()) {
        load->verifier.Mismatch("open session: " +
                                session.status().ToString());
        return;
      }
      RequestSource source(load->data, load->seed * 1000003 + c + 1,
                           load->writes, &load->next_insert,
                           &load->next_update);
      while (SecondsSince(start) < seconds) {
        Request r = source.Next();
        Clock::time_point t0 = Clock::now();
        auto result = load->server->Execute(*session, r.sql);
        double ms = MillisSince(t0);
        ++mine.attempted;
        if (!result.ok()) {
          ++mine.failed;
          continue;
        }
        std::string wrong = load->verifier.Check(r, *result);
        if (!wrong.empty()) {
          load->verifier.Mismatch(wrong);
          continue;
        }
        (r.kind == Request::kRead ? mine.reads_ms : mine.writes_ms)
            .push_back(ms);
        mine.done_s.push_back(SecondsSince(start));
        if (trace != nullptr && r.kind == Request::kRead) {
          std::lock_guard<std::mutex> lock(trace->mu);
          trace->totals.Add(result->operator_metrics,
                            result->batch.num_rows());
          trace->overhead_ms.push_back(ms - result->elapsed_ms);
        }
      }
      (void)load->server->CloseSession(*session);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseSamples all;
  all.seconds = SecondsSince(start);
  for (const PhaseSamples& p : per) {
    all.reads_ms.insert(all.reads_ms.end(), p.reads_ms.begin(),
                        p.reads_ms.end());
    all.writes_ms.insert(all.writes_ms.end(), p.writes_ms.begin(),
                         p.writes_ms.end());
    all.done_s.insert(all.done_s.end(), p.done_s.begin(), p.done_s.end());
    all.attempted += p.attempted;
    all.failed += p.failed;
  }
  return all;
}

/// One open-loop phase at `rate`: generator threads send on a fixed
/// schedule without waiting for replies, and every request is timed from
/// its due time. A generator reaps replies in the order it sent them, so a
/// reply that overtakes an earlier one is timed when the earlier one
/// completes (an upper bound, off by at most that overlap).
struct OpenLoopResult {
  std::vector<OpenLoopSample> reads;
  std::vector<OpenLoopSample> writes;
  bool stopped_early = false;
};

OpenLoopResult OpenLoop(Load* load, size_t generators, double rate,
                        double seconds) {
  struct Pending {
    Request request;
    OpenLoopSample sample;
    std::future<flock::StatusOr<QueryResult>> reply;
  };
  std::atomic<size_t> outstanding{0};
  std::atomic<bool> stop{false};
  std::vector<OpenLoopResult> per(generators);
  std::vector<std::thread> threads;
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (size_t g = 0; g < generators; ++g) {
    threads.emplace_back([&, g] {
      OpenLoopResult& mine = per[g];
      auto session = load->server->OpenSession();
      if (!session.ok()) {
        load->verifier.Mismatch("open session: " +
                                session.status().ToString());
        return;
      }
      RequestSource source(load->data, load->seed * 7919 + g + 1,
                           load->writes, &load->next_insert,
                           &load->next_update);
      std::deque<Pending> pending;
      auto reap = [&](Pending& p) {
        auto result = p.reply.get();
        p.sample.done =
            std::chrono::duration<double>(Clock::now() - start).count();
        outstanding.fetch_sub(1);
        p.sample.ok = result.ok();
        if (result.ok()) {
          std::string wrong = load->verifier.Check(p.request, *result);
          if (!wrong.empty()) {
            load->verifier.Mismatch(wrong);
            return;  // never a latency sample
          }
        }
        (p.request.kind == Request::kRead ? mine.reads : mine.writes)
            .push_back(p.sample);
      };
      for (double due : DueTimes(rate, seconds, g, generators)) {
        while (!pending.empty() &&
               pending.front().reply.wait_until(at(due)) ==
                   std::future_status::ready) {
          reap(pending.front());
          pending.pop_front();
        }
        if (stop.load() || outstanding.load() >= kBacklogCap) {
          stop.store(true);
          mine.stopped_early = true;
          break;
        }
        std::this_thread::sleep_until(at(due));
        Pending p;
        p.request = source.Next();
        p.sample.due = due;
        p.sample.sent =
            std::chrono::duration<double>(Clock::now() - start).count();
        outstanding.fetch_add(1);
        p.reply = load->server->Submit(*session, p.request.sql);
        pending.push_back(std::move(p));
      }
      for (Pending& p : pending) reap(p);
      (void)load->server->CloseSession(*session);
    });
  }
  for (std::thread& t : threads) t.join();
  OpenLoopResult all;
  for (OpenLoopResult& p : per) {
    all.reads.insert(all.reads.end(), p.reads.begin(), p.reads.end());
    all.writes.insert(all.writes.end(), p.writes.begin(), p.writes.end());
    all.stopped_early = all.stopped_early || p.stopped_early;
  }
  return all;
}

std::vector<double> LatenciesFromDue(const std::vector<OpenLoopSample>& s) {
  std::vector<double> out;
  for (const OpenLoopSample& x : s) {
    if (x.ok) out.push_back(LatencyFromDueMs(x));
  }
  return out;
}

/// p50_ms and tail_ms of an open-loop phase: medians over windows of
/// `window_s` (by due time) of the reads' latency from due time.
WindowedLatency ReportReadLatency(const std::vector<OpenLoopSample>& reads,
                                  double window_s, Report* report) {
  std::vector<std::pair<double, double>> samples;
  for (const OpenLoopSample& x : reads) {
    if (x.ok) samples.push_back({x.due, LatencyFromDueMs(x)});
  }
  WindowedLatency w = SummarizeWindows(samples, window_s, kMaxTailPct);
  report->Metric("p50_ms", w.p50, "ms");
  report->Metric("tail_ms", w.tail, "ms");
  report->Record("read_latency_windows",
                 "{\"window_s\": " + JsonNumber(window_s) +
                     ", \"windows\": " + std::to_string(w.windows) +
                     ", \"min_window_samples\": " +
                     std::to_string(w.min_window_samples) +
                     ", \"tail_pct\": " + JsonNumber(w.tail_pct) +
                     ", \"window_tails\": " + JsonList(w.window_tails) +
                     "}");
  if (w.tail_pct == 0.0) report->Fail("too few reads per window for a tail");
  return w;
}

size_t FailedCount(const std::vector<OpenLoopSample>& s) {
  return static_cast<size_t>(std::count_if(
      s.begin(), s.end(), [](const OpenLoopSample& x) { return !x.ok; }));
}

std::string JsonRung(const RungResult& r) {
  return "{\"rate\": " + JsonNumber(r.rate) +
         ", \"seconds\": " + JsonNumber(r.duration_s) +
         ", \"sent\": " + std::to_string(r.sent) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"achieved_qps\": " + JsonNumber(r.achieved_qps) +
         ", \"max_late_ms\": " + JsonNumber(r.max_late_ms) +
         ", \"stopped_early\": " + (r.stopped_early ? "true" : "false") +
         ", \"backlog\": " + (r.backlog ? "true" : "false") +
         ", \"meets_slo\": " + (r.meets_slo ? "true" : "false") +
         ", \"latency\": " + JsonSummary(r.latency) + "}";
}

/// Creates the users table, loads it, trains and deploys the churn model,
/// starts the server and warms the plan cache and worker pool.
bool SetUp(const Options& opts, bool durable, const std::string& data_dir,
           Serving* out, Report* report) {
  out->server.reset();
  out->engine.reset();
  auto engine = std::make_unique<ff::FlockEngine>(EngineOptions());
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);
    if (!Check(engine->Open(data_dir), "open " + data_dir, report)) {
      return false;
    }
  }
  UserData data = MakeUserData(opts.seed);
  auto created = engine->Execute(
      "CREATE TABLE users (id INT, age DOUBLE, income DOUBLE, "
      "tenure DOUBLE, clicks DOUBLE, plan VARCHAR)");
  if (!Check(created.status(), "create users", report)) return false;
  auto table = engine->database()->GetTable("users");
  if (!Check(table.status(), "users table", report)) return false;
  const flock::storage::Schema& schema = (*table)->schema();
  flock::storage::RecordBatch staging(schema);
  using flock::storage::Value;
  for (size_t i = 0; i < kUserRows; ++i) {
    const UserRow& u = data.rows[i];
    flock::Status appended = staging.AppendRow(
        {Value::Int(static_cast<int64_t>(i)), Value::Double(u.age),
         Value::Double(u.income), Value::Double(u.tenure),
         Value::Double(u.clicks), Value::String(kPlans[u.plan])});
    if (!Check(appended, "stage row", report)) return false;
    if (staging.num_rows() == 65536 || i + 1 == kUserRows) {
      if (!Check((*table)->AppendBatch(staging), "load users", report)) {
        return false;
      }
      staging = flock::storage::RecordBatch(schema);
    }
  }

  // The churn model of examples/flock_server, trained on a sample.
  flock::ml::Matrix raw(kTrainRows, 5);
  std::vector<double> labels(kTrainRows);
  for (size_t r = 0; r < kTrainRows; ++r) {
    const UserRow& u = data.rows[r * (kUserRows / kTrainRows)];
    raw.at(r, 0) = u.age;
    raw.at(r, 1) = u.income;
    raw.at(r, 2) = u.tenure;
    raw.at(r, 3) = u.clicks;
    raw.at(r, 4) = static_cast<double>(u.plan);
    double z = 0.08 * (u.age - 45) - 0.02 * (u.income - 90) -
               0.4 * u.tenure + 0.03 * u.clicks +
               (u.plan == 0 ? 1.0 : (u.plan == 2 ? -1.0 : 0.0));
    labels[r] = z > 0 ? 1.0 : 0.0;
  }
  flock::ml::Pipeline pipeline;
  std::vector<flock::ml::FeatureSpec> specs;
  for (const char* n : {"age", "income", "tenure", "clicks"}) {
    specs.push_back({n, flock::ml::FeatureKind::kNumeric, {}});
  }
  specs.push_back({"plan", flock::ml::FeatureKind::kCategorical,
                   {"basic", "plus", "pro"}});
  pipeline.SetInputs(specs);
  pipeline.set_task(flock::ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(raw, true, true);
  flock::ml::Dataset features;
  features.x = pipeline.Transform(raw);
  features.y = labels;
  flock::ml::GbtOptions gbt;
  gbt.num_trees = 10;
  gbt.max_depth = 3;
  pipeline.SetTreeModel(flock::ml::TrainGradientBoosting(features, gbt));
  if (!Check(engine->DeployModel("churn", pipeline, "flockbench"),
             "deploy churn", report)) {
    return false;
  }

  auto server = std::make_unique<PredictionServer>(engine.get(),
                                                   ServerOptions());
  // Warm: the hot statements into the plan cache, the workers started.
  std::atomic<int64_t> no_insert{0};
  std::atomic<size_t> no_update{0};
  std::vector<std::thread> warmers;
  std::atomic<size_t> warm_failures{0};
  for (size_t c = 0; c < kWorkers; ++c) {
    warmers.emplace_back([&, c] {
      auto session = server->OpenSession();
      if (!session.ok()) {
        warm_failures.fetch_add(1);
        return;
      }
      RequestSource source(&data, opts.seed + 99 + c, false, &no_insert,
                           &no_update);
      for (size_t i = 0; i < kWarmRequests / kWorkers; ++i) {
        if (!server->Execute(*session, source.Next().sql).ok()) {
          warm_failures.fetch_add(1);
        }
      }
      (void)server->CloseSession(*session);
    });
  }
  for (std::thread& t : warmers) t.join();
  if (warm_failures.load() != 0) {
    report->Fail("warm-up statements failed");
    return false;
  }
  out->engine = std::move(engine);
  out->server = std::move(server);
  out->pipeline = std::move(pipeline);
  return true;
}

/// RowScorer scores of every read id, computed outside the engine.
std::vector<double> ReferenceScores(const UserData& data,
                                    const flock::ml::Pipeline& pipeline) {
  flock::ml::RowScorer scorer(pipeline);
  std::vector<double> scores;
  for (int64_t id : data.read_ids) {
    const UserRow& u = data.rows[static_cast<size_t>(id)];
    scores.push_back(scorer.Score({u.age, u.income, u.tenure, u.clicks,
                                   static_cast<double>(u.plan)}));
  }
  return scores;
}

/// Every acknowledged INSERT must be readable, exactly once.
void CheckInserts(ff::FlockEngine* engine, std::vector<int64_t> acked,
                  const std::string& when, Report* report) {
  auto result = engine->Execute("SELECT id FROM users WHERE id >= " +
                                std::to_string(kUserRows));
  if (!result.ok()) {
    report->Fail("read inserts " + when + ": " + result.status().ToString());
    return;
  }
  std::vector<int64_t> found;
  for (size_t r = 0; r < result->batch.num_rows(); ++r) {
    found.push_back(result->batch.column(0)->int_at(r));
  }
  std::sort(found.begin(), found.end());
  std::sort(acked.begin(), acked.end());
  if (found != acked) {
    report->Fail("acknowledged INSERTs " + when + ": " +
                 std::to_string(acked.size()) + " acked, " +
                 std::to_string(found.size()) + " readable or mismatched");
  }
}

void CountOpen(const OpenLoopResult& o, Report* report) {
  report->AddCounts(o.reads.size() + o.writes.size(),
                    FailedCount(o.reads) + FailedCount(o.writes));
}

/// The untraced run. Closed-loop chunks (qps) alternate with open-loop
/// chunks at the reference rate (p50_ms, tail_ms), so each metric is a
/// median over pieces spread across the whole run and a slow spell of the
/// host moves a few pieces, not the result. serve_point then climbs the
/// rest of its rate ladder for slo_qps.
void MeasureEndToEnd(const Options& opts, Load* load, size_t clients,
                     size_t generators, Report* report) {
  const bool mixed = load->writes;
  const double rate = mixed ? kMixedRate : kReferenceRate;
  const int rounds = mixed ? 5 : 4;
  const double chunk_s = opts.seconds * 0.1;
  std::vector<double> chunk_qps;
  std::vector<double> closed_reads, closed_writes;
  OpenLoopResult reference;
  for (int r = 0; r < rounds; ++r) {
    PhaseSamples closed = ClosedLoop(load, clients, chunk_s, nullptr);
    report->AddCounts(closed.attempted, closed.failed);
    chunk_qps.push_back(static_cast<double>(closed.done_s.size()) /
                        closed.seconds);
    closed_reads.insert(closed_reads.end(), closed.reads_ms.begin(),
                        closed.reads_ms.end());
    closed_writes.insert(closed_writes.end(), closed.writes_ms.begin(),
                         closed.writes_ms.end());

    OpenLoopResult open = OpenLoop(load, generators, rate, chunk_s);
    CountOpen(open, report);
    // Chunks are laid end to end on one time axis.
    double offset = r * chunk_s;
    for (auto* part : {&open.reads, &open.writes}) {
      for (OpenLoopSample& x : *part) {
        x.due += offset;
        x.sent += offset;
        x.done += offset;
      }
    }
    reference.reads.insert(reference.reads.end(), open.reads.begin(),
                           open.reads.end());
    reference.writes.insert(reference.writes.end(), open.writes.begin(),
                            open.writes.end());
    reference.stopped_early = reference.stopped_early || open.stopped_early;
  }
  double rss = PeakRssMb();
  report->Metric("qps", Median(chunk_qps), "1/s");
  report->Record("closed_loop",
                 "{\"chunk_qps\": " + JsonList(chunk_qps) +
                     ", \"reads\": " +
                     JsonSummary(Summarize(closed_reads, kMaxTailPct)) +
                     ", \"writes\": " +
                     JsonSummary(Summarize(closed_writes, kMaxTailPct)) +
                     "}");
  // Half-second windows hold 250 reads at 500/s, serve_mixed's one-second
  // windows 190: enough for a p75 with ten samples beyond it.
  ReportReadLatency(reference.reads, mixed ? 1.0 : 0.5, report);
  RungResult reference_rung =
      EvaluateRung(rate, rounds * chunk_s, reference.reads,
                   reference.stopped_early, kLatencyLimitMs, kMaxTailPct);
  report->Record("reference_rung", JsonRung(reference_rung));
  report->Metric("rss_mb", rss, "MiB");

  if (mixed) {
    LatencySummary writes =
        Summarize(LatenciesFromDue(reference.writes), kMaxTailPct);
    report->Record("writes", JsonSummary(writes));
    report->Record("write_p50_ms", JsonNumber(writes.p50));
    report->Record("write_tail_ms", JsonNumber(writes.tail));
    return;
  }
  // The ladder, ascending, up to the first rung at or above the reference
  // rate that misses; the reference rung is the one measured above.
  std::vector<RungResult> rungs;
  std::string json = "[";
  for (double rung_rate : kLadder) {
    if (rung_rate == kReferenceRate) {
      rungs.push_back(reference_rung);
    } else {
      double seconds = opts.seconds * 0.05;
      OpenLoopResult o = OpenLoop(load, generators, rung_rate, seconds);
      CountOpen(o, report);
      rungs.push_back(EvaluateRung(rung_rate, seconds, o.reads,
                                   o.stopped_early, kLatencyLimitMs,
                                   kMaxTailPct));
    }
    json += (json.size() > 1 ? ", " : "") + JsonRung(rungs.back());
    if (!rungs.back().meets_slo && rung_rate >= kReferenceRate) break;
  }
  report->Record("ladder", json + "]");
  report->Record("slo_qps", JsonNumber(SloQps(rungs)));
}

/// The traced run: the closed loop in alternating untraced and traced
/// windows, an open-loop phase at the reference rate with the queue
/// sampled, then the layer probes on the idle engine.
void MeasureLayers(const Options& opts, Load* load, ff::FlockEngine* engine,
                   size_t clients, size_t generators, Report* report) {
  PredictionServer* server = load->server;
  ReportCrossStats(engine->cross_optimizer()->stats(), report);
  flock::sql::SqlEngine* sql = engine->sql();
  SqlCounters before = ReadSqlCounters(*sql);
  flock::wal::DurabilityManager* wal = engine->durability();
  uint64_t records_before = wal ? wal->records_logged() : 0;
  uint64_t syncs_before = wal ? wal->syncs() : 0;
  uint64_t bytes_before = wal ? wal->bytes_written() : 0;
  size_t reads = 0;
  size_t writes = 0;

  LayerTrace trace;
  double depth_sum = 0.0;
  size_t depth_samples = 0;
  double overhead = InterleavedOverheadPct(
      opts.seconds / 2, [&](bool traced, double seconds) {
        std::unique_ptr<QueueSampler> sampler;
        if (traced) {
          sampler = std::make_unique<QueueSampler>(server->admission());
        }
        PhaseSamples p =
            ClosedLoop(load, clients, seconds, traced ? &trace : nullptr);
        if (sampler) {
          auto [sum, n] = sampler->Finish();
          depth_sum += sum;
          depth_samples += n;
        }
        report->AddCounts(p.attempted, p.failed);
        reads += p.reads_ms.size();
        writes += p.writes_ms.size();
        return p.reads_ms;
      });
  report->Metric("trace.overhead_pct", overhead, "%");
  {
    QueueSampler sampler(server->admission());
    OpenLoopResult o =
        OpenLoop(load, generators, load->writes ? kMixedRate : kReferenceRate,
                 opts.seconds / 4);
    auto [sum, n] = sampler.Finish();
    depth_sum += sum;
    depth_samples += n;
    CountOpen(o, report);
    reads += o.reads.size();
    writes += o.writes.size();
  }
  report->Metric("serve.queue_depth_mean",
                 depth_samples ? depth_sum / depth_samples : 0.0, "count");
  report->Record("queue_depth_samples", std::to_string(depth_samples));
  report->Metric("serve.overhead_ms_p50", Percentile(trace.overhead_ms, 50),
                 "ms");
  report->Metric("serve.overhead_ms_p99", Percentile(trace.overhead_ms, 99),
                 "ms");
  report->Record("overhead_samples", std::to_string(trace.overhead_ms.size()));
  report->Metric(
      "serve.shed",
      static_cast<double>(server->admission()->shed_count() +
                          server->admission()->deadline_shed_count()),
      "count");
  trace.totals.Report(report);
  // Scans are counted for SELECTs only, so per read.
  ReportSqlCounters(*sql, before, reads, report);
  if (wal != nullptr && writes > 0) {
    double w = static_cast<double>(writes);
    report->Metric("wal.records_per_write",
                   (wal->records_logged() - records_before) / w, "count");
    report->Metric("wal.syncs_per_write", (wal->syncs() - syncs_before) / w,
                   "count");
    report->Metric("wal.bytes_per_write",
                   (wal->bytes_written() - bytes_before) / w, "bytes");
    report->Record("wal_writes", std::to_string(writes));
  }
  ProbeSqlStages(sql, PointReadSql(load->data->read_ids[0]), 50, report);
  ProbeScoring(engine, "churn", "age, income, tenure, clicks, plan", "users",
               0.5, report);
}

void RunServe(const Options& opts, bool mixed, Report* report) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const size_t generators = std::min(nproc, kMaxGenerators);
  const std::string data_dir = opts.work_dir + "/serve_mixed-data";
  UserData data = MakeUserData(opts.seed);
  Serving serving;
  if (!TimedSetups(opts.trace ? 1 : kSetups,
                   [&] {
                     return SetUp(opts, mixed, data_dir, &serving, report);
                   },
                   report)) {
    return;
  }
  report->Record("statement", JsonString(PointReadSql(0)));
  report->Record("rows", std::to_string(kUserRows));
  report->Record("read_ids", std::to_string(kReadIds));
  report->Record("write_share",
                 JsonNumber(mixed ? 1.0 / kWriteEvery : 0.0));
  report->Record("update_share_of_writes", JsonNumber(1.0 / kUpdateEvery));
  report->Record("clients", std::to_string(nproc));
  report->Record("generators", std::to_string(generators));
  report->Record("workers", std::to_string(kWorkers));
  report->Record("reference_rate",
                 JsonNumber(mixed ? kMixedRate : kReferenceRate));
  report->Record("latency_limit_ms", JsonNumber(kLatencyLimitMs));
  report->Record("rate_ladder", JsonList(kLadder));

  Load load(serving.server.get(), &data, opts.seed, mixed,
            ReferenceScores(data, serving.pipeline));
  if (opts.trace) {
    MeasureLayers(opts, &load, serving.engine.get(), nproc, generators,
                  report);
  } else {
    MeasureEndToEnd(opts, &load, nproc, generators, report);
  }
  load.verifier.Flush(report);

  if (mixed) {
    std::vector<int64_t> acked = load.verifier.acked_inserts();
    report->Record("acked_inserts", std::to_string(acked.size()));
    CheckInserts(serving.engine.get(), acked, "at the end of the run",
                 report);
    serving.server.reset();
    serving.engine.reset();
    ff::FlockEngine reopened(EngineOptions());
    if (Check(reopened.Open(data_dir), "reopen " + data_dir, report)) {
      CheckInserts(&reopened, acked, "after reopening the data directory",
                   report);
    }
  }
  serving.server.reset();
  serving.engine.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
}

}  // namespace

void RunServePoint(const Options& opts, Report* report) {
  RunServe(opts, false, report);
}

void RunServeMixed(const Options& opts, Report* report) {
  RunServe(opts, true, report);
}

}  // namespace flockbench
