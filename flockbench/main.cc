// The repository benchmark's binary. run.py builds it and runs
//
//   flockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --work-dir <dir> [--source-id <id>]
//
// It prints a run record line and, last, one JSON result line with the
// keys correct, attempted, failed and metrics. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using flockbench::JsonNumber;
using flockbench::JsonString;

struct Workload {
  void (*run)(const flockbench::Options&, flockbench::Report*);
  const char* why;
};

const std::map<std::string, Workload>& Workloads() {
  static const std::map<std::string, Workload> workloads = {
      {"fig4_threshold",
       {flockbench::RunFig4Threshold,
        "The paper's Figure 4 query: scan/filter, cross-optimizer rewrites "
        "and the PREDICT_GT push-up path, with no serving layer."}},
      {"batch_score",
       {flockbench::RunBatchScore,
        "Every row through DenseKernel::ScoreBatch and the hash aggregate: "
        "the batch scoring path fig4_threshold never reaches."}},
      {"serve_point",
       {flockbench::RunServePoint,
        "Point PREDICT lookups through the server: admission, plan-cache "
        "hits and misses, zone-map pruning, single-row scoring."}},
      {"serve_mixed",
       {flockbench::RunServeMixed,
        "The same reads beside durable single-row writes, which take the "
        "exclusive lock and append to the WAL and the tail segment."}},
  };
  return workloads;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "flockbench: %s\nusage: flockbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "[--source-id <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flockbench::Options opts;
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--source-id") {
      source_id = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  auto it = Workloads().find(opts.workload);
  if (it == Workloads().end()) return Usage("unknown workload");
  if (opts.seconds <= 0.0) return Usage("--seconds must be positive");
  if (opts.work_dir.empty()) return Usage("--work-dir is required");

  flockbench::Report report;
  report.Record("workload", JsonString(opts.workload));
  report.Record("why", JsonString(it->second.why));
  report.Record("seed", std::to_string(opts.seed));
  report.Record("seconds", JsonNumber(opts.seconds));
  report.Record("traced", opts.trace ? "true" : "false");
  report.Record("source", JsonString(source_id));
  report.Record("nproc",
                std::to_string(std::thread::hardware_concurrency()));
  report.Record("build_type", JsonString(FLOCKBENCH_BUILD_TYPE));
  it->second.run(opts, &report);
  if (opts.trace) report.FinishTraced();
  report.Print();
  return report.correct() ? 0 : 1;
}
