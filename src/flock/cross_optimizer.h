#ifndef FLOCK_FLOCK_CROSS_OPTIMIZER_H_
#define FLOCK_FLOCK_CROSS_OPTIMIZER_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "flock/model_registry.h"
#include "sql/logical_plan.h"

namespace flock::flock {

/// The SQL x ML cross-optimizer (paper §4.1): rewrites hybrid
/// relational+inference plans. Implemented as four rules applied in order:
///
///  1. **MlPredicateSeparation** (predicate push-down w.r.t. the model):
///     a Filter mixing data predicates with PREDICT predicates is split so
///     the cheap data predicates run first and inference only touches
///     surviving rows.
///  2. **PredicatePushUp**: `PREDICT(m, ...) > t` becomes a
///     `PREDICT_GT(m, t, ...)` intrinsic, scored by the entry's kernel in
///     threshold mode (`ml::DenseKernel::ScoreThreshold`): a trailing
///     sigmoid is folded into the threshold and a boosted ensemble stops
///     walking a row's trees once the kernel's suffix bounds decide it.
///  3. **FeaturePruning**: inputs the model provably ignores (model
///     sparsity) are dropped from the call; a compacted model
///     specialization is registered and the engine's projection pruning
///     then narrows the scan itself.
///  4. **ModelCompression**: storage min/max statistics of the argument
///     columns are propagated through the featurizers and used to fold
///     decision-tree branches the data can never take.
///
/// Rules 3-4 register internal specializations in the ModelRegistry under
/// names like `churn#p1a2b#c3f4`; those names never leave the engine.
class CrossOptimizer {
 public:
  struct Options {
    bool separate_ml_predicates = true;
    bool predicate_pushup = true;
    bool feature_pruning = true;
    bool model_compression = true;

    /// Distinct for every combination of the rules above (a new rule
    /// must add its bit); the plan cache keys on it.
    uint64_t Fingerprint() const {
      return uint64_t{separate_ml_predicates} |
             uint64_t{predicate_pushup} << 1 |
             uint64_t{feature_pruning} << 2 |
             uint64_t{model_compression} << 3;
    }
  };

  explicit CrossOptimizer(ModelRegistry* models)
      : models_(models), options_() {}
  CrossOptimizer(ModelRegistry* models, Options options)
      : models_(models), options_(options) {}

  /// Rewrites `plan` in place. Serialized internally (rewrites mutate
  /// the stats counters and register model specializations), so the
  /// engine may invoke it from concurrent query threads.
  Status Rewrite(sql::PlanPtr* plan);

  Options* mutable_options() { return &options_; }
  const Options& options() const { return options_; }

  /// Rewrite statistics from the most recent Rewrite call (for EXPLAIN-
  /// style diagnostics and the ablation benches). A rewrite that reuses a
  /// cached specialization counts its pruned features and compressed tree
  /// nodes just like the rewrite that built it. Read while quiescent;
  /// not synchronized against an in-flight Rewrite.
  struct Stats {
    size_t filters_split = 0;
    size_t predicates_pushed_up = 0;
    size_t features_pruned = 0;
    size_t tree_nodes_compressed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Status SeparateMlPredicates(sql::LogicalPlan* plan);
  Status PushUpPredicates(sql::LogicalPlan* plan);
  Status PruneFeatures(sql::LogicalPlan* plan);
  Status CompressModels(sql::LogicalPlan* plan);

  ModelRegistry* models_;
  Options options_;
  Stats stats_;
  std::mutex rewrite_mu_;  // one rewrite at a time; see Rewrite()
};

/// True if the expression tree contains any PREDICT-family call.
bool ContainsPredict(const sql::Expr& e);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_CROSS_OPTIMIZER_H_
