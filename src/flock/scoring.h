#ifndef FLOCK_FLOCK_SCORING_H_
#define FLOCK_FLOCK_SCORING_H_

#include <vector>

#include "common/status_or.h"
#include "flock/model_registry.h"
#include "ml/dense_kernel.h"
#include "ml/matrix.h"
#include "storage/column_vector.h"

namespace flock::flock {

/// Comparison direction for threshold-pushed predicates.
using ml::ThresholdOp;

/// Builds the raw feature matrix for `entry` from SQL argument columns
/// (one column per graph input, in graph-input order). NULLs become NaN
/// (handled by the pipeline's imputer); string columns are encoded through
/// the pipeline's categorical vocabularies.
StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry,
    const std::vector<storage::ColumnVectorPtr>& args, size_t num_rows);

/// Rejects feature matrices whose width does not match the entry's input
/// arity (nothing is silently dropped or skipped).
Status CheckScoringArity(const ModelEntry& entry, const ml::Matrix& raw);

/// Scores a raw feature matrix through the entry's compiled dense-slot
/// kernel (built once at deploy time; scratch reused per thread), falling
/// back to the per-call GraphRuntime for graph shapes the kernel does not
/// compile. Mismatched arity is an InvalidArgument, never a truncation.
StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw);

/// Evaluates `score OP threshold` without materializing full scores — the
/// paper's "predicate push-up between SQL queries and ML models" (§4.1).
/// Runs on the entry's kernel (`ml::DenseKernel::ScoreThreshold`), which
/// folds a trailing Sigmoid into the threshold (logit transform) and stops
/// walking a boosted ensemble's trees for a row once the kernel's suffix
/// bounds decide its verdict. Graphs the kernel does not compile score
/// through GraphRuntime up to the Sigmoid's input, then compare.
StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op);

}  // namespace flock::flock

#endif  // FLOCK_FLOCK_SCORING_H_
