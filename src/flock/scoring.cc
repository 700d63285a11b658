#include "flock/scoring.h"

#include <cmath>

#include "ml/runtime.h"

namespace flock::flock {

using storage::ColumnVectorPtr;
using storage::DataType;

StatusOr<ml::Matrix> AssembleFeatures(
    const ModelEntry& entry, const std::vector<ColumnVectorPtr>& args,
    size_t num_rows) {
  const size_t width = entry.graph.input_cols();
  if (args.size() != width) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " + std::to_string(width) +
        " feature arguments, got " + std::to_string(args.size()));
  }
  ml::Matrix raw(num_rows, width);
  for (size_t c = 0; c < width; ++c) {
    size_t pipeline_input =
        entry.input_mapping.empty() ? c : entry.input_mapping[c];
    const ml::FeatureSpec& spec =
        entry.pipeline.inputs()[pipeline_input];
    const storage::ColumnVector& col = *args[c];
    if (spec.kind == ml::FeatureKind::kCategorical) {
      if (col.type() == DataType::kString) {
        for (size_t r = 0; r < num_rows; ++r) {
          raw.at(r, c) =
              col.IsNull(r)
                  ? std::nan("")
                  : entry.pipeline.EncodeCategorical(pipeline_input,
                                                     col.string_at(r));
        }
      } else {
        // Already index-encoded.
        for (size_t r = 0; r < num_rows; ++r) {
          raw.at(r, c) =
              col.IsNull(r) ? std::nan("") : col.AsDouble(r);
        }
      }
    } else {
      if (col.type() == DataType::kString) {
        return Status::InvalidArgument(
            "numeric feature '" + spec.name + "' of model " + entry.name +
            " received a string column");
      }
      for (size_t r = 0; r < num_rows; ++r) {
        raw.at(r, c) = col.IsNull(r) ? std::nan("") : col.AsDouble(r);
      }
    }
  }
  return raw;
}

Status CheckScoringArity(const ModelEntry& entry, const ml::Matrix& raw) {
  if (raw.cols() != entry.graph.input_cols()) {
    return Status::InvalidArgument(
        "model " + entry.name + " expects " +
        std::to_string(entry.graph.input_cols()) +
        " feature columns, got " + std::to_string(raw.cols()) +
        " (extra features are never dropped, missing ones never skipped)");
  }
  return Status::OK();
}

StatusOr<std::vector<double>> ScoreBatch(const ModelEntry& entry,
                                         const ml::Matrix& raw) {
  FLOCK_RETURN_NOT_OK(CheckScoringArity(entry, raw));
  if (entry.kernel != nullptr && entry.kernel->ok()) {
    // The compiled dense-slot kernel: slot resolution happened once at
    // deploy time; scratch buffers are reused across every call on this
    // thread (the executor scores one morsel at a time per thread, and
    // the kernel itself is immutable and shared).
    thread_local ml::DenseKernelScratch scratch;
    std::vector<double> scores;
    FLOCK_RETURN_NOT_OK(entry.kernel->ScoreBatch(raw, &scratch, &scores));
    return scores;
  }
  ml::GraphRuntime runtime(&entry.graph);
  return runtime.RunToScores(raw);
}

StatusOr<std::vector<bool>> ScoreThresholdBatch(const ModelEntry& entry,
                                                const ml::Matrix& raw,
                                                double threshold,
                                                ThresholdOp op) {
  FLOCK_RETURN_NOT_OK(CheckScoringArity(entry, raw));
  std::vector<bool> out;
  if (entry.kernel != nullptr && entry.kernel->ok()) {
    thread_local ml::DenseKernelScratch scratch;
    FLOCK_RETURN_NOT_OK(
        entry.kernel->ScoreThreshold(raw, op, threshold, &scratch, &out));
    return out;
  }
  const ml::ModelGraph& graph = entry.graph;
  int score_node = graph.output_id();
  if (entry.ends_with_sigmoid) {
    const ml::SigmoidThreshold folded = ml::FoldSigmoid(op, threshold);
    if (folded.constant) return std::vector<bool>(raw.rows(), folded.verdict);
    threshold = folded.logit;
    score_node = graph.nodes()[static_cast<size_t>(score_node)].inputs[0];
  }
  FLOCK_ASSIGN_OR_RETURN(ml::Matrix scores,
                         ml::GraphRuntime(&graph).RunToNode(raw, score_node));
  out.resize(raw.rows());
  for (size_t r = 0; r < raw.rows(); ++r) {
    out[r] = ml::Compare(scores.at(r, 0), op, threshold);
  }
  return out;
}

}  // namespace flock::flock
