#ifndef FLOCK_ML_DENSE_KERNEL_H_
#define FLOCK_ML_DENSE_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

/// Direction of a pushed-up prediction predicate: `score OP threshold`.
enum class ThresholdOp { kGt, kGe, kLt, kLe };

inline bool Compare(double score, ThresholdOp op, double threshold) {
  switch (op) {
    case ThresholdOp::kGt:
      return score > threshold;
    case ThresholdOp::kGe:
      return score >= threshold;
    case ThresholdOp::kLt:
      return score < threshold;
    case ThresholdOp::kLe:
      return score <= threshold;
  }
  return false;
}

/// A threshold on sigmoid(z), moved onto z. Sigmoid is monotone and lies
/// strictly inside (0, 1), so for t in (0, 1) `sigmoid(z) OP t` is
/// `z OP logit(t)`; a threshold at or beyond either end gives every row
/// the same verdict.
struct SigmoidThreshold {
  bool constant = false;  // every row gets `verdict`
  bool verdict = false;
  double logit = 0.0;  // otherwise compare z against this
};
SigmoidThreshold FoldSigmoid(ThresholdOp op, double threshold);

/// Reusable scratch buffers for DenseKernel execution. One per thread (or
/// per call site); the kernel itself stays immutable and shareable. The
/// buffers grow to the widest step of whichever kernels score through them
/// and are never shrunk, so steady-state scoring performs no allocation.
class DenseKernelScratch {
 public:
  DenseKernelScratch() = default;

 private:
  friend class DenseKernel;
  std::vector<double> a_, b_;
  // ScoreThreshold's early exit: per-row running sums of one block and
  // the block rows still undecided.
  std::vector<double> acc_;
  std::vector<uint32_t> active_;
};

/// Compiled dense-slot scoring kernel — the production scoring path.
///
/// Where `RowScorer` interprets a pipeline through per-step named-feature
/// maps (the Figure-4 "scikit-learn" baseline) and `GraphRuntime`
/// re-allocates one matrix per node per invocation, the dense kernel does
/// all name→slot resolution and plan validation once at construction:
/// every step is lowered to a fixed-width transform over contiguous
/// `double` buffers, with attributes (imputer fills, scale/offset vectors,
/// one-hot layout, gemm weights, trees) copied into the kernel so it is
/// self-contained and immutable afterwards.
///
/// Execution contracts:
///  * `ScoreRow` scores a single dense row with zero allocation (given a
///    warmed scratch).
///  * `ScoreBatch` scores a whole matrix/morsel in one call, processing
///    rows in blocks so elementwise steps run over contiguous buffers.
///
/// Tree ensembles are flattened at construction into one node array per
/// step: split feature (`int32`), threshold (`double`), a child pair
/// (`int32[2]`: below the threshold, then at/above it) and the node value,
/// with each leaf pointing both children at itself. Each tree records its
/// depth, so a walk is exactly `depth` steps of
/// `p = children[2*p + !(x[feature[p]] < threshold[p])]` with no
/// data-dependent branch: a lane that reaches a leaf early spins on it.
/// NaN compares false, so it goes right exactly as in `Tree::Predict`.
/// The walk takes the (tree, row) pairs of a block in tree-major order,
/// `kGroupLanes` at a time, whose independent chains of loads overlap in
/// the core. A 256-row block therefore walks each tree over groups of 8
/// rows, while `ScoreRow` walks 8 trees of its one row at once; both run
/// the same loop. Each row still adds tree 0, 1, ... in order, so scores
/// are bitwise identical to `Tree::Predict`, `GraphRuntime` and
/// `RowScorer`. Measured numbers are in DESIGN.md section 4e.
///
/// `ScoreThreshold` evaluates `score OP threshold` for pushed-up
/// predicates (PREDICT_GT and friends). A trailing Sigmoid is folded into
/// the threshold (`FoldSigmoid`) and the steps before it run as in
/// `ScoreBatch`. When those steps end in a summed (not averaged) tree
/// ensemble, each block walks tree 0, 1, ... over its undecided rows only:
/// after tree t a row whose final score must lie in
/// `[acc + suffix_min[t+1], acc + suffix_max[t+1]]` is decided once both
/// ends give the same verdict, and leaves the active list. The bounds are
/// widened by the rounding the remaining additions can introduce, so a
/// verdict always equals comparing the score `ScoreBatch` would return.
/// Rows still add their trees in order, through the same walk as
/// `ScoreBatch`.
///
/// Only linear single-input op chains are compiled (which is everything
/// `Pipeline::Compile` and the cross-optimizer emit). Graphs using Concat
/// or non-chain wiring, and trees whose split feature is outside the
/// step's input width or whose child does not come after its parent (the
/// flattened walk relies on both), leave the kernel in a not-ok state and
/// callers fall back to `GraphRuntime`; `status()` says why.
class DenseKernel {
 public:
  /// Compiles `graph` into a dense step plan. The graph is only read
  /// during construction; it need not outlive the kernel.
  explicit DenseKernel(const ModelGraph& graph);

  /// True when the graph compiled to a dense plan; `ScoreRow`/`ScoreBatch`
  /// must only be called on an ok kernel.
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  size_t input_cols() const { return input_cols_; }
  size_t num_steps() const { return steps_.size(); }

  /// Scores one dense row of exactly `input_cols()` values (categoricals
  /// index-encoded, NULLs as NaN — the AssembleFeatures layout).
  double ScoreRow(const double* row, DenseKernelScratch* scratch) const;

  /// Scores every row of `raw` (`raw.cols()` must equal `input_cols()`),
  /// appending into `out` (resized to raw.rows()). Reuses `scratch` across
  /// blocks; no per-row allocation.
  Status ScoreBatch(const Matrix& raw, DenseKernelScratch* scratch,
                    std::vector<double>* out) const;

  /// Sets (*out)[r] to `score(r) OP threshold` for every row of `raw`,
  /// skipping the trees that cannot change a row's verdict (see the
  /// class comment). Same input contract and cancellation poll as
  /// ScoreBatch.
  Status ScoreThreshold(const Matrix& raw, ThresholdOp op, double threshold,
                        DenseKernelScratch* scratch,
                        std::vector<bool>* out) const;

  /// Rows per block in ScoreBatch and ScoreThreshold; exposed for
  /// tests/benches.
  static constexpr size_t kBlockRows = 256;
  /// (tree, row) pairs walked together by the tree-ensemble step.
  static constexpr size_t kGroupLanes = 8;

 private:
  struct Step {
    OpType op = OpType::kIdentity;
    size_t in_cols = 0;
    size_t out_cols = 0;
    // kImputer
    std::vector<double> fill;
    // kScaler: out = (in - offset) * scale
    std::vector<double> offset, scale;
    // kOneHot: per input slot, 0 = pass-through, k = expand to k slots
    std::vector<int> onehot_sizes;
    // kGemm
    Matrix weights;  // [out_cols x in_cols]
    std::vector<double> bias;
    // kTreeEnsemble: every tree's nodes, concatenated (see class comment)
    std::vector<int32_t> split_feature;
    std::vector<double> split_threshold;
    std::vector<int32_t> children;  // 2 per node, absolute indices
    std::vector<double> node_value;
    std::vector<int32_t> tree_root, tree_depth;
    // [t] = sum of the smallest (largest) leaf of trees t, t+1, ...,
    // widened by a rounding slack (see FlattenTrees); one entry per tree
    // plus a trailing 0.
    std::vector<double> suffix_min, suffix_max;
    double tree_base = 0.0;
    bool tree_average = false;
    // kBinarizer
    double binarizer_threshold = 0.5;
  };

  /// Lowers `trees` into the flat arrays of `step` (whose in_cols is set)
  /// and computes its suffix bounds; rejects trees the walk could not
  /// traverse safely.
  static Status FlattenTrees(const std::vector<Tree>& trees, Step* step);

  /// Adds the leaf values of trees [first_tree, last_tree) for `n` rows of
  /// `x` (row-major, step.in_cols wide) onto `out`, which holds each row's
  /// running sum. The rows are `rows[0..n)`, or 0..n-1 when `rows` is null.
  static void WalkTrees(const Step& step, const double* x,
                        const uint32_t* rows, size_t n, size_t first_tree,
                        size_t last_tree, double* out);

  /// Runs steps [0, num_steps) over `n` rows held densely in scratch
  /// buffer `a_` (row-major, in_cols wide). Leaves the output in whichever
  /// buffer the last step wrote and returns a pointer to it.
  const double* Execute(size_t num_steps, size_t n,
                        DenseKernelScratch* scratch) const;

  /// Sizes `scratch` for blocks of up to `block` rows.
  void Reserve(size_t block, DenseKernelScratch* scratch) const;

  /// OK when the kernel compiled and `raw` has `input_cols()` columns.
  Status CheckInput(const Matrix& raw) const;

  /// Checks `raw`, then loads it into scratch buffer `a_` one block at a
  /// time and calls `score(begin, rows)` for each block, polling the
  /// request's cancel token before every block.
  template <typename BlockFn>
  Status ForEachBlock(const Matrix& raw, DenseKernelScratch* scratch,
                      BlockFn&& score) const;

  Status status_;
  size_t input_cols_ = 0;
  size_t max_cols_ = 0;  // widest step output (scratch sizing)
  std::vector<Step> steps_;
  // Steps up to the score ScoreThreshold compares: all of them, or all
  // but a trailing Sigmoid, which it folds into the threshold.
  size_t threshold_steps_ = 0;
  // The last of those steps is a summed tree ensemble: early exit applies.
  bool early_exit_ = false;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_DENSE_KERNEL_H_
