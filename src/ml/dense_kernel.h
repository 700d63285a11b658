#ifndef FLOCK_ML_DENSE_KERNEL_H_
#define FLOCK_ML_DENSE_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/status_or.h"
#include "ml/graph.h"
#include "ml/matrix.h"

namespace flock::ml {

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

  /// Rows per block in ScoreBatch; exposed for tests/benches.
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
    double tree_base = 0.0;
    bool tree_average = false;
    // kBinarizer
    double binarizer_threshold = 0.5;
  };

  /// Lowers `trees` into the flat arrays of `step` (whose in_cols is set);
  /// rejects trees the walk could not traverse safely.
  static Status FlattenTrees(const std::vector<Tree>& trees, Step* step);

  /// Adds every tree's leaf value for the `n` rows at `x` (row-major,
  /// step.in_cols wide) onto `out`, which holds each row's running sum.
  static void WalkTrees(const Step& step, const double* x, size_t n,
                        double* out);

  /// Runs all steps over `n` rows held densely in scratch buffer `a_`
  /// (row-major, in_cols wide). Leaves the output in whichever buffer the
  /// last step wrote and returns a pointer to it.
  const double* Execute(size_t n, DenseKernelScratch* scratch) const;

  Status status_;
  size_t input_cols_ = 0;
  size_t max_cols_ = 0;  // widest step output (scratch sizing)
  std::vector<Step> steps_;
};

}  // namespace flock::ml

#endif  // FLOCK_ML_DENSE_KERNEL_H_
