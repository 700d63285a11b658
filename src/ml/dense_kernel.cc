#include "ml/dense_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "common/cancel.h"

namespace flock::ml {

SigmoidThreshold FoldSigmoid(ThresholdOp op, double threshold) {
  SigmoidThreshold folded;
  if (threshold <= 0.0) {
    folded.constant = true;
    folded.verdict = op == ThresholdOp::kGt || op == ThresholdOp::kGe;
  } else if (threshold >= 1.0) {
    folded.constant = true;
    folded.verdict = op == ThresholdOp::kLt || op == ThresholdOp::kLe;
  } else {
    folded.logit = std::log(threshold / (1.0 - threshold));
  }
  return folded;
}

DenseKernel::DenseKernel(const ModelGraph& graph) {
  input_cols_ = graph.input_cols();
  max_cols_ = input_cols_;
  const auto& nodes = graph.nodes();
  if (nodes.empty() || graph.output_id() <= 0 ||
      static_cast<size_t>(graph.output_id()) >= nodes.size()) {
    status_ = Status::InvalidArgument(
        "dense kernel: graph has no executable nodes");
    return;
  }
  // The kernel executes nodes 1..output_id as a straight-line chain over
  // ping-pong buffers, so each node must consume exactly the previous
  // node's output. Anything else (Concat, DAG wiring, dangling suffix
  // nodes) falls back to GraphRuntime.
  for (size_t i = 1; i <= static_cast<size_t>(graph.output_id()); ++i) {
    const GraphNode& node = nodes[i];
    if (node.inputs.size() != 1 ||
        node.inputs[0] != static_cast<int>(i) - 1) {
      status_ = Status::InvalidArgument(
          "dense kernel: non-chain graph wiring at node " +
          std::to_string(i));
      steps_.clear();
      return;
    }
    Step step;
    step.op = node.op;
    step.in_cols = steps_.empty() ? input_cols_ : steps_.back().out_cols;
    step.out_cols = node.output_cols;
    switch (node.op) {
      case OpType::kImputer:
        step.fill = node.imputer_values;
        break;
      case OpType::kScaler:
        step.offset = node.offset;
        step.scale = node.scale;
        break;
      case OpType::kOneHot:
        step.onehot_sizes = node.onehot_sizes;
        break;
      case OpType::kGemm:
        step.weights = node.gemm_weights;
        step.bias = node.gemm_bias;
        break;
      case OpType::kTreeEnsemble: {
        step.tree_base = node.tree_base;
        step.tree_average = node.tree_average;
        Status flattened = FlattenTrees(node.trees, &step);
        if (!flattened.ok()) {
          status_ = Status::InvalidArgument("dense kernel: node " +
                                            std::to_string(i) + ": " +
                                            flattened.message());
          steps_.clear();
          return;
        }
        break;
      }
      case OpType::kSigmoid:
      case OpType::kRelu:
      case OpType::kIdentity:
        break;
      case OpType::kBinarizer:
        step.binarizer_threshold = node.binarizer_threshold;
        break;
      default:
        status_ = Status::InvalidArgument(
            "dense kernel: unsupported op " +
            std::string(OpTypeName(node.op)));
        steps_.clear();
        return;
    }
    max_cols_ = std::max(max_cols_, step.out_cols);
    steps_.push_back(std::move(step));
  }
  if (steps_.empty()) {
    status_ = Status::InvalidArgument("dense kernel: empty plan");
    return;
  }
  threshold_steps_ = steps_.size();
  if (steps_.back().op == OpType::kSigmoid) --threshold_steps_;
  early_exit_ = threshold_steps_ > 0 &&
                steps_[threshold_steps_ - 1].op == OpType::kTreeEnsemble &&
                !steps_[threshold_steps_ - 1].tree_average;
}

Status DenseKernel::FlattenTrees(const std::vector<Tree>& trees,
                                 Step* step) {
  size_t total = 0;
  for (const Tree& tree : trees) total += tree.size();
  // children[2 * p + 1] must stay addressable as int32.
  if (total > static_cast<size_t>(INT32_MAX / 2)) {
    return Status::InvalidArgument("ensemble has too many tree nodes");
  }
  step->split_feature.reserve(total);
  step->split_threshold.reserve(total);
  step->children.reserve(2 * total);
  step->node_value.reserve(total);
  std::vector<double> leaf_min(trees.size()), leaf_max(trees.size());
  for (size_t t = 0; t < trees.size(); ++t) {
    const std::vector<TreeNode>& nodes = trees[t].nodes;
    const std::string where = "tree " + std::to_string(t);
    if (nodes.empty()) return Status::InvalidArgument(where + " is empty");
    const int32_t root = static_cast<int32_t>(step->node_value.size());
    // Children come after their parent, so one forward pass sees every
    // parent's level before its children's.
    std::vector<int32_t> level(nodes.size(), -1);
    level[0] = 0;
    int32_t depth = 0;
    bool first_leaf = true;
    for (size_t i = 0; i < nodes.size(); ++i) {
      const TreeNode& node = nodes[i];
      const int32_t self = root + static_cast<int32_t>(i);
      step->node_value.push_back(node.value);
      depth = std::max(depth, level[i]);
      if (node.is_leaf()) {
        leaf_min[t] = first_leaf ? node.value
                                 : std::min(leaf_min[t], node.value);
        leaf_max[t] = first_leaf ? node.value
                                 : std::max(leaf_max[t], node.value);
        first_leaf = false;
        // Feature 0 is a safe read: a lane only steps past a leaf when
        // some tree of the step splits, so in_cols >= 1.
        step->split_feature.push_back(0);
        step->split_threshold.push_back(0.0);
        step->children.insert(step->children.end(), {self, self});
        continue;
      }
      if (static_cast<size_t>(node.feature) >= step->in_cols) {
        return Status::InvalidArgument(
            where + " node " + std::to_string(i) + " splits on feature " +
            std::to_string(node.feature) + " of " +
            std::to_string(step->in_cols));
      }
      for (int32_t child : {node.left, node.right}) {
        if (child <= static_cast<int32_t>(i) ||
            static_cast<size_t>(child) >= nodes.size()) {
          return Status::InvalidArgument(
              where + " node " + std::to_string(i) + " has child " +
              std::to_string(child) + ", not after it in the tree");
        }
        if (level[i] >= 0) {
          int32_t& below = level[static_cast<size_t>(child)];
          below = std::max(below, level[i] + 1);
        }
      }
      step->split_feature.push_back(node.feature);
      step->split_threshold.push_back(node.threshold);
      step->children.insert(step->children.end(),
                            {root + node.left, root + node.right});
    }
    step->tree_root.push_back(root);
    step->tree_depth.push_back(depth);
  }
  // Trees t.. add between the sums of their smallest and largest leaves.
  // A row's score, summed tree by tree, can round past those sums by up
  // to one unit roundoff of the largest partial sum per addition (k
  // additions to the score, k to the bound, and a few more to combine
  // them), so each bound is widened by that slack. After the last tree
  // the running sum is the score itself and the bound stays 0.
  const size_t num_trees = trees.size();
  double magnitude = std::fabs(step->tree_base);
  for (size_t t = 0; t < num_trees; ++t) {
    magnitude += std::max(std::fabs(leaf_min[t]), std::fabs(leaf_max[t]));
  }
  const double roundoff = std::numeric_limits<double>::epsilon() / 2;
  step->suffix_min.assign(num_trees + 1, 0.0);
  step->suffix_max.assign(num_trees + 1, 0.0);
  double below = 0.0, above = 0.0;
  for (size_t t = num_trees; t-- > 0;) {
    below += leaf_min[t];
    above += leaf_max[t];
    const double k = static_cast<double>(num_trees - t);
    const double slack = (2.0 * k + 4.0) * roundoff * magnitude;
    step->suffix_min[t] = below - slack;
    step->suffix_max[t] = above + slack;
  }
  return Status::OK();
}

void DenseKernel::WalkTrees(const Step& step, const double* x,
                            const uint32_t* rows, size_t n,
                            size_t first_tree, size_t last_tree,
                            double* out) {
  const int32_t* feature = step.split_feature.data();
  const double* threshold = step.split_threshold.data();
  const int32_t* children = step.children.data();
  const double* value = step.node_value.data();
  // Lane k walks tree first_tree + k / n over row k % n: a full block
  // puts one tree under every lane, a single row puts consecutive trees
  // under them.
  const size_t lanes = n * (last_tree - first_tree);
  size_t tree = first_tree, i = 0;  // the next lane's (tree, row) pair
  for (size_t k = 0; k < lanes; k += kGroupLanes) {
    const double* row[kGroupLanes];
    size_t dst[kGroupLanes];
    int32_t p[kGroupLanes];
    int32_t depth = 0;
    for (size_t j = 0; j < kGroupLanes; ++j) {
      const size_t r = rows == nullptr ? i : rows[i];
      row[j] = x + r * step.in_cols;
      dst[j] = r;
      p[j] = step.tree_root[tree];
      depth = std::max(depth, step.tree_depth[tree]);
      // Lanes past the last pair repeat it; their leaves are dropped.
      if (k + j + 1 < lanes && ++i == n) {
        i = 0;
        ++tree;
      }
    }
    for (int32_t level = 0; level < depth; ++level) {
      for (size_t j = 0; j < kGroupLanes; ++j) {
        const size_t q = static_cast<size_t>(p[j]);
        p[j] = children[2 * q + !(row[j][feature[q]] < threshold[q])];
      }
    }
    // Lanes run tree-major, so each row still adds tree 0, 1, ... in order.
    const size_t m = std::min(kGroupLanes, lanes - k);
    for (size_t j = 0; j < m; ++j) {
      out[dst[j]] += value[static_cast<size_t>(p[j])];
    }
  }
}

const double* DenseKernel::Execute(size_t num_steps, size_t n,
                                   DenseKernelScratch* scratch) const {
  double* cur = scratch->a_.data();
  double* alt = scratch->b_.data();
  for (size_t s = 0; s < num_steps; ++s) {
    const Step& step = steps_[s];
    const size_t in_cols = step.in_cols;
    const size_t out_cols = step.out_cols;
    switch (step.op) {
      case OpType::kImputer:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            if (std::isnan(row[c])) row[c] = step.fill[c];
          }
        }
        break;
      case OpType::kScaler:
        for (size_t r = 0; r < n; ++r) {
          double* row = cur + r * in_cols;
          for (size_t c = 0; c < in_cols; ++c) {
            row[c] = (row[c] - step.offset[c]) * step.scale[c];
          }
        }
        break;
      case OpType::kOneHot:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          size_t pos = 0;
          for (size_t c = 0; c < in_cols; ++c) {
            const int k = step.onehot_sizes[c];
            if (k == 0) {
              dst[pos++] = src[c];
            } else {
              const int64_t idx = std::isnan(src[c])
                                      ? int64_t{-1}
                                      : static_cast<int64_t>(src[c]);
              for (int j = 0; j < k; ++j) {
                dst[pos + static_cast<size_t>(j)] = (idx == j) ? 1.0 : 0.0;
              }
              pos += static_cast<size_t>(k);
            }
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kGemm:
        for (size_t r = 0; r < n; ++r) {
          const double* src = cur + r * in_cols;
          double* dst = alt + r * out_cols;
          for (size_t j = 0; j < out_cols; ++j) {
            double acc = step.bias[j];
            const double* w = step.weights.row(j);
            for (size_t c = 0; c < in_cols; ++c) acc += w[c] * src[c];
            dst[j] = acc;
          }
        }
        std::swap(cur, alt);
        break;
      case OpType::kTreeEnsemble: {
        for (size_t r = 0; r < n; ++r) alt[r] = step.tree_base;
        WalkTrees(step, cur, nullptr, n, 0, step.tree_root.size(), alt);
        if (step.tree_average && !step.tree_root.empty()) {
          const double norm =
              1.0 / static_cast<double>(step.tree_root.size());
          for (size_t r = 0; r < n; ++r) {
            alt[r] = step.tree_base + (alt[r] - step.tree_base) * norm;
          }
        }
        std::swap(cur, alt);
        break;
      }
      case OpType::kSigmoid:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = 1.0 / (1.0 + std::exp(-cur[i]));
        }
        break;
      case OpType::kRelu:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = cur[i] > 0.0 ? cur[i] : 0.0;
        }
        break;
      case OpType::kBinarizer:
        for (size_t i = 0; i < n * in_cols; ++i) {
          cur[i] = cur[i] > step.binarizer_threshold ? 1.0 : 0.0;
        }
        break;
      case OpType::kIdentity:
      default:
        break;
    }
  }
  return cur;
}

void DenseKernel::Reserve(size_t block,
                          DenseKernelScratch* scratch) const {
  const size_t need = block * max_cols_;
  if (scratch->a_.size() < need) scratch->a_.resize(need);
  if (scratch->b_.size() < need) scratch->b_.resize(need);
  if (scratch->acc_.size() < block) scratch->acc_.resize(block);
  if (scratch->active_.size() < block) scratch->active_.resize(block);
}

Status DenseKernel::CheckInput(const Matrix& raw) const {
  FLOCK_RETURN_NOT_OK(status_);
  if (raw.cols() != input_cols_) {
    return Status::InvalidArgument(
        "dense kernel expects " + std::to_string(input_cols_) +
        " input columns, got " + std::to_string(raw.cols()));
  }
  return Status::OK();
}

template <typename BlockFn>
Status DenseKernel::ForEachBlock(const Matrix& raw,
                                 DenseKernelScratch* scratch,
                                 BlockFn&& score) const {
  FLOCK_RETURN_NOT_OK(CheckInput(raw));
  const size_t n = raw.rows();
  const size_t block = std::min(n == 0 ? size_t{1} : n, kBlockRows);
  Reserve(block, scratch);
  // The per-block cancellation poll: with deep ensembles a single batch
  // can take tens of milliseconds, so the executor's morsel-boundary
  // check alone would not bound kill latency. The request token arrives
  // thread-locally (installed by the executor's drive loop) because
  // scoring is reached through expression evaluation, which has no
  // context parameter path.
  const CancelToken& cancel = CancelToken::Current();
  for (size_t begin = 0; begin < n; begin += block) {
    FLOCK_RETURN_NOT_OK(cancel.Check("dense_kernel.block"));
    const size_t rows = std::min(block, n - begin);
    for (size_t r = 0; r < rows; ++r) {
      const double* src = raw.row(begin + r);
      std::copy(src, src + input_cols_,
                scratch->a_.data() + r * input_cols_);
    }
    score(begin, rows);
  }
  return Status::OK();
}

double DenseKernel::ScoreRow(const double* row,
                             DenseKernelScratch* scratch) const {
  Reserve(1, scratch);
  std::copy(row, row + input_cols_, scratch->a_.data());
  return Execute(steps_.size(), 1, scratch)[0];
}

Status DenseKernel::ScoreBatch(const Matrix& raw,
                               DenseKernelScratch* scratch,
                               std::vector<double>* out) const {
  out->resize(raw.rows());
  return ForEachBlock(raw, scratch, [&](size_t begin, size_t rows) {
    const double* scores = Execute(steps_.size(), rows, scratch);
    // The final step is width >= 1 per row; score is column 0. When the
    // last step was in-place (e.g. trailing Sigmoid over a 1-wide
    // buffer), rows are packed at the final step's output width.
    const size_t stride = steps_.back().out_cols;
    for (size_t r = 0; r < rows; ++r) {
      (*out)[begin + r] = scores[r * stride];
    }
  });
}

Status DenseKernel::ScoreThreshold(const Matrix& raw, ThresholdOp op,
                                   double threshold,
                                   DenseKernelScratch* scratch,
                                   std::vector<bool>* out) const {
  if (threshold_steps_ < steps_.size()) {
    const SigmoidThreshold folded = FoldSigmoid(op, threshold);
    if (folded.constant) {
      FLOCK_RETURN_NOT_OK(CheckInput(raw));
      out->assign(raw.rows(), folded.verdict);
      return Status::OK();
    }
    threshold = folded.logit;
  }
  out->resize(raw.rows());
  if (!early_exit_) {
    return ForEachBlock(raw, scratch, [&](size_t begin, size_t rows) {
      const double* scores = Execute(threshold_steps_, rows, scratch);
      // A folded Sigmoid keeps its input's width, so the compared score
      // sits at the stride ScoreBatch reads.
      const size_t stride = steps_.back().out_cols;
      for (size_t r = 0; r < rows; ++r) {
        (*out)[begin + r] = Compare(scores[r * stride], op, threshold);
      }
    });
  }
  const Step& trees = steps_[threshold_steps_ - 1];
  return ForEachBlock(raw, scratch, [&](size_t begin, size_t rows) {
    const double* x = Execute(threshold_steps_ - 1, rows, scratch);
    double* acc = scratch->acc_.data();
    uint32_t* active = scratch->active_.data();
    for (size_t r = 0; r < rows; ++r) {
      acc[r] = trees.tree_base;
      active[r] = static_cast<uint32_t>(r);
    }
    size_t m = rows;
    for (size_t t = 0; t < trees.tree_root.size() && m > 0; ++t) {
      WalkTrees(trees, x, active, m, t, t + 1, acc);
      // The rest of the trees add between suffix_min and suffix_max: a
      // row whose verdict is the same at both ends is decided.
      const double below = trees.suffix_min[t + 1];
      const double above = trees.suffix_max[t + 1];
      size_t kept = 0;
      for (size_t i = 0; i < m; ++i) {
        const uint32_t r = active[i];
        const double lo = acc[r] + below;
        const double hi = acc[r] + above;
        const bool verdict = Compare(lo, op, threshold);
        if (verdict == Compare(hi, op, threshold) && lo <= hi) {
          (*out)[begin + r] = verdict;
        } else {
          active[kept++] = r;
        }
      }
      m = kept;
    }
    // Rows no bound decided (a NaN sum fails lo <= hi) compare in full.
    for (size_t i = 0; i < m; ++i) {
      (*out)[begin + active[i]] = Compare(acc[active[i]], op, threshold);
    }
  });
}

}  // namespace flock::ml
