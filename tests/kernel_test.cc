// The compiled dense-slot scoring kernel suite (ctest label: `kernel`).
//
// Three contracts under test, per the dense-kernel design:
//
//  1. Differential: over the full model zoo (linear, logistic, boosted
//     trees, averaged forest — with one-hot categoricals, NaN imputation
//     and zero-variance columns) the kernel, the interpreted RowScorer
//     and the GraphRuntime produce BITWISE-identical scores. Not "close":
//     the kernel replaced the named-row scorer on the serving hot path,
//     so any ulp of drift would surface as nondeterministic predictions
//     across deploys. The flattened tree walk gets its own zoo: an
//     unbalanced depth-10 forest, single-leaf trees, NaN reaching the
//     splits, and row counts around the 8-lane group and 256-row block;
//     malformed trees are rejected at construction. The threshold mode
//     (`ScoreThreshold`, early exit on suffix bounds) must give the verdict
//     of comparing the full score, for every op, at thresholds equal to
//     scores, and across the same row counts.
//
//  2. Robustness bug-sweep: zero-variance scaler columns no longer divide
//     by zero, rows missing features score as NaN-imputed instead of
//     throwing std::out_of_range, arity mismatches are rejected with an
//     error status at the flock::ScoreBatch boundary, and non-chain
//     graphs fall back to the runtime instead of mis-executing.
//
//  3. Coalescing: the serving layer's MicroBatcher groups concurrent
//     single-row calls into shared kernel invocations with bitwise-equal
//     results, bounded waits, and a drain that flushes partial batches.
//     These tests run under TSan via scripts/check.sh's kernel stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "flock/model_registry.h"
#include "flock/scoring.h"
#include "ml/dataset.h"
#include "ml/dense_kernel.h"
#include "ml/graph.h"
#include "ml/linear.h"
#include "ml/pipeline.h"
#include "ml/row_scorer.h"
#include "ml/runtime.h"
#include "ml/tree.h"
#include "serve/coalescer.h"

namespace flock::kernel_test {

using ml::Dataset;
using ml::DenseKernel;
using ml::DenseKernelScratch;
using ml::FeatureKind;
using ml::FeatureSpec;
using ml::GraphNode;
using ml::GraphRuntime;
using ml::LinearModel;
using ml::Matrix;
using ml::ModelGraph;
using ml::OpType;
using ml::Pipeline;
using ml::RowScorer;

/// Bitwise double equality: NaN == NaN, and +0.0 != -0.0. This is the
/// stability contract — EXPECT_DOUBLE_EQ would hide ulp drift and choke
/// on NaN propagation rows.
bool BitEq(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

Matrix RandomRaw(size_t rows, size_t numeric, size_t categories,
                 uint64_t seed, double nan_fraction = 0.0) {
  Random rng(seed);
  Matrix raw(rows, numeric + (categories > 0 ? 1 : 0));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < numeric; ++c) {
      raw.at(r, c) = rng.NextDouble() < nan_fraction
                         ? std::nan("")
                         : rng.NextGaussian() * 2.0 + 1.0;
    }
    if (categories > 0) {
      raw.at(r, numeric) = static_cast<double>(rng.Uniform(categories));
    }
  }
  return raw;
}

std::vector<FeatureSpec> NumericSpecs(size_t n) {
  std::vector<FeatureSpec> specs;
  for (size_t c = 0; c < n; ++c) {
    specs.push_back(
        FeatureSpec{"f" + std::to_string(c), FeatureKind::kNumeric, {}});
  }
  return specs;
}

/// The model zoo. Every pipeline has 4 numeric inputs + 1 categorical and
/// fitted imputer/scaler featurizers, so NaN and one-hot paths are always
/// exercised; the variants differ in the model head.
Pipeline MakeZooPipeline(const std::string& kind, uint64_t seed) {
  Matrix fit_raw = RandomRaw(600, 4, 3, seed);
  std::vector<FeatureSpec> specs = NumericSpecs(4);
  specs.push_back(
      FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
  Pipeline pipeline;
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  pipeline.FitFeaturizers(fit_raw, /*with_imputer=*/true,
                          /*with_scaler=*/true);

  Matrix raw = RandomRaw(600, 4, 3, seed + 1);
  Dataset features;
  features.x = pipeline.Transform(raw);
  features.y.resize(raw.rows());
  for (size_t r = 0; r < raw.rows(); ++r) {
    features.y[r] =
        (raw.at(r, 0) - raw.at(r, 1) + 0.3 * raw.at(r, 4)) > 0.5 ? 1.0
                                                                 : 0.0;
  }

  if (kind == "linear" || kind == "logistic") {
    ml::LinearTrainerOptions options;
    options.epochs = 12;
    LinearModel model = TrainLinear(features, options);
    model.logistic = (kind == "logistic");
    pipeline.set_task(kind == "logistic"
                          ? ml::ModelTask::kBinaryClassification
                          : ml::ModelTask::kRegression);
    pipeline.SetLinearModel(model);
  } else if (kind == "gbdt") {
    ml::GbtOptions options;
    options.num_trees = 12;
    options.max_depth = 4;
    options.seed = seed;
    pipeline.SetTreeModel(TrainGradientBoosting(features, options));
  } else {  // forest: averaged ensemble, no link
    ml::ForestOptions options;
    options.num_trees = 9;
    options.tree.max_depth = 4;
    pipeline.SetTreeModel(TrainRandomForest(features, options));
  }
  return pipeline;
}

const char* const kZoo[] = {"linear", "logistic", "gbdt", "forest"};

flock::ModelEntry MakeToyEntry() {
  Pipeline pipeline;
  pipeline.SetInputs({FeatureSpec{"x", FeatureKind::kNumeric, {}},
                      FeatureSpec{"y", FeatureKind::kNumeric, {}}});
  LinearModel model;
  model.weights = {1.5, -2.0};
  model.bias = 0.25;
  model.logistic = true;
  pipeline.SetLinearModel(model);
  flock::ModelEntry entry;
  entry.name = "toy";
  entry.pipeline = pipeline;
  auto graph = pipeline.Compile();
  EXPECT_TRUE(graph.ok());
  entry.graph = std::move(graph).value();
  flock::ModelRegistry::AnalyzeEntry(&entry);
  return entry;
}

namespace {

// ---------------------------------------------------------------------------
// 1. Differential: kernel vs interpreted vs graph, bitwise.

TEST(DenseKernelTest, BitwiseStableAcrossModelZoo) {
  uint64_t seed = 101;
  for (const char* kind : kZoo) {
    SCOPED_TRACE(kind);
    Pipeline pipeline = MakeZooPipeline(kind, seed);
    seed += 7;

    auto graph = pipeline.Compile();
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    DenseKernel kernel(*graph);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    EXPECT_EQ(kernel.input_cols(), 5u);
    EXPECT_GT(kernel.num_steps(), 2u);
    RowScorer interpreted(pipeline);
    GraphRuntime runtime(&*graph);

    // 10% NaNs: imputation must happen identically in all three paths.
    Matrix raw = RandomRaw(512, 4, 3, seed, /*nan_fraction=*/0.1);
    std::vector<double> old_scores = interpreted.ScoreAll(raw);
    auto graph_scores = runtime.RunToScores(raw);
    ASSERT_TRUE(graph_scores.ok());
    DenseKernelScratch scratch;
    std::vector<double> kernel_scores;
    ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
    ASSERT_EQ(kernel_scores.size(), raw.rows());

    for (size_t r = 0; r < raw.rows(); ++r) {
      EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r])
          << kind << " kernel vs interpreted, row " << r;
      EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r])
          << kind << " kernel vs graph, row " << r;
    }
  }
}

TEST(DenseKernelTest, BatchMatchesSingleRowAcrossBlockBoundary) {
  // 1000 rows > kBlockRows, so ScoreBatch crosses block boundaries and a
  // ragged tail; every score must equal the single-row entry point's.
  Pipeline pipeline = MakeZooPipeline("gbdt", 211);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  ASSERT_GT(1000u, DenseKernel::kBlockRows);

  Matrix raw = RandomRaw(1000, 4, 3, 223, 0.05);
  DenseKernelScratch scratch;
  std::vector<double> batch;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
  DenseKernelScratch row_scratch;
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, batch[r],
                 kernel.ScoreRow(raw.row(r), &row_scratch))
        << "row " << r;
  }
}

TEST(DenseKernelTest, ScratchReuseAcrossModelsIsClean) {
  // One thread_local scratch serves every model on a worker thread; a
  // wider model must not leave residue that perturbs a narrower one.
  Pipeline wide = MakeZooPipeline("gbdt", 307);
  Pipeline narrow = MakeZooPipeline("logistic", 311);
  auto wide_graph = wide.Compile();
  auto narrow_graph = narrow.Compile();
  ASSERT_TRUE(wide_graph.ok() && narrow_graph.ok());
  DenseKernel wide_kernel(*wide_graph);
  DenseKernel narrow_kernel(*narrow_graph);
  ASSERT_TRUE(wide_kernel.ok() && narrow_kernel.ok());

  Matrix raw = RandomRaw(64, 4, 3, 313);
  DenseKernelScratch fresh;
  std::vector<double> expected;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &fresh, &expected).ok());

  DenseKernelScratch shared;
  std::vector<double> warmup;
  ASSERT_TRUE(wide_kernel.ScoreBatch(raw, &shared, &warmup).ok());
  std::vector<double> reused;
  ASSERT_TRUE(narrow_kernel.ScoreBatch(raw, &shared, &reused).ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, reused[r], expected[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// 1b. The flattened tree walk: shapes and row counts that stress it.

/// Longest (or, with `shortest`, shortest) root-to-leaf path.
size_t TreeDepth(const ml::Tree& tree, bool shortest = false,
                 size_t node = 0) {
  const ml::TreeNode& n = tree.nodes[node];
  if (n.is_leaf()) return 0;
  size_t left = TreeDepth(tree, shortest, static_cast<size_t>(n.left));
  size_t right = TreeDepth(tree, shortest, static_cast<size_t>(n.right));
  return 1 + (shortest ? std::min(left, right) : std::max(left, right));
}

/// Trains a 7-tree random forest over the zoo's inputs. `with_imputer` false
/// leaves NaN inputs unfilled, so they reach the split nodes.
Pipeline MakeTreePipeline(bool with_imputer, size_t max_depth,
                          uint64_t seed) {
  Pipeline pipeline;
  std::vector<FeatureSpec> specs = NumericSpecs(4);
  specs.push_back(
      FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  Matrix raw = RandomRaw(600, 4, 3, seed);
  pipeline.FitFeaturizers(raw, with_imputer, /*with_scaler=*/true);
  Dataset features;
  features.x = pipeline.Transform(raw);
  // A quarter of the labels flipped: purifying them needs deep, ragged
  // trees.
  Random noise(seed + 1);
  for (size_t r = 0; r < raw.rows(); ++r) {
    bool label = raw.at(r, 0) * raw.at(r, 2) > 0.4;
    if (noise.NextDouble() < 0.25) label = !label;
    features.y.push_back(label ? 1.0 : 0.0);
  }
  ml::ForestOptions options;
  options.num_trees = 7;
  options.tree.max_depth = max_depth;
  options.tree.min_samples_leaf = 1;
  options.tree.seed = seed;
  pipeline.SetTreeModel(TrainRandomForest(features, options));
  return pipeline;
}

/// Scores the first `rows` rows of `raw` through the kernel's batch and
/// single-row paths, RowScorer and GraphRuntime; all four must agree
/// bitwise.
void ExpectBitwiseOracle(const Pipeline& pipeline, const Matrix& all,
                         size_t rows) {
  SCOPED_TRACE(std::to_string(rows) + " rows");
  Matrix raw(rows, all.cols());
  for (size_t r = 0; r < rows; ++r) {
    std::copy(all.row(r), all.row(r) + all.cols(), raw.row(r));
  }
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  std::vector<double> interpreted = RowScorer(pipeline).ScoreAll(raw);
  auto graph_scores = GraphRuntime(&*graph).RunToScores(raw);
  ASSERT_TRUE(graph_scores.ok());
  DenseKernelScratch scratch;
  std::vector<double> batch;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
  ASSERT_EQ(batch.size(), rows);
  for (size_t r = 0; r < rows; ++r) {
    EXPECT_PRED2(BitEq, batch[r], interpreted[r]) << "row " << r;
    EXPECT_PRED2(BitEq, batch[r], (*graph_scores)[r]) << "row " << r;
    EXPECT_PRED2(BitEq, batch[r], kernel.ScoreRow(raw.row(r), &scratch))
        << "row " << r;
  }
}

const size_t kOracleRowCounts[] = {1, 7, 8, 9, 255, 256, 257};

TEST(DenseKernelTreeWalkTest, UnbalancedDeepForest) {
  Pipeline pipeline = MakeTreePipeline(/*with_imputer=*/true, 10, 503);
  size_t deepest = 0, widest_gap = 0;
  for (const ml::Tree& tree : pipeline.tree_model().trees) {
    deepest = std::max(deepest, TreeDepth(tree));
    widest_gap = std::max(widest_gap, TreeDepth(tree) -
                                          TreeDepth(tree, /*shortest=*/true));
  }
  EXPECT_EQ(deepest, 10u);
  EXPECT_GE(widest_gap, 5u);  // leaves far apart in depth
  Matrix raw = RandomRaw(300, 4, 3, 509, /*nan_fraction=*/0.1);
  for (size_t rows : kOracleRowCounts) {
    ExpectBitwiseOracle(pipeline, raw, rows);
  }
}

TEST(DenseKernelTreeWalkTest, SingleLeafTreesAmongDeepOnes) {
  Pipeline pipeline = MakeTreePipeline(/*with_imputer=*/true, 6, 521);
  ml::TreeEnsembleModel model = pipeline.tree_model();
  ml::Tree stump;
  stump.nodes.push_back(ml::TreeNode{});
  stump.nodes[0].value = 0.375;
  model.trees.insert(model.trees.begin(), stump);
  stump.nodes[0].value = -0.125;
  model.trees.insert(model.trees.begin() + 3, stump);
  model.trees.push_back(stump);
  pipeline.SetTreeModel(model);
  Matrix raw = RandomRaw(300, 4, 3, 523, /*nan_fraction=*/0.1);
  for (size_t rows : kOracleRowCounts) {
    ExpectBitwiseOracle(pipeline, raw, rows);
  }

  // Only single leaves: every group walks zero levels.
  model.trees = {stump, stump};
  pipeline.SetTreeModel(model);
  for (size_t rows : kOracleRowCounts) {
    ExpectBitwiseOracle(pipeline, raw, rows);
  }
}

TEST(DenseKernelTreeWalkTest, NaNReachesSplitsWithoutImputer) {
  Pipeline pipeline = MakeTreePipeline(/*with_imputer=*/false, 6, 541);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  for (const GraphNode& node : graph->nodes()) {
    EXPECT_NE(node.op, OpType::kImputer);
  }
  Matrix raw = RandomRaw(300, 4, 3, 547, /*nan_fraction=*/0.3);
  for (size_t r = 0; r < raw.rows(); r += 5) {
    raw.at(r, 4) = std::nan("");  // NULL category: all one-hot slots 0
  }
  for (size_t rows : kOracleRowCounts) {
    ExpectBitwiseOracle(pipeline, raw, rows);
  }
}

/// Input(2) -> TreeEnsemble over one hand-built tree.
ModelGraph OneTreeGraph(std::vector<ml::TreeNode> nodes) {
  ModelGraph graph;
  int input = graph.SetInput(2);
  GraphNode ensemble;
  ensemble.op = OpType::kTreeEnsemble;
  ensemble.inputs = {input};
  ensemble.trees.push_back(ml::Tree{std::move(nodes)});
  graph.SetOutput(graph.AddNode(ensemble));
  return graph;
}

ml::TreeNode Split(int32_t feature, int32_t left, int32_t right) {
  ml::TreeNode node;
  node.feature = feature;
  node.threshold = 0.5;
  node.left = left;
  node.right = right;
  return node;
}

ml::TreeNode Leaf(double value) {
  ml::TreeNode node;
  node.value = value;
  return node;
}

TEST(DenseKernelTreeWalkTest, RejectsSplitFeatureBeyondInputWidth) {
  ModelGraph graph = OneTreeGraph({Split(1, 1, 2), Leaf(1.0), Leaf(2.0)});
  ASSERT_TRUE(graph.Finalize().ok());
  EXPECT_TRUE(DenseKernel(graph).ok());
  // Finalize would refuse this; the kernel must not rely on it.
  graph.mutable_nodes()[1].trees[0].nodes[0].feature = 2;
  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kInvalidArgument);
}

TEST(DenseKernelTreeWalkTest, RejectsChildNotAfterParent) {
  // Node 1 points back at the root: a cycle the fixed-depth walk could
  // never bound.
  ModelGraph graph = OneTreeGraph(
      {Split(0, 1, 3), Split(1, 0, 2), Leaf(1.0), Leaf(2.0)});
  ASSERT_TRUE(graph.Finalize().ok());
  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
  EXPECT_EQ(kernel.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// 1c. Threshold mode: ScoreThreshold's verdicts against full scores.

using ml::ThresholdOp;

const ThresholdOp kOps[] = {ThresholdOp::kGt, ThresholdOp::kGe,
                            ThresholdOp::kLt, ThresholdOp::kLe};
const size_t kThresholdRowCounts[] = {1, 7, 8, 9, 255, 256, 257, 513};

/// A boosted (summed) ensemble over the zoo's inputs; `logistic` adds the
/// trailing Sigmoid, `with_imputer` false lets NaN reach the splits.
Pipeline MakeBoostedPipeline(bool logistic, bool with_imputer,
                             uint64_t seed) {
  Pipeline pipeline;
  std::vector<FeatureSpec> specs = NumericSpecs(4);
  specs.push_back(
      FeatureSpec{"seg", FeatureKind::kCategorical, {"a", "b", "c"}});
  pipeline.SetInputs(std::move(specs));
  pipeline.set_task(ml::ModelTask::kBinaryClassification);
  Matrix raw = RandomRaw(600, 4, 3, seed);
  pipeline.FitFeaturizers(raw, with_imputer, /*with_scaler=*/true);
  Dataset features;
  features.x = pipeline.Transform(raw);
  for (size_t r = 0; r < raw.rows(); ++r) {
    features.y.push_back(
        raw.at(r, 0) - raw.at(r, 1) + 0.3 * raw.at(r, 4) > 0.5 ? 1.0 : 0.0);
  }
  ml::GbtOptions options;
  options.num_trees = 24;
  options.max_depth = 4;
  options.seed = seed;
  ml::TreeEnsembleModel model = TrainGradientBoosting(features, options);
  model.logistic = logistic;
  pipeline.SetTreeModel(std::move(model));
  return pipeline;
}

/// `pipeline` with its link function removed: RowScorer on it yields the
/// Sigmoid's input, which is what the threshold mode compares.
Pipeline WithoutLink(Pipeline pipeline) {
  ml::TreeEnsembleModel trees = pipeline.tree_model();
  if (!trees.trees.empty()) {
    trees.logistic = false;
    pipeline.SetTreeModel(std::move(trees));
  } else {
    ml::LinearModel linear = pipeline.linear_model();
    linear.logistic = false;
    pipeline.SetLinearModel(std::move(linear));
  }
  return pipeline;
}

/// Inserts single-leaf trees at the front, the middle and the back.
Pipeline WithStumps(Pipeline pipeline) {
  ml::TreeEnsembleModel model = pipeline.tree_model();
  ml::Tree stump;
  stump.nodes.push_back(Leaf(0.375));
  model.trees.insert(model.trees.begin(), stump);
  stump.nodes[0].value = -0.125;
  model.trees.insert(model.trees.begin() + model.trees.size() / 2, stump);
  model.trees.push_back(stump);
  pipeline.SetTreeModel(std::move(model));
  return pipeline;
}

/// Thresholds to try: the exact scores of some rows (ties), 0 and 1,
/// values outside (0, 1) and outside every score.
std::vector<double> ThresholdsFor(const std::vector<double>& scores) {
  std::vector<double> thresholds = {0.0, 1.0, -0.5, 1.5, 0.5};
  double lo = 0.0, hi = 0.0;
  for (size_t r = 0; r < scores.size(); ++r) {
    if (std::isnan(scores[r])) continue;
    if (r % 41 == 0) thresholds.push_back(scores[r]);
    lo = std::min(lo, scores[r]);
    hi = std::max(hi, scores[r]);
  }
  thresholds.push_back(lo - 1.0);
  thresholds.push_back(hi + 1.0);
  return thresholds;
}

/// Scores the first `rows` rows of `all` through `ScoreThreshold` for
/// every op and threshold, and checks each verdict against the comparison
/// of the full score (RowScorer, equal to ScoreBatch), against
/// flock::ScoreThresholdBatch with and without the kernel, and, for a
/// trailing Sigmoid, against comparing its input with logit(t).
void ExpectThresholdOracle(const Pipeline& pipeline, const Matrix& all,
                           size_t rows) {
  SCOPED_TRACE(std::to_string(rows) + " rows");
  Matrix raw(rows, all.cols());
  for (size_t r = 0; r < rows; ++r) {
    std::copy(all.row(r), all.row(r) + all.cols(), raw.row(r));
  }
  flock::ModelEntry entry;
  entry.pipeline = pipeline;
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  entry.graph = std::move(graph).value();
  flock::ModelRegistry::AnalyzeEntry(&entry);
  const DenseKernel& kernel = *entry.kernel;
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  flock::ModelEntry no_kernel = entry;
  no_kernel.kernel = nullptr;

  std::vector<double> full = RowScorer(pipeline).ScoreAll(raw);
  DenseKernelScratch scratch;
  std::vector<double> batch;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &batch).ok());
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_PRED2(BitEq, batch[r], full[r]) << "row " << r;
  }
  const bool sigmoid = entry.ends_with_sigmoid;
  const std::vector<double> z =
      sigmoid ? RowScorer(WithoutLink(pipeline)).ScoreAll(raw) : full;

  std::vector<bool> verdicts;
  for (double t : ThresholdsFor(full)) {
    for (ThresholdOp op : kOps) {
      SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)) + " t " +
                   std::to_string(t));
      ASSERT_TRUE(
          kernel.ScoreThreshold(raw, op, t, &scratch, &verdicts).ok());
      ASSERT_EQ(verdicts.size(), rows);
      auto pushed = flock::ScoreThresholdBatch(entry, raw, t, op);
      auto fallback = flock::ScoreThresholdBatch(no_kernel, raw, t, op);
      ASSERT_TRUE(pushed.ok() && fallback.ok());
      for (size_t r = 0; r < rows; ++r) {
        bool expected = ml::Compare(full[r], op, t);
        if (sigmoid && t > 0.0 && t < 1.0) {
          // Ties are decided on z against logit(t); elsewhere the two
          // comparisons agree.
          expected = ml::Compare(z[r], op, std::log(t / (1.0 - t)));
          if (std::fabs(full[r] - t) > 1e-12) {
            EXPECT_EQ(expected, ml::Compare(full[r], op, t)) << "row " << r;
          }
        }
        EXPECT_EQ(verdicts[r], expected) << "row " << r;
        EXPECT_EQ((*pushed)[r], expected) << "row " << r;
        EXPECT_EQ((*fallback)[r], expected) << "row " << r;
      }
    }
  }
}

void ExpectThresholdOracleAtAllRowCounts(const Pipeline& pipeline,
                                         double nan_fraction,
                                         uint64_t seed) {
  Matrix raw = RandomRaw(513, 4, 3, seed, nan_fraction);
  for (size_t rows : kThresholdRowCounts) {
    ExpectThresholdOracle(pipeline, raw, rows);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DenseKernelThresholdTest, BoostedTreesWithSigmoid) {
  ExpectThresholdOracleAtAllRowCounts(
      MakeBoostedPipeline(/*logistic=*/true, /*with_imputer=*/true, 601),
      0.1, 603);
}

TEST(DenseKernelThresholdTest, BoostedTreesWithoutSigmoid) {
  ExpectThresholdOracleAtAllRowCounts(
      MakeBoostedPipeline(/*logistic=*/false, /*with_imputer=*/true, 607),
      0.1, 609);
}

TEST(DenseKernelThresholdTest, AveragedForest) {
  ExpectThresholdOracleAtAllRowCounts(MakeZooPipeline("forest", 611), 0.1,
                                      613);
}

TEST(DenseKernelThresholdTest, LinearModels) {
  ExpectThresholdOracleAtAllRowCounts(MakeZooPipeline("linear", 617), 0.1,
                                      619);
  ExpectThresholdOracleAtAllRowCounts(MakeZooPipeline("logistic", 621), 0.1,
                                      623);
}

TEST(DenseKernelThresholdTest, SingleLeafTrees) {
  for (bool logistic : {false, true}) {
    SCOPED_TRACE(logistic ? "sigmoid" : "raw");
    Pipeline pipeline = WithStumps(
        MakeBoostedPipeline(logistic, /*with_imputer=*/true, 627));
    ExpectThresholdOracleAtAllRowCounts(pipeline, 0.1, 629);
    // Only single leaves: every row is decided before any walk.
    ml::TreeEnsembleModel model = pipeline.tree_model();
    model.trees = {model.trees.front(), model.trees.back()};
    pipeline.SetTreeModel(std::move(model));
    ExpectThresholdOracleAtAllRowCounts(pipeline, 0.1, 631);
  }
}

TEST(DenseKernelThresholdTest, NaNFeaturesAndNaNLeaves) {
  // No imputer: NaN reaches the splits and goes right.
  Pipeline pipeline =
      MakeBoostedPipeline(/*logistic=*/false, /*with_imputer=*/false, 641);
  ExpectThresholdOracleAtAllRowCounts(pipeline, 0.3, 643);
  // A NaN leaf makes every sum NaN: no bound decides a row, so each one
  // walks all trees and compares false.
  ml::TreeEnsembleModel model = pipeline.tree_model();
  model.trees.insert(model.trees.begin() + 3,
                     ml::Tree{{Leaf(std::nan(""))}});
  pipeline.SetTreeModel(std::move(model));
  ExpectThresholdOracleAtAllRowCounts(pipeline, 0.3, 647);
}

TEST(DenseKernelThresholdTest, CancelledTokenStopsScoring) {
  Pipeline pipeline =
      MakeBoostedPipeline(/*logistic=*/true, /*with_imputer=*/true, 653);
  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok());
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  Matrix raw = RandomRaw(300, 4, 3, 659);
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  CancelScope scope(token);
  DenseKernelScratch scratch;
  std::vector<bool> verdicts;
  Status status =
      kernel.ScoreThreshold(raw, ThresholdOp::kGt, 0.5, &scratch, &verdicts);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
}

// ---------------------------------------------------------------------------
// 2a. Zero-variance scaler columns (the divide-by-zero bug).

TEST(ScalerGuardTest, ZeroVarianceColumnIsPassThroughEverywhere) {
  // A column whose training std is exactly 0 used to compile to
  // scale = 1/0 = inf, poisoning every score downstream. The guard clamps
  // |std| <= kMinScaleStd to 1.0, so the column passes through centered,
  // and all three scorers agree bitwise.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(3));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetImputer({0.0, 0.0, 0.0});
  pipeline.SetScaler({1.0, 5.0, -2.0}, {2.0, 0.0, 1e-300});
  LinearModel model;
  model.weights = {0.5, 1.0, -0.25};
  model.bias = 0.125;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  auto graph = pipeline.Compile();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  DenseKernel kernel(*graph);
  ASSERT_TRUE(kernel.ok());
  RowScorer interpreted(pipeline);
  GraphRuntime runtime(&*graph);

  Matrix raw(3, 3);
  raw.data() = {2.0, 5.0, -2.0, -1.0, 7.5, 0.0, 0.0, 5.0, -2.0};
  auto graph_scores = runtime.RunToScores(raw);
  ASSERT_TRUE(graph_scores.ok());
  DenseKernelScratch scratch;
  std::vector<double> kernel_scores;
  ASSERT_TRUE(kernel.ScoreBatch(raw, &scratch, &kernel_scores).ok());
  std::vector<double> old_scores = interpreted.ScoreAll(raw);

  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_TRUE(std::isfinite(kernel_scores[r])) << "row " << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], (*graph_scores)[r]) << r;
    EXPECT_PRED2(BitEq, kernel_scores[r], old_scores[r]) << r;
  }
  // Pass-through of the offset: the guarded columns contribute
  // (v - mean) * 1.0. Row 0 sits exactly on the means, so only the first
  // (healthy) column moves the score.
  EXPECT_DOUBLE_EQ(kernel_scores[0], 0.5 * 0.5 + 0.125);
  // And a guarded column still influences the score (centered, not
  // zeroed): row 1 moves it to 7.5 and the tiny-std column to 0.
  EXPECT_DOUBLE_EQ(kernel_scores[1],
                   0.5 * -1.0 + 1.0 * 2.5 - 0.25 * 2.0 + 0.125);
}

TEST(ScalerGuardTest, PipelineTransformAndScoreRowGuarded) {
  // The same guard covers the eager Pipeline paths (Transform/ScoreRow),
  // which divide by std rather than multiplying by the compiled scale.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  pipeline.set_task(ml::ModelTask::kRegression);
  pipeline.SetScaler({0.0, 3.0}, {1.0, 0.0});
  LinearModel model;
  model.weights = {1.0, 1.0};
  model.bias = 0.0;
  model.logistic = false;
  pipeline.SetLinearModel(model);

  Matrix raw(1, 2);
  raw.data() = {2.0, 4.5};
  Matrix transformed = pipeline.Transform(raw);
  EXPECT_DOUBLE_EQ(transformed.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(transformed.at(0, 1), 1.5);  // (4.5-3)/guard(0) = 1.5
  EXPECT_DOUBLE_EQ(pipeline.ScoreRow(raw.row(0)), 3.5);
}

// ---------------------------------------------------------------------------
// 2b. Missing features: NaN-imputed results, never std::out_of_range.

TEST(RowScorerTest, ShortRowScoresAsNaNImputed) {
  // RowScorer::Score used to call row.at(name) and throw out_of_range
  // straight through the serving stack when a feature was absent. Now a
  // missing raw entry behaves exactly like an explicit NaN: the imputer
  // fills it.
  Pipeline pipeline = MakeZooPipeline("gbdt", 401);
  RowScorer scorer(pipeline);

  std::vector<double> full = {1.0, -0.5, 2.0, 0.25, 1.0};
  std::vector<double> with_nan = full;
  with_nan[3] = std::nan("");
  std::vector<double> truncated = {1.0, -0.5, 2.0};  // f3 + seg missing

  double full_score = 0.0, nan_score = 0.0, short_score = 0.0;
  EXPECT_NO_THROW(full_score = scorer.Score(full));
  EXPECT_NO_THROW(nan_score = scorer.Score(with_nan));
  EXPECT_NO_THROW(short_score = scorer.Score(truncated));
  EXPECT_TRUE(std::isfinite(full_score));
  EXPECT_TRUE(std::isfinite(nan_score));
  EXPECT_TRUE(std::isfinite(short_score));

  // A short row is the same as padding with NaN.
  std::vector<double> padded = {1.0, -0.5, 2.0, std::nan(""),
                                std::nan("")};
  EXPECT_PRED2(BitEq, short_score, scorer.Score(padded));
}

TEST(RowScorerTest, MissingFeatureWithoutImputerYieldsNaNNotThrow) {
  // No imputer in the pipeline: the NaN must propagate to the score (a
  // deterministic "don't know"), not explode as an exception.
  Pipeline pipeline;
  pipeline.SetInputs(NumericSpecs(2));
  LinearModel model;
  model.weights = {1.0, 2.0};
  model.bias = 0.0;
  pipeline.SetLinearModel(model);
  RowScorer scorer(pipeline);

  double score = 0.0;
  EXPECT_NO_THROW(score = scorer.Score({3.0}));
  EXPECT_TRUE(std::isnan(score));
}

TEST(RowScorerTest, NoModelFallbackIsDeterministic) {
  // A featurizer-only pipeline has no "score" output. With one input the
  // passthrough value is unambiguous; with several, the old code returned
  // whatever map entry sorted first — now it is a deterministic NaN.
  Pipeline single;
  single.SetInputs(NumericSpecs(1));
  RowScorer single_scorer(single);
  EXPECT_DOUBLE_EQ(single_scorer.Score({4.25}), 4.25);

  Pipeline multi;
  multi.SetInputs(NumericSpecs(3));
  RowScorer multi_scorer(multi);
  double score = 0.0;
  EXPECT_NO_THROW(score = multi_scorer.Score({1.0, 2.0, 3.0}));
  EXPECT_TRUE(std::isnan(score));
}

// ---------------------------------------------------------------------------
// 2c. Non-chain graphs fall back to GraphRuntime.

TEST(DenseKernelTest, RejectsNonChainGraphs) {
  // A hand-wired diamond (concat reads node 0 and node 1) is valid for
  // the runtime but outside the kernel's straight-line contract.
  ModelGraph graph;
  int input = graph.SetInput(2);
  GraphNode scale;
  scale.op = OpType::kScaler;
  scale.inputs = {input};
  scale.offset = {0.0, 0.0};
  scale.scale = {1.0, 1.0};
  int scaled = graph.AddNode(scale);
  GraphNode concat;
  concat.op = OpType::kConcat;
  concat.inputs = {input, scaled};
  int both = graph.AddNode(concat);
  GraphNode gemm;
  gemm.op = OpType::kGemm;
  gemm.inputs = {both};
  gemm.gemm_weights = Matrix(1, 4, 0.5);
  gemm.gemm_bias = {0.0};
  graph.SetOutput(graph.AddNode(gemm));
  ASSERT_TRUE(graph.Finalize().ok());

  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
  EXPECT_FALSE(kernel.status().ok());
}

TEST(DenseKernelTest, EmptyGraphIsRejectedNotExecuted) {
  ModelGraph graph;
  graph.SetInput(3);
  graph.SetOutput(0);
  DenseKernel kernel(graph);
  EXPECT_FALSE(kernel.ok());
}

// ---------------------------------------------------------------------------
// flock::ScoreBatch boundary + kernel routing

TEST(ScoringBoundaryTest, MismatchedArityIsRejectedNotTruncated) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_EQ(entry.graph.input_cols(), 2u);

  for (size_t cols : {size_t{1}, size_t{3}, size_t{7}}) {
    Matrix raw(4, cols, 0.5);
    auto scores = flock::ScoreBatch(entry, raw);
    EXPECT_FALSE(scores.ok()) << cols << " cols";
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
    auto verdicts = flock::ScoreThresholdBatch(entry, raw, 0.5,
                                               flock::ThresholdOp::kGt);
    EXPECT_FALSE(verdicts.ok()) << cols << " cols";
    EXPECT_EQ(verdicts.status().code(), StatusCode::kInvalidArgument);
  }

  Matrix ok_raw(4, 2, 0.5);
  EXPECT_TRUE(flock::ScoreBatch(entry, ok_raw).ok());
}

TEST(ScoringBoundaryTest, AnalyzeEntryCompilesKernel) {
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);
  EXPECT_TRUE(entry.kernel->ok()) << entry.kernel->status().ToString();
  EXPECT_EQ(entry.kernel->input_cols(), 2u);
}

TEST(ScoringBoundaryTest, KernelRoutingMatchesRuntimeFallback) {
  // The same entry scored with and without its kernel must agree bitwise
  // — this is the guarantee that lets every caller (serving, lifecycle
  // shadow/canary, the optimizer's specializations) ignore which path
  // actually ran.
  flock::ModelEntry entry = MakeToyEntry();
  ASSERT_NE(entry.kernel, nullptr);

  Random rng(17);
  Matrix raw(64, 2);
  for (size_t r = 0; r < raw.rows(); ++r) {
    raw.at(r, 0) = rng.NextGaussian();
    raw.at(r, 1) = rng.NextGaussian();
  }
  auto with_kernel = flock::ScoreBatch(entry, raw);
  ASSERT_TRUE(with_kernel.ok());

  flock::ModelEntry no_kernel = entry;
  no_kernel.kernel = nullptr;
  auto fallback = flock::ScoreBatch(no_kernel, raw);
  ASSERT_TRUE(fallback.ok());
  for (size_t r = 0; r < raw.rows(); ++r) {
    EXPECT_PRED2(BitEq, (*with_kernel)[r], (*fallback)[r]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// 3. serve::MicroBatcher — coalescing correctness under concurrency.

std::vector<double> ReferenceScores(const flock::ModelEntry& entry,
                                    const Matrix& rows) {
  auto scores = flock::ScoreBatch(entry, rows);
  EXPECT_TRUE(scores.ok());
  return std::move(scores).value();
}

TEST(MicroBatcherTest, CoalescedScoresAreBitwiseIdentical) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 8;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;  // force the window even when lonely
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  Random rng(23);
  Matrix rows(kThreads, 2);
  for (size_t r = 0; r < kThreads; ++r) {
    rows.at(r, 0) = rng.NextGaussian();
    rows.at(r, 1) = rng.NextGaussian();
  }
  std::vector<double> expected = ReferenceScores(entry, rows);

  std::vector<double> got(kThreads, 0.0);
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      auto score = batcher.ScoreOne(entry, rows.row(t), 2);
      statuses[t] = score.status();
      if (score.ok()) got[t] = *score;
    });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_PRED2(BitEq, got[t], expected[t]) << "request " << t;
  }
  EXPECT_EQ(batcher.rows_scored(), kThreads);
  // With all 8 released together and a 50 ms window, at least one batch
  // actually coalesced (>= 2 rows in one kernel invocation).
  EXPECT_GT(batcher.rows_coalesced(), 0u);
  EXPECT_LT(batcher.batches_executed() + batcher.bypassed(), kThreads);
  EXPECT_GE(batcher.batch_sizes().count(), 1u);
}

TEST(MicroBatcherTest, DrainFlushesPartialBatchPromptly) {
  // One lone request with a 10 s window and no solo bypass: it becomes a
  // leader and waits. Drain() must flush it immediately — this is what
  // guarantees server Shutdown never waits out a coalescing window.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 32;
  options.max_wait_ms = 10'000.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.7, -0.3};
  std::vector<double> expected = ReferenceScores(entry, row);

  Stopwatch timer;
  auto pending = std::async(std::launch::async, [&] {
    return batcher.ScoreOne(entry, row.row(0), 2);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  batcher.Drain();
  auto score = pending.get();
  ASSERT_TRUE(score.ok()) << score.status().ToString();
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 5000.0) << "drain did not flush";
}

TEST(MicroBatcherTest, SoloRequestBypassesWindow) {
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_wait_ms = 10'000.0;  // would hang if the window applied
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  Matrix row(1, 2);
  row.data() = {0.1, 0.2};
  std::vector<double> expected = ReferenceScores(entry, row);
  Stopwatch timer;
  auto score = batcher.ScoreOne(entry, row.row(0), 2);
  ASSERT_TRUE(score.ok());
  EXPECT_PRED2(BitEq, *score, expected[0]);
  EXPECT_LT(timer.ElapsedMillis(), 1000.0);
  EXPECT_EQ(batcher.bypassed(), 1u);
  EXPECT_EQ(batcher.rows_coalesced(), 0u);
}

TEST(MicroBatcherTest, ArityErrorPropagatesToEveryWaiter) {
  // A batch whose execution fails (wrong width for the model) must hand
  // the error to leader and followers alike — nobody hangs, nobody gets
  // a stale score.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 4;
  options.max_wait_ms = 50.0;
  options.bypass_solo = false;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 4;
  std::vector<double> bad_row = {1.0, 2.0, 3.0};  // model wants width 2
  std::vector<Status> statuses(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      statuses[t] = batcher.ScoreOne(entry, bad_row.data(), 3).status();
    });
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(statuses[t].ok()) << "request " << t;
    EXPECT_EQ(statuses[t].code(), StatusCode::kInvalidArgument);
  }
}

TEST(MicroBatcherTest, ConcurrentStressStaysCorrect) {
  // The TSan workhorse: many threads, many rounds, tiny window, mixed
  // batch shapes. Every result must still be bitwise-correct for its own
  // row — coalescing must never cross-wire indices.
  flock::ModelEntry entry = MakeToyEntry();
  serve::MicroBatchOptions options;
  options.enabled = true;
  options.max_batch = 6;
  options.max_wait_ms = 0.2;
  options.bypass_solo = true;
  serve::MicroBatcher batcher(options);

  const size_t kThreads = 8;
  const size_t kRounds = 200;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      DenseKernelScratch scratch;
      for (size_t i = 0; i < kRounds; ++i) {
        double row[2] = {rng.NextGaussian(), rng.NextGaussian()};
        double expected = entry.kernel->ScoreRow(row, &scratch);
        auto score = batcher.ScoreOne(entry, row, 2);
        if (!score.ok() || !BitEq(*score, expected)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(batcher.rows_scored(), kThreads * kRounds);
}

}  // namespace
}  // namespace flock::kernel_test
