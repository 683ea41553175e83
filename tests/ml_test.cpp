// Tests for campuslab::ml — dataset mechanics, CART behaviour (XOR,
// purity, depth caps, determinism, serialization), random forest,
// gradient boosting, logistic regression, and hand-computed metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "campuslab/ml/boosting.h"
#include "campuslab/ml/forest.h"
#include "campuslab/ml/linear.h"
#include "campuslab/ml/metrics.h"
#include "campuslab/ml/tree.h"
#include "campuslab/util/hash.h"

namespace campuslab::ml {
namespace {

Dataset two_blob_dataset(std::size_t n_per_class, double separation,
                         std::uint64_t seed) {
  Dataset data({"x0", "x1"}, {"neg", "pos"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double a[2] = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    data.add(a, 0);
    const double b[2] = {rng.normal(separation, 1.0),
                         rng.normal(separation, 1.0)};
    data.add(b, 1);
  }
  return data;
}

Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data({"x0", "x1"}, {"zero", "one"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1, 1);
    const double x1 = rng.uniform(-1, 1);
    const double row[2] = {x0, x1};
    data.add(row, (x0 > 0) != (x1 > 0) ? 1 : 0);
  }
  return data;
}

/// Three classes over a mix of heavily tied columns (a quantized grid,
/// a quarter-step grid, a 0/1 flag) and continuous ones — the shape of
/// flow features, where counters repeat and ratios do not.
Dataset tied_dataset(std::size_t n, std::uint64_t seed) {
  Dataset data({"grid8", "quarter", "flag", "normal", "uniform"},
               {"a", "b", "c"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double grid = std::floor(rng.uniform(0.0, 8.0));
    const double quarter = std::round(rng.uniform(0.0, 1.0) * 4.0) / 4.0;
    const double flag = rng.chance(0.3) ? 1.0 : 0.0;
    const double normal = rng.normal(0.0, 1.0);
    const double uniform = rng.uniform(-2.0, 2.0);
    const double row[5] = {grid, quarter, flag, normal, uniform};
    int y = grid + 2.0 * quarter > 5.0 ? 2 : (normal + flag > 0.5 ? 1 : 0);
    if (rng.chance(0.1)) y = static_cast<int>(rng.below(3));
    data.add(row, y);
  }
  return data;
}

/// Binary relabelling of tied_dataset (class "a" vs the rest).
Dataset tied_binary_dataset(std::size_t n, std::uint64_t seed) {
  const auto multi = tied_dataset(n, seed);
  Dataset data(multi.feature_names(), {"neg", "pos"});
  for (std::size_t i = 0; i < multi.n_rows(); ++i)
    data.add(multi.row(i), multi.label(i) == 0 ? 0 : 1);
  return data;
}

// --------------------------------------------------------------- Dataset

TEST(Dataset, AddAndAccess) {
  Dataset d({"a", "b"}, {"c0", "c1", "c2"});
  const double r0[2] = {1.0, 2.0};
  const double r1[2] = {3.0, 4.0};
  d.add(r0, 0);
  d.add(r1, 2);
  EXPECT_EQ(d.n_rows(), 2u);
  EXPECT_EQ(d.n_features(), 2u);
  EXPECT_EQ(d.n_classes(), 3);
  EXPECT_EQ(d.row(1)[0], 3.0);
  EXPECT_EQ(d.label(1), 2);
  EXPECT_EQ(d.class_counts(), (std::vector<std::size_t>{1, 0, 1}));
}

TEST(Dataset, StratifiedSplitPreservesClassBalance) {
  auto data = two_blob_dataset(500, 3.0, 1);
  Rng rng(2);
  const auto [train, test] = data.stratified_split(0.3, rng);
  EXPECT_EQ(train.n_rows() + test.n_rows(), data.n_rows());
  const auto train_counts = train.class_counts();
  const auto test_counts = test.class_counts();
  EXPECT_EQ(train_counts[0], train_counts[1]);
  EXPECT_EQ(test_counts[0], test_counts[1]);
  EXPECT_NEAR(static_cast<double>(test.n_rows()) /
                  static_cast<double>(data.n_rows()),
              0.3, 0.01);
}

TEST(Dataset, BootstrapSameSizeFromOriginalRows) {
  auto data = two_blob_dataset(50, 2.0, 3);
  Rng rng(4);
  const auto boot = data.bootstrap(rng);
  EXPECT_EQ(boot.n_rows(), data.n_rows());
}

TEST(Dataset, BootstrapRowsAreTheBootstrapDraw) {
  auto data = two_blob_dataset(50, 2.0, 4);
  Rng a(5), b(5);
  const auto boot = data.bootstrap(a);
  const auto rows = data.bootstrap_rows(b);
  ASSERT_EQ(rows.size(), boot.n_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(boot.label(i), data.label(rows[i]));
    EXPECT_EQ(boot.row(i)[0], data.row(rows[i])[0]);
  }
  EXPECT_EQ(a.next(), b.next());  // same rng calls
}

// ----------------------------------------------------------- FeatureRanks

TEST(FeatureRanks, LevelsAreSortedDistinctValues) {
  Dataset data({"x"}, {"a", "b"});
  for (const double v : {3.0, -1.0, 3.0, 0.0, -0.0, 7.5, -1.0}) {
    const double row[1] = {v};
    data.add(row, 0);
  }
  const FeatureRanks ranks(data);
  // Four levels: -1, 0 (either sign), 3, 7.5.
  const std::uint32_t expected_rank[7] = {2, 0, 2, 1, 1, 3, 0};
  for (std::size_t i = 0; i < data.n_rows(); ++i)
    EXPECT_EQ(ranks.rank(0, i), expected_rank[i]);
  EXPECT_EQ(ranks.level(0, 0), -1.0);
  EXPECT_EQ(ranks.level(0, 1), 0.0);
  EXPECT_EQ(ranks.level(0, 2), 3.0);
  EXPECT_EQ(ranks.level(0, 3), 7.5);
  for (std::size_t i = 0; i < data.n_rows(); ++i)
    EXPECT_EQ(ranks.value(0, i), data.row(i)[0]);
}

TEST(FeatureRanks, SorterReproducesValueRowOrder) {
  // Dense nodes take the counting sort, sparse ones std::sort; both
  // must give the (value, row) order of a comparison sort.
  Rng rng(8);
  RankSorter sorter;
  for (const std::uint32_t levels : {3u, 40u, 5000u}) {
    for (const std::size_t n : {1u, 2u, 17u, 600u}) {
      std::vector<RankedRow> keyed;
      for (std::uint32_t row = 0; keyed.size() < n; row += 1 + rng.below(3))
        keyed.push_back(
            {static_cast<std::uint32_t>(rng.below(levels)), row});
      auto expected = keyed;
      std::stable_sort(expected.begin(), expected.end(),
                       [](const RankedRow& a, const RankedRow& b) {
                         return a.rank < b.rank;
                       });
      sorter.sort(keyed);
      ASSERT_EQ(keyed.size(), expected.size());
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(keyed[k].rank, expected[k].rank);
        EXPECT_EQ(keyed[k].row, expected[k].row);
      }
    }
  }
}

TEST(Dataset, FeatureRanges) {
  Dataset d({"a"}, {"c0", "c1"});
  for (double v : {3.0, -1.0, 7.0}) {
    const double row[1] = {v};
    d.add(row, 0);
  }
  const auto ranges = d.feature_ranges();
  EXPECT_EQ(ranges[0].first, -1.0);
  EXPECT_EQ(ranges[0].second, 7.0);
}

// ---------------------------------------------------------- DecisionTree

TEST(DecisionTree, LearnsSimpleThreshold) {
  Dataset data({"x"}, {"lo", "hi"});
  for (int i = 0; i < 100; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, i < 50 ? 0 : 1);
  }
  DecisionTree tree;
  tree.fit(data);
  const double lo[1] = {10.0}, hi[1] = {90.0}, edge[1] = {49.0};
  EXPECT_EQ(tree.predict(lo), 0);
  EXPECT_EQ(tree.predict(hi), 1);
  EXPECT_EQ(tree.predict(edge), 0);
  EXPECT_EQ(tree.depth(), 1);  // one split suffices
  EXPECT_EQ(tree.leaf_count(), 2u);
}

TEST(DecisionTree, SolvesXor) {
  auto data = xor_dataset(2000, 7);
  TreeConfig cfg;
  cfg.max_depth = 4;
  DecisionTree tree(cfg);
  tree.fit(data);
  const auto cm = evaluate(tree, data);
  EXPECT_GT(cm.accuracy(), 0.95);  // axis-aligned XOR needs depth 2
}

TEST(DecisionTree, RespectsMaxDepth) {
  auto data = xor_dataset(2000, 9);
  TreeConfig cfg;
  cfg.max_depth = 1;
  DecisionTree stump(cfg);
  stump.fit(data);
  EXPECT_LE(stump.depth(), 1);
  // A stump cannot solve XOR.
  EXPECT_LT(evaluate(stump, data).accuracy(), 0.7);
}

TEST(DecisionTree, PureDataMakesSingleLeaf) {
  Dataset data({"x"}, {"only", "other"});
  for (int i = 0; i < 20; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, 0);
  }
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
  const double x[1] = {5.0};
  EXPECT_EQ(tree.predict(x), 0);
  EXPECT_DOUBLE_EQ(tree.confidence(x), 1.0);
}

TEST(DecisionTree, MinSamplesLeafHonored) {
  auto data = two_blob_dataset(100, 1.0, 11);
  TreeConfig cfg;
  cfg.min_samples_leaf = 20;
  DecisionTree tree(cfg);
  tree.fit(data);
  for (const auto& node : tree.nodes()) {
    if (node.is_leaf()) {
      EXPECT_GE(node.samples, 20u);
    }
  }
}

TEST(DecisionTree, DeterministicAcrossFits) {
  auto data = two_blob_dataset(300, 1.5, 13);
  DecisionTree a, b;
  a.fit(data);
  b.fit(data);
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

TEST(DecisionTree, RowMapFitMatchesSubsetFit) {
  // Fitting a bootstrap draw through the shared rank table must give
  // the tree that fitting a copied, freshly ranked sample gives.
  const auto data = tied_dataset(500, 14);
  const FeatureRanks ranks(data);
  TreeConfig cfg;
  cfg.max_depth = 12;
  cfg.min_samples_leaf = 2;
  cfg.features_per_split = 2;
  Rng draw(15);
  const auto rows = data.bootstrap_rows(draw);
  Rng rng_a(16), rng_b(16);
  DecisionTree mapped(cfg), copied(cfg);
  mapped.fit(data, ranks, rows, &rng_a);
  copied.fit(data.subset(rows), &rng_b);
  EXPECT_GT(mapped.node_count(), 10u);
  EXPECT_EQ(mapped.serialize(), copied.serialize());
}

TEST(DecisionTree, LeafProbsIsTheLeafDistribution) {
  auto data = two_blob_dataset(200, 1.0, 16);
  DecisionTree tree;
  tree.fit(data);
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const double x[2] = {rng.uniform(-3, 4), rng.uniform(-3, 4)};
    const auto leaf = tree.leaf_probs(x);
    const auto& node =
        tree.nodes()[static_cast<std::size_t>(tree.decision_leaf(x))];
    EXPECT_EQ(leaf.data(), node.class_probs.data());  // no copy
    EXPECT_EQ(std::vector<double>(leaf.begin(), leaf.end()),
              tree.predict_proba(x));
  }
}

TEST(DecisionTree, SampleWeightsShiftDecision) {
  // Same geometry, but weighting class 1 heavily moves the boundary.
  Dataset data({"x"}, {"a", "b"});
  for (int i = 0; i < 10; ++i) {
    const double row[1] = {static_cast<double>(i)};
    data.add(row, i < 8 ? 0 : 1);  // 8 zeros, 2 ones
  }
  std::vector<double> weights(10, 1.0);
  weights[8] = weights[9] = 100.0;
  TreeConfig cfg;
  cfg.min_samples_leaf = 1;
  DecisionTree tree(cfg);
  tree.fit(data, nullptr, weights);
  // The heavily weighted class must dominate its region's leaf.
  const double x[1] = {9.0};
  EXPECT_EQ(tree.predict(x), 1);
}

TEST(DecisionTree, SerializeRoundTrip) {
  auto data = two_blob_dataset(200, 2.0, 17);
  DecisionTree tree;
  tree.fit(data);
  const auto text = tree.serialize();
  const auto restored = DecisionTree::deserialize(text);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.value().node_count(), tree.node_count());
  Rng rng(18);
  for (int i = 0; i < 200; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    EXPECT_EQ(restored.value().predict(x), tree.predict(x));
    EXPECT_EQ(restored.value().predict_proba(x), tree.predict_proba(x));
  }
  EXPECT_EQ(restored.value().feature_names(), tree.feature_names());
}

TEST(DecisionTree, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DecisionTree::deserialize("not a tree").ok());
  EXPECT_FALSE(DecisionTree::deserialize("campuslab-tree v1\nbroken").ok());
  // Out-of-range child index.
  EXPECT_FALSE(DecisionTree::deserialize(
                   "campuslab-tree v1\n2 1 1\nx\na\nb\n0 0.5 5 6 10 0.5 0.5\n")
                   .ok());
}

TEST(DecisionTree, ToStringMentionsFeatureNames) {
  auto data = two_blob_dataset(200, 3.0, 19);
  DecisionTree tree;
  tree.fit(data);
  const auto text = tree.to_string();
  EXPECT_NE(text.find("if x"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

// ---------------------------------------------------------- RandomForest

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  // Noisy, overlapping blobs: a deep single tree overfits; bagging
  // smooths. Evaluate on held-out data.
  auto data = two_blob_dataset(600, 1.2, 23);
  Rng rng(24);
  const auto [train, test] = data.stratified_split(0.4, rng);

  TreeConfig tcfg;
  tcfg.max_depth = 20;
  tcfg.min_samples_leaf = 1;
  DecisionTree tree(tcfg);
  tree.fit(train);

  ForestConfig fcfg;
  fcfg.n_trees = 40;
  fcfg.seed = 25;
  RandomForest forest(fcfg);
  forest.fit(train);

  const double tree_acc = evaluate(tree, test).accuracy();
  const double forest_acc = evaluate(forest, test).accuracy();
  EXPECT_GE(forest_acc, tree_acc - 0.005);
  EXPECT_GT(forest_acc, 0.75);
}

TEST(RandomForest, ProbabilitiesAreDistributions) {
  auto data = two_blob_dataset(200, 2.0, 29);
  ForestConfig cfg;
  cfg.n_trees = 10;
  RandomForest forest(cfg);
  forest.fit(data);
  Rng rng(30);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    const auto probs = forest.predict_proba(x);
    double sum = 0;
    for (const auto p : probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RandomForest, DeterministicForSeed) {
  auto data = two_blob_dataset(200, 1.5, 31);
  ForestConfig cfg;
  cfg.n_trees = 8;
  cfg.seed = 77;
  RandomForest a(cfg), b(cfg);
  a.fit(data);
  b.fit(data);
  Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    EXPECT_EQ(a.predict_proba(x), b.predict_proba(x));
  }
}

TEST(RandomForest, FeatureImportanceFindsSignal) {
  // x0 carries all the signal; x1 is noise.
  Dataset data({"signal", "noise"}, {"a", "b"});
  Rng rng(33);
  for (int i = 0; i < 1000; ++i) {
    const double x0 = rng.uniform(0, 1);
    const double row[2] = {x0, rng.uniform(0, 1)};
    data.add(row, x0 > 0.5 ? 1 : 0);
  }
  ForestConfig cfg;
  cfg.n_trees = 20;
  cfg.features_per_split = 1;  // force both features to be tried
  RandomForest forest(cfg);
  forest.fit(data);
  const auto importance = forest.feature_importance();
  ASSERT_GE(importance.size(), 1u);
  const double noise_imp =
      importance.size() > 1 ? importance[1] : 0.0;
  EXPECT_GT(importance[0], noise_imp * 2);
}

TEST(RandomForest, IsGenuinelyBiggerThanOneTree) {
  auto data = two_blob_dataset(300, 1.0, 37);
  ForestConfig cfg;
  cfg.n_trees = 30;
  RandomForest forest(cfg);
  forest.fit(data);
  EXPECT_EQ(forest.trees().size(), 30u);
  EXPECT_GT(forest.total_nodes(), forest.trees()[0].node_count() * 10);
}

// -------------------------------------------------------- GradientBoosted

TEST(GradientBoosted, LearnsBlobs) {
  auto data = two_blob_dataset(500, 2.0, 41);
  Rng rng(42);
  const auto [train, test] = data.stratified_split(0.3, rng);
  GradientBoosted gbt;
  gbt.fit(train);
  EXPECT_GT(evaluate(gbt, test).accuracy(), 0.9);
}

TEST(GradientBoosted, SolvesXorUnlikeLinear) {
  auto data = xor_dataset(3000, 43);
  Rng rng(44);
  const auto [train, test] = data.stratified_split(0.3, rng);
  GradientBoosted gbt;
  gbt.fit(train);
  LogisticRegression logit;
  logit.fit(train);
  const double gbt_acc = evaluate(gbt, test).accuracy();
  const double logit_acc = evaluate(logit, test).accuracy();
  EXPECT_GT(gbt_acc, 0.93);
  EXPECT_LT(logit_acc, 0.65);  // linear model cannot represent XOR
}

TEST(GradientBoosted, DecisionValueMonotoneInProbability) {
  auto data = two_blob_dataset(300, 2.0, 45);
  GradientBoosted gbt;
  gbt.fit(data);
  Rng rng(46);
  for (int i = 0; i < 50; ++i) {
    const double x[2] = {rng.uniform(-3, 5), rng.uniform(-3, 5)};
    const double value = gbt.decision_value(x);
    const auto probs = gbt.predict_proba(x);
    EXPECT_NEAR(probs[1], 1.0 / (1.0 + std::exp(-value)), 1e-12);
  }
}

TEST(GradientBoosted, MoreRoundsMoreNodes) {
  auto data = two_blob_dataset(200, 1.0, 47);
  BoostConfig small, big;
  small.n_rounds = 5;
  big.n_rounds = 50;
  GradientBoosted a(small), b(big);
  a.fit(data);
  b.fit(data);
  EXPECT_EQ(a.rounds_trained(), 5);
  EXPECT_EQ(b.rounds_trained(), 50);
  EXPECT_GT(b.total_nodes(), a.total_nodes());
}

// ------------------------------------------------------------ Model pins
//
// FNV-1a hashes of fitted models, recorded before the split search
// moved from a per-node (value, row) sort to rank-ordered counting
// sort. Any change to split order, tie-breaking, thresholds or
// floating-point accumulation order changes these.

TEST(ModelPins, DecisionTreeOnTiedColumns) {
  const auto data = tied_dataset(900, 101);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(util::fnv1a(tree.serialize()), 0x6f148555c3ffaf8bULL);
}

TEST(ModelPins, DecisionTreeWithFractionalWeights) {
  const auto data = tied_dataset(900, 101);
  std::vector<double> weights(data.n_rows());
  Rng rng(102);
  for (auto& w : weights) w = 0.1 + rng.uniform(0.0, 1.7);
  TreeConfig cfg;
  cfg.max_depth = 10;
  cfg.min_samples_leaf = 3;
  DecisionTree tree(cfg);
  tree.fit(data, nullptr, weights);
  EXPECT_EQ(util::fnv1a(tree.serialize()), 0x482e104a85818070ULL);
}

TEST(ModelPins, RandomForest) {
  const auto data = tied_dataset(700, 103);
  ForestConfig cfg;
  cfg.n_trees = 7;
  cfg.max_depth = 12;
  cfg.seed = 104;
  RandomForest forest(cfg);
  forest.fit(data);
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const auto& tree : forest.trees()) h = util::fnv1a(tree.serialize(), h);
  EXPECT_EQ(h, 0x6a1d1a82b7e02187ULL);
}

TEST(ModelPins, GradientBoostedDecisionValues) {
  const auto data = tied_binary_dataset(800, 105);
  BoostConfig cfg;
  cfg.n_rounds = 25;
  cfg.seed = 106;
  GradientBoosted gbt(cfg);
  gbt.fit(data);
  const auto probe = tied_dataset(200, 107);
  std::uint64_t h = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < probe.n_rows(); ++i)
    h = util::fnv1a_step(h, std::bit_cast<std::uint64_t>(
                                gbt.decision_value(probe.row(i))));
  EXPECT_EQ(h, 0x71f20b72a147b501ULL);
}

// ----------------------------------------------------- LogisticRegression

TEST(LogisticRegression, SeparableBlobs) {
  auto data = two_blob_dataset(400, 3.0, 51);
  LogisticRegression logit;
  logit.fit(data);
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.97);
}

TEST(LogisticRegression, MultiClassOneVsRest) {
  Dataset data({"x0", "x1"}, {"a", "b", "c"});
  Rng rng(52);
  const double centers[3][2] = {{0, 0}, {6, 0}, {0, 6}};
  for (int c = 0; c < 3; ++c)
    for (int i = 0; i < 200; ++i) {
      const double row[2] = {rng.normal(centers[c][0], 1.0),
                             rng.normal(centers[c][1], 1.0)};
      data.add(row, c);
    }
  LogisticRegression logit;
  logit.fit(data);
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.95);
}

TEST(LogisticRegression, HandlesConstantFeature) {
  Dataset data({"constant", "signal"}, {"a", "b"});
  Rng rng(53);
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(0, 1);
    const double row[2] = {5.0, s};
    data.add(row, s > 0.5 ? 1 : 0);
  }
  LogisticRegression logit;
  logit.fit(data);  // must not NaN out on zero variance
  EXPECT_GT(evaluate(logit, data).accuracy(), 0.9);
}

// ---------------------------------------------------------------- Metrics

TEST(ConfusionMatrix, HandComputed) {
  ConfusionMatrix cm(2);
  // truth 0: 8 correct, 2 predicted 1.  truth 1: 3 predicted 0, 7 correct.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 3; ++i) cm.add(1, 0);
  for (int i = 0; i < 7; ++i) cm.add(1, 1);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 15.0 / 20.0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 7.0 / 9.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 7.0 / 10.0);
  const double p = 7.0 / 9.0, r = 0.7;
  EXPECT_DOUBLE_EQ(cm.f1(1), 2 * p * r / (p + r));
}

TEST(ConfusionMatrix, AbsentClassIsZeroNotNan) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_EQ(cm.precision(2), 0.0);
  EXPECT_EQ(cm.recall(2), 0.0);
  EXPECT_EQ(cm.f1(2), 0.0);
}

TEST(RocAuc, PerfectAndRandomAndInverted) {
  const std::vector<double> perfect{0.1, 0.2, 0.8, 0.9};
  const std::vector<int> labels{0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(roc_auc(perfect, labels), 1.0);

  const std::vector<double> inverted{0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(roc_auc(inverted, labels), 0.0);

  const std::vector<double> constant{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(roc_auc(constant, labels), 0.5);
}

TEST(RocAuc, TiesHandledByMidrank) {
  const std::vector<double> scores{0.1, 0.5, 0.5, 0.9};
  const std::vector<int> labels{0, 0, 1, 1};
  // pairs: (0.1 vs 0.5)=win,(0.1 vs 0.9)=win,(0.5 vs 0.5)=tie,(0.5 vs 0.9)=win
  // AUC = (3 + 0.5)/4
  EXPECT_DOUBLE_EQ(roc_auc(scores, labels), 3.5 / 4.0);
}

TEST(OperatingPointTest, ThresholdSweepTradesPrecisionRecall) {
  // Scores where high threshold is precise but misses positives.
  std::vector<double> scores;
  std::vector<int> labels;
  Rng rng(54);
  for (int i = 0; i < 2000; ++i) {
    const bool pos = rng.chance(0.3);
    scores.push_back(pos ? rng.uniform(0.4, 1.0) : rng.uniform(0.0, 0.6));
    labels.push_back(pos ? 1 : 0);
  }
  const auto loose = operating_point(scores, labels, 0.45);
  const auto strict = operating_point(scores, labels, 0.9);
  EXPECT_GT(strict.precision, loose.precision);
  EXPECT_LT(strict.recall, loose.recall);
  EXPECT_LT(strict.fpr, loose.fpr);
  EXPECT_DOUBLE_EQ(strict.precision, 1.0);  // >0.6 is pure positive
}

TEST(Dataset, CsvExportRoundShape) {
  Dataset d({"alpha", "beta"}, {"neg", "pos"});
  const double r0[2] = {1.5, -2.0};
  const double r1[2] = {3.25, 0.0};
  d.add(r0, 0);
  d.add(r1, 1);
  std::ostringstream out;
  d.to_csv(out);
  const auto text = out.str();
  EXPECT_NE(text.find("alpha,beta,label"), std::string::npos);
  EXPECT_NE(text.find("1.5,-2,neg"), std::string::npos);
  EXPECT_NE(text.find("3.25,0,pos"), std::string::npos);
  // Exactly header + 2 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(Calibration, BinsCoverAllPredictions) {
  auto data = two_blob_dataset(300, 2.0, 55);
  ForestConfig cfg;
  cfg.n_trees = 15;
  RandomForest forest(cfg);
  forest.fit(data);
  const auto bins = calibration_bins(forest, data, 10);
  std::uint64_t total = 0;
  for (const auto& b : bins) {
    total += b.count;
    if (b.count > 0) {
      EXPECT_GE(b.mean_confidence, 0.0);
      EXPECT_LE(b.mean_confidence, 1.0);
    }
  }
  EXPECT_EQ(total, data.n_rows());
}

}  // namespace
}  // namespace campuslab::ml
