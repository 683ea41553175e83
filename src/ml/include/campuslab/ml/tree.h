// DecisionTree — CART classification trees (Gini impurity, axis-aligned
// numeric thresholds).
//
// The tree is both a learner and, crucially for the paper's Figure-2
// pipeline, the *deployable* model class: its internal nodes are exactly
// what the dataplane compiler turns into match-action entries, and its
// root-to-leaf paths are what the XAI layer renders as operator-readable
// rules. The node array is therefore public, stable, and serializable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campuslab/ml/dataset.h"
#include "campuslab/util/result.h"

namespace campuslab::ml {

struct TreeConfig {
  int max_depth = 8;
  std::size_t min_samples_leaf = 5;
  double min_gain = 1e-7;
  /// Features considered per split; 0 = all (plain CART). Set by the
  /// random forest to sqrt(n_features).
  std::size_t features_per_split = 0;
};

/// One node of the fitted tree. Leaves have feature == kLeaf.
struct TreeNode {
  static constexpr int kLeaf = -1;

  int feature = kLeaf;      // split feature index, or kLeaf
  double threshold = 0.0;   // go left if x[feature] <= threshold
  int left = -1;            // child node indexes
  int right = -1;
  std::vector<double> class_probs;  // training distribution at the node
  std::size_t samples = 0;

  bool is_leaf() const noexcept { return feature == kLeaf; }
};

/// The buffers of one tree fit: per-row state and one split-search
/// scan per slot. Reusable across fits — a forest worker keeps one and
/// fits tree after tree with it. Reserve it on the thread that owns
/// the memory: buffers grown inside a pool worker stay resident in that
/// worker's malloc arena.
class TreeScratch {
 public:
  /// Room for fits of up to `rows` rows ranked by `ranks`, searching
  /// up to `scans` features at once.
  void reserve(const FeatureRanks& ranks, std::size_t rows,
               std::size_t scans = 1);

 private:
  friend class DecisionTree;
  struct Scan {
    std::vector<RankedRow> keyed;  // (rank, node index), by rank
    RankSorter sorter;
    std::vector<double> left_counts;
  };
  std::vector<double> weights;         // per node index
  std::vector<int> labels;             // per node index
  std::vector<std::uint32_t> indices;  // node ranges, each ascending
  std::vector<std::uint32_t> spill;    // right half of a partition
  std::vector<Scan> scans = std::vector<Scan>(1);
};

class DecisionTree final : public Classifier {
 public:
  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  /// Fit on `data`; optional per-row weights (used by boosting and the
  /// XAI extractor's resampling). `rng` is only consulted when
  /// features_per_split > 0. Large nodes search their candidate
  /// features in parallel over `pool`; the tree is the same at any
  /// pool size.
  void fit(const Dataset& data, Rng* rng = nullptr,
           std::span<const double> sample_weights = {},
           util::WorkPool& pool = util::WorkPool::shared());

  /// Fit on the rows `rows` of `data` (repeats allowed, e.g. a
  /// bootstrap draw), ordering splits by the precomputed `ranks` of
  /// `data`. The same tree as fit(data.subset(rows), rng), without
  /// copying rows or re-ranking — a forest ranks its data once.
  void fit(const Dataset& data, const FeatureRanks& ranks,
           std::span<const std::size_t> rows, Rng* rng = nullptr);
  /// The same fit through caller-owned buffers (serial split search).
  void fit(const Dataset& data, const FeatureRanks& ranks,
           std::span<const std::size_t> rows, Rng* rng,
           TreeScratch& scratch);

  std::vector<double> predict_proba(
      std::span<const double> x) const override;

  /// Class distribution of the leaf x reaches, without copying it.
  /// Valid until the tree is refitted or destroyed.
  std::span<const double> leaf_probs(std::span<const double> x) const;

  int n_classes() const noexcept override { return n_classes_; }

  const std::vector<TreeNode>& nodes() const noexcept { return nodes_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t leaf_count() const noexcept;
  int depth() const noexcept;

  /// Leaf index reached by x (for explanation and compiler plumbing).
  int decision_leaf(std::span<const double> x) const;

  const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }
  const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

  /// Human-readable rendering (indented if/else text).
  std::string to_string() const;

  /// Serialize/deserialize a fitted tree — the "open-source the
  /// learning algorithm and ship the model" path of §5.
  std::string serialize() const;
  static Result<DecisionTree> deserialize(const std::string& text);

 private:
  struct SplitDecision {
    int feature = -1;
    double threshold = 0.0;
    double gain = 0.0;
  };

  struct FitState;

  void fit_rows(const Dataset& data, const FeatureRanks& ranks,
                std::span<const std::size_t> rows,
                std::span<const double> weights, Rng* rng,
                TreeScratch& scratch, util::WorkPool* pool);
  int build(FitState& state, std::size_t begin, std::size_t end, int depth);
  SplitDecision best_split(FitState& state,
                           std::span<const std::uint32_t> indices) const;

  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  int n_classes_ = 0;
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
};

}  // namespace campuslab::ml
