#include "campuslab/ml/tree.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <numeric>
#include <sstream>
#include <tuple>

namespace campuslab::ml {

namespace {

/// Gini impurity of a weighted class histogram.
double gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const auto c : counts) {
    const double p = c / total;
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

// Nodes smaller than this search their features serially: waking the
// pool costs more than it saves on a small scan.
constexpr std::size_t kParallelScanRows = 2048;

}  // namespace

void TreeScratch::reserve(const FeatureRanks& ranks, std::size_t rows,
                          std::size_t scans) {
  weights.reserve(rows);
  labels.reserve(rows);
  indices.reserve(rows);
  spill.reserve(rows);
  this->scans.resize(std::max<std::size_t>(scans, 1));
  for (auto& scan : this->scans) {
    scan.keyed.reserve(rows);
    scan.sorter.reserve(rows, ranks.max_levels());
  }
}

/// Everything a fit threads through the recursion: the training rows
/// seen through the row map, and the scratch buffers.
struct DecisionTree::FitState {
  const Dataset& data;
  const FeatureRanks& ranks;
  std::span<const std::size_t> rows;  // node index -> data row
  std::span<const double> weights;    // per node index
  Rng* rng;
  TreeScratch& scratch;
  util::WorkPool* pool;  // nullptr: one scan slot, searched serially
};

void DecisionTree::fit(const Dataset& data, Rng* rng,
                       std::span<const double> sample_weights,
                       util::WorkPool& pool) {
  assert(data.n_rows() > 0);
  // Ranks first: their sort buffers are gone before the scratch exists.
  const FeatureRanks ranks(data, pool);
  TreeScratch scratch;
  scratch.reserve(ranks, data.n_rows(),
                  std::min(pool.threads(), data.n_features()));
  if (sample_weights.empty()) {
    scratch.weights.assign(data.n_rows(), 1.0);
    sample_weights = scratch.weights;
  }
  assert(sample_weights.size() == data.n_rows());
  std::vector<std::size_t> rows(data.n_rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit_rows(data, ranks, rows, sample_weights, rng, scratch, &pool);
}

void DecisionTree::fit(const Dataset& data, const FeatureRanks& ranks,
                       std::span<const std::size_t> rows, Rng* rng) {
  TreeScratch scratch;
  scratch.reserve(ranks, rows.size());
  fit(data, ranks, rows, rng, scratch);
}

void DecisionTree::fit(const Dataset& data, const FeatureRanks& ranks,
                       std::span<const std::size_t> rows, Rng* rng,
                       TreeScratch& scratch) {
  assert(!rows.empty());
  scratch.weights.assign(rows.size(), 1.0);
  fit_rows(data, ranks, rows, scratch.weights, rng, scratch, nullptr);
}

void DecisionTree::fit_rows(const Dataset& data, const FeatureRanks& ranks,
                            std::span<const std::size_t> rows,
                            std::span<const double> weights, Rng* rng,
                            TreeScratch& scratch, util::WorkPool* pool) {
  nodes_.clear();
  n_classes_ = data.n_classes();
  feature_names_ = data.feature_names();
  class_names_ = data.class_names();

  FitState state{data, ranks, rows, weights, rng, scratch, pool};
  scratch.labels.clear();
  for (const auto row : rows) scratch.labels.push_back(data.label(row));
  // Node indices stay ascending through every partition, which is what
  // lets the rank sort reproduce (value, row) order.
  scratch.indices.resize(rows.size());
  std::iota(scratch.indices.begin(), scratch.indices.end(),
            std::uint32_t{0});
  build(state, 0, rows.size(), 0);
}

int DecisionTree::build(FitState& state, std::size_t begin, std::size_t end,
                        int depth) {
  auto& indices = state.scratch.indices;
  const auto node_indices =
      std::span<const std::uint32_t>(indices).subspan(begin, end - begin);
  // Node class distribution.
  std::vector<double> counts(static_cast<std::size_t>(n_classes_), 0.0);
  double total = 0.0;
  for (const auto i : node_indices) {
    counts[static_cast<std::size_t>(state.scratch.labels[i])] +=
        state.weights[i];
    total += state.weights[i];
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    auto& node = nodes_.back();
    node.samples = node_indices.size();
    node.class_probs.resize(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c)
      node.class_probs[c] = total > 0 ? counts[c] / total : 0.0;
  }

  const bool pure =
      std::count_if(counts.begin(), counts.end(),
                    [](double c) { return c > 0.0; }) <= 1;
  if (pure || depth >= config_.max_depth ||
      node_indices.size() < 2 * config_.min_samples_leaf) {
    return node_index;  // leaf (feature stays kLeaf)
  }

  const auto split = best_split(state, node_indices);
  if (split.feature < 0 || split.gain < config_.min_gain)
    return node_index;

  // Partition on the value, not the rank: the midpoint of two adjacent
  // doubles can round to the upper one, and deployed trees compare
  // values against exactly this threshold. Stable and in place: left
  // rows compact to the front, right rows go through the spill buffer
  // behind them, so both halves keep ascending order.
  const auto f = static_cast<std::size_t>(split.feature);
  auto& spill = state.scratch.spill;
  spill.clear();
  std::size_t mid = begin;
  for (std::size_t k = begin; k < end; ++k) {
    const auto i = indices[k];
    if (state.ranks.value(f, state.rows[i]) <= split.threshold)
      indices[mid++] = i;
    else
      spill.push_back(i);
  }
  std::copy(spill.begin(), spill.end(),
            indices.begin() + static_cast<std::ptrdiff_t>(mid));
  if (mid - begin < config_.min_samples_leaf ||
      end - mid < config_.min_samples_leaf) {
    return node_index;
  }

  // Recurse; the vector may reallocate, so set fields via index.
  nodes_[static_cast<std::size_t>(node_index)].feature = split.feature;
  nodes_[static_cast<std::size_t>(node_index)].threshold = split.threshold;
  const int left = build(state, begin, mid, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  const int right = build(state, mid, end, depth + 1);
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

DecisionTree::SplitDecision DecisionTree::best_split(
    FitState& state, std::span<const std::uint32_t> indices) const {
  const std::size_t n_features = state.data.n_features();

  // Candidate features: all, or a random subset of size
  // features_per_split (random forest mode).
  std::vector<std::size_t> features(n_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  std::size_t consider = n_features;
  if (config_.features_per_split > 0 &&
      config_.features_per_split < n_features && state.rng != nullptr) {
    for (std::size_t i = 0; i < config_.features_per_split; ++i) {
      const auto j = i + state.rng->below(n_features - i);
      std::swap(features[i], features[j]);
    }
    consider = config_.features_per_split;
  }

  // Parent impurity.
  std::vector<double> parent_counts(static_cast<std::size_t>(n_classes_),
                                    0.0);
  double total_weight = 0.0;
  for (const auto i : indices) {
    parent_counts[static_cast<std::size_t>(state.scratch.labels[i])] +=
        state.weights[i];
    total_weight += state.weights[i];
  }
  const double parent_gini = gini(parent_counts, total_weight);

  // Each candidate's best threshold lands in its own slot of `found`.
  std::vector<SplitDecision> found(consider);
  const auto scan_feature = [&](std::size_t slot, std::size_t fi) {
    const std::size_t f = features[fi];
    auto& scan = state.scratch.scans[slot];
    auto& sorted = scan.keyed;
    sorted.clear();
    for (const auto i : indices)
      sorted.push_back({state.ranks.rank(f, state.rows[i]), i});
    scan.sorter.sort(sorted);
    if (sorted.front().rank == sorted.back().rank) return;  // constant

    auto& left_counts = scan.left_counts;
    left_counts.assign(static_cast<std::size_t>(n_classes_), 0.0);
    double left_weight = 0.0;
    SplitDecision& best = found[fi];
    for (std::size_t k = 0; k + 1 < sorted.size(); ++k) {
      const auto i = sorted[k].row;
      left_counts[static_cast<std::size_t>(state.scratch.labels[i])] +=
          state.weights[i];
      left_weight += state.weights[i];
      // Valid threshold only between distinct values.
      if (sorted[k].rank == sorted[k + 1].rank) continue;
      const double right_weight = total_weight - left_weight;
      if (left_weight <= 0.0 || right_weight <= 0.0) continue;

      double right_gini_sum = 0.0;
      {
        double sum_sq = 0.0;
        for (std::size_t c = 0; c < left_counts.size(); ++c) {
          const double rc = parent_counts[c] - left_counts[c];
          const double p = rc / right_weight;
          sum_sq += p * p;
        }
        right_gini_sum = 1.0 - sum_sq;
      }
      const double left_gini = gini(left_counts, left_weight);
      const double weighted = (left_weight * left_gini +
                               right_weight * right_gini_sum) /
                              total_weight;
      const double gain = parent_gini - weighted;
      if (gain > best.gain) {
        best.feature = static_cast<int>(f);
        // Midpoint threshold generalizes better than the left value.
        best.threshold = 0.5 * (state.ranks.level(f, sorted[k].rank) +
                                state.ranks.level(f, sorted[k + 1].rank));
        best.gain = gain;
      }
    }
  };
  const std::size_t slots =
      state.pool != nullptr && indices.size() >= kParallelScanRows
          ? std::min(state.scratch.scans.size(), consider)
          : 1;
  if (slots > 1) {
    state.pool->parallel_for_slots(consider, slots, scan_feature);
  } else {
    for (std::size_t fi = 0; fi < consider; ++fi) scan_feature(0, fi);
  }

  // Reduce in candidate order with the scan's own strict comparison:
  // the first candidate reaching the highest gain wins, exactly as one
  // serial scan over all candidates picks it.
  SplitDecision best;
  for (const auto& candidate : found)
    if (candidate.gain > best.gain) best = candidate;
  return best;
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> x) const {
  const auto probs = leaf_probs(x);
  return {probs.begin(), probs.end()};
}

std::span<const double> DecisionTree::leaf_probs(
    std::span<const double> x) const {
  return nodes_[static_cast<std::size_t>(decision_leaf(x))].class_probs;
}

int DecisionTree::decision_leaf(std::span<const double> x) const {
  assert(!nodes_.empty());
  int idx = 0;
  while (!nodes_[static_cast<std::size_t>(idx)].is_leaf()) {
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    idx = x[static_cast<std::size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
  return idx;
}

std::size_t DecisionTree::leaf_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(),
                    [](const TreeNode& n) { return n.is_leaf(); }));
}

int DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth via index stack.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    if (!node.is_leaf()) {
      stack.emplace_back(node.left, d + 1);
      stack.emplace_back(node.right, d + 1);
    }
  }
  return max_depth;
}

std::string DecisionTree::to_string() const {
  std::ostringstream out;
  std::vector<std::tuple<int, int, std::string>> stack{{0, 0, ""}};
  while (!stack.empty()) {
    auto [idx, depth, prefix] = stack.back();
    stack.pop_back();
    const auto& node = nodes_[static_cast<std::size_t>(idx)];
    out << std::string(static_cast<std::size_t>(depth) * 2, ' ') << prefix;
    if (node.is_leaf()) {
      const auto cls = static_cast<std::size_t>(
          std::max_element(node.class_probs.begin(),
                           node.class_probs.end()) -
          node.class_probs.begin());
      out << "-> " << (cls < class_names_.size() ? class_names_[cls]
                                                 : std::to_string(cls))
          << " (p=" << node.class_probs[cls] << ", n=" << node.samples
          << ")\n";
    } else {
      const auto fname =
          static_cast<std::size_t>(node.feature) < feature_names_.size()
              ? feature_names_[static_cast<std::size_t>(node.feature)]
              : "f" + std::to_string(node.feature);
      out << "if " << fname << " <= " << node.threshold << ":\n";
      stack.emplace_back(node.right, depth + 1, "else ");
      stack.emplace_back(node.left, depth + 1, "");
    }
  }
  return out.str();
}

std::string DecisionTree::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "campuslab-tree v1\n";
  out << n_classes_ << ' ' << feature_names_.size() << ' '
      << nodes_.size() << '\n';
  for (const auto& name : feature_names_) out << name << '\n';
  for (const auto& name : class_names_) out << name << '\n';
  for (const auto& node : nodes_) {
    out << node.feature << ' ' << node.threshold << ' ' << node.left << ' '
        << node.right << ' ' << node.samples;
    for (const auto p : node.class_probs) out << ' ' << p;
    out << '\n';
  }
  return out.str();
}

Result<DecisionTree> DecisionTree::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "campuslab-tree v1")
    return Error::make("format", "bad tree header");
  std::size_t n_features = 0, n_nodes = 0;
  int n_classes = 0;
  if (!(in >> n_classes >> n_features >> n_nodes))
    return Error::make("format", "bad tree dimensions");
  std::getline(in, line);  // consume EOL

  DecisionTree tree;
  tree.n_classes_ = n_classes;
  tree.feature_names_.resize(n_features);
  for (auto& name : tree.feature_names_)
    if (!std::getline(in, name))
      return Error::make("format", "missing feature name");
  tree.class_names_.resize(static_cast<std::size_t>(n_classes));
  for (auto& name : tree.class_names_)
    if (!std::getline(in, name))
      return Error::make("format", "missing class name");
  tree.nodes_.resize(n_nodes);
  for (auto& node : tree.nodes_) {
    if (!(in >> node.feature >> node.threshold >> node.left >> node.right >>
          node.samples))
      return Error::make("format", "bad node row");
    node.class_probs.resize(static_cast<std::size_t>(n_classes));
    for (auto& p : node.class_probs)
      if (!(in >> p)) return Error::make("format", "bad node probs");
    if (!node.is_leaf()) {
      const auto limit = static_cast<int>(n_nodes);
      if (node.left < 0 || node.left >= limit || node.right < 0 ||
          node.right >= limit)
        return Error::make("format", "child index out of range");
    }
  }
  if (tree.nodes_.empty())
    return Error::make("format", "tree has no nodes");
  return tree;
}

}  // namespace campuslab::ml
