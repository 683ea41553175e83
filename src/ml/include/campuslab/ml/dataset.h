// Dataset — labelled feature matrix for the learning substrate.
//
// Row-major, dense, double-valued. Feature and class names travel with
// the data because the XAI layer's whole purpose is to render decisions
// in operator language ("udp_fraction > 0.93"), which requires names to
// survive from extraction through training to explanation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "campuslab/util/rng.h"
#include "campuslab/util/work_pool.h"

namespace campuslab::ml {

class Dataset {
 public:
  Dataset(std::vector<std::string> feature_names,
          std::vector<std::string> class_names)
      : feature_names_(std::move(feature_names)),
        class_names_(std::move(class_names)) {}

  /// Append one labelled example. Precondition: x.size() == n_features,
  /// 0 <= y < n_classes.
  void add(std::span<const double> x, int y);

  /// Append every row of `other` (the continual-learning reservoir
  /// merge). Precondition: identical feature count and class count.
  void append(const Dataset& other);

  /// Room for `rows` rows in total, so a dataset filled to a known size
  /// grows its matrix once instead of by doubling.
  void reserve(std::size_t rows);

  /// Replace every row's label (an oracle's answers, computed after
  /// the rows). Precondition: labels.size() == n_rows, each in range.
  void relabel(std::vector<int> labels);

  /// Uniform random sample of `n` rows without replacement (all rows
  /// when n >= n_rows). Deterministic in `rng`.
  Dataset sample(std::size_t n, Rng& rng) const;

  std::size_t n_rows() const noexcept { return y_.size(); }
  std::size_t n_features() const noexcept { return feature_names_.size(); }
  int n_classes() const noexcept {
    return static_cast<int>(class_names_.size());
  }

  std::span<const double> row(std::size_t i) const noexcept {
    return std::span(x_).subspan(i * n_features(), n_features());
  }
  int label(std::size_t i) const noexcept { return y_[i]; }

  const std::vector<std::string>& feature_names() const noexcept {
    return feature_names_;
  }
  const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

  std::vector<std::size_t> class_counts() const;

  /// Stratified split: each class is split test_fraction/rest
  /// independently, then rows are shuffled. Deterministic in `rng`.
  std::pair<Dataset, Dataset> stratified_split(double test_fraction,
                                               Rng& rng) const;

  /// Bootstrap resample of the same size (bagging). Deterministic.
  Dataset bootstrap(Rng& rng) const;

  /// The row indices `bootstrap` draws, in draw order: the same rng
  /// calls, without copying the rows.
  std::vector<std::size_t> bootstrap_rows(Rng& rng) const;
  /// The same draw into `out`, reusing its storage.
  void bootstrap_rows(Rng& rng, std::vector<std::size_t>& out) const;

  /// Per-feature observed [min, max] — the sampling box for the
  /// XAI extractor's synthetic queries.
  std::vector<std::pair<double, double>> feature_ranges() const;

  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// CSV export (header row of feature names + "label"; label written
  /// as the class name) — the hand-off format for researchers working
  /// outside CampusLab.
  void to_csv(std::ostream& out) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::string> class_names_;
  std::vector<double> x_;  // row-major
  std::vector<int> y_;
};

/// A row keyed by its rank in one feature (see FeatureRanks).
struct RankedRow {
  std::uint32_t rank;
  std::uint32_t row;
};

/// Per-feature rank table of a dataset: each feature's sorted distinct
/// values (its levels) and every row's index into them. Built with one
/// (value, row) sort per feature, so split searches can order a node's
/// rows by rank with a counting sort instead of re-sorting values.
/// Features are ranked independently, spread over `pool`.
class FeatureRanks {
 public:
  explicit FeatureRanks(const Dataset& data,
                        util::WorkPool& pool = util::WorkPool::shared());

  std::uint32_t rank(std::size_t feature, std::size_t row) const noexcept {
    return ranks_[feature * n_rows_ + row];
  }
  double level(std::size_t feature, std::uint32_t rank) const noexcept {
    return levels_[feature][rank];
  }
  /// The row's value, read back through the rank table (compares equal
  /// to data.row(row)[feature]); a narrower read than the row-major
  /// matrix when rows are visited out of order.
  double value(std::size_t feature, std::size_t row) const noexcept {
    return level(feature, rank(feature, row));
  }
  /// The most levels any one feature has (bounds a node's rank span).
  std::size_t max_levels() const noexcept;

 private:
  std::size_t n_rows_;
  std::vector<std::vector<double>> levels_;
  std::vector<std::uint32_t> ranks_;  // feature-major
};

/// The split searches' one ordering routine. Sorts (rank, row) pairs by
/// rank, keeping the input order among equal ranks. Node rows always
/// arrive in ascending row order, so the result is exactly the
/// (value, row) order of a comparison sort — and fitted trees are the
/// same bit for bit. Counting sort over the node's rank span; std::sort
/// when the node has fewer rows than that span. Reuses its buffers
/// across calls.
class RankSorter {
 public:
  /// Precondition: the `row` fields of `keyed` ascend.
  void sort(std::vector<RankedRow>& keyed);

  /// Room to sort `rows` rows spanning at most `levels` ranks without
  /// growing a buffer.
  void reserve(std::size_t rows, std::size_t levels);

 private:
  std::vector<RankedRow> scratch_;
  std::vector<std::uint32_t> counts_;
};

/// Interface every CampusLab model implements; the XAI extractor and
/// the road-test harness are written against it.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Class-probability vector of size n_classes().
  virtual std::vector<double> predict_proba(
      std::span<const double> x) const = 0;

  virtual int n_classes() const noexcept = 0;

  /// Arg-max convenience.
  int predict(std::span<const double> x) const;

  /// Probability of the winning class (the "confidence" the paper's
  /// automation rule thresholds at 90%).
  double confidence(std::span<const double> x) const;
};

}  // namespace campuslab::ml
