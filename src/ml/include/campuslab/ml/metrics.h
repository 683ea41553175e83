// Evaluation metrics — confusion matrices, precision/recall/F1,
// ROC-AUC, operating-point analysis, and calibration.
//
// Operating points matter more here than headline accuracy: the paper's
// automation rule acts only when model confidence >= 90%, so what the
// operator cares about is precision/recall *at that threshold*
// (precision_at / recall_at below) and whether confidence is honest
// (calibration).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "campuslab/ml/dataset.h"

namespace campuslab::ml {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int n_classes);

  void add(int truth, int predicted);

  std::uint64_t count(int truth, int predicted) const;
  std::uint64_t total() const noexcept { return total_; }

  double accuracy() const;
  double precision(int cls) const;  // 0 when the class is never predicted
  double recall(int cls) const;     // 0 when the class never occurs
  double f1(int cls) const;
  double macro_f1() const;

  int n_classes() const noexcept { return n_classes_; }
  std::string to_string(std::span<const std::string> class_names = {}) const;

 private:
  int n_classes_;
  std::vector<std::uint64_t> cells_;  // row = truth, col = predicted
  std::uint64_t total_ = 0;
};

/// Evaluate a classifier over a dataset.
ConfusionMatrix evaluate(const Classifier& model, const Dataset& data);

/// model.predict() of every row of `data`, by row index. Rows are
/// predicted in chunks spread over `pool`.
std::vector<int> predict_all(const Classifier& model, const Dataset& data,
                             util::WorkPool& pool = util::WorkPool::shared());

/// Binary ROC-AUC from scores (higher = more positive). Rank-based
/// (Mann-Whitney), ties handled by midrank. Returns 0.5 when one class
/// is absent.
double roc_auc(std::span<const double> scores,
               std::span<const int> labels);

/// Binary precision/recall when predicting positive iff
/// score >= threshold.
struct OperatingPoint {
  double threshold = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double fpr = 0.0;
  std::uint64_t predicted_positive = 0;
};
OperatingPoint operating_point(std::span<const double> scores,
                               std::span<const int> labels,
                               double threshold);

/// Reliability diagram data: bucket predictions by confidence, report
/// mean confidence vs empirical accuracy per bucket.
struct CalibrationBin {
  double mean_confidence = 0.0;
  double accuracy = 0.0;
  std::uint64_t count = 0;
};
std::vector<CalibrationBin> calibration_bins(const Classifier& model,
                                             const Dataset& data,
                                             std::size_t bins = 10);

}  // namespace campuslab::ml
