// ModelExtractor — step (ii) of the paper's Figure-2 roadmap: "replace
// the learning model with a deployable learning model (explainable or
// interpretable, lightweight and closely approximating the original)".
//
// Teacher-student distillation after Bastani et al. [8,9]: the opaque
// teacher (random forest / GBT) is queried on the training data plus
// synthetic samples drawn around it (jitter within the empirical
// feature box, booleans snapped), and a single shallow CART tree is fit
// to the *teacher's* labels. The student's agreement with the teacher
// ("fidelity") is the contract the operator gets: the deployed model is
// a faithful, inspectable proxy.
#pragma once

#include "campuslab/ml/tree.h"

namespace campuslab::xai {

struct ExtractConfig {
  int student_max_depth = 5;
  std::size_t min_samples_leaf = 10;
  /// Synthetic teacher-labelled samples generated in addition to the
  /// base rows. 0 = plain distillation on the base set.
  std::size_t synthetic_samples = 20'000;
  /// Jitter amplitude relative to each feature's observed range.
  double jitter = 0.15;
  std::uint64_t seed = 1;
};

struct ExtractionResult {
  ml::DecisionTree student;
  /// Agreement with the teacher on the augmented training set.
  double train_fidelity = 0.0;
  std::size_t samples_used = 0;
};

class ModelExtractor {
 public:
  explicit ModelExtractor(ExtractConfig config = {}) : config_(config) {}

  /// Distill `teacher` into a shallow tree. `base` provides the input
  /// distribution (its labels are ignored; the teacher is the oracle).
  /// Labelling and the student's split search spread over `pool`; the
  /// result is the same at any pool size.
  ExtractionResult extract(
      const ml::Classifier& teacher, const ml::Dataset& base,
      util::WorkPool& pool = util::WorkPool::shared()) const;

 private:
  ExtractConfig config_;
};

/// Agreement rate between two classifiers over a probe set.
double fidelity(const ml::Classifier& student,
                const ml::Classifier& teacher, const ml::Dataset& probe);

}  // namespace campuslab::xai
