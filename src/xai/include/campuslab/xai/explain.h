// Per-decision explanations and the operator-facing trust report —
// step (iv) of Figure 2: "explain to the network operator how a given
// deployable learning model works".
//
// explain_decision() renders the exact evidence path one input took
// through the deployed tree — the paper's "list of pieces of evidence
// that the model used to arrive at its decisions". TrustReport bundles
// what an operator reviews before signing off a deployment: accuracy,
// fidelity to the black box, the dominant rules, and model size.
#pragma once

#include <string>
#include <vector>

#include "campuslab/ml/metrics.h"
#include "campuslab/ml/tree.h"
#include "campuslab/xai/rules.h"

namespace campuslab::xai {

/// One hop of a decision path.
struct PathStep {
  int feature = 0;
  std::string feature_name;
  double value = 0.0;       // the input's value
  double threshold = 0.0;
  bool went_left = false;   // value <= threshold
  /// How much the probability of the final predicted class moved at
  /// this hop (evidence weight; signed).
  double contribution = 0.0;
};

struct Explanation {
  int predicted_class = 0;
  std::string predicted_class_name;
  double confidence = 0.0;
  std::vector<PathStep> steps;

  std::string to_string() const;
};

/// Trace `x` through the tree. Precondition: tree is fitted.
Explanation explain_decision(const ml::DecisionTree& tree,
                             std::span<const double> x);

/// The sign-off artifact for the road-test review meeting.
struct TrustReport {
  std::string task_name;
  // Black-box teacher on held-out data.
  double teacher_accuracy = 0.0;
  double teacher_f1 = 0.0;
  std::size_t teacher_nodes = 0;
  // Deployable student on the same held-out data.
  double student_accuracy = 0.0;
  double student_f1 = 0.0;
  std::size_t student_nodes = 0;
  int student_depth = 0;
  double fidelity = 0.0;  // student-vs-teacher agreement
  /// Confidence honesty: the largest |confidence - accuracy| across
  /// populated calibration bins. A model whose 95%-confident calls are
  /// right 95% of the time earns the operator's 90%-threshold rule.
  double max_calibration_gap = 0.0;
  std::string top_rules;  // rendered dominant rules
  std::string sample_explanation;

  std::string to_string() const;
};

/// The teacher labels the holdout once, in parallel over `pool`; its
/// accuracy and the student's fidelity both come from those labels.
TrustReport make_trust_report(
    const std::string& task_name, const ml::Classifier& teacher,
    std::size_t teacher_nodes, const ml::DecisionTree& student,
    const ml::Dataset& holdout,
    util::WorkPool& pool = util::WorkPool::shared());

}  // namespace campuslab::xai
