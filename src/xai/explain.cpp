#include "campuslab/xai/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace campuslab::xai {

Explanation explain_decision(const ml::DecisionTree& tree,
                             std::span<const double> x) {
  Explanation out;
  const auto& nodes = tree.nodes();
  const auto& names = tree.feature_names();

  // First pass: find the leaf so contributions can be measured with
  // respect to the final predicted class.
  const int leaf = tree.decision_leaf(x);
  const auto& leaf_node = nodes[static_cast<std::size_t>(leaf)];
  const auto cls = static_cast<std::size_t>(
      std::max_element(leaf_node.class_probs.begin(),
                       leaf_node.class_probs.end()) -
      leaf_node.class_probs.begin());
  out.predicted_class = static_cast<int>(cls);
  out.predicted_class_name =
      cls < tree.class_names().size() ? tree.class_names()[cls]
                                      : "class" + std::to_string(cls);
  out.confidence = leaf_node.class_probs[cls];

  // Second pass: walk the path recording each hop's evidence.
  int idx = 0;
  while (!nodes[static_cast<std::size_t>(idx)].is_leaf()) {
    const auto& node = nodes[static_cast<std::size_t>(idx)];
    const auto f = static_cast<std::size_t>(node.feature);
    PathStep step;
    step.feature = node.feature;
    step.feature_name =
        f < names.size() ? names[f] : "f" + std::to_string(node.feature);
    step.value = x[f];
    step.threshold = node.threshold;
    step.went_left = x[f] <= node.threshold;
    const int next = step.went_left ? node.left : node.right;
    step.contribution =
        nodes[static_cast<std::size_t>(next)].class_probs[cls] -
        node.class_probs[cls];
    out.steps.push_back(std::move(step));
    idx = next;
  }
  return out;
}

std::string Explanation::to_string() const {
  std::ostringstream out;
  out << "decision: " << predicted_class_name << " (confidence "
      << confidence << ")\nevidence:\n";
  for (const auto& step : steps) {
    out << "  " << step.feature_name << " = " << step.value
        << (step.went_left ? " <= " : " > ") << step.threshold
        << "  (moved P[" << predicted_class_name << "] by "
        << (step.contribution >= 0 ? "+" : "") << step.contribution
        << ")\n";
  }
  return out.str();
}

TrustReport make_trust_report(const std::string& task_name,
                              const ml::Classifier& teacher,
                              std::size_t teacher_nodes,
                              const ml::DecisionTree& student,
                              const ml::Dataset& holdout,
                              util::WorkPool& pool) {
  TrustReport report;
  report.task_name = task_name;

  // One teacher pass: its answers score the teacher against the truth
  // and the student against the teacher (fidelity).
  const auto teacher_labels = ml::predict_all(teacher, holdout, pool);
  ml::ConfusionMatrix teacher_cm(holdout.n_classes());
  ml::ConfusionMatrix student_cm(holdout.n_classes());
  ml::ConfusionMatrix agreement(holdout.n_classes());
  for (std::size_t i = 0; i < holdout.n_rows(); ++i) {
    const int predicted = student.predict(holdout.row(i));
    teacher_cm.add(holdout.label(i), teacher_labels[i]);
    student_cm.add(holdout.label(i), predicted);
    agreement.add(teacher_labels[i], predicted);
  }
  report.teacher_accuracy = teacher_cm.accuracy();
  report.teacher_f1 = teacher_cm.macro_f1();
  report.teacher_nodes = teacher_nodes;

  report.student_accuracy = student_cm.accuracy();
  report.student_f1 = student_cm.macro_f1();
  report.student_nodes = student.node_count();
  report.student_depth = student.depth();
  report.fidelity = agreement.accuracy();

  for (const auto& bin : ml::calibration_bins(student, holdout, 10)) {
    if (bin.count < 20) continue;  // too few samples to judge the bin
    report.max_calibration_gap =
        std::max(report.max_calibration_gap,
                 std::abs(bin.mean_confidence - bin.accuracy));
  }

  report.top_rules = RuleList::from_tree(student).to_string(5);
  if (holdout.n_rows() > 0) {
    report.sample_explanation =
        explain_decision(student, holdout.row(0)).to_string();
  }
  return report;
}

std::string TrustReport::to_string() const {
  std::ostringstream out;
  out << "=== Trust report: " << task_name << " ===\n"
      << "black-box teacher : accuracy " << teacher_accuracy
      << ", macro-F1 " << teacher_f1 << ", " << teacher_nodes
      << " nodes\n"
      << "deployable student: accuracy " << student_accuracy
      << ", macro-F1 " << student_f1 << ", " << student_nodes
      << " nodes, depth " << student_depth << "\n"
      << "fidelity to teacher on held-out data: " << fidelity << "\n"
      << "worst calibration gap (|confidence - accuracy|): "
      << max_calibration_gap << "\n"
      << "--- dominant rules ---\n"
      << top_rules << "--- sample decision walkthrough ---\n"
      << sample_explanation;
  return out.str();
}

}  // namespace campuslab::xai
