#include "campuslab/ml/metrics.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

namespace campuslab::ml {

ConfusionMatrix::ConfusionMatrix(int n_classes)
    : n_classes_(n_classes),
      cells_(static_cast<std::size_t>(n_classes) *
                 static_cast<std::size_t>(n_classes),
             0) {
  assert(n_classes > 0);
}

void ConfusionMatrix::add(int truth, int predicted) {
  assert(truth >= 0 && truth < n_classes_);
  assert(predicted >= 0 && predicted < n_classes_);
  ++cells_[static_cast<std::size_t>(truth) *
               static_cast<std::size_t>(n_classes_) +
           static_cast<std::size_t>(predicted)];
  ++total_;
}

std::uint64_t ConfusionMatrix::count(int truth, int predicted) const {
  return cells_[static_cast<std::size_t>(truth) *
                    static_cast<std::size_t>(n_classes_) +
                static_cast<std::size_t>(predicted)];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::uint64_t correct = 0;
  for (int c = 0; c < n_classes_; ++c) correct += count(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

double ConfusionMatrix::precision(int cls) const {
  std::uint64_t predicted = 0;
  for (int t = 0; t < n_classes_; ++t) predicted += count(t, cls);
  return predicted == 0 ? 0.0
                        : static_cast<double>(count(cls, cls)) /
                              static_cast<double>(predicted);
}

double ConfusionMatrix::recall(int cls) const {
  std::uint64_t actual = 0;
  for (int p = 0; p < n_classes_; ++p) actual += count(cls, p);
  return actual == 0 ? 0.0
                     : static_cast<double>(count(cls, cls)) /
                           static_cast<double>(actual);
}

double ConfusionMatrix::f1(int cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  for (int c = 0; c < n_classes_; ++c) sum += f1(c);
  return sum / static_cast<double>(n_classes_);
}

std::string ConfusionMatrix::to_string(
    std::span<const std::string> class_names) const {
  std::ostringstream out;
  auto name = [&](int c) {
    return static_cast<std::size_t>(c) < class_names.size()
               ? class_names[static_cast<std::size_t>(c)]
               : "class" + std::to_string(c);
  };
  out << "truth \\ predicted\n";
  for (int t = 0; t < n_classes_; ++t) {
    out << "  " << name(t) << ":";
    for (int p = 0; p < n_classes_; ++p) out << ' ' << count(t, p);
    out << "  (P=" << precision(t) << " R=" << recall(t)
        << " F1=" << f1(t) << ")\n";
  }
  out << "accuracy=" << accuracy() << " macroF1=" << macro_f1() << '\n';
  return out.str();
}

ConfusionMatrix evaluate(const Classifier& model, const Dataset& data) {
  ConfusionMatrix cm(data.n_classes());
  for (std::size_t i = 0; i < data.n_rows(); ++i)
    cm.add(data.label(i), model.predict(data.row(i)));
  return cm;
}

std::vector<int> predict_all(const Classifier& model, const Dataset& data,
                             util::WorkPool& pool) {
  constexpr std::size_t kChunkRows = 4096;
  std::vector<int> predicted(data.n_rows());
  pool.parallel_for((data.n_rows() + kChunkRows - 1) / kChunkRows,
                    [&](std::size_t chunk) {
                      const std::size_t end = std::min(
                          (chunk + 1) * kChunkRows, data.n_rows());
                      for (std::size_t i = chunk * kChunkRows; i < end; ++i)
                        predicted[i] = model.predict(data.row(i));
                    });
  return predicted;
}

double roc_auc(std::span<const double> scores,
               std::span<const int> labels) {
  assert(scores.size() == labels.size());
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });

  // Midranks over ties.
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * (static_cast<double>(i) +
                                  static_cast<double>(j)) +
                           1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = midrank;
    i = j + 1;
  }

  double pos_rank_sum = 0.0;
  std::uint64_t n_pos = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (labels[k] == 1) {
      pos_rank_sum += ranks[k];
      ++n_pos;
    }
  }
  const std::uint64_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = pos_rank_sum -
                   static_cast<double>(n_pos) *
                       (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

OperatingPoint operating_point(std::span<const double> scores,
                               std::span<const int> labels,
                               double threshold) {
  assert(scores.size() == labels.size());
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const bool predicted = scores[i] >= threshold;
    const bool actual = labels[i] == 1;
    if (predicted && actual) ++tp;
    else if (predicted) ++fp;
    else if (actual) ++fn;
    else ++tn;
  }
  OperatingPoint op;
  op.threshold = threshold;
  op.predicted_positive = tp + fp;
  op.precision = (tp + fp) == 0 ? 0.0
                                : static_cast<double>(tp) /
                                      static_cast<double>(tp + fp);
  op.recall = (tp + fn) == 0 ? 0.0
                             : static_cast<double>(tp) /
                                   static_cast<double>(tp + fn);
  op.fpr = (fp + tn) == 0 ? 0.0
                          : static_cast<double>(fp) /
                                static_cast<double>(fp + tn);
  return op;
}

std::vector<CalibrationBin> calibration_bins(const Classifier& model,
                                             const Dataset& data,
                                             std::size_t bins) {
  std::vector<double> conf_sum(bins, 0.0);
  std::vector<std::uint64_t> correct(bins, 0), counts(bins, 0);
  for (std::size_t i = 0; i < data.n_rows(); ++i) {
    const auto probs = model.predict_proba(data.row(i));
    const auto pred = static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
    const double conf = probs[static_cast<std::size_t>(pred)];
    auto bin = static_cast<std::size_t>(conf * static_cast<double>(bins));
    if (bin >= bins) bin = bins - 1;
    conf_sum[bin] += conf;
    counts[bin] += 1;
    if (pred == data.label(i)) ++correct[bin];
  }
  std::vector<CalibrationBin> out(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    out[b].count = counts[b];
    if (counts[b] > 0) {
      out[b].mean_confidence = conf_sum[b] /
                               static_cast<double>(counts[b]);
      out[b].accuracy = static_cast<double>(correct[b]) /
                        static_cast<double>(counts[b]);
    }
  }
  return out;
}

}  // namespace campuslab::ml
