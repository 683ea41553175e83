// Parallel fits: the forest, the rank table, the extractor's labelling
// and the student's split search run over a util::WorkPool, and every
// model they produce must be the same bit for bit at any pool size.
// The pinned hashes and values were recorded before the fits went
// parallel, from the serial code.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "campuslab/ml/forest.h"
#include "campuslab/ml/metrics.h"
#include "campuslab/util/hash.h"
#include "campuslab/util/work_pool.h"
#include "campuslab/xai/explain.h"
#include "campuslab/xai/extract.h"

namespace campuslab {
namespace {

/// 24,000 rows of tied grids, flags and continuous columns, 3 classes
/// with 8% label noise: big enough that the student's root nodes take
/// the parallel split search and the forest's trees are deep.
ml::Dataset fit_dataset(std::size_t n, std::uint64_t seed) {
  ml::Dataset data({"grid8", "quarter", "flag", "normal", "uniform", "count"},
                   {"a", "b", "c"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double grid = std::floor(rng.uniform(0.0, 8.0));
    const double quarter = std::round(rng.uniform(0.0, 1.0) * 4.0) / 4.0;
    const double flag = rng.chance(0.3) ? 1.0 : 0.0;
    const double normal = rng.normal(0.0, 1.0);
    const double uniform = rng.uniform(-2.0, 2.0);
    const double count = std::floor(rng.uniform(0.0, 40.0));
    const double row[6] = {grid, quarter, flag, normal, uniform, count};
    int y = grid + 2.0 * quarter > 5.0
                ? 2
                : (normal + flag > 0.5 || count > 30.0 ? 1 : 0);
    if (rng.chance(0.08)) y = static_cast<int>(rng.below(3));
    data.add(row, y);
  }
  return data;
}

ml::ForestConfig pinned_forest_config() {
  ml::ForestConfig cfg;
  cfg.n_trees = 30;
  cfg.max_depth = 12;
  cfg.seed = 1601;
  return cfg;
}

xai::ExtractConfig pinned_extract_config() {
  xai::ExtractConfig cfg;
  cfg.student_max_depth = 6;
  cfg.synthetic_samples = 6000;
  cfg.seed = 1602;
  return cfg;
}

std::uint64_t forest_hash(const ml::RandomForest& forest) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const auto& tree : forest.trees()) h = util::fnv1a(tree.serialize(), h);
  return h;
}

struct Fitted {
  std::uint64_t forest_hash = 0;
  std::uint64_t model_hash = 0;  // the forest's trees, then the student
  xai::ExtractionResult extraction;
  xai::TrustReport trust;
};

Fitted fit_all(const ml::Dataset& data, util::WorkPool& pool) {
  ml::RandomForest forest(pinned_forest_config());
  forest.fit(data, pool);
  Fitted out;
  out.forest_hash = forest_hash(forest);
  out.extraction = xai::ModelExtractor(pinned_extract_config())
                       .extract(forest, data, pool);
  out.model_hash =
      util::fnv1a(out.extraction.student.serialize(), out.forest_hash);
  out.trust = xai::make_trust_report("pinned", forest, forest.total_nodes(),
                                     out.extraction.student, data, pool);
  return out;
}

// Recorded from the serial fits: 30 trees over 24,000 rows, then the
// student distilled from them on 30,000 teacher-labelled rows.
constexpr std::uint64_t kForestPin = 0x088cddb3fca3b8aeULL;
constexpr std::uint64_t kModelPin = 0x92fa4eddd267f7a6ULL;
constexpr double kTrainFidelityPin = 0.98993333333333333;
constexpr double kTeacherAccuracyPin = 0.94670833333333337;
constexpr double kHoldoutFidelityPin = 0.9897083333333333;

TEST(ParallelFit, ModelsMatchTheSerialPinAtEveryPoolSize) {
  const auto data = fit_dataset(24'000, 1600);
  std::vector<Fitted> fits;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    util::WorkPool pool(threads);
    fits.push_back(fit_all(data, pool));
    const auto& fit = fits.back();
    SCOPED_TRACE(threads);
    EXPECT_EQ(fit.forest_hash, kForestPin);
    EXPECT_EQ(fit.model_hash, kModelPin);
    EXPECT_EQ(fit.extraction.train_fidelity, kTrainFidelityPin);
    EXPECT_EQ(fit.extraction.samples_used, 30'000u);
    EXPECT_EQ(fit.trust.teacher_accuracy, kTeacherAccuracyPin);
    EXPECT_EQ(fit.trust.fidelity, kHoldoutFidelityPin);
  }
  for (const auto& fit : fits) {
    EXPECT_EQ(fit.extraction.student.serialize(),
              fits[0].extraction.student.serialize());
    EXPECT_EQ(fit.extraction.train_fidelity,
              fits[0].extraction.train_fidelity);
    EXPECT_EQ(fit.trust.to_string(), fits[0].trust.to_string());
    EXPECT_EQ(fit.trust.teacher_f1, fits[0].trust.teacher_f1);
    EXPECT_EQ(fit.trust.student_accuracy, fits[0].trust.student_accuracy);
    EXPECT_EQ(fit.trust.student_f1, fits[0].trust.student_f1);
    EXPECT_EQ(fit.trust.max_calibration_gap,
              fits[0].trust.max_calibration_gap);
  }
}

TEST(ParallelFit, FeatureRanksMatchAtEveryPoolSize) {
  const auto data = fit_dataset(20'000, 1603);
  util::WorkPool serial(1);
  const ml::FeatureRanks want(data, serial);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    util::WorkPool pool(threads);
    const ml::FeatureRanks got(data, pool);
    for (std::size_t f = 0; f < data.n_features(); ++f)
      for (std::size_t row = 0; row < data.n_rows(); ++row) {
        ASSERT_EQ(got.rank(f, row), want.rank(f, row));
        ASSERT_EQ(got.value(f, row), data.row(row)[f]);
      }
  }
}

TEST(ParallelFit, WeightedStudentMatchesSerialSearch) {
  const auto data = fit_dataset(20'000, 1604);
  std::vector<double> weights(data.n_rows());
  Rng rng(1605);
  for (auto& w : weights) w = 0.1 + rng.uniform(0.0, 1.7);
  ml::TreeConfig cfg;
  cfg.max_depth = 9;
  util::WorkPool serial(1), parallel(4);
  ml::DecisionTree a(cfg), b(cfg);
  a.fit(data, nullptr, weights, serial);
  b.fit(data, nullptr, weights, parallel);
  EXPECT_GT(a.node_count(), 50u);
  EXPECT_EQ(a.serialize(), b.serialize());
}

TEST(ParallelFit, TrainFidelityIsAgreementWithTheTeacher) {
  const auto data = fit_dataset(20'000, 1606);
  ml::ForestConfig fc = pinned_forest_config();
  fc.n_trees = 5;
  ml::RandomForest forest(fc);
  forest.fit(data);
  // Without synthetic rows the corpus is exactly `data`, relabelled.
  xai::ExtractConfig ec = pinned_extract_config();
  ec.synthetic_samples = 0;
  const auto result = xai::ModelExtractor(ec).extract(forest, data);
  EXPECT_EQ(result.samples_used, data.n_rows());
  EXPECT_LT(result.train_fidelity, 1.0);
  EXPECT_EQ(result.train_fidelity,
            xai::fidelity(result.student, forest, data));
}

TEST(ParallelFit, TrustReportMatchesTheTwoPassDefinition) {
  const auto data = fit_dataset(20'000, 1607);
  ml::ForestConfig fc = pinned_forest_config();
  fc.n_trees = 5;
  ml::RandomForest forest(fc);
  forest.fit(data);
  const auto student =
      xai::ModelExtractor(pinned_extract_config()).extract(forest, data)
          .student;
  const auto report = xai::make_trust_report(
      "two-pass", forest, forest.total_nodes(), student, data);
  const auto teacher_cm = ml::evaluate(forest, data);
  const auto student_cm = ml::evaluate(student, data);
  EXPECT_EQ(report.teacher_accuracy, teacher_cm.accuracy());
  EXPECT_EQ(report.teacher_f1, teacher_cm.macro_f1());
  EXPECT_EQ(report.student_accuracy, student_cm.accuracy());
  EXPECT_EQ(report.student_f1, student_cm.macro_f1());
  EXPECT_EQ(report.fidelity, xai::fidelity(student, forest, data));
}

TEST(ParallelFit, ForestFitInsideAPoolTaskRunsInline) {
  const auto data = fit_dataset(20'000, 1608);
  ml::ForestConfig fc = pinned_forest_config();
  fc.n_trees = 6;
  util::WorkPool serial(1), pool(4);
  ml::RandomForest want(fc);
  want.fit(data, serial);
  std::vector<ml::RandomForest> got(2, ml::RandomForest(fc));
  // Both outer tasks fit a forest through the pool they run on: the
  // nested fan-outs run inline on the task's own thread.
  pool.parallel_for(got.size(),
                    [&](std::size_t i) { got[i].fit(data, pool); });
  for (const auto& forest : got)
    EXPECT_EQ(forest_hash(forest), forest_hash(want));
}

}  // namespace
}  // namespace campuslab
