// Statistical correctness of every subset-sampling kernel: each element's
// empirical inclusion frequency must match its specified probability, and
// sampling of distinct elements must be (pairwise) independent. These are
// the properties the SUBSIM analysis (Lemma 3 / Section 3.3) relies on.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "subsim/random/geometric.h"
#include "subsim/sampling/inline_sampling.h"

namespace subsim {
namespace {

enum class Kernel {
  kNaive,      // SampleSubsetNaive
  kGeometric,  // SampleUniformSubsetSkips; all probabilities equal, < 1
  kSorted,     // SampleSortedSubset; probabilities non-increasing
};

struct StatCase {
  std::string label;
  Kernel kernel;
  std::vector<double> probs;
};

/// Appends one subset sample to `*out`.
using DrawFn = std::function<void(Rng&, std::vector<std::uint32_t>*)>;

DrawFn MakeDraw(Kernel kernel, const std::vector<double>& probs) {
  switch (kernel) {
    case Kernel::kNaive:
      return [probs](Rng& rng, std::vector<std::uint32_t>* out) {
        SampleSubsetNaive(probs, rng,
                          [out](std::uint32_t i) { out->push_back(i); });
      };
    case Kernel::kGeometric:
      return [h = probs.size(), inv_log_q = GeometricInvLogQ(probs.front())](
                 Rng& rng, std::vector<std::uint32_t>* out) {
        SampleUniformSubsetSkips(
            h, inv_log_q, rng, [out](std::uint32_t i) { out->push_back(i); });
      };
    case Kernel::kSorted:
      return [probs](Rng& rng, std::vector<std::uint32_t>* out) {
        SampleSortedSubset(probs, rng,
                           [out](std::uint32_t i) { out->push_back(i); });
      };
  }
  return nullptr;
}

std::vector<StatCase> StatCases() {
  const std::vector<double> uniform_small(20, 0.15);
  const std::vector<double> uniform_tiny(64, 0.02);
  const std::vector<double> descending = {0.95, 0.6,  0.6,  0.3, 0.25,
                                          0.2,  0.12, 0.05, 0.02, 0.01};
  const std::vector<double> mixed = {0.02, 0.9, 0.001, 0.45, 0.25,
                                     0.13, 0.7, 0.08,  0.3,  0.6};

  return {
      {"naive/uniform", Kernel::kNaive, uniform_small},
      {"naive/mixed", Kernel::kNaive, mixed},
      {"geometric/uniform", Kernel::kGeometric, uniform_small},
      {"geometric/tiny", Kernel::kGeometric, uniform_tiny},
      {"sorted/descending", Kernel::kSorted, descending},
  };
}

class SamplerStatisticalTest : public ::testing::TestWithParam<StatCase> {};

TEST_P(SamplerStatisticalTest, InclusionFrequenciesMatchProbabilities) {
  const StatCase& test_case = GetParam();
  const DrawFn draw = MakeDraw(test_case.kernel, test_case.probs);

  constexpr int kTrials = 120000;
  Rng rng(0xC0FFEE);
  std::vector<int> counts(test_case.probs.size(), 0);
  std::vector<std::uint32_t> out;
  for (int t = 0; t < kTrials; ++t) {
    out.clear();
    draw(rng, &out);
    for (std::uint32_t i : out) {
      ASSERT_LT(i, counts.size());
      ++counts[i];
    }
  }

  for (std::size_t i = 0; i < test_case.probs.size(); ++i) {
    const double p = test_case.probs[i];
    const double expected = kTrials * p;
    const double sigma = std::sqrt(kTrials * p * (1.0 - p));
    EXPECT_NEAR(counts[i], expected, 5.0 * sigma + 1.0)
        << test_case.label << " element " << i << " p=" << p;
  }
}

TEST_P(SamplerStatisticalTest, PairwiseJointFrequencyMatchesIndependence) {
  const StatCase& test_case = GetParam();
  // Pick the two highest-probability elements with p in (0, 1) so joint
  // counts are well populated.
  int first = -1;
  int second = -1;
  for (std::size_t i = 0; i < test_case.probs.size(); ++i) {
    const double p = test_case.probs[i];
    if (p <= 0.0 || p >= 1.0) {
      continue;
    }
    if (first < 0 || p > test_case.probs[first]) {
      second = first;
      first = static_cast<int>(i);
    } else if (second < 0 || p > test_case.probs[second]) {
      second = static_cast<int>(i);
    }
  }
  if (first < 0 || second < 0) {
    GTEST_SKIP() << "not enough fractional-probability elements";
  }

  const DrawFn draw = MakeDraw(test_case.kernel, test_case.probs);

  constexpr int kTrials = 120000;
  Rng rng(0xFEEDFACE);
  int joint = 0;
  std::vector<std::uint32_t> out;
  for (int t = 0; t < kTrials; ++t) {
    out.clear();
    draw(rng, &out);
    bool has_first = false;
    bool has_second = false;
    for (std::uint32_t i : out) {
      has_first |= (static_cast<int>(i) == first);
      has_second |= (static_cast<int>(i) == second);
    }
    joint += (has_first && has_second) ? 1 : 0;
  }

  const double p_joint =
      test_case.probs[first] * test_case.probs[second];
  const double expected = kTrials * p_joint;
  const double sigma = std::sqrt(kTrials * p_joint * (1.0 - p_joint));
  EXPECT_NEAR(joint, expected, 5.0 * sigma + 1.0)
      << test_case.label << " joint of elements " << first << "," << second;
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplers, SamplerStatisticalTest, ::testing::ValuesIn(StatCases()),
    [](const ::testing::TestParamInfo<StatCase>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace subsim
