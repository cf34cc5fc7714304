// Deadline-budgeted degradation contract (docs/serving.md): OPIM-C and
// HIST, the served algorithms, check the budget only at round boundaries,
// always finish round one, and a degraded run still reports seeds with a
// certified bound. IMM and SSA, which are not served, ignore it.
// `Deadline::AlreadyExpired()` makes the "budget gone" case deterministic
// — no clock, no flakiness.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "subsim/algo/registry.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/util/deadline.h"

namespace subsim {
namespace {

Graph DeadlineGraph() {
  Result<EdgeList> list = GenerateBarabasiAlbert(800, 4, false, 99);
  EXPECT_TRUE(list.ok());
  EXPECT_TRUE(
      AssignWeights(WeightModel::kWeightedCascade, {}, &list.value()).ok());
  Result<Graph> graph = BuildGraph(std::move(list).value());
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

const Graph& SharedGraph() {
  static const Graph* const kGraph = new Graph(DeadlineGraph());
  return *kGraph;
}

ImOptions BaseOptions() {
  ImOptions options;
  options.k = 8;
  options.epsilon = 0.1;  // tight: forces several doubling rounds
  options.rng_seed = 42;
  options.generator = GeneratorKind::kSubsimIc;
  return options;
}

class DeadlineDegradationTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(DeadlineDegradationTest, UnsetDeadlineChangesNothing) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  ImOptions options = BaseOptions();
  const Result<ImResult> plain = (*algorithm)->Run(SharedGraph(), options);
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->deadline_hit);

  options.deadline = Deadline();  // explicitly unset
  const Result<ImResult> again = (*algorithm)->Run(SharedGraph(), options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(plain->seeds, again->seeds);
  EXPECT_EQ(plain->num_rr_sets, again->num_rr_sets);
}

TEST_P(DeadlineDegradationTest, ExpiredBudgetStillReturnsSeedsWithBound) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  ImOptions options = BaseOptions();
  options.deadline = Deadline::AlreadyExpired();

  const Result<ImResult> degraded = (*algorithm)->Run(SharedGraph(), options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->deadline_hit);
  EXPECT_EQ(degraded->seeds.size(), options.k);
  // The achieved bound is honest: looser than (or equal to) requested.
  EXPECT_GT(degraded->achieved_epsilon, 0.0);

  // Fewer sets than the full-budget run: the budget actually truncated.
  const Result<ImResult> full =
      (*algorithm)->Run(SharedGraph(), BaseOptions());
  ASSERT_TRUE(full.ok());
  EXPECT_LT(degraded->num_rr_sets, full->num_rr_sets);
}

TEST_P(DeadlineDegradationTest, DegradedRunIsDeterministic) {
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());
  ImOptions options = BaseOptions();
  options.deadline = Deadline::AlreadyExpired();

  const Result<ImResult> a = (*algorithm)->Run(SharedGraph(), options);
  const Result<ImResult> b = (*algorithm)->Run(SharedGraph(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->seeds, b->seeds);
  EXPECT_EQ(a->num_rr_sets, b->num_rr_sets);
  EXPECT_DOUBLE_EQ(a->achieved_epsilon, b->achieved_epsilon);
}

TEST_P(DeadlineDegradationTest, AchievedEpsilonTracksFullRun) {
  // A completed (un-truncated) run reports an achieved epsilon no worse
  // than what a degraded run of the same query certifies.
  const auto algorithm = MakeImAlgorithm(GetParam());
  ASSERT_TRUE(algorithm.ok());

  const Result<ImResult> full =
      (*algorithm)->Run(SharedGraph(), BaseOptions());
  ASSERT_TRUE(full.ok());

  ImOptions degraded_options = BaseOptions();
  degraded_options.deadline = Deadline::AlreadyExpired();
  const Result<ImResult> degraded =
      (*algorithm)->Run(SharedGraph(), degraded_options);
  ASSERT_TRUE(degraded.ok());

  EXPECT_LE(full->achieved_epsilon, degraded->achieved_epsilon);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, DeadlineDegradationTest,
                         ::testing::Values("opim-c", "hist"));

TEST(DeadlineTest, UnservedAlgorithmsIgnoreTheBudget) {
  for (const char* name : {"imm", "ssa"}) {
    SCOPED_TRACE(name);
    const auto algorithm = MakeImAlgorithm(name);
    ASSERT_TRUE(algorithm.ok());
    const Result<ImResult> full =
        (*algorithm)->Run(SharedGraph(), BaseOptions());
    ImOptions options = BaseOptions();
    options.deadline = Deadline::AlreadyExpired();
    const Result<ImResult> budgeted = (*algorithm)->Run(SharedGraph(), options);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(budgeted.ok());
    EXPECT_FALSE(budgeted->deadline_hit);
    EXPECT_EQ(budgeted->seeds, full->seeds);
    EXPECT_EQ(budgeted->num_rr_sets, full->num_rr_sets);
    EXPECT_DOUBLE_EQ(budgeted->achieved_epsilon, full->achieved_epsilon);
  }
}

TEST(DeadlineTest, SentinelSemantics) {
  const Deadline unset;
  EXPECT_FALSE(unset.is_set());
  EXPECT_FALSE(unset.Expired());

  const Deadline gone = Deadline::AlreadyExpired();
  EXPECT_TRUE(gone.is_set());
  EXPECT_TRUE(gone.Expired());
  EXPECT_EQ(gone.RemainingSeconds(), 0.0);

  const Deadline later = Deadline::AfterSeconds(60.0);
  EXPECT_TRUE(later.is_set());
  EXPECT_FALSE(later.Expired());
  EXPECT_GT(later.RemainingSeconds(), 0.0);
}

}  // namespace
}  // namespace subsim
