// `RunCoverageGreedy` keeps its per-node scratch (exact marginals and
// selected flags) in a per-thread workspace that each call must leave all
// zero. These tests run one call after others that leave different
// footprints in it (a larger graph, excluded nodes, a run into the
// zero-gain tail) and check it against the same call on a fresh
// thread; the stress case runs the same calls from four threads at once,
// the shape of the HTTP serve workers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "subsim/coverage/max_coverage.h"
#include "subsim/graph/generators.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/graph/weight_models.h"
#include "subsim/random/rng.h"
#include "subsim/rrset/subsim_ic_generator.h"
#include "subsim/util/check.h"

namespace subsim {
namespace {

struct Instance {
  Graph graph;
  RrCollection collection;
};

/// A BA graph under WC-variant weights and SUBSIM sets drawn on it, a
/// tenth of them or so hitting the sentinels {n - 10, n - 20}.
Instance MakeInstance(NodeId nodes, std::size_t num_sets, int seed) {
  Result<EdgeList> list = GenerateBarabasiAlbert(nodes, 3, true, seed);
  SUBSIM_CHECK(list.ok(), "graph");
  WeightModelParams params;
  params.wc_variant_theta = 1.5;
  SUBSIM_CHECK(
      AssignWeights(WeightModel::kWcVariant, params, &list.value()).ok(),
      "weights");
  Graph graph = BuildGraph(std::move(list).value()).value();
  RrCollection collection(graph.num_nodes());
  SubsimIcGenerator generator(graph);
  generator.SetSentinels(std::vector<NodeId>{nodes - 10, nodes - 20});
  Rng rng(seed * 31 + 1);
  generator.Fill(rng, num_sets, &collection);
  return Instance{std::move(graph), std::move(collection)};
}

/// One greedy call: a view of an instance's collection and its options.
struct Call {
  const Instance* instance;
  std::size_t prefix;
  CoverageGreedyOptions options;
  std::vector<NodeId> excluded;

  CoverageGreedyResult Run() const {
    CoverageGreedyOptions with_excluded = options;
    with_excluded.excluded_nodes = excluded;
    return RunCoverageGreedy(instance->collection.Prefix(prefix),
                             with_excluded);
  }
};

Call PlainCall(const Instance& instance, std::size_t prefix,
               std::uint32_t k) {
  Call call{&instance, prefix, {}, {}};
  call.options.k = k;
  return call;
}

Call RevisedCall(const Instance& instance, std::size_t prefix,
                 std::uint32_t k) {
  Call call = PlainCall(instance, prefix, k);
  call.options.tie_break_by_out_degree = true;
  call.options.graph = &instance.graph;
  return call;
}

Call ExcludingCall(const Instance& instance, std::size_t prefix,
                   std::uint32_t k) {
  Call call = RevisedCall(instance, prefix, k);
  call.options.exclude_sentinel_hit_sets = true;
  call.options.singleton_top_count = k + 5;
  call.excluded = {instance.graph.num_nodes() - 10,
                   instance.graph.num_nodes() - 20, 3};
  return call;
}

CoverageGreedyResult RunOnFreshThread(const Call& call) {
  CoverageGreedyResult result;
  std::thread thread([&] { result = call.Run(); });
  thread.join();
  return result;
}

bool SameResult(const CoverageGreedyResult& a, const CoverageGreedyResult& b) {
  return a.seeds == b.seeds && a.gains == b.gains &&
         a.coverage_prefix == b.coverage_prefix &&
         a.considered_sets == b.considered_sets &&
         a.coverage_upper_bound == b.coverage_upper_bound &&
         a.upper_bound_top_count == b.upper_bound_top_count;
}

class GreedyWorkspaceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    small_ = new Instance(MakeInstance(400, 1500, 3));
    large_ = new Instance(MakeInstance(6000, 4000, 4));
  }
  static void TearDownTestSuite() {
    delete small_;
    delete large_;
  }

  /// Calls on the small instance that the workspace's history must not
  /// change: a dense full view, sparse short prefixes, Revised-Greedy into
  /// the zero-gain tail, and sentinel-hit and node exclusion.
  static std::vector<Call> Probes() {
    return {PlainCall(*small_, 1500, 20), PlainCall(*small_, 10, 40),
            RevisedCall(*small_, 1500, 300), RevisedCall(*small_, 40, 150),
            ExcludingCall(*small_, 1500, 20), ExcludingCall(*small_, 30, 60)};
  }

  static Instance* small_;
  static Instance* large_;
};

Instance* GreedyWorkspaceTest::small_ = nullptr;
Instance* GreedyWorkspaceTest::large_ = nullptr;

TEST_F(GreedyWorkspaceTest, CallsAfterOtherCallsMatchAFreshThread) {
  // What each probe leaves behind is what the next probe starts from, so
  // every probe also follows every other one.
  const std::vector<std::pair<const char*, Call>> before = {
      {"larger graph, dense", PlainCall(*large_, 4000, 50)},
      {"larger graph, sparse", RevisedCall(*large_, 20, 400)},
      {"excluded nodes", ExcludingCall(*small_, 1500, 200)},
      {"excluded nodes, larger graph", ExcludingCall(*large_, 300, 80)},
  };
  const std::vector<Call> probes = Probes();
  std::vector<CoverageGreedyResult> fresh;
  for (const Call& probe : probes) {
    fresh.push_back(RunOnFreshThread(probe));
  }

  // One thread of its own, so no earlier test shapes its workspace.
  std::thread thread([&] {
    for (const auto& [label, call] : before) {
      for (std::size_t i = 0; i < probes.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << "after " << label << ", probe " << i);
        EXPECT_FALSE(call.Run().seeds.empty());
        EXPECT_TRUE(SameResult(probes[i].Run(), fresh[i]));
      }
    }
  });
  thread.join();
}

// The serve workers' shape: four threads running greedy at once, each over
// the calls above in its own order, must each get exactly what one fresh
// thread gets. TSan soaks this in CI.
TEST_F(GreedyWorkspaceTest, StressFourThreadsAgreeWithOneThread) {
  std::vector<Call> calls = Probes();
  calls.push_back(PlainCall(*large_, 4000, 50));
  calls.push_back(RevisedCall(*large_, 25, 300));
  std::vector<CoverageGreedyResult> expected;
  for (const Call& call : calls) {
    expected.push_back(RunOnFreshThread(call));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < calls.size(); ++i) {
          const std::size_t c = (i + t * 3 + round) % calls.size();
          if (!SameResult(calls[c].Run(), expected[c])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace subsim
