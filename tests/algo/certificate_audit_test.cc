// Certificate audit: an algorithm's reported `optimal_upper_bound` claims
// OPT <= I⁺ with probability at least 1 - delta (and its lower bound and
// seeds make claims of their own). On tiny IC graphs, where OPT and every
// seed set's spread are exact by enumeration, run OPIM-C, HIST and SSA
// over many seeds and check that the share of runs failing a claim is
// consistent with delta: a failure count that a Binomial(runs, delta)
// reaches with probability below 1e-6 fails the test. OPIM-C and HIST are
// also audited deadline-degraded (`Deadline::AlreadyExpired()`): a run
// cut at its first round boundary must still hold the bounds it reports
// and the slack it claims in `achieved_epsilon`.
//
// `CertificateAuditTest` is the fast subset every ctest run includes;
// `CertificateAuditSweep` (ctest `algo_certificate_audit_sweep`, label
// `audit`, run with `ctest -C audit -L audit`) is the full sweep over
// graphs, k, delta and seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "subsim/algo/registry.h"
#include "subsim/eval/exact_spread.h"
#include "subsim/graph/graph_builder.h"
#include "subsim/util/deadline.h"
#include "subsim/util/math.h"

namespace subsim {
namespace {

/// The 9-node, 12-edge graph of the end-to-end guarantee tests: two hubs,
/// a chain and an isolated pocket.
Graph TwoHubGraph() {
  EdgeList list;
  list.num_nodes = 9;
  list.edges = {{0, 1, 0.8}, {0, 2, 0.8}, {0, 3, 0.4}, {4, 3, 0.6},
                {4, 5, 0.7}, {4, 6, 0.3}, {1, 7, 0.5}, {5, 7, 0.2},
                {7, 8, 0.9}, {2, 8, 0.1}, {3, 6, 0.5}, {8, 6, 0.2}};
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// 10 nodes, 14 edges, every probability at least 0.5: influence is high,
/// so HIST's sentinel phase selects sentinels and its phase 2 runs on
/// truncated sets.
Graph DenseGraph() {
  EdgeList list;
  list.num_nodes = 10;
  for (NodeId v = 0; v < 9; ++v) {
    list.edges.push_back({v, v + 1, 0.6});
  }
  for (NodeId v = 0; v < 5; ++v) {
    list.edges.push_back({2 * v + 1, 2 * v, 0.5});
  }
  Result<Graph> graph = BuildGraph(std::move(list));
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// P(X >= failures) for X ~ Binomial(runs, p).
double BinomialUpperTail(int runs, int failures, double p) {
  double tail = 0.0;
  for (int x = failures; x <= runs; ++x) {
    tail += std::exp(std::lgamma(runs + 1.0) - std::lgamma(x + 1.0) -
                     std::lgamma(runs - x + 1.0) + x * std::log(p) +
                     (runs - x) * std::log1p(-p));
  }
  return tail;
}

struct AuditCounts {
  int certified = 0;       // runs that reported an upper bound
  int with_sentinels = 0;  // HIST runs whose phase 1 kept sentinels
  int deadline_hits = 0;   // runs that stopped on the deadline
};

/// Whether the audited runs get the full budget or an expired deadline.
enum class Budget { kFull, kExpired };

/// Runs `algorithm` on `graph` for seeds 1..`runs`. A run fails if its
/// upper bound is below OPT, its lower bound is above its seeds' exact
/// spread, or that spread is below (1 - 1/e - epsilon) · OPT; all three
/// hold together with probability at least 1 - delta. Under
/// `Budget::kExpired` a certified run is held to the slack it reports,
/// `achieved_epsilon`, in place of epsilon. Checks the failure count
/// against delta.
AuditCounts AuditCertificate(const Graph& graph, const std::string& algorithm,
                             std::uint32_t k, double epsilon, double delta,
                             int runs, Budget budget = Budget::kFull) {
  const bool degraded = budget == Budget::kExpired;
  SCOPED_TRACE(::testing::Message()
               << algorithm << " k " << k << " eps " << epsilon << " delta "
               << delta << (degraded ? " degraded" : ""));
  AuditCounts counts;
  const Result<ExactOptimum> optimum = ExactOptimalSeedSetIc(graph, k);
  EXPECT_TRUE(optimum.ok()) << optimum.status().ToString();
  auto im = MakeImAlgorithm(algorithm);
  EXPECT_TRUE(im.ok());
  if (!optimum.ok() || !im.ok()) {
    return counts;
  }

  ImOptions options;
  options.k = k;
  options.epsilon = epsilon;
  options.delta = delta;
  if (degraded) {
    options.deadline = Deadline::AlreadyExpired();
  }
  int failures = 0;
  std::map<std::vector<NodeId>, double> spreads;  // seed sets repeat
  for (int seed = 1; seed <= runs; ++seed) {
    options.rng_seed = static_cast<std::uint64_t>(seed);
    const Result<ImResult> result = (*im)->Run(graph, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) {
      return counts;
    }
    std::vector<NodeId> seeds = result->seeds;
    std::sort(seeds.begin(), seeds.end());
    auto [it, inserted] = spreads.try_emplace(std::move(seeds), 0.0);
    if (inserted) {
      const Result<double> exact = ExactSpreadIc(graph, it->first);
      EXPECT_TRUE(exact.ok());
      if (!exact.ok()) {
        return counts;
      }
      it->second = *exact;
    }
    const double spread = it->second;
    // HIST reports no bounds when phase 1 already returns all k seeds.
    const bool certified = result->optimal_upper_bound > 0.0;
    counts.certified += certified ? 1 : 0;
    counts.with_sentinels += result->sentinel_size > 0 ? 1 : 0;
    counts.deadline_hits += result->deadline_hit ? 1 : 0;
    const double slack =
        degraded && certified ? result->achieved_epsilon : epsilon;
    const bool failed =
        (certified && (result->optimal_upper_bound < optimum->spread ||
                       result->influence_lower_bound > spread + 1e-9)) ||
        spread < (kOneMinusInvE - slack) * optimum->spread - 1e-9;
    failures += failed ? 1 : 0;
  }
  EXPECT_GE(BinomialUpperTail(runs, failures, delta), 1e-6)
      << failures << " of " << runs << " runs failed a certificate; OPT = "
      << optimum->spread;
  return counts;
}

TEST(CertificateAuditTest, BinomialTailMatchesHandValues) {
  EXPECT_NEAR(BinomialUpperTail(10, 0, 0.3), 1.0, 1e-12);
  EXPECT_NEAR(BinomialUpperTail(2, 2, 0.5), 0.25, 1e-12);
  EXPECT_NEAR(BinomialUpperTail(3, 2, 0.5), 0.5, 1e-12);
}

TEST(CertificateAuditTest, OpimCCertificateHoldsAgainstExactOpt) {
  const AuditCounts counts =
      AuditCertificate(TwoHubGraph(), "opim-c", 1, 0.3, 0.05, 60);
  EXPECT_EQ(counts.certified, 60);
}

TEST(CertificateAuditTest, HistCertificateHoldsAgainstExactOpt) {
  // At k = 1 HIST skips its sentinel phase: phase 2 alone, untruncated.
  const AuditCounts plain =
      AuditCertificate(TwoHubGraph(), "hist", 1, 0.3, 0.05, 60);
  EXPECT_EQ(plain.certified, 60);
  EXPECT_EQ(plain.with_sentinels, 0);
  // From k = 3 on (at this epsilon) it runs the sentinel phase, and k = 3
  // leaves room for a phase 2 after a partial sentinel set, so the audited
  // bounds include sentinel-truncated ones.
  const AuditCounts truncated =
      AuditCertificate(DenseGraph(), "hist", 3, 0.3, 0.05, 60);
  EXPECT_GT(truncated.certified, 0);
  EXPECT_GT(truncated.with_sentinels, 0);
}

TEST(CertificateAuditTest, DegradedOpimCCertificateHoldsAgainstExactOpt) {
  const AuditCounts counts = AuditCertificate(TwoHubGraph(), "opim-c", 1, 0.3,
                                              0.05, 60, Budget::kExpired);
  EXPECT_EQ(counts.certified, 60);
  EXPECT_GT(counts.deadline_hits, 0);
}

TEST(CertificateAuditTest, DegradedHistCertificateHoldsAgainstExactOpt) {
  // k = 1: phase 2 alone, cut after its first round.
  const AuditCounts plain = AuditCertificate(TwoHubGraph(), "hist", 1, 0.3,
                                             0.05, 60, Budget::kExpired);
  EXPECT_EQ(plain.certified, 60);
  EXPECT_GT(plain.deadline_hits, 0);
  // k = 3: the sentinel phase runs, and an expiry at its first doubling
  // boundary drops the sentinels, so phase 2 certifies all three seeds.
  const AuditCounts sentinel = AuditCertificate(DenseGraph(), "hist", 3, 0.3,
                                                0.05, 60, Budget::kExpired);
  EXPECT_EQ(sentinel.certified, 60);
  EXPECT_GT(sentinel.deadline_hits, 0);
}

class CertificateAuditSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, Budget>> {
};

TEST_P(CertificateAuditSweep, CertificateHoldsAgainstExactOpt) {
  const auto [algorithm, graph_index, budget] = GetParam();
  const Graph graph = graph_index == 0 ? TwoHubGraph() : DenseGraph();
  for (const std::uint32_t k : {1u, 2u, 3u}) {
    for (const double delta : {0.05, 0.3}) {
      AuditCertificate(graph, algorithm, k, 0.2, delta, 400, budget);
    }
  }
}

/// The sweep's cases: every algorithm on both graphs at full budget, plus
/// a degraded axis for OPIM-C and HIST (SSA ignores deadlines).
std::vector<CertificateAuditSweep::ParamType> SweepCases() {
  std::vector<CertificateAuditSweep::ParamType> cases;
  for (const std::string algorithm : {"opim-c", "hist", "ssa"}) {
    for (const int graph_index : {0, 1}) {
      cases.emplace_back(algorithm, graph_index, Budget::kFull);
      if (algorithm != "ssa") {
        cases.emplace_back(algorithm, graph_index, Budget::kExpired);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, CertificateAuditSweep, ::testing::ValuesIn(SweepCases()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) == 0 ? "_two_hub" : "_dense") +
             (std::get<2>(info.param) == Budget::kExpired ? "_degraded" : "");
    });

}  // namespace
}  // namespace subsim
