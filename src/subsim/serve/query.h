#ifndef SUBSIM_SERVE_QUERY_H_
#define SUBSIM_SERVE_QUERY_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "subsim/algo/im_algorithm.h"
#include "subsim/rrset/generator_factory.h"
#include "subsim/util/status.h"

namespace subsim {

/// A seed-selection request against a registered graph.
///
/// Text form (one query per line): whitespace-separated `key=value` tokens,
/// e.g.
///
///   graph=dblp algo=opim-c k=50 eps=0.1 seed=7 generator=subsim
///
/// `graph` is required; everything else has the defaults below. Accepted
/// keys: graph, algo, k, eps (or epsilon), delta, seed, generator,
/// deadline_ms (or deadline), rr_encoding (or encoding).
struct SelectSeedsQuery {
  std::string graph;
  /// One of the served algorithms: "opim-c" or "hist" (the engine refuses
  /// any other name with InvalidArgument).
  std::string algo = "opim-c";
  std::uint32_t k = 50;
  double epsilon = 0.1;
  double delta = 0.0;  // 0 = 1/n
  std::uint64_t rng_seed = 1;
  GeneratorKind generator = GeneratorKind::kSubsimIc;
  /// Arena storage encoding for this query's RR sets ("raw" | "delta").
  /// Part of the sketch-cache key (raw and delta stores are both exact but
  /// not byte-interchangeable); the selected seeds are identical either
  /// way — delta just spends less cache budget (docs/memory.md).
  RrEncoding rr_encoding = RrEncoding::kRaw;
  /// Wall-clock budget in milliseconds; 0 = unbounded. The budget covers
  /// queueing *and* execution: time spent queued is subtracted before the
  /// algorithm starts, an exhausted budget before any work is shed
  /// (DeadlineExceeded / HTTP 429), and one that expires mid-run degrades —
  /// the doubling algorithms stop at a round boundary and annotate the
  /// achieved bound (docs/serving.md).
  std::uint64_t deadline_ms = 0;

  /// ImOptions equivalent to this query. Leaves `num_threads` at its
  /// default; the engine overrides it from `QueryEngineOptions` — safe
  /// because generation is thread-count invariant, so the thread count is
  /// an execution knob, not part of the query's identity.
  ImOptions ToImOptions() const;
};

/// Parses the text form above. Unknown keys, malformed values, and a
/// missing `graph` are InvalidArgument.
Result<SelectSeedsQuery> ParseSelectSeedsQuery(std::string_view line);

/// Per-query accounting the engine fills in alongside the result.
struct QueryStats {
  /// Whether this query's algorithm could use the sketch cache at all
  /// (false for HIST, whose sets are never reusable).
  bool cache_eligible = false;
  /// Whether a cached store pre-existed this query.
  bool cache_hit = false;
  /// The sets this query evaluated, split into those its own run appended
  /// to the store and those already committed (by earlier or concurrent
  /// queries). Exact under concurrency: the two always sum to the
  /// evaluated count, and concurrent same-key queries' `rr_sets_generated`
  /// sum to what the store grew by.
  std::uint64_t rr_sets_reused = 0;
  std::uint64_t rr_sets_generated = 0;
  /// Seconds spent queued behind other work, then executing.
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;
};

/// Everything a query returns: the outcome status, the IM result when ok,
/// and the accounting.
struct QueryResponse {
  std::uint64_t query_id = 0;
  SelectSeedsQuery query;
  Status status = Status::Ok();
  ImResult result;
  QueryStats stats;
};

/// Renders a response as a single JSON line (no trailing newline), e.g.
///
///   {"id":3,"ok":true,"graph":"dblp","algo":"opim-c","k":50,
///    "seeds":[12,400,7],"estimated_spread":1234.5,"rr_sets":8192,
///    "cache_eligible":true,"cache_hit":true,"rr_sets_reused":8192,
///    "rr_sets_generated":0,"queue_ms":0.12,"exec_ms":45.6}
///
/// Errors render as {"id":N,"ok":false,"error":"..."} plus the echo fields.
std::string FormatQueryResponseJson(const QueryResponse& response);

}  // namespace subsim

#endif  // SUBSIM_SERVE_QUERY_H_
