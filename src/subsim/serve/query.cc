#include "subsim/serve/query.h"

#include "subsim/util/string_util.h"

namespace subsim {

ImOptions SelectSeedsQuery::ToImOptions() const {
  ImOptions options;
  options.k = k;
  options.epsilon = epsilon;
  options.delta = delta;
  options.rng_seed = rng_seed;
  options.generator = generator;
  options.rr_encoding = rr_encoding;
  return options;
}

Result<SelectSeedsQuery> ParseSelectSeedsQuery(std::string_view line) {
  SelectSeedsQuery query;
  bool saw_graph = false;
  for (const std::string_view token : SplitAndTrim(line, " \t")) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (value.empty()) {
      return Status::InvalidArgument("empty value for '" + std::string(key) +
                                     "'");
    }
    if (key == "graph") {
      query.graph = std::string(value);
      saw_graph = true;
    } else if (key == "algo") {
      query.algo = std::string(value);
    } else if (key == "k") {
      std::uint64_t k = 0;
      if (!ParseUint64(value, &k) || k == 0 || k > 0xFFFFFFFFull) {
        return Status::InvalidArgument("k must be a positive integer");
      }
      query.k = static_cast<std::uint32_t>(k);
    } else if (key == "eps" || key == "epsilon") {
      if (!ParseDouble(value, &query.epsilon)) {
        return Status::InvalidArgument("eps must be a number");
      }
    } else if (key == "delta") {
      if (!ParseDouble(value, &query.delta)) {
        return Status::InvalidArgument("delta must be a number");
      }
    } else if (key == "seed") {
      if (!ParseUint64(value, &query.rng_seed)) {
        return Status::InvalidArgument("seed must be a non-negative integer");
      }
    } else if (key == "deadline_ms" || key == "deadline") {
      if (!ParseUint64(value, &query.deadline_ms)) {
        return Status::InvalidArgument(
            "deadline_ms must be a non-negative integer");
      }
    } else if (key == "generator" || key == "gen") {
      Result<GeneratorKind> kind = ParseGeneratorKind(std::string(value));
      if (!kind.ok()) {
        return kind.status();
      }
      query.generator = *kind;
    } else if (key == "rr_encoding" || key == "encoding") {
      Result<RrEncoding> encoding = ParseRrEncoding(std::string(value));
      if (!encoding.ok()) {
        return encoding.status();
      }
      query.rr_encoding = *encoding;
    } else {
      return Status::InvalidArgument("unknown query key '" +
                                     std::string(key) + "'");
    }
  }
  if (!saw_graph) {
    return Status::InvalidArgument("query requires graph=NAME");
  }
  return query;
}

std::string FormatQueryResponseJson(const QueryResponse& response) {
  std::string out = "{\"id\":" + std::to_string(response.query_id);
  out += ",\"ok\":";
  out += response.status.ok() ? "true" : "false";
  out += ",\"graph\":\"" + JsonEscape(response.query.graph) + "\"";
  out += ",\"algo\":\"" + JsonEscape(response.query.algo) + "\"";
  out += ",\"k\":" + std::to_string(response.query.k);
  // Echo the storage knob only when it deviates from the default, keeping
  // the common response line unchanged.
  if (response.query.rr_encoding != RrEncoding::kRaw) {
    out += ",\"rr_encoding\":\"";
    out += RrEncodingName(response.query.rr_encoding);
    out += "\"";
  }
  if (!response.status.ok()) {
    out += ",\"error\":\"" + JsonEscape(response.status.ToString()) + "\"}";
    return out;
  }
  out += ",\"seeds\":[";
  for (std::size_t i = 0; i < response.result.seeds.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += std::to_string(response.result.seeds[i]);
  }
  out += "]";
  out += ",\"estimated_spread\":" + JsonDouble(response.result.estimated_spread);
  if (response.result.optimal_upper_bound > 0.0) {
    out += ",\"approx_ratio\":" + JsonDouble(response.result.approx_ratio);
  }
  if (response.result.achieved_epsilon > 0.0) {
    out += ",\"achieved_eps\":" + JsonDouble(response.result.achieved_epsilon);
  }
  if (response.result.deadline_hit) {
    out += ",\"deadline_hit\":true";
  }
  out += ",\"rr_sets\":" + std::to_string(response.result.num_rr_sets);
  const QueryStats& stats = response.stats;
  out += ",\"cache_eligible\":";
  out += stats.cache_eligible ? "true" : "false";
  out += ",\"cache_hit\":";
  out += stats.cache_hit ? "true" : "false";
  out += ",\"rr_sets_reused\":" + std::to_string(stats.rr_sets_reused);
  out += ",\"rr_sets_generated\":" + std::to_string(stats.rr_sets_generated);
  out += ",\"queue_ms\":" + JsonDouble(stats.queue_seconds * 1000.0);
  out += ",\"exec_ms\":" + JsonDouble(stats.exec_seconds * 1000.0);
  out += "}";
  return out;
}

}  // namespace subsim
