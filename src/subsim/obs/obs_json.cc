#include "subsim/obs/obs_json.h"

#include "subsim/util/string_util.h"

namespace subsim {

namespace {

std::string JsonName(const std::string& name) {
  return '"' + JsonEscape(name) + '"';
}

}  // namespace

std::string ObsJsonFields(const MetricsSnapshot& snapshot,
                          const PhaseTracer* tracer) {
  std::string out = "\"schema_version\":1";

  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += JsonName(name) + ':' + std::to_string(value);
  }
  out += '}';

  out += ",\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += JsonName(name) + ':' + JsonDouble(value);
  }
  out += '}';

  out += ",\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += JsonName(name);
    out += ":{\"count\":" + std::to_string(hist.count);
    out += ",\"sum\":" + std::to_string(hist.sum);
    out += ",\"mean\":" + JsonDouble(hist.Mean());
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
      if (i > 0) {
        out += ',';
      }
      out += std::to_string(hist.buckets[i]);
    }
    out += "]}";
  }
  out += '}';

  if (tracer != nullptr) {
    out += ",\"spans\":[";
    first = true;
    for (const PhaseSpan& span : tracer->Spans()) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += "{\"name\":" + JsonName(span.name);
      out += ",\"depth\":" + std::to_string(span.depth);
      out += ",\"seconds\":" + JsonDouble(span.seconds) + '}';
    }
    out += ']';
    if (const std::uint64_t dropped = tracer->dropped_spans(); dropped > 0) {
      out += ",\"dropped_spans\":" + std::to_string(dropped);
    }
  }
  return out;
}

std::string ObsJson(const MetricsSnapshot& snapshot,
                    const PhaseTracer* tracer) {
  return '{' + ObsJsonFields(snapshot, tracer) + "}\n";
}

}  // namespace subsim
