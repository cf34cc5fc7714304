#ifndef SUBSIM_OBS_OBS_JSON_H_
#define SUBSIM_OBS_OBS_JSON_H_

#include <string>

#include "subsim/obs/metrics.h"
#include "subsim/obs/phase_tracer.h"

namespace subsim {

/// Renders a metrics snapshot (and optionally the tracer's spans) as the
/// repo-wide observability JSON document:
///
/// ```json
/// {
///   "schema_version": 1,
///   "counters": {"name": 123, ...},
///   "gauges": {"name": 1.5, ...},
///   "histograms": {
///     "name": {"count": N, "sum": S, "mean": S/N,
///              "buckets": [...34 counts...]},
///     ...
///   },
///   "spans": [
///     {"name": "...", "depth": 0, "seconds": 0.12},
///     ...
///   ]
/// }
/// ```
///
/// Maps are emitted in sorted key order and spans in completion order, so
/// equal inputs render byte-identically. `spans` is omitted (not empty)
/// when `tracer` is null. See docs/observability.md for the metric-name
/// contract.
std::string ObsJson(const MetricsSnapshot& snapshot,
                    const PhaseTracer* tracer = nullptr);

/// Like ObsJson but without the enclosing braces, for splicing into a
/// larger JSON object (`QueryEngine::StatsJson`, served at `/metricsz`,
/// does this).
std::string ObsJsonFields(const MetricsSnapshot& snapshot,
                          const PhaseTracer* tracer = nullptr);

}  // namespace subsim

#endif  // SUBSIM_OBS_OBS_JSON_H_
