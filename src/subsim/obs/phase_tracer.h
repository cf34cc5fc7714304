#ifndef SUBSIM_OBS_PHASE_TRACER_H_
#define SUBSIM_OBS_PHASE_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "subsim/util/mutex.h"
#include "subsim/util/thread_annotations.h"

namespace subsim {

/// One completed timed span. Spans nest: `depth` is the nesting level at
/// the time the span was opened (0 = top level), and spans are stored in
/// completion order, so a parent always appears after its children.
struct PhaseSpan {
  std::string name;
  double seconds = 0.0;
  int depth = 0;
};

/// Records nested timed spans (theta estimation, fill rounds, sentinel
/// selection, coverage...). A span is a name, a depth and a duration;
/// counts (RR sets, nodes, edges examined) belong in a `MetricsRegistry`.
/// Use spans to bracket *phases* (tens per run), never per-RR-set work:
/// each one takes a lock to record.
///
/// Span retention is bounded (`max_spans`); once full, further spans are
/// timed but dropped, and `dropped_spans()` reports how many. All methods
/// are thread-safe, but nesting depth is tracked per thread, so spans
/// opened on different threads interleave at their own depths.
class PhaseTracer {
 public:
  explicit PhaseTracer(std::size_t max_spans = 4096)
      : max_spans_(max_spans) {}

  PhaseTracer(const PhaseTracer&) = delete;
  PhaseTracer& operator=(const PhaseTracer&) = delete;

  std::vector<PhaseSpan> Spans() const SUBSIM_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return spans_;
  }

  std::uint64_t dropped_spans() const SUBSIM_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    return dropped_;
  }

 private:
  friend class PhaseScope;

  void Record(PhaseSpan span) SUBSIM_EXCLUDES(mu_) {
    const MutexLock lock(mu_);
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    spans_.push_back(std::move(span));
  }

  const std::size_t max_spans_;
  /// Leaf lock; span recording never acquires anything else while held.
  mutable Mutex mu_;
  std::vector<PhaseSpan> spans_ SUBSIM_GUARDED_BY(mu_);
  std::uint64_t dropped_ SUBSIM_GUARDED_BY(mu_) = 0;
};

/// RAII span. Tolerates a null tracer — it then degrades to a plain
/// stopwatch, so instrumented code paths need no `if (obs)` branching and
/// `ElapsedSeconds()` keeps working for results reporting (this is the
/// sanctioned replacement for ad-hoc WallTimer use in algo/rrset/serve).
class PhaseScope {
 public:
  PhaseScope(PhaseTracer* tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)), start_(Clock::now()) {
    if (tracer_ != nullptr) {
      depth_ = ThreadDepth()++;
    }
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() { Close(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Ends the span early (idempotent); the destructor then does nothing.
  void Close() {
    if (closed_) {
      return;
    }
    closed_ = true;
    if (tracer_ == nullptr) {
      return;
    }
    --ThreadDepth();
    PhaseSpan span;
    span.name = std::move(name_);
    span.seconds = ElapsedSeconds();
    span.depth = depth_;
    tracer_->Record(std::move(span));
  }

 private:
  using Clock = std::chrono::steady_clock;

  static int& ThreadDepth() {
    thread_local int depth = 0;
    return depth;
  }

  PhaseTracer* tracer_;
  std::string name_;
  Clock::time_point start_;
  int depth_ = 0;
  bool closed_ = false;
};

}  // namespace subsim

#endif  // SUBSIM_OBS_PHASE_TRACER_H_
