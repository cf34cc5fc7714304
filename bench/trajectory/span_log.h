#ifndef SUBSIM_BENCH_TRAJECTORY_SPAN_LOG_H_
#define SUBSIM_BENCH_TRAJECTORY_SPAN_LOG_H_

// In-memory span recorder for the traced run. Spans are opened and closed
// only in bench files, around calls into the library's public functions,
// so the untraced run executes none of this code.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace trajectory {

/// One closed interval of work. `parent` indexes the span that was open
/// when this one started (-1 at top level); `op` is the solve or request
/// the span belongs to.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t op = 0;

  double seconds() const { return end_s - start_s; }
};

/// Single-threaded span log: spans nest by call order and are kept in
/// memory until `WriteJsonLines` at exit.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : epoch_(Clock::now()) {}

  int Open(std::string name, std::uint64_t op) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), Now(), 0.0, open_, op});
    open_ = index;
    return index;
  }

  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = Now();
    open_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start/end (seconds since the log was
  /// created), parent index and op id.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"parent\":%d,\"op\":%llu}\n",
                   span.name.c_str(), span.start_s, span.end_s, span.parent,
                   static_cast<unsigned long long>(span.op));
    }
    return std::fclose(out) == 0;
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, std::uint64_t op)
      : log_(log), index_(log->Open(std::move(name), op)) {}
  ~SpanScope() { log_->Close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace trajectory

#endif  // SUBSIM_BENCH_TRAJECTORY_SPAN_LOG_H_
