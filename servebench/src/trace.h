// Spans recorded by the benchmark around its calls into the library's
// public functions. Each span has a name, start, end, parent and request
// id. Spans stay in per-thread memory while the run measures and are
// summarized (count, total, self time) and written out when it ends. A
// disabled tracer makes every span a no-op, which is the untraced run the
// end-to-end metrics come from.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // a string literal
  uint32_t parent = 0;         // 1 + index of the parent in its thread's
                               // buffer; 0 for a root span
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One thread's spans. Only its own thread touches it until the run ends.
class ThreadTrace {
 public:
  explicit ThreadTrace(uint32_t tid) : tid_(tid) { spans_.reserve(1 << 12); }

  /// A root span starts a new request; a child joins its parent's.
  void Begin(const char* name);
  void End();

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // indexes of the spans not yet ended
};

/// Per-name aggregate: durations and self times (duration minus the time
/// its child spans cover), in nanoseconds.
struct SpanSummary {
  std::vector<int64_t> durations;
  std::vector<int64_t> self;
  int64_t total_ns() const;
  int64_t self_ns() const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A buffer for the calling thread (null when disabled). The tracer owns
  /// it; it stays valid for the tracer's lifetime.
  ThreadTrace* NewThread();

  /// Aggregates every span recorded so far, by name. Call once all
  /// recording threads have been joined.
  std::map<std::string, SpanSummary> Summarize() const;
  /// Writes every span as Chrome trace events (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;  // guarded by mu_
};

/// RAII span; a no-op when `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) trace_->Begin(name);
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
