#include "trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

namespace servebench {

void ThreadTrace::Begin(const char* name) {
  static std::atomic<uint64_t> next_request{0};
  Span s;
  s.name = name;
  s.parent = open_.empty() ? 0 : open_.back() + 1;
  s.request = open_.empty() ? next_request.fetch_add(1) + 1
                            : spans_[open_.back()].request;
  open_.push_back(static_cast<uint32_t>(spans_.size()));
  spans_.push_back(s);
  spans_.back().start_ns = NowNs();
}

void ThreadTrace::End() {
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

int64_t SpanSummary::total_ns() const {
  int64_t t = 0;
  for (const int64_t d : durations) t += d;
  return t;
}

int64_t SpanSummary::self_ns() const {
  int64_t t = 0;
  for (const int64_t d : self) t += d;
  return t;
}

ThreadTrace* Tracer::NewThread() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(
      std::make_unique<ThreadTrace>(static_cast<uint32_t>(threads_.size())));
  return threads_.back().get();
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanSummary> out;
  for (const auto& t : threads_) {
    const std::vector<Span>& spans = t->spans();
    // Children of one span run on its thread, one after another, inside
    // it: the time they cover is the sum of their durations.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& sum = out[spans[i].name];
      const int64_t d = spans[i].end_ns - spans[i].start_ns;
      sum.durations.push_back(d);
      sum.self.push_back(d - child_ns[i]);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const auto& t : threads_) {
    for (const Span& s : t->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& t : threads_) {
    const std::vector<Span>& spans = t->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                   "\"parent\":%u,\"request\":%llu}}",
                   first ? "" : ",\n", s.name, t->tid(),
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                   s.parent, static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace servebench
