// Span recording and the small statistics helpers of the end-to-end
// benchmark. A traced run opens one span per call the benchmark makes into a
// layer (compute, gles2), nested under one span per op; spans stay in memory
// and are written out at the end as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open directly.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; 0 for an
// empty set. p50 of {1, 2, 3, 4} is 2.5.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// 64-bit FNV-1a, chained through `h`.
inline std::uint64_t Fnv64(const void* data, std::size_t n,
                           std::uint64_t h = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Span {
  const char* name = "";  // layer.call, or "op"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
  std::uint64_t op = 0;  // op index shared by every span of one op
};

// Self time of each span: its duration minus the durations of its direct
// children. Spans come from one thread, so siblings never overlap.
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  void SetOp(std::uint64_t op) { op_ = op; }

  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_;
    s.op = op_;
    s.start_ns = Now();
    spans_.push_back(s);
    open_ = static_cast<int>(spans_.size() - 1);
    return open_;
  }
  void End(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = Now();
    open_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Total milliseconds and self milliseconds per span name.
  struct Total {
    double ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Total> Totals() const {
    std::map<std::string, Total> out;
    const std::vector<std::int64_t> self = SelfTimes(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Total& t = out[spans_[i].name];
      t.ms += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
      t.self_ms += static_cast<double>(self[i]) * 1e-6;
      ++t.count;
    }
    return out;
  }

  // Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  // complete events, microsecond timestamps). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path, const std::string& process,
                        std::size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
                 process.c_str());
    const std::size_t n = std::min(max_spans, spans_.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"op\": %llu}}",
                   s.name, name.substr(0, name.find('.')).c_str(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
  }

 private:
  [[nodiscard]] std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
  std::uint64_t op_ = 0;
};

// Opens a span for its lifetime; does nothing (not even a clock read) when
// the tracer is null, which is how the untraced run stays unperturbed.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
