// In-memory span recorder for the benchmark's traced run.
//
// Every span has a name, a start, an end, a parent (-1 for a root) and the
// request it belongs to ("steady/r0/e17", "campaign/r2/Grid-3/s1/LDR"). Spans
// are appended to a vector while the run measures and written once, at the
// end, as Chrome trace-event JSON (opens offline in Perfetto or
// chrome://tracing). The untraced pass never constructs a Tracer; ScopedSpan
// on a null tracer is a single branch.
#ifndef LDR_PERFBENCH_SPANS_H_
#define LDR_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";  // string literal: spans never own their names
  int parent = -1;
  int request = -1;       // index into Tracer::requests()
  Clock::time_point start;
  Clock::time_point end;

  double Ms() const { return MsBetween(start, end); }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // Opens a root span for a new request starting at `start`.
  int BeginRoot(const char* name, std::string request_id,
                Clock::time_point start) {
    requests_.push_back(std::move(request_id));
    return Push(name, -1, static_cast<int>(requests_.size() - 1), start);
  }

  // Opens a child of `parent`, inheriting its request.
  int Begin(const char* name, int parent) {
    return Push(name, parent, spans_[static_cast<size_t>(parent)].request,
                Clock::now());
  }

  void End(int span, Clock::time_point end) {
    spans_[static_cast<size_t>(span)].end = end;
  }
  void End(int span) { End(span, Clock::now()); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& requests() const { return requests_; }

  // Chrome trace-event JSON: one complete ("X") event per span, timestamps
  // in microseconds since the tracer's origin. `metadata_json` must be a
  // JSON object; it is stored under "otherData". Returns false on I/O error.
  bool WriteChromeJson(const std::string& path,
                       const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n",
                 metadata_json.c_str());
    std::fprintf(f, "\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      double ts = std::chrono::duration<double, std::micro>(s.start - origin_)
                      .count();
      double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d, \"request\": \"%s\"}}%s\n",
                   s.name, ts, dur, i, s.parent,
                   requests_[static_cast<size_t>(s.request)].c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int Push(const char* name, int parent, int request,
           Clock::time_point start) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.start = start;
    s.end = start;
    spans_.push_back(s);
    return static_cast<int>(spans_.size() - 1);
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> requests_;
};

// A child span for the enclosing scope; does nothing without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // LDR_PERFBENCH_SPANS_H_
