#ifndef PERFBENCH_CORE_TRACE_H_
#define PERFBENCH_CORE_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed call into a layer, recorded from outside the engine: the
/// benchmark opens a span around each public call it makes.
struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // enclosing span on the same thread, -1 at top level
  int64_t op = -1;      // the op (request, query, step) the span belongs to
  std::string name;     // layer call, e.g. "exec.Run"
  std::string tag;      // op class, e.g. "groupby"; empty when untagged
  double start_us = 0;  // since the tracer was created
  double end_us = 0;

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder. Spans nest per thread: a span opened while
/// another is open on the same thread becomes its child. Recording is
/// thread-safe; spans are kept in memory and written out at exit.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span. A null tracer makes the scope a no-op, so untraced runs
  /// share the traced code path at the cost of one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name, int64_t op,
          std::string_view tag = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Every span closed so far, in closing order.
  std::vector<Span> spans() const;

  /// Writes the spans as a JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  int64_t next_id_ = 0;     // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

/// Microseconds of [start_us, end_us] NOT covered by any of `children`
/// (intervals clipped to the parent; overlapping children count once).
double SelfTimeUs(double start_us, double end_us,
                  std::vector<std::pair<double, double>> children);

/// Per-name (and per name+tag) duration and self-time samples.
struct SpanSummary {
  std::map<std::string, std::vector<double>> duration_us;
  std::map<std::string, std::vector<double>> self_us;
  /// Keyed "name|tag" for tagged spans.
  std::map<std::string, std::vector<double>> tagged_duration_us;
};

SpanSummary Summarize(const std::vector<Span>& spans);

/// Number of spans named `op_name` whose direct children's durations sum
/// to more than the span itself (plus `slack_us` of clock granularity).
/// Zero for sequential single-threaded ops.
int64_t OverfullOpSpans(const std::vector<Span>& spans,
                        const std::string& op_name, double slack_us = 1.0);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_TRACE_H_
