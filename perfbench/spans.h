// In-memory span recorder for the host-performance benchmark.
//
// A span is one timed call into a simulator layer, made from the
// benchmark's own code: name ("<layer>.<what>"), start and end on the host
// steady clock, the span that was open when it began (its parent) and the
// row it belongs to. Spans nest strictly (Begin/End follow a stack), so a
// span's self time is its duration minus the durations of its direct
// children, and the self times of all spans of a row add up to the row's
// wall time exactly.
//
// Nothing is written while the workload runs; WriteJsonl dumps the spans
// once at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // static string, "<layer>.<what>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the recorder's spans, -1 = root
  std::int32_t row = 0;
};

struct LayerTotals {
  double self_s = 0.0;
  std::uint64_t count = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // Opens a span under the innermost open span; returns its index.
  int Begin(const char* name, int row);
  // Closes span `id`, which must be the innermost open span.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration of every span called `name`.
  double TotalSeconds(std::string_view name) const;
  // Start of the first span called `name` (ns since the recorder's epoch).
  std::int64_t FirstStartNs(std::string_view name) const;

  // Self time and span count per layer (the name up to its first '.').
  std::map<std::string, LayerTotals> LayerSelfTimes() const;

  // One JSON object per line: name, start_ns, end_ns, parent, row.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int row)
      : recorder_(recorder), id_(recorder.Begin(name, row)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
