#include "spans.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(const char* name, int row) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.row = row;
  span.start_ns = Now();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  const std::int64_t now = Now();
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
    std::abort();
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

double SpanRecorder::TotalSeconds(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::int64_t SpanRecorder::FirstStartNs(std::string_view name) const {
  for (const Span& s : spans_) {
    if (name == s.name) return s.start_ns;
  }
  std::fprintf(stderr, "perfbench: no span named %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

std::map<std::string, LayerTotals> SpanRecorder::LayerSelfTimes() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, LayerTotals> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name(spans_[i].name);
    LayerTotals& t = layers[std::string(name.substr(0, name.find('.')))];
    t.self_s += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                    child_ns[i]) *
                1e-9;
    ++t.count;
  }
  return layers;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"row\":%d}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.row);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
