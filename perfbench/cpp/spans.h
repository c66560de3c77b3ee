// In-memory span recording for the traced benchmark run.
//
// A span is (name, start, end, parent, thread) around one call into a
// layer, taken from the benchmark's own code. Decorator counters ride on
// the span of the task or phase that made the calls instead of becoming one
// span per call. Spans are kept in memory and written once, at the end, as
// Chrome trace events through telemetry::ChromeTraceWriter.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/cpp/decorators.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root
  int tid = 0;          ///< small per-thread index (0 = first thread seen)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool has_counters = false;
  LayerCounters counters;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Thread-safe span store.
class SpanRecorder {
 public:
  /// Opens a span now; returns its id.
  int64_t begin(const std::string& name, int64_t parent);
  /// Closes span `id` now, attaching `counters` when given.
  void end(int64_t id, const LayerCounters* counters = nullptr);

  std::vector<Span> spans() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t parent)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->begin(name, parent)) {}
  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void close(const LayerCounters* counters = nullptr) {
    if (recorder_ != nullptr && !closed_) recorder_->end(id_, counters);
    closed_ = true;
  }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
  bool closed_ = false;
};

/// One row of the per-layer table: every span (or decorated method) of one
/// name. Self time is the span's duration minus the part of it covered by
/// child spans, minus the decorated calls counted on it.
struct LayerRow {
  std::string layer;
  int64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};

struct SpanAnalysis {
  std::vector<LayerRow> rows;  ///< spans first (by first start), then calls
  /// Per span id: seconds covered by its child spans (interval union).
  std::vector<double> covered_s;
  /// Per span id: self seconds.
  std::vector<double> self_s;
};

SpanAnalysis analyze(const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace-event JSON array.
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
