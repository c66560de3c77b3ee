#include "perfbench/cpp/spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/telemetry/trace_writer.h"

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string micros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

int64_t SpanRecorder::begin(const std::string& name, int64_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.tid = thread_index();
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::end(int64_t id, const LayerCounters* counters) {
  const int64_t end_ns = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_.at(static_cast<size_t>(id));
  span.end_ns = end_ns;
  if (counters != nullptr) {
    span.has_counters = true;
    span.counters = *counters;
  }
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

SpanAnalysis analyze(const std::vector<Span>& spans) {
  SpanAnalysis out;
  out.covered_s.assign(spans.size(), 0.0);
  out.self_s.assign(spans.size(), 0.0);

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }

  std::map<std::string, size_t> row_of;
  auto row = [&](const std::string& layer) -> LayerRow& {
    const auto [it, fresh] = row_of.emplace(layer, out.rows.size());
    if (fresh) out.rows.push_back(LayerRow{layer});
    return out.rows[it->second];
  };

  LayerCounters calls;
  for (const Span& span : spans) {
    auto& kids = children[static_cast<size_t>(span.id)];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, span.end_ns);
      if (to > from) covered += to - from;
      cursor = std::max(cursor, to);
    }
    const double covered_s = static_cast<double>(covered) / 1e9;
    const double decorated_s = span.has_counters ? span.counters.total_s() : 0;
    const double self_s = span.seconds() - covered_s - decorated_s;
    out.covered_s[static_cast<size_t>(span.id)] = covered_s;
    out.self_s[static_cast<size_t>(span.id)] = self_s;

    LayerRow& r = row(span.name);
    ++r.calls;
    r.total_s += span.seconds();
    r.self_s += self_s;
    if (span.has_counters) calls.merge(span.counters);
  }

  auto call_row = [&](const char* layer, const CallStat& stat) {
    LayerRow& r = row(layer);
    r.calls += stat.calls;
    r.total_s += stat.seconds();
    r.self_s += stat.seconds();
  };
  call_row("protocol.on_activate", calls.on_activate);
  call_row("protocol.act", calls.act);
  call_row("protocol.on_round_end", calls.on_round_end);
  call_row("protocol.skip_rounds", calls.skip_rounds);
  call_row("protocol.observer", calls.observer);
  call_row("adversary.disrupt", calls.disrupt);
  call_row("activation.activations", calls.activations);
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot write trace file " + path);
  wsync::telemetry::ChromeTraceWriter writer(file);
  writer.write_event(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"perfbench\"}}");
  for (const Span& span : spans) {
    std::string args = "\"id\": " + std::to_string(span.id) +
                       ", \"parent\": " + std::to_string(span.parent);
    if (span.has_counters) args += ", " + span.counters.json_members();
    writer.write_event("{\"name\": \"" + span.name +
                       "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": " +
                       micros(span.start_ns) +
                       ", \"dur\": " + micros(span.end_ns - span.start_ns) +
                       ", \"pid\": 1, \"tid\": " + std::to_string(span.tid) +
                       ", \"args\": {" + args + "}}");
  }
  writer.close();
  if (!file) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
