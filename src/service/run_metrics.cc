#include "src/service/run_metrics.h"

#include <sstream>

#include "src/common/require.h"
#include "src/stats/table.h"

namespace wsync {

using telemetry::MetricClass;

RunMetricsCollector::RunMetricsCollector(telemetry::MetricsRegistry* registry)
    : registry_(registry) {
  WSYNC_REQUIRE(registry_ != nullptr, "metrics collector needs a registry");
}

void RunMetricsCollector::add_chunk(const std::string& scenario,
                                    size_t point_index,
                                    const PointResult& result) {
  Chunk& chunk = chunks_.emplace_back();
  chunk.scenario = scenario;
  chunk.point_index = point_index;
  registry_->counter("chunks_total", MetricClass::kDeterministic).add(1);
  for (size_t i = 0; i < kCountFields.size(); ++i) {
    const CountField& field = kCountFields[i];
    chunk.counts[i] = result.*field.member;
    if (field.metric == nullptr) continue;
    registry_
        ->counter(std::string(field.metric) + "_total",
                  field.engine_dependent ? MetricClass::kEngineDependent
                                         : MetricClass::kDeterministic)
        .add(chunk.counts[i]);
  }
}

std::string RunMetricsCollector::section_json(bool engine_dependent) const {
  std::ostringstream os;
  os << "{\n  \"totals\": ";
  registry_->write_class_json(os,
                              engine_dependent ? MetricClass::kEngineDependent
                                               : MetricClass::kDeterministic,
                              "  ");
  os << ",\n  \"chunks\": [";
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const Chunk& chunk = chunks_[c];
    os << (c == 0 ? "\n" : ",\n") << "    {\"scenario\": "
       << json_escaped(chunk.scenario) << ", \"chunk_index\": " << c;
    if (!engine_dependent) os << ", \"point_index\": " << chunk.point_index;
    for (size_t i = 0; i < kCountFields.size(); ++i) {
      const CountField& field = kCountFields[i];
      if (field.metric != nullptr &&
          field.engine_dependent == engine_dependent) {
        os << ", \"" << field.metric << "\": " << chunk.counts[i];
      }
    }
    os << "}";
  }
  os << (chunks_.empty() ? "" : "\n  ") << "]\n}";
  return os.str();
}

void RunMetricsCollector::write_json(std::ostream& out) const {
  out << "{\n\"schema\": \"wsync-metrics-v1\",\n\"deterministic\": "
      << deterministic_json() << ",\n\"engine\": " << engine_json()
      << ",\n\"timing\": ";
  registry_->write_class_json(out, MetricClass::kTiming);
  out << "\n}\n";
}

}  // namespace wsync
