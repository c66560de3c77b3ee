#include "perfbench/cpp/workloads.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "perfbench/cpp/decorators.h"
#include "src/common/thread_pool.h"
#include "src/experiment/sweep.h"
#include "src/radio/engine.h"
#include "src/scenario/registry.h"
#include "src/scenario/report.h"
#include "src/service/checkpoint.h"
#include "src/service/streaming_sweep.h"

namespace perfbench {

namespace {

using wsync::ExperimentPoint;
using wsync::PlannedScenario;
using wsync::PointResult;
using wsync::RunOutcome;
using wsync::RunSpec;

/// FNV-1a over `key=value;` records (the checkpoint codec's hash).
class Digest {
 public:
  void add(const std::string& key, int64_t value) {
    hash_ = wsync::fnv1a64(key + "=" + std::to_string(value) + ";", hash_);
  }
  void add_text(const std::string& text) {
    add("bytes", static_cast<int64_t>(text.size()));
    hash_ = wsync::fnv1a64(text, hash_);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325;
};

SpanRecorder* recorder(Tracer* tracer) {
  return tracer == nullptr ? nullptr : &tracer->spans;
}

// --- catalog_sweep ---------------------------------------------------------

/// Deterministic totals over a catalog's point aggregates.
struct CatalogTotals {
  int64_t runs = 0;
  int64_t timeouts = 0;
  int64_t rounds = 0;
  int64_t awake = 0;
  int64_t wake_events_popped = 0;
  int64_t fast_forwarded_rounds = 0;
  int64_t deliveries = 0;
  int64_t collisions = 0;

  void add(const PointResult& r) {
    runs += r.runs;
    timeouts += r.timeout_runs;
    rounds += r.rounds_simulated;
    awake += r.broadcast_rounds + r.listen_rounds;
    wake_events_popped += r.wake_events_popped;
    fast_forwarded_rounds += r.fast_forwarded_rounds;
    deliveries += r.deliveries;
    collisions += r.collisions;
  }
};

/// The benchmark's own sink: feeds the streaming JSON/CSV writers and, when
/// observing, stamps every chunk delivery and spans every writer call.
class CatalogSink final : public wsync::ChunkSink {
 public:
  void reset(wsync::StreamingJsonWriter* json, wsync::StreamingCsvWriter* csv,
             SpanRecorder* spans, int64_t parent) {
    json_ = json;
    csv_ = csv;
    spans_ = spans;
    parent_ = parent;
    totals_ = {};
    deliveries_ns_.clear();
  }

  void on_scenario_begin(size_t /*scenario_index*/,
                         const PlannedScenario& /*planned*/) override {}

  void on_chunk(size_t /*scenario_index*/, size_t /*point_index*/,
                const PointResult& /*result*/,
                bool /*from_checkpoint*/) override {
    if (spans_ != nullptr) deliveries_ns_.push_back(now_ns());
  }

  void on_scenario_end(size_t /*scenario_index*/,
                       const PlannedScenario& planned,
                       const std::vector<PointResult>& results,
                       const std::vector<std::string>& failures) override {
    for (const PointResult& result : results) totals_.add(result);
    ScopedSpan span(spans_, "scenario.writer", parent_);
    json_->add_scenario(planned.scenario, planned.seeds, results, failures);
    csv_->add(planned.scenario, results);
  }

  const CatalogTotals& totals() const { return totals_; }
  const std::vector<int64_t>& deliveries_ns() const { return deliveries_ns_; }

 private:
  wsync::StreamingJsonWriter* json_ = nullptr;
  wsync::StreamingCsvWriter* csv_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  int64_t parent_ = -1;
  CatalogTotals totals_;
  std::vector<int64_t> deliveries_ns_;
};

/// Every catalog scenario at its default seeds through run_streaming_sweep
/// on a 2-worker pool, checkpointed, exported through the streaming
/// writers. The sweep derives its run seeds itself (make_seeds), so the
/// seed argument is ignored.
class CatalogSweep final : public Workload {
 public:
  static constexpr int kWorkers = 2;

  explicit CatalogSweep(const std::string& out_dir)
      : checkpoint_path_(out_dir + "/catalog_sweep.ck") {}

  bool uses_seed() const override { return false; }
  int busy_threads() const override { return kWorkers; }

  void setup(uint64_t /*seed*/, Tracer* tracer) override {
    SpanRecorder* spans = recorder(tracer);
    const int64_t parent = tracer == nullptr ? -1 : tracer->setup;
    std::vector<const wsync::Scenario*> selected;
    {
      ScopedSpan span(spans, "scenario.registry", parent);
      for (const wsync::Scenario& s : wsync::ScenarioRegistry::all()) {
        selected.push_back(&s);
      }
    }
    {
      ScopedSpan span(spans, "service.make_plan", parent);
      plan_ = wsync::make_plan(selected, 0);
    }
    {
      ScopedSpan span(spans, "thread_pool.spawn", parent);
      pool_ = std::make_unique<wsync::ThreadPool>(kWorkers);
    }
    {
      ScopedSpan span(spans, "service.checkpoint_open", parent);
      checkpoint_ = std::make_unique<wsync::CheckpointWriter>(
          checkpoint_path_, wsync::plan_fingerprint(plan_), false);
      if (!checkpoint_->ok()) {
        throw std::runtime_error("cannot open " + checkpoint_path_);
      }
    }
    json_text_ = std::make_unique<std::ostringstream>();
    csv_text_ = std::make_unique<std::ostringstream>();
    json_ = std::make_unique<wsync::StreamingJsonWriter>(*json_text_);
    csv_ = std::make_unique<wsync::StreamingCsvWriter>(*csv_text_);
    redrive_digests_.clear();
  }

  void run(Tracer* tracer) override {
    if (tracer == nullptr) {
      sweep(nullptr, -1);
      return;
    }
    SpanRecorder* spans = &tracer->spans;
    {
      ScopedSpan span(spans, "service.run_streaming_sweep", tracer->root);
      const Interval sweep_time;
      sweep(spans, span.id());
      const double sweep_s = sweep_time.wall_s();
      span.close();
      observe_sweep(sweep_time.start_ns(), sweep_s, tracer);
    }
    {
      ScopedSpan span(spans, "sync.redrive_untraced", tracer->root);
      const Interval plain;
      redrive_digests_.push_back(redrive(nullptr, -1));
      tracer->plain_wall_s = plain.wall_s();
    }
    ScopedSpan iteration(spans, "iteration", tracer->root);
    redrive_digests_.push_back(redrive(spans, iteration.id()));
  }

  Outcome check() override {
    Outcome out;
    if (sweep_.failed_scenarios != 0) {
      out.failures.push_back(std::to_string(sweep_.failed_scenarios) +
                             " scenario(s) failed their expectations");
    }
    if (sweep_.computed_chunks != plan_.chunk_count()) {
      out.failures.push_back("computed " +
                             std::to_string(sweep_.computed_chunks) + " of " +
                             std::to_string(plan_.chunk_count()) + " chunks");
    }
    Digest digest;
    digest.add_text(json_text_->str());
    digest.add_text(csv_text_->str());
    out.digest = digest.value();
    for (uint64_t redriven : redrive_digests_) {
      if (redriven != out.digest) {
        out.failures.push_back(
            "re-driven run_sync_experiment exports differ from the sweep's");
      }
    }
    const CatalogTotals& t = sink_.totals();
    out.rounds = t.rounds;
    out.awake_node_rounds = t.awake;
    out.counts = {
        {"sync.runs", static_cast<double>(t.runs)},
        {"sync.timeouts", static_cast<double>(t.timeouts)},
        {"service.chunks", static_cast<double>(plan_.chunk_count())},
        {"radio.rounds", static_cast<double>(t.rounds)},
        {"radio.awake_node_rounds", static_cast<double>(t.awake)},
        {"radio.wake_events_popped", static_cast<double>(t.wake_events_popped)},
        {"radio.fast_forwarded_rounds",
         static_cast<double>(t.fast_forwarded_rounds)},
        {"radio.deliveries", static_cast<double>(t.deliveries)},
        {"radio.collisions", static_cast<double>(t.collisions)},
    };
    return out;
  }

  /// Also deletes the checkpoint, so every setup creates a fresh file like a
  /// new `wsync_run --checkpoint` job. Truncating the previous one instead
  /// waits on its writeback and made setup_s several times noisier.
  void teardown() override {
    json_.reset();
    csv_.reset();
    checkpoint_.reset();
    std::filesystem::remove(checkpoint_path_);
    pool_.reset();
  }

 private:
  void sweep(SpanRecorder* spans, int64_t parent) {
    sink_.reset(json_.get(), csv_.get(), spans, parent);
    wsync::StreamingSweepOptions options;
    options.checkpoint = checkpoint_.get();
    sweep_ = wsync::run_streaming_sweep(plan_, *pool_, options, sink_);
    json_->finish();
  }

  /// Pool, service and writer figures of the sweep just run.
  void observe_sweep(int64_t start_ns, double sweep_s, Tracer* tracer) {
    const wsync::ThreadPool::Stats stats = pool_->stats();
    std::vector<double> gaps_ms;
    int64_t previous = start_ns;
    for (int64_t at : sink_.deliveries_ns()) {
      gaps_ms.push_back(static_cast<double>(at - previous) / 1e6);
      previous = at;
    }
    tracer->layers["thread_pool.utilization"] =
        static_cast<double>(stats.busy_nanos) / 1e9 /
        (static_cast<double>(stats.workers) * sweep_s);
    tracer->layers["thread_pool.tasks_stolen"] =
        static_cast<double>(stats.tasks_stolen);
    tracer->layers["thread_pool.peak_pending"] =
        static_cast<double>(stats.peak_pending);
    tracer->layers["thread_pool.task_wall_s"] =
        static_cast<double>(stats.busy_nanos) / 1e9;
    tracer->layers["service.chunk_gap_ms_p50"] = percentile(gaps_ms, 0.5);
    tracer->layers["service.chunk_gap_ms_p90"] = percentile(gaps_ms, 0.9);
    tracer->layers["service.checkpoint_bytes"] =
        static_cast<double>(std::filesystem::file_size(checkpoint_path_));
    tracer->layers["scenario.export_bytes"] = static_cast<double>(
        json_text_->str().size() + csv_text_->str().size());
  }

  /// The sweep's (point, seed) tasks again, chunk by chunk on the same
  /// pool through run_sync_experiment — decorated and spanned when `spans`
  /// is set. Returns the digest of the exports its aggregates render.
  uint64_t redrive(SpanRecorder* spans, int64_t parent) {
    std::ostringstream json_text;
    std::ostringstream csv_text;
    {
      wsync::StreamingJsonWriter json(json_text);
      wsync::StreamingCsvWriter csv(csv_text);
      for (const PlannedScenario& planned : plan_.scenarios) {
        const std::vector<uint64_t> seeds = wsync::make_seeds(planned.seeds);
        std::vector<PointResult> results;
        for (const ExperimentPoint& point : planned.scenario.grid) {
          ScopedSpan chunk(spans, "chunk", parent);
          RunSpec spec;
          {
            ScopedSpan span(spans, "experiment.make_run_spec", chunk.id());
            spec = wsync::make_run_spec(point);
          }
          std::vector<RunOutcome> outcomes(seeds.size());
          std::vector<LayerCounters> counters(seeds.size());
          wsync::parallel_for(*pool_, seeds.size(), [&](size_t i) {
            ScopedSpan task(spans, "sync.task", chunk.id());
            RunSpec seeded =
                spans == nullptr ? spec : decorate(spec, &counters[i]);
            seeded.sim.seed = seeds[i];
            outcomes[i] = wsync::run_sync_experiment(seeded);
            task.close(spans == nullptr ? nullptr : &counters[i]);
          });
          ScopedSpan span(spans, "experiment.aggregate", chunk.id());
          results.push_back(wsync::aggregate_point(point, outcomes));
        }
        json.add_scenario(planned.scenario, planned.seeds, results,
                          wsync::check_expectations(planned.scenario, results));
        csv.add(planned.scenario, results);
      }
      json.finish();
    }
    Digest digest;
    digest.add_text(json_text.str());
    digest.add_text(csv_text.str());
    return digest.value();
  }

  std::string checkpoint_path_;
  wsync::SweepPlan plan_;
  std::unique_ptr<wsync::ThreadPool> pool_;
  std::unique_ptr<wsync::CheckpointWriter> checkpoint_;
  std::unique_ptr<std::ostringstream> json_text_;
  std::unique_ptr<std::ostringstream> csv_text_;
  std::unique_ptr<wsync::StreamingJsonWriter> json_;
  std::unique_ptr<wsync::StreamingCsvWriter> csv_;
  CatalogSink sink_;
  wsync::SweepOutcome sweep_;
  std::vector<uint64_t> redrive_digests_;
};

// --- dutycycle_sync / drift_hold ---------------------------------------------

/// One large duty-cycled population built from an ExperimentPoint through
/// make_run_spec and driven by Simulation::run_until_synced (no verifier),
/// then optionally held for `maintenance_rounds` by run_maintenance.
class PopulationRun final : public Workload {
 public:
  PopulationRun(ExperimentPoint point, wsync::RoundId maintenance_rounds,
                bool expect_agreement)
      : point_(std::move(point)),
        maintenance_rounds_(maintenance_rounds),
        expect_agreement_(expect_agreement) {}

  bool uses_seed() const override { return true; }
  int busy_threads() const override { return 1; }

  void setup(uint64_t seed, Tracer* tracer) override {
    SpanRecorder* spans = recorder(tracer);
    const int64_t parent = tracer == nullptr ? -1 : tracer->setup;
    {
      ScopedSpan span(spans, "experiment.make_run_spec", parent);
      spec_ = wsync::make_run_spec(point_);
    }
    spec_.sim.seed = seed;
    counters_ = {};
    if (tracer != nullptr) spec_ = decorate(spec_, &counters_);
    ScopedSpan span(spans, "radio.ctor", parent);
    sim_ = std::make_unique<wsync::Simulation>(spec_.sim, spec_.factory,
                                               spec_.make_adversary(),
                                               spec_.make_activation());
  }

  void run(Tracer* tracer) override {
    SpanRecorder* spans = recorder(tracer);
    const LayerCounters* counters = tracer == nullptr ? nullptr : &counters_;
    ScopedSpan iteration(spans, "iteration",
                         tracer == nullptr ? -1 : tracer->root);
    ScopedSpan task(spans, "task", iteration.id());
    {
      ScopedSpan phase(spans, "radio.run_until_synced", task.id());
      synced_ = sim_->run_until_synced(spec_.max_rounds);
      phase.close(counters);
      counters_ = {};
    }
    if (maintenance_rounds_ > 0) {
      ScopedSpan phase(spans, "radio.run_maintenance", task.id());
      maintenance_ = sim_->run_maintenance(maintenance_rounds_, -1);
      phase.close(counters);
      counters_ = {};
    }
  }

  Outcome check() override {
    Outcome out;
    if (!synced_.synced) {
      out.failures.push_back("not synchronized within " +
                             std::to_string(spec_.max_rounds) + " rounds");
    }
    if (maintenance_rounds_ > 0) {
      if (maintenance_.rounds != maintenance_rounds_) {
        out.failures.push_back("maintenance ran " +
                               std::to_string(maintenance_.rounds) + " rounds");
      }
      if (!sim_->all_synced()) {
        out.failures.push_back("a node lost its numbering in maintenance");
      }
    }
    if (expect_agreement_ && synced_.synced) {
      std::optional<int64_t> number;
      for (wsync::NodeId id = 0; id < spec_.sim.n; ++id) {
        if (!sim_->is_active(id) || sim_->is_crashed(id)) continue;
        const int64_t value = sim_->output(id).value;
        if (number.has_value() && *number != value) {
          out.failures.push_back("agreement: nodes output " +
                                 std::to_string(*number) + " and " +
                                 std::to_string(value));
          break;
        }
        number = value;
      }
    }
    const wsync::RunEnergy energy = sim_->energy().totals();
    Digest digest;
    digest.add("synced", synced_.synced ? 1 : 0);
    digest.add("sync_rounds", synced_.rounds);
    digest.add("rounds", sim_->round());
    digest.add("ledger_rounds", energy.rounds);
    digest.add("max_awake_rounds", energy.max_awake_rounds);
    digest.add("broadcast_rounds", energy.broadcast_rounds);
    digest.add("listen_rounds", energy.listen_rounds);
    digest.add("sleep_rounds", energy.sleep_rounds);
    digest.add("active_node_rounds", energy.active_node_rounds);
    digest.add("deliveries", sim_->deliveries_total());
    digest.add("collisions", sim_->collisions_total());
    digest.add("absences", sim_->absences_total());
    digest.add("wake_events_popped", sim_->wake_events_popped());
    digest.add("fast_forwarded_rounds", sim_->fast_forwarded_rounds());
    if (maintenance_rounds_ > 0) {
      digest.add("maintenance_rounds", maintenance_.rounds);
      digest.add("max_offset_seen", maintenance_.max_offset_seen);
      digest.add("offset_violations", maintenance_.offset_violations);
      digest.add("resync_count", maintenance_.resync_count);
    }
    out.digest = digest.value();
    out.rounds = sim_->round();
    out.awake_node_rounds = energy.broadcast_rounds + energy.listen_rounds;
    out.counts = {
        {"radio.rounds", static_cast<double>(sim_->round())},
        {"radio.awake_node_rounds",
         static_cast<double>(out.awake_node_rounds)},
        {"radio.wake_events_popped",
         static_cast<double>(sim_->wake_events_popped())},
        {"radio.fast_forwarded_rounds",
         static_cast<double>(sim_->fast_forwarded_rounds())},
        {"radio.deliveries", static_cast<double>(sim_->deliveries_total())},
        {"radio.collisions", static_cast<double>(sim_->collisions_total())},
    };
    return out;
  }

  void teardown() override {
    sim_.reset();
    synced_ = {};
    maintenance_ = {};
  }

 private:
  ExperimentPoint point_;
  wsync::RoundId maintenance_rounds_;
  bool expect_agreement_;
  RunSpec spec_;
  LayerCounters counters_;
  std::unique_ptr<wsync::Simulation> sim_;
  wsync::Simulation::RunResult synced_;
  wsync::Simulation::MaintenanceReport maintenance_;
};

/// BKO regime: F = 8, t = 2, N = n = 10^4, all awake at round 0. The
/// ~15 MB process is past the per-core L2 but small enough to stay steady
/// on a shared host; at 3 x 10^4 and 10^5 run-to-run spread on the shared
/// L3 exceeded every usable bound (perfbench/DESIGN.md).
ExperimentPoint dutycycle_sync_point() {
  ExperimentPoint point;
  point.protocol = wsync::ProtocolKind::kDutyCycle;
  point.F = 8;
  point.t = 2;
  point.N = 10000;
  point.n = 10000;
  point.adversary = wsync::AdversaryKind::kRandomSubset;
  point.activation = wsync::ActivationKind::kSimultaneous;
  return point;
}

/// The drift_hold_dutycycle scenario's shape at N = n = 10^4.
ExperimentPoint drift_hold_point() {
  ExperimentPoint point;
  point.protocol = wsync::ProtocolKind::kDutyCycle;
  point.F = 16;
  point.t = 4;
  point.N = 10000;
  point.n = 10000;
  point.adversary = wsync::AdversaryKind::kRandomSubset;
  point.activation = wsync::ActivationKind::kStaggeredUniform;
  point.activation_window = 32;
  point.drift_ppm = 50;
  point.resync_awake_slots = 8;
  return point;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"catalog_sweep", "dutycycle_sync", "drift_hold"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& out_dir) {
  if (name == "catalog_sweep") return std::make_unique<CatalogSweep>(out_dir);
  if (name == "dutycycle_sync") {
    return std::make_unique<PopulationRun>(dutycycle_sync_point(), 0, true);
  }
  if (name == "drift_hold") {
    return std::make_unique<PopulationRun>(drift_hold_point(), 2000, false);
  }
  return nullptr;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

}  // namespace perfbench
