// perfbench: the repo benchmark's harness binary. perfbench/run.py builds it
// and runs it once per workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//
// --trace 0 repeats setup -> run -> check until --seconds have passed, with
// a host-probe pass between iterations, and reports the end-to-end metrics
// as medians over iterations in reference seconds (probe.h). --trace 1
// alternates an untraced and a traced iteration (decorated interfaces,
// in-memory spans), reports the per-layer metrics of the last traced
// iteration, prints the per-layer table and writes the spans as a Chrome
// trace to <dir>/<workload>.trace.json. The last stdout line is one JSON
// object for run.py.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/cpp/measure.h"
#include "perfbench/cpp/probe.h"
#include "perfbench/cpp/spans.h"
#include "perfbench/cpp/workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Times are reported in reference seconds (perfbench/cpp/probe.h), scaled
/// by the host probe timed beside them so that most of the shared host's
/// speed drift cancels; the raw seconds are printed in the human summary.
constexpr MetricDef kEndToEnd[] = {
    {"wall_ref_s", "s"},
    {"cpu_ref_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_rounds_per_ref_s", "1/s"},
    {"awake_node_rounds_per_ref_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"thread_pool.utilization", "ratio"},
    {"thread_pool.tasks_stolen", "count"},
    {"thread_pool.peak_pending", "count"},
    {"thread_pool.task_wall_s", "s"},
    {"service.chunks", "count"},
    {"service.chunk_gap_ms_p50", "ms"},
    {"service.chunk_gap_ms_p90", "ms"},
    {"service.checkpoint_bytes", "bytes"},
    {"scenario.writer_ms", "ms"},
    {"scenario.export_bytes", "bytes"},
    {"experiment.make_run_spec_ms", "ms"},
    {"experiment.aggregate_ms", "ms"},
    {"sync.runs", "count"},
    {"sync.timeouts", "count"},
    {"sync.task_ms_p50", "ms"},
    {"sync.task_ms_p98", "ms"},
    {"sync.task_ms_max", "ms"},
    {"sync.task_self_s", "s"},
    {"radio.ctor_ms", "ms"},
    {"radio.self_s", "s"},
    {"radio.ns_per_awake_node_round", "ns"},
    {"radio.rounds", "count"},
    {"radio.awake_node_rounds", "count"},
    {"radio.wake_events_popped", "count"},
    {"radio.fast_forwarded_rounds", "count"},
    {"radio.deliveries", "count"},
    {"radio.collisions", "count"},
    {"protocol.act_calls", "count"},
    {"protocol.act_s", "s"},
    {"protocol.on_round_end_calls", "count"},
    {"protocol.on_round_end_s", "s"},
    {"protocol.on_activate_calls", "count"},
    {"protocol.on_activate_s", "s"},
    {"protocol.skip_rounds_calls", "count"},
    {"protocol.skipped_rounds", "count"},
    {"protocol.skip_rounds_s", "s"},
    {"protocol.observer_calls", "count"},
    {"protocol.observer_s", "s"},
    {"adversary.disrupt_calls", "count"},
    {"adversary.disrupt_s", "s"},
    {"activation.calls", "count"},
    {"activation.busy_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

/// Setup is cheap next to a run and its time is dominated by system calls
/// (thread spawn, file create, large allocations), so it is repeated on its
/// own after every iteration, spreading the samples over the whole run, and
/// topped up to a minimum sample count at the end.
constexpr int kSetupsPerIteration = 16;
constexpr size_t kMinSetupSamples = 51;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Everything one harness invocation measured.
struct Report {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::set<uint64_t> digests;
  Outcome reference;  ///< the first correct iteration's outcome
  bool have_reference = false;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  /// Host-probe seconds beside each wall_s sample (same index): the mean
  /// of the passes just before and just after the iteration.
  std::vector<double> probe_s;
  /// Every probe pass of the run, for scaling the setup_s samples.
  std::vector<double> probe_passes;

  void fail(const std::string& why) {
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// setup -> run -> check -> teardown once, timing setup and run.
/// Returns the run's wall seconds (or -1 when the iteration threw).
double iterate(Workload& workload, const Args& args, Tracer* tracer,
               Report* report) {
  ++report->attempted;
  double wall = -1;
  try {
    if (tracer != nullptr) {
      tracer->spans.clear();
      tracer->layers.clear();
      tracer->plain_wall_s = -1;
      tracer->root = tracer->spans.begin("workload." + args.workload, -1);
      tracer->setup = tracer->spans.begin("setup", tracer->root);
    }
    const Interval setup;
    workload.setup(args.seed, tracer);
    report->setup_s.push_back(setup.wall_s());
    if (tracer != nullptr) tracer->spans.end(tracer->setup);

    const Interval body;
    workload.run(tracer);
    wall = body.wall_s();
    const double cpu = body.cpu_s();
    if (tracer != nullptr) tracer->spans.end(tracer->root);

    Outcome outcome = workload.check();
    workload.teardown();
    report->digests.insert(outcome.digest);
    if (report->have_reference && outcome.digest != report->reference.digest) {
      outcome.failures.push_back("digest differs between iterations");
    }
    if (outcome.failures.empty()) {
      report->wall_s.push_back(wall);
      report->cpu_s.push_back(cpu);
      if (!report->have_reference) {
        report->reference = outcome;
        report->have_reference = true;
      }
    } else {
      ++report->failed;
      for (const std::string& why : outcome.failures) report->fail(why);
    }
  } catch (const std::exception& e) {
    ++report->failed;
    report->fail(std::string("threw: ") + e.what());
    workload.teardown();
  }
  return wall;
}

double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

/// Per-layer metrics of the traced iteration held in `tracer`.
std::map<std::string, double> layer_metrics(const Tracer& tracer,
                                            const Outcome& outcome,
                                            double overhead_frac) {
  std::map<std::string, double> m;
  for (const MetricDef& def : kPerLayer) m[def.name] = 0.0;
  for (const auto& [name, value] : outcome.counts) m[name] = value;
  for (const auto& [name, value] : tracer.layers) m[name] = value;

  const std::vector<Span> spans = tracer.spans.spans();
  const SpanAnalysis analysis = analyze(spans);
  std::map<std::string, LayerRow> rows;
  for (const LayerRow& row : analysis.rows) rows[row.layer] = row;

  m["experiment.make_run_spec_ms"] = rows["experiment.make_run_spec"].total_s * 1e3;
  m["experiment.aggregate_ms"] = rows["experiment.aggregate"].total_s * 1e3;
  m["scenario.writer_ms"] = rows["scenario.writer"].total_s * 1e3;
  m["radio.ctor_ms"] = rows["radio.ctor"].total_s * 1e3;

  std::vector<double> task_ms;
  LayerCounters calls;
  for (const Span& span : spans) {
    if (span.name == "sync.task") task_ms.push_back(span.seconds() * 1e3);
    if (span.has_counters) calls.merge(span.counters);
  }
  if (!task_ms.empty()) {
    m["sync.task_ms_p50"] = percentile(task_ms, 0.5);
    m["sync.task_ms_p98"] = percentile(task_ms, 0.98);
    m["sync.task_ms_max"] = percentile(task_ms, 1.0);
    m["sync.task_self_s"] = rows["sync.task"].self_s;
  }
  // The engine is reachable from outside only through run_until_synced and
  // run_maintenance; inside a catalog task it runs under the opaque
  // run_sync_experiment, so there radio.self_s is the task's self time
  // (engine + runner loop + verifier).
  const double engine_self = rows["radio.run_until_synced"].self_s +
                             rows["radio.run_maintenance"].self_s;
  m["radio.self_s"] = rows.count("radio.run_until_synced") > 0
                          ? engine_self
                          : m["sync.task_self_s"];
  if (m["radio.awake_node_rounds"] > 0) {
    m["radio.ns_per_awake_node_round"] =
        m["radio.self_s"] * 1e9 / m["radio.awake_node_rounds"];
  }

  m["protocol.act_calls"] = static_cast<double>(calls.act.calls);
  m["protocol.act_s"] = calls.act.seconds();
  m["protocol.on_round_end_calls"] =
      static_cast<double>(calls.on_round_end.calls);
  m["protocol.on_round_end_s"] = calls.on_round_end.seconds();
  m["protocol.on_activate_calls"] =
      static_cast<double>(calls.on_activate.calls);
  m["protocol.on_activate_s"] = calls.on_activate.seconds();
  m["protocol.skip_rounds_calls"] =
      static_cast<double>(calls.skip_rounds.calls);
  m["protocol.skipped_rounds"] = static_cast<double>(calls.skipped_rounds);
  m["protocol.skip_rounds_s"] = calls.skip_rounds.seconds();
  m["protocol.observer_calls"] = static_cast<double>(calls.observer.calls);
  m["protocol.observer_s"] = calls.observer.seconds();
  m["adversary.disrupt_calls"] = static_cast<double>(calls.disrupt.calls);
  m["adversary.disrupt_s"] = calls.disrupt.seconds();
  m["activation.calls"] = static_cast<double>(calls.activations.calls);
  m["activation.busy_s"] = calls.activations.seconds();

  m["trace.overhead_frac"] = overhead_frac;
  m["trace.spans"] = static_cast<double>(spans.size());
  return m;
}

/// Prints the per-layer table and the closure of the traced iteration:
/// its self time plus the time its children cover equals its duration.
void print_layer_table(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.spans.spans();
  const SpanAnalysis analysis = analyze(spans);
  std::printf("\n%-34s %12s %12s %12s\n", "layer", "calls", "total_s",
              "self_s");
  for (const LayerRow& row : analysis.rows) {
    std::printf("%-34s %12lld %12.6f %12.6f\n", row.layer.c_str(),
                static_cast<long long>(row.calls), row.total_s, row.self_s);
  }
  for (const Span& span : spans) {
    if (span.name != "iteration") continue;
    const size_t id = static_cast<size_t>(span.id);
    double self_below = 0;
    double decorated_below = 0;
    // Sum of self time over the iteration's subtree.
    std::vector<bool> inside(spans.size(), false);
    for (const Span& s : spans) {
      const size_t sid = static_cast<size_t>(s.id);
      inside[sid] = s.id == span.id ||
                    (s.parent >= 0 && inside[static_cast<size_t>(s.parent)]);
      if (!inside[sid]) continue;
      self_below += analysis.self_s[sid];
      if (s.has_counters) decorated_below += s.counters.total_s();
    }
    std::printf(
        "\nclosure: iteration %.6f s = self %.6f + children %.6f; subtree "
        "self %.6f + decorated calls %.6f = %.6f thread-seconds (the "
        "iteration's wall on one thread, more when tasks run in parallel)\n",
        span.seconds(), analysis.self_s[id], analysis.covered_s[id],
        self_below, decorated_below, self_below + decorated_below);
  }
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.out);
  if (workload == nullptr) usage("unknown workload " + args.workload);

  Report report;
  Tracer tracer;
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  // One untraced iteration, plus a traced one under --trace 1.
  auto iteration_pair = [&] {
    const double wall = iterate(*workload, args, nullptr, &report);
    if (!args.trace) return;
    const int failed_before = report.failed;
    iterate(*workload, args, &tracer, &report);
    if (wall < 0 || report.failed != failed_before) return;
    plain_wall.push_back(tracer.plain_wall_s >= 0 ? tracer.plain_wall_s
                                                  : wall);
    for (const Span& span : tracer.spans.spans()) {
      if (span.name == "iteration") traced_wall.push_back(span.seconds());
    }
  };
  auto setup_only = [&] {
    const Interval setup;
    workload->setup(args.seed, nullptr);
    report.setup_s.push_back(setup.wall_s());
    workload->teardown();
  };
  // Repeat while another round, as long as the last, still ends within
  // --seconds. Untraced runs time a probe pass between iterations. The
  // first round warms caches and lazy statics; its iteration is checked but
  // not timed.
  HostProbe probe(workload->busy_threads());
  const Interval total;
  double last_s = 0;
  double probe_before = 0;
  for (int round = 0; round < 2 || total.wall_s() + last_s <= args.seconds;
       ++round) {
    const double started_s = total.wall_s();
    const size_t samples = report.wall_s.size();
    iteration_pair();
    for (int i = 0; i < kSetupsPerIteration; ++i) setup_only();
    if (!args.trace) {
      const double probe_after = probe.time_pass();
      report.probe_passes.push_back(probe_after);
      if (round == 0) {
        report.wall_s.clear();
        report.cpu_s.clear();
      } else if (report.wall_s.size() > samples) {
        report.probe_s.push_back((probe_before + probe_after) / 2);
      }
      probe_before = probe_after;
    }
    last_s = total.wall_s() - started_s;
  }
  while (report.setup_s.size() < kMinSetupSamples) setup_only();
  if (report.digests.size() > 1) {
    report.fail("iterations produced " +
                std::to_string(report.digests.size()) + " distinct digests");
  }

  std::map<std::string, double> metrics;
  const std::string trace_file = args.out + "/" + args.workload + ".trace.json";
  if (report.have_reference) {
    const Outcome& ref = report.reference;
    if (args.trace) {
      const double overhead =
          traced_wall.empty() ? 0.0
                              : median(traced_wall) / median(plain_wall) - 1.0;
      metrics = layer_metrics(tracer, ref, overhead);
      print_layer_table(tracer);
      write_chrome_trace(trace_file, tracer.spans.spans());
      std::printf("\ntraced wall_s %.6f (median of %zu), untraced %.6f: "
                  "trace.overhead_frac %.4f\n",
                  traced_wall.empty() ? 0.0 : median(traced_wall),
                  traced_wall.size(),
                  plain_wall.empty() ? 0.0 : median(plain_wall), overhead);
    } else if (!report.wall_s.empty()) {
      std::vector<double> wall_ref;
      std::vector<double> cpu_ref;
      for (size_t i = 0; i < report.wall_s.size(); ++i) {
        wall_ref.push_back(
            reference_seconds(report.wall_s[i], report.probe_s[i]));
        cpu_ref.push_back(
            reference_seconds(report.cpu_s[i], report.probe_s[i]));
      }
      const double wall = median(wall_ref);
      metrics["wall_ref_s"] = wall;
      metrics["cpu_ref_s"] = median(cpu_ref);
      metrics["setup_s"] = reference_seconds(median(report.setup_s),
                                             median(report.probe_passes));
      metrics["peak_rss_mb"] = peak_rss_mb();
      metrics["sim_rounds_per_ref_s"] = static_cast<double>(ref.rounds) / wall;
      metrics["awake_node_rounds_per_ref_s"] =
          static_cast<double>(ref.awake_node_rounds) / wall;
    }
  }

  std::printf("\nperfbench %s: seed %llu%s, %d iteration(s), %d failed "
              "(failed_frac %.4f)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              workload->uses_seed() ? "" : " (ignored: inputs are internal)",
              report.attempted, report.failed,
              static_cast<double>(report.failed) / report.attempted);
  if (!args.trace && !report.wall_s.empty()) {
    // Raw host timings: medians and quartiles over the iterations. They
    // follow the host's speed, so they are printed, not reported.
    const double wall_s = median(report.wall_s);
    auto quartiles = [](const char* name, const std::vector<double>& v) {
      std::printf("  %-30s median %.6f s (quartiles %.6f-%.6f, %zu "
                  "samples)\n",
                  name, median(v), percentile(v, 0.25), percentile(v, 0.75),
                  v.size());
    };
    quartiles("raw wall_s", report.wall_s);
    quartiles("raw cpu_s", report.cpu_s);
    quartiles("probe_s", report.probe_passes);
    std::printf("  %-30s %.1f 1/s\n  %-30s %.1f 1/s\n",
                "raw sim_rounds_per_s",
                static_cast<double>(report.reference.rounds) / wall_s,
                "raw awake_node_rounds_per_s",
                static_cast<double>(report.reference.awake_node_rounds) /
                    wall_s);
    std::printf("  raw setup_s: median %.6f of %zu samples (min %.6f, max "
                "%.6f)\n",
                median(report.setup_s), report.setup_s.size(),
                percentile(report.setup_s, 0), percentile(report.setup_s, 1));
  }
  for (const std::string& why : report.failures) {
    std::printf("  CHECK FAILED: %s\n", why.c_str());
  }

  std::string out = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"uses_seed\": " +
                    (workload->uses_seed() ? "true" : "false") +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"digest\": \"" +
                    (report.have_reference ? hex(report.reference.digest)
                                           : std::string()) +
                    "\", \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.failures[i]);
  }
  out += "], \"trace_file\": ";
  out += args.trace && report.have_reference ? json_string(trace_file)
                                             : std::string("null");
  out += ", \"metrics\": {";
  auto emit = [&](const auto& defs) {
    for (const MetricDef& def : defs) {
      if (metrics.count(def.name) == 0) continue;
      out += std::string(out.back() == '{' ? "" : ", ") +
             json_string(def.name) + ": {\"value\": " +
             number(metrics[def.name]) + ", \"unit\": " +
             json_string(def.unit) + "}";
    }
  };
  if (args.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return report.failed == 0 && report.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
