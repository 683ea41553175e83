#include <cstdio>
#include <filesystem>

#include "campuslab/obs/stage_timer.h"
#include "workloads.h"

namespace perfbench {

std::vector<double> repeat_timed(const std::function<void()>& fn,
                                 std::size_t min_reps, double min_seconds,
                                 std::size_t max_reps) {
  std::vector<double> reps;
  const auto t0 = std::chrono::steady_clock::now();
  while (reps.size() < max_reps &&
         (reps.size() < min_reps || seconds_since(t0) < min_seconds))
    reps.push_back(time_once(fn));
  return reps;
}

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return seconds_since(t0);
}

namespace {

const char* const kLayers[] = {"sim",      "packet", "capture",
                               "features", "store",  "ml",
                               "xai",      "dataplane", "control",
                               "testbed"};

}  // namespace

const std::vector<LayerMetricSpec>& per_layer_specs() {
  static const std::vector<LayerMetricSpec> specs = [] {
    std::vector<LayerMetricSpec> s = {
        {"sim.emit_s", "s"},
        {"capture.offer_ns", "ns"},
        {"capture.poll_self_ns", "ns"},
        {"capture.flow_offer_ns", "ns"},
        {"capture.dropped", "count"},
        {"capture.flows_exported", "count"},
        {"features.collect_ns", "ns"},
        {"features.rows", "count"},
        {"store.ingest_ns", "ns"},
        {"store.segments_sealed", "count"},
        {"store.query_us.host", "us"},
        {"store.query_us.port", "us"},
        {"store.query_us.label", "us"},
        {"store.query_us.time", "us"},
        {"store.query_us.scan", "us"},
        {"store.query_us.agg", "us"},
        {"store.rows_scanned", "count"},
        {"store.segment_prune_ratio", "ratio"},
        {"store.index_hits", "count"},
        {"store.scan_threads", "count"},
        {"store.shard_query_us", "us"},
        {"store.rpc_us", "us"},
        {"store.rpc_failures", "count"},
        {"store.frames_served", "count"},
        {"ml.train_s", "s"},
        {"ml.teacher_nodes", "count"},
        {"ml.teacher_predict_ns", "ns"},
        {"xai.extract_s", "s"},
        {"xai.student_nodes", "count"},
        {"xai.fidelity", "ratio"},
        {"dataplane.compile_s", "s"},
        {"dataplane.stages", "count"},
        {"dataplane.tcam_entries", "count"},
        {"control.inspect_ns.p50", "ns"},
        {"control.inspect_ns.p99", "ns"},
        {"control.verdicts", "count"},
    };
    static std::vector<std::string> layer_names;
    for (const char* layer : kLayers)
      layer_names.push_back(std::string("layer.") + layer + ".self_s");
    layer_names.push_back("layer.harness.self_s");
    for (const auto& n : layer_names) s.push_back({n.c_str(), "s"});
    s.push_back({"trace.wall_s", "s"});
    s.push_back({"trace.layer_coverage", "ratio"});
    s.push_back({"trace.overhead_share", "ratio"});
    s.push_back({"trace.spans_kept", "count"});
    s.push_back({"trace.spans_dropped", "count"});
    s.push_back({"obs.stage_timer_enabled", "bool"});
    s.push_back({"obs.stage_timer_period", "count"});
    return s;
  }();
  return specs;
}

void complete_per_layer(Report& report) {
  std::vector<Metric> ordered;
  for (const auto& spec : per_layer_specs()) {
    Metric m{spec.name, 0.0, spec.unit, 0};
    for (const auto& have : report.metrics)
      if (have.name == spec.name) m = have;
    ordered.push_back(m);
  }
  report.metrics = std::move(ordered);
}

double self_ns_per_call(const Tracer& tracer, const SpanName& name) {
  const auto s = tracer.stats(name);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.self_ns) /
                            static_cast<double>(s.count);
}

void add_trace_summary(Report& report, const Tracer& tracer,
                       double traced_wall_s, double untraced_s,
                       double traced_s, std::size_t passes) {
  const double per = passes == 0 ? 1.0 : static_cast<double>(passes);
  double layered = 0.0;
  for (const char* layer : kLayers) {
    const double self = static_cast<double>(tracer.layer_self_ns(layer)) /
                        1e9 / per;
    layered += self;
    report.add(std::string("layer.") + layer + ".self_s", self, "s",
               passes);
  }
  report.add("layer.harness.self_s",
             static_cast<double>(tracer.layer_self_ns("harness")) / 1e9 /
                 per,
             "s", passes);
  const double wall = traced_wall_s / per;
  report.add("trace.wall_s", wall, "s", passes);
  report.add("trace.layer_coverage", wall > 0 ? layered / wall : 0.0,
             "ratio", passes);
  report.add("trace.overhead_share",
             untraced_s > 0 ? traced_s / untraced_s - 1.0 : 0.0, "ratio",
             passes);
  report.add("trace.spans_kept", static_cast<double>(tracer.kept()),
             "count");
  report.add("trace.spans_dropped", static_cast<double>(tracer.dropped()),
             "count");
  report.add("obs.stage_timer_enabled",
             campuslab::obs::tracing_enabled() ? 1.0 : 0.0, "bool");
  report.add("obs.stage_timer_period",
             static_cast<double>(campuslab::obs::trace_sample_period()),
             "count");
  char line[256];
  std::snprintf(line, sizeof line,
                "traced: layers cover %.4f of %.6g s wall per pass; "
                "tracing overhead %+.2f%% (traced %.6g s vs untraced "
                "%.6g s per pass); obs StageTimer %s, 1/%u sampled",
                wall > 0 ? layered / wall : 0.0, wall,
                untraced_s > 0 ? 100.0 * (traced_s / untraced_s - 1.0) : 0.0,
                traced_s, untraced_s,
                campuslab::obs::tracing_enabled() ? "on" : "off",
                campuslab::obs::trace_sample_period());
  report.note(line);
}

void write_trace(const Tracer& tracer, const Options& opt) {
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string path = opt.out_dir + "/trace_" + opt.workload +
                           "_seed" + std::to_string(opt.seed) + ".json";
  char meta[256];
  std::snprintf(meta, sizeof meta,
                "{\"workload\":\"%s\",\"seed\":%llu,\"spans_kept\":%zu,"
                "\"spans_dropped\":%llu}",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), tracer.kept(),
                static_cast<unsigned long long>(tracer.dropped()));
  if (!ec && tracer.write_chrome_json(path, meta)) {
    std::printf("  chrome trace: %s (%zu spans kept, %llu not kept)\n",
                path.c_str(), tracer.kept(),
                static_cast<unsigned long long>(tracer.dropped()));
  } else {
    std::printf("  chrome trace: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
