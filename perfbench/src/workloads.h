// The four benchmark workloads and the helpers they share.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campuslab/sim/simulator.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  // Chrome trace files go here
};

/// FIG1's campus (seed 4242, a 60 s DNS-amplification incident from
/// 60 s) and how long FIG1 runs it. fig1_cycle runs it through the data
/// path; the query workloads tile its FlowMeter export into their store.
campuslab::sim::ScenarioConfig fig1_campus();
inline constexpr double kFig1CampusSeconds = 240;

Report run_fig1_cycle(const Options& opt);
Report run_tap_replay(const Options& opt);
Report run_store_query(const Options& opt);
Report run_cluster_query(const Options& opt);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Run `fn` at least `min_reps` times and until `min_seconds` have
/// passed (at most `max_reps`); returns every repetition's seconds.
std::vector<double> repeat_timed(const std::function<void()>& fn,
                                 std::size_t min_reps, double min_seconds,
                                 std::size_t max_reps);

/// Seconds of one call.
double time_once(const std::function<void()>& fn);

/// The per-layer metric names every traced run reports, with units.
/// Layers a workload does not exercise report 0.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& per_layer_specs();

/// Reorders `report.metrics` into per_layer_specs() order, adding a 0
/// for every metric the workload did not produce.
void complete_per_layer(Report& report);

/// Per-layer self time of every module, the traced wall time, their
/// coverage, tracing overhead and the obs StageTimer state.
void add_trace_summary(Report& report, const Tracer& tracer,
                       double traced_wall_s, double untraced_s,
                       double traced_s, std::size_t passes);

/// Mean self time per call of `name`, in ns (0 when never called).
double self_ns_per_call(const Tracer& tracer, const SpanName& name);

/// Writes the kept spans as Chrome trace-event JSON under out_dir.
void write_trace(const Tracer& tracer, const Options& opt);

}  // namespace perfbench
