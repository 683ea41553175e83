// Checks that the benchmark's Figure-1 wiring (Campus + DataPath) moves
// exactly what testbed::Testbed moves for the same configuration and
// seed: frames tapped, flow records stored, dataset rows collected and
// sensor log events. Exit code 0 when every count matches.
//
//   perfbench_wiring_test [seed]
#include <cstdio>
#include <cstdlib>

#include "campuslab/testbed/testbed.h"
#include "datapath.h"

using namespace perfbench;

namespace {

struct Counts {
  std::uint64_t frames = 0, flows = 0, rows = 0, logs = 0;
};

sim::ScenarioConfig scenario(std::uint64_t seed) {
  sim::ScenarioConfig s;
  s.campus.seed = seed;
  s.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2200})
          .rate(1500)
          .starting_at(Timestamp::from_seconds(10))
          .lasting(Duration::seconds(20)));
  s.scenarios.push_back(sim::Scenario::attack(sim::BehaviorKind::kPortScan)
                            .rate(500)
                            .starting_at(Timestamp::from_seconds(5))
                            .lasting(Duration::seconds(20)));
  return s;
}

features::PacketDatasetOptions collector(std::uint64_t seed) {
  features::PacketDatasetOptions o;
  o.labeling.binary_target = packet::TrafficLabel::kDnsAmplification;
  o.attack_sample_rate = 0.3;
  o.seed = seed + 1;
  return o;
}

Counts via_testbed(std::uint64_t seed, Duration d) {
  testbed::TestbedConfig cfg;
  cfg.scenario = scenario(seed);
  cfg.collector = collector(seed);
  testbed::Testbed bed(cfg);
  bed.run(d);
  const auto dataset = bed.harvest_dataset();
  const auto catalog = bed.store().catalog();
  return {bed.capture_engine().stats().offered, catalog.total_flows,
          dataset.n_rows(), catalog.total_log_events};
}

Counts via_benchmark(std::uint64_t seed, Duration d) {
  DataPathConfig cfg;
  cfg.collector = collector(seed);
  Campus campus(scenario(seed), cfg);
  campus.run(d);
  const auto dataset = campus.path().harvest();
  const auto catalog = campus.path().store().catalog();
  return {campus.path().capture_stats().offered, catalog.total_flows,
          dataset.n_rows(), catalog.total_log_events};
}

bool same(const char* what, std::uint64_t testbed, std::uint64_t bench) {
  std::printf("  %-12s testbed %10llu  benchmark %10llu  %s\n", what,
              static_cast<unsigned long long>(testbed),
              static_cast<unsigned long long>(bench),
              testbed == bench ? "ok" : "MISMATCH");
  return testbed == bench;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                      : 4242;
  const Duration d = Duration::from_seconds(40);
  const Counts a = via_testbed(seed, d);
  const Counts b = via_benchmark(seed, d);
  std::printf("wiring check, seed %llu, 40 simulated seconds:\n",
              static_cast<unsigned long long>(seed));
  bool ok = a.frames > 0 && a.rows > 0;
  ok &= same("frames", a.frames, b.frames);
  ok &= same("flows", a.flows, b.flows);
  ok &= same("dataset rows", a.rows, b.rows);
  ok &= same("log events", a.logs, b.logs);
  std::printf("%s\n", ok ? "WIRING OK" : "WIRING MISMATCH");
  return ok ? 0 : 1;
}
