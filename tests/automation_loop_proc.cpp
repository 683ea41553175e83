// Crash-chaos helper for the automation loop (loop_crash_recovery_test).
//
// Runs the closed loop against a durable registry in a child process:
//
//   automation_loop_proc <registry_dir> <status_file> crash   <seed>
//   automation_loop_proc <registry_dir> <status_file> recover <seed>
//
// crash mode bootstraps v1, arms a stage hook that SIGKILLs the
// process the moment a seed-chosen stage (train / extract / compile /
// canary / swap) of the NEXT cycle is entered, then drives a retrain
// cycle — the process dies mid-stage with no flush and no farewell.
// recover mode restarts against the same registry directory with a
// fresh, data-free testbed and reports what start() redeployed.
//
// Exit codes (crash mode should never exit — it dies by signal):
//   2  start() failed        3  the kill stage was never reached
//   4  recovery disagreed with the registry   5  bad usage
#include <csignal>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <string>

#include "campuslab/testbed/automation_loop.h"

namespace {

using namespace campuslab;

testbed::TestbedConfig drift_scenario(std::uint64_t seed) {
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = seed;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2400})
          .rate(1200)
          .starting_at(Timestamp::from_seconds(4))
          .lasting(Duration::seconds(14)));
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 300,
                                           .reflectors = 20})
          .rate(60)
          .starting_at(Timestamp::from_seconds(45))
          .lasting(Duration::seconds(35)));
  cfg.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.5;
  cfg.collector.seed = seed + 5;
  return cfg;
}

control::AutomationConfig loop_config(std::uint64_t seed,
                                      std::string registry_dir) {
  control::AutomationConfig cfg;
  cfg.development.teacher.n_trees = 12;
  cfg.development.teacher.seed = seed;
  cfg.development.extraction.student_max_depth = 5;
  cfg.development.extraction.synthetic_samples = 3000;
  cfg.development.extraction.seed = seed + 1;
  cfg.development.seed = seed + 2;
  cfg.registry_directory = std::move(registry_dir);
  cfg.check_interval = Duration::seconds(5);
  cfg.canary_duration = Duration::seconds(5);
  // Fully permissive gate: the cycle must march through every stage so
  // the seed-chosen kill point is always reached.
  cfg.gate.min_precision = 0.0;
  cfg.gate.min_block_rate = 0.0;
  cfg.gate.max_benign_loss = 1.0;
  cfg.gate.min_observed = 1;
  // Candidate always wins the fresh-window comparison: a kSwap-stage
  // kill target must actually reach the swap.
  cfg.promote_margin = -1.0;
  cfg.min_window_rows = 200;
  cfg.retry.initial_backoff = Duration::micros(10);
  cfg.retry.max_backoff = Duration::micros(100);
  cfg.seed = seed + 3;
  return cfg;
}

int run_crash(const std::string& registry_dir,
              const std::string& status_file, std::uint64_t seed) {
  testbed::Testbed bed(drift_scenario(seed));
  bed.run(Duration::seconds(20));
  control::AutomationLoop loop(loop_config(seed, registry_dir), bed);
  if (!loop.start().ok()) return 2;

  {
    std::ofstream out(status_file, std::ios::trunc);
    out << "promoted " << loop.registry().active_version() << '\n';
  }

  // The hook arms only after bootstrap: the victim is a mid-CYCLE
  // stage, with v1 already durable on disk.
  const control::LoopStage targets[] = {
      control::LoopStage::kTrain, control::LoopStage::kExtract,
      control::LoopStage::kCompile, control::LoopStage::kCanary,
      control::LoopStage::kSwap};
  const auto target = targets[SplitMix64(seed).next() % 5];
  loop.set_stage_hook([target](control::LoopStage stage) {
    if (stage == target) ::kill(::getpid(), SIGKILL);
  });

  bed.run(Duration::seconds(30));       // fresh phase-2 data
  (void)loop.trigger_cycle();           // dies in train/extract/compile…
  bed.run(Duration::seconds(15));       // …or in canary/swap on the clock
  return 3;                             // the kill stage was never entered
}

int run_recover(const std::string& registry_dir,
                const std::string& status_file, std::uint64_t seed) {
  // A restart has no gathered data: recovery must come entirely from
  // the registry directory.
  testbed::TestbedConfig fresh;
  fresh.scenario.campus.seed = seed + 17;
  fresh.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  testbed::Testbed bed(fresh);
  control::AutomationLoop loop(loop_config(seed, registry_dir), bed);
  if (!loop.start().ok()) return 2;

  const auto deployed = loop.handle().version();
  const auto active = loop.registry().active_version();
  std::ofstream out(status_file, std::ios::trunc);
  out << "recovered " << deployed << " active " << active << " entries "
      << loop.registry().entries().size() << '\n';
  if (deployed == 0 || deployed != active) return 4;
  // Serve a little traffic on the recovered model: the loop is live,
  // not just reloaded.
  bed.run(Duration::seconds(5));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return 5;
  const std::string registry_dir = argv[1];
  const std::string status_file = argv[2];
  const std::string mode = argv[3];
  const std::uint64_t seed = std::stoull(argv[4]);
  if (mode == "crash") return run_crash(registry_dir, status_file, seed);
  if (mode == "recover")
    return run_recover(registry_dir, status_file, seed);
  return 5;
}
