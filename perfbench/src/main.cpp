// CampusLab benchmark program.
//
//   perfbench --workload <fig1_cycle|tap_replay|store_query|cluster_query>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload in this process and prints one line per metric,
// then the JSON result object as the last line of standard output.
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced
// half and a traced half and reports the per-layer metrics, writing
// the traced half's spans as Chrome trace-event JSON under --out-dir.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "campuslab/obs/stage_timer.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig1_cycle|tap_replay|"
               "store_query|cluster_query> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seed == 0 || !(opt.seconds > 0)) return usage();

  Report (*run)(const Options&) = nullptr;
  if (opt.workload == "fig1_cycle") run = run_fig1_cycle;
  if (opt.workload == "tap_replay") run = run_tap_replay;
  if (opt.workload == "store_query") run = run_store_query;
  if (opt.workload == "cluster_query") run = run_cluster_query;
  if (run == nullptr) return usage();

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d nproc=%u "
              "obs_stage_timer=%s sample_period=%u\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
              campuslab::obs::tracing_enabled() ? "on" : "off",
              campuslab::obs::trace_sample_period());
  std::fflush(stdout);
  run(opt).print();
  return 0;
}
