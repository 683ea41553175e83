// tap_replay — the per-frame write path with no ML. Set-up records a
// mixed campus (minimum-size SYN-flood and port-scan frames next to
// 2.2 KB DNS-amplification responses, plus worm, exfiltration and
// benign traffic) into memory, so the simulator's cost lands in
// setup_s. Each timed pass replays every frame from one thread through
// capture -> FlowMeter -> DataStore::ingest + PacketDatasetCollector.
//
// The randomly spoofed SYN flood runs just long enough to push the
// packet feature extractor's per-source table a little past its
// max_tracked_hosts cap: the last 173 spoofed sources each arrive at a
// full table. Past the cap, StatefulFeatureExtractor scans the whole
// table for the entry to evict on every new source, so those frames
// cost about as much as the rest of the pass together, and a cheaper
// eviction shows in cycle_s.
#include <cstdio>
#include <unordered_set>

#include "datapath.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Every seed replays the same number of frames; a campus that has not
// produced them by kCampusSeconds simply yields fewer.
constexpr std::size_t kFrames = 300'000;
constexpr double kCampusSeconds = 90;
constexpr std::size_t kChunk = 16384;
// Set-up is recorded at least kSetupReps times and for kSetupSeconds.
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 3.0;

/// The same campus for every --seed: another campus seed changes the
/// traffic mix itself (flows opened and bytes carried by the same frame
/// count differ by 10-30%), and so the work per pass. --seed drives the
/// collector's sampling.
sim::ScenarioConfig mixed_campus() {
  using sim::BehaviorKind;
  using sim::Scenario;
  sim::ScenarioConfig c;
  c.campus.seed = 9001;
  c.campus.load_scale = 1.0;
  const auto at = [](double s) { return Timestamp::from_seconds(s); };
  // 15.61 s at 4000 pps: the extractor's table fills about 0.05 s
  // before the flood ends; the 173 spoofed sources after that are each
  // new to a full table.
  c.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                            .rate(4000)
                            .starting_at(at(5))
                            .lasting(Duration::from_seconds(15.61)));
  c.scenarios.push_back(Scenario::attack(BehaviorKind::kSynFlood)
                            .with(sim::SynFloodShape{.spoof_pool = 2000})
                            .rate(3000)
                            .starting_at(at(20))
                            .lasting(Duration::seconds(35)));
  c.scenarios.push_back(Scenario::attack(BehaviorKind::kPortScan)
                            .rate(1500)
                            .starting_at(at(10))
                            .lasting(Duration::seconds(30)));
  c.scenarios.push_back(
      Scenario::attack(BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2200})
          .rate(800)
          .starting_at(at(15))
          .lasting(Duration::seconds(30)));
  c.scenarios.push_back(Scenario::attack(BehaviorKind::kWorm)
                            .starting_at(at(20))
                            .lasting(Duration::seconds(30)));
  c.scenarios.push_back(Scenario::attack(BehaviorKind::kExfiltration)
                            .starting_at(at(5))
                            .lasting(Duration::seconds(50)));
  return c;
}

DataPathConfig replay_path(std::uint64_t seed) {
  DataPathConfig c;
  c.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  c.collector.attack_sample_rate = 0.3;
  c.collector.seed = 4243 + (seed - 1) * 7919;
  c.enable_sensors = false;  // no simulator, no topology: capture only
  return c;
}

/// Per-frame StatefulFeatureExtractor cost on the replayed frames:
/// `under` before its per-source table is full, `over` for inbound
/// frames whose source is new once it is full (each evicts an entry).
/// The collector runs the same extractor inside features.collect.
struct OverCap {
  double under_ns = 0, over_ns = 0;
  std::size_t under = 0, over = 0;
};

OverCap over_cap_probe(const FrameLog& log) {
  features::StatefulFeatureExtractor extractor;
  const std::size_t cap = features::PacketFeatureConfig{}.max_tracked_hosts;
  std::unordered_set<std::uint32_t> seen;  // inbound sources so far
  OverCap out;
  std::vector<FrameLog::Frame> chunk;
  for (std::size_t i = 0; i < log.size(); i += kChunk) {
    log.materialize(i, i + kChunk, chunk);
    for (const auto& [pkt, dir] : chunk) {
      const packet::PacketView view(pkt);
      const bool full = extractor.tracked_srcs() >= cap;
      const bool new_src = view.is_ipv4() &&
                           dir == sim::Direction::kInbound &&
                           seen.insert(view.ipv4().src.value()).second;
      const std::int64_t t0 = now_ns();
      (void)extractor.extract(pkt, view, dir);
      const double ns = static_cast<double>(now_ns() - t0);
      if (!full) {
        out.under_ns += ns;
        ++out.under;
      } else if (new_src) {
        out.over_ns += ns;
        ++out.over;
      }
    }
  }
  if (out.under > 0) out.under_ns /= static_cast<double>(out.under);
  if (out.over > 0) out.over_ns /= static_cast<double>(out.over);
  return out;
}

struct Pass {
  double seconds = 0;
  std::uint64_t frames = 0, flows = 0, flow_packets = 0, non_ip = 0;
  std::uint64_t rows = 0, segments = 0;
  capture::CaptureStats cap;
};

Pass replay(const FrameLog& log, const DataPathConfig& config) {
  Pass p;
  DataPath path(config, nullptr);
  std::vector<FrameLog::Frame> chunk;
  for (std::size_t i = 0; i < log.size(); i += kChunk) {
    log.materialize(i, i + kChunk, chunk);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [pkt, dir] : chunk) path.tap(pkt, dir);
    p.seconds += seconds_since(t0);
  }
  p.seconds += time_once([&] { path.flush_flows(); });
  p.frames = path.frames();
  p.flows = path.flows_exported();
  p.flow_packets = path.flow_packets();
  p.non_ip = path.flow_meter().stats().non_ip_packets;
  p.rows = path.collector().rows_collected();
  p.segments = path.store().catalog().segments;
  p.cap = path.capture_stats();
  return p;
}

void check_pass(Report& r, const Pass& p, std::size_t replayed) {
  r.count(p.cap.offered, p.cap.dropped, "replayed frames dropped");
  r.check(p.cap.offered == p.cap.accepted + p.cap.dropped,
          "offered != accepted + dropped");
  r.check(p.frames == replayed && p.cap.offered == replayed,
          "capture offered != frames replayed");
  r.check(p.flow_packets + p.non_ip == replayed,
          "flow-record packet totals (" + std::to_string(p.flow_packets) +
              " + " + std::to_string(p.non_ip) + " non-IP) != " +
              std::to_string(replayed) + " frames replayed");
}

}  // namespace

Report run_tap_replay(const Options& opt) {
  Report report;
  const sim::ScenarioConfig campus = mixed_campus();
  const DataPathConfig config = replay_path(opt.seed);

  const auto record = [&] {
    return record_frames(campus, Duration::from_seconds(kCampusSeconds),
                         kFrames);
  };
  FrameLog log;
  const auto setup = repeat_timed([&] { log = record(); }, kSetupReps,
                                  kSetupSeconds, 4 * kSetupReps);

  std::vector<double> pass_s, fps, untraced_s;
  std::unique_ptr<Tracer> tracer;
  Pass last;
  double sim_emit_s = 0.0;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
    const bool traced = opt.trace && phase == 1;
    if (traced) {
      {
        // One traced recording attributes set-up time to the simulator.
        Tracer recording;
        install_tracer(&recording);
        (void)record();
        install_tracer(nullptr);
        sim_emit_s =
            static_cast<double>(recording.stats(span::kSimRun).self_ns) /
            1e9;
      }
      tracer = std::make_unique<Tracer>();
      install_tracer(tracer.get());
    }
    double spent = 0.0;
    do {
      const Pass p = replay(log, config);
      check_pass(report, p, log.size());
      (opt.trace && !traced ? untraced_s : pass_s).push_back(p.seconds);
      fps.push_back(static_cast<double>(p.frames) / p.seconds);
      spent += p.seconds;
      last = p;
    } while (spent < budget);
    if (traced) install_tracer(nullptr);
  }

  char line[256];
  std::snprintf(line, sizeof line,
                "%zu frames (%.1f MB) replayed per pass; %llu flows, "
                "%llu non-IP frames, %llu dataset rows, %llu segments",
                log.size(), static_cast<double>(log.byte_count()) / 1e6,
                static_cast<unsigned long long>(last.flows),
                static_cast<unsigned long long>(last.non_ip),
                static_cast<unsigned long long>(last.rows),
                static_cast<unsigned long long>(last.segments));
  report.note(line);
  report.note(spread_line("pass seconds", pass_s, "s"));
  report.note(spread_line("ingest_fps", fps, "1/s"));

  if (!opt.trace) {
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cycle_s", median(pass_s), "s", pass_s.size());
    return report;
  }

  const std::size_t passes = pass_s.size();
  const auto count = [&](const SpanName& n) {
    return static_cast<std::size_t>(tracer->stats(n).count);
  };
  report.add("sim.emit_s", sim_emit_s, "s");
  report.add("capture.offer_ns",
             self_ns_per_call(*tracer, span::kCaptureOffer), "ns",
             count(span::kCaptureOffer));
  report.add("capture.poll_self_ns",
             self_ns_per_call(*tracer, span::kCapturePoll), "ns",
             count(span::kCapturePoll));
  report.add("capture.flow_offer_ns",
             self_ns_per_call(*tracer, span::kFlowOffer), "ns",
             count(span::kFlowOffer));
  report.add("capture.dropped", static_cast<double>(last.cap.dropped),
             "count");
  report.add("capture.flows_exported", static_cast<double>(last.flows),
             "count");
  report.add("features.collect_ns", self_ns_per_call(*tracer, span::kCollect),
             "ns", count(span::kCollect));
  report.add("features.rows", static_cast<double>(last.rows), "count");
  const OverCap probe = over_cap_probe(log);
  std::snprintf(line, sizeof line,
                "bare extractor: %.6g ns per frame below the cap (n=%zu), "
                "%.6g ns per new source at the cap (n=%zu)",
                probe.under_ns, probe.under, probe.over_ns, probe.over);
  report.note(line);
  report.add("store.ingest_ns", self_ns_per_call(*tracer, span::kStoreIngest),
             "ns", count(span::kStoreIngest));
  report.add("store.segments_sealed",
             static_cast<double>(last.segments > 0 ? last.segments - 1 : 0),
             "count");
  double traced_wall = 0.0;
  for (const double s : pass_s) traced_wall += s;
  add_trace_summary(report, *tracer, traced_wall, median(untraced_s),
                    median(pass_s), passes);
  write_trace(*tracer, opt);
  complete_per_layer(report);
  return report;
}

}  // namespace perfbench
