// Determinism regression: with shards=1 the sharded engine must produce
// a byte-identical flow-export stream to a reference FlowMeter fed the
// same simulated trace directly, one freshly decoded frame at a time.
// Every downstream EXPERIMENTS number is derived from these exports, so
// this is the contract that lets the testbed capture through the
// sharded engine without re-baselining results.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "campuslab/capture/sharded_engine.h"
#include "campuslab/features/flow_merge.h"
#include "campuslab/sim/simulator.h"

namespace campuslab::capture {
namespace {

/// Field-by-field serialization (no struct padding) so "byte-identical"
/// is well-defined.
void serialize(const FlowRecord& r, std::vector<std::uint8_t>& out) {
  auto put = [&out](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  put(r.tuple.src.value());
  put(r.tuple.dst.value());
  put(r.tuple.src_port);
  put(r.tuple.dst_port);
  put(r.tuple.proto);
  put(static_cast<std::uint8_t>(r.initial_direction));
  put(r.first_ts.nanos());
  put(r.last_ts.nanos());
  put(r.packets);
  put(r.bytes);
  put(r.payload_bytes);
  put(r.fwd_packets);
  put(r.rev_packets);
  put(r.syn_count);
  put(r.synack_count);
  put(r.fin_count);
  put(r.rst_count);
  put(r.psh_count);
  put(static_cast<std::uint8_t>(r.saw_dns));
  for (const auto count : r.label_packets) put(count);
}

std::vector<std::uint8_t> serialize_all(
    const std::vector<FlowRecord>& records) {
  std::vector<std::uint8_t> out;
  for (const auto& r : records) serialize(r, out);
  return out;
}

/// A few seconds of campus traffic with one injected attack, recorded
/// off the simulator tap so both arms replay the exact same trace.
std::vector<DecodedPacket> record_trace() {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = 1234;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(800)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(3)));

  sim::CampusSimulator simulator(scenario);
  std::vector<DecodedPacket> trace;
  simulator.network().set_tap(
      [&](const packet::Packet& p, sim::Direction d) {
        trace.push_back(DecodedPacket{p, d});
      });
  simulator.run_for(Duration::seconds(8));
  return trace;
}

/// The reference arm: a FlowMeter fed the trace directly, each frame
/// decoded fresh instead of reading the view cached at record time.
std::vector<FlowRecord> reference_exports(
    const std::vector<DecodedPacket>& trace) {
  std::vector<FlowRecord> exports;
  FlowMeter meter;
  meter.set_sink([&](const FlowRecord& r) { exports.push_back(r); });
  for (const auto& t : trace)
    meter.offer(t.pkt, packet::PacketView(t.pkt), t.dir);
  meter.flush();
  return exports;
}

TEST(ShardedDeterminism, SingleShardMatchesLegacyEngineByteForByte) {
  const auto trace = record_trace();
  ASSERT_GT(trace.size(), 1000u);

  // Reference: no capture engine, every frame decoded fresh.
  const auto legacy_exports = reference_exports(trace);

  // Sharded pipeline, shards=1, simulation mode (same thread, same
  // cadence): must reproduce the identical export stream.
  std::vector<FlowRecord> sharded_exports;
  {
    ShardedCaptureConfig cfg;
    cfg.shards = 1;
    cfg.ring_capacity = 1 << 16;
    ShardedCaptureEngine engine(cfg);
    FlowMeter meter;
    meter.set_sink(
        [&](const FlowRecord& r) { sharded_exports.push_back(r); });
    engine.add_sink_factory([&](std::size_t) {
      return [&](const DecodedPacket& t) {
        meter.offer(t.pkt, t.view, t.dir);
      };
    });
    for (const auto& tagged : trace) {
      engine.offer(tagged.pkt, tagged.dir);
      engine.poll_shard(0, 64);
    }
    engine.drain();
    meter.flush();
    EXPECT_EQ(engine.stats().dropped, 0u);
  }

  ASSERT_EQ(sharded_exports.size(), legacy_exports.size());
  EXPECT_EQ(serialize_all(sharded_exports), serialize_all(legacy_exports));
}

// The merged (canonically ordered) export is also invariant: sorting
// the reference stream gives exactly the sharded collector's merge —
// and repeating the sharded run with threads reproduces the same bytes.
TEST(ShardedDeterminism, MergedExportIsCanonical) {
  const auto trace = record_trace();

  auto canonical = features::merge_flow_exports({reference_exports(trace)});

  auto sharded_merged = [&] {
    ShardedCaptureConfig cfg;
    cfg.shards = 1;
    cfg.ring_capacity = 1 << 16;
    ShardedCaptureEngine engine(cfg);
    features::ShardedFlowCollector flows(cfg.shards);
    engine.add_sink_factory([&](std::size_t s) {
      return [&flows, s](const DecodedPacket& t) {
        flows.meter(s).offer(t.pkt, t.view, t.dir);
      };
    });
    engine.start();  // real worker this time
    for (const auto& tagged : trace) {
      while (!engine.offer(tagged.pkt, tagged.dir)) {
      }
    }
    engine.stop();
    return flows.merged_export();
  }();

  EXPECT_EQ(serialize_all(sharded_merged), serialize_all(canonical));
}

}  // namespace
}  // namespace campuslab::capture
