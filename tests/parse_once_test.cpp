// Parse-once equivalence: the eager PacketView cached in DecodedPacket
// at the tap must be indistinguishable from a fresh per-stage decode.
// For a mixed benign + DNS-amplification trace, every consumer that
// accepts a cached view (FlowMeter, PacketDatasetCollector, FastLoop /
// SoftwareSwitch) is run twice — once on a fresh PacketView decoded per
// stage, once on the cached view — and must produce identical output.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "campuslab/capture/decoded.h"
#include "campuslab/capture/flow.h"
#include "campuslab/control/development_loop.h"
#include "campuslab/control/fast_loop.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/sim/simulator.h"
#include "campuslab/testbed/testbed.h"

namespace campuslab::capture {
namespace {

/// Field-by-field serialization so "identical" is well-defined (same
/// approach as the sharded determinism regression).
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

/// A few seconds of campus traffic with an injected amplification
/// attack, recorded off the tap with the decode done once per packet —
/// exactly what the capture engines put on their rings.
std::vector<DecodedPacket> record_trace(std::uint64_t seed = 77) {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = seed;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(600)
          .starting_at(Timestamp::from_seconds(1))
          .lasting(Duration::seconds(3)));

  sim::CampusSimulator simulator(scenario);
  std::vector<DecodedPacket> trace;
  simulator.network().set_tap(
      [&](const packet::Packet& p, sim::Direction d) {
        trace.push_back(DecodedPacket{p, d});
      });
  simulator.run_for(Duration::seconds(6));
  return trace;
}

TEST(ParseOnce, TraceIsMixedAndViewsAreCoherent) {
  const auto trace = record_trace();
  ASSERT_GT(trace.size(), 1000u);
  std::size_t attack = 0, benign = 0;
  for (const auto& t : trace) {
    (packet::is_attack(t.pkt.label) ? attack : benign)++;
    // The cached view must decode exactly this packet's bytes.
    ASSERT_EQ(t.view.frame().data(), t.pkt.bytes().data());
    ASSERT_EQ(t.view.frame_size(), t.pkt.size());
  }
  EXPECT_GT(attack, 100u);
  EXPECT_GT(benign, 100u);
}

TEST(ParseOnce, FlowExportsIdentical) {
  const auto trace = record_trace();
  std::vector<std::uint8_t> fresh_bytes, cached_bytes;

  FlowMeter fresh;
  fresh.set_sink([&](const FlowRecord& r) { serialize(r, fresh_bytes); });
  for (const auto& t : trace)
    fresh.offer(t.pkt, packet::PacketView(t.pkt), t.dir);  // fresh decode
  fresh.flush();

  FlowMeter cached;
  cached.set_sink([&](const FlowRecord& r) { serialize(r, cached_bytes); });
  for (const auto& t : trace) cached.offer(t.pkt, t.view, t.dir);  // cached
  cached.flush();

  ASSERT_FALSE(fresh_bytes.empty());
  EXPECT_EQ(cached_bytes, fresh_bytes);
}

TEST(ParseOnce, DatasetRowsIdentical) {
  const auto trace = record_trace();
  features::PacketDatasetOptions options;
  options.attack_sample_rate = 0.5;  // exercise the sampling RNG too
  options.seed = 99;

  features::PacketDatasetCollector fresh(options);
  for (const auto& t : trace)
    fresh.offer(t.pkt, packet::PacketView(t.pkt), t.dir);
  features::PacketDatasetCollector cached(options);
  for (const auto& t : trace) cached.offer(t.pkt, t.view, t.dir);

  const auto& a = fresh.dataset();
  const auto& b = cached.dataset();
  ASSERT_GT(a.n_rows(), 100u);
  ASSERT_EQ(b.n_rows(), a.n_rows());
  for (std::size_t i = 0; i < a.n_rows(); ++i) {
    ASSERT_EQ(b.label(i), a.label(i)) << "row " << i;
    const auto ra = a.row(i);
    const auto rb = b.row(i);
    for (std::size_t j = 0; j < ra.size(); ++j)
      ASSERT_EQ(rb[j], ra[j]) << "row " << i << " feature " << j;
  }
}

TEST(ParseOnce, FastLoopVerdictsIdentical) {
  // Train a small deployable model the same way the control tests do,
  // then deploy it twice and feed one loop freshly decoded views and the
  // other the cached views.
  testbed::TestbedConfig cfg;
  cfg.scenario.campus.seed = 2024;
  cfg.scenario.campus.diurnal = false;
  cfg.scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .with(sim::DnsAmplificationShape{.response_bytes = 2500})
          .rate(2000)
          .starting_at(Timestamp::from_seconds(5))
          .lasting(Duration::seconds(20)));
  cfg.collector.labeling.binary_target =
      packet::TrafficLabel::kDnsAmplification;
  cfg.collector.attack_sample_rate = 0.25;
  cfg.collector.seed = 4242;
  testbed::Testbed bed(cfg);
  bed.run(Duration::seconds(30));
  const auto dataset = bed.harvest_dataset();
  ASSERT_GT(dataset.n_rows(), 2000u);

  control::DevelopmentConfig dev;
  dev.teacher.n_trees = 10;
  dev.teacher.max_depth = 10;
  dev.teacher.seed = 7;
  dev.extraction.student_max_depth = 5;
  dev.extraction.synthetic_samples = 2000;
  dev.extraction.seed = 8;
  dev.seed = 9;
  control::DevelopmentLoop loop(dev);
  auto package = loop.run(dataset);
  ASSERT_TRUE(package.ok()) << package.error().message;

  auto fresh = control::FastLoop::deploy(package.value());
  auto cached = control::FastLoop::deploy(package.value());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(cached.ok());

  const auto trace = record_trace(2025);
  for (const auto& t : trace) {
    if (t.dir != sim::Direction::kInbound) continue;
    const bool a =
        fresh.value()->inspect(t.pkt, packet::PacketView(t.pkt));  // fresh
    const bool b = cached.value()->inspect(t.pkt, t.view);  // cached
    ASSERT_EQ(b, a);
  }
  const auto& sa = fresh.value()->stats();
  const auto& sb = cached.value()->stats();
  EXPECT_GT(sa.inspected, 1000u);
  EXPECT_EQ(sb.inspected, sa.inspected);
  EXPECT_EQ(sb.dropped, sa.dropped);
  EXPECT_EQ(sb.attack_dropped, sa.attack_dropped);
  EXPECT_EQ(sb.benign_dropped, sa.benign_dropped);
  EXPECT_EQ(sb.attack_passed, sa.attack_passed);
  EXPECT_EQ(sb.benign_passed, sa.benign_passed);
}

}  // namespace
}  // namespace campuslab::capture
