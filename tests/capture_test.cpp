// Tests for campuslab::capture — SPSC ring correctness (including a
// two-thread stress test), pcap write/read round-trips, flow metering
// semantics, and the capture engine's drop accounting on one shard.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/pcap.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/capture/spsc_ring.h"
#include "campuslab/sim/simulator.h"

namespace campuslab::capture {
namespace {

using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using packet::TcpFlags;
using packet::TrafficLabel;
using sim::Direction;

Endpoint ep(std::uint32_t id, Ipv4Address ip, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), ip, port};
}

packet::Packet make_udp(double t_s, std::uint16_t sport = 1000,
                        std::uint16_t dport = 53, std::size_t payload = 64,
                        TrafficLabel label = TrafficLabel::kBenign) {
  return PacketBuilder(Timestamp::from_seconds(t_s))
      .udp(ep(1, Ipv4Address(10, 0, 16, 2), sport),
           ep(2, Ipv4Address(8, 8, 8, 8), dport))
      .payload_size(payload)
      .label(label)
      .build();
}

// -------------------------------------------------------------- SpscRing

TEST(SpscRing, PushPopFifo) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_TRUE(!ring.try_push(99));
  int v;
  ASSERT_TRUE(ring.try_pop(v));
  EXPECT_TRUE(ring.try_push(99));  // slot freed
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.try_push(std::uint64_t(i)));
    std::uint64_t v;
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, expect++);
  }
}

TEST(SpscRing, TwoThreadStressPreservesSequence) {
  SpscRing<std::uint64_t> ring(1024);
  constexpr std::uint64_t kCount = 2'000'000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (ring.try_push(std::uint64_t(i))) ++i;
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t v;
  while (expected < kCount) {
    if (ring.try_pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------------------ Pcap

class PcapFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("campuslab_pcap_test_" +
             std::to_string(::getpid()) + "_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             ".pcap");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(PcapFixture, WriteReadRoundTrip) {
  auto writer = PcapWriter::open(path_.string());
  ASSERT_TRUE(writer.ok());
  std::vector<packet::Packet> sent;
  for (int i = 0; i < 50; ++i) {
    sent.push_back(make_udp(0.001 * i, static_cast<std::uint16_t>(1000 + i),
                            53, static_cast<std::size_t>(20 + i * 7)));
    ASSERT_TRUE(writer.value().write(sent.back()).ok());
  }
  ASSERT_TRUE(writer.value().flush().ok());
  EXPECT_EQ(writer.value().records_written(), 50u);

  auto reader = PcapReader::open(path_.string());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.value().nanosecond_resolution());
  auto all = reader.value().read_all();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(all.value()[i].ts, sent[i].ts);
    EXPECT_EQ(all.value()[i].copy_bytes(), sent[i].copy_bytes());
  }
}

TEST_F(PcapFixture, NanosecondTimestampsPreserved) {
  auto writer = PcapWriter::open(path_.string());
  ASSERT_TRUE(writer.ok());
  auto pkt = make_udp(0);
  pkt.ts = Timestamp::from_nanos(1'234'567'891'234'567);
  ASSERT_TRUE(writer.value().write(pkt).ok());
  ASSERT_TRUE(writer.value().flush().ok());

  auto reader = PcapReader::open(path_.string());
  ASSERT_TRUE(reader.ok());
  auto r = reader.value().next();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().has_value());
  EXPECT_EQ(r.value()->ts.nanos(), 1'234'567'891'234'567);
}

TEST_F(PcapFixture, SnaplenTruncates) {
  auto writer = PcapWriter::open(path_.string(), 100);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().write(make_udp(0, 1, 2, 600)).ok());
  ASSERT_TRUE(writer.value().flush().ok());
  auto reader = PcapReader::open(path_.string());
  ASSERT_TRUE(reader.ok());
  auto r = reader.value().next();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->size(), 100u);
}

TEST_F(PcapFixture, RejectsGarbageFile) {
  {
    std::ofstream out(path_);
    out << "this is not a pcap file at all, not even close";
  }
  EXPECT_FALSE(PcapReader::open(path_.string()).ok());
}

TEST_F(PcapFixture, MissingFileFails) {
  EXPECT_FALSE(PcapReader::open("/nonexistent/dir/x.pcap").ok());
}

TEST_F(PcapFixture, TruncatedRecordReported) {
  auto writer = PcapWriter::open(path_.string());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().write(make_udp(0)).ok());
  ASSERT_TRUE(writer.value().flush().ok());
  // Chop the file mid-record.
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 10);
  auto reader = PcapReader::open(path_.string());
  ASSERT_TRUE(reader.ok());
  auto r = reader.value().next();
  EXPECT_FALSE(r.ok());
}

// ------------------------------------------------------------- FlowMeter

// The parse-once entry point, fed a frame decoded here as the capture
// tap would.
void offer(FlowMeter& meter, const packet::Packet& pkt, Direction dir) {
  meter.offer(pkt, packet::PacketView(pkt), dir);
}

TEST(FlowMeter, AggregatesBidirectionalFlow) {
  FlowMeter meter;
  std::vector<FlowRecord> records;
  meter.set_sink([&](const FlowRecord& r) { records.push_back(r); });

  const auto a = ep(1, Ipv4Address(10, 0, 16, 2), 5555);
  const auto b = ep(2, Ipv4Address(1, 2, 3, 4), 80);
  // Forward SYN, reverse SYN-ACK, forward ACK + data.
  offer(meter, PacketBuilder(Timestamp::from_seconds(1.0))
                   .tcp(a, b, TcpFlags::kSyn)
                   .build(),
               Direction::kOutbound);
  offer(meter, PacketBuilder(Timestamp::from_seconds(1.05))
                   .tcp(b, a, TcpFlags::kSyn | TcpFlags::kAck)
                   .build(),
               Direction::kInbound);
  offer(meter, PacketBuilder(Timestamp::from_seconds(1.1))
                   .tcp(a, b, TcpFlags::kAck | TcpFlags::kPsh)
                   .payload_size(500)
                   .build(),
               Direction::kOutbound);
  EXPECT_EQ(meter.active_flows(), 1u);
  meter.flush();
  ASSERT_EQ(records.size(), 1u);
  const auto& r = records[0];
  EXPECT_EQ(r.packets, 3u);
  EXPECT_EQ(r.fwd_packets, 2u);
  EXPECT_EQ(r.rev_packets, 1u);
  EXPECT_EQ(r.syn_count, 1u);
  EXPECT_EQ(r.synack_count, 1u);
  EXPECT_EQ(r.psh_count, 1u);
  EXPECT_EQ(r.payload_bytes, 500u);
  EXPECT_EQ(r.initial_direction, Direction::kOutbound);
  EXPECT_EQ(r.tuple.src, a.ip);
  EXPECT_EQ(r.duration(), Duration::millis(100));
}

TEST(FlowMeter, IdleTimeoutEvicts) {
  FlowMeterConfig cfg;
  cfg.idle_timeout = Duration::seconds(2);
  FlowMeter meter(cfg);
  std::vector<FlowRecord> records;
  meter.set_sink([&](const FlowRecord& r) { records.push_back(r); });

  offer(meter, make_udp(1.0), Direction::kOutbound);
  offer(meter, make_udp(1.5), Direction::kOutbound);
  EXPECT_EQ(meter.active_flows(), 1u);
  meter.sweep(Timestamp::from_seconds(4.0));
  EXPECT_EQ(meter.active_flows(), 0u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].packets, 2u);
  EXPECT_EQ(meter.stats().flows_evicted_idle, 1u);
}

TEST(FlowMeter, ActiveTimeoutSplitsLongFlow) {
  FlowMeterConfig cfg;
  cfg.active_timeout = Duration::seconds(10);
  cfg.idle_timeout = Duration::seconds(60);
  FlowMeter meter(cfg);
  std::vector<FlowRecord> records;
  meter.set_sink([&](const FlowRecord& r) { records.push_back(r); });

  for (int i = 0; i <= 25; ++i)
    offer(meter, make_udp(1.0 * i), Direction::kOutbound);
  meter.flush();
  // 26 packets over 25s with a 10s active timeout -> >= 2 records.
  EXPECT_GE(records.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& r : records) total += r.packets;
  EXPECT_EQ(total, 26u);
}

TEST(FlowMeter, DistinctTuplesDistinctFlows) {
  FlowMeter meter;
  for (int i = 0; i < 10; ++i)
    offer(meter, make_udp(1.0, static_cast<std::uint16_t>(1000 + i)),
                 Direction::kOutbound);
  EXPECT_EQ(meter.active_flows(), 10u);
  EXPECT_EQ(meter.stats().flows_created, 10u);
}

TEST(FlowMeter, MajorityLabelAndDnsFlag) {
  FlowMeter meter;
  std::vector<FlowRecord> records;
  meter.set_sink([&](const FlowRecord& r) { records.push_back(r); });
  offer(meter, make_udp(1.0, 2000, 53, 64, TrafficLabel::kDnsAmplification),
               Direction::kInbound);
  offer(meter, make_udp(1.1, 2000, 53, 64, TrafficLabel::kDnsAmplification),
               Direction::kInbound);
  offer(meter, make_udp(1.2, 2000, 53, 64, TrafficLabel::kBenign),
               Direction::kInbound);
  meter.flush();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].majority_label(), TrafficLabel::kDnsAmplification);
  EXPECT_TRUE(records[0].saw_dns);
}

TEST(FlowMeter, AttackIfAnyLabelingBeatsBenignTies) {
  // A brute-force attempt: equal attack and benign (victim response)
  // packet counts must still label the flow as the attack.
  capture::FlowRecord f;
  f.label_packets[0] = 5;
  f.label_packets[static_cast<std::size_t>(
      TrafficLabel::kSshBruteForce)] = 5;
  EXPECT_EQ(f.majority_label(), TrafficLabel::kSshBruteForce);
  // Even a single attack packet taints the flow.
  capture::FlowRecord g;
  g.label_packets[0] = 100;
  g.label_packets[static_cast<std::size_t>(TrafficLabel::kPortScan)] = 1;
  EXPECT_EQ(g.majority_label(), TrafficLabel::kPortScan);
  // Pure benign stays benign.
  capture::FlowRecord h;
  h.label_packets[0] = 10;
  EXPECT_EQ(h.majority_label(), TrafficLabel::kBenign);
}

TEST(FlowMeter, CapacityCapEvictsIdlest) {
  FlowMeterConfig cfg;
  cfg.max_flows = 5;
  FlowMeter meter(cfg);
  std::vector<FlowRecord> records;
  meter.set_sink([&](const FlowRecord& r) { records.push_back(r); });
  for (int i = 0; i < 8; ++i)
    offer(meter, make_udp(1.0 + 0.1 * i, static_cast<std::uint16_t>(1000 + i)),
                 Direction::kOutbound);
  EXPECT_LE(meter.active_flows(), 5u);
  EXPECT_EQ(meter.stats().flows_evicted_capacity, 3u);
  // Sampled eviction: evicted entries are real completed flows.
  ASSERT_EQ(records.size(), 3u);
  for (const auto& r : records) {
    EXPECT_GE(r.tuple.src_port, 1000);
    EXPECT_LT(r.tuple.src_port, 1008);
  }
}

// Property: across random traffic, every offered IPv4 packet is
// accounted in exactly one evicted flow record (conservation).
TEST(FlowMeterProperty, PacketConservation) {
  FlowMeterConfig cfg;
  cfg.idle_timeout = Duration::seconds(5);
  cfg.active_timeout = Duration::seconds(20);
  FlowMeter meter(cfg);
  std::uint64_t recorded_packets = 0;
  std::uint64_t recorded_bytes = 0;
  meter.set_sink([&](const FlowRecord& r) {
    recorded_packets += r.packets;
    recorded_bytes += r.bytes;
  });
  Rng rng(0xC0A5);
  std::uint64_t offered_bytes = 0;
  constexpr int kPackets = 20000;
  for (int i = 0; i < kPackets; ++i) {
    const auto pkt = make_udp(
        rng.uniform(0, 300),
        static_cast<std::uint16_t>(1000 + rng.below(50)),
        static_cast<std::uint16_t>(rng.chance(0.5) ? 53 : 443),
        rng.below(800));
    offered_bytes += pkt.size();
    offer(meter, pkt, rng.chance(0.5) ? Direction::kInbound
                                      : Direction::kOutbound);
  }
  meter.flush();
  EXPECT_EQ(recorded_packets, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(recorded_bytes, offered_bytes);
  EXPECT_EQ(meter.stats().packets_seen,
            static_cast<std::uint64_t>(kPackets));
}

TEST(FlowMeter, NonIpCounted) {
  FlowMeter meter;
  packet::Packet junk;
  junk.ts = Timestamp::from_seconds(1);
  junk.assign(60, 0xEE);
  offer(meter, junk, Direction::kInbound);
  EXPECT_EQ(meter.stats().non_ip_packets, 1u);
  EXPECT_EQ(meter.active_flows(), 0u);
}

// ------------------------------------------- ShardedCaptureEngine, 1 shard

TEST(ShardedCaptureEngine, DeliversToAllSinksInOrder) {
  ShardedCaptureEngine engine({.shards = 1});
  std::vector<std::uint16_t> seen_a, seen_b;
  engine.add_sink_factory([&](std::size_t) {
    return [&](const DecodedPacket& t) {
      seen_a.push_back(t.view.five_tuple()->src_port);
    };
  });
  engine.add_sink_factory([&](std::size_t) {
    return [&](const DecodedPacket& t) {
      seen_b.push_back(t.view.five_tuple()->src_port);
    };
  });
  for (int i = 0; i < 20; ++i)
    engine.offer(make_udp(0.01 * i, static_cast<std::uint16_t>(3000 + i)),
                 Direction::kInbound);
  EXPECT_EQ(engine.drain(), 20u);
  ASSERT_EQ(seen_a.size(), 20u);
  EXPECT_EQ(seen_a, seen_b);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(seen_a[static_cast<std::size_t>(i)], 3000 + i);
}

TEST(ShardedCaptureEngine, DropsWhenRingFullAndCounts) {
  ShardedCaptureEngine engine({.shards = 1, .ring_capacity = 8});
  int accepted = 0;
  for (int i = 0; i < 20; ++i)
    if (engine.offer(make_udp(0.01 * i), Direction::kInbound)) ++accepted;
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(engine.stats().offered, 20u);
  EXPECT_EQ(engine.stats().accepted, 8u);
  EXPECT_EQ(engine.stats().dropped, 12u);
  EXPECT_NEAR(engine.stats().loss_rate(), 0.6, 1e-12);
  EXPECT_EQ(engine.drain(), 8u);
  EXPECT_EQ(engine.stats().consumed, 8u);
}

TEST(ShardedCaptureEngine, PollBatchesBounded) {
  ShardedCaptureEngine engine({.shards = 1});
  for (int i = 0; i < 100; ++i)
    engine.offer(make_udp(0.001 * i), Direction::kInbound);
  EXPECT_EQ(engine.poll_shard(0, 30), 30u);
  EXPECT_EQ(engine.ring_occupancy(0), 70u);
  EXPECT_EQ(engine.drain(), 70u);
}

// ------------------------------------------- Integration with simulator

TEST(CaptureIntegration, SimToFlowRecordsWithLabels) {
  sim::ScenarioConfig scenario;
  scenario.campus.seed = 21;
  scenario.campus.diurnal = false;
  scenario.scenarios.push_back(
      sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
          .rate(1000)
          .starting_at(Timestamp::from_seconds(2))
          .lasting(Duration::seconds(5)));
  sim::CampusSimulator simulator(scenario);

  ShardedCaptureEngine engine({.shards = 1});
  FlowMeter meter;
  std::vector<FlowRecord> flows;
  meter.set_sink([&](const FlowRecord& r) { flows.push_back(r); });
  engine.add_sink_factory([&](std::size_t) {
    return [&](const DecodedPacket& t) { meter.offer(t.pkt, t.view, t.dir); };
  });
  simulator.network().set_tap(
      [&](const packet::Packet& p, Direction d) {
        engine.offer(p, d);
        engine.poll_shard(0, 64);  // consume inline: same-thread capture
      });
  simulator.run_for(Duration::seconds(10));
  engine.drain();
  meter.flush();

  ASSERT_GT(flows.size(), 50u);
  std::size_t attack_flows = 0, benign_flows = 0;
  for (const auto& f : flows) {
    EXPECT_GT(f.packets, 0u);
    EXPECT_GE(f.last_ts, f.first_ts);
    if (is_attack(f.majority_label())) ++attack_flows;
    else ++benign_flows;
  }
  EXPECT_GT(attack_flows, 0u);
  EXPECT_GT(benign_flows, 20u);
  EXPECT_EQ(engine.stats().dropped, 0u);  // lossless at this load
}

}  // namespace
}  // namespace campuslab::capture
