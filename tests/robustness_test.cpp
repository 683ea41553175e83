// Robustness / failure-injection tests — the parsers and pipelines must
// be total functions over arbitrary bytes (a capture appliance eats
// whatever the wire delivers):
//   - PacketView over random and truncated frames never reads OOB and
//     never claims validity it can't back up
//   - DNS parser over random payloads and bit-flipped real messages
//   - pcap reader over corrupted files
//   - capture pipeline under pathological overload (1-slot ring)
//   - store/flow meter fed hostile flows
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unistd.h>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/capture/pcap.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/packet/builder.h"
#include "campuslab/store/datastore.h"
#include "campuslab/util/rng.h"

namespace campuslab {
namespace {

using packet::Ipv4Address;
using packet::PacketView;

TEST(FuzzPacketView, RandomBytesNeverCrash) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> frame(rng.below(200));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
    PacketView view{std::span<const std::uint8_t>(frame)};
    if (view.valid()) {
      // Whatever validity claims, accessors must be consistent.
      EXPECT_TRUE(view.is_ipv4() || view.is_ipv6());
      if (view.is_ipv4() && (view.is_tcp() || view.is_udp())) {
        EXPECT_TRUE(view.five_tuple().has_value());
      }
      EXPECT_LE(view.payload().size(), frame.size());
    }
  }
}

TEST(FuzzPacketView, TruncatedRealFramesDegradeGracefully) {
  using namespace packet;
  const auto full = PacketBuilder(Timestamp::from_seconds(1))
                        .tcp(Endpoint{MacAddress::from_id(1),
                                      Ipv4Address(10, 0, 16, 2), 5000},
                             Endpoint{MacAddress::from_id(2),
                                      Ipv4Address(1, 1, 1, 1), 443},
                             TcpFlags::kSyn)
                        .payload_size(100)
                        .build();
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    PacketView view{full.bytes().first(cut)};
    // Must never crash; below the full L2+L3+L4 headers it must not
    // claim a TCP layer.
    if (cut < packet::EthernetHeader::kSize + 20 + 20) {
      EXPECT_FALSE(view.valid() && view.is_tcp());
    }
  }
}

TEST(FuzzPacketView, BitFlippedRealFramesNeverCrash) {
  using namespace packet;
  Rng rng(0xF1E5);
  const auto base = PacketBuilder(Timestamp::from_seconds(1))
                        .udp(Endpoint{MacAddress::from_id(1),
                                      Ipv4Address(10, 0, 16, 2), 5000},
                             Endpoint{MacAddress::from_id(2),
                                      Ipv4Address(8, 8, 8, 8), 53})
                        .payload_size(64)
                        .build();
  for (int trial = 0; trial < 10000; ++trial) {
    auto mutated = base.copy_bytes();
    const int flips = 1 + static_cast<int>(rng.below(16));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    PacketView view{std::span<const std::uint8_t>(mutated)};
    if (view.valid() && view.is_udp()) {
      EXPECT_LE(view.payload().size(), mutated.size());
    }
  }
}

TEST(FuzzDns, RandomPayloadsNeverCrash) {
  Rng rng(0xD45F);
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> payload(rng.below(120));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    const auto result = packet::DnsMessage::parse(payload);
    if (result.ok()) {
      // Anything accepted must re-serialize without crashing.
      (void)result.value().serialize();
    }
  }
}

TEST(FuzzDns, BitFlippedRealMessages) {
  Rng rng(0xD46A);
  const auto query = packet::make_dns_query(0x7777, "fuzz.campus.edu",
                                            packet::DnsType::kAny);
  const auto resp = packet::make_dns_response(query, 3, 600);
  const auto bytes = resp.serialize();
  for (int trial = 0; trial < 5000; ++trial) {
    auto mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.below(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    }
    const auto result = packet::DnsMessage::parse(mutated);
    if (result.ok()) (void)result.value().serialize();
  }
}

TEST(FuzzPcap, CorruptedFilesFailCleanly) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = dir / ("campuslab_fuzz_" +
                           std::to_string(::getpid()) + ".pcap");
  Rng rng(0x9CA1);
  for (int trial = 0; trial < 200; ++trial) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      std::vector<char> junk(rng.below(400));
      for (auto& b : junk) b = static_cast<char>(rng.next());
      // Half the trials start with a valid magic to reach deeper code.
      if (rng.chance(0.5) && junk.size() >= 4) {
        junk[0] = '\x4d';
        junk[1] = '\x3c';
        junk[2] = '\xb2';
        junk[3] = '\xa1';
      }
      out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    auto reader = capture::PcapReader::open(path.string());
    if (reader.ok()) {
      for (int i = 0; i < 64; ++i) {
        auto r = reader.value().next();
        if (!r.ok() || !r.value().has_value()) break;
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(OverloadCapture, OneSlotRingStillAccountsExactly) {
  capture::ShardedCaptureEngine engine({.shards = 1, .ring_capacity = 1});
  std::uint64_t seen = 0;
  engine.add_sink_factory([&](std::size_t) {
    return [&](const capture::DecodedPacket&) { ++seen; };
  });
  using namespace packet;
  const auto pkt = PacketBuilder(Timestamp::from_seconds(1))
                       .udp(Endpoint{MacAddress::from_id(1),
                                     Ipv4Address(10, 0, 16, 2), 1},
                            Endpoint{MacAddress::from_id(2),
                                     Ipv4Address(8, 8, 8, 8), 53})
                       .build();
  for (int i = 0; i < 1000; ++i) {
    engine.offer(pkt, sim::Direction::kInbound);
    if (i % 3 == 0) engine.poll_shard(0, 1);
  }
  engine.drain();
  const auto& s = engine.stats();
  EXPECT_EQ(s.offered, 1000u);
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
  EXPECT_EQ(s.consumed, s.accepted);
  EXPECT_EQ(seen, s.consumed);
}

TEST(OverloadCapture, OneSlotShardedRingAccountsExactlyUnderConcurrentStop) {
  // The sharded pipeline's worst case: pathological 1-slot rings, a
  // producer hammering offers, and stop() racing the producer instead
  // of waiting for it. Whatever interleaving happens, the quiesced
  // accounting identities must be EXACT — every offered frame is
  // accepted or dropped, every accepted frame is consumed or abandoned.
  capture::ShardedCaptureEngine engine({.shards = 2, .ring_capacity = 1});
  std::atomic<std::uint64_t> seen{0};
  engine.add_sink_factory([&seen](std::size_t) {
    return [&seen](const capture::DecodedPacket&) { ++seen; };
  });
  using namespace packet;
  engine.start();
  std::atomic<bool> stop_offering{false};
  std::uint64_t offers = 0;
  std::thread producer([&] {
    Rng rng(0xC0);
    while (!stop_offering.load(std::memory_order_acquire)) {
      (void)engine.offer(
          PacketBuilder(Timestamp::from_nanos(static_cast<std::int64_t>(
                            1000 + offers)))
              .udp(Endpoint{MacAddress::from_id(1),
                            Ipv4Address(10, 0, 16, 2),
                            static_cast<std::uint16_t>(rng.below(60000))},
                   Endpoint{MacAddress::from_id(2), Ipv4Address(8, 8, 8, 8),
                            53})
              .build(),
          sim::Direction::kInbound);
      ++offers;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.stop();  // races the still-running producer
  stop_offering.store(true, std::memory_order_release);
  producer.join();
  engine.drain();  // frames offered after the workers left

  const auto s = engine.stats();
  EXPECT_EQ(s.offered, offers);
  EXPECT_EQ(s.accepted + s.dropped, s.offered);
  EXPECT_EQ(s.consumed + s.abandoned, s.accepted);
  EXPECT_GT(s.dropped, 0u);  // 1-slot rings under pressure must drop
  EXPECT_EQ(seen.load(), s.consumed);
  EXPECT_LE(s.drained_on_stop, s.consumed);
}

TEST(OverloadFlowMeter, MillionDistinctFlowsStayBounded) {
  capture::FlowMeterConfig cfg;
  cfg.max_flows = 10'000;
  capture::FlowMeter meter(cfg);
  std::uint64_t evicted = 0;
  meter.set_sink([&](const capture::FlowRecord&) { ++evicted; });
  using namespace packet;
  Rng rng(0xF70);
  for (int i = 0; i < 100'000; ++i) {
    const Endpoint src{MacAddress::from_id(1),
                       Ipv4Address(static_cast<std::uint32_t>(rng.next())),
                       static_cast<std::uint16_t>(rng.below(65536))};
    const Endpoint dst{MacAddress::from_id(2),
                       Ipv4Address(10, 0, 16, 2),
                       static_cast<std::uint16_t>(rng.below(65536))};
    const auto pkt =
        PacketBuilder(Timestamp::from_nanos(i * 1000)).udp(src, dst).build();
    meter.offer(pkt, PacketView(pkt), sim::Direction::kInbound);
    ASSERT_LE(meter.active_flows(), 10'000u);
  }
  EXPECT_GT(evicted, 80'000u);
  EXPECT_EQ(meter.stats().flows_created, 100'000u);
}

TEST(HostileStore, ExtremeValuesDontBreakIndexesOrCatalog) {
  store::DataStore store;
  capture::FlowRecord f;
  f.tuple = packet::FiveTuple{Ipv4Address(0xFFFFFFFF),
                              Ipv4Address(0), 65535, 0, 255};
  f.first_ts = Timestamp::from_nanos(
      std::numeric_limits<std::int64_t>::max() / 2);
  f.last_ts = f.first_ts;
  f.packets = std::numeric_limits<std::uint32_t>::max();
  f.bytes = std::numeric_limits<std::uint64_t>::max() / 4;
  store.ingest(f);
  capture::FlowRecord zero{};
  store.ingest(zero);

  store::FlowQuery q;
  q.about_host(Ipv4Address(0xFFFFFFFF));
  EXPECT_EQ(store.query(q).size(), 1u);
  const auto cat = store.catalog();
  EXPECT_EQ(cat.total_flows, 2u);
  EXPECT_GE(cat.latest, cat.earliest);
}

TEST(HostileFeatures, ExtractorSurvivesGarbageAndExtremes) {
  features::StatefulFeatureExtractor extractor;
  Rng rng(0xFEA7);
  for (int i = 0; i < 5000; ++i) {
    packet::Packet junk;
    junk.ts = Timestamp::from_nanos(i);
    junk.resize(rng.below(128));
    for (auto& b : junk.mutable_bytes())
      b = static_cast<std::uint8_t>(rng.next());
    const auto x = extractor.extract(junk, packet::PacketView(junk),
                                     sim::Direction::kInbound);
    for (const auto v : x) EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace campuslab
