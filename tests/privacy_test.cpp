// Tests for campuslab::privacy — the prefix-preservation property of
// the anonymizer (the load-bearing invariant, checked exhaustively on
// random pairs), port-permutation bijectivity, payload policy
// application on real frames, and role arbitration through the gate.
#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "campuslab/packet/builder.h"
#include "campuslab/privacy/anonymize.h"
#include "campuslab/privacy/gate.h"
#include "campuslab/privacy/policy.h"
#include "campuslab/util/rng.h"

namespace campuslab::privacy {
namespace {

using packet::Ipv4Address;
using packet::TrafficLabel;

int common_prefix_len(Ipv4Address a, Ipv4Address b) {
  const std::uint32_t x = a.value() ^ b.value();
  return x == 0 ? 32 : std::countl_zero(x);
}

// ------------------------------------------------------------ Anonymizer

TEST(Anonymizer, Deterministic) {
  PrefixPreservingAnonymizer a(42), b(42);
  const Ipv4Address addr(10, 1, 16, 7);
  EXPECT_EQ(a.anonymize(addr), b.anonymize(addr));
  EXPECT_EQ(a.anonymize(addr), a.anonymize(addr));
}

TEST(Anonymizer, DifferentKeysDifferentMappings) {
  PrefixPreservingAnonymizer a(1), b(2);
  int same = 0;
  for (std::uint32_t i = 0; i < 100; ++i) {
    const Ipv4Address addr(0x0A000000 + i * 7919);
    if (a.anonymize(addr) == b.anonymize(addr)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Anonymizer, ChangesTheAddress) {
  PrefixPreservingAnonymizer a(7);
  int unchanged = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const Ipv4Address addr(i * 2654435761u);
    if (a.anonymize(addr) == addr) ++unchanged;
  }
  EXPECT_LT(unchanged, 2);  // ~2^-32 each; essentially never
}

// The core Crypto-PAn property: common prefix length is exactly
// preserved for every pair.
TEST(AnonymizerProperty, PrefixLengthExactlyPreserved) {
  PrefixPreservingAnonymizer anon(0xFEED);
  Rng rng(31337);
  for (int trial = 0; trial < 5000; ++trial) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.next()));
    // Construct b sharing exactly k bits with a.
    const int k = static_cast<int>(rng.below(33));
    std::uint32_t bv;
    if (k == 32) {
      bv = a.value();
    } else {
      const std::uint32_t flip_bit = 1u << (31 - k);
      const std::uint32_t low_mask = flip_bit - 1;
      bv = (a.value() & ~(flip_bit | low_mask))     // top k bits equal
           | ((a.value() & flip_bit) ^ flip_bit)    // bit k flipped
           | (static_cast<std::uint32_t>(rng.next()) & low_mask);
    }
    const Ipv4Address b(bv);
    const int before = common_prefix_len(a, b);
    const int after = common_prefix_len(anon.anonymize(a),
                                        anon.anonymize(b));
    EXPECT_EQ(before, after)
        << a.to_string() << " vs " << b.to_string();
  }
}

TEST(Anonymizer, InjectiveOnSubnet) {
  // Prefix preservation implies injectivity; verify directly on a /16.
  PrefixPreservingAnonymizer anon(99);
  std::set<std::uint32_t> images;
  for (std::uint32_t host = 0; host < 4096; ++host) {
    images.insert(anon.anonymize(Ipv4Address(0x0A010000 + host)).value());
  }
  EXPECT_EQ(images.size(), 4096u);
}

TEST(Anonymizer, SubnetStructureSurvives) {
  // All hosts of one /24 map into one anonymized /24.
  PrefixPreservingAnonymizer anon(5);
  const auto first = anon.anonymize(Ipv4Address(10, 1, 16, 1));
  for (std::uint32_t host = 2; host < 255; ++host) {
    const auto mapped = anon.anonymize(Ipv4Address(0x0A011000 + host));
    EXPECT_GE(common_prefix_len(first, mapped), 24);
  }
}

TEST(Anonymizer, PortPermutationBijectiveAndClassPreserving) {
  PrefixPreservingAnonymizer anon(12345);
  std::set<std::uint16_t> low_images, high_images;
  for (std::uint32_t p = 0; p < 1024; ++p) {
    const auto m = anon.anonymize_port(static_cast<std::uint16_t>(p));
    EXPECT_LT(m, 1024);  // well-known stays well-known
    low_images.insert(m);
  }
  EXPECT_EQ(low_images.size(), 1024u);  // bijective on the class
  for (std::uint32_t p = 1024; p < 1024 + 5000; ++p) {
    const auto m = anon.anonymize_port(static_cast<std::uint16_t>(p));
    EXPECT_GE(m, 1024);
    high_images.insert(m);
  }
  EXPECT_EQ(high_images.size(), 5000u);
}

TEST(Anonymizer, CachedMatchesUncached) {
  PrefixPreservingAnonymizer plain(77);
  CachedAnonymizer cached(77);
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Ipv4Address addr(static_cast<std::uint32_t>(rng.next()));
    EXPECT_EQ(cached.anonymize(addr), plain.anonymize(addr));
    EXPECT_EQ(cached.anonymize(addr), plain.anonymize(addr));  // hit path
  }
  EXPECT_LE(cached.cache_size(), 200u);
}

// --------------------------------------------------------- PayloadPolicy

packet::Packet make_frame(std::uint16_t dport, std::size_t payload) {
  using namespace packet;
  return PacketBuilder(Timestamp::from_seconds(1))
      .udp(Endpoint{MacAddress::from_id(1), Ipv4Address(10, 0, 16, 2), 5555},
           Endpoint{MacAddress::from_id(2), Ipv4Address(1, 2, 3, 4), dport})
      .payload_size(payload)
      .build();
}

TEST(PayloadPolicy, KeepLeavesPayloadIntact) {
  auto pkt = make_frame(53, 200);
  const auto original = pkt.copy_bytes();
  PayloadPolicy::conservative().apply(pkt, packet::PacketView(pkt), 1);
  // DNS is kKeep in the conservative policy
  EXPECT_EQ(pkt.copy_bytes(), original);
}

TEST(PayloadPolicy, TruncateShortensFrame) {
  auto pkt = make_frame(443, 500);
  const auto before = pkt.size();
  PayloadPolicy::conservative().apply(pkt, packet::PacketView(pkt), 1);
  EXPECT_LT(pkt.size(), before);
  packet::PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  // 64 bytes remain per the web rule... but header lengths still claim
  // the original payload (snaplen-style truncation).
  EXPECT_EQ(pkt.size(), before - 500 + 64);
}

TEST(PayloadPolicy, StripRemovesPayload) {
  auto pkt = make_frame(22, 300);
  PayloadPolicy::conservative().apply(pkt, packet::PacketView(pkt), 1);
  // Frame now ends right after the UDP header.
  EXPECT_EQ(pkt.size(),
            packet::EthernetHeader::kSize + 20 + packet::UdpHeader::kSize);
}

TEST(PayloadPolicy, HashReplacesButKeepsLength) {
  PayloadPolicy policy;
  policy.set_default(PayloadAction::kHash);
  auto pkt = make_frame(9999, 64);
  const auto before = pkt.copy_bytes();
  policy.apply(pkt, packet::PacketView(pkt), 42);
  EXPECT_EQ(pkt.size(), before.size());
  EXPECT_NE(pkt.copy_bytes(), before);
  // Identical payloads hash identically (correlation preserved)...
  auto pkt2 = make_frame(9999, 64);
  policy.apply(pkt2, packet::PacketView(pkt2), 42);
  const auto digest = pkt.copy_bytes();
  const auto digest2 = pkt2.copy_bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(digest.end() - 16, digest.end()),
            std::vector<std::uint8_t>(digest2.end() - 16, digest2.end()));
  // ...but a different key gives a different digest.
  auto pkt3 = make_frame(9999, 64);
  policy.apply(pkt3, packet::PacketView(pkt3), 43);
  EXPECT_NE(pkt.copy_bytes(), pkt3.copy_bytes());
}

TEST(PayloadPolicy, ActionLookupPrefersServicePort) {
  const auto policy = PayloadPolicy::conservative();
  EXPECT_EQ(policy.action_for(53211, 22), PayloadAction::kStrip);
  EXPECT_EQ(policy.action_for(22, 53211), PayloadAction::kStrip);
  EXPECT_EQ(policy.action_for(50000, 50001), PayloadAction::kTruncate);
}

// ------------------------------------------------------------------ Gate

capture::FlowRecord gate_flow(double t, Ipv4Address src, Ipv4Address dst,
                              TrafficLabel label = TrafficLabel::kBenign) {
  capture::FlowRecord f;
  f.tuple = packet::FiveTuple{src, dst, 50123, 443, 6};
  f.first_ts = Timestamp::from_seconds(t);
  f.last_ts = Timestamp::from_seconds(t + 1);
  f.packets = 5;
  f.bytes = 1200;
  f.label_packets[static_cast<std::size_t>(label)] = 5;
  return f;
}

class GateFixture : public ::testing::Test {
 protected:
  GateFixture()
      : gate_(store_, AccessPolicy::campus_default(), 0xABCD) {
    store_.ingest(gate_flow(100, Ipv4Address(10, 1, 16, 9),
                            Ipv4Address(93, 184, 216, 34)));
    store_.ingest(gate_flow(200, Ipv4Address(10, 1, 16, 10),
                            Ipv4Address(8, 8, 8, 8),
                            TrafficLabel::kDnsAmplification));
  }
  store::DataStore store_;
  PrivacyGate gate_;
  const Timestamp now_ = Timestamp::from_seconds(1000);
};

TEST_F(GateFixture, ExternalIsDenied) {
  const auto r = gate_.query(store::FlowQuery{}, Role::kExternal, "rival",
                             now_);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "denied");
}

TEST_F(GateFixture, OperatorSeesRawAddresses) {
  auto r = gate_.query(store::FlowQuery{}, Role::kOperator, "noc", now_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0].flow.tuple.src, Ipv4Address(10, 1, 16, 9));
}

TEST_F(GateFixture, ResearcherGetsAnonymizedButConsistentView) {
  auto r = gate_.query(store::FlowQuery{}, Role::kResearcher, "phd", now_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  // Raw campus addresses must not appear.
  EXPECT_NE(r.value()[0].flow.tuple.src, Ipv4Address(10, 1, 16, 9));
  // Prefix structure survives: both campus sources share a long prefix.
  const auto a = r.value()[0].flow.tuple.src;
  const auto b = r.value()[1].flow.tuple.src;
  EXPECT_GE(common_prefix_len(a, b), 24);
  // Labels remain visible to researchers (that's the point of the store).
  EXPECT_EQ(r.value()[1].flow.majority_label(),
            TrafficLabel::kDnsAmplification);
}

TEST_F(GateFixture, ResearcherCannotFilterByRawHost) {
  store::FlowQuery q;
  q.about_host(Ipv4Address(10, 1, 16, 9));
  const auto r = gate_.query(q, Role::kResearcher, "phd", now_);
  EXPECT_FALSE(r.ok());
}

TEST_F(GateFixture, AuditorGetsNoLabels) {
  auto r = gate_.query(store::FlowQuery{}, Role::kAuditor, "oac", now_);
  ASSERT_TRUE(r.ok());
  for (const auto& flow : r.value()) {
    EXPECT_EQ(flow.flow.majority_label(), TrafficLabel::kBenign);
    EXPECT_EQ(flow.flow.label_packets[1], 0u);
  }
}

TEST_F(GateFixture, WindowClippedToRole) {
  AccessPolicy policy = AccessPolicy::campus_default();
  AccessRights tight{true, true, true, true, Duration::seconds(850)};
  policy.set_rights(Role::kOperator, tight);
  PrivacyGate gate(store_, policy, 1);
  // now=1000, window 850 -> horizon t=150: only the t=200 flow visible.
  auto r = gate.query(store::FlowQuery{}, Role::kOperator, "noc", now_);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_EQ(r.value()[0].flow.first_ts, Timestamp::from_seconds(200));
}

TEST_F(GateFixture, AuditTrailRecordsEverything) {
  (void)gate_.query(store::FlowQuery{}, Role::kOperator, "noc", now_);
  (void)gate_.query(store::FlowQuery{}, Role::kExternal, "rival", now_);
  ASSERT_EQ(gate_.audit_log().size(), 2u);
  EXPECT_TRUE(gate_.audit_log()[0].granted);
  EXPECT_EQ(gate_.audit_log()[0].results, 2u);
  EXPECT_FALSE(gate_.audit_log()[1].granted);
  EXPECT_EQ(gate_.audit_log()[1].requester, "rival");
}

}  // namespace
}  // namespace campuslab::privacy
