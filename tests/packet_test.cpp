// Unit + property tests for campuslab::packet — addresses, checksums,
// header encode/decode round-trips, DNS (including compression pointers
// and malformed-input rejection), PacketBuilder frames, and PacketView
// layered decoding.
#include <gtest/gtest.h>

#include "campuslab/packet/addr.h"
#include "campuslab/packet/builder.h"
#include "campuslab/packet/checksum.h"
#include "campuslab/packet/dns.h"
#include "campuslab/packet/headers.h"
#include "campuslab/packet/view.h"
#include "campuslab/util/rng.h"

namespace campuslab::packet {
namespace {

Endpoint make_ep(std::uint32_t id, Ipv4Address ip, std::uint16_t port) {
  return Endpoint{MacAddress::from_id(id), ip, port};
}

// ------------------------------------------------------------- Addresses

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  const auto a = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.1.2.3");
  EXPECT_EQ(a->value(), 0x0A010203u);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("10..2.3").has_value());
}

TEST(Ipv4Address, PrefixMembership) {
  const Ipv4Address net(10, 2, 0, 0);
  EXPECT_TRUE(Ipv4Address(10, 2, 3, 4).in_prefix(net, 16));
  EXPECT_FALSE(Ipv4Address(10, 3, 0, 1).in_prefix(net, 16));
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 1).in_prefix(net, 0));
  const Ipv4Address host(10, 2, 3, 4);
  EXPECT_TRUE(host.in_prefix(host, 32));
  EXPECT_FALSE(Ipv4Address(10, 2, 3, 5).in_prefix(host, 32));
}

TEST(MacAddress, FromIdStableAndLocal) {
  const auto m = MacAddress::from_id(0x01020304);
  EXPECT_EQ(m, MacAddress::from_id(0x01020304));
  EXPECT_EQ(m.octets()[0] & 0x02, 0x02);  // locally administered
  EXPECT_EQ(m.octets()[0] & 0x01, 0x00);  // unicast
  EXPECT_EQ(m.to_string(), "02:c1:01:02:03:04");
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  const FiveTuple t{Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1000,
                    53, 17};
  const auto r = t.reversed();
  EXPECT_EQ(r.src, t.dst);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, BidirectionalCanonical) {
  const FiveTuple t{Ipv4Address(9, 9, 9, 9), Ipv4Address(2, 2, 2, 2), 1000,
                    53, 17};
  EXPECT_EQ(t.bidirectional(), t.reversed().bidirectional());
}

TEST(FiveTuple, HashSpreads) {
  // Property: nearby tuples hash to distinct values.
  std::set<std::uint64_t> hashes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    FiveTuple t{Ipv4Address(0x0A000000 + i), Ipv4Address(2, 2, 2, 2),
                static_cast<std::uint16_t>(1024 + i), 80, 6};
    hashes.insert(t.hash());
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

// -------------------------------------------------------------- Checksum

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  const std::array<std::uint8_t, 8> data{0x00, 0x01, 0xf2, 0x03,
                                         0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xddf2));
}

TEST(Checksum, OddLength) {
  const std::array<std::uint8_t, 3> data{0x01, 0x02, 0x03};
  // 0x0102 + 0x0300 = 0x0402 -> ~ = 0xFBFD
  EXPECT_EQ(internet_checksum(data), 0xFBFD);
}

TEST(Checksum, ChunkedEqualsWhole) {
  Rng rng(5);
  std::vector<std::uint8_t> data(257);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  ChecksumAccumulator chunked;
  chunked.add(std::span(data).first(101));
  chunked.add(std::span(data).subspan(101, 55));
  chunked.add(std::span(data).subspan(156));
  EXPECT_EQ(chunked.finish(), internet_checksum(data));
}

TEST(Checksum, VerifyingCorrectPacketYieldsZero) {
  // A buffer with its own checksum embedded sums to 0xFFFF -> finish 0.
  Ipv4Header ip;
  ip.total_length = 40;
  ip.protocol = 6;
  ip.src = Ipv4Address(10, 0, 0, 1);
  ip.dst = Ipv4Address(10, 0, 0, 2);
  ByteWriter w;
  ip.encode(w);
  EXPECT_EQ(internet_checksum(w.view()), 0);
}

// ---------------------------------------------------------------- Headers

TEST(Headers, EthernetRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_id(7);
  h.src = MacAddress::from_id(9);
  h.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), EthernetHeader::kSize);
  ByteReader r(w.view());
  const auto d = EthernetHeader::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.ether_type, h.ether_type);
}

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header h;
  h.dscp_ecn = 0x2E;
  h.total_length = 1500;
  h.identification = 0xBEEF;
  h.flags = 0x2;
  h.ttl = 17;
  h.protocol = 17;
  h.src = Ipv4Address(172, 16, 5, 9);
  h.dst = Ipv4Address(8, 8, 8, 8);
  ByteWriter w;
  h.encode(w);
  ByteReader r(w.view());
  const auto d = Ipv4Header::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.version, 4);
  EXPECT_EQ(d.ihl, 5);
  EXPECT_EQ(d.dscp_ecn, h.dscp_ecn);
  EXPECT_EQ(d.total_length, h.total_length);
  EXPECT_EQ(d.identification, h.identification);
  EXPECT_EQ(d.flags, h.flags);
  EXPECT_EQ(d.ttl, h.ttl);
  EXPECT_EQ(d.protocol, h.protocol);
  EXPECT_EQ(d.src, h.src);
  EXPECT_EQ(d.dst, h.dst);
  EXPECT_EQ(d.header_checksum, d.compute_checksum());
}

TEST(Headers, Ipv6RoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0xAB;
  h.flow_label = 0x12345;
  h.payload_length = 333;
  h.next_header = 6;
  h.hop_limit = 55;
  std::array<std::uint8_t, 16> src{};
  src[0] = 0x20;
  src[15] = 0x01;
  h.src = Ipv6Address(src);
  ByteWriter w;
  h.encode(w);
  EXPECT_EQ(w.size(), Ipv6Header::kSize);
  ByteReader r(w.view());
  const auto d = Ipv6Header::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.traffic_class, h.traffic_class);
  EXPECT_EQ(d.flow_label, h.flow_label);
  EXPECT_EQ(d.payload_length, h.payload_length);
  EXPECT_EQ(d.next_header, h.next_header);
  EXPECT_EQ(d.hop_limit, h.hop_limit);
  EXPECT_EQ(d.src, h.src);
}

TEST(Headers, TcpRoundTripAndFlags) {
  TcpHeader h;
  h.src_port = 443;
  h.dst_port = 51515;
  h.seq = 0xCAFEBABE;
  h.ack = 0x10203040;
  h.flags = TcpFlags::kSyn | TcpFlags::kAck;
  h.window = 29200;
  ByteWriter w;
  h.encode(w);
  ByteReader r(w.view());
  const auto d = TcpHeader::decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(d.src_port, h.src_port);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.ack, h.ack);
  EXPECT_TRUE(d.syn());
  EXPECT_TRUE(d.ack_flag());
  EXPECT_FALSE(d.fin());
  EXPECT_FALSE(d.rst());
  EXPECT_EQ(d.window, h.window);
}

TEST(Headers, UdpIcmpRoundTrip) {
  UdpHeader u;
  u.src_port = 5353;
  u.dst_port = 53;
  u.length = 128;
  ByteWriter wu;
  u.encode(wu);
  ByteReader ru(wu.view());
  const auto du = UdpHeader::decode(ru);
  EXPECT_EQ(du.src_port, 5353);
  EXPECT_EQ(du.length, 128);

  IcmpHeader ic;
  ic.type = IcmpHeader::kEchoRequest;
  ic.rest = 0x00010002;
  ByteWriter wi;
  ic.encode(wi);
  ByteReader ri(wi.view());
  const auto di = IcmpHeader::decode(ri);
  EXPECT_EQ(di.type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(di.rest, 0x00010002u);
}

TEST(Headers, DecodeTruncatedFails) {
  const std::array<std::uint8_t, 10> tiny{};
  ByteReader r(tiny);
  (void)Ipv4Header::decode(r);
  EXPECT_FALSE(r.ok());
}

// -------------------------------------------------------------------- DNS

TEST(Dns, QueryRoundTrip) {
  const auto q = make_dns_query(0x1234, "www.example.edu", DnsType::kAny);
  const auto bytes = q.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  EXPECT_EQ(m.id, 0x1234);
  EXPECT_FALSE(m.is_response);
  EXPECT_TRUE(m.recursion_desired);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.questions[0].name, "www.example.edu");
  EXPECT_EQ(m.questions[0].qtype, static_cast<std::uint16_t>(DnsType::kAny));
}

TEST(Dns, ResponseRoundTripPreservesAnswers) {
  const auto q = make_dns_query(7, "big.example.edu", DnsType::kTxt);
  const auto resp = make_dns_response(q, 4, 1200);
  const auto bytes = resp.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  EXPECT_TRUE(m.is_response);
  EXPECT_EQ(m.id, 7);
  EXPECT_EQ(m.answers.size(), 4u);
  for (const auto& a : m.answers)
    EXPECT_EQ(a.name, "big.example.edu");
}

TEST(Dns, ResponseApproachesTargetSize) {
  const auto q = make_dns_query(7, "amp.example.edu", DnsType::kAny);
  for (std::size_t target : {300u, 1200u, 3000u}) {
    const auto resp = make_dns_response(q, 3, target);
    const auto size = resp.serialize().size();
    EXPECT_NEAR(static_cast<double>(size), static_cast<double>(target),
                static_cast<double>(target) * 0.05 + 16.0);
  }
}

TEST(Dns, AmplificationFactorIsLarge) {
  const auto q = make_dns_query(1, "amp.example.edu", DnsType::kAny);
  const auto query_size = q.serialize().size();
  const auto resp = make_dns_response(q, 8, 3000);
  const auto resp_size = resp.serialize().size();
  EXPECT_GT(resp_size, query_size * 20);  // the attack's raison d'etre
}

TEST(Dns, CompressionPointerDecoded) {
  // Hand-built message: one question "ab.cd", one answer whose name is a
  // pointer back to the question name at offset 12.
  ByteWriter w;
  w.u16(0x99);   // id
  w.u16(0x8180); // response flags
  w.u16(1);      // qdcount
  w.u16(1);      // ancount
  w.u16(0);
  w.u16(0);
  // question name "ab.cd" at offset 12
  w.u8(2); w.u8('a'); w.u8('b');
  w.u8(2); w.u8('c'); w.u8('d');
  w.u8(0);
  w.u16(1);  // qtype A
  w.u16(1);  // qclass IN
  // answer with compressed name -> pointer to offset 12
  w.u8(0xC0); w.u8(12);
  w.u16(1);   // type A
  w.u16(1);   // class
  w.u32(60);  // ttl
  w.u16(4);   // rdlength
  w.u32(0x01020304);
  const auto parsed = DnsMessage::parse(w.view());
  ASSERT_TRUE(parsed.ok());
  const auto& m = parsed.value();
  ASSERT_EQ(m.answers.size(), 1u);
  EXPECT_EQ(m.answers[0].name, "ab.cd");
  EXPECT_EQ(m.answers[0].ttl, 60u);
  ASSERT_EQ(m.answers[0].rdata.size(), 4u);
  EXPECT_EQ(m.answers[0].rdata[0], 1);
}

TEST(Dns, PointerLoopRejected) {
  ByteWriter w;
  w.u16(0x99);
  w.u16(0x0100);
  w.u16(1);
  w.u16(0);
  w.u16(0);
  w.u16(0);
  // name is a pointer to itself
  w.u8(0xC0); w.u8(12);
  w.u16(1);
  w.u16(1);
  const auto parsed = DnsMessage::parse(w.view());
  EXPECT_FALSE(parsed.ok());
}

TEST(Dns, TruncatedHeaderRejected) {
  const std::array<std::uint8_t, 5> tiny{};
  EXPECT_FALSE(DnsMessage::parse(tiny).ok());
}

TEST(Dns, TruncatedRecordRejected) {
  const auto q = make_dns_query(7, "x.example.edu", DnsType::kA);
  auto bytes = make_dns_response(q, 2, 400).serialize();
  bytes.resize(bytes.size() - 10);  // cut into the last record
  EXPECT_FALSE(DnsMessage::parse(bytes).ok());
}

TEST(Dns, NamesAreCaseFolded) {
  auto q = make_dns_query(7, "MiXeD.Example.EDU", DnsType::kA);
  const auto bytes = q.serialize();
  const auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().questions[0].name, "mixed.example.edu");
}

// ----------------------------------------------------- Builder + View

TEST(Builder, TcpFrameDecodesCleanly) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 50123);
  const auto dst = make_ep(2, Ipv4Address(93, 184, 216, 34), 443);
  const auto pkt = PacketBuilder(Timestamp::from_seconds(1.5))
                       .tcp(src, dst, TcpFlags::kSyn, 1000, 0)
                       .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_ipv4());
  ASSERT_TRUE(v.is_tcp());
  EXPECT_EQ(v.ipv4().src, src.ip);
  EXPECT_EQ(v.ipv4().dst, dst.ip);
  EXPECT_TRUE(v.tcp().syn());
  EXPECT_FALSE(v.tcp().ack_flag());
  EXPECT_EQ(v.tcp().seq, 1000u);
  const auto t = v.five_tuple();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->src_port, 50123);
  EXPECT_EQ(t->dst_port, 443);
  EXPECT_EQ(t->proto, 6);
  EXPECT_TRUE(v.payload().empty());
}

TEST(Builder, PayloadSizeFillsThePattern) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1234);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 80);
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 1400u}) {
    const auto pkt = PacketBuilder(Timestamp{})
                         .udp(src, dst)
                         .payload_size(n)
                         .build();
    PacketView v(pkt);
    ASSERT_TRUE(v.valid());
    const auto payload = v.payload();
    ASSERT_EQ(payload.size(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(payload[i], static_cast<std::uint8_t>(0xA5 ^ (i & 0xFF)))
          << "byte " << i << " of " << n;
  }
}

TEST(Builder, Ipv4ChecksumValidOnWire) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1234);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 80);
  const auto pkt = PacketBuilder(Timestamp{})
                       .tcp(src, dst, TcpFlags::kAck)
                       .payload_size(100)
                       .build();
  // IPv4 header starts after Ethernet; checksum over it must verify to 0.
  const auto ip_header =
      pkt.bytes().subspan(EthernetHeader::kSize, 20);
  EXPECT_EQ(internet_checksum(ip_header), 0);
}

TEST(Builder, TransportChecksumValidOnWire) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1234);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 80);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .payload_size(37)
                       .build();
  const auto segment =
      pkt.bytes().subspan(EthernetHeader::kSize + 20);
  EXPECT_EQ(transport_checksum(src.ip, dst.ip, IpProto::kUdp, segment), 0);
}

TEST(Builder, TotalLengthConsistent) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 999);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 53);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .payload_size(64)
                       .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(pkt.size(), EthernetHeader::kSize + v.ipv4().total_length);
  EXPECT_EQ(v.udp().length, UdpHeader::kSize + 64);
  EXPECT_EQ(v.payload().size(), 64u);
}

TEST(Builder, IcmpEcho) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 0);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 0);
  const auto pkt =
      PacketBuilder(Timestamp{})
          .icmp(src, dst, IcmpHeader::kEchoRequest, 0, 0x00070001)
          .payload_size(48)
          .build();
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_icmp());
  EXPECT_EQ(v.icmp().type, IcmpHeader::kEchoRequest);
  EXPECT_EQ(v.icmp().rest, 0x00070001u);
  EXPECT_EQ(v.payload().size(), 48u);
}

TEST(Builder, LabelTravelsWithPacket) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 1);
  const auto dst = make_ep(2, Ipv4Address(10, 0, 2, 6), 2);
  const auto pkt = PacketBuilder(Timestamp{})
                       .udp(src, dst)
                       .label(TrafficLabel::kDnsAmplification)
                       .build();
  EXPECT_EQ(pkt.label, TrafficLabel::kDnsAmplification);
  EXPECT_TRUE(is_attack(pkt.label));
  EXPECT_EQ(to_string(pkt.label), "dns_amplification");
}

TEST(Builder, DnsPacketEndToEnd) {
  const auto src = make_ep(1, Ipv4Address(10, 0, 1, 5), 50555);
  const auto dst = make_ep(2, Ipv4Address(130, 14, 1, 9), 53);
  const auto query = make_dns_query(0xABCD, "lib.campus.edu", DnsType::kAny);
  const auto pkt = build_dns_packet(Timestamp::from_seconds(2.0), src, dst,
                                    query);
  PacketView v(pkt);
  ASSERT_TRUE(v.valid());
  ASSERT_TRUE(v.is_udp());
  EXPECT_TRUE(v.is_dns());
  const auto parsed = v.dns();
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().id, 0xABCD);
  EXPECT_EQ(parsed.value().questions[0].name, "lib.campus.edu");
}

TEST(View, GarbageFrameInvalidButSized) {
  std::vector<std::uint8_t> junk(40, 0xEE);
  PacketView v{std::span<const std::uint8_t>(junk)};
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.frame_size(), 40u);
  EXPECT_FALSE(v.five_tuple().has_value());
}

TEST(View, ShortFrameInvalid) {
  std::vector<std::uint8_t> tiny(6, 0);
  PacketView v{std::span<const std::uint8_t>(tiny)};
  EXPECT_FALSE(v.valid());
}

// Property: random TCP/UDP frames built by PacketBuilder always decode
// back to the same five-tuple, sizes, and payload.
TEST(BuilderProperty, RandomFramesRoundTrip) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const auto src = make_ep(
        static_cast<std::uint32_t>(i), Ipv4Address(static_cast<std::uint32_t>(
                                           0x0A000000 + rng.below(1 << 16))),
        static_cast<std::uint16_t>(1024 + rng.below(60000)));
    const auto dst = make_ep(
        static_cast<std::uint32_t>(i + 1),
        Ipv4Address(static_cast<std::uint32_t>(0xC0A80000 + rng.below(1 << 8))),
        static_cast<std::uint16_t>(rng.below(1024)));
    const auto payload_len = rng.below(1200);
    const bool use_tcp = rng.chance(0.5);
    PacketBuilder b(Timestamp::from_nanos(
        static_cast<std::int64_t>(rng.below(1'000'000'000))));
    if (use_tcp) {
      b.tcp(src, dst,
            static_cast<std::uint8_t>(rng.below(64)),
            static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint32_t>(rng.next()));
    } else {
      b.udp(src, dst);
    }
    const auto pkt = b.payload_size(payload_len).build();
    PacketView v(pkt);
    ASSERT_TRUE(v.valid());
    const auto t = v.five_tuple();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->src, src.ip);
    EXPECT_EQ(t->dst, dst.ip);
    EXPECT_EQ(t->src_port, src.port);
    EXPECT_EQ(t->dst_port, dst.port);
    EXPECT_EQ(v.payload().size(), payload_len);
    // Wire checksums must verify.
    const auto ip_header =
        pkt.bytes().subspan(EthernetHeader::kSize, 20);
    EXPECT_EQ(internet_checksum(ip_header), 0);
  }
}

}  // namespace
}  // namespace campuslab::packet
