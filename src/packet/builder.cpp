#include "campuslab/packet/builder.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "campuslab/packet/checksum.h"

namespace campuslab::packet {

namespace {

/// One period of the payload_size filler: byte i is 0xA5 ^ (i & 0xFF).
constexpr auto kFillerPeriod = [] {
  std::array<std::uint8_t, 256> period{};
  for (std::size_t i = 0; i < period.size(); ++i)
    period[i] = static_cast<std::uint8_t>(0xA5 ^ i);
  return period;
}();

}  // namespace

PacketBuilder& PacketBuilder::tcp(const Endpoint& src, const Endpoint& dst,
                                  std::uint8_t flags, std::uint32_t seq,
                                  std::uint32_t ack) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kTcp;
  tcp_flags_ = flags;
  seq_ = seq;
  ack_ = ack;
  return *this;
}

PacketBuilder& PacketBuilder::udp(const Endpoint& src, const Endpoint& dst) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kUdp;
  return *this;
}

PacketBuilder& PacketBuilder::icmp(const Endpoint& src, const Endpoint& dst,
                                   std::uint8_t type, std::uint8_t code,
                                   std::uint32_t rest) {
  src_ = src;
  dst_ = dst;
  l4_ = L4::kIcmp;
  icmp_type_ = type;
  icmp_code_ = code;
  icmp_rest_ = rest;
  return *this;
}

PacketBuilder& PacketBuilder::payload(std::span<const std::uint8_t> data) {
  payload_.assign(data.begin(), data.end());
  return *this;
}

PacketBuilder& PacketBuilder::payload_size(std::size_t n) {
  payload_.clear();
  payload_.reserve(n);
  while (payload_.size() < n) {
    const auto take = std::min(kFillerPeriod.size(), n - payload_.size());
    payload_.insert(payload_.end(), kFillerPeriod.begin(),
                    kFillerPeriod.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return *this;
}

Packet PacketBuilder::build() const {
  assert(l4_ != L4::kNone && "call tcp()/udp()/icmp() before build()");

  // L4 segment first (checksum needs the pseudo-header + full segment).
  ByteWriter l4w(64 + payload_.size());
  IpProto proto = IpProto::kTcp;
  switch (l4_) {
    case L4::kTcp: {
      proto = IpProto::kTcp;
      TcpHeader t;
      t.src_port = src_.port;
      t.dst_port = dst_.port;
      t.seq = seq_;
      t.ack = ack_;
      t.flags = tcp_flags_;
      t.checksum = 0;
      t.encode(l4w);
      l4w.bytes(payload_);
      l4w.patch_u16(16, transport_checksum(src_.ip, dst_.ip, proto,
                                           l4w.view()));
      break;
    }
    case L4::kUdp: {
      proto = IpProto::kUdp;
      UdpHeader u;
      u.src_port = src_.port;
      u.dst_port = dst_.port;
      u.length = static_cast<std::uint16_t>(UdpHeader::kSize +
                                            payload_.size());
      u.checksum = 0;
      u.encode(l4w);
      l4w.bytes(payload_);
      l4w.patch_u16(6, transport_checksum(src_.ip, dst_.ip, proto,
                                          l4w.view()));
      break;
    }
    case L4::kIcmp: {
      proto = IpProto::kIcmp;
      IcmpHeader ic;
      ic.type = icmp_type_;
      ic.code = icmp_code_;
      ic.rest = icmp_rest_;
      ic.checksum = 0;
      ic.encode(l4w);
      l4w.bytes(payload_);
      l4w.patch_u16(2, internet_checksum(l4w.view()));
      break;
    }
    case L4::kNone:
      break;
  }

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(Ipv4Header::kMinSize +
                                               l4w.size());
  // Deterministic but distinct identification per (flow, payload head).
  ip.identification = static_cast<std::uint16_t>(
      (src_.ip.value() ^ dst_.ip.value() ^ seq_) & 0xFFFF);
  ip.flags = 0x2;  // DF
  ip.ttl = ttl_;
  ip.protocol = static_cast<std::uint8_t>(proto);
  ip.src = src_.ip;
  ip.dst = dst_.ip;

  EthernetHeader eth;
  eth.dst = dst_.mac;
  eth.src = src_.mac;
  eth.ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);

  ByteWriter frame(EthernetHeader::kSize + ip.total_length);
  eth.encode(frame);
  ip.encode(frame);
  frame.bytes(l4w.view());

  Packet pkt;
  pkt.ts = ts_;
  pkt.assign(frame.view());  // straight into a pool buffer
  pkt.label = label_;
  pkt.scenario_id = scenario_id_;
  return pkt;
}

Packet build_dns_packet(Timestamp ts, const Endpoint& src,
                        const Endpoint& dst, const DnsMessage& msg,
                        TrafficLabel label) {
  const auto body = msg.serialize();
  return PacketBuilder(ts).udp(src, dst).payload(body).label(label).build();
}

}  // namespace campuslab::packet
