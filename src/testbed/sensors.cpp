#include "campuslab/testbed/sensors.h"

#include "campuslab/packet/view.h"

namespace campuslab::testbed {

using packet::PacketView;

SensorEmulator::SensorEmulator(SensorConfig config,
                               store::DataStore& store,
                               const sim::Topology& topology)
    : config_(config), store_(&store), topology_(&topology),
      rng_(config.seed) {}

bool SensorEmulator::port_served(packet::Ipv4Address dst,
                                 std::uint16_t port) const noexcept {
  // The DMZ serves its well-known ports; clients serve nothing.
  if (dst == topology_->web_server().endpoint.ip)
    return port == 80 || port == 443;
  if (dst == topology_->dns_server().endpoint.ip) return port == 53;
  if (dst == topology_->mail_server().endpoint.ip) return port == 25;
  if (dst == topology_->ssh_gateway().endpoint.ip) return port == 22;
  if (dst == topology_->storage_server().endpoint.ip) return port == 873;
  return false;
}

void SensorEmulator::observe(const capture::DecodedPacket& decoded) {
  const auto& pkt = decoded.pkt;

  // Routine infrastructure hum, driven by the virtual clock.
  if (config_.dhcp && pkt.ts - last_dhcp_ >= config_.dhcp_period) {
    last_dhcp_ = pkt.ts;
    const auto& clients = topology_->clients();
    if (!clients.empty()) {
      const auto& host = clients[rng_.below(clients.size())];
      store_->ingest_log(store::LogEvent{
          pkt.ts, "dhcp", 0, host.endpoint.ip, "lease renewed"});
      ++stats_.dhcp_events;
    }
  }

  if (decoded.dir != sim::Direction::kInbound) return;
  // Parse-once: read the decode cached at the tap.
  const PacketView& view = decoded.view;
  if (!view.valid() || !view.is_ipv4()) return;
  const auto tuple = view.five_tuple();
  if (!tuple) return;

  // Firewall: inbound connection attempts to ports nothing serves.
  if (config_.firewall && view.is_tcp() && view.tcp().syn() &&
      !view.tcp().ack_flag() && !port_served(tuple->dst, tuple->dst_port) &&
      topology_->is_campus(tuple->dst)) {
    if (rng_.chance(config_.firewall_log_prob)) {
      store_->ingest_log(store::LogEvent{
          pkt.ts, "firewall", 1, tuple->dst,
          "blocked " + tuple->src.to_string() + " -> port " +
              std::to_string(tuple->dst_port)});
      ++stats_.firewall_events;
    }
  }

  // sshd: auth traffic into the bastion.
  if (config_.auth_log && view.is_tcp() &&
      tuple->dst == topology_->ssh_gateway().endpoint.ip &&
      tuple->dst_port == 22 && !view.payload().empty()) {
    if (rng_.chance(config_.auth_log_prob)) {
      store_->ingest_log(store::LogEvent{
          pkt.ts, "sshd", 1, tuple->dst,
          "failed password for invalid user from " +
              tuple->src.to_string()});
      ++stats_.auth_events;
    }
  }

  // IDS: oversized DNS responses inbound.
  if (config_.ids && view.is_udp() && tuple->src_port == 53 &&
      view.payload().size() >= config_.ids_dns_threshold_bytes) {
    // Heavily sampled: a flood would otherwise drown the log store.
    if (rng_.chance(0.01)) {
      store_->ingest_log(store::LogEvent{
          pkt.ts, "ids", 2, tuple->dst,
          "oversized DNS response (" +
              std::to_string(view.payload().size()) + "B) from " +
              tuple->src.to_string()});
      ++stats_.ids_events;
    }
  }
}

}  // namespace campuslab::testbed
