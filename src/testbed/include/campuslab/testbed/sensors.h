// SensorEmulator — the §5 "complementary data from other available
// sensors or sources (e.g., server logs, firewall rules, configuration
// files, events)".
//
// Watches the same captured packet stream as everything else and emits
// the log events the campus's middleboxes and servers would have
// written, straight into the data store:
//
//   firewall   blocks on inbound SYNs to non-served ports (port scans
//              light this up)
//   sshd       failed-password entries for short inbound SSH exchanges
//              (brute force turns this into a drumbeat)
//   ids        signature alerts on oversized DNS responses
//   dhcp       routine lease renewals (the baseline hum every real
//              syslog has)
//
// The point is cross-source linkage: the store can then answer "show
// me everything about host X during the incident" across packets,
// flows and logs — see store/timeline.h.
#pragma once

#include <array>
#include <set>

#include "campuslab/capture/decoded.h"
#include "campuslab/sim/topology.h"
#include "campuslab/store/datastore.h"
#include "campuslab/util/rng.h"

namespace campuslab::testbed {

struct SensorConfig {
  bool firewall = true;
  bool auth_log = true;
  bool ids = true;
  bool dhcp = true;
  /// Probability the firewall logs a given blocked probe (real
  /// firewalls rate-limit their own logging).
  double firewall_log_prob = 0.6;
  double auth_log_prob = 0.5;
  std::size_t ids_dns_threshold_bytes = 1600;
  Duration dhcp_period = Duration::minutes(2);
  std::uint64_t seed = 1;
};

struct SensorStats {
  std::uint64_t firewall_events = 0;
  std::uint64_t auth_events = 0;
  std::uint64_t ids_events = 0;
  std::uint64_t dhcp_events = 0;
};

class SensorEmulator {
 public:
  SensorEmulator(SensorConfig config, store::DataStore& store,
                 const sim::Topology& topology);

  /// Feed every captured packet (the testbed registers this as a
  /// capture sink). DHCP chatter is emitted on the packet clock.
  void observe(const capture::DecodedPacket& decoded);

  const SensorStats& stats() const noexcept { return stats_; }

 private:
  bool port_served(packet::Ipv4Address dst,
                   std::uint16_t port) const noexcept;

  SensorConfig config_;
  store::DataStore* store_;
  const sim::Topology* topology_;
  Rng rng_;
  SensorStats stats_;
  Timestamp last_dhcp_{};
};

}  // namespace campuslab::testbed
