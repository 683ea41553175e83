// FlowMeter — 5-tuple flow construction from the packet stream.
//
// This is the "on-the-fly generated metadata" layer of the paper's
// monitoring solution: every packet updates a bidirectional flow entry;
// idle and active timeouts (NetFlow-style) evict entries as finished
// FlowRecords, which are what the data store indexes and the feature
// pipeline consumes. Ground-truth labels are aggregated per flow so the
// learning pipeline gets labelled flow data for free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "campuslab/capture/decoded.h"
#include "campuslab/packet/view.h"
#include "campuslab/sim/campus.h"

namespace campuslab::capture {

/// A completed (evicted) flow.
struct FlowRecord {
  packet::FiveTuple tuple;           // direction of the first packet seen
  sim::Direction initial_direction = sim::Direction::kInbound;
  Timestamp first_ts;
  Timestamp last_ts;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;           // frame bytes
  std::uint64_t payload_bytes = 0;   // L4 payload only
  std::uint64_t fwd_packets = 0;     // in the initial direction
  std::uint64_t rev_packets = 0;
  std::uint32_t syn_count = 0;
  std::uint32_t synack_count = 0;
  std::uint32_t fin_count = 0;
  std::uint32_t rst_count = 0;
  std::uint32_t psh_count = 0;
  bool saw_dns = false;
  std::array<std::uint64_t, packet::kTrafficLabelCount> label_packets{};
  /// Scenario instance that first touched this flow (0 = background
  /// traffic only). First-nonzero-wins: a flow is attributed to the
  /// scenario that opened it into attack territory, even if benign
  /// response frames arrive afterwards.
  std::uint32_t scenario_id = 0;

  Duration duration() const noexcept { return last_ts - first_ts; }

  /// Ground-truth label, attack-if-any: a flow containing any attack
  /// packets is labelled with its most common attack label; only pure
  /// benign flows are benign. (Standard IDS-dataset practice — the
  /// victim's own responses inside an attack conversation must not
  /// vote the flow back to benign.)
  packet::TrafficLabel majority_label() const noexcept;

  double mean_packet_bytes() const noexcept {
    return packets == 0 ? 0.0
                        : static_cast<double>(bytes) /
                              static_cast<double>(packets);
  }
};

/// Deterministic cross-shard ordering for merged flow exports: by
/// first activity, then last activity, then tuple. Gives a stable
/// merged stream regardless of which shard evicted which flow first.
bool flow_export_before(const FlowRecord& a, const FlowRecord& b) noexcept;

struct FlowMeterConfig {
  Duration idle_timeout = Duration::seconds(15);
  Duration active_timeout = Duration::seconds(60);
  std::size_t max_flows = 1 << 20;  // hard cap; oldest-idle evicted past it
};

struct FlowMeterStats {
  std::uint64_t packets_seen = 0;
  std::uint64_t non_ip_packets = 0;
  std::uint64_t flows_created = 0;
  std::uint64_t flows_evicted_idle = 0;
  std::uint64_t flows_evicted_active = 0;
  std::uint64_t flows_evicted_capacity = 0;
};

class FlowMeter {
 public:
  using FlowSink = std::function<void(const FlowRecord&)>;

  explicit FlowMeter(FlowMeterConfig config = {});

  void set_sink(FlowSink sink) { sink_ = std::move(sink); }

  /// Update flow state with one packet. Non-IPv4 frames are counted and
  /// skipped. Eviction checks run opportunistically against the
  /// packet's timestamp (virtual time).
  /// `view` must be a decode of `pkt`'s bytes (DecodedPacket
  /// guarantees this).
  void offer(const packet::Packet& pkt, const packet::PacketView& view,
             sim::Direction dir);

  /// Evict every flow idle/active-expired as of `now`.
  void sweep(Timestamp now);

  /// Evict everything unconditionally (end of capture).
  void flush();

  std::size_t active_flows() const noexcept { return table_.size(); }

  /// Table size safe to read from ANY thread while the owning worker is
  /// still metering (relaxed atomic mirror of table_.size()); this is
  /// what live obs gauges sample. May lag active_flows() by the update
  /// in flight.
  std::size_t approx_active_flows() const noexcept {
    return approx_size_.load(std::memory_order_relaxed);
  }

  const FlowMeterStats& stats() const noexcept { return stats_; }

 private:
  struct FlowState {
    FlowRecord record;
    Timestamp last_activity;
  };

  void evict(const packet::FiveTuple& key, FlowState& state);
  void maybe_periodic_sweep(Timestamp now);

  /// Refresh approx_size_ after any table mutation.
  void publish_size() noexcept {
    approx_size_.store(table_.size(), std::memory_order_relaxed);
  }

  FlowMeterConfig config_;
  FlowSink sink_;
  std::unordered_map<packet::FiveTuple, FlowState> table_;
  std::atomic<std::size_t> approx_size_{0};
  FlowMeterStats stats_;
  Timestamp last_sweep_{};
  std::uint64_t evict_cursor_ = 1;  // bucket-probe state for sampling
};

}  // namespace campuslab::capture
