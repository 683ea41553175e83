// The Figure-1 data path, wired from public entry points only:
//
//   tap --> ShardedCaptureEngine (1 shard, polled on the caller's thread)
//             |  sinks, in testbed.cpp's order:
//             +--> FlowMeter::offer(pkt, view, dir) --> DataStore::ingest
//             +--> PacketDatasetCollector::offer(pkt, view, dir)
//             +--> SensorEmulator::observe (optional)
//
// The same wiring serves the untraced and the traced runs; each call
// into a layer sits inside a Span, which is free when no tracer is
// installed. Campus couples a DataPath to a simulator's border tap;
// tap_replay drives DataPath::tap directly from recorded frames.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "campuslab/capture/flow.h"
#include "campuslab/capture/sharded_engine.h"
#include "campuslab/features/packet_dataset.h"
#include "campuslab/sim/simulator.h"
#include "campuslab/store/datastore.h"
#include "campuslab/testbed/sensors.h"

namespace perfbench {

using namespace campuslab;

struct DataPathConfig {
  features::PacketDatasetOptions collector;
  capture::FlowMeterConfig flow_meter;
  store::DataStoreConfig store;
  bool enable_sensors = true;
  testbed::SensorConfig sensors;
};

class DataPath {
 public:
  /// `topology` is required when sensors are enabled.
  DataPath(const DataPathConfig& config, const sim::Topology* topology);

  DataPath(const DataPath&) = delete;
  DataPath& operator=(const DataPath&) = delete;

  /// One frame from the border tap: offer it, then consume inline.
  void tap(const packet::Packet& pkt, sim::Direction dir);
  /// Consume everything still queued in the capture ring.
  void drain();
  /// Drain, then evict every in-flight flow into the store.
  void flush_flows();
  /// flush_flows(), then take the collected packet dataset.
  ml::Dataset harvest();

  capture::CaptureStats capture_stats() const { return engine_.stats(); }
  const capture::FlowMeter& flow_meter() const noexcept { return meter_; }
  store::DataStore& store() noexcept { return store_; }
  const features::PacketDatasetCollector& collector() const noexcept {
    return collector_;
  }
  std::uint64_t frames() const noexcept { return frames_; }
  std::uint64_t flows_exported() const noexcept { return flows_exported_; }
  std::uint64_t flow_packets() const noexcept { return flow_packets_; }

 private:
  capture::ShardedCaptureEngine engine_;
  capture::FlowMeter meter_;
  store::DataStore store_;
  features::PacketDatasetCollector collector_;
  std::optional<testbed::SensorEmulator> sensors_;
  std::uint64_t frames_ = 0;
  std::uint64_t flows_exported_ = 0;
  std::uint64_t flow_packets_ = 0;
};

/// A simulated campus whose border tap feeds a DataPath.
class Campus {
 public:
  Campus(const sim::ScenarioConfig& scenario, const DataPathConfig& path);

  /// Advance the campus by `d` (the tap runs inline), then drain.
  void run(Duration d);

  sim::CampusSimulator& simulator() noexcept { return *simulator_; }
  sim::CampusNetwork& network() noexcept { return simulator_->network(); }
  DataPath& path() noexcept { return *path_; }

 private:
  std::unique_ptr<sim::CampusSimulator> simulator_;
  std::unique_ptr<DataPath> path_;
};

/// Frames held compactly (bytes + metadata), not as Packets: a Packet
/// pins a 4 KiB pool slab, so long recordings would cost far more
/// memory than the frames. Replay materializes Packets in chunks.
class FrameLog {
 public:
  using Frame = std::pair<packet::Packet, sim::Direction>;

  void add(const packet::Packet& pkt, sim::Direction dir);
  std::size_t size() const noexcept { return entries_.size(); }
  std::uint64_t byte_count() const noexcept { return byte_count_; }
  /// Rebuild frames [begin, end) as Packets into `out` (cleared first).
  void materialize(std::size_t begin, std::size_t end,
                   std::vector<Frame>& out) const;

 private:
  // Fixed-size blocks: growth never copies recorded bytes.
  static constexpr std::size_t kBlockBytes = std::size_t{16} << 20;

  struct Entry {
    std::uint32_t block;
    std::uint32_t offset;
    std::uint32_t size;
    std::uint32_t scenario_id;
    Timestamp ts;
    packet::TrafficLabel label;
    sim::Direction dir;
  };
  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
  std::size_t block_used_ = kBlockBytes;
  std::uint64_t byte_count_ = 0;
  std::vector<Entry> entries_;
};

/// Run a campus for `d` with the tap recording frames instead of
/// capturing them. With `max_frames`, recording stops at that many
/// frames and the campus stops at the next whole simulated second.
FrameLog record_frames(const sim::ScenarioConfig& scenario, Duration d,
                       std::size_t max_frames = SIZE_MAX);

}  // namespace perfbench
