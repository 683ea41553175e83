#include "datapath.h"

#include <algorithm>

#include "trace.h"

namespace perfbench {

namespace {

// Frames consumed per tap call: testbed.cpp's poll(64).
constexpr std::size_t kPollBatch = 64;
constexpr std::size_t kRingCapacity = 1 << 16;

capture::ShardedCaptureConfig one_shard() {
  capture::ShardedCaptureConfig cfg;
  cfg.shards = 1;
  cfg.ring_capacity = kRingCapacity;
  cfg.poll_batch = kPollBatch;
  return cfg;
}

}  // namespace

DataPath::DataPath(const DataPathConfig& config,
                   const sim::Topology* topology)
    : engine_(one_shard()), meter_(config.flow_meter),
      store_(config.store), collector_(config.collector) {
  meter_.set_sink([this](const capture::FlowRecord& flow) {
    Span span(span::kStoreIngest);
    store_.ingest(flow);
    ++flows_exported_;
    flow_packets_ += flow.packets;
  });
  engine_.add_sink_factory([this](std::size_t) {
    return [this](const capture::DecodedPacket& decoded) {
      {
        Span span(span::kFlowOffer);
        meter_.offer(decoded.pkt, decoded.view, decoded.dir);
      }
      Span span(span::kCollect);
      collector_.offer(decoded.pkt, decoded.view, decoded.dir);
    };
  });
  if (config.enable_sensors && topology != nullptr) {
    sensors_.emplace(config.sensors, store_, *topology);
    engine_.add_sink_factory([this](std::size_t) {
      return [this](const capture::DecodedPacket& decoded) {
        Span span(span::kSensors);
        sensors_->observe(decoded);
      };
    });
  }
}

void DataPath::tap(const packet::Packet& pkt, sim::Direction dir) {
  Tracer::set_trace_id(++frames_);
  {
    Span span(span::kCaptureOffer);
    engine_.offer(pkt, dir);
  }
  Span span(span::kCapturePoll);
  engine_.poll_shard(0, kPollBatch);
}

void DataPath::drain() {
  Span span(span::kCaptureDrain);
  engine_.drain();
}

void DataPath::flush_flows() {
  drain();
  Span span(span::kFlowFlush);
  meter_.flush();
}

ml::Dataset DataPath::harvest() {
  flush_flows();
  Span span(span::kHarvest);
  return collector_.take();
}

Campus::Campus(const sim::ScenarioConfig& scenario,
               const DataPathConfig& path)
    : simulator_(std::make_unique<sim::CampusSimulator>(scenario)) {
  path_ = std::make_unique<DataPath>(path,
                                     &simulator_->network().topology());
  simulator_->network().set_tap(
      [p = path_.get()](const packet::Packet& pkt, sim::Direction dir) {
        p->tap(pkt, dir);
      });
}

void Campus::run(Duration d) {
  {
    Span span(span::kSimRun);
    simulator_->run_for(d);
  }
  path_->drain();
}

void FrameLog::add(const packet::Packet& pkt, sim::Direction dir) {
  const auto b = pkt.bytes();
  if (block_used_ + b.size() > kBlockBytes) {
    blocks_.push_back(std::make_unique<std::uint8_t[]>(
        std::max(kBlockBytes, b.size())));
    block_used_ = 0;
  }
  std::copy(b.begin(), b.end(), blocks_.back().get() + block_used_);
  entries_.push_back(Entry{static_cast<std::uint32_t>(blocks_.size() - 1),
                           static_cast<std::uint32_t>(block_used_),
                           static_cast<std::uint32_t>(b.size()),
                           pkt.scenario_id, pkt.ts, pkt.label, dir});
  block_used_ += b.size();
  byte_count_ += b.size();
}

void FrameLog::materialize(std::size_t begin, std::size_t end,
                           std::vector<Frame>& out) const {
  out.clear();
  for (std::size_t i = begin; i < end && i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    packet::Packet pkt;
    pkt.assign(std::span<const std::uint8_t>(
        blocks_[e.block].get() + e.offset, e.size));
    pkt.ts = e.ts;
    pkt.label = e.label;
    pkt.scenario_id = e.scenario_id;
    out.emplace_back(std::move(pkt), e.dir);
  }
}

FrameLog record_frames(const sim::ScenarioConfig& scenario, Duration d,
                       std::size_t max_frames) {
  sim::CampusSimulator simulator(scenario);
  FrameLog frames;
  simulator.network().set_tap(
      [&frames, max_frames](const packet::Packet& pkt, sim::Direction dir) {
        if (frames.size() >= max_frames) return;
        Span span(span::kRecord);
        frames.add(pkt, dir);
      });
  Span span(span::kSimRun);
  const Duration step = Duration::seconds(1);
  for (Duration t{}; t < d && frames.size() < max_frames; t = t + step)
    simulator.run_for(step);
  return frames;
}

}  // namespace perfbench
