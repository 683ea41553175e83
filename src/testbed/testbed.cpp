#include "campuslab/testbed/testbed.h"

namespace campuslab::testbed {

namespace {

// The tap consumes inline, on the simulator's thread: one shard, never
// start()ed, polled after every offered frame. perfbench's DataPath
// mirrors these values.
constexpr std::size_t kPollBatch = 64;

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      engine_({.shards = 1, .ring_capacity = 1 << 16,
               .poll_batch = kPollBatch}),
      meter_(config.flow_meter), store_(config.store),
      collector_(config.collector) {
  simulator_ = std::make_unique<sim::CampusSimulator>(config_.scenario);

  meter_.set_sink([this](const capture::FlowRecord& flow) {
    store_.ingest(flow);
  });
  if (config_.enable_sensors)
    sensors_.emplace(config_.sensors, store_,
                     simulator_->network().topology());
  if (!config_.archive_directory.empty()) {
    store::PacketArchiveConfig acfg;
    acfg.directory = config_.archive_directory;
    acfg.segment_span = config_.archive_segment_span;
    auto archive = store::PacketArchive::open(acfg);
    if (archive.ok()) archive_.emplace(std::move(archive).value());
  }
  engine_.add_sink_factory([this](std::size_t) {
    return [this](const capture::DecodedPacket& decoded) {
      // Parse-once: every consumer reads the decode cached at the tap.
      meter_.offer(decoded.pkt, decoded.view, decoded.dir);
      collector_.offer(decoded.pkt, decoded.view, decoded.dir);
      if (sensors_) sensors_->observe(decoded);
      if (archive_) {
        // Collection-side privacy: the payload policy decides what
        // form the raw bytes are stored in. The copy is a refcount
        // bump; redaction mutates it copy-on-write, so the shared
        // buffer the other sinks (and their cached view) read stays
        // untouched.
        packet::Packet redacted = decoded.pkt;
        config_.archive_policy.apply(redacted, decoded.view,
                                     config_.archive_hash_key);
        (void)archive_->write(redacted);
      }
    };
  });
  simulator_->network().set_tap(
      [this](const packet::Packet& pkt, sim::Direction dir) {
        engine_.offer(pkt, dir);
        engine_.poll_shard(0, kPollBatch);
      });
}

void Testbed::run(Duration d) {
  simulator_->run_for(d);
  engine_.drain();
}

ml::Dataset Testbed::harvest_dataset() {
  engine_.drain();
  meter_.flush();
  return collector_.take();
}

}  // namespace campuslab::testbed
