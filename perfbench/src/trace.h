// Span tracer for the traced benchmark run.
//
// Spans are opened and closed by the benchmark around calls into each
// module's public functions; nothing inside the library is
// instrumented. A span records its name, start, end, parent and the id
// of the frame or query it belongs to. Per-name totals and self times
// (duration minus the duration of direct children) are aggregated for
// every span; the first Tracer::kMaxKept span records are also kept in
// memory and written at exit as Chrome trace-event JSON.
//
// When no tracer is installed (the untraced run) a Span costs one load
// and one predictable branch.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// A span name and the layer (module under src/) its self time is
/// charged to. "harness" marks benchmark-side roots that no layer owns.
struct SpanName {
  const char* name;
  const char* layer;
  std::uint8_t index;
  bool keep_samples = false;  // keep every duration (for percentiles)
};

namespace span {
inline constexpr SpanName kCycle{"harness.cycle", "harness", 0};
inline constexpr SpanName kSimRun{"sim.run", "sim", 1};
inline constexpr SpanName kCaptureOffer{"capture.offer", "capture", 2};
inline constexpr SpanName kCapturePoll{"capture.poll", "capture", 3};
inline constexpr SpanName kFlowOffer{"capture.flow_offer", "capture", 4};
inline constexpr SpanName kCaptureDrain{"capture.drain", "capture", 5};
inline constexpr SpanName kFlowFlush{"capture.flow_flush", "capture", 6};
inline constexpr SpanName kStoreIngest{"store.ingest", "store", 7};
inline constexpr SpanName kCollect{"features.collect", "features", 8};
inline constexpr SpanName kHarvest{"features.harvest", "features", 9};
inline constexpr SpanName kSensors{"testbed.sensors", "testbed", 10};
inline constexpr SpanName kTrain{"ml.train", "ml", 11};
inline constexpr SpanName kExtract{"xai.extract", "xai", 12};
inline constexpr SpanName kCompile{"dataplane.compile", "dataplane", 13};
inline constexpr SpanName kDeploy{"control.deploy", "control", 14};
inline constexpr SpanName kInspect{"control.inspect", "control", 15, true};
inline constexpr SpanName kStoreQuery{"store.query", "store", 16};
inline constexpr SpanName kClusterQuery{"store.cluster_query", "store", 17};
inline constexpr SpanName kShardQuery{"store.shard_query", "store", 18};
inline constexpr SpanName kDecode{"packet.decode", "packet", 19};
inline constexpr SpanName kRecord{"harness.record", "harness", 20};
inline constexpr std::size_t kCount = 21;
}  // namespace span

class Tracer {
 public:
  struct NameStats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Span records kept for the Chrome trace; later spans only count.
  static constexpr std::size_t kMaxKept = 200'000;

  Tracer();

  void begin(const SpanName& name);
  void end();

  /// Id shared by every span of one frame or one query (per thread).
  static void set_trace_id(std::uint64_t id) noexcept;

  /// Aggregates over every span, kept or not.
  NameStats stats(const SpanName& name) const;
  /// Self time summed over the spans charged to `layer`, counting only
  /// spans of the thread that created the tracer (the workload's own
  /// thread): a server thread's spans overlap the client span that
  /// waits for them, so summing both would count that time twice.
  std::int64_t layer_self_ns(const std::string& layer) const;
  /// Every duration of a keep_samples span, in closing order.
  std::vector<std::int64_t> samples(const SpanName& name) const;

  std::size_t kept() const;
  std::uint64_t dropped() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata_json) const;

 private:
  struct Record {
    const SpanName* name = nullptr;
    std::uint32_t parent = kNoParent;
    std::uint32_t tid = 0;
    std::uint64_t trace_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  const std::uint64_t id_;  // unique per tracer; tags thread stacks
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::array<NameStats, span::kCount> stats_{};
  std::array<std::int64_t, span::kCount> owner_self_ns_{};
  std::thread::id owner_;
  std::array<std::vector<std::int64_t>, span::kCount> samples_{};
  std::uint32_t next_tid_ = 0;
};

/// The installed tracer, or null for the untraced run.
Tracer* active_tracer() noexcept;
void install_tracer(Tracer* tracer) noexcept;

std::int64_t now_ns() noexcept;

/// RAII span around one call into the library.
class Span {
 public:
  explicit Span(const SpanName& name) noexcept : tracer_(active_tracer()) {
    if (tracer_ != nullptr) tracer_->begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
