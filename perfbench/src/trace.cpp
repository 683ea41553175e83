#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_next_tracer_id{1};
thread_local std::uint64_t t_trace_id = 0;

struct Open {
  const SpanName* name;
  std::int64_t start_ns;
  std::int64_t child_ns;
  std::uint32_t record;
};

}  // namespace

struct ThreadStack {
  std::uint64_t tracer_id = 0;  // the tracer this stack belongs to
  std::uint32_t tid = 0;
  std::vector<Open> open;
};

namespace {
thread_local ThreadStack t_stack;
}  // namespace

Tracer* active_tracer() noexcept {
  return g_tracer.load(std::memory_order_acquire);
}

void install_tracer(Tracer* tracer) noexcept {
  g_tracer.store(tracer, std::memory_order_release);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      owner_(std::this_thread::get_id()) {
  records_.reserve(kMaxKept);
}

void Tracer::set_trace_id(std::uint64_t id) noexcept { t_trace_id = id; }

void Tracer::begin(const SpanName& name) {
  ThreadStack& stack = t_stack;
  std::uint32_t record = kNoParent;
  {
    std::lock_guard lock(mu_);
    if (stack.tracer_id != id_) {
      stack.tracer_id = id_;
      stack.tid = next_tid_++;
      stack.open.clear();
    }
    if (records_.size() < kMaxKept) {
      Record r;
      r.name = &name;
      r.parent = stack.open.empty() ? kNoParent : stack.open.back().record;
      r.tid = stack.tid;
      r.trace_id = t_trace_id;
      record = static_cast<std::uint32_t>(records_.size());
      records_.push_back(r);
    } else {
      ++dropped_;
    }
  }
  const std::int64_t start = now_ns();
  if (record != kNoParent) records_[record].start_ns = start;
  stack.open.push_back(Open{&name, start, 0, record});
}

void Tracer::end() {
  const std::int64_t stop = now_ns();
  ThreadStack& stack = t_stack;
  std::lock_guard lock(mu_);
  if (stack.open.empty() || stack.tracer_id != id_) return;
  const Open top = stack.open.back();
  stack.open.pop_back();
  const std::int64_t dur = stop - top.start_ns;
  if (!stack.open.empty()) stack.open.back().child_ns += dur;
  NameStats& s = stats_[top.name->index];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - top.child_ns;
  if (std::this_thread::get_id() == owner_)
    owner_self_ns_[top.name->index] += dur - top.child_ns;
  if (top.name->keep_samples) samples_[top.name->index].push_back(dur);
  if (top.record != kNoParent && top.record < records_.size())
    records_[top.record].end_ns = stop;
}

Tracer::NameStats Tracer::stats(const SpanName& name) const {
  std::lock_guard lock(mu_);
  return stats_[name.index];
}

std::int64_t Tracer::layer_self_ns(const std::string& layer) const {
  static constexpr const SpanName* kAll[] = {
      &span::kCycle,       &span::kSimRun,       &span::kCaptureOffer,
      &span::kCapturePoll, &span::kFlowOffer,    &span::kCaptureDrain,
      &span::kFlowFlush,   &span::kStoreIngest,  &span::kCollect,
      &span::kHarvest,     &span::kSensors,      &span::kTrain,
      &span::kExtract,     &span::kCompile,      &span::kDeploy,
      &span::kInspect,     &span::kStoreQuery,   &span::kClusterQuery,
      &span::kShardQuery,  &span::kDecode,       &span::kRecord};
  static_assert(std::size(kAll) == span::kCount);
  std::lock_guard lock(mu_);
  std::int64_t sum = 0;
  for (const SpanName* n : kAll)
    if (layer == n->layer) sum += owner_self_ns_[n->index];
  return sum;
}

std::vector<std::int64_t> Tracer::samples(const SpanName& name) const {
  std::lock_guard lock(mu_);
  return samples_[name.index];
}

std::size_t Tracer::kept() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  return dropped_;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_[0].start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // A span still open at export has no end.
    const std::int64_t end = r.end_ns >= r.start_ns ? r.end_ns : r.start_ns;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%lld,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", r.name->name, r.name->layer,
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(end - r.start_ns) / 1e3, r.tid, i,
                 r.parent == kNoParent ? -1LL
                                       : static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.trace_id));
  }
  std::fprintf(f, "],\"otherData\":%s}\n", metadata_json.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
