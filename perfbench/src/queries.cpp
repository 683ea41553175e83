// store_query and cluster_query — the read side of the store.
//
// Set-up runs FIG1's campus once through a FlowMeter and tiles that
// export to 1.6M flows (32 segments, larger than a typical last-level
// cache): copy k is the recorded window shifted by k campus periods,
// in canonical export order. It then computes every answer of a fixed
// query mix once by brute force (DataStore::for_each +
// FlowQuery::matches). One closed-loop client repeats the mix — host,
// port, label, time window, full scan, group-by aggregate — checking
// each answer's row count and id checksum. The mix's keys are drawn
// from the recorded flows (see make_mix), so selectivities are the
// campus's own.
//
// store_query runs the mix on one DataStore with query_threads = 4
// (the ScanPool fan-out). cluster_query runs it through a 2-node,
// replication-2 store::Cluster whose primaries are RemoteShards
// speaking CLRP over loopback to in-process ShardServers (one
// connection per node; replicas stay in the router process, so a
// healthy cluster answers every query over those two connections), and
// requires answers bit-identical to the single store's.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "campuslab/capture/flow.h"
#include "campuslab/obs/registry.h"
#include "campuslab/store/cluster.h"
#include "campuslab/store/remote_shard.h"
#include "campuslab/store/shard_server.h"
#include "campuslab/util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace campuslab;
using capture::FlowRecord;
using store::FlowQuery;
using store::GroupBy;

namespace {

constexpr std::size_t kFlows = 1'600'000;
constexpr std::size_t kSegmentFlows = 50'000;
constexpr std::size_t kStoreThreads = 4;
constexpr std::size_t kIngestChunk = 16'384;
// Host and port keys are drawn from those in at most this share of the
// recorded flows: the incident's victim and its DNS port each sit in
// most of them, and a lookup of those returns the store.
constexpr double kRareKeyShare = 0.01;
// The scan query's byte floor keeps this share of the UDP flows.
constexpr double kScanShare = 0.001;
constexpr std::size_t kTimeQueries = 4;
constexpr double kWindowSeconds = 20;
// 3 host, 2 port, 1 label, kTimeQueries time, 1 scan, 1 aggregate.
constexpr std::size_t kMixQueries = 8 + kTimeQueries;
// Set-up repetitions (setup_s is their median). A cluster set-up also
// fills the single reference store, so it costs about three times as
// much as a store set-up.
constexpr std::size_t kStoreSetupReps = 5;
constexpr std::size_t kClusterSetupReps = 3;

enum class Kind { kHost, kPort, kLabel, kTime, kScan, kAgg };
constexpr const char* kKindNames[] = {"host", "port", "label",
                                      "time", "scan", "agg"};
constexpr std::size_t kKinds = 6;

struct Query {
  Kind kind;
  FlowQuery filter;
  GroupBy group_by = GroupBy::kLabel;  // kAgg only
};

/// What a correct answer looks like.
struct Expected {
  std::uint64_t rows = 0;
  std::uint64_t id_checksum = 0;   // ids in answer order
  std::uint64_t fingerprint = 0;   // every field of every row
};

/// The FlowMeter export of one run of FIG1's campus, sorted into
/// canonical export order (capture::flow_export_before, the order the
/// sharded ingest and the cluster router feed stores in), and the
/// campus period every tiled copy is shifted by.
struct CampusFlows {
  std::vector<FlowRecord> flows;
  std::int64_t period_ns = 0;
};

CampusFlows record_campus_flows() {
  sim::CampusSimulator simulator(fig1_campus());
  capture::FlowMeter meter;
  CampusFlows out;
  meter.set_sink([&](const FlowRecord& f) { out.flows.push_back(f); });
  simulator.network().set_tap(
      [&meter](const packet::Packet& pkt, sim::Direction dir) {
        meter.offer(pkt, packet::PacketView(pkt), dir);
      });
  simulator.run_for(Duration::from_seconds(kFig1CampusSeconds));
  meter.flush();
  std::stable_sort(out.flows.begin(), out.flows.end(),
                   capture::flow_export_before);
  out.period_ns = static_cast<std::int64_t>(kFig1CampusSeconds * 1e9);
  for (const FlowRecord& f : out.flows)
    out.period_ns = std::max(out.period_ns, f.last_ts.nanos() + 1);
  return out;
}

/// kFlows flows tiled from the recording, generated one at a time:
/// copy k is every recorded flow with its times shifted by k periods,
/// so the whole stream stays in canonical order. Ids then ascend
/// identically in a single store and across the cluster, and no tiled
/// flow list is held.
class FlowSource {
 public:
  explicit FlowSource(const CampusFlows& base) : base_(base) {}

  bool next(FlowRecord& out) {
    if (made_ == kFlows || base_.flows.empty()) return false;
    const std::size_t n = base_.flows.size();
    const std::int64_t shift =
        static_cast<std::int64_t>(made_ / n) * base_.period_ns;
    out = base_.flows[made_ % n];
    out.first_ts = Timestamp::from_nanos(out.first_ts.nanos() + shift);
    out.last_ts = Timestamp::from_nanos(out.last_ts.nanos() + shift);
    ++made_;
    return true;
  }

 private:
  const CampusFlows& base_;
  std::size_t made_ = 0;
};

/// The seed picks the mix's keys from the recorded flows: hosts and
/// ports of randomly drawn flows (among keys in at most kRareKeyShare
/// of them), the campus's minority labels, and time windows. The
/// kTimeQueries windows sit at evenly spaced phases of the campus
/// period (one random offset, each in a random whole copy), so every
/// seed reads the same share of incident and quiet time. The scan keeps
/// UDP flows above the recording's (1 - kScanShare) byte quantile; the
/// aggregate groups TCP flows by label.
std::vector<Query> make_mix(std::uint64_t seed, const CampusFlows& base) {
  Rng rng(0x9E11 ^ (seed * 0xD1B54A32D192ED03ull));
  const std::vector<FlowRecord>& flows = base.flows;
  const auto rare = static_cast<std::size_t>(
      kRareKeyShare * static_cast<double>(flows.size()));
  std::unordered_map<std::uint32_t, std::size_t> hosts;
  std::unordered_map<std::uint16_t, std::size_t> ports;
  std::array<std::size_t, packet::kTrafficLabelCount> labels{};
  std::vector<std::uint64_t> udp_bytes;
  for (const FlowRecord& f : flows) {
    ++hosts[f.tuple.src.value()];
    if (f.tuple.dst != f.tuple.src) ++hosts[f.tuple.dst.value()];
    ++ports[f.tuple.src_port];
    if (f.tuple.dst_port != f.tuple.src_port) ++ports[f.tuple.dst_port];
    ++labels[static_cast<std::size_t>(f.majority_label())];
    if (f.tuple.proto == 17) udp_bytes.push_back(f.bytes);
  }
  const auto any_flow = [&]() -> const FlowRecord& {
    return flows[rng.below(flows.size())];
  };

  // Bounded draws: a recording with no rare key yields fewer queries.
  constexpr int kDraws = 1 << 16;
  std::vector<Query> mix;
  for (int i = 0; i < kDraws && mix.size() < 3; ++i) {
    const FlowRecord& f = any_flow();
    const auto h = rng.chance(0.5) ? f.tuple.src : f.tuple.dst;
    if (hosts[h.value()] <= rare)
      mix.push_back({Kind::kHost, FlowQuery{}.about_host(h)});
  }
  const std::size_t hosts_drawn = mix.size();
  for (int i = 0; i < kDraws && mix.size() < hosts_drawn + 2; ++i) {
    const FlowRecord& f = any_flow();
    const std::uint16_t p = rng.chance(0.5) ? f.tuple.src_port
                                            : f.tuple.dst_port;
    if (ports[p] <= rare) mix.push_back({Kind::kPort, FlowQuery{}.on_port(p)});
  }
  std::vector<packet::TrafficLabel> minority;
  for (std::size_t l = 0; l < labels.size(); ++l)
    if (labels[l] > 0 && 2 * labels[l] <= flows.size())
      minority.push_back(static_cast<packet::TrafficLabel>(l));
  if (!minority.empty())
    mix.push_back({Kind::kLabel, FlowQuery{}.with_label(
                                     minority[rng.below(minority.size())])});
  const std::size_t copies = std::max<std::size_t>(1, kFlows / flows.size());
  const double period_s = static_cast<double>(base.period_ns) / 1e9;
  const double phase = rng.uniform(0, 1);
  for (std::size_t j = 0; j < kTimeQueries; ++j) {
    const double t =
        static_cast<double>(rng.below(copies)) * period_s +
        (static_cast<double>(j) + phase) * period_s / kTimeQueries;
    mix.push_back({Kind::kTime,
                   FlowQuery{}.between(
                       Timestamp::from_seconds(t),
                       Timestamp::from_seconds(t + kWindowSeconds))});
  }
  std::sort(udp_bytes.begin(), udp_bytes.end());
  const std::size_t keep = static_cast<std::size_t>(
      kScanShare * static_cast<double>(udp_bytes.size()));
  const std::uint64_t floor =
      udp_bytes.empty() ? 0 : udp_bytes[udp_bytes.size() - 1 - keep] + 1;
  mix.push_back({Kind::kScan,
                 FlowQuery{}.with_proto(17).at_least_bytes(floor)});
  mix.push_back({Kind::kAgg, FlowQuery{}.with_proto(6), GroupBy::kLabel});
  return mix;
}

/// One multiply per word: the fingerprint covers every field of every
/// returned row, up to a few hundred thousand rows per query.
std::uint64_t mix_word(std::uint64_t h, std::uint64_t v) noexcept {
  h = (h ^ v) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 29);
}

std::uint64_t fold_flow(std::uint64_t h, const store::StoredFlow& s) {
  const FlowRecord& f = s.flow;
  h = mix_word(h, s.id);
  h = mix_word(h, f.tuple.src.value());
  h = mix_word(h, f.tuple.dst.value());
  h = mix_word(h, (std::uint64_t{f.tuple.src_port} << 24) |
                      (std::uint64_t{f.tuple.dst_port} << 8) | f.tuple.proto);
  h = mix_word(h, static_cast<std::uint64_t>(f.initial_direction));
  h = mix_word(h, static_cast<std::uint64_t>(f.first_ts.nanos()));
  h = mix_word(h, static_cast<std::uint64_t>(f.last_ts.nanos()));
  for (const std::uint64_t v :
       {f.packets, f.bytes, f.payload_bytes, f.fwd_packets, f.rev_packets})
    h = mix_word(h, v);
  for (const std::uint32_t v :
       {f.syn_count, f.synack_count, f.fin_count, f.rst_count, f.psh_count})
    h = mix_word(h, v);
  h = mix_word(h, f.saw_dns ? 1 : 0);
  // scenario_id is left out: by design it stays local to a shard and is
  // not on the CLRP wire (store/wire.cpp), so rows read through a
  // RemoteShard carry 0 there.
  for (const std::uint64_t v : f.label_packets) h = mix_word(h, v);
  return h;
}

/// Row count and id checksum; with `fingerprint`, also a hash of every
/// field of every row (for the cluster's bit-identity check).
template <typename Rows>
Expected summarize_rows(const Rows& rows, bool fingerprint) {
  Expected e;
  e.id_checksum = kFnvBasis;
  e.fingerprint = kFnvBasis;
  for (const store::StoredFlow& s : rows) {
    ++e.rows;
    e.id_checksum = fold(e.id_checksum, s.id);
    if (fingerprint) e.fingerprint = fold_flow(e.fingerprint, s);
  }
  return e;
}

/// Aggregates compare as (key, flows, packets, bytes) in key order for
/// the reference check and in answer order for bit-identity.
Expected summarize_agg(const store::AggregateResult& a) {
  Expected e;
  e.rows = a.matched_flows;
  auto sorted = a.rows;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) { return x.key < y.key; });
  e.id_checksum = kFnvBasis;
  for (const auto& r : sorted)
    for (const std::uint64_t v : {r.key, r.flows, r.packets, r.bytes})
      e.id_checksum = fold(e.id_checksum, v);
  e.fingerprint = kFnvBasis;
  for (const auto& r : a.rows)
    for (const std::uint64_t v : {r.key, r.flows, r.packets, r.bytes})
      e.fingerprint = fold(e.fingerprint, v);
  return e;
}

/// Brute force: scan every stored flow with FlowQuery::matches.
Expected reference_answer(const store::DataStore& store, const Query& q) {
  Expected e;
  e.id_checksum = kFnvBasis;
  if (q.kind != Kind::kAgg) {
    store.for_each([&](const store::StoredFlow& s) {
      if (!q.filter.matches(s)) return;
      ++e.rows;
      e.id_checksum = fold(e.id_checksum, s.id);
    });
    return e;
  }
  std::vector<store::AggregateRow> groups(packet::kTrafficLabelCount);
  store.for_each([&](const store::StoredFlow& s) {
    if (!q.filter.matches(s)) return;
    ++e.rows;
    auto& g = groups[static_cast<std::size_t>(s.flow.majority_label())];
    ++g.flows;
    g.packets += s.flow.packets;
    g.bytes += s.flow.bytes;
  });
  for (std::size_t k = 0; k < groups.size(); ++k) {
    if (groups[k].flows == 0) continue;
    for (const std::uint64_t v :
         {std::uint64_t{k}, groups[k].flows, groups[k].packets,
          groups[k].bytes})
      e.id_checksum = fold(e.id_checksum, v);
  }
  return e;
}

store::DataStoreConfig store_config(std::size_t threads) {
  store::DataStoreConfig c;
  c.segment_flows = kSegmentFlows;
  c.query_threads = threads;
  return c;
}

std::unique_ptr<store::DataStore> fill_store(const CampusFlows& base) {
  auto s = std::make_unique<store::DataStore>(store_config(kStoreThreads));
  FlowSource source(base);
  for (FlowRecord f; source.next(f);) s->ingest(f);
  return s;
}

void check_mix(Report& report, const std::vector<Query>& mix) {
  report.check(mix.size() == kMixQueries,
               "query mix has " + std::to_string(mix.size()) + " of " +
                   std::to_string(kMixQueries) + " queries");
}

/// Each query's brute-force answer, with the store's own answer
/// fingerprint for the bit-identity check.
std::vector<Expected> build_reference(const store::DataStore& s,
                                      const std::vector<Query>& mix) {
  std::vector<Expected> ref;
  for (const auto& q : mix) {
    Expected e = reference_answer(s, q);
    e.fingerprint = q.kind == Kind::kAgg
                        ? summarize_agg(s.aggregate(q.filter, q.group_by))
                              .fingerprint
                        : summarize_rows(s.query(q.filter), true).fingerprint;
    ref.push_back(e);
  }
  return ref;
}

struct Sample {
  Kind kind;
  double us;
};

struct Totals {
  std::size_t rows_scanned = 0, index_hits = 0, pinned = 0, scanned = 0;
  std::size_t threads = 0, rpc_failures = 0;
};

void accumulate(Totals& t, const store::QueryStats& s) {
  t.rows_scanned += s.rows_scanned;
  t.index_hits += s.index_hits;
  t.pinned += s.segments_pinned;
  t.scanned += s.segments_scanned;
  t.threads = std::max(t.threads, s.threads);
}

bool answer_ok(const Expected& got, const Expected& want, bool bit_identical) {
  return got.rows == want.rows && got.id_checksum == want.id_checksum &&
         (!bit_identical || got.fingerprint == want.fingerprint);
}

/// Server-side timing decorator: what each CLRP request costs inside
/// the ShardServer, excluding the wire.
class TimingShard final : public store::StoreShard {
 public:
  explicit TimingShard(store::StoreShard& inner) : inner_(inner) {}

  Result<store::ShardIngestAck> ingest(
      const store::ShardIngestBatch& batch) override {
    return inner_.ingest(batch);
  }
  Status ingest_log(const store::LogEvent& event) override {
    return inner_.ingest_log(event);
  }
  Result<store::ShardQueryRows> query(
      const store::ShardQueryPlan& plan) const override {
    return timed([&] { return inner_.query(plan); });
  }
  Result<store::AggregateResult> aggregate(const FlowQuery& q, GroupBy g,
                                           std::size_t top_k) const override {
    return timed([&] { return inner_.aggregate(q, g, top_k); });
  }
  Result<store::LogResult> query_logs(
      const store::LogQuery& q) const override {
    return inner_.query_logs(q);
  }
  Result<store::CatalogInfo> catalog() const override {
    return inner_.catalog();
  }
  Result<std::uint64_t> flow_count() const override {
    return inner_.flow_count();
  }

  std::uint64_t busy_ns() const noexcept {
    return busy_ns_.load(std::memory_order_acquire);
  }

 private:
  template <typename Fn>
  auto timed(Fn&& fn) const -> decltype(fn()) {
    Span span(span::kShardQuery);
    const std::int64_t t0 = now_ns();
    auto result = fn();
    busy_ns_.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                       std::memory_order_acq_rel);
    return result;
  }

  store::StoreShard& inner_;
  mutable std::atomic<std::uint64_t> busy_ns_{0};
};

/// 2 nodes, replication 2: node i's ShardServer serves its primary
/// LocalShard (behind a TimingShard); the router reaches it through
/// one RemoteShard.
class LoopbackCluster {
 public:
  static constexpr std::size_t kNodes = 2;

  LoopbackCluster() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      primaries_.push_back(
          std::make_unique<store::LocalShard>(store_config(1)));
      timers_.push_back(std::make_unique<TimingShard>(*primaries_.back()));
      servers_.push_back(std::make_unique<store::ShardServer>());
      servers_.back()->add_shard(0, *timers_.back());
      const Status st = servers_.back()->start();
      if (!st.ok()) {
        error_ = st.error().message;
        return;
      }
    }
    store::ClusterConfig cfg;
    cfg.nodes = kNodes;
    cfg.replication = 2;
    cfg.node_store = store_config(1);
    cfg.shard_factory = [this](store::NodeId via, store::NodeId owner,
                               store::DataStoreConfig node_cfg)
        -> std::unique_ptr<store::StoreShard> {
      if (via != owner)
        return std::make_unique<store::LocalShard>(std::move(node_cfg));
      store::RemoteShardConfig remote;
      remote.port = servers_[via]->port();
      remote.shard = 0;
      return std::make_unique<store::RemoteShard>(remote);
    };
    cluster_ = std::make_unique<store::Cluster>(std::move(cfg));
  }

  ~LoopbackCluster() {
    cluster_.reset();  // close client connections first
    for (auto& s : servers_) s->stop();
  }

  bool ok() const noexcept { return error_.empty(); }
  const std::string& error() const noexcept { return error_; }
  store::Cluster& cluster() noexcept { return *cluster_; }

  std::uint64_t shard_busy_ns() const {
    std::uint64_t t = 0;
    for (const auto& s : timers_) t += s->busy_ns();
    return t;
  }
  std::uint64_t frames_served() const {
    std::uint64_t t = 0;
    for (const auto& s : servers_) t += s->frames_served();
    return t;
  }

 private:
  std::vector<std::unique_ptr<store::LocalShard>> primaries_;
  std::vector<std::unique_ptr<TimingShard>> timers_;
  std::vector<std::unique_ptr<store::ShardServer>> servers_;
  std::unique_ptr<store::Cluster> cluster_;
  std::string error_;
};

std::uint64_t cluster_rpc_failures() {
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < LoopbackCluster::kNodes; ++i)
    t += obs::Registry::global()
             .counter("cluster.rpc_failures", "node=" + std::to_string(i))
             .value();
  return t;
}

/// Answers one query through `run` (timed), checks it, records stats.
struct Client {
  const std::vector<Query>& mix;
  const std::vector<Expected>& ref;
  bool bit_identical;
  Report& report;
  std::vector<Sample> samples;
  Totals totals;
  std::uint64_t next_id = 0;
  double busy_s = 0;

  template <typename Exec>
  double run_pass(Exec&& exec) {
    double pass = 0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      Tracer::set_trace_id(++next_id);
      Expected got;
      const double s = exec(mix[i], got, totals);
      pass += s;
      samples.push_back({mix[i].kind, s * 1e6});
      if (!answer_ok(got, ref[i], bit_identical)) std::fprintf(stderr, "DBG q%zu rows %llu/%llu ids %d fp %d\n", i, (unsigned long long)got.rows, (unsigned long long)ref[i].rows, got.id_checksum == ref[i].id_checksum, got.fingerprint == ref[i].fingerprint);
      report.check(answer_ok(got, ref[i], bit_identical),
                   std::string("wrong answer to the ") +
                       kKindNames[static_cast<int>(mix[i].kind)] +
                       " query #" + std::to_string(i));
    }
    busy_s += pass;
    return pass;
  }
};

void add_latency_notes(Report& report, const std::vector<Sample>& samples,
                       double busy_s) {
  std::vector<double> all;
  for (const auto& s : samples) all.push_back(s.us);
  char line[256];
  std::snprintf(line, sizeof line,
                "query_p50_us %.6g us, query_p99_us %.6g us, qps %.6g 1/s "
                "(n=%zu)",
                percentile(all, 50), percentile(all, 99),
                busy_s > 0 ? static_cast<double>(all.size()) / busy_s : 0.0,
                all.size());
  report.note(line);
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::vector<double> v;
    for (const auto& s : samples)
      if (static_cast<std::size_t>(s.kind) == k) v.push_back(s.us);
    std::snprintf(line, sizeof line,
                  "  %-5s p50 %10.1f us  p99 %10.1f us  min %10.1f us  "
                  "max %10.1f us  (n=%zu)",
                  kKindNames[k], percentile(v, 50), percentile(v, 99),
                  percentile(v, 0), percentile(v, 100), v.size());
    report.note(line);
  }
}

void add_kind_metrics(Report& report, const std::vector<Sample>& samples) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    std::vector<double> v;
    for (const auto& s : samples)
      if (static_cast<std::size_t>(s.kind) == k) v.push_back(s.us);
    report.add(std::string("store.query_us.") + kKindNames[k], median(v),
               "us", v.size());
  }
}

void add_scan_metrics(Report& report, const Totals& t, std::size_t passes) {
  const double per = passes == 0 ? 1.0 : static_cast<double>(passes);
  report.add("store.rows_scanned", static_cast<double>(t.rows_scanned) / per,
             "count", passes);
  report.add("store.segment_prune_ratio",
             t.pinned == 0 ? 0.0
                           : 1.0 - static_cast<double>(t.scanned) /
                                       static_cast<double>(t.pinned),
             "ratio", passes);
  report.add("store.index_hits", static_cast<double>(t.index_hits) / per,
             "count", passes);
  report.add("store.scan_threads", static_cast<double>(t.threads), "count");
}

/// Runs passes of the mix until the phase budget is spent; returns each
/// pass's seconds.
template <typename Exec>
std::vector<double> run_phase(Client& client, double budget, Exec&& exec) {
  std::vector<double> passes;
  double spent = 0;
  do {
    passes.push_back(client.run_pass(exec));
    spent += passes.back();
  } while (spent < budget);
  return passes;
}

}  // namespace

Report run_store_query(const Options& opt) {
  Report report;
  std::vector<Query> mix;
  std::size_t recorded = 0;
  std::unique_ptr<store::DataStore> db;
  std::vector<Expected> ref;
  const auto setup = repeat_timed(
      [&] {
        db.reset();
        const CampusFlows base = record_campus_flows();
        recorded = base.flows.size();
        mix = make_mix(opt.seed, base);
        db = fill_store(base);
        ref = build_reference(*db, mix);
      },
      kStoreSetupReps, 0.0, kStoreSetupReps);
  check_mix(report, mix);
  const auto catalog = db->catalog();
  char line[256];
  std::snprintf(line, sizeof line,
                "store: %llu flows tiled from %zu recorded, %zu segments, "
                "~%.0f MB hot, query_threads %zu, %zu queries per pass",
                static_cast<unsigned long long>(catalog.total_flows),
                recorded, catalog.segments,
                static_cast<double>(db->hot_bytes()) / 1e6, kStoreThreads,
                mix.size());
  report.note(line);

  const auto exec = [&](const Query& q, Expected& got, Totals& totals) {
    double s = 0;
    if (q.kind == Kind::kAgg) {
      store::AggregateResult a;
      s = time_once([&] {
        Span span(span::kStoreQuery);
        a = db->aggregate(q.filter, q.group_by);
      });
      accumulate(totals, a.stats);
      got = summarize_agg(a);
    } else {
      store::QueryResult r;
      s = time_once([&] {
        Span span(span::kStoreQuery);
        r = db->query(q.filter);
      });
      accumulate(totals, r.stats());
      got = summarize_rows(r, false);
    }
    return s;
  };

  Client warm{mix, ref, false, report};
  Client client{mix, ref, false, report};
  std::unique_ptr<Tracer> tracer;
  std::vector<double> untraced, passes;
  if (opt.trace) {
    untraced = run_phase(warm, opt.seconds / 2, exec);
    tracer = std::make_unique<Tracer>();
    install_tracer(tracer.get());
    passes = run_phase(client, opt.seconds / 2, exec);
    install_tracer(nullptr);
  } else {
    passes = run_phase(client, opt.seconds, exec);
  }
  add_latency_notes(report, client.samples, client.busy_s);
  report.note(spread_line("pass seconds", passes, "s"));

  if (!opt.trace) {
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cycle_s", median(passes), "s", passes.size());
    return report;
  }
  add_kind_metrics(report, client.samples);
  add_scan_metrics(report, client.totals, passes.size());
  add_trace_summary(report, *tracer, client.busy_s, median(untraced),
                    median(passes), passes.size());
  write_trace(*tracer, opt);
  complete_per_layer(report);
  return report;
}

Report run_cluster_query(const Options& opt) {
  Report report;
  std::vector<Query> mix;
  std::unique_ptr<LoopbackCluster> lc;
  std::vector<Expected> ref;
  std::uint64_t ingest_lost = 0;
  const auto setup = repeat_timed(
      [&] {
        lc.reset();
        const CampusFlows base = record_campus_flows();
        mix = make_mix(opt.seed, base);
        ref = build_reference(*fill_store(base), mix);
        lc = std::make_unique<LoopbackCluster>();
        if (!lc->ok()) return;
        FlowSource source(base);
        std::vector<FlowRecord> chunk;
        for (bool more = true; more;) {
          chunk.clear();
          FlowRecord f;
          while (chunk.size() < kIngestChunk && (more = source.next(f)))
            chunk.push_back(f);
          const auto r = lc->cluster().ingest(chunk);
          ingest_lost += chunk.size() -
                         std::min<std::uint64_t>(chunk.size(),
                                                 r.fully_replicated);
        }
      },
      kClusterSetupReps, 0.0, kClusterSetupReps);
  check_mix(report, mix);
  report.check(lc->ok(), "shard servers failed to start: " + lc->error());
  report.check(ingest_lost == 0,
               std::to_string(ingest_lost) + " flows not fully replicated");
  if (!lc->ok()) {
    report.metrics.clear();
    return report;
  }
  store::Cluster& cluster = lc->cluster();
  char line[200];
  std::snprintf(line, sizeof line,
                "cluster: %zu nodes, replication %zu, %llu flows, "
                "1 scan thread per node, %zu queries per pass",
                cluster.nodes(), cluster.replication(),
                static_cast<unsigned long long>(cluster.size()), mix.size());
  report.note(line);

  std::uint64_t rpc_failures = 0;
  const auto exec = [&](const Query& q, Expected& got, Totals& totals) {
    double s = 0;
    if (q.kind == Kind::kAgg) {
      store::AggregateResult a;
      s = time_once([&] {
        Span span(span::kClusterQuery);
        a = cluster.aggregate(q.filter, q.group_by);
      });
      accumulate(totals, a.stats);
      got = summarize_agg(a);
    } else {
      store::ClusterQueryResult r;
      s = time_once([&] {
        Span span(span::kClusterQuery);
        r = cluster.query(q.filter);
      });
      accumulate(totals, r.stats().scan);
      rpc_failures += r.stats().rpc_failures;
      report.check(r.stats().rpc_failures == 0, "cluster query RPC failed");
      got = summarize_rows(r, true);
    }
    return s;
  };

  Client warm{mix, ref, true, report};
  Client client{mix, ref, true, report};
  std::unique_ptr<Tracer> tracer;
  std::vector<double> untraced, passes;
  const std::uint64_t failures_before = cluster_rpc_failures();
  std::uint64_t busy0 = 0, frames0 = 0;
  if (opt.trace) {
    untraced = run_phase(warm, opt.seconds / 2, exec);
    tracer = std::make_unique<Tracer>();
    busy0 = lc->shard_busy_ns();
    frames0 = lc->frames_served();
    install_tracer(tracer.get());
    passes = run_phase(client, opt.seconds / 2, exec);
    install_tracer(nullptr);
  } else {
    passes = run_phase(client, opt.seconds, exec);
  }
  const std::uint64_t failures = cluster_rpc_failures() - failures_before;
  report.check(failures == 0,
               std::to_string(failures) + " cluster RPCs failed");
  add_latency_notes(report, client.samples, client.busy_s);
  report.note(spread_line("pass seconds", passes, "s"));

  if (!opt.trace) {
    report.add("setup_s", median(setup), "s", setup.size());
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("cycle_s", median(passes), "s", passes.size());
    return report;
  }
  const double queries = static_cast<double>(client.samples.size());
  const double shard_s =
      static_cast<double>(lc->shard_busy_ns() - busy0) / 1e9;
  add_kind_metrics(report, client.samples);
  add_scan_metrics(report, client.totals, passes.size());
  report.add("store.shard_query_us", shard_s * 1e6 / queries, "us",
             client.samples.size());
  report.add("store.rpc_us", (client.busy_s - shard_s) * 1e6 / queries,
             "us", client.samples.size());
  report.add("store.rpc_failures",
             static_cast<double>(rpc_failures + failures), "count");
  report.add("store.frames_served",
             static_cast<double>(lc->frames_served() - frames0) /
                 static_cast<double>(passes.size()),
             "count", passes.size());
  add_trace_summary(report, *tracer, client.busy_s, median(untraced),
                    median(passes), passes.size());
  write_trace(*tracer, opt);
  complete_per_layer(report);
  return report;
}

}  // namespace perfbench
