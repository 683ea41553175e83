// T-PRIV — §5 "Revisiting data privacy": privacy must be cheap enough
// to sit on the collection path. Microbenches for prefix-preserving
// anonymization (cold and cached), port permutation, payload policy
// application on real frames, and gate-arbitrated queries.
#include <benchmark/benchmark.h>

#include "campuslab/packet/builder.h"
#include "campuslab/privacy/gate.h"
#include "campuslab/util/rng.h"

using namespace campuslab;

namespace {

void BM_AnonymizeCold(benchmark::State& state) {
  privacy::PrefixPreservingAnonymizer anon(0xFEED);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon.anonymize(
        packet::Ipv4Address(static_cast<std::uint32_t>(rng.next()))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnonymizeCold);

void BM_AnonymizeCached(benchmark::State& state) {
  // A campus sees a bounded address population; the cache captures it.
  privacy::CachedAnonymizer anon(0xFEED);
  Rng rng(2);
  std::vector<packet::Ipv4Address> population;
  for (int i = 0; i < 4096; ++i)
    population.emplace_back(static_cast<std::uint32_t>(rng.next()));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon.anonymize(population[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnonymizeCached);

void BM_AnonymizePort(benchmark::State& state) {
  privacy::PrefixPreservingAnonymizer anon(0xFEED);
  std::uint16_t port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anon.anonymize_port(++port));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnonymizePort);

packet::Packet frame_to_port(std::uint16_t dport, std::size_t payload) {
  using namespace packet;
  return PacketBuilder(Timestamp::from_seconds(1))
      .udp(Endpoint{MacAddress::from_id(1), Ipv4Address(10, 0, 16, 2),
                    50000},
           Endpoint{MacAddress::from_id(2), Ipv4Address(1, 2, 3, 4),
                    dport})
      .payload_size(payload)
      .build();
}

void BM_PayloadPolicyApply(benchmark::State& state) {
  const auto policy = privacy::PayloadPolicy::conservative();
  const auto original = frame_to_port(
      static_cast<std::uint16_t>(state.range(0)), 1200);
  for (auto _ : state) {
    packet::Packet copy = original;
    policy.apply(copy, packet::PacketView(copy), 42);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(state.range(0) == 53   ? "keep (dns)"
                 : state.range(0) == 443 ? "truncate (web)"
                                          : "strip (ssh)");
}
BENCHMARK(BM_PayloadPolicyApply)->Arg(53)->Arg(443)->Arg(22);

void BM_GatedQuery(benchmark::State& state) {
  store::DataStore store;
  Rng rng(3);
  for (int i = 0; i < 50'000; ++i) {
    capture::FlowRecord f;
    f.tuple = packet::FiveTuple{
        packet::Ipv4Address(
            static_cast<std::uint32_t>(0x0A010000 + rng.below(512))),
        packet::Ipv4Address(
            static_cast<std::uint32_t>(0x08080000 + rng.below(64))),
        static_cast<std::uint16_t>(1024 + rng.below(60000)), 53, 17};
    f.first_ts = Timestamp::from_seconds(rng.uniform(0, 1000));
    f.last_ts = f.first_ts + Duration::seconds(1);
    f.packets = 10;
    f.bytes = 5000;
    f.label_packets[0] = 10;
    store.ingest(f);
  }
  privacy::PrivacyGate gate(store, privacy::AccessPolicy::campus_default(),
                            7);
  const bool researcher = state.range(0) == 1;
  for (auto _ : state) {
    store::FlowQuery q;
    q.on_port(53).top(100);
    benchmark::DoNotOptimize(
        gate.query(q,
                   researcher ? privacy::Role::kResearcher
                              : privacy::Role::kOperator,
                   "bench", Timestamp::from_seconds(1000)));
  }
  state.SetLabel(researcher ? "researcher (anonymizing)"
                            : "operator (raw)");
}
BENCHMARK(BM_GatedQuery)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
