// Behavior emitters — one per BehaviorKind — plus the ScenarioSpec
// registry that binds kinds to labels, legacy-faithful defaults and
// factories.
//
// Byte-identity contract: for the five legacy attack shapes (constant
// envelope, default selectors/shapes), each emitter reproduces the
// retired AttackInjector classes' frame streams exactly — same rng draw
// order, same seed salts (0xD45, 0x5F1, 0x9C4/0x9C5, 0xB4F/0xB50,
// 0xF1A5), same packet construction. scenario_test.cpp pins this
// against hashes recorded from the pre-refactor binaries.
#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campuslab/packet/dns.h"
#include "campuslab/sim/scenario.h"

namespace campuslab::sim {

using packet::DnsType;
using packet::Endpoint;
using packet::Ipv4Address;
using packet::MacAddress;
using packet::PacketBuilder;
using packet::TcpFlags;
using packet::TrafficLabel;

namespace {

Error bad_shape(std::string why) {
  return Error::make("scenario_bad_shape", std::move(why));
}

/// Window + envelope validation shared by every emitter.
Status preflight(const AttackPhase& phase) {
  if (phase.duration <= Duration{}) {
    return Error::make("scenario_empty_window",
                       "phase '" + phase.name + "' has an empty window");
  }
  return phase.intensity.validate();
}

/// Resolve the phase's victim set with a seed-derived rng (so pick()
/// replays). Selectors without pick() consume no randomness.
Result<std::vector<Host>> resolve_victims(const AttackPhase& phase,
                                          const CampusNetwork& net,
                                          std::uint64_t seed) {
  Rng rng(seed ^ 0x51C7);
  return phase.victim_set.resolve(net.topology(), rng);
}

/// Drive an emission loop under the phase's intensity envelope.
/// `emit_one` is called once per packet slot. For a constant envelope
/// this draws exactly like the legacy loop (emit, then one exponential
/// gap), which the byte-identity pins depend on.
void drive(CampusNetwork& net, const AttackPhase& phase, std::uint64_t seed,
           std::function<void(Rng&)> emit_one) {
  struct LoopState {
    Rng rng;
    Timestamp start;
    Timestamp end;
    Duration window;
    IntensityEnvelope env;
    std::function<void(Rng&)> emit;
  };
  auto st = std::make_shared<LoopState>(
      LoopState{Rng(seed), phase.start, phase.start + phase.duration,
                phase.duration, phase.intensity, std::move(emit_one)});
  // Self-passing continuation: every queued event owns a copy of the
  // closure (which owns `st`), so once the loop window ends — or the
  // event queue is destroyed — the last copy releases the state. A
  // shared_ptr<function> whose body recaptures that same shared_ptr
  // would form a permanent cycle and leak (it used to).
  auto step = [&net, st](auto self) -> void {
    const Timestamp now = net.events().now();
    if (now > st->end) return;
    const double r = st->env.rate_at(now, st->start, st->window, net.config());
    if (r > 0.0) {
      st->emit(st->rng);
      net.events().schedule_in(
          Duration::from_seconds(st->rng.exponential(1.0 / r)),
          [self] { self(self); });
      return;
    }
    // Off-phase of a burst envelope: jump to the next active edge.
    const auto next = st->env.next_active(now - st->start);
    if (!next) return;
    Timestamp at = st->start + *next;
    if (at <= now) at = now + Duration::millis(1);  // never same-time spin
    if (at > st->end) return;
    net.events().schedule_at(at, [self] { self(self); });
  };
  net.events().schedule_at(phase.start, [step] { step(step); });
}

/// Shared skeleton: phase storage, counters, spec-derived label.
class EmitterBase : public Emitter {
 public:
  explicit EmitterBase(AttackPhase phase) : phase_(std::move(phase)) {}

  std::uint64_t packets_emitted() const noexcept override { return emitted_; }
  BehaviorKind kind() const noexcept override { return phase_.kind; }
  TrafficLabel label() const noexcept override {
    return scenario_spec(phase_.kind).label;
  }

 protected:
  /// The phase's shape, or scenario_shape_mismatch when with() supplied
  /// a shape for a different behavior kind.
  template <typename Shape>
  Result<Shape> shape() const {
    if (const auto* s = std::get_if<Shape>(&phase_.shape)) return *s;
    return Error::make("scenario_shape_mismatch",
                       "phase '" + phase_.name +
                           "' carries a shape for a different kind than " +
                           std::string(to_string(phase_.kind)));
  }

  AttackPhase phase_;
  std::uint64_t emitted_ = 0;
};

// ---------------------------------------------------------------------------

class DnsAmplificationEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<DnsAmplificationShape>();
    if (!shape_r.ok()) return shape_r.error();
    const DnsAmplificationShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.reflectors < 1) return bad_shape("reflector pool must be >= 1");
    if (sh.payload_spread < 0.0 || sh.payload_spread >= 1.0) {
      return bad_shape("payload_spread must be in [0, 1)");
    }
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    auto victims =
        std::make_shared<std::vector<Host>>(std::move(victims_r).value());

    // Pre-serialize a small family of response bodies around the target
    // size (real reflectors answer with whatever records they hold, so
    // sizes jitter); per packet we vary the body, the DNS id, and the
    // reflector address.
    const auto query =
        packet::make_dns_query(0, "amp.reflector.example", DnsType::kAny);
    std::vector<double> scales;
    if (sh.payload_spread > 0.0) {
      for (int i = 0; i < 5; ++i) {
        scales.push_back(1.0 - sh.payload_spread +
                         (2.0 * sh.payload_spread * i) / 4.0);
      }
    } else {
      scales = {0.55, 0.75, 1.0, 1.2, 1.45};  // the legacy family
    }
    auto bodies = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
    for (const double scale : scales) {
      const auto bytes = std::max<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(sh.response_bytes) *
                                   scale),
          80);
      bodies->push_back(packet::make_dns_response(query, 6, bytes).serialize());
    }

    const Timestamp start = phase_.start;
    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0xD45,
          [this, &net, sh, victims, bodies, start, sid](Rng& rng) {
            // Churn slides the reflector pool window forward over time;
            // a static pool (churn 0, the legacy shape) keeps offset 0.
            const double elapsed = (net.events().now() - start).to_seconds();
            const auto pool_offset = static_cast<std::uint32_t>(
                std::max(0.0, sh.reflector_churn_per_s * elapsed));
            const auto reflector_index =
                pool_offset +
                static_cast<std::uint32_t>(
                    rng.below(static_cast<std::uint64_t>(sh.reflectors)));
            const Host& victim_host =
                victims->size() == 1 ? (*victims)[0]
                                     : (*victims)[rng.below(victims->size())];
            Endpoint reflector{
                MacAddress::from_id(0x00A00000u | reflector_index),
                Topology::external_host(2, reflector_index, 53).ip, 53};
            Endpoint victim{MacAddress::from_id(0x00A10000u),
                            victim_host.endpoint.ip,
                            static_cast<std::uint16_t>(1024 +
                                                       rng.below(60000))};
            auto& body = (*bodies)[rng.below(bodies->size())];
            body[0] = static_cast<std::uint8_t>(rng.below(256));
            body[1] = static_cast<std::uint8_t>(rng.below(256));
            auto pkt = PacketBuilder(net.events().now())
                           .udp(reflector, victim)
                           .payload(body)
                           .label(TrafficLabel::kDnsAmplification)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------

class SynFloodEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<SynFloodShape>();
    if (!shape_r.ok()) return shape_r.error();
    const SynFloodShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.spoof_pool < 0) return bad_shape("spoof_pool must be >= 0");
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    auto victims =
        std::make_shared<std::vector<Host>>(std::move(victims_r).value());

    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0x5F1,
          [this, &net, sh, victims, sid](Rng& rng) {
            const Host& victim_host =
                victims->size() == 1 ? (*victims)[0]
                                     : (*victims)[rng.below(victims->size())];
            Endpoint victim = victim_host.endpoint;
            victim.port = sh.target_port;
            Endpoint spoofed;
            if (sh.spoof_pool > 0) {
              // Botnet shape: a fixed pool of real (non-spoofed) sources.
              const auto bot = static_cast<std::uint32_t>(
                  rng.below(static_cast<std::uint64_t>(sh.spoof_pool)));
              spoofed = Endpoint{
                  MacAddress::from_id(0x00B00000u | bot),
                  Topology::external_host(4, bot, 0).ip,
                  static_cast<std::uint16_t>(1024 + rng.below(60000))};
            } else {
              // Legacy shape: fully random spoofing.
              spoofed = Endpoint{
                  MacAddress::from_id(0x00B00000u |
                                      static_cast<std::uint32_t>(
                                          rng.below(1 << 20))),
                  Topology::random_external_address(rng),
                  static_cast<std::uint16_t>(1024 + rng.below(60000))};
            }
            auto pkt = PacketBuilder(net.events().now())
                           .tcp(spoofed, victim, TcpFlags::kSyn,
                                static_cast<std::uint32_t>(rng.next()))
                           .label(TrafficLabel::kSynFlood)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------

class PortScanEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<PortScanShape>();
    if (!shape_r.ok()) return shape_r.error();
    const PortScanShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.ports_per_host < 1) return bad_shape("ports_per_host must be >= 1");
    if (sh.responder_fraction < 0.0 || sh.responder_fraction > 1.0) {
      return bad_shape("responder_fraction must be in [0, 1]");
    }
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    auto victims =
        std::make_shared<std::vector<Host>>(std::move(victims_r).value());

    // One persistent scanner walking the selected address space.
    Rng addr_rng(ctx.seed ^ 0x9C4);
    const Endpoint scanner{MacAddress::from_id(0x00C00001u),
                           Topology::random_external_address(addr_rng), 0};
    static constexpr std::uint16_t kPorts[] = {21,  22,   23,   25,   80,
                                               110, 139,  143,  443,  445,
                                               3306, 3389, 5432, 8080};
    constexpr int kPortCount =
        static_cast<int>(sizeof kPorts / sizeof kPorts[0]);
    const int ports_per_host = std::min(sh.ports_per_host, kPortCount);
    auto cursor = std::make_shared<std::uint64_t>(0);

    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0x9C5,
          [this, &net, sh, victims, scanner, cursor, ports_per_host, sid,
           kPortCount](Rng& rng) {
            const std::size_t n = victims->size();
            const Host* target = nullptr;
            std::uint16_t port = 0;
            auto probe_flags = static_cast<std::uint8_t>(TcpFlags::kSyn);
            bool may_answer = true;
            switch (sh.style) {
              case ScanStyle::kSweep: {
                // Host-major walk: the legacy shape.
                const std::uint64_t host_idx =
                    (*cursor / static_cast<std::uint64_t>(ports_per_host)) % n;
                port = kPorts[*cursor %
                              static_cast<std::uint64_t>(ports_per_host)];
                ++*cursor;
                target = &(*victims)[host_idx];
                break;
              }
              case ScanStyle::kHorizontal:
                target = &(*victims)[*cursor % n];
                port = sh.horizontal_port;
                ++*cursor;
                break;
              case ScanStyle::kVertical:
                // Exhaust the whole port table per host before moving on.
                target = &(*victims)[(*cursor /
                                      static_cast<std::uint64_t>(kPortCount)) %
                                     n];
                port = kPorts[*cursor % static_cast<std::uint64_t>(kPortCount)];
                ++*cursor;
                break;
              case ScanStyle::kStealth:
                // Randomized order, FIN probes, nothing answers.
                target = &(*victims)[rng.below(n)];
                port = kPorts[rng.below(
                    static_cast<std::uint64_t>(kPortCount))];
                probe_flags = static_cast<std::uint8_t>(TcpFlags::kFin);
                may_answer = false;
                break;
            }
            Endpoint src = scanner;
            src.port = static_cast<std::uint16_t>(40000 + rng.below(20000));
            Endpoint dst = target->endpoint;
            dst.port = port;
            auto pkt = PacketBuilder(net.events().now())
                           .tcp(src, dst, probe_flags,
                                static_cast<std::uint32_t>(rng.next()))
                           .label(TrafficLabel::kPortScan)
                           .scenario(sid)
                           .build();
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
            // A fraction of probes hit something that answers; the campus
            // response (RST or SYN-ACK) heads outbound, labelled benign —
            // it is the victim's traffic, not the attacker's.
            if (may_answer && rng.chance(sh.responder_fraction)) {
              auto resp = PacketBuilder(net.events().now())
                              .tcp(dst, src,
                                   rng.chance(0.3)
                                       ? static_cast<std::uint8_t>(
                                             TcpFlags::kSyn | TcpFlags::kAck)
                                       : static_cast<std::uint8_t>(
                                             TcpFlags::kRst | TcpFlags::kAck),
                                   0, 1)
                              .scenario(sid)
                              .build();
              net.inject(Direction::kOutbound, std::move(resp));
            }
          });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------

class SshBruteForceEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<SshBruteForceShape>();
    if (!shape_r.ok()) return shape_r.error();
    if (auto s = preflight(phase_); !s.ok()) return s;
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    auto victims =
        std::make_shared<std::vector<Host>>(std::move(victims_r).value());

    Rng addr_rng(ctx.seed ^ 0xB4F);
    const Ipv4Address attacker_ip =
        Topology::random_external_address(addr_rng);

    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0xB50,
          [this, &net, victims, attacker_ip, sid](Rng& rng) {
            // One login attempt: SYN, SYN-ACK, ACK, a couple of small auth
            // exchanges, then RST from the server (failed password).
            const Host& gw_host =
                victims->size() == 1 ? (*victims)[0]
                                     : (*victims)[rng.below(victims->size())];
            Endpoint gateway = gw_host.endpoint;
            gateway.port = 22;
            Endpoint attacker{MacAddress::from_id(0x00D00001u), attacker_ip,
                              static_cast<std::uint16_t>(1024 +
                                                         rng.below(60000))};
            const Timestamp now = net.events().now();
            auto emit_in = [&](packet::Packet p) {
              ++emitted_;
              net.inject(Direction::kInbound, std::move(p));
            };
            emit_in(PacketBuilder(now)
                        .tcp(attacker, gateway, TcpFlags::kSyn, 7)
                        .label(TrafficLabel::kSshBruteForce)
                        .scenario(sid)
                        .build());
            net.inject(Direction::kOutbound,
                       PacketBuilder(now)
                           .tcp(gateway, attacker,
                                TcpFlags::kSyn | TcpFlags::kAck, 17, 8)
                           .scenario(sid)
                           .build());
            emit_in(PacketBuilder(now)
                        .tcp(attacker, gateway, TcpFlags::kAck, 8, 18)
                        .label(TrafficLabel::kSshBruteForce)
                        .scenario(sid)
                        .build());
            for (int i = 0; i < 3; ++i) {
              emit_in(PacketBuilder(now)
                          .tcp(attacker, gateway,
                               TcpFlags::kAck | TcpFlags::kPsh, 8, 18)
                          .payload_size(48 + rng.below(80))
                          .label(TrafficLabel::kSshBruteForce)
                          .scenario(sid)
                          .build());
              net.inject(Direction::kOutbound,
                         PacketBuilder(now)
                             .tcp(gateway, attacker,
                                  TcpFlags::kAck | TcpFlags::kPsh, 18, 8)
                             .payload_size(32 + rng.below(48))
                             .scenario(sid)
                             .build());
            }
            net.inject(Direction::kOutbound,
                       PacketBuilder(now)
                           .tcp(gateway, attacker, TcpFlags::kRst, 18, 8)
                           .scenario(sid)
                           .build());
          });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------

class FlashCrowdEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<FlashCrowdShape>();
    if (!shape_r.ok()) return shape_r.error();
    const FlashCrowdShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.sources < 1) return bad_shape("flash crowd needs >= 1 source");
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    auto victims =
        std::make_shared<std::vector<Host>>(std::move(victims_r).value());

    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0xF1A5,
          [this, &net, sh, victims, sid](Rng& rng) {
            const Host& receiver_host =
                victims->size() == 1 ? (*victims)[0]
                                     : (*victims)[rng.below(victims->size())];
            const auto edge = static_cast<std::uint32_t>(
                rng.below(static_cast<std::uint64_t>(sh.sources)));
            Endpoint src = Topology::external_host(1, edge, 443);
            Endpoint dst = receiver_host.endpoint;
            dst.port = static_cast<std::uint16_t>(40000 + edge);
            auto pkt = PacketBuilder(net.events().now())
                           .udp(src, dst)
                           .payload_size(sh.payload_bytes)
                           .scenario(sid)
                           .build();  // label stays kBenign
            ++emitted_;
            net.inject(Direction::kInbound, std::move(pkt));
          });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------

/// Per-host infection status for the worm state machine.
enum class WormStatus : std::uint8_t { kSusceptible, kIncubating, kSpreading };

class WormEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<WormShape>();
    if (!shape_r.ok()) return shape_r.error();
    const WormShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.initial_bots < 1) return bad_shape("worm needs >= 1 initial bot");
    if (sh.infect_probability < 0.0 || sh.infect_probability > 1.0) {
      return bad_shape("infect_probability must be in [0, 1]");
    }
    if (sh.external_hit_fraction < 0.0 || sh.external_hit_fraction > 1.0) {
      return bad_shape("external_hit_fraction must be in [0, 1]");
    }
    if (sh.incubation < Duration{}) {
      return bad_shape("incubation must be >= 0");
    }
    if (sh.max_external_bots < sh.initial_bots) {
      return bad_shape("max_external_bots must cover initial_bots");
    }
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();

    auto st = std::make_shared<State>();
    st->universe = std::move(victims_r).value();
    st->status.assign(st->universe.size(), WormStatus::kSusceptible);
    st->external_bots = sh.initial_bots;
    st_ = st;

    const std::uint32_t sid = ctx.scenario_id;
    drive(net, phase_, ctx.seed ^ 0x3B9A,
          [this, &net, sh, st, sid](Rng& rng) {
            // Pick a scanning source across the whole infected
            // population: external bots first, then spreading hosts.
            const std::size_t n_sources =
                static_cast<std::size_t>(st->external_bots) +
                st->spreading.size();
            const std::size_t src_idx =
                n_sources == 1 ? 0 : rng.below(n_sources);
            const Timestamp now = net.events().now();
            if (src_idx < static_cast<std::size_t>(st->external_bots)) {
              // Inbound scan from an external bot, possibly exploiting a
              // susceptible campus host.
              const std::size_t tgt = rng.below(st->universe.size());
              const Host& target = st->universe[tgt];
              Endpoint bot{MacAddress::from_id(
                               0x00E10000u |
                               static_cast<std::uint32_t>(src_idx)),
                           Topology::external_host(
                               5, static_cast<std::uint32_t>(src_idx), 0)
                               .ip,
                           static_cast<std::uint16_t>(1024 +
                                                      rng.below(60000))};
              Endpoint dst = target.endpoint;
              dst.port = sh.service_port;
              auto probe = PacketBuilder(now)
                               .tcp(bot, dst, TcpFlags::kSyn,
                                    static_cast<std::uint32_t>(rng.next()))
                               .label(TrafficLabel::kWorm)
                               .scenario(sid)
                               .build();
              ++emitted_;
              net.inject(Direction::kInbound, std::move(probe));
              maybe_infect(net, rng, st, sh, sid, tgt, bot, /*source_id=*/0);
            } else {
              const Host& src_host =
                  st->universe[st->spreading[src_idx - static_cast<std::size_t>(
                                                           st->external_bots)]];
              if (rng.chance(0.5)) {
                // Lateral spread inside the campus: never crosses the
                // border (no frame for the tap), but the state machine
                // advances and the infection chain records the hop.
                const std::size_t tgt = rng.below(st->universe.size());
                maybe_infect(net, rng, st, sh, sid, tgt, std::nullopt,
                             src_host.id);
              } else {
                // Outbound scan beyond the border — what the tap sees —
                // which recruits fresh external bots.
                Endpoint src = src_host.endpoint;
                src.port =
                    static_cast<std::uint16_t>(1024 + rng.below(60000));
                const auto ext_idx = static_cast<std::uint32_t>(
                    rng.below(1u << 16));
                Endpoint dst =
                    Topology::external_host(5, ext_idx, sh.service_port);
                auto probe = PacketBuilder(now)
                                 .tcp(src, dst, TcpFlags::kSyn,
                                      static_cast<std::uint32_t>(rng.next()))
                                 .label(TrafficLabel::kWorm)
                                 .scenario(sid)
                                 .build();
                ++emitted_;
                net.inject(Direction::kOutbound, std::move(probe));
                if (st->external_bots < sh.max_external_bots &&
                    rng.chance(sh.external_hit_fraction)) {
                  ++st->external_bots;
                }
              }
            }
          });
    return Status::success();
  }

  std::span<const WormInfection> infections() const noexcept override {
    return st_ ? std::span<const WormInfection>(st_->infections)
               : std::span<const WormInfection>{};
  }

 private:
  struct State {
    std::vector<Host> universe;        // the susceptible surface
    std::vector<WormStatus> status;    // parallel to universe
    std::vector<std::size_t> spreading;  // universe indexes, infection order
    std::vector<WormInfection> infections;
    int external_bots = 0;
  };

  /// Advance the target's state machine on a successful exploit:
  /// Susceptible → Incubating now, → Spreading after the incubation
  /// delay. `exploit_src` present = the exploit rode an inbound frame.
  void maybe_infect(CampusNetwork& net, Rng& rng,
                    const std::shared_ptr<State>& st, const WormShape& sh,
                    std::uint32_t sid, std::size_t tgt,
                    std::optional<Endpoint> exploit_src,
                    std::uint32_t source_id) {
    if (st->status[tgt] != WormStatus::kSusceptible) return;
    if (!rng.chance(sh.infect_probability)) return;
    const Timestamp now = net.events().now();
    st->status[tgt] = WormStatus::kIncubating;
    st->infections.push_back(
        WormInfection{st->universe[tgt].id, now, source_id});
    if (exploit_src) {
      // The exploit payload itself, border-visible on the inbound wire.
      Endpoint dst = st->universe[tgt].endpoint;
      dst.port = sh.service_port;
      auto exploit = PacketBuilder(now)
                         .tcp(*exploit_src, dst,
                              TcpFlags::kAck | TcpFlags::kPsh, 1, 1)
                         .payload_size(sh.exploit_bytes)
                         .label(TrafficLabel::kWorm)
                         .scenario(sid)
                         .build();
      ++emitted_;
      net.inject(Direction::kInbound, std::move(exploit));
    }
    net.events().schedule_at(now + sh.incubation, [st, tgt] {
      if (st->status[tgt] == WormStatus::kIncubating) {
        st->status[tgt] = WormStatus::kSpreading;
        st->spreading.push_back(tgt);
      }
    });
  }

  std::shared_ptr<State> st_;
};

// ---------------------------------------------------------------------------

class ExfiltrationEmitter final : public EmitterBase {
 public:
  using EmitterBase::EmitterBase;

  Status start(CampusNetwork& net, const EmitContext& ctx) override {
    const auto shape_r = shape<ExfiltrationShape>();
    if (!shape_r.ok()) return shape_r.error();
    const ExfiltrationShape sh = shape_r.value();
    if (auto s = preflight(phase_); !s.ok()) return s;
    if (sh.beacon_jitter < 0.0 || sh.beacon_jitter >= 1.0) {
      return bad_shape("beacon_jitter must be in [0, 1)");
    }
    if (sh.chunk_every < 1) return bad_shape("chunk_every must be >= 1");
    auto victims_r = resolve_victims(phase_, net, ctx.seed);
    if (!victims_r.ok()) return victims_r.error();
    const std::vector<Host> hosts = std::move(victims_r).value();

    // Beaconing is periodic-with-jitter, not Poisson: the defining
    // signature of low-and-slow C2 traffic is the regular heartbeat, so
    // this emitter runs its own loop instead of drive().
    struct LoopState {
      Rng rng;
      Timestamp start;
      Timestamp end;
      Duration window;
      IntensityEnvelope env;
      ExfiltrationShape shape;
      Host source;
      Endpoint c2;
      std::uint64_t beacons = 0;
    };
    auto st = std::make_shared<LoopState>(LoopState{
        Rng(ctx.seed ^ 0xEF11), phase_.start, phase_.start + phase_.duration,
        phase_.duration, phase_.intensity, sh, hosts.front(),
        Topology::external_host(4, static_cast<std::uint32_t>(ctx.seed % 1024),
                                sh.c2_port)});

    const std::uint32_t sid = ctx.scenario_id;
    auto step = [this, &net, st, sid](auto self) -> void {
      const Timestamp now = net.events().now();
      if (now > st->end) return;
      const double r =
          st->env.rate_at(now, st->start, st->window, net.config());
      if (r <= 0.0) {
        const auto next = st->env.next_active(now - st->start);
        if (!next) return;
        Timestamp at = st->start + *next;
        if (at <= now) at = now + Duration::millis(1);
        if (at > st->end) return;
        net.events().schedule_at(at, [self] { self(self); });
        return;
      }
      Rng& rng = st->rng;
      ++st->beacons;
      Endpoint src = st->source.endpoint;
      src.port = static_cast<std::uint16_t>(49152 + rng.below(16000));
      const auto seq = static_cast<std::uint32_t>(st->beacons);
      auto beacon = PacketBuilder(now)
                        .tcp(src, st->c2, TcpFlags::kAck | TcpFlags::kPsh,
                             seq, seq)
                        .payload_size(st->shape.beacon_bytes + rng.below(24))
                        .label(TrafficLabel::kExfiltration)
                        .scenario(sid)
                        .build();
      ++emitted_;
      net.inject(Direction::kOutbound, std::move(beacon));
      auto ack = PacketBuilder(now)
                     .tcp(st->c2, src, TcpFlags::kAck, seq, seq + 1)
                     .label(TrafficLabel::kExfiltration)
                     .scenario(sid)
                     .build();
      ++emitted_;
      net.inject(Direction::kInbound, std::move(ack));
      if (st->beacons % static_cast<std::uint64_t>(st->shape.chunk_every) ==
          0) {
        auto chunk =
            PacketBuilder(now)
                .tcp(src, st->c2, TcpFlags::kAck | TcpFlags::kPsh, seq + 1,
                     seq)
                .payload_size(st->shape.chunk_bytes + rng.below(128))
                .label(TrafficLabel::kExfiltration)
                .scenario(sid)
                .build();
        ++emitted_;
        net.inject(Direction::kOutbound, std::move(chunk));
      }
      // Jittered period: the beacon clock drifts ± jitter around 1/rate.
      const double period = 1.0 / r;
      const double gap =
          period *
          (1.0 + st->shape.beacon_jitter * (2.0 * rng.uniform() - 1.0));
      net.events().schedule_in(Duration::from_seconds(std::max(gap, 1e-6)),
                               [self] { self(self); });
    };
    net.events().schedule_at(phase_.start, [step] { step(step); });
    return Status::success();
  }
};

// ---------------------------------------------------------------------------
// Registry

template <typename E>
std::unique_ptr<Emitter> make_impl(const AttackPhase& phase) {
  return std::make_unique<E>(phase);
}

BehaviorShape shape_dns() { return DnsAmplificationShape{}; }
BehaviorShape shape_syn() { return SynFloodShape{}; }
BehaviorShape shape_scan() { return PortScanShape{}; }
BehaviorShape shape_ssh() { return SshBruteForceShape{}; }
BehaviorShape shape_crowd() { return FlashCrowdShape{}; }
BehaviorShape shape_worm() { return WormShape{}; }
BehaviorShape shape_exfil() { return ExfiltrationShape{}; }

VictimSelector victims_first_client() { return victims().first_client(); }
VictimSelector victims_web() {
  return victims().role(HostRole::kWebServer);
}
VictimSelector victims_all() { return victims(); }
VictimSelector victims_ssh() {
  return victims().role(HostRole::kSshGateway);
}
VictimSelector victims_client5() { return victims().client_index(5); }
VictimSelector victims_worm_surface() {
  return victims().worm_reachable();
}

// Defaults mirror the retired per-attack classes exactly; worm and
// exfiltration pick rates in character for their class (a worm's
// aggregate scan budget, a beacon every ~2s).
const std::array<ScenarioSpec, kBehaviorKindCount> kSpecs{{
    {BehaviorKind::kDnsAmplification, "dns_amplification",
     TrafficLabel::kDnsAmplification, 20'000, Duration::seconds(60),
     &shape_dns, &victims_first_client,
     &make_impl<DnsAmplificationEmitter>},
    {BehaviorKind::kSynFlood, "syn_flood", TrafficLabel::kSynFlood, 10'000,
     Duration::seconds(60), &shape_syn, &victims_web,
     &make_impl<SynFloodEmitter>},
    {BehaviorKind::kPortScan, "port_scan", TrafficLabel::kPortScan, 300,
     Duration::seconds(120), &shape_scan, &victims_all,
     &make_impl<PortScanEmitter>},
    {BehaviorKind::kSshBruteForce, "ssh_brute_force",
     TrafficLabel::kSshBruteForce, 8, Duration::seconds(180), &shape_ssh,
     &victims_ssh, &make_impl<SshBruteForceEmitter>},
    {BehaviorKind::kFlashCrowd, "flash_crowd", TrafficLabel::kBenign, 3000,
     Duration::seconds(30), &shape_crowd, &victims_client5,
     &make_impl<FlashCrowdEmitter>},
    {BehaviorKind::kWorm, "worm", TrafficLabel::kWorm, 80,
     Duration::seconds(60), &shape_worm, &victims_worm_surface,
     &make_impl<WormEmitter>},
    {BehaviorKind::kExfiltration, "exfiltration",
     TrafficLabel::kExfiltration, 0.5, Duration::seconds(300), &shape_exfil,
     &victims_first_client, &make_impl<ExfiltrationEmitter>},
}};

}  // namespace

const ScenarioSpec& scenario_spec(BehaviorKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return kSpecs[i < kSpecs.size() ? i : 0];
}

std::span<const ScenarioSpec> scenario_specs() noexcept { return kSpecs; }

std::unique_ptr<Emitter> make_emitter(const AttackPhase& phase) {
  return scenario_spec(phase.kind).make(phase);
}

}  // namespace campuslab::sim
