// Composable scenario DSL: an attack is behavior × intensity × timing
// × victim set.
//
// The five legacy attack classes were closed one-off structs; this layer
// replaces them with an open algebra:
//
//   behavior   — a parameterized emitter (DNS amplification with
//                reflector churn, SYN flood with spoof-pool shapes,
//                sweep/horizontal/vertical/stealth port scans, a
//                stateful self-propagating worm, low-and-slow
//                exfiltration, flash crowds)
//   intensity  — an envelope over the phase window (constant, ramp,
//                square-wave burst, diurnal-modulated)
//   timing     — phase windows composed sequentially (`then`),
//                overlapping (`alongside`) or offset from a trigger
//                (`triggered`)
//   victim set — a selector over the topology (single host, role
//                filter, random-k, worm-reachable surface)
//
// A Scenario is a value: a list of AttackPhases assembled by the
// ref-qualified fluent ScenarioBuilder,
//
//   Scenario s = Scenario::attack(BehaviorKind::kSynFlood)
//                    .intensity(IntensityEnvelope::ramp(100, 5000))
//                    .during(Timestamp::from_seconds(10),
//                            Timestamp::from_seconds(70))
//                    .against(victims().role(HostRole::kWebServer))
//                    .with_seed(7);
//
// and CampusSimulator arms it directly. Every emitted frame carries its
// ground-truth TrafficLabel plus the arming scenario-instance id, so
// datasets stay labeled for free and evaluation can be broken down per
// scenario. Emission is seed-deterministic: the same scenario + seed
// reproduces a byte-identical frame stream.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "campuslab/sim/campus.h"
#include "campuslab/util/result.h"

namespace campuslab::sim {

// ---------------------------------------------------------------------------
// Behaviors

enum class BehaviorKind : std::uint8_t {
  kDnsAmplification = 0,
  kSynFlood = 1,
  kPortScan = 2,
  kSshBruteForce = 3,
  kFlashCrowd = 4,  // benign but attack-shaped (collateral-damage probe)
  kWorm = 5,
  kExfiltration = 6,
};
inline constexpr std::size_t kBehaviorKindCount = 7;

std::string_view to_string(BehaviorKind kind) noexcept;

/// DNS amplification / reflection flood (paper §2 running example).
struct DnsAmplificationShape {
  std::size_t response_bytes = 3000;  // DNS payload size per response
  int reflectors = 400;               // live open-resolver pool size
  /// Reflectors entering/leaving the pool per second (0 = static pool,
  /// the legacy behavior). Churn widens the observed source set.
  double reflector_churn_per_s = 0.0;
  /// Spread of the response-size family as a fraction of response_bytes.
  /// 0 keeps the legacy 5-point family {0.55, 0.75, 1.0, 1.2, 1.45}.
  double payload_spread = 0.0;
};

/// Spoofed-source SYN flood against a campus server.
struct SynFloodShape {
  std::uint16_t target_port = 443;
  /// 0 = fully random spoofing from the public space (legacy). > 0 = a
  /// botnet of this many fixed sources, the other classic flood shape.
  int spoof_pool = 0;
};

enum class ScanStyle : std::uint8_t {
  kSweep,       // host-major walk over hosts × top ports (legacy shape)
  kHorizontal,  // one port across every victim host
  kVertical,    // every port against few hosts
  kStealth,     // randomized FIN probes, no responses elicited
};

struct PortScanShape {
  ScanStyle style = ScanStyle::kSweep;
  int ports_per_host = 12;             // sweep/vertical port budget
  std::uint16_t horizontal_port = 22;  // the port a horizontal scan hits
  /// Fraction of probes that hit something that answers (sweep /
  /// horizontal / vertical; stealth probes never elicit answers).
  double responder_fraction = 0.2;
};

/// Repeated SSH login attempts against the bastion.
struct SshBruteForceShape {};

/// Benign flash crowd — not an attack, but the attack-shaped event that
/// stress-tests mitigation safety: labels stay kBenign, so any
/// mitigation that sheds it is measurable collateral damage.
struct FlashCrowdShape {
  std::size_t payload_bytes = 1200;
  int sources = 40;  // CDN edge nodes serving the event
};

/// Self-propagating worm: external bots scan the campus service port;
/// a successful exploit of a susceptible host starts an incubation
/// timer, after which the host turns Spreading and scans outward
/// itself (per-host Susceptible → Incubating → Spreading machines).
struct WormShape {
  std::uint16_t service_port = 445;
  double infect_probability = 0.4;  // per probe of a susceptible host
  Duration incubation = Duration::seconds(2);
  int initial_bots = 4;             // infected external population at t0
  std::size_t exploit_bytes = 360;  // exploit payload on infection
  /// Chance an outbound probe from a spreading campus host recruits a
  /// fresh external bot (spread beyond the border grows the botnet).
  double external_hit_fraction = 0.25;
  int max_external_bots = 4096;
};

/// Low-and-slow exfiltration: a compromised campus host beacons to an
/// external C2 on a jittered period; every chunk_every-th beacon rides
/// a data chunk out.
struct ExfiltrationShape {
  double beacon_jitter = 0.3;     // ± fraction on the beacon period
  std::size_t beacon_bytes = 96;  // heartbeat payload
  std::size_t chunk_bytes = 900;  // data chunk payload
  int chunk_every = 4;            // beacons per data chunk
  std::uint16_t c2_port = 443;
};

using BehaviorShape =
    std::variant<DnsAmplificationShape, SynFloodShape, PortScanShape,
                 SshBruteForceShape, FlashCrowdShape, WormShape,
                 ExfiltrationShape>;

// ---------------------------------------------------------------------------
// Intensity envelopes

/// Instantaneous emission rate over a phase window, in packets (or
/// events) per second. Envelopes are pure values; `rate_at` evaluates
/// the curve at a point in the window.
class IntensityEnvelope {
 public:
  enum class Kind : std::uint8_t { kConstant, kRamp, kSquareWave, kDiurnal };

  /// Legacy-equivalent flat rate.
  static IntensityEnvelope constant(double pps) noexcept;
  /// Linear ramp from `from_pps` at phase start to `to_pps` at phase end.
  static IntensityEnvelope ramp(double from_pps, double to_pps) noexcept;
  /// Bursts of `on_pps` for `duty`·period, `off_pps` in between.
  static IntensityEnvelope square_wave(double on_pps, Duration period,
                                       double duty = 0.5,
                                       double off_pps = 0.0) noexcept;
  /// `peak_pps` scaled by the campus time-of-day curve. Unlike benign
  /// load, the modulation always applies — it does not depend on
  /// CampusConfig::diurnal — so an attack can follow the day shape even
  /// in a flat-load sim.
  static IntensityEnvelope diurnal(double peak_pps) noexcept;

  Kind kind() const noexcept { return kind_; }
  /// Highest rate the envelope can reach (for capacity reasoning).
  double peak() const noexcept;

  /// Error code "scenario_bad_intensity" on non-positive / non-finite
  /// rates, periods or duty cycles outside (0, 1].
  Status validate() const;

  /// Rate at `now` for a phase spanning [start, start + window].
  double rate_at(Timestamp now, Timestamp start, Duration window,
                 const CampusConfig& campus) const noexcept;

  /// Earliest offset ≥ `elapsed` (from phase start) with nonzero rate;
  /// nullopt when the envelope never reactivates (rate_at stays 0).
  std::optional<Duration> next_active(Duration elapsed) const noexcept;

 private:
  Kind kind_ = Kind::kConstant;
  double a_ = 0.0;  // constant rate / ramp start / on rate / peak
  double b_ = 0.0;  // ramp end / off rate
  Duration period_{};
  double duty_ = 0.5;
};

// ---------------------------------------------------------------------------
// Victim-set selectors

/// A declarative victim set over the topology, resolved when the phase
/// is armed. Resolution is strict: an empty result or an out-of-range
/// index is an error with code "scenario_bad_victim" — never a silent
/// clamp (the retired flash-crowd injector's client-index footgun).
class VictimSelector {
 public:
  /// Default base set: every campus host, clients before servers (the
  /// order the legacy sweep scan walked).
  VictimSelector() = default;

  /// Keep only hosts with role `r`.
  VictimSelector role(HostRole r) const;
  /// Sample `k` distinct hosts from the selected set (seeded by the
  /// phase seed, so the draw replays).
  VictimSelector pick(std::size_t k) const;
  /// Exactly the host owning `ip` (error when no campus host has it).
  VictimSelector host(packet::Ipv4Address ip) const;
  /// Exactly clients()[i] (error when i is out of range).
  VictimSelector client_index(std::size_t i) const;
  /// The first campus client (the legacy DNS-amplification default).
  VictimSelector first_client() const;
  /// The worm-susceptible surface: client hosts plus the storage
  /// server (hosts plausibly running the vulnerable service).
  VictimSelector worm_reachable() const;

  /// Resolve against a topology. `rng` drives pick(); selectors without
  /// pick() consume no randomness.
  Result<std::vector<Host>> resolve(const Topology& topology,
                                    Rng& rng) const;

 private:
  enum class Base : std::uint8_t {
    kAllHosts,
    kFirstClient,
    kClientIndex,
    kAddress,
    kWormSurface,
  };

  Base base_ = Base::kAllHosts;
  std::optional<HostRole> role_{};
  std::optional<std::size_t> pick_{};
  std::size_t client_index_ = 0;
  packet::Ipv4Address address_{};
};

/// Entry point for selector chains: `victims().role(...).pick(3)`.
inline VictimSelector victims() { return VictimSelector{}; }

// ---------------------------------------------------------------------------
// Phases and scenarios

/// One armed behavior over one time window. Usually built through
/// ScenarioBuilder rather than by hand.
struct AttackPhase {
  BehaviorKind kind = BehaviorKind::kDnsAmplification;
  BehaviorShape shape{DnsAmplificationShape{}};
  IntensityEnvelope intensity;  // defaulted per kind by the builder
  Timestamp start;
  Duration duration{};          // defaulted per kind by the builder
  VictimSelector victim_set;
  /// Explicit emission seed; unset phases get a deterministic seed from
  /// the simulator (campus.seed + a per-arming salt).
  std::optional<std::uint64_t> seed{};
  std::string name;  // defaults to to_string(kind)
};

class ScenarioBuilder;

/// A scenario value: an ordered list of phases. Compose with `then`
/// (sequential: the continuation starts when this scenario ends),
/// `alongside` (overlapping: both phase lists merge unshifted) and
/// `triggered` (the continuation starts a fixed delay after this
/// scenario begins).
class Scenario {
 public:
  Scenario() = default;

  /// Start a fluent phase definition.
  static ScenarioBuilder attack(BehaviorKind kind);

  const std::vector<AttackPhase>& phases() const noexcept {
    return phases_;
  }
  bool empty() const noexcept { return phases_.empty(); }

  /// Earliest phase start (epoch when empty).
  Timestamp begin() const noexcept;
  /// Latest phase end (epoch when empty).
  Timestamp end() const noexcept;

  /// Sequential composition: `next` shifted so its earliest phase
  /// starts at this scenario's end.
  Scenario then(Scenario next) const;
  /// Overlapping composition: phases merged with their own timing.
  Scenario alongside(Scenario other) const;
  /// Triggered composition: `next` shifted to start `delay` after this
  /// scenario's begin (e.g. exfil triggered 30s into a worm outbreak).
  Scenario triggered(Scenario next, Duration delay) const;

  std::string name;

 private:
  friend class ScenarioBuilder;
  std::vector<AttackPhase> phases_;
};

/// Fluent, const-correct single-phase builder. Every mutator is
/// ref-qualified: `&` chains on lvalues, `&&` moves through temporaries,
/// so `Scenario::attack(k).rate(100).lasting(…)` never copies the
/// accumulated state. Implicitly converts to Scenario.
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(BehaviorKind kind);

  ScenarioBuilder& intensity(IntensityEnvelope envelope) &;
  ScenarioBuilder&& intensity(IntensityEnvelope envelope) &&;
  /// Shorthand for intensity(IntensityEnvelope::constant(pps)).
  ScenarioBuilder& rate(double pps) &;
  ScenarioBuilder&& rate(double pps) &&;

  ScenarioBuilder& starting_at(Timestamp t) &;
  ScenarioBuilder&& starting_at(Timestamp t) &&;
  ScenarioBuilder& lasting(Duration d) &;
  ScenarioBuilder&& lasting(Duration d) &&;
  /// Window [t0, t1): equivalent to starting_at(t0).lasting(t1 - t0).
  ScenarioBuilder& during(Timestamp t0, Timestamp t1) &;
  ScenarioBuilder&& during(Timestamp t0, Timestamp t1) &&;

  ScenarioBuilder& against(VictimSelector selector) &;
  ScenarioBuilder&& against(VictimSelector selector) &&;

  /// Replace the behavior parameters. The shape must match the phase's
  /// kind when armed (error code "scenario_shape_mismatch").
  ScenarioBuilder& with(BehaviorShape shape) &;
  ScenarioBuilder&& with(BehaviorShape shape) &&;

  ScenarioBuilder& with_seed(std::uint64_t seed) &;
  ScenarioBuilder&& with_seed(std::uint64_t seed) &&;
  ScenarioBuilder& named(std::string phase_name) &;
  ScenarioBuilder&& named(std::string phase_name) &&;

  Scenario build() const&;
  Scenario build() &&;
  operator Scenario() const& { return build(); }  // NOLINT
  operator Scenario() && { return std::move(*this).build(); }  // NOLINT

 private:
  AttackPhase phase_;
};

// ---------------------------------------------------------------------------
// Emitters

/// Identity of one armed phase, assigned by the simulator.
struct EmitContext {
  std::uint64_t seed = 0;
  std::uint32_t scenario_id = 0;  // stamped onto every emitted frame
};

/// One campus-host infection event in a worm outbreak.
struct WormInfection {
  std::uint32_t host_id = 0;  // the newly infected campus host
  Timestamp at;
  /// Id of the infecting source: campus host id, or 0 for one of the
  /// external bots (the campus view cannot tell external bots apart).
  std::uint32_t source_host_id = 0;
};

/// Uniform emission interface. start() validates the phase and arms
/// its emission events on `net`'s queue; it returns an error Status —
/// never a silently clamped config — with stable codes:
///
///   scenario_bad_victim     empty/out-of-range victim set
///   scenario_empty_window   non-positive phase duration
///   scenario_bad_intensity  non-positive or malformed envelope
///   scenario_shape_mismatch shape variant does not match the kind
///
/// The emitter must outlive the event queue's run (the scheduled
/// closures reference it), which the simulator guarantees by owning
/// armed emitters for its lifetime.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual Status start(CampusNetwork& net, const EmitContext& ctx) = 0;
  virtual std::uint64_t packets_emitted() const noexcept = 0;
  virtual packet::TrafficLabel label() const noexcept = 0;
  virtual BehaviorKind kind() const noexcept = 0;
  /// Worm emitters expose their infection chain; empty elsewhere.
  virtual std::span<const WormInfection> infections() const noexcept {
    return {};
  }
};

/// Instantiate the emitter for a phase (registry dispatch on kind).
std::unique_ptr<Emitter> make_emitter(const AttackPhase& phase);

// ---------------------------------------------------------------------------
// Behavior registry

/// Static description of one behavior kind: its label, legacy-faithful
/// defaults, and emitter factory. ScenarioBuilder pulls defaults from
/// here; the simulator dispatches arming through `make`.
struct ScenarioSpec {
  BehaviorKind kind;
  std::string_view name;
  packet::TrafficLabel label;
  double default_rate_pps;
  Duration default_duration;
  BehaviorShape (*default_shape)();
  VictimSelector (*default_victims)();
  std::unique_ptr<Emitter> (*make)(const AttackPhase&);
};

/// Spec for one kind. Total: every BehaviorKind has a spec.
const ScenarioSpec& scenario_spec(BehaviorKind kind) noexcept;
/// All specs, indexed by kind.
std::span<const ScenarioSpec> scenario_specs() noexcept;

}  // namespace campuslab::sim
