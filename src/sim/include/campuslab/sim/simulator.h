// CampusSimulator — one-stop facade wiring the event queue, the campus
// border network, the benign traffic mix and any attack scenarios.
//
// Typical use (see examples/quickstart.cpp):
//
//   sim::ScenarioConfig scenario;
//   scenario.campus.seed = 42;
//   scenario.scenarios.push_back(
//       sim::Scenario::attack(sim::BehaviorKind::kDnsAmplification)
//           .starting_at(Timestamp::from_seconds(60)));
//   sim::CampusSimulator simulator(scenario);
//   simulator.network().set_tap([&](const packet::Packet& p, sim::Direction d) {
//     engine.offer(p, d);   // feed the capture pipeline
//   });
//   simulator.run_for(Duration::minutes(5));
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "campuslab/sim/campus.h"
#include "campuslab/sim/scenario.h"
#include "campuslab/sim/traffic.h"

namespace campuslab::sim {

/// Everything that defines one simulated campus run.
struct ScenarioConfig {
  CampusConfig campus;
  AppRates rates;
  std::vector<Scenario> scenarios;
};

/// One armed phase: its identity (the id stamped onto every frame the
/// emitter produces), provenance and the live emitter.
struct ScenarioInstance {
  std::uint32_t id = 0;
  std::string scenario;  // owning Scenario's name
  std::string phase;     // phase name
  BehaviorKind kind = BehaviorKind::kDnsAmplification;
  packet::TrafficLabel label = packet::TrafficLabel::kBenign;
  Timestamp start;
  Duration duration{};
  std::uint64_t seed = 0;
  std::unique_ptr<Emitter> emitter;
};

class CampusSimulator {
 public:
  explicit CampusSimulator(const ScenarioConfig& scenario);
  /// Convenience: a campus plus one scenario armed directly.
  CampusSimulator(const CampusConfig& campus, const Scenario& scenario,
                  AppRates rates = {});

  /// Arm every phase of `scenario`. Returns the instance id of its
  /// first phase, or the first arming error (stable codes:
  /// scenario_bad_victim, scenario_empty_window, scenario_bad_intensity,
  /// scenario_shape_mismatch, scenario_empty). Phases armed before a
  /// failing one stay armed; treat an error as a fatal config problem.
  ///
  /// Phases without an explicit seed draw campus.seed + salt, salt
  /// counting up from 101 in arming order — the exact sequence the
  /// retired per-category attack loops produced, which keeps the
  /// recorded legacy stream hashes byte-identical.
  Result<std::uint32_t> add_scenario(const Scenario& scenario);

  CampusNetwork& network() noexcept { return *network_; }
  const CampusNetwork& network() const noexcept { return *network_; }
  EventQueue& events() noexcept { return events_; }
  TrafficGenerator& traffic() noexcept { return *traffic_; }
  const std::vector<ScenarioInstance>& scenario_instances() const noexcept {
    return instances_;
  }
  /// Errors from scenarios rejected during construction (the ctor has
  /// no Result channel; an entry here means part of the config did not
  /// arm).
  const std::vector<Error>& scenario_errors() const noexcept {
    return scenario_errors_;
  }

  /// Advance virtual time by `d`, firing all events due in the window.
  /// Returns the number of events executed.
  std::size_t run_for(Duration d) {
    return events_.run_until(events_.now() + d);
  }

  Timestamp now() const noexcept { return events_.now(); }

 private:
  EventQueue events_;
  std::unique_ptr<CampusNetwork> network_;
  std::unique_ptr<TrafficGenerator> traffic_;
  std::vector<ScenarioInstance> instances_;
  std::vector<Error> scenario_errors_;
  std::uint64_t next_salt_ = 101;
  std::uint32_t next_instance_id_ = 1;
};

}  // namespace campuslab::sim
