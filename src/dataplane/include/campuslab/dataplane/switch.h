// SoftwareSwitch — executes a compiled classifier against live packets,
// exactly as the programmable border switch would: parse headers,
// update register state, quantize metadata, run the match-action
// program, act on the verdict.
//
// Plugs directly into CampusNetwork::set_ingress_filter via filter():
// "drop attack traffic on ingress if confidence in detection is at
// least 90%" (§2) becomes FilterPolicy{attack_class, 0.90}.
#pragma once

#include <array>
#include <memory>

#include "campuslab/dataplane/programs.h"
#include "campuslab/features/packet_features.h"

namespace campuslab::dataplane {

struct FilterPolicy {
  int drop_class = 1;
  double min_confidence = 0.90;  // the paper's 90% rule
};

struct SwitchStats {
  std::uint64_t processed = 0;
  std::uint64_t non_ip_passed = 0;
  std::uint64_t dropped = 0;
  std::array<std::uint64_t, 16> verdicts{};  // per predicted class
};

class SoftwareSwitch {
 public:
  SoftwareSwitch(std::unique_ptr<CompiledClassifier> program,
                 Quantizer quantizer,
                 features::PacketFeatureConfig feature_config = {});

  /// Classify one packet (updates register state; packets must arrive
  /// in timestamp order). Non-IPv4 frames yield {0, 0}. `view` must
  /// decode `pkt`'s bytes.
  Verdict process(const packet::Packet& pkt,
                  const packet::PacketView& view, sim::Direction dir);

  /// Ingress-filter decision: true = drop.
  bool filter(const packet::Packet& pkt, const packet::PacketView& view,
              sim::Direction dir, const FilterPolicy& policy);

  const SwitchStats& stats() const noexcept { return stats_; }
  const CompiledClassifier& program() const noexcept { return *program_; }

  /// Full pipeline resources: the program's plus the feature stage's
  /// register arrays.
  ResourceReport resources() const { return program_->resources(); }

 private:
  std::unique_ptr<CompiledClassifier> program_;
  Quantizer quantizer_;
  features::StatefulFeatureExtractor extractor_;
  SwitchStats stats_;
};

}  // namespace campuslab::dataplane
