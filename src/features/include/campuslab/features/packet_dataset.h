// PacketDatasetCollector — builds the deployable model's training set.
//
// The fast control loop classifies inbound packets, so its model must
// be trained on per-packet features (packet_features.h) with ground-
// truth labels. The collector sits on the capture path next to the
// flow meter: every inbound packet's stateful feature vector is
// extracted, (sub)sampled, and appended with its generation-time label
// — the "labelled data of unprecedented quality" the campus data store
// makes possible.
#pragma once

#include <optional>

#include "campuslab/features/dataset_builder.h"
#include "campuslab/features/packet_features.h"
#include "campuslab/ml/dataset.h"
#include "campuslab/resilience/health.h"

namespace campuslab::features {

struct PacketDatasetOptions {
  FlowDatasetOptions labeling;  // same multi/binary framing as flows
  /// Subsampling bounds dataset size; attack traffic often dwarfs
  /// benign in packet count, so independent rates keep classes usable.
  double benign_sample_rate = 1.0;
  double attack_sample_rate = 1.0;
  std::uint64_t seed = 1;
  PacketFeatureConfig feature_config;
};

class PacketDatasetCollector {
 public:
  explicit PacketDatasetCollector(PacketDatasetOptions options = {});

  /// Feed every captured packet (timestamp order). Only inbound IPv4
  /// packets produce rows — the ingress pipeline's scope — but state
  /// updates still happen for all of them. `view` must be a decode of
  /// `pkt`'s bytes.
  void offer(const packet::Packet& pkt, const packet::PacketView& view,
             sim::Direction dir);

  const ml::Dataset& dataset() const noexcept { return dataset_; }

  /// Hand over the collected rows and reset to an empty dataset, so
  /// collection continues cleanly (windowed harvesting).
  ml::Dataset take();

  std::uint64_t packets_seen() const noexcept { return seen_; }
  std::uint64_t rows_collected() const noexcept {
    return dataset_.n_rows();
  }

  /// Optional degradation hook: when set, offer() consults
  /// should_shed(kDatasetRow) after feature extraction (extractor state
  /// must track every packet regardless) and skips the row append while
  /// the pipeline is Degraded or worse — training rows are the first
  /// tier shed. Caller keeps ownership; pass nullptr to detach.
  void set_degradation(resilience::DegradationController* controller) {
    degradation_ = controller;
  }

 private:
  PacketDatasetOptions options_;
  StatefulFeatureExtractor extractor_;
  ml::Dataset dataset_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  resilience::DegradationController* degradation_ = nullptr;
};

}  // namespace campuslab::features
