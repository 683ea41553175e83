#include "campuslab/testbed/safety.h"

namespace campuslab::testbed {

void SafetyMonitor::install(sim::CampusNetwork& network) {
  network.set_ingress_filter(
      [this](const packet::Packet& pkt) { return inspect(pkt); });
}

bool SafetyMonitor::inspect(const packet::Packet& pkt) {
  if (rolled_back()) return false;  // disarmed: fail open

  if (pkt.ts - window_start_ >= config_.window) finish_window(pkt.ts);

  const bool drop = loop_->inspect(pkt, packet::PacketView(pkt));
  if (!packet::is_attack(pkt.label)) {
    ++window_benign_;
    if (drop) ++window_benign_dropped_;
  }
  return drop;
}

void SafetyMonitor::finish_window(Timestamp now) {
  if (window_benign_ >= config_.min_window_benign) {
    ++windows_judged_;
    const double benign_drop =
        static_cast<double>(window_benign_dropped_) /
        static_cast<double>(window_benign_);
    if (benign_drop > config_.max_benign_drop_fraction) {
      rollback_at_ = now;
    }
  }
  window_start_ = now;
  window_benign_ = 0;
  window_benign_dropped_ = 0;
}

}  // namespace campuslab::testbed
