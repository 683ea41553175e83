// DecodedPacket — the parse-once ring element.
//
// The tap decodes each frame exactly once (an eager L2-L4 PacketView)
// and every downstream stage — shard spreader, FlowMeter, dataset
// collector, fast loop, archive filter — consumes the cached view
// instead of re-parsing the same bytes. This is only sound because the
// frame bytes live in a refcounted pool buffer (packet/buffer.h): they
// stay at a stable address no matter how often the handle is copied or
// moved, so the view's spans survive ring hops and sink fan-out.
//
// Treat a DecodedPacket as immutable. Mutating `pkt` through its
// copy-on-write accessors would re-seat the bytes and strand `view`;
// a stage that needs to rewrite a frame (e.g. archive redaction) must
// take its own Packet copy (a refcount bump) and mutate that.
#pragma once

#include <utility>

#include "campuslab/packet/view.h"
#include "campuslab/sim/campus.h"

namespace campuslab::capture {

/// A captured frame, its border direction, and the single eager decode.
struct DecodedPacket {
  packet::Packet pkt;
  sim::Direction dir = sim::Direction::kInbound;
  packet::PacketView view;

  DecodedPacket() noexcept = default;
  DecodedPacket(packet::Packet p, sim::Direction d)
      : pkt(std::move(p)), dir(d), view(pkt.bytes()) {}
};

}  // namespace campuslab::capture
