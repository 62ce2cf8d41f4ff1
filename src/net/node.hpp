// Anything that can receive a packet: hosts, switches, TCP endpoints.
#pragma once

#include "net/packet.hpp"

namespace tdtcp {

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void HandlePacket(Packet&& p) = 0;
};

}  // namespace tdtcp
