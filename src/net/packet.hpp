// The on-wire packet model.
//
// One flat struct covers every packet the system exchanges: TCP data, TCP
// ACKs (with SACK blocks, ECN echo, and the TDTCP TD_DATA_ACK option), the
// TD_CAPABLE handshake, MPTCP DSS mappings, and the ICMP TDN-change
// notification (§4.1). A simulator gains nothing from byte-level encoding;
// fields mirror the paper's packet formats (Fig. 5) one-to-one.
#pragma once

#include <array>
#include <cstdint>

#include "sim/time.hpp"

namespace tdtcp {

using NodeId = std::uint32_t;
using RackId = std::uint32_t;
using FlowId = std::uint32_t;
using TdnId = std::uint8_t;

inline constexpr NodeId kInvalidNode = 0xffffffff;
inline constexpr TdnId kNoTdn = 0xff;
inline constexpr RackId kAllRacks = 0xffffffff;

enum class PacketType : std::uint8_t {
  kData,       // TCP segment carrying payload (or SYN/FIN)
  kAck,        // pure TCP ACK
  kTdnNotify,  // ICMP TDN-change notification (Fig. 5a)
};

// IP-level ECN codepoints plus the TCP-level echo bits we need.
enum class Ecn : std::uint8_t { kNotEct, kEct0, kCe };

struct SackBlock {
  std::uint64_t start = 0;  // inclusive
  std::uint64_t end = 0;    // exclusive
  bool operator==(const SackBlock&) const = default;
};

inline constexpr int kMaxSackBlocks = 4;

// Which network a packet is forced onto, if any. MPTCP subflows are pinned
// (§2.2: "pinning one subflow to the packet network and one to the optical
// network"); everything else follows the ToR's time-division routing.
inline constexpr std::int8_t kUnpinned = -1;

struct Packet {
  // --- identity / routing -------------------------------------------------
  std::uint64_t id = 0;  // unique per simulation, for tracing
  FlowId flow = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  PacketType type = PacketType::kData;
  std::uint32_t size_bytes = 0;  // wire size including headers
  std::int8_t pinned_path = kUnpinned;

  // --- TCP header ---------------------------------------------------------
  std::uint64_t seq = 0;        // first payload byte (64-bit: no wraparound)
  std::uint64_t ack = 0;        // cumulative ACK
  std::uint32_t payload = 0;    // payload bytes (0 for pure ACK)
  std::uint32_t rcv_window = 0; // advertised receive window (bytes)
  bool has_rwnd = false;        // rcv_window field is meaningful (zero = stall)
  bool syn = false;
  bool fin = false;
  bool rst = false;
  bool ece = false;  // ECN-Echo
  bool cwr = false;  // Congestion Window Reduced

  std::array<SackBlock, kMaxSackBlocks> sack{};
  std::uint8_t num_sack = 0;

  // --- IP / switch state --------------------------------------------------
  Ecn ecn = Ecn::kNotEct;
  // reTCP: the ToR stamps whether the circuit was up when it forwarded this
  // packet; receivers echo it back in `circuit_echo` on ACKs.
  bool circuit_mark = false;
  bool circuit_echo = false;

  // --- TDTCP options (Fig. 5b/5c) ------------------------------------------
  bool td_capable = false;      // TD_CAPABLE handshake option
  std::uint8_t td_num_tdns = 0; // # TDNs the sender observes
  TdnId data_tdn = kNoTdn;      // TD_DATA_ACK: TDN the data was sent on (D bit)
  TdnId ack_tdn = kNoTdn;       // TD_DATA_ACK: TDN the ACK was sent on (A bit)

  // --- ICMP TDN notification (Fig. 5a) -------------------------------------
  TdnId notify_tdn = kNoTdn;
  // reTCPdyn advance notice: the circuit will come up shortly (the ToR has
  // already enlarged its VOQ); senders may pre-ramp.
  bool circuit_imminent = false;
  // Multi-rack extension: the notification applies only to paths toward
  // this rack (kAllRacks = fabric-wide, the paper's two-rack semantics).
  RackId notify_peer = 0xffffffff;
  // Controller-stamped generation number. Hosts drop a sequenced
  // notification whose seq is <= the last one they applied for the same
  // peer scope, making duplicated/reordered/stale deliveries idempotent
  // (§3.2). Zero means unsequenced: always delivered (hand-crafted tests).
  std::uint64_t notify_seq = 0;

  // --- MPTCP --------------------------------------------------------------
  std::uint8_t subflow = 0;       // subflow index the segment belongs to
  bool has_dss = false;           // carries a data-sequence mapping
  std::uint64_t dss_seq = 0;      // data-level sequence of first payload byte
  std::uint64_t dss_ack = 0;      // data-level cumulative ACK
  std::uint64_t dss_rwnd = 0;     // meta-level receive window (bytes)
  bool is_mptcp = false;

  // --- timestamps (simulator-side metadata, not header bytes) --------------
  SimTime sent_time = SimTime::Zero();     // when the sender transmitted it
  SimTime enqueue_time = SimTime::Zero();  // last queue admission (for delay)

  bool IsAckLike() const { return type == PacketType::kAck || payload == 0; }
};

}  // namespace tdtcp
