// The meta-connection an MPTCP subflow reports to.
//
// A TcpConnection built with a SubflowOwner is a subflow: its packets are
// pinned to the path its index names and carry the DSS option, the owner
// (not the subflow) holds the host's flow demux entry and TDN listeners, and
// an abnormal close snapshots the stranded DSS ranges for reinjection. The
// owner lives in src/mptcp/, which links against this stack, so the stack
// reaches it only through this interface.
#pragma once

#include <cstdint>

namespace tdtcp {

class SubflowOwner {
 public:
  // Receiver side: the meta cumulative ACK, stamped into ACKs as dss_ack.
  virtual std::uint64_t MetaAck() const = 0;
  // Receiver side: the meta receive window, stamped into ACKs as dss_rwnd.
  // It rides the DSS option and is enforced by the peer's meta scheduler,
  // never per subflow, so hole-filling reinjections are not blocked by the
  // very stall they are repairing.
  virtual std::uint64_t MetaWindow() const = 0;
  // Sender side: the peer's DATA_ACK and meta window, seen on an ACK.
  virtual void OnMetaAck(std::uint64_t dss_ack, std::uint64_t dss_rwnd) = 0;
  // A subflow can take more data: it just became established, or an ACK
  // freed window space.
  virtual void TrySchedule() = 0;

 protected:
  ~SubflowOwner() = default;
};

}  // namespace tdtcp
