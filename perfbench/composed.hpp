// The composed run: one experiment built from the same public parts
// RunExperiment wires (Simulator, Topology, RotorController/RdcnController,
// Workload, ChurnGenerator, FaultInjector), in the same order, so that
// set-up and the run loop can be timed apart and every layer's public
// counters read afterwards. The drift guard checks that its fingerprints
// equal RunExperiment's on the same config.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "app/experiment.hpp"

namespace perfbench {

class ReferenceKernel;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// In-memory span log for the traced pass: name, parent, start and end in
// seconds since the log was created. Written out once the pass ends.
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
};

class SpanLog {
 public:
  int Begin(std::string name, int parent = -1);
  void End(int id) { spans_[static_cast<std::size_t>(id)].end_s = SecondsSince(origin_); }
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// What every repetition prints and every other repetition must match.
struct Fingerprint {
  std::uint64_t churn_hash = 0;
  std::uint64_t bytes_acked = 0;  // long flows, at `duration` (before drain)
  std::uint64_t retransmissions = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t abnormal = 0;
  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const;
};

Fingerprint FingerprintOf(const tdtcp::ExperimentResult& r);

// Every layer's public counters after one run.
struct LayerCounts {
  // sim: event queue and timer wheels
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t dead_dropped = 0;
  std::uint64_t compactions = 0;
  // net: links, VOQs, ToRs, host demux (summed over the whole fabric)
  std::uint64_t tor_forwarded = 0;
  std::uint64_t voq_drops = 0;
  double voq_sojourn_p99_us = 0;
  std::uint64_t no_endpoint_drops = 0;
  std::uint64_t rsts_sent = 0;
  std::uint64_t fault_dropped = 0;
  // tcp: the long-flow connections (both ends)
  std::uint64_t acks = 0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t tlp_probes = 0;
  std::uint64_t tdn_switches = 0;
  std::uint64_t idle_long_flows = 0;  // long flows that acked nothing
  // app: churn lifecycles
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t abnormal = 0;
  std::uint64_t deferred = 0;
  std::uint64_t app_timeouts = 0;
  std::uint64_t leaked = 0;  // target not reached, or no definite reason
  // rdcn and fault
  std::uint64_t notifications_sent = 0;
  std::uint64_t stale_notifications = 0;
  std::uint64_t fault_injected = 0;
  // trace (only with RunOptions::attach_ring)
  std::uint64_t trace_records = 0;
};

// Time spent inside the long-flow endpoints, measured by shims registered
// over them with Host::RegisterEndpoint (traced pass only).
struct EndpointTiming {
  std::uint64_t packets = 0;
  std::uint64_t acks = 0;       // pure ACKs handled by the senders
  std::uint64_t sack_acks = 0;  // of which carried SACK blocks
  double total_ns = 0;
  double ack_ns = 0;
  double sack_ns = 0;
};

// Times one endpoint and forwards every packet to it unchanged. Once the
// connection has closed (an abort under loss), the shim steps aside so the
// host answers the way it would with no endpoint registered.
class EndpointShim final : public tdtcp::PacketSink {
 public:
  EndpointShim(tdtcp::Host* host, tdtcp::TcpConnection* conn,
               EndpointTiming* timing)
      : host_(host), conn_(conn), timing_(timing) {}
  void HandlePacket(tdtcp::Packet&& p) override;

 private:
  tdtcp::Host* host_;
  tdtcp::TcpConnection* conn_;
  EndpointTiming* timing_;
};

struct RunOptions {
  // Attach one TraceRing exactly as ExperimentConfig::WithTrace() does.
  bool attach_ring = false;
  // Traced pass: spans around every constructor, Start(), each of 20 fixed
  // simulated-time RunUntil slices, the drain and result collection, plus
  // the endpoint shims.
  SpanLog* spans = nullptr;
  // End-to-end timing (without `spans`): the run loop advances in
  // kTimedSlices fixed simulated-time slices and every drain step in
  // kDrainPieces pieces, and the wall time of each is appended here in
  // order. Repetitions of one seed do the same work, so slice k of one
  // repetition is the same work as slice k of any other.
  std::vector<double>* slice_s = nullptr;
  // With slice_s: one chunk of this kernel runs after every
  // kSlicesPerChunk-th slice, so that it samples the host at the same
  // moments as the slices.
  ReferenceKernel* reference = nullptr;
};

inline constexpr int kTimedSlices = 200;
inline constexpr int kDrainPieces = 64;
inline constexpr int kSlicesPerChunk = 10;

struct RunResult {
  double setup_s = 0;  // construct + Start() every component
  double run_s = 0;    // RunUntil(duration) plus the churn drain
  double topology_s = 0;
  double controller_s = 0;
  double generators_s = 0;  // Workload, ChurnGenerator, FaultInjector
  Fingerprint fp;
  LayerCounts counts;
  EndpointTiming endpoints;
  // Traced pass, sampled at slice ends: the event queue's pending entries,
  // the registered endpoints per host (over every host of the fabric) and
  // the long flows' mean segments in flight (0 without long flows).
  double mean_pending_events = 0;
  double mean_endpoints_per_host = 0;
  double mean_inflight_segments = 0;
};

// One full run: set up, run until drained, collect.
RunResult RunComposed(const tdtcp::ExperimentConfig& config,
                      const RunOptions& options = {});

// Set-up only: construct and Start() every component, then tear down.
// Returns the set-up time in seconds.
double SetupOnly(const tdtcp::ExperimentConfig& config);

}  // namespace perfbench
