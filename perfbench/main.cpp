// The simulator benchmark: runs one workload single-threaded in this process
// and prints every metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--commit ID] [--src-digest HEX]
//   perfbench --drift
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up time and
// run time per repetition, the work rate and peak RSS.
// --trace 1 is the separate traced pass that gives the per-layer metrics:
// every layer's counters, spans around each component, endpoint shims,
// the layer rungs, the trace-ring overhead and the attribution table.
// --drift runs the drift guard alone: composed-run fingerprints must equal
// RunExperiment's for every workload at a small size.
//
// Every repetition prints its fingerprint; a repetition that disagrees with
// the first, a leaked lifecycle, an idle long flow or a drift-guard mismatch
// counts as failed and makes the exit code nonzero.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "composed.hpp"
#include "reference.hpp"
#include "rungs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
  bool drift = false;
};

[[noreturn]] void Usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload rotor_churn|pair_bulk|lossy_mixed "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--commit ID] [--src-digest HEX]\n       %s --drift\n",
               argv0, why.c_str(), argv0, argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (flag == "--drift") {
      a.drift = true;
      continue;
    }
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(argv[0], "missing value for " + flag);
    }
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
        if (a.trace != 0 && a.trace != 1) Usage(argv[0], "--trace is 0 or 1");
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else if (flag == "--commit") {
        a.commit = value;
      } else if (flag == "--src-digest") {
        a.src_digest = value;
      } else {
        Usage(argv[0], "unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage(argv[0], "bad value for " + flag + ": " + value);
    }
  }
  if (!a.drift && !have_workload) Usage(argv[0], "--workload is required");
  return a;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool ReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

void PrintContext(const Args& a, const Workload& w) {
  std::printf(
      "context: {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"release\": %s, \"invariant_checks\": \"%s\", "
      "\"trace\": \"%s\", \"commit\": \"%s\", \"src_digest\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"threads\": 1}\n",
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, ReleaseBuild() ? "true" : "false",
      w.config.workload.base.invariant_checks ? "full" : "off",
      a.trace == 1 ? "spans+shims+rungs" : "off", JsonEscape(a.commit).c_str(),
      JsonEscape(a.src_digest).c_str(), w.name.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds);
}

// Composed run vs RunExperiment on the small size of `name`.
bool DriftCheck(const std::string& name, std::uint64_t seed) {
  const Workload w = MakeWorkload(name, seed, /*small=*/true);
  const Fingerprint want = FingerprintOf(tdtcp::RunExperiment(w.config));
  const RunResult got = RunComposed(w.config);
  const bool ok = got.fp == want && got.counts.leaked == 0;
  std::printf("drift %s seed=%llu: %s\n  RunExperiment %s\n  composed      %s\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              ok ? "OK" : "MISMATCH", want.ToString().c_str(),
              got.fp.ToString().c_str());
  return ok;
}

// Failure accounting over every full-size run of the workload.
struct Tally {
  Fingerprint reference;
  bool have_reference = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool mismatch = false;

  void Add(const Workload& w, const RunResult& r, const char* label, int rep) {
    // Every lifecycle and every long flow (which must make progress).
    const std::uint64_t units =
        (w.config.churn.enabled ? w.config.churn.target_connections : 0) +
        w.config.workload.num_flows;
    attempted += units;
    failed += r.counts.leaked + r.counts.idle_long_flows;
    bool same = true;
    if (!have_reference) {
      reference = r.fp;
      have_reference = true;
    } else if (!(r.fp == reference)) {
      same = false;
      mismatch = true;
      failed += units;
    }
    std::printf("%s %d: setup_s=%.6f run_s=%.6f %s leaked=%llu%s\n", label,
                rep, r.setup_s, r.run_s, r.fp.ToString().c_str(),
                static_cast<unsigned long long>(r.counts.leaked),
                same ? "" : " FINGERPRINT MISMATCH");
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintTiming(const char* name, const std::vector<double>& v,
                 const char* unit) {
  std::printf("timing %-18s median=%.6g p25=%.6g p75=%.6g min=%.6g max=%.6g "
              "%s (n=%zu)\n",
              name, Median(v), Quantile(v, 0.25), Quantile(v, 0.75),
              Quantile(v, 0), Quantile(v, 1), unit, v.size());
}

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, does not carry over the launching process's peak across exec.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

// Per span name: count, total and self time (total minus direct children).
void PrintSpanSummary(const SpanLog& log) {
  struct Agg {
    int count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Agg> by_name;
  const auto& spans = log.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    const double d = spans[i].end_s - spans[i].start_s;
    ++a.count;
    a.total += d;
    a.self += d - child[i];
  }
  std::printf("spans (traced pass):\n");
  for (const auto& [name, a] : by_name) {
    std::printf("  %-18s n=%-4d total=%10.3f ms  self=%10.3f ms\n", name.c_str(),
                a.count, a.total * 1e3, a.self * 1e3);
  }
}

// Runs repetitions until the next one would overrun `deadline_s` (at least
// `min_reps`), calling `rep` for each.
template <typename Rep>
void UntilDeadline(Clock::time_point start, double deadline_s, int min_reps,
                   Rep&& rep) {
  double last = 0;
  for (int i = 0;; ++i) {
    const double elapsed = SecondsSince(start);
    if (i >= min_reps && elapsed + last > deadline_s) break;
    const Clock::time_point t0 = Clock::now();
    rep(i);
    last = SecondsSince(t0);
  }
}

// Pins the calling thread to one CPU after another of those it may run on,
// and restores its affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void PinTo(std::size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// --trace 0: the end-to-end metrics.
//
// Every repetition does bit-identical work (the fingerprint check proves it),
// so the spread between repetitions is interference from outside the
// process, which only ever adds time. On a shared host this code slows by up
// to 1.8x, in two ways:
// - Quiet and slow moments alternate every few milliseconds to seconds. A
//   whole repetition (about a second) mixes both, so the run is timed in
//   fixed simulated-time slices of a few milliseconds each, and the quiet
//   run time is the sum over slices of each slice's 10th-percentile wall
//   time across the repetitions. Repetitions go to one CPU after another,
//   so one CPU's busy neighbour cannot set the whole run.
// - For minutes at a time the whole host is slow, with no quiet moment in a
//   run. The reference kernel (reference.hpp), timed in short chunks
//   between the slices, slows by a similar factor then. Its
//   10th-percentile chunk time over kCalmChunkS is the host's slowdown
//   during this run, and every timing is divided by it: run_s and setup_s
//   are seconds on a calm host. The raw timings are printed too.
// Set-up, 0.05 to 1 ms, is short enough to time alone: a batch of set-ups
// before every repetition, and its quiet time is the 10th percentile of all
// of them.
std::vector<Metric> EndToEnd(const Args& a, const Workload& w, Tally& tally,
                             Clock::time_point start) {
  constexpr int kMinReps = 10;
  constexpr int kSetupBatch = 64;
  constexpr double kQuiet = 0.1;
  // The reference chunk's 10th-percentile time on a calm 4-vCPU Xeon
  // (Sapphire Rapids) KVM guest: the unit every timing is put in.
  constexpr double kCalmChunkS = 4.7e-4;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  std::vector<std::vector<double>> slices;  // [slice][repetition]
  std::vector<double> rep_slices;
  RunOptions timed;
  timed.slice_s = &rep_slices;
  // The first repetition fills caches and the allocator; it sets the
  // reference fingerprint but its times are not kept.
  tally.Add(w, RunComposed(w.config), "warmup", 0);
  // Read before the reference kernel adds its own memory.
  const double peak_rss_mb = PeakRssMb();
  ReferenceKernel reference;
  timed.reference = &reference;
  CpuRotation rotation;
  UntilDeadline(start, a.seconds, kMinReps, [&](int i) {
    rotation.PinTo(static_cast<std::size_t>(i));
    for (int k = 0; k < kSetupBatch; ++k) setup_s.push_back(SetupOnly(w.config));
    rep_slices.clear();
    const RunResult r = RunComposed(w.config, timed);
    if (slices.empty()) slices.resize(rep_slices.size());
    if (rep_slices.size() != slices.size()) {
      throw std::runtime_error("repetitions ran different numbers of slices");
    }
    for (std::size_t k = 0; k < slices.size(); ++k) {
      slices[k].push_back(rep_slices[k]);
    }
    run_s.push_back(r.run_s);
    tally.Add(w, r, "rep", i + 1);
  });
  const std::vector<double>& chunk_s = reference.chunk_s();
  PrintTiming("reference chunk", chunk_s, "s");
  PrintTiming("setup_s (raw)", setup_s, "s");
  PrintTiming("run_s (raw, whole)", run_s, "s");
  auto slice_sum = [&](double q) {
    double sum = 0;
    for (const std::vector<double>& s : slices) sum += Quantile(s, q);
    return sum;
  };
  const double slowdown = Quantile(chunk_s, kQuiet) / kCalmChunkS;
  const double run = slice_sum(kQuiet) / slowdown;
  std::printf("run_s (raw) by slice quantile (%zu slices): p5=%.6g p10=%.6g "
              "p25=%.6g p50=%.6g s\n"
              "reference chunk by quantile: p5=%.6g p10=%.6g p25=%.6g "
              "p50=%.6g s\nhost slowdown: %.4f (reference chunk p%.0f over "
              "%.6g s)\nwork: %.0f %s per repetition\n",
              slices.size(), slice_sum(0.05), slice_sum(0.1), slice_sum(0.25),
              slice_sum(0.5), Quantile(chunk_s, 0.05), Quantile(chunk_s, 0.1),
              Quantile(chunk_s, 0.25), Median(chunk_s), slowdown, 100 * kQuiet,
              kCalmChunkS, w.units, w.unit);
  return {
      {"setup_s", Quantile(setup_s, kQuiet) / slowdown, "s"},
      {"run_s", run, "s"},
      {"work_per_s", w.units / run, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --trace 1: the per-layer metrics.
std::vector<Metric> PerLayer(const Args& a, const Workload& w, Tally& tally,
                             Clock::time_point start) {
  // Untraced reference run: the layer counts (they repeat exactly).
  const RunResult ref = RunComposed(w.config);
  tally.Add(w, ref, "counts", 0);
  const LayerCounts& c = ref.counts;

  // The traced pass: spans, slices and endpoint shims.
  SpanLog log;
  RunOptions traced_opt;
  traced_opt.spans = &log;
  const RunResult traced = RunComposed(w.config, traced_opt);
  tally.Add(w, traced, "traced", 0);
  PrintSpanSummary(log);
  if (!a.trace_out.empty()) {
    if (log.WriteJsonLines(a.trace_out)) {
      std::printf("spans written to %s\n", a.trace_out.c_str());
    } else {
      std::printf("could not write spans to %s\n", a.trace_out.c_str());
    }
  }

  // Layer rungs, each with a slice of the time budget.
  const double rung_s = a.seconds * 0.04;
  const double events_per_batch = Ratio(c.events, c.batches);
  const double cancel_share = Ratio(c.dead_dropped, c.events);
  const Rung sim_ns = SimNsPerEvent(events_per_batch, cancel_share,
                                    traced.mean_pending_events, rung_s);
  // The same core with an almost empty queue and no cancels: the event cost
  // nested inside the hop and lifecycle rungs, whose queues stay tiny.
  const Rung bare_ns = SimNsPerEvent(1.0, 0.0, 4, rung_s);
  const Rung wheel_ns = WheelNsPerRearm(rung_s);
  const HopRung hop1 = HopNs(1, rung_s);
  const HopRung hop4096 = HopNs(4096, rung_s);
  // The attribution's hop cost: the destination demux holds as many
  // endpoints as the traced pass saw registered per host.
  const auto live_endpoints = static_cast<std::uint32_t>(
      std::max(1L, std::lround(traced.mean_endpoints_per_host)));
  const HopRung hop = HopNs(live_endpoints, rung_s);
  // Churn-only fabrics have no long flows to sample: their flows are short,
  // so the window stays near the initial congestion window.
  const double window = traced.mean_inflight_segments > 0
                            ? traced.mean_inflight_segments
                            : w.config.workload.base.initial_cwnd;
  const AckRung clean = AckNs(false, true, window, rung_s);
  const AckRung clean_unchecked = AckNs(false, false, window, rung_s);
  const AckRung sack = AckNs(true, true, window, rung_s);
  const LifecycleRung lifecycle = LifecycleUs(rung_s);
  std::printf("rungs (median of n trials):\n"
              "  sim.rung_ns_per_event %.1f ns (n=%d; %.3f events/batch, "
              "%.3f cancels/event, %.0f pending)\n"
              "  sim.bare_ns_per_event %.1f ns (n=%d)\n"
              "  sim.wheel_ns_per_rearm %.1f ns (n=%d)\n"
              "  net.hop_ns_1ep %.1f ns (n=%d; %.2f events/packet)\n"
              "  net.hop_ns_4096ep %.1f ns (n=%d)\n"
              "  hop at %u endpoints %.1f ns (n=%d; %.2f endpoints per host "
              "measured)\n"
              "  tcp.ack_ns_clean %.1f ns (n=%d; %.1f segments in flight), "
              "unchecked %.1f ns (n=%d)\n"
              "  tcp.ack_ns_sack %.1f ns (n=%d)\n"
              "  tcp.data_ns_clean %.1f ns (n=%d)\n"
              "  app.lifecycle_us %.2f us (n=%d; %.1f events, %.1f packets)\n",
              sim_ns.value, sim_ns.samples, events_per_batch, cancel_share,
              traced.mean_pending_events, bare_ns.value, bare_ns.samples,
              wheel_ns.value, wheel_ns.samples,
              hop1.ns_per_pkt.value, hop1.ns_per_pkt.samples,
              hop1.events_per_pkt, hop4096.ns_per_pkt.value,
              hop4096.ns_per_pkt.samples, live_endpoints, hop.ns_per_pkt.value,
              hop.ns_per_pkt.samples, traced.mean_endpoints_per_host,
              clean.ack_ns.value,
              clean.ack_ns.samples, window, clean_unchecked.ack_ns.value,
              clean_unchecked.ack_ns.samples, sack.ack_ns.value,
              sack.ack_ns.samples, clean.data_ns.value, clean.data_ns.samples,
              lifecycle.us.value, lifecycle.us.samples, lifecycle.events,
              lifecycle.packets);

  // Trace-ring overhead: untraced and ring-attached repetitions in
  // alternating order until the budget is spent.
  std::vector<double> plain_s;
  std::vector<double> ring_s;
  std::vector<double> topology_s = {ref.topology_s};
  std::vector<double> controller_s = {ref.controller_s};
  std::vector<double> generators_s = {ref.generators_s};
  std::uint64_t trace_records = 0;
  RunOptions ring_opt;
  ring_opt.attach_ring = true;
  auto plain = [&](int i) {
    const RunResult r = RunComposed(w.config);
    tally.Add(w, r, "plain", i);
    plain_s.push_back(r.run_s);
    topology_s.push_back(r.topology_s);
    controller_s.push_back(r.controller_s);
    generators_s.push_back(r.generators_s);
  };
  auto ring = [&](int i) {
    const RunResult r = RunComposed(w.config, ring_opt);
    tally.Add(w, r, "ring", i);
    ring_s.push_back(r.run_s);
    trace_records = r.counts.trace_records;
  };
  UntilDeadline(start, a.seconds, 2, [&](int i) {
    if (i % 2 == 0) {
      plain(i);
      ring(i);
    } else {
      ring(i);
      plain(i);
    }
  });
  PrintTiming("run_s (untraced)", plain_s, "s");
  PrintTiming("run_s (ring)", ring_s, "s");
  const double run = Median(plain_s);

  // Attribution: rung cost x op count over run_s, with nested lower-layer
  // costs subtracted so the layers do not double count.
  const double pkts = static_cast<double>(c.tor_forwarded) / 2;
  const double net_self =
      hop.ns_per_pkt.value - hop.events_per_pkt * bare_ns.value;
  const EndpointTiming& ep = traced.endpoints;
  const double ack_frac = ep.packets > 0 ? Ratio(ep.acks, ep.packets) : 0.5;
  const double sack_frac = Ratio(ep.sack_acks, ep.acks);
  const double tcp_pkt =
      ack_frac * (sack_frac * sack.ack_ns.value +
                  (1 - sack_frac) * clean.ack_ns.value) +
      (1 - ack_frac) * clean.data_ns.value;
  const double app_self = lifecycle.us.value * 1e3 -
                          lifecycle.events * bare_ns.value -
                          lifecycle.packets * (net_self + tcp_pkt);
  const double rx_ns_per_pkt = Ratio(ep.total_ns, static_cast<double>(ep.packets));
  const double rx_share = Ratio(ep.total_ns * 1e-9, traced.run_s);
  const double denom_ns = run * 1e9;
  const double sim_share = static_cast<double>(c.events) * sim_ns.value / denom_ns;
  const double net_share = pkts * net_self / denom_ns;
  const double tcp_share = pkts * tcp_pkt / denom_ns;
  const double app_share = static_cast<double>(c.closed) * app_self / denom_ns;
  const double residual = 1 - sim_share - net_share - tcp_share - app_share;
  std::printf(
      "attribution of run_s = %.4f s (%s):\n"
      "  layer  rung ns/op   ops            share\n"
      "  sim    %10.1f   %12.0f   %6.1f%%  events\n"
      "  net    %10.1f   %12.0f   %6.1f%%  packet trips (hop at %u endpoints "
      "minus its events)\n"
      "  tcp    %10.1f   %12.0f   %6.1f%%  endpoint packets (%.0f%% ACKs, "
      "%.0f%% of them SACK)\n"
      "  app    %10.1f   %12.0f   %6.1f%%  lifecycles (minus their events, "
      "hops, packets)\n"
      "  residual                         %6.1f%%  unexplained\n",
      run, w.name.c_str(), sim_ns.value, static_cast<double>(c.events),
      100 * sim_share, net_self, pkts, 100 * net_share, live_endpoints,
      tcp_pkt, pkts,
      100 * tcp_share, 100 * ack_frac, 100 * sack_frac, app_self,
      static_cast<double>(c.closed), 100 * app_share, 100 * residual);
  if (ep.packets > 0) {
    std::printf("  in situ, long-flow endpoints only: %.1f ns per packet, "
                "%.1f%% of the traced run\n",
                rx_ns_per_pkt, 100 * rx_share);
  }

  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"sim.events", count(c.events), "count"},
      {"sim.events_per_s", Ratio(count(c.events), run), "1/s"},
      {"sim.events_per_batch", events_per_batch, "ratio"},
      {"sim.dead_dropped", count(c.dead_dropped), "count"},
      {"sim.compactions", count(c.compactions), "count"},
      {"sim.rung_ns_per_event", sim_ns.value, "ns"},
      {"sim.bare_ns_per_event", bare_ns.value, "ns"},
      {"sim.wheel_ns_per_rearm", wheel_ns.value, "ns"},
      {"net.tor_forwarded", count(c.tor_forwarded), "count"},
      {"net.events_per_hop", Ratio(count(c.events), pkts), "ratio"},
      {"net.voq_drops", count(c.voq_drops), "count"},
      {"net.voq_sojourn_p99_us", c.voq_sojourn_p99_us, "us"},
      {"net.no_endpoint_drops", count(c.no_endpoint_drops), "count"},
      {"net.rsts_sent", count(c.rsts_sent), "count"},
      {"net.fault_dropped", count(c.fault_dropped), "count"},
      {"net.hop_ns_1ep", hop1.ns_per_pkt.value, "ns"},
      {"net.hop_ns_4096ep", hop4096.ns_per_pkt.value, "ns"},
      {"tcp.acks", count(c.acks), "count"},
      {"tcp.segments_sent", count(c.segments_sent), "count"},
      {"tcp.retransmissions", count(c.retransmissions), "count"},
      {"tcp.timeouts", count(c.timeouts), "count"},
      {"tcp.tlp_probes", count(c.tlp_probes), "count"},
      {"tcp.tdn_switches", count(c.tdn_switches), "count"},
      {"tcp.rx_ns_per_pkt", rx_ns_per_pkt, "ns"},
      {"tcp.rx_share", rx_share, "ratio"},
      {"tcp.ack_ns_clean", clean.ack_ns.value, "ns"},
      {"tcp.ack_ns_sack", sack.ack_ns.value, "ns"},
      {"tcp.data_ns_clean", clean.data_ns.value, "ns"},
      {"tcp.check_ns_per_ack",
       clean.ack_ns.value - clean_unchecked.ack_ns.value, "ns"},
      {"app.opened", count(c.opened), "count"},
      {"app.closed", count(c.closed), "count"},
      {"app.abnormal", count(c.abnormal), "count"},
      {"app.deferred", count(c.deferred), "count"},
      {"app.app_timeouts", count(c.app_timeouts), "count"},
      {"app.lifecycle_us", lifecycle.us.value, "us"},
      {"setup.topology_s", Median(topology_s), "s"},
      {"setup.controller_s", Median(controller_s), "s"},
      {"setup.generators_s", Median(generators_s), "s"},
      {"rdcn.notifications_sent", count(c.notifications_sent), "count"},
      {"rdcn.stale_notifications", count(c.stale_notifications), "count"},
      {"trace.records", count(trace_records), "count"},
      {"trace.ring_overhead", Ratio(Median(ring_s), run), "ratio"},
      {"trace.pass_overhead", Ratio(traced.run_s, run), "ratio"},
      {"fault.injected", count(c.fault_injected), "count"},
      {"attr.sim_share", sim_share, "ratio"},
      {"attr.net_share", net_share, "ratio"},
      {"attr.tcp_share", tcp_share, "ratio"},
      {"attr.app_share", app_share, "ratio"},
      {"attr.residual_share", residual, "ratio"},
  };
}

int Drift() {
  bool ok = true;
  for (const std::string& name : WorkloadNames()) {
    for (std::uint64_t seed : {1, 2}) ok = DriftCheck(name, seed) && ok;
  }
  std::printf("drift guard: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  try {
    if (args.drift) return Drift();
    const Clock::time_point start = Clock::now();
    const Workload w = MakeWorkload(args.workload, args.seed, /*small=*/false);
    PrintContext(args, w);
    if (!ReleaseBuild()) {
      std::fprintf(stderr,
                   "perfbench: refusing to time a %s build (NDEBUG %s); "
                   "configure with -DCMAKE_BUILD_TYPE=Release\n",
                   PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                   "set"
#else
                   "unset"
#endif
      );
      return 3;
    }
    const bool drift_ok = DriftCheck(args.workload, args.seed);
    Tally tally;
    const std::vector<Metric> metrics = args.trace == 0
                                            ? EndToEnd(args, w, tally, start)
                                            : PerLayer(args, w, tally, start);
    if (!drift_ok) tally.failed += 1;
    const bool correct = drift_ok && !tally.mismatch && tally.failed == 0;
    std::printf("failed_share: %llu / %llu = %.6g\n",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted),
                Ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)));
    for (const Metric& m : metrics) {
      std::printf("metric %-26s %.9g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("wall: %.3f s\n", SecondsSince(start));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
