// N-to-1 synchronized incast into one VOQ, timed against the rotation's
// night->day edge: every wave of senders fires a short transfer at the same
// instant, 30us before the circuit day opens, so the burst piles into the
// rack-0 -> rack-1 VOQ during the blackout and releases the moment the
// optical day begins. This is the worst case the queue disciplines exist
// for, and the bench runs the identical workload under each of them:
//
//   droptail    the paper's bounded VOQ (the baseline)
//   codel       CoDel dropping at dequeue (RFC 8289 scaled to RDCN RTTs)
//   codel-ecn   CoDel marking ECN-capable packets instead of dropping
//   delaymark   instantaneous-sojourn ECN marking
//   sharedpool  dynamic-threshold sharing of one ToR buffer pool
//
// Reported per discipline: flow completion percentiles plus the VOQ's
// drop/mark breakdown and sojourn tail — the profiles must differ, that is
// the point of the axis. With --out the same table is written as
// tdtcp-bench/1 JSON (one run per discipline, counters name-keyed), which
// is what the tracked BENCH_incast.json baseline holds; diff against it
// with tools/bench_compare.py --metric=NAME.
#include "bench_util.hpp"

#include "tcp/tcp_connection.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

constexpr int kSenders = 12;  // N-to-1 fan-in per wave
// ~25 segments per flow: the synchronized fan-in is ~300 packets against a
// 16-packet VOQ, so the burst spills across the circuit day into packet
// days and every discipline's policy actually gets exercised.
constexpr std::uint64_t kFlowBytes = 25 * 8940;

struct QdiscSetup {
  const char* name;
  QueueDisc::Config voq;
};

std::vector<QdiscSetup> Setups() {
  return {
      {"droptail", {.kind = QdiscKind::kDropTail}},
      {"codel", {.kind = QdiscKind::kCodel}},
      {"codel-ecn", {.kind = QdiscKind::kCodel, .codel_ecn = true}},
      {"delaymark", {.kind = QdiscKind::kDelayMark}},
      {"sharedpool",
       {.kind = QdiscKind::kSharedPool, .capacity_packets = 64}},
  };
}

struct IncastStats {
  std::vector<double> fct_us;
  int aborted = 0;
  QueueDisc::Stats voq;  // the incast-side VOQ (rack 0 -> rack 1)
};

// Under --schedule-jitter / --day-skew the controller runs the perturbed
// schedule, while the waves still fire at the nominal night->day edges.
// The run is an Experiment with no long-lived flows and no sampling; the
// waves are its only traffic.
IncastStats MeasureIncast(const QueueDisc::Config& voq, int waves,
                          const BenchArgs& args) {
  ExperimentConfig cfg =
      PaperConfig(Variant::kTdtcp).WithFlows(0).WithSampling(false, false);
  ApplyBenchFlags(cfg, args);
  cfg.topology.voq = voq;  // the axis value; --qdisc only filters the axis
  const Schedule schedule(cfg.schedule);
  const SimTime week = schedule.week_length();
  cfg.duration = week * (waves + 2) + SimTime::Millis(2);
  Experiment exp(cfg);
  Simulator& sim = exp.sim();
  Topology& topo = exp.topology();

  // ECN-capable transport under every discipline so the marking variants
  // have something to mark (capability, not DCTCP's response, is what the
  // drop/mark profile needs). The base is the run's effective one, so
  // --recovery=off strips RACK and TLP here too (and under agent the
  // connections register with each host's agent).
  TcpConfig base =
      MakeVariantConfig(Variant::kTdtcp, exp.workload().config().base);
  base.ecn_enabled = true;
  base.time_wait_duration = SimTime::Micros(10);

  // The circuit day's start within the week. The data barrier fires in the
  // middle of the blackout right before it, so the fan-in piles into the
  // VOQ while the fabric is dark and releases at the night->day edge; the
  // connections themselves are established over the preceding packet day
  // so no handshake RTT desynchronizes the burst.
  const SimTime day_open =
      schedule.slot_length() *
      static_cast<std::int64_t>(cfg.schedule.circuit_day);
  const SimTime lead = cfg.schedule.night_length / 2;
  const SimTime connect_lead = SimTime::Micros(400);

  IncastStats stats;
  std::vector<std::unique_ptr<TcpConnection>> conns;
  struct StartEnv {
    Simulator& sim;
    Topology& topo;
    TcpConfig& base;
    std::vector<std::unique_ptr<TcpConnection>>& conns;
    IncastStats& stats;
  } env{sim, topo, base, conns, stats};
  for (int w = 0; w < waves; ++w) {
    // Wave w targets week w+1's night->day edge (week 0 is warm-up free of
    // incast so the schedule is already rotating).
    const SimTime fire = week * (w + 1) + day_open - lead;
    for (int s = 0; s < kSenders; ++s) {
      const FlowId id = static_cast<FlowId>(1000 + w * kSenders + s);
      const std::uint32_t host_idx = static_cast<std::uint32_t>(s);
      sim.ScheduleAt(fire - connect_lead, [e = &env, id, host_idx, fire] {
        TcpConfig sc = e->base;
        TcpConfig rc = sc;
        rc.close_on_peer_fin = true;
        auto rx = std::make_unique<TcpConnection>(
            e->sim, e->topo.host(1, 0), id, e->topo.host_id(0, host_idx), rc);
        rx->Listen();
        auto tx = std::make_unique<TcpConnection>(
            e->sim, e->topo.host(0, host_idx), id, e->topo.host_id(1, 0), sc);
        IncastStats& stats = e->stats;
        Simulator& sim = e->sim;
        tx->SetClosedCallback([&stats, &sim, fire](CloseReason reason) {
          if (reason == CloseReason::kNormal) {
            stats.fct_us.push_back((sim.now() - fire).micros_f());
          } else {
            ++stats.aborted;
          }
        });
        tx->Connect();
        // The data barrier: every established sender releases its burst at
        // the same instant, mid-blackout.
        TcpConnection* tx_raw = tx.get();
        sim.ScheduleAt(fire, [tx_raw] {
          tx_raw->AddAppData(kFlowBytes);
          tx_raw->Close();  // lingering close: FIN rides behind the payload
        });
        e->conns.push_back(std::move(rx));
        e->conns.push_back(std::move(tx));
      });
    }
  }

  exp.RunUntil(cfg.duration);
  stats.voq = topo.port(0, 1)->voq().stats();
  return stats;
}

BenchRun ToRun(const QdiscSetup& setup, const IncastStats& s, int waves) {
  BenchRun run;
  run.name = setup.name;
  run.iterations = 1;
  auto& c = run.counters;
  c["completed"] = static_cast<double>(s.fct_us.size());
  c["aborted"] = s.aborted;
  c["flows"] = static_cast<double>(waves) * kSenders;
  c["fct_p50_us"] = Percentile(s.fct_us, 50);
  c["fct_p99_us"] = Percentile(s.fct_us, 99);
  c["voq_drops"] = static_cast<double>(s.voq.dropped);
  c["voq_ce_marked"] = static_cast<double>(s.voq.ce_marked);
  c["voq_codel_drops"] = static_cast<double>(s.voq.codel_drops);
  c["voq_codel_marks"] = static_cast<double>(s.voq.codel_marks);
  c["voq_delay_marked"] = static_cast<double>(s.voq.delay_marked);
  c["voq_shared_rejected"] = static_cast<double>(s.voq.shared_rejected);
  c["voq_sojourn_p99_us"] = s.voq.SojournPercentileUs(99);
  c["voq_sojourn_max_us"] = s.voq.max_sojourn.micros_f();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 20);
  const int waves = args.duration_ms;  // legacy: positional arg is the count

  std::vector<QdiscSetup> setups = Setups();
  if (!args.qdisc.empty()) {
    // --qdisc narrows the axis to one discipline (codel keeps both modes).
    std::erase_if(setups, [&](const QdiscSetup& s) {
      return QdiscKindName(s.voq.kind) != args.qdisc;
    });
  }

  std::printf("Incast: %d-to-1 synchronized waves (%d waves, %llu KB per "
              "flow), fired 30us before\nthe circuit day opens, per queue "
              "discipline:\n\n",
              kSenders, waves,
              static_cast<unsigned long long>(kFlowBytes / 1000));

  // One private Simulator per discipline on the pool; results are
  // bit-identical at any job count.
  std::vector<IncastStats> stats(setups.size());
  std::vector<double> wall_ns(setups.size());
  ParallelFor(args.jobs, setups.size(), [&](std::size_t i) {
    wall_ns[i] =
        WallNs([&] { stats[i] = MeasureIncast(setups[i].voq, waves, args); });
  });

  std::printf("%-11s %9s %8s %8s %9s %8s %8s %8s %10s %8s\n", "qdisc",
              "completed", "p50_us", "p99_us", "drops", "ce_mark", "codel",
              "delay", "shared_rej", "soj_p99");
  BenchReport report;
  report.context = "bench_incast";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    const IncastStats& s = stats[i];
    BenchRun run = ToRun(setups[i], s, waves);
    run.real_time_ns = wall_ns[i];
    std::printf(
        "%-11s %6zu/%-3d %8.0f %8.0f %9.0f %8.0f %8.0f %8.0f %10.0f %8.0f\n",
        setups[i].name, s.fct_us.size(), waves * kSenders,
        run.counters.at("fct_p50_us"), run.counters.at("fct_p99_us"),
        run.counters.at("voq_drops"), run.counters.at("voq_ce_marked"),
        run.counters.at("voq_codel_drops") +
            run.counters.at("voq_codel_marks"),
        run.counters.at("voq_delay_marked"),
        run.counters.at("voq_shared_rejected"),
        run.counters.at("voq_sojourn_p99_us"));
    report.runs.push_back(run);
  }

  std::printf("\nexpectation: the disciplines trade loss for delay "
              "differently — drop-tail takes the\nfull-buffer sojourn, "
              "CoDel/delay-mark bound it (dropping or marking instead), "
              "and the\nshared pool moves the admission decision to the "
              "ToR's free buffer.\n");

  MaybeWriteBenchReport(args, report);
  return 0;
}
