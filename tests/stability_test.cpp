// Adversarial-schedule robustness suite: the SchedulePerturbation engine,
// TdnManager retirement/revival under mid-flow TDN-count changes, the
// convergence oracle (trace/convergence.hpp), mixed tenant populations, and
// the historical RTO-backoff phase-locking failure as an executable canary.
// Also holds the regression tests for the validation that replaced the
// NDEBUG-silent asserts in schedule.cpp / tdn_manager.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "app/sweep.hpp"
#include "cc/registry.hpp"
#include "rdcn/perturbation.hpp"
#include "rdcn/schedule.hpp"
#include "sim/time.hpp"
#include "tdtcp/tdn_manager.hpp"
#include "test_util.hpp"
#include "trace/convergence.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {
namespace {

ExperimentConfig ShortConfig(Variant v, int ms = 10) {
  ExperimentConfig cfg = PaperConfig(v);
  cfg.duration = SimTime::Millis(ms);
  cfg.warmup = SimTime::Millis(ms / 5);
  cfg.workload.num_flows = 4;
  cfg.sample_voq = false;
  cfg.sample_reorder = false;
  return cfg;
}

// A perturbation exercising every knob: skewed and jittered boundaries, a
// mid-flow rotation-period change, a TDN-count change down to one live TDN
// (and back), and a controller-restart window.
PerturbationConfig FullPerturbation() {
  PerturbationConfig p;
  p.day_skew = 0.2;
  p.jitter = SimTime::Micros(3);
  ScheduleChange faster;
  faster.at = SimTime::Millis(2);
  faster.day_length = SimTime::Micros(90);
  p.changes.push_back(faster);
  ScheduleChange shrink;
  shrink.at = SimTime::Millis(4);
  shrink.live_tdns = 1;
  p.changes.push_back(shrink);
  ScheduleChange regrow;
  regrow.at = SimTime::Millis(6);
  regrow.live_tdns = 2;
  p.changes.push_back(regrow);
  RestartWindow restart;
  restart.at = SimTime::Millis(5);
  restart.duration = SimTime::Micros(400);
  p.restarts.push_back(restart);
  return p;
}

// ---------------------------------------------------------------------------
// Validation regressions (formerly NDEBUG-silent asserts)
// ---------------------------------------------------------------------------

TEST(ScheduleValidation, RejectsDegenerateConfigs) {
  ScheduleConfig zero_day;
  zero_day.day_length = SimTime::Zero();
  EXPECT_THROW(Schedule{zero_day}, std::invalid_argument);

  ScheduleConfig negative_night;
  negative_night.night_length = SimTime::Picos(-1);
  EXPECT_THROW(Schedule{negative_night}, std::invalid_argument);

  ScheduleConfig no_days;
  no_days.num_days = 0;
  EXPECT_THROW(Schedule{no_days}, std::invalid_argument);

  ScheduleConfig bad_circuit;
  bad_circuit.circuit_day = 7;  // == num_days
  EXPECT_THROW(Schedule{bad_circuit}, std::invalid_argument);
}

TEST(ScheduleValidation, NoCircuitDaySentinelMakesAnAllPacketWeek) {
  ScheduleConfig cfg;
  cfg.circuit_day = ScheduleConfig::kNoCircuitDay;
  Schedule sched{cfg};
  for (int day = 0; day < 7; ++day) {
    const SimTime mid_day =
        sched.slot_length() * day + SimTime::Micros(90);
    EXPECT_EQ(sched.TdnAt(mid_day), TdnId{0}) << "day " << day;
  }
  // OptimalBits must not credit a circuit day that never occurs: one full
  // week at packet rate over the seven 180 us days.
  const double bits = sched.OptimalBits(sched.week_length(), 10e9, 100e9);
  EXPECT_NEAR(bits, 10e9 * 7 * 180e-6, 1.0);
}

TEST(ScheduleValidation, SlotAtRejectsNegativeTime) {
  Schedule sched{ScheduleConfig{}};
  EXPECT_THROW(sched.SlotAt(SimTime::Picos(-1)), std::invalid_argument);
  EXPECT_NO_THROW(sched.SlotAt(SimTime::Zero()));
}

TEST(TdnManagerValidation, RejectsZeroTdns) {
  EXPECT_THROW(TdnManager(0, test::RenoTcpConfig()),
               std::invalid_argument);
}

TEST(TdnManagerValidation, RetireAboveRejectsZeroLive) {
  TdnManager mgr(2, test::RenoTcpConfig());
  EXPECT_THROW(mgr.RetireAbove(0), std::invalid_argument);
}

TEST(PerturbationValidation, RejectsBadConfigs) {
  {
    PerturbationConfig p;
    p.day_skew = 1.0;  // must be < 1
    EXPECT_THROW(SchedulePerturbation(p, 1), std::invalid_argument);
  }
  {
    PerturbationConfig p;
    p.day_skew = -0.1;
    EXPECT_THROW(SchedulePerturbation(p, 1), std::invalid_argument);
  }
  {
    PerturbationConfig p;
    p.jitter = SimTime::Picos(-1);
    EXPECT_THROW(SchedulePerturbation(p, 1), std::invalid_argument);
  }
  {
    PerturbationConfig p;
    ScheduleChange c;
    c.at = SimTime::Picos(-1);
    p.changes.push_back(c);
    EXPECT_THROW(SchedulePerturbation(p, 1), std::invalid_argument);
  }
  {
    PerturbationConfig p;
    RestartWindow w;
    w.at = SimTime::Picos(-1);
    p.restarts.push_back(w);
    EXPECT_THROW(SchedulePerturbation(p, 1), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// SchedulePerturbation engine mechanics
// ---------------------------------------------------------------------------

TEST(SchedulePerturbation, SkewStretchesEvenShrinksOdd) {
  PerturbationConfig p;
  p.day_skew = 0.25;  // no jitter: skew alone must be exact
  SchedulePerturbation eng(p, 7);
  const SimTime base = SimTime::Micros(180);
  EXPECT_EQ(eng.PerturbDay(0, base).picos(),
            SimTime::Micros(225).picos());  // 180 * 1.25
  EXPECT_EQ(eng.PerturbDay(1, base).picos(),
            SimTime::Micros(135).picos());  // 180 * 0.75
  EXPECT_EQ(eng.PerturbNight(SimTime::Micros(20)).picos(),
            SimTime::Micros(20).picos());  // skew is a day-length property
  EXPECT_EQ(eng.stats().skewed_days, 2u);
  EXPECT_EQ(eng.stats().jittered_boundaries, 0u);
}

TEST(SchedulePerturbation, JitterIsDeterministicBoundedAndSeedSensitive) {
  PerturbationConfig p;
  p.jitter = SimTime::Micros(1000);  // far above base: clamp must kick in
  const SimTime base = SimTime::Micros(180);

  SchedulePerturbation a(p, 42), b(p, 42), c(p, 43);
  bool any_diff_seed = false;
  for (std::uint32_t day = 0; day < 64; ++day) {
    const SimTime da = a.PerturbDay(day, base);
    const SimTime db = b.PerturbDay(day, base);
    const SimTime dc = c.PerturbDay(day, base);
    EXPECT_EQ(da.picos(), db.picos()) << "day " << day;
    any_diff_seed |= da.picos() != dc.picos();
    // Clamped so a segment never collapses below a quarter of nominal.
    EXPECT_GE(da.picos(), base.picos() / 4) << "day " << day;
  }
  EXPECT_TRUE(any_diff_seed);
  EXPECT_GT(a.stats().jittered_boundaries, 0u);
}

TEST(SchedulePerturbation, ChangesConsumedInConfigOrder) {
  PerturbationConfig p;
  ScheduleChange first;
  first.at = SimTime::Micros(100);
  first.live_tdns = 1;
  ScheduleChange second;
  second.at = SimTime::Micros(300);
  second.day_length = SimTime::Micros(90);
  p.changes = {first, second};
  SchedulePerturbation eng(p, 1);

  EXPECT_EQ(eng.PendingChange(SimTime::Micros(50)), nullptr);
  const ScheduleChange* c1 = eng.PendingChange(SimTime::Micros(400));
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->live_tdns, 1);  // first in config order, even though both due
  eng.MarkApplied();
  const ScheduleChange* c2 = eng.PendingChange(SimTime::Micros(400));
  ASSERT_NE(c2, nullptr);
  EXPECT_EQ(c2->day_length.picos(), SimTime::Micros(90).picos());
  eng.MarkApplied();
  EXPECT_EQ(eng.PendingChange(SimTime::Micros(400)), nullptr);
  EXPECT_EQ(eng.stats().changes_applied, 2u);
}

TEST(SchedulePerturbation, RestartHoldCoversWindow) {
  PerturbationConfig p;
  RestartWindow w;
  w.at = SimTime::Micros(100);
  w.duration = SimTime::Micros(50);
  p.restarts.push_back(w);
  SchedulePerturbation eng(p, 1);

  EXPECT_TRUE(eng.RestartHold(SimTime::Micros(99)).IsZero());
  const SimTime hold = eng.RestartHold(SimTime::Micros(120));
  EXPECT_EQ(hold.picos(), SimTime::Micros(30).picos());  // remaining window
  EXPECT_TRUE(eng.RestartHold(SimTime::Micros(150)).IsZero());
  EXPECT_EQ(eng.stats().restart_holds, 1u);
}

// ---------------------------------------------------------------------------
// TdnManager retirement / revival (TDN-count changes)
// ---------------------------------------------------------------------------

TEST(TdnRetirement, ActiveNeverLeftRetired) {
  TdnManager mgr(4, test::RenoTcpConfig());
  mgr.SwitchTo(2);
  ASSERT_EQ(mgr.active_id(), 2);

  EXPECT_TRUE(mgr.RetireAbove(2));  // active was retired -> moved to 0
  EXPECT_EQ(mgr.active_id(), 0);
  EXPECT_FALSE(mgr.retired(0));
  EXPECT_FALSE(mgr.retired(1));
  EXPECT_TRUE(mgr.retired(2));
  EXPECT_TRUE(mgr.retired(3));
  EXPECT_EQ(mgr.live_tdns(), 2u);
  EXPECT_EQ(mgr.retire_events(), 1u);

  // Retiring nothing the active uses does not move it.
  mgr.SwitchTo(1);
  EXPECT_FALSE(mgr.RetireAbove(2));
  EXPECT_EQ(mgr.active_id(), 1);
}

TEST(TdnRetirement, DrainedRevivalReinitializes) {
  TdnManager mgr(2, test::RenoTcpConfig());
  mgr.state(1).cwnd = 77;
  mgr.state(1).ssthresh = 5;
  mgr.RetireAbove(1);
  ASSERT_TRUE(mgr.retired(1));

  // Fully drained (no packets_out / retrans_out): revival is a fresh start.
  mgr.SwitchTo(1);
  EXPECT_FALSE(mgr.retired(1));
  EXPECT_EQ(mgr.active().cwnd, 10u);
  EXPECT_EQ(mgr.active().ssthresh, 0x7fffffffu);
  ASSERT_NE(mgr.active().cc, nullptr);
}

TEST(TdnRetirement, UndrainedRevivalCarriesStateOver) {
  TdnManager mgr(2, test::RenoTcpConfig());
  mgr.state(1).cwnd = 99;
  mgr.state(1).packets_out = 5;  // data still in flight on the retired TDN
  mgr.RetireAbove(1);
  ASSERT_TRUE(mgr.retired(1));
  // Accounting survives retirement: the scoreboard still sums this TDN.
  EXPECT_EQ(mgr.TotalPacketsOut(), 5u);

  mgr.SwitchTo(1);
  EXPECT_FALSE(mgr.retired(1));
  EXPECT_EQ(mgr.active().cwnd, 99u);  // carry-over, not a reset
  EXPECT_EQ(mgr.active().packets_out, 5u);
}

TEST(TdnRetirement, RegrowUnretiresAndEmitsTracepoint) {
  TraceRing ring(64);
  TdnManager mgr(4, test::RenoTcpConfig());
  const TdnTraceSink trace{&ring, /*now_ps=*/0, /*flow=*/9};

  mgr.RetireAbove(1, trace);
  EXPECT_EQ(mgr.live_tdns(), 1u);
  // Regrow: everything live again, drained sets fresh.
  mgr.RetireAbove(4, trace);
  EXPECT_EQ(mgr.live_tdns(), 4u);
  for (TdnId i = 0; i < 4; ++i) EXPECT_FALSE(mgr.retired(i));

  std::uint64_t retire_records = 0;
  for (const TraceRecord& r : ring.Snapshot()) {
    if (static_cast<TracePoint>(r.point) != TracePoint::kTdnRetire) continue;
    ++retire_records;
    EXPECT_EQ(r.flow, 9u);
  }
  EXPECT_EQ(retire_records, 2u);
  EXPECT_EQ(mgr.retire_events(), 2u);
}

// ---------------------------------------------------------------------------
// Convergence oracle on synthetic series
// ---------------------------------------------------------------------------

std::vector<CwndSample> FlatSeries(std::size_t n, std::uint32_t cwnd,
                                   std::int64_t step_ps = 1000) {
  std::vector<CwndSample> s;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back({static_cast<std::int64_t>(i) * step_ps, cwnd});
  }
  return s;
}

TEST(ConvergenceOracle, FlatSeriesConverges) {
  const SeriesVerdict v = ClassifySeries(FlatSeries(20, 50), {});
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kConverged);
  EXPECT_DOUBLE_EQ(v.amplitude, 0.0);
  EXPECT_DOUBLE_EQ(v.mean_cwnd, 50.0);
}

TEST(ConvergenceOracle, ShortSeriesIsInsufficient) {
  const SeriesVerdict v = ClassifySeries(FlatSeries(5, 50), {});
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kInsufficient);
}

TEST(ConvergenceOracle, LowFlatSeriesIsStarved) {
  const SeriesVerdict v = ClassifySeries(FlatSeries(20, 1), {});
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kStarved);
}

TEST(ConvergenceOracle, RegularSquareWaveOscillates) {
  // Period 2 ms: collapse to 2, ramp to 40, four full cycles.
  std::vector<CwndSample> s;
  for (int cycle = 0; cycle < 4; ++cycle) {
    const std::int64_t t0 = cycle * 2'000'000'000ll;  // 2 ms in ps
    s.push_back({t0, 2});
    s.push_back({t0 + 500'000'000ll, 2});
    s.push_back({t0 + 1'000'000'000ll, 40});
    s.push_back({t0 + 1'500'000'000ll, 40});
  }
  const SeriesVerdict v = ClassifySeries(s, {});
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kOscillating);
  EXPECT_GE(v.cycles, 3u);
  EXPECT_NEAR(v.period_us, 2000.0, 1.0);
  EXPECT_NEAR(v.amplitude, 0.95, 0.01);
}

TEST(ConvergenceOracle, IrregularCyclesAreNotOscillation) {
  // Same amplitude and cycle count as above, but the collapse times are
  // wildly irregular (one-off loss episodes, not a schedule-locked limit
  // cycle): period CV exceeds the threshold, so the series converges.
  std::vector<CwndSample> s;
  const std::int64_t tops_ms[] = {1, 2, 20, 21};
  std::int64_t t = 0;
  for (std::int64_t top_ms : tops_ms) {
    s.push_back({t, 2});
    s.push_back({top_ms * 1'000'000'000ll, 40});
    t = top_ms * 1'000'000'000ll + 1;
  }
  const SeriesVerdict v = ClassifySeries(s, {});
  EXPECT_EQ(v.cycles, 4u);
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kConverged);
}

TEST(ConvergenceOracle, WarmupFilterDiscardsEarlySamples) {
  ConvergenceConfig cfg;
  cfg.from_ps = 100'000;  // all samples (step 1000 ps, n=20) are earlier
  const SeriesVerdict v = ClassifySeries(FlatSeries(20, 50), cfg);
  EXPECT_EQ(v.verdict, ConvergenceVerdict::kInsufficient);
  EXPECT_EQ(v.num_points, 0u);
}

TEST(ConvergenceOracle, ReportRollsUpPerFlowAndTracksWorstOscillator) {
  // Flow 1: converged on TDN 0. Flow 2: oscillating on TDN 0, converged on
  // TDN 1 (oscillation wins the flow rollup). Flow 3: starved.
  std::vector<TraceRecord> records;
  auto emit = [&records](std::uint64_t flow, std::uint64_t tdn,
                         std::int64_t t_ps, std::uint64_t cwnd) {
    TraceRecord r{};
    r.time_ps = t_ps;
    r.point = static_cast<std::uint16_t>(TracePoint::kTcpCwndUpdate);
    r.flow = flow;
    r.a0 = tdn;
    r.a1 = cwnd;
    records.push_back(r);
  };
  for (int i = 0; i < 20; ++i) emit(1, 0, i * 1000, 50);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const std::int64_t t0 = cycle * 2'000'000'000ll;
    emit(2, 0, t0, 2);
    emit(2, 0, t0 + 1'000'000'000ll, 40);
  }
  for (int i = 0; i < 20; ++i) emit(2, 1, i * 1000, 30);
  for (int i = 0; i < 20; ++i) emit(3, 0, i * 1000, 1);

  const ConvergenceReport report = ClassifyConvergence(records, {});
  EXPECT_EQ(report.flows_converged, 1u);
  EXPECT_EQ(report.flows_oscillating, 1u);
  EXPECT_EQ(report.flows_starved, 1u);
  EXPECT_EQ(report.flows_insufficient, 0u);
  ASSERT_EQ(report.series.size(), 4u);
  EXPECT_NEAR(report.worst_amplitude, 0.95, 0.01);
  EXPECT_NEAR(report.worst_period_us, 2000.0, 1.0);
}

// ---------------------------------------------------------------------------
// End-to-end: perturbed runs
// ---------------------------------------------------------------------------

TEST(PerturbedRun, DeterministicAndDistinctFromNominal) {
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp)
                             .WithTrace(1u << 14)
                             .WithSchedulePerturbation(FullPerturbation());
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.schedule_changes, b.schedule_changes);
  EXPECT_GT(a.schedule_changes, 0u);
  EXPECT_GT(a.restart_holds, 0u);

  const ExperimentResult nominal =
      RunExperiment(ShortConfig(Variant::kTdtcp).WithTrace(1u << 14));
  EXPECT_NE(a.trace_hash, nominal.trace_hash);
  EXPECT_EQ(nominal.schedule_changes, 0u);
  EXPECT_EQ(nominal.tdn_reconfigs, 0u);
}

TEST(PerturbedRun, TdnCountChangeReachesEveryConnection) {
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp)
                             .WithTrace(1u << 14)
                             .WithSchedulePerturbation(FullPerturbation());
  const ExperimentResult r = RunExperiment(cfg);
  // Two live_tdns changes, delivered over the management plane to all four
  // flows' senders and receivers.
  EXPECT_GE(r.schedule_changes, 3u);
  EXPECT_GT(r.tdn_reconfigs, 0u);
  EXPECT_GT(r.total_bytes, 0u);
}

TEST(PerturbedRun, SweepBitIdenticalAtAnyJobCount) {
  // The headline robustness guarantee: mid-flow schedule changes, restarts,
  // faults, and churn riding together still give jobs=1 == jobs=N
  // bit-identity over every scalar metric (trace and churn hashes included).
  FaultPlan fault;
  fault.control.notify_loss_rate = 0.1;
  fault.control.notify_delay_mean = SimTime::Micros(5);

  SweepSpec spec;
  spec.base = ShortConfig(Variant::kTdtcp)
                  .WithTrace(1u << 14)
                  .WithChurn(20, SimTime::Micros(200))
                  .WithFault(fault)
                  .WithSchedulePerturbation(FullPerturbation());
  spec.variants = {Variant::kTdtcp, Variant::kCubic};
  spec.seeds = {1, 2};

  spec.jobs = 1;
  const SweepResult serial = RunSweep(spec);
  spec.jobs = 4;
  const SweepResult parallel = RunSweep(spec);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].runs.size(), parallel.cells[c].runs.size());
    for (std::size_t k = 0; k < serial.cells[c].runs.size(); ++k) {
      const ExperimentResult& s = serial.cells[c].runs[k].result;
      const ExperimentResult& p = parallel.cells[c].runs[k].result;
      EXPECT_EQ(s.trace_hash, p.trace_hash);
      EXPECT_EQ(s.churn_hash, p.churn_hash);
      const auto sm = ScalarMetrics(s);
      const auto pm = ScalarMetrics(p);
      ASSERT_EQ(sm.size(), pm.size());
      for (std::size_t m = 0; m < sm.size(); ++m) {
        EXPECT_EQ(sm[m].second, pm[m].second)
            << serial.cells[c].label << " metric " << sm[m].first;
      }
    }
  }
}

TEST(PerturbedRun, EveryChurnConnectionReachesDefiniteCloseReason) {
  // Reconfiguration + restarts + control-plane faults + churn: every opened
  // connection must still reach kClosed with a definite (non-kNone) reason.
  FaultPlan fault;
  fault.fabric.loss_rate = 0.02;
  fault.control.notify_loss_rate = 0.1;

  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp, 15)
                             .WithChurn(40, SimTime::Micros(150))
                             .WithFault(fault)
                             .WithSchedulePerturbation(FullPerturbation());
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.churn.opened, 0u);
  EXPECT_TRUE(r.churn_all_closed);
  EXPECT_EQ(r.churn.reasons[static_cast<std::size_t>(CloseReason::kNone)], 0u);
  std::uint64_t reason_sum = 0;
  for (std::size_t i = 0; i < kNumCloseReasons; ++i) {
    reason_sum += r.churn.reasons[i];
  }
  EXPECT_EQ(reason_sum, r.churn.closed);
}

TEST(PerturbedRun, SchedulerDigestsArePinned) {
  // Pins what both fabric schedulers do at their day/night boundaries under
  // every perturbation knob: the events they schedule and when, the draws
  // they take from the perturbation stream, and the tracepoints they emit.
  // The pair run adds reTCPdyn's VOQ resize and circuit-imminent notice (its
  // TDTCP churn tenants put the TDN-count changes on the trace); the rotor
  // run adds a matching reshuffle and peer-scoped notifications.
  ExperimentConfig pair =
      ShortConfig(Variant::kRetcpDyn)
          .WithTrace(1u << 14)
          .WithChurn(40, SimTime::Micros(150))
          .WithTenantMix({{Variant::kTdtcp, 1.0}, {Variant::kRetcpDyn, 1.0}})
          .WithSchedulePerturbation(FullPerturbation());
  ASSERT_TRUE(pair.dynamic_voq);

  PerturbationConfig p;
  p.day_skew = 0.2;
  p.jitter = SimTime::Micros(5);
  ScheduleChange reshuffle;
  reshuffle.at = SimTime::Millis(2);
  reshuffle.reshuffle_matchings = true;
  p.changes.push_back(reshuffle);
  ScheduleChange shrink;
  shrink.at = SimTime::Millis(3);
  shrink.live_tdns = 1;
  shrink.night_length = SimTime::Micros(30);
  p.changes.push_back(shrink);
  RestartWindow restart;
  restart.at = SimTime::Millis(4);
  restart.duration = SimTime::Micros(300);
  p.restarts.push_back(restart);
  ExperimentConfig rotor = PaperConfig(Variant::kTdtcp)
                               .WithRotorFabric(4)
                               .WithDurationMs(6)
                               .WithFlows(2)
                               .WithSampling(false, false)
                               .WithSampleInterval(SimTime::Millis(1))
                               .WithRackPolicy(RackPolicy::kUniform)
                               .WithChurn(150, SimTime::Micros(30))
                               .WithTrace(1u << 14)
                               .WithSchedulePerturbation(p);

  struct Pin {
    std::uint64_t trace_hash, churn_hash, sim_events, schedule_changes,
        restart_holds, tdn_reconfigs;
  };
  // Computed with the two controllers' own copies of the week clock, before
  // they shared one. sim_events re-pinned (105238 and 205646 before) when
  // a link stopped taking a start event per queued packet (DESIGN.md §4).
  // Hashes and sim_events re-pinned when every component got its own
  // counter-based stream (DESIGN.md §14): every draw moved.
  const Pin pins[] = {
      {15281099521164003931ull, 10528666986187250588ull, 86522, 3, 1, 0},
      {2637327329194303411ull, 1423102438917403411ull, 149492, 2, 1, 4},
  };
  const ExperimentConfig* configs[] = {&pair, &rotor};
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i == 0 ? "pair" : "rotor");
    const ExperimentResult r = RunExperiment(*configs[i]);
    EXPECT_GT(r.schedule_changes, 0u);
    EXPECT_GT(r.restart_holds, 0u);
    EXPECT_NE(r.churn_hash, 0u);
    EXPECT_EQ(r.trace_hash, pins[i].trace_hash);
    EXPECT_EQ(r.churn_hash, pins[i].churn_hash);
    EXPECT_EQ(r.sim_events, pins[i].sim_events);
    EXPECT_EQ(r.schedule_changes, pins[i].schedule_changes);
    EXPECT_EQ(r.restart_holds, pins[i].restart_holds);
    EXPECT_EQ(r.tdn_reconfigs, pins[i].tdn_reconfigs);
  }
}

// ---------------------------------------------------------------------------
// Mixed tenant populations
// ---------------------------------------------------------------------------

TEST(TenantMix, VariantsCoexistAndDrawsAreDeterministic) {
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp, 20)
                             .WithChurn(90, SimTime::Micros(100))
                             .WithTenantMix({{Variant::kTdtcp, 2.0},
                                             {Variant::kCubic, 1.0},
                                             {Variant::kDctcp, 1.0}});
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_EQ(a.churn_hash, b.churn_hash);
  EXPECT_GT(a.churn.opened, 0u);

  const auto opened_of = [&a](Variant v) {
    return a.churn.opened_by_variant[static_cast<std::size_t>(v)];
  };
  EXPECT_GT(opened_of(Variant::kTdtcp), 0u);
  EXPECT_GT(opened_of(Variant::kCubic), 0u);
  EXPECT_GT(opened_of(Variant::kDctcp), 0u);
  std::uint64_t by_variant_sum = 0;
  for (std::size_t i = 0; i < kNumVariants; ++i) {
    by_variant_sum += a.churn.opened_by_variant[i];
    EXPECT_EQ(a.churn.opened_by_variant[i],
              b.churn.opened_by_variant[i]);
  }
  EXPECT_EQ(by_variant_sum, a.churn.opened);
}

TEST(TenantMix, SurvivesScheduleReconfiguration) {
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp, 15)
                             .WithChurn(40, SimTime::Micros(150))
                             .WithTenantMix({{Variant::kTdtcp, 1.0},
                                             {Variant::kCubic, 1.0}})
                             .WithSchedulePerturbation(FullPerturbation());
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_GT(r.churn.opened, 0u);
  EXPECT_TRUE(r.churn_all_closed);
  EXPECT_GT(r.schedule_changes, 0u);
}

TEST(TenantMix, RejectsMptcpTenantsAndNonPositiveWeights) {
  {
    ExperimentConfig cfg = ShortConfig(Variant::kTdtcp)
                               .WithChurn(10)
                               .WithTenantMix({{Variant::kMptcp, 1.0}});
    EXPECT_THROW(RunExperiment(cfg), std::invalid_argument);
    EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
  }
  {
    ExperimentConfig cfg = ShortConfig(Variant::kTdtcp)
                               .WithChurn(10)
                               .WithTenantMix({{Variant::kTdtcp, 0.0}});
    EXPECT_THROW(RunExperiment(cfg), std::invalid_argument);
    EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// The RTO-backoff phase-locking canary
// ---------------------------------------------------------------------------

// The historical failure this suite exists to keep dead: schedule-oblivious
// cubic flows recovering on pure RTO (no RACK/TLP), starved of RTT samples
// during recovery (sack_rtt off, as on pre-sack_rtt Linux) and with a
// minimum RTO in the same decade as the 1.4 ms rotation week, so backed-off
// retransmissions can land in the same congested segment of the schedule
// week after week.
//
// What this workload actually shows, over seeds 1-32: the oracle certifies
// a limit cycle with period > 1 ms in 6-8 of 32 runs with sack_rtt off and in
// 4-11 of 32 with it on (the counts move when same-time event ties reorder),
// so there is no sack_rtt contrast to assert, and one pinned seed passing or
// failing says nothing. What holds on every seed, with either setting, is
// that no flow starves, and most flows (51-59 of 64 with sack_rtt on)
// converge. The canary therefore sweeps the fixed seed list once per
// setting and asserts:
//   * sack_rtt off: at least one run certifies an oscillating cycle with a
//     period longer than 1 ms (the oracle still sees a schedule-locked
//     cycle when one exists);
//   * sack_rtt on: more than half of all flows converge;
//   * either setting: no run reports a starved flow.
ExperimentConfig CanaryConfig(bool sack_rtt) {
  ExperimentConfig cfg = PaperConfig(Variant::kCubic)
                             .WithFlows(2)  // low load: healthy cubic settles
                             .WithDurationMs(60)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithTrace(1u << 18)
                             .WithRecovery(RecoveryMode::kOff);
  // Sparse random loss keeps flows dipping into recovery without saturating
  // the fabric.
  FaultPlan loss;
  loss.fabric.loss_rate = 0.005;
  cfg.WithFault(loss);
  cfg.workload.base.sack_rtt = sack_rtt;
  if (!sack_rtt) {
    // RTO floor ~ rotation week (8 x 180 us day): the phase-lock ingredient.
    cfg.workload.base.rtt.min_rto = SimTime::Micros(1440);
    cfg.workload.base.rtt.initial_rto = SimTime::Micros(1440);
  }
  return cfg;
}

struct CanaryTally {
  std::uint64_t flows = 0;
  std::uint64_t converged = 0;
  // Runs that certify an oscillating cycle with a period longer than 1 ms.
  std::uint64_t locked = 0;
};

// Runs CanaryConfig(sack_rtt) over seeds 1-32 on the sweep engine, prints
// each run's seed:converged/oscillating/insufficient/period_us/starved and
// asserts that no run starves a flow.
CanaryTally CanarySweep(bool sack_rtt) {
  SweepSpec spec;
  spec.base = CanaryConfig(sack_rtt);
  for (std::uint64_t seed = 1; seed <= 32; ++seed) spec.seeds.push_back(seed);
  spec.jobs = 4;
  const SweepResult sweep = RunSweep(spec);
  CanaryTally tally;
  EXPECT_EQ(sweep.cells.size(), 1u);
  if (sweep.cells.empty()) return tally;
  std::printf("sack_rtt=%d seed:conv/osc/insuff/period_us/starved", sack_rtt);
  for (const SweepRun& run : sweep.cells[0].runs) {
    const ExperimentResult& r = run.result;
    std::printf(" %llu:%llu/%llu/%llu/%.0f/%llu",
                static_cast<unsigned long long>(run.seed),
                static_cast<unsigned long long>(r.stability_converged),
                static_cast<unsigned long long>(r.stability_oscillating),
                static_cast<unsigned long long>(r.stability_insufficient),
                r.stability_worst_period_us,
                static_cast<unsigned long long>(r.stability_starved));
    EXPECT_EQ(r.stability_starved, 0u)
        << "sack_rtt=" << sack_rtt << " seed " << run.seed;
    tally.flows += spec.base.workload.num_flows;
    tally.converged += r.stability_converged;
    if (r.stability_oscillating > 0 && r.stability_worst_period_us > 1000.0) {
      ++tally.locked;
    }
  }
  std::printf("\nsack_rtt=%d: %llu/%llu flows converge, "
              "%llu/32 runs certify a cycle > 1 ms\n",
              sack_rtt, static_cast<unsigned long long>(tally.converged),
              static_cast<unsigned long long>(tally.flows),
              static_cast<unsigned long long>(tally.locked));
  return tally;
}

TEST(PhaseLockCanary, SackRttKeepsLowLoadCubicConverged) {
  const CanaryTally tally = CanarySweep(/*sack_rtt=*/true);
  EXPECT_GT(2 * tally.converged, tally.flows);
}

TEST(PhaseLockCanary, DisablingSackRttPhaseLocksWithTheRotationWeek) {
  EXPECT_GT(CanarySweep(/*sack_rtt=*/false).locked, 0u);
}

}  // namespace
}  // namespace tdtcp
