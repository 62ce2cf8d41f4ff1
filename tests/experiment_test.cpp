// Experiment: a run driven slice by slice equals RunExperiment's one call,
// and a finished run refuses to go on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "app/flow_cdf.hpp"
#include "app/sweep.hpp"

namespace tdtcp {
namespace {

// Pair run with every optional part wired: faults, churn, trace, and both
// samplers. It never drains, whatever the sample path: every cycle gets a
// slot (no deferrals), the 40 arrivals end near 0.4 ms (a sum of 40
// exponential 10 us gaps, standard deviation 63 us; 4 ms is 57 of them
// out), and each cycle resolves within slot_timeout (3 ms) of opening, so
// every cycle closes before 7 ms < duration.
ExperimentConfig PairFaultChurnConfig() {
  FaultPlan plan;
  plan.fabric.loss_rate = 0.02;
  plan.control.notify_loss_rate = 0.1;
  plan.control.notify_delay_mean = SimTime::Micros(5);
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithFlows(4)
                             .WithDuration(SimTime::Millis(8))
                             .WithWarmup(SimTime::Millis(1))
                             .WithFault(plan)
                             .WithChurn(40, SimTime::Micros(10))
                             .WithTrace();
  cfg.churn.max_concurrent = 40;
  cfg.churn.slot_timeout = SimTime::Millis(3);
  return cfg;
}

// Churn-only 4-rack rotor whose target outlasts `duration`, so Finish's
// drain runs past it.
ExperimentConfig RotorChurnConfig() {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithRotorFabric(4)
                             .WithDurationMs(4)
                             .WithRackPolicy(RackPolicy::kUniform)
                             .WithFlowSizeCdf(BuiltinFlowSizeCdf("websearch"),
                                              1.0 / 64)
                             .WithTrace();
  cfg.workload.num_flows = 0;
  cfg.churn.enabled = true;
  cfg.churn.target_connections = 400;
  cfg.churn.mean_interarrival = SimTime::Micros(150);
  cfg.churn.max_concurrent = 128;
  return cfg;
}

ExperimentConfig MptcpPairConfig() {
  return PaperConfig(Variant::kMptcp)
      .WithFlows(4)
      .WithDuration(SimTime::Millis(6))
      .WithWarmup(SimTime::Millis(1));
}

void ExpectSameSeries(const std::vector<Sample>& a,
                      const std::vector<Sample>& b, const char* name) {
  ASSERT_EQ(a.size(), b.size()) << name;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << name << "[" << i << "]";
    EXPECT_EQ(a[i].value, b[i].value) << name << "[" << i << "]";
  }
}

void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  const auto ma = ScalarMetrics(a);
  const auto mb = ScalarMetrics(b);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].second, mb[i].second) << ma[i].first;
  }
  ExpectSameSeries(a.seq_samples, b.seq_samples, "seq");
  ExpectSameSeries(a.voq_samples, b.voq_samples, "voq");
  ExpectSameSeries(a.reorder_event_samples, b.reorder_event_samples,
                   "reorder_events");
  ExpectSameSeries(a.reorder_marked_samples, b.reorder_marked_samples,
                   "reorder_marked");
  EXPECT_EQ(a.churn_fct_us, b.churn_fct_us);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.churn_hash, b.churn_hash);
  EXPECT_EQ(a.fault_trace_hash, b.fault_trace_hash);
}

// Uneven slices: a repeat (no-op), a step, one past `duration` (stops
// there), and one after the window froze (no-op). Only Finish's churn
// drain, when the churn target outlasts `duration`, runs past it.
ExperimentResult RunSliced(const ExperimentConfig& cfg, bool drains) {
  Experiment exp(cfg);
  const SimTime d = cfg.duration;
  exp.RunUntil(SimTime::Micros(700));
  exp.RunUntil(SimTime::Micros(700));
  exp.RunUntil(d / 3 + SimTime::Micros(31));
  exp.RunUntil(d + SimTime::Millis(5));
  EXPECT_EQ(exp.sim().now(), d);
  exp.RunUntil(d * 2);
  EXPECT_EQ(exp.sim().now(), d);
  ExperimentResult r = exp.Finish();
  EXPECT_EQ(exp.sim().now() > d, drains);
  return r;
}

TEST(Experiment, SlicedRunEqualsRunExperiment) {
  const struct {
    const char* name;
    ExperimentConfig cfg;
    bool drains;
  } cases[] = {
      {"pair+fault+churn+trace", PairFaultChurnConfig(), false},
      {"rotor churn+trace", RotorChurnConfig(), true},
      {"mptcp pair", MptcpPairConfig(), false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const ExperimentResult whole = RunExperiment(c.cfg);
    ExpectSameResult(RunSliced(c.cfg, c.drains), whole);
    // Each case exercises the parts it was picked for.
    EXPECT_GT(whole.total_bytes + whole.churn.opened, 0u);
    EXPECT_EQ(whole.trace_records > 0, c.cfg.trace.enabled);
    EXPECT_TRUE(whole.churn_all_closed);
    EXPECT_EQ(whole.faults_injected > 0, !c.cfg.fault.Empty());
  }
}

TEST(Experiment, FinishedRunThrows) {
  Experiment exp(MptcpPairConfig().WithDuration(SimTime::Millis(1)));
  exp.Finish();
  EXPECT_THROW(exp.Finish(), std::logic_error);
  EXPECT_THROW(exp.RunUntil(SimTime::Millis(2)), std::logic_error);
}

}  // namespace
}  // namespace tdtcp
