#include "workloads.hpp"

#include <stdexcept>

#include "app/flow_cdf.hpp"

namespace perfbench {

using tdtcp::ExperimentConfig;
using tdtcp::SimTime;
using tdtcp::Variant;

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"rotor_churn", "pair_bulk",
                                                 "lossy_mixed"};
  return names;
}

namespace {

// Sampling as bench_scaleout runs it: the mandatory bytes-acked sampler at a
// coarse interval, no VOQ/reorder series.
ExperimentConfig Base(int duration_ms, std::uint64_t seed) {
  return tdtcp::PaperConfig(Variant::kTdtcp)
      .WithDurationMs(duration_ms)
      .WithSampling(false, false)
      .WithSampleInterval(SimTime::Millis(1))
      .WithSeed(seed);
}

// bench_scaleout's websearch/uniform cell with tracing off: every host of an
// 8-rack rotor fabric is a Poisson source.
Workload RotorChurn(std::uint64_t seed, bool small) {
  Workload w;
  w.name = "rotor_churn";
  const std::uint32_t lifecycles = small ? 400 : 10'000;
  w.config = Base(10, seed)
                 .WithRotorFabric(8)
                 .WithRackPolicy(tdtcp::RackPolicy::kUniform)
                 .WithFlowSizeCdf(tdtcp::BuiltinFlowSizeCdf("websearch"),
                                  1.0 / 24);
  w.config.workload.num_flows = 0;
  w.config.churn.enabled = true;
  w.config.churn.target_connections = lifecycles;
  w.config.churn.mean_interarrival = SimTime::Micros(100);
  w.config.churn.max_concurrent = 2048;
  w.config.churn.size_cap_bytes = 2'000'000;
  w.unit = "lifecycles";
  w.units = lifecycles;
  return w;
}

// The paper's §5.1 two-rack configuration: 16 long-lived TDTCP flows, no
// churn, no faults.
Workload PairBulk(std::uint64_t seed, bool small) {
  Workload w;
  w.name = "pair_bulk";
  const int ms = small ? 8 : 1000;
  w.config = Base(ms, seed).WithFlows(16);
  w.unit = "sim_ms";
  w.units = ms;
  return w;
}

// The BM_ScaleChurnFault shape at a longer run: 8 long flows plus pair
// churn under fabric loss and a lossy, late, duplicating control plane.
Workload LossyMixed(std::uint64_t seed, bool small) {
  Workload w;
  w.name = "lossy_mixed";
  // Long enough that every seed reaches the loss burst that sets peak
  // memory: runs half as long missed it on about a third of the seeds, and
  // peak RSS then read 1 MB lower than on the others.
  const std::uint32_t lifecycles = small ? 60 : 9'000;
  tdtcp::FaultPlan plan;
  plan.fabric.loss_rate = 0.02;
  plan.control.notify_loss_rate = 0.1;
  plan.control.notify_delay_mean = SimTime::Micros(5);
  plan.control.notify_duplicate_rate = 0.05;
  // Arrivals come every 100 us on average and every cycle closes within the
  // 40 ms slot timeout. With slots enough that no arrival waits for one,
  // every cycle has closed 100 ms past the mean arrival span, before
  // `duration`, and RunExperiment's drain (41 ms steps of long-flow traffic)
  // never runs: the simulated span is the same for every seed. With the
  // default 16 slots, arrivals queue behind lossy cycles and the drain ran
  // 5 to 7 steps depending on the seed, +-5% work.
  const int ms = static_cast<int>(lifecycles / 10) + 100;
  w.config = Base(ms, seed).WithFlows(8).WithFault(plan).WithChurn(lifecycles);
  w.config.churn.max_concurrent = 256;
  w.unit = "lifecycles";
  w.units = lifecycles;
  return w;
}

}  // namespace

Workload MakeWorkload(const std::string& name, std::uint64_t seed, bool small) {
  if (name == "rotor_churn") return RotorChurn(seed, small);
  if (name == "pair_bulk") return PairBulk(seed, small);
  if (name == "lossy_mixed") return LossyMixed(seed, small);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected rotor_churn | pair_bulk | "
                              "lossy_mixed)");
}

}  // namespace perfbench
