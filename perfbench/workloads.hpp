// The benchmark's workloads. Each is an ExperimentConfig generated from the
// seed, so the same config can be handed both to RunExperiment (the drift
// guard) and to the composed run that times it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/experiment.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  tdtcp::ExperimentConfig config;
  // Work done by one repetition, in the workload's own unit: closed
  // lifecycles for the churn workloads, simulated milliseconds for pair_bulk.
  // The end-to-end rate is units / run_s, so a change that removes events
  // (link bursts, ACK coalescing) reads as faster, never slower.
  const char* unit = "";
  double units = 0;
};

const std::vector<std::string>& WorkloadNames();

// `small` is the drift-guard size, cheap enough to run on every benchmark
// run.
// Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed, bool small);

}  // namespace perfbench
