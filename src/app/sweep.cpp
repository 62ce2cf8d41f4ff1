#include "app/sweep.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>

#include "sim/hash.hpp"
#include "sim/json.hpp"

namespace tdtcp {

int ResolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

void ParallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  jobs = ResolveJobs(jobs);
  if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<int>(n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  for (int w = 0; w < jobs; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

// Two-sided 95% Student-t critical values by degrees of freedom; seeds-per-
// cell is small, so the normal 1.96 would understate the interval.
double TCritical95(std::size_t df) {
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

// "PeerReset" -> "peer_reset".
std::string SnakeCase(const char* camel) {
  std::string out;
  for (const char* c = camel; *c; ++c) {
    const auto u = static_cast<unsigned char>(*c);
    if (std::isupper(u) && c != camel) out += '_';
    out += static_cast<char>(std::tolower(u));
  }
  return out;
}

// A stored field, named by a data-member pointer or by a generic lambda
// returning a reference to it (std::invoke takes both). Integer fields
// read back through JsonToInt, a bool as value != 0.
template <typename Field>
MetricDef Stored(std::string name, Field field) {
  using T = std::remove_cvref_t<std::invoke_result_t<Field, ExperimentResult&>>;
  const std::string what = "tdtcp-sweep: metric " + name;
  return {std::move(name),
          [field](const ExperimentResult& r) {
            return static_cast<double>(std::invoke(field, r));
          },
          [field, what](ExperimentResult& r, double v) {
            if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
              std::invoke(field, r) = JsonToInt<T>(v, what);
            } else {
              std::invoke(field, r) = static_cast<T>(v);
            }
          }};
}

std::vector<MetricDef> BuildMetricTable() {
  using R = ExperimentResult;
  std::vector<MetricDef> t;
  const auto add = [&t](std::string name, auto field) {
    t.push_back(Stored(std::move(name), field));
  };
  // A hash reads as its Fingerprint53 and stores that back, so it
  // recomputes exactly after a round trip.
  const auto hash = [&](std::string name, std::uint64_t R::*field) {
    add(std::move(name), field);
    t.back().get = [field](const R& r) {
      return static_cast<double>(Fingerprint53(r.*field));
    };
  };
  add("goodput_bps", &R::goodput_bps);
  add("total_bytes", &R::total_bytes);
  add("retransmissions", &R::retransmissions);
  add("timeouts", &R::timeouts);
  add("reorder_events", &R::reorder_events);
  add("reorder_marked_lost", &R::reorder_marked_lost);
  add("duplicate_segments", &R::duplicate_segments);
  add("undo_events", &R::undo_events);
  add("cross_tdn_exemptions", &R::cross_tdn_exemptions);
  add("faults_injected", &R::faults_injected);
  add("notifications_dropped", &R::notifications_dropped);
  add("stale_notifications", &R::stale_notifications);
  add("tdn_inferred_switches", &R::tdn_inferred_switches);
  add("voq_shrink_deferred", &R::voq_shrink_deferred);
  add("voq_drops", &R::voq_drops);
  add("voq_ce_marked", &R::voq_ce_marked);
  add("voq_codel_drops", &R::voq_codel_drops);
  add("voq_codel_marks", &R::voq_codel_marks);
  add("voq_delay_marked", &R::voq_delay_marked);
  add("voq_shared_rejected", &R::voq_shared_rejected);
  add("voq_sojourn_mean_us", &R::voq_sojourn_mean_us);
  add("voq_sojourn_p99_us", &R::voq_sojourn_p99_us);
  add("voq_sojourn_max_us", &R::voq_sojourn_max_us);
  hash("trace_hash", &R::trace_hash);
  add("trace_records", &R::trace_records);
  // Churn lifecycle metrics (zero when churn was disabled).
  add("churn_opened", [](auto& r) -> auto& { return r.churn.opened; });
  add("churn_closed", [](auto& r) -> auto& { return r.churn.closed; });
  // Derived: closed - reasons[kNormal], both in the table.
  t.push_back({"churn_abnormal",
               [](const R& r) {
                 return static_cast<double>(r.churn.abnormal());
               },
               nullptr});
  add("churn_app_timeouts",
      [](auto& r) -> auto& { return r.churn.app_timeouts; });
  add("churn_bytes", [](auto& r) -> auto& { return r.churn.bytes_completed; });
  hash("churn_hash", &R::churn_hash);
  add("churn_all_closed", &R::churn_all_closed);
  add("recovery_forced", &R::recovery_forced);
  add("recovery_rescued", &R::recovery_rescued);
  add("recovery_spurious", &R::recovery_spurious);
  add("sim_events", &R::sim_events);
  add("sim_batches", &R::sim_batches);
  add("sim_max_batch", &R::sim_max_batch);
  add("sim_cohort_hits", &R::sim_cohort_hits);
  add("sim_dead_dropped", &R::sim_dead_dropped);
  add("sim_compactions", &R::sim_compactions);
  // Per-size-bucket FCT tails: count + nearest-rank p50/p99/p99.9 in µs.
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    const std::string p = std::string("churn_fct_") + kFctBucketNames[b] + "_";
    add(p + "count",
        [b](auto& r) -> auto& { return r.churn_fct_bucket[b].count; });
    add(p + "p50_us",
        [b](auto& r) -> auto& { return r.churn_fct_bucket[b].p50_us; });
    add(p + "p99_us",
        [b](auto& r) -> auto& { return r.churn_fct_bucket[b].p99_us; });
    add(p + "p999_us",
        [b](auto& r) -> auto& { return r.churn_fct_bucket[b].p999_us; });
  }
  // Convergence-oracle verdicts + schedule-perturbation accounting.
  add("stability_converged", &R::stability_converged);
  add("stability_oscillating", &R::stability_oscillating);
  add("stability_starved", &R::stability_starved);
  add("stability_insufficient", &R::stability_insufficient);
  add("stability_worst_amplitude", &R::stability_worst_amplitude);
  add("stability_worst_period_us", &R::stability_worst_period_us);
  add("schedule_changes", &R::schedule_changes);
  add("restart_holds", &R::restart_holds);
  add("tdn_reconfigs", &R::tdn_reconfigs);
  // Sender-side close-reason histogram, one entry per CloseReason.
  for (std::size_t i = 0; i < kNumCloseReasons; ++i) {
    const auto reason = static_cast<CloseReason>(i);
    add("churn_reason_" + SnakeCase(CloseReasonName(reason)),
        [i](auto& r) -> auto& { return r.churn.reasons[i]; });
  }
  return t;
}

}  // namespace

MetricStats ComputeStats(const std::vector<double>& values) {
  MetricStats s;
  s.n = values.size();
  if (s.n == 0) return s;
  double sum = 0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  if (s.n < 2) return s;
  double sq = 0;
  for (double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(sq / static_cast<double>(s.n - 1));
  s.ci95 = TCritical95(s.n - 1) * s.stddev /
           std::sqrt(static_cast<double>(s.n));
  return s;
}

const std::vector<MetricDef>& MetricTable() {
  static const std::vector<MetricDef> table = BuildMetricTable();
  return table;
}

std::vector<std::pair<std::string, double>> ScalarMetrics(
    const ExperimentResult& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const MetricDef& m : MetricTable()) out.emplace_back(m.name, m.get(r));
  return out;
}

std::vector<std::pair<std::string, MetricStats>> AggregateRuns(
    const std::vector<SweepRun>& runs) {
  std::vector<std::pair<std::string, MetricStats>> out;
  if (runs.empty()) return out;
  std::vector<double> values(runs.size());
  for (const MetricDef& m : MetricTable()) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      values[i] = m.get(runs[i].result);
    }
    out.emplace_back(m.name, ComputeStats(values));
  }
  return out;
}

std::vector<SweepCase> ExpandGrid(const SweepSpec& spec) {
  const std::vector<Variant> variants =
      spec.variants.empty() ? std::vector<Variant>{spec.base.workload.variant}
                            : spec.variants;
  const std::vector<std::uint64_t> seeds =
      spec.seeds.empty() ? std::vector<std::uint64_t>{spec.base.seed}
                         : spec.seeds;
  const std::vector<SimTime> durations =
      spec.durations.empty() ? std::vector<SimTime>{spec.base.duration}
                             : spec.durations;
  const std::vector<SchedulePoint> schedules =
      spec.schedules.empty()
          ? std::vector<SchedulePoint>{{"", spec.base.schedule}}
          : spec.schedules;
  const std::vector<QdiscPoint> qdiscs =
      spec.qdiscs.empty()
          ? std::vector<QdiscPoint>{{"", spec.base.topology.voq}}
          : spec.qdiscs;

  std::vector<SweepCase> cases;
  cases.reserve(variants.size() * schedules.size() * qdiscs.size() *
                durations.size() * seeds.size());
  for (Variant v : variants) {
    for (const SchedulePoint& sp : schedules) {
      for (const QdiscPoint& qp : qdiscs) {
        for (SimTime d : durations) {
          for (std::uint64_t seed : seeds) {
            SweepCase c;
            c.label = VariantName(v);
            if (!sp.label.empty()) c.label += "/" + sp.label;
            if (!qp.label.empty()) c.label += "/" + qp.label;
            c.schedule_label = sp.label;
            c.qdisc_label = qp.label;
            c.config = spec.base;
            // Qdisc before variant: the variant's queue knobs (DCTCP's ECN
            // threshold) then compose on top of the chosen discipline.
            c.config.WithQdiscConfig(qp.qdisc)
                .WithVariant(v)
                .WithSchedule(sp.schedule)
                .WithDuration(d)
                .WithSeed(seed);
            cases.push_back(std::move(c));
          }
        }
      }
    }
  }
  return cases;
}

std::vector<ExperimentResult> RunCases(const std::vector<SweepCase>& cases,
                                       int jobs) {
  std::vector<ExperimentResult> results(cases.size());
  ParallelFor(jobs, cases.size(), [&](std::size_t i) {
    results[i] = RunExperiment(cases[i].config);
  });
  return results;
}

std::vector<SweepCell> GroupCells(const std::vector<SweepCase>& cases,
                                  std::vector<ExperimentResult> results,
                                  std::size_t seeds_per_cell) {
  std::vector<SweepCell> cells;
  for (std::size_t i = 0; i < cases.size(); i += seeds_per_cell) {
    SweepCell cell;
    cell.label = cases[i].label;
    cell.variant = cases[i].config.workload.variant;
    cell.duration = cases[i].config.duration;
    // Axis labels travel on the case itself — no label-string surgery.
    cell.schedule_label = cases[i].schedule_label;
    cell.qdisc_label = cases[i].qdisc_label;
    for (std::size_t k = 0; k < seeds_per_cell; ++k) {
      cell.runs.push_back(
          SweepRun{cases[i + k].config.seed, std::move(results[i + k])});
    }
    cell.metrics = AggregateRuns(cell.runs);
    cells.push_back(std::move(cell));
  }
  return cells;
}

SweepResult RunSweep(const SweepSpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepCase> cases = ExpandGrid(spec);
  const std::size_t seeds_per_cell =
      spec.seeds.empty() ? 1 : spec.seeds.size();

  SweepResult out;
  out.jobs = ResolveJobs(spec.jobs);
  out.cells = GroupCells(cases, RunCases(cases, spec.jobs), seeds_per_cell);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace tdtcp
