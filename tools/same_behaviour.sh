#!/usr/bin/env bash
# Same-behaviour check between two builds of this repository.
#
# Usage: tools/same_behaviour.sh PARENT_BUILD CHANGE_BUILD
#
# Each argument is a CMake build directory (the one holding bench/ and
# tests/). Both trees run the same deterministic workloads, each in its own
# scratch directory (the benches write their figure CSVs into the current
# directory), and the outputs are compared:
#
#   scaleout    bench_scaleout --lifecycles=10000 --racks=8 --jobs=2
#               --check-bit-identity: per-cell (churn_hash, trace_hash)
#   scaleout perturbed
#               bench_scaleout --lifecycles=10000 --schedule-jitter=5
#               --day-skew=0.2: the same hashes under a perturbed rotor
#   stability perturbed
#               bench_stability --schedule-jitter=3 --day-skew=0.2: the
#               tdtcp-bench/1 counters of every cell (the perturbed pair)
#   headline    bench_headline_table --jobs=4 --seeds=3: the CSVs
#   fig10       bench_fig10_reordering: every CSV
#   fig11       bench_fig11_notification: the CSVs
#   incast      bench_incast: the tdtcp-bench/1 counters of every run
#   shortflows  bench_shortflows: the tdtcp-bench/1 counters of every run
#   fairness    bench_fairness: the tdtcp-bench/1 counters of every run
#   fault_sweep bench_fault_sweep: stdout
#   pinned      Mptcp.WireDigestIsPinned and Soak.DeliveryMultisetIsPinned
#               pass on both trees (their digests are constants), and so
#               do the two Fixture.*ReplaysFromDisk tests (each tree loads
#               and replays the checked-in tdtcp-trace/1 fixtures)
#
# Figure CSVs are compared with cmp. The sweep's out.csv is compared
# without its sim_* event-core columns, and those columns get a line of
# their own ("LABEL sim_* columns"): a change that only moves the event
# count leaves every figure equal and differs there alone. The JSON files
# are compared by their counters, never byte for byte: a sweep JSON carries
# wall_seconds. so_sweep.csv is not compared either: its sim_cohort_hits,
# sim_dead_dropped and sim_compactions columns count how the event queue
# stored events, which an event-core change may move without moving any
# event.
#
# Prints "equal" or "DIFFER" per check and exits 1 on any DIFFER (2 on a
# usage error). Scratch output stays in the printed directory; set
# SAME_BEHAVIOUR_DIR to choose it.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_build=$(cd "$1" && pwd)
change_build=$(cd "$2" && pwd)
work=${SAME_BEHAVIOUR_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/same_behaviour.XXXXXX")}
mkdir -p "$work"
echo "scratch: $work"

status=0
report() {  # report NAME OK?
  if [ "$2" = 0 ]; then
    printf 'equal   %s\n' "$1"
  else
    printf 'DIFFER  %s\n' "$1"
    status=1
  fi
}

# run_bench LABEL BINARY ARGS...: runs BINARY from both builds, each in
# $work/<side>/LABEL, with the token @OUT in ARGS replaced by <that dir>/out.
# Keeps stdout, stderr and the exit code there.
run_bench() {
  local label=$1 bin=$2
  shift 2
  local side build dir args a
  for side in parent change; do
    if [ "$side" = parent ]; then build=$parent_build; else build=$change_build; fi
    dir=$work/$side/$label
    mkdir -p "$dir"
    args=()
    for a in "$@"; do args+=("${a//@OUT/$dir/out}"); done
    (cd "$dir" && "$build/bench/$bin" "${args[@]}" >stdout 2>stderr)
    echo $? >"$dir/exit"
  done
}

# cmp_columns MODE A B: compares two CSVs column by column; MODE figure
# drops the sim_* columns, MODE sim keeps only them.
cmp_columns() {
  python3 - "$@" <<'EOF'
import csv, sys
mode, a, b = sys.argv[1:]
def load(path):
    rows = list(csv.reader(open(path)))
    keep = [i for i, name in enumerate(rows[0])
            if name.startswith("sim_") == (mode == "sim")]
    return [[r[i] for i in keep] for r in rows]
try:
    sys.exit(0 if load(a) == load(b) else 1)
except (OSError, IndexError) as e:
    print(f"  {e}", file=sys.stderr)
    sys.exit(1)
EOF
}

# Every CSV in the parent's LABEL dir must exist and match in the change's
# (out.csv without its sim_* columns).
cmp_csvs() {
  local label=$1 f ok=0 n=0
  for f in "$work/parent/$label"/*.csv; do
    [ -e "$f" ] || { ok=1; break; }
    n=$((n + 1))
    if [ "${f##*/}" = out.csv ]; then
      cmp_columns figure "$f" "$work/change/$label/out.csv" || ok=1
    else
      cmp -s "$f" "$work/change/$label/${f##*/}" || ok=1
    fi
  done
  [ "$n" -gt 0 ] || ok=1
  cmp -s "$work/parent/$label/exit" "$work/change/$label/exit" || ok=1
  return $ok
}

# report_csvs LABEL: reports LABEL's CSVs, then out.csv's sim_* columns.
report_csvs() {
  local ok=0
  cmp_csvs "$1" || ok=1
  report "$1 csvs" $ok
  ok=0
  cmp_columns sim "$work/parent/$1/out.csv" "$work/change/$1/out.csv" || ok=1
  report "$1 sim_* columns" $ok
}

# Compares the "counters" of every run (by name) of two JSON files; with
# --hashes only churn_hash and trace_hash.
cmp_counters() {
  python3 - "$@" <<'EOF'
import json, sys
args = sys.argv[1:]
hashes_only = args[0] == "--hashes"
if hashes_only:
    args = args[1:]
def load(path):
    runs = json.load(open(path))["runs"]
    out = []
    for r in runs:
        c = r.get("counters", {})
        if hashes_only:
            c = {k: c.get(k) for k in ("churn_hash", "trace_hash")}
        out.append((r.get("name"), c))
    return out
try:
    sys.exit(0 if load(args[0]) == load(args[1]) else 1)
except (OSError, ValueError, KeyError) as e:
    print(f"  {e}", file=sys.stderr)
    sys.exit(1)
EOF
}

run_bench scaleout bench_scaleout --lifecycles=10000 --racks=8 --jobs=2 \
  --check-bit-identity --out=@OUT
ok=0
cmp_counters --hashes "$work/parent/scaleout/out.json" \
  "$work/change/scaleout/out.json" || ok=1
[ "$(cat "$work/change/scaleout/exit")" = 0 ] || ok=1
report "scaleout hashes" $ok

run_bench scaleout_perturbed bench_scaleout --lifecycles=10000 --jobs=2 \
  --schedule-jitter=5 --day-skew=0.2 --out=@OUT
ok=0
cmp_counters --hashes "$work/parent/scaleout_perturbed/out.json" \
  "$work/change/scaleout_perturbed/out.json" || ok=1
report "scaleout perturbed hashes" $ok

run_bench stability_perturbed bench_stability --jobs=2 --schedule-jitter=3 \
  --day-skew=0.2 --out=@OUT
ok=0
cmp_counters "$work/parent/stability_perturbed/out.json" \
  "$work/change/stability_perturbed/out.json" || ok=1
report "stability perturbed counters" $ok

run_bench headline bench_headline_table --jobs=4 --seeds=3 --out=@OUT
report_csvs headline

run_bench fig10 bench_fig10_reordering --out=@OUT
report_csvs fig10

run_bench fig11 bench_fig11_notification --out=@OUT
report_csvs fig11

for label in incast shortflows fairness; do
  run_bench $label bench_$label --out=@OUT
  ok=0
  cmp_counters "$work/parent/$label/out.json" "$work/change/$label/out.json" ||
    ok=1
  report "$label counters" $ok
done

run_bench fault_sweep bench_fault_sweep
ok=0
cmp -s "$work/parent/fault_sweep/stdout" "$work/change/fault_sweep/stdout" ||
  ok=1
cmp -s "$work/parent/fault_sweep/exit" "$work/change/fault_sweep/exit" || ok=1
report "fault_sweep stdout" $ok

# BINARY FILTER COUNT: COUNT tests must run and pass on each tree.
for t in "mptcp_test Mptcp.WireDigestIsPinned 1" \
         "net_test Soak.DeliveryMultisetIsPinned 1" \
         "tracepoint_test Fixture.*ReplaysFromDisk 2"; do
  read -r bin filter count <<<"$t"
  ok=0
  for side in parent change; do
    if [ "$side" = parent ]; then build=$parent_build; else build=$change_build; fi
    log=$work/$side/$bin.log
    mkdir -p "$work/$side"
    "$build/tests/$bin" --gtest_filter="$filter" >"$log" 2>&1 || ok=1
    grep -q "\[  PASSED  \] $count test" "$log" || ok=1
  done
  report "$filter" $ok
done

exit $status
