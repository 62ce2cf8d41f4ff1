#!/usr/bin/env python3
"""Same-session A/B of the simulator benchmark: base commit vs this checkout.

    tools/perfbench_ab.py --base HEAD~1 --pairs 10 --seconds 30 \\
        --workload rotor_churn --seed 7
    tools/perfbench_ab.py --base-dir ../parent --rebaseline --pairs 10

Checks the base revision out into a temporary `git worktree` (or, with
`--base-dir`, uses a checkout that is already there), then runs
`python3 perfbench/run.py` of each tree (base first in even pairs, change
first in odd ones, so slow drift of the host favours neither side) and
prints, per workload and metric, the median and quartiles of both sides, the
relative change of the medians, how many pairs the change won, and whether
the medians differ by more than the base's interquartile range. It also
checks the workload fingerprint every run prints (churn_hash, bytes_acked,
retransmissions, sim_events, abnormal), on three lines: within the base's
runs, within the change's runs, and between base and change.

"This checkout" is the working tree as it is, uncommitted edits included:
pass `--base HEAD` to measure uncommitted work against its parent commit.
Each tree builds its own benchmark into its own .bench_build/ (the first run
of each side pays for a Release build of src/; a `--base-dir` tree that was
built before only relinks what changed). The worktree is removed on exit;
nothing in either tree's perfbench/ is touched.

`--trace 1` runs the traced per-layer pass instead (sim.events,
sim.events_per_s, ...); restrict the table with --metric.

Exit status: 0 when every run succeeded and the fingerprints agreed within
each side and between the sides, 1 otherwise, 2 on usage or set-up errors.
With `--rebaseline` (a change that moves the sample path on purpose) the
base/change line is expected to differ and does not fail the run; a
mismatch inside one side still does.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

FINGERPRINT = re.compile(r"^\w+ \d+: setup_s=\S+ run_s=\S+ (.*) leaked=\d+")


def fail(msg):
    print(f"perfbench_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(root, *args):
    done = subprocess.run(["git", "-C", root, *args], capture_output=True,
                          text=True)
    if done.returncode != 0:
        fail(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def run_bench(tree, workload, seed, seconds, trace):
    """One run of a tree's perfbench/run.py: (metrics dict, fingerprint)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        print(f"perfbench_ab: {tree}: {workload} failed "
              f"(exit {done.returncode})", file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed_share"] = result["failed"] / max(1, result["attempted"])
    fingerprint = next((m.group(1) for m in map(FINGERPRINT.match, lines)
                        if m), None)
    return metrics, fingerprint


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fingerprint_report(fingerprints, rebaseline):
    """Prints fingerprint agreement within base, within change and between
    them; returns False when a line that must agree does not."""
    def agree(fps):
        return len(fps) == 1 and None not in fps

    def listed(fps):
        return " | ".join(sorted(str(f) for f in fps))

    ok = True
    for side in ("base", "change"):
        same = agree(fingerprints[side])
        ok = ok and same
        print(f"  fingerprints within {side}: "
              f"{'equal' if same else 'DIFFER'}: {listed(fingerprints[side])}")
    between = fingerprints["base"] | fingerprints["change"]
    same = agree(between)
    expected = " (expected: --rebaseline)" if rebaseline and not same else ""
    ok = ok and (same or rebaseline)
    print(f"  fingerprints base vs change: "
          f"{'equal' if same else 'DIFFER'}{expected}")
    return ok


def report(workload, pairs, directions, wanted):
    names = [n for n in pairs[0][0] if not wanted or n in wanted]
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<24} {'base median [p25, p75]':>35} "
          f"{'change median [p25, p75]':>35} {'change':>8} {'wins':>6} "
          f"{'> base IQR':>10}")
    for name in names:
        base = [b[name] for b, _ in pairs]
        chg = [c[name] for _, c in pairs]
        lower = directions.get(name, "lower") == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, chg))
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(chg)
        rel = (c2 - b2) / b2 * 100 if b2 else 0.0
        beyond = "yes" if abs(c2 - b2) > (b3 - b1) else "no"
        print(f"  {name:<24} {b2:>12.6g} [{b1:>9.6g}, {b3:>9.6g}] "
              f"{c2:>12.6g} [{c1:>9.6g}, {c3:>9.6g}] {rel:>+7.1f}% "
              f"{wins:>3}/{len(pairs):<2} {beyond:>10}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = p.add_mutually_exclusive_group()
    base.add_argument("--base", default="HEAD~1",
                      help="revision to compare against (default HEAD~1)")
    base.add_argument("--base-dir",
                      help="an existing checkout to compare against, used "
                           "as it is instead of a fresh worktree of --base")
    p.add_argument("--rebaseline", action="store_true",
                   help="the change moves the fingerprint on purpose: a "
                        "base/change difference does not fail the run")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload in "
                        "BENCHMARK.json")
    p.add_argument("--metric", action="append",
                   help="repeatable; default: every metric the run prints")
    args = p.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    directions = {m["name"]: m["better"]
                  for m in bench["end_to_end"] + bench.get("per_layer", [])}
    directions["failed_share"] = "lower"
    scratch = None
    if args.base_dir:
        base_tree = os.path.abspath(args.base_dir)
        if not os.path.isfile(os.path.join(base_tree, "perfbench", "run.py")):
            fail(f"--base-dir {base_tree}: no perfbench/run.py there")
        base_name = base_tree
    else:
        base_rev = git(root, "rev-parse", "--verify", args.base + "^{commit}")
        scratch = tempfile.mkdtemp(prefix="perfbench_ab_")
        base_tree = os.path.join(scratch, "base")
        git(root, "worktree", "add", "--detach", base_tree, base_rev)
        base_name = base_rev[:12]
    ok = True
    try:
        print(f"base {base_name} vs change {root} (working tree); "
              f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        for workload in workloads:
            pairs = []
            fingerprints = {"base": set(), "change": set()}
            for i in range(args.pairs):
                order = [("base", base_tree), ("change", root)]
                if i % 2 == 1:
                    order.reverse()
                got = {}
                for side, tree in order:
                    metrics, fp = run_bench(tree, workload, args.seed,
                                            args.seconds, args.trace)
                    if metrics is None:
                        ok = False
                        break
                    got[side] = metrics
                    fingerprints[side].add(fp)
                if len(got) == 2:
                    pairs.append((got["base"], got["change"]))
                    note = "".join(f" {side} run_s {got[side]['run_s']:.4f}"
                                   for side in ("base", "change")
                                   if "run_s" in got[side])
                    print(f"  {workload} pair {i + 1}:{note or ' done'}",
                          file=sys.stderr)
            if not pairs:
                continue
            report(workload, pairs, directions, set(args.metric or []))
            ok = fingerprint_report(fingerprints, args.rebaseline) and ok
    finally:
        if scratch is not None:
            subprocess.run(["git", "-C", root, "worktree", "remove",
                            "--force", base_tree], capture_output=True)
            shutil.rmtree(scratch, ignore_errors=True)
            subprocess.run(["git", "-C", root, "worktree", "prune"],
                           capture_output=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
