#!/usr/bin/env python3
"""Measure a change against its parent commit in alternating perfbench
pairs, and append the result as one row of BENCH_perf.json.

Run from the repository root:

    python3 scripts/ab_pairs.py --pr N --workload chip_model serving \\
        --pairs 10 --scratch /tmp/ab --seed 7

The change (--change, default HEAD) and its parent (--parent, default
the change's first parent) are each exported with `git archive` into
<scratch>; an archive, unlike a worktree, leaves the repository's own
metadata untouched and needs only local history, and every row names
the two commits it can be reproduced from. Each side builds once
through perfbench/run.py into its own build directory under <scratch>.
Then, per workload, the pairs run one process at a time for the run
length BENCHMARK.json sets (`run_seconds`), the side that goes first
alternating, so slow drift on the host hits both sides alike.
perfbench caps its pool at min(4, nproc) threads. A run that reports
`correct: false` or exits non-zero aborts the measurement.

For every end-to-end metric BENCHMARK.json declares, the row holds each
side's median and interquartile range, the ratio of the medians (change
over parent) and the number of pairs the change won, in the metric's
better direction. Rows compare a parent with its change on one host:
their ratios are meaningful, their absolute rates are not comparable
across rows.

    python3 scripts/ab_pairs.py --check BENCH_perf.json

validates every row and exits 1 on the first bad one: fewer than 6
pairs, a missing parent, or a ratio that disagrees with its medians.
Every new row is validated the same way before it is written.

A run whose two sides are one commit (--change REV --parent REV) is a
control: it measures the host's noise, not a change, and its row says
so with `"control": true`. --check rejects a control row whose sides
differ and an unmarked row whose sides are one commit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 6
# The run that builds each side; its result is discarded.
BUILD_RUN_SECONDS = 1
SCHEMA = ("One row per change: alternating perfbench pairs of the change "
          "and its parent on one host. Compare ratios across rows, never "
          "absolute rates: hosts differ between rows.")


def fail(msg):
    print("ab_pairs: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, dest):
    """The tree of @p rev, extracted into @p dest (made fresh)."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        fail("git archive %s failed" % rev)


def run_side(tree, build_dir, workload, seed, seconds):
    """One perfbench run of @p tree: its JSON result (last stdout
    line). Builds on the first call."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench failed in %s:\n%s" % (tree, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result.get("correct"):
        fail("perfbench in %s reported an incorrect run" % tree)
    return result


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def summarize(metrics, parent_runs, change_runs):
    """Per metric: medians, IQRs, ratio and wins over the pairs."""
    out = {}
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        higher = m["better"] == "higher"
        wins = sum((cv > pv) if higher else (cv < pv)
                   for pv, cv in zip(p, c))
        p_lo, p_hi = quartiles(p)
        c_lo, c_hi = quartiles(c)
        p_med, c_med = statistics.median(p), statistics.median(c)
        out[name] = {
            "unit": m["unit"], "better": m["better"],
            "parent_median": p_med, "parent_iqr": p_hi - p_lo,
            "change_median": c_med, "change_iqr": c_hi - c_lo,
            "ratio": c_med / p_med if p_med else None,
            "wins": wins,
        }
    return out


def check_row(row):
    """Why @p row is bad, or None."""
    if not row.get("parent"):
        return "no parent commit"
    if bool(row.get("control")) != (row["parent"] == row.get("change")):
        return ("a control row must compare one commit with itself, and "
                "only a control row may")
    if int(row.get("pairs", 0)) < MIN_PAIRS:
        return "%s pairs, need at least %d" % (row.get("pairs"), MIN_PAIRS)
    for name, m in row.get("metrics", {}).items():
        p, c, ratio = m["parent_median"], m["change_median"], m["ratio"]
        want = c / p if p else None
        if (want is None) != (ratio is None) or (
                want is not None and
                abs(ratio - want) > 1e-9 * max(1.0, abs(want))):
            return "%s ratio %r disagrees with its medians (%r / %r)" % (
                name, ratio, c, p)
        if not 0 <= int(m["wins"]) <= int(row["pairs"]):
            return "%s wins %r outside [0, pairs]" % (name, m["wins"])
    return None


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    for i, row in enumerate(doc.get("rows", [])):
        why = check_row(row)
        if why:
            fail("%s row %d (pr %s): %s" % (path, i, row.get("pr"), why))
    print("ab_pairs: %s: %d row(s) ok" % (path, len(doc.get("rows", []))))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--check", metavar="FILE",
                        help="validate every row of FILE and exit")
    parser.add_argument("--pr", type=int, help="the change's PR number")
    parser.add_argument("--parent", help="parent revision")
    parser.add_argument("--change", default="HEAD",
                        help="change revision (default: HEAD)")
    parser.add_argument("--workload", nargs="+", default=["chip_model"],
                        help="workloads, one row each")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--scratch", help="directory for the exported "
                        "trees and build directories")
    parser.add_argument("--out", default=os.path.join(ROOT,
                                                      "BENCH_perf.json"))
    args = parser.parse_args(argv)
    if args.check:
        check_file(args.check)
        return 0
    if args.pr is None or not args.scratch:
        parser.error("--pr and --scratch are required")
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)

    scratch = os.path.abspath(args.scratch)
    change_rev = git("rev-parse", args.change)
    parent_rev = git("rev-parse", args.parent or change_rev + "~1")
    sides = {}
    for side, rev in (("parent", parent_rev), ("change", change_rev)):
        tree = os.path.join(scratch, side)
        export(rev, tree)
        sides[side] = (tree, os.path.join(scratch, "build-" + side))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]

    for tree, build in sides.values():
        run_side(tree, build, args.workload[0], args.seed,
                 BUILD_RUN_SECONDS)
    doc = {"schema": SCHEMA, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            for side in order:
                runs[side].append(run_side(*sides[side], workload,
                                           args.seed, seconds))
            print("ab_pairs: %s pair %d/%d done"
                  % (workload, i + 1, args.pairs), file=sys.stderr)
        row = {
            "pr": args.pr, "parent": parent_rev, "change": change_rev,
            "host": host(), "workload": workload, "seed": args.seed,
            "seconds": seconds, "pairs": args.pairs,
            "metrics": summarize(metrics, runs["parent"], runs["change"]),
        }
        if parent_rev == change_rev:
            row["control"] = True
        why = check_row(row)
        if why:
            fail("new row: " + why)
        doc["rows"].append(row)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("ab_pairs: %s" % workload)
        for name, m in row["metrics"].items():
            print("%-14s parent %-12.6g (IQR %-10.4g) change %-12.6g "
                  "(IQR %-10.4g) ratio %.3f wins %d/%d"
                  % (name, m["parent_median"], m["parent_iqr"],
                     m["change_median"], m["change_iqr"], m["ratio"] or 0,
                     m["wins"], args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
