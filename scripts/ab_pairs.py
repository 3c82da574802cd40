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
differ and an unmarked row whose sides are one commit. With
--layout-pad N the control's second side also carries an unreferenced
function of N volatile stores (about 10 bytes of code each) in a
translation unit the workload links but never runs (LAYOUT_PAD_TU), so
the row measures what code placement alone does to the workload.

Every metric of a row records the change-over-parent ratio of each
pair (`pair_ratios`). The control spread of a workload and metric is
the range of 1 and of every ratio and pair ratio its control rows
hold. A change row judges each metric against the control rows above
it: `control_spread` is that range (null with no control row), and the
metric is `resolved` when its ratio lies outside the spread and at
least 80% of the pairs agree with its direction (8 of 10 won for a
gain, 8 of 10 lost for a loss). --check recomputes both.

    python3 scripts/ab_pairs.py --pr N --driver resilience_sweep \
        --driver-args=--threads,1 --pairs 10 --scratch /tmp/ab

times a bench driver instead: each side builds the driver from its
tree with the root CMake project, and each pair runs it once per side,
alternating, for one `wall_s` metric. Its rows and controls are keyed
by the driver and its arguments instead of a workload.

    python3 scripts/ab_pairs.py --self-test

proves on made-up rows that --check rejects every rule above.
"""

import argparse
import copy
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 6
# A resolved metric's direction holds in at least this share of pairs.
RESOLVED_SHARE = 0.8
# Per workload, a translation unit perfbench links (another workload
# runs it) that this workload never runs: where --layout-pad goes.
LAYOUT_PAD_TU = {
    "train_lowprec": "src/serve/server_sim.cc",
    "serving": "src/func/trainer.cc",
    "chip_model": "src/func/trainer.cc",
}
WALL_METRIC = {"name": "wall_s", "unit": "s", "better": "lower"}
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


def pad_layout(tree, path, stores):
    """Append to @p path in @p tree an unreferenced function of
    @p stores volatile stores."""
    body = "".join("    rapid_layout_pad_sink = %du;\n" % i
                   for i in range(stores))
    with open(os.path.join(tree, path), "a") as f:
        f.write("\n// Layout control: never called.\n"
                "volatile unsigned rapid_layout_pad_sink;\n"
                "void rapidLayoutPad();\n"
                "void\nrapidLayoutPad()\n{\n" + body + "}\n")


def build_driver(tree, build_dir, driver):
    """The bench driver @p driver built from @p tree's root project."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", tree, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", driver])
    for cmd in steps:
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            fail("building %s in %s failed:\n%s"
                 % (driver, tree, done.stderr[-2000:]))
    return os.path.join(build_dir, "bench", driver)


def run_driver(binary, args):
    """One run of a bench driver: its wall time, as a result row."""
    start = time.perf_counter()
    done = subprocess.run([binary, *args], capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        fail("%s failed:\n%s" % (binary, done.stderr[-2000:]))
    return {"metrics": {"wall_s": {"value": wall}}}


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
            "pair_ratios": [round(cv / pv, 4) if pv else None
                            for pv, cv in zip(p, c)],
        }
    return out


def subject(row):
    """What @p row measured: its workload, or its driver and args."""
    if "driver" in row:
        return "driver %s %s" % (row["driver"], " ".join(row["args"]))
    return row.get("workload")


def control_spread(rows, what, name):
    """[lo, hi]: 1 and every ratio and pair ratio of @p name in the
    control rows of @p rows that measured @p what; None without one."""
    values = [1.0]
    for row in rows:
        if row.get("control") and subject(row) == what:
            m = row["metrics"].get(name, {})
            values += [r for r in [m.get("ratio")] +
                       m.get("pair_ratios", []) if r is not None]
    return [min(values), max(values)] if len(values) > 1 else None


def resolved(m, spread, pairs):
    """Whether metric @p m lies outside @p spread with at least
    RESOLVED_SHARE of the @p pairs agreeing with its direction."""
    ratio = m["ratio"]
    if spread is None or ratio is None or spread[0] <= ratio <= spread[1]:
        return False
    need = math.ceil(RESOLVED_SHARE * pairs)
    gain = (ratio > 1) == (m["better"] == "higher")
    return m["wins"] >= need if gain else pairs - m["wins"] >= need


def judge(row, earlier):
    """Set each metric's control spread and resolved flag in the change
    row @p row against the control rows in @p earlier."""
    for name, m in row["metrics"].items():
        m["control_spread"] = control_spread(earlier, subject(row), name)
        m["resolved"] = resolved(m, m["control_spread"], row["pairs"])


def check_row(row, earlier=()):
    """Why @p row is bad, or None; @p earlier are the rows above it."""
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
        if "pair_ratios" in m and len(m["pair_ratios"]) != row["pairs"]:
            return "%s has %d pair ratios for %d pairs" % (
                name, len(m["pair_ratios"]), row["pairs"])
        if row.get("control") or "pair_ratios" not in m:
            continue  # a control, or a row from before the flags
        spread = control_spread(earlier, subject(row), name)
        if m.get("control_spread") != spread:
            return "%s control_spread %r, the controls above give %r" % (
                name, m.get("control_spread"), spread)
        if m.get("resolved") != resolved(m, spread, int(row["pairs"])):
            return "%s resolved %r disagrees with its spread and wins" % (
                name, m.get("resolved"))
    return None


def check_file(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows", [])
    for i, row in enumerate(rows):
        why = check_row(row, rows[:i])
        if why:
            fail("%s row %d (pr %s): %s" % (path, i, row.get("pr"), why))
    print("ab_pairs: %s: %d row(s) ok" % (path, len(rows)))


def self_test():
    """check_row() accepts a made-up control and change row and
    rejects each broken copy of them."""
    def metric(ratios, wins):
        return {"unit": "1/s", "better": "higher", "parent_median": 1.0,
                "parent_iqr": 0.0, "change_median": ratios[0],
                "change_iqr": 0.0, "ratio": ratios[0], "wins": wins,
                "pair_ratios": ratios[1:]}
    pairs = 10
    control = {"pr": 0, "parent": "a", "change": "a", "control": True,
               "workload": "w", "pairs": pairs,
               "metrics": {"rate": metric([1.0] + [0.97, 1.03] * 5, 5)}}
    change = {"pr": 0, "parent": "a", "change": "b", "workload": "w",
              "pairs": pairs,
              "metrics": {"rate": metric([1.2] + [1.2] * 9 + [0.9], 9)}}
    judge(change, [control])
    ok = change["metrics"]["rate"]
    assert ok["control_spread"] == [0.97, 1.03] and ok["resolved"], ok
    assert check_row(control) is None and check_row(change, [control]) is None
    broken = []
    for edit in (lambda r: r["metrics"]["rate"].update(resolved=False),
                 lambda r: r["metrics"]["rate"].update(control_spread=None),
                 lambda r: r["metrics"]["rate"].update(ratio=1.1),
                 lambda r: r["metrics"]["rate"]["pair_ratios"].pop(),
                 lambda r: r.update(control=True),
                 lambda r: r.update(pairs=5)):
        row = copy.deepcopy(change)
        edit(row)
        broken.append(check_row(row, [control]))
    assert all(broken), broken
    # Inside the spread, or with too few pairs agreeing: not resolved.
    for ratios, wins in (([1.02] * 11, 10), ([1.2] * 11, 7)):
        row = dict(change, metrics={"rate": metric(ratios, wins)})
        judge(row, [control])
        assert not row["metrics"]["rate"]["resolved"], row
    # A loss the pairs agree on is resolved; no control, nothing is.
    row = dict(change, metrics={"rate": metric([0.8] * 11, 1)})
    judge(row, [control])
    assert row["metrics"]["rate"]["resolved"]
    judge(row, [])
    assert row["metrics"]["rate"] == dict(
        metric([0.8] * 11, 1), control_spread=None, resolved=False)
    print("ab_pairs: self-test ok")


def measure_workloads(args, sides):
    """One row per workload of perfbench pairs; yields each row."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    for workload in args.workload:
        trees = dict(sides)
        if args.layout_pad:
            tree, build = sides["change"]
            tree += "-" + workload
            export(args.change_rev, tree)
            pad_layout(tree, LAYOUT_PAD_TU[workload], args.layout_pad)
            trees["change"] = (tree, build + "-" + workload)
        for tree, build in trees.values():
            run_side(tree, build, workload, args.seed, BUILD_RUN_SECONDS)
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            for side in order:
                runs[side].append(run_side(*trees[side], workload,
                                           args.seed, seconds))
            print("ab_pairs: %s pair %d/%d done"
                  % (workload, i + 1, args.pairs), file=sys.stderr)
        row = {"workload": workload, "seed": args.seed, "seconds": seconds,
               "metrics": summarize(metrics, runs["parent"],
                                    runs["change"])}
        if args.layout_pad:
            row["layout_pad"] = {"file": LAYOUT_PAD_TU[workload],
                                 "stores": args.layout_pad}
        yield row


def measure_driver(args, sides):
    """One row of alternating wall-time pairs of a bench driver."""
    binaries = {side: build_driver(tree, build + "-drivers", args.driver)
                for side, (tree, build) in sides.items()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = (("parent", "change") if i % 2 == 0
                 else ("change", "parent"))
        for side in order:
            runs[side].append(run_driver(binaries[side], args.driver_args))
    yield {"driver": args.driver, "args": args.driver_args,
           "metrics": summarize([WALL_METRIC], runs["parent"],
                                runs["change"])}


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--check", metavar="FILE",
                        help="validate every row of FILE and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="prove --check's rules on made-up rows")
    parser.add_argument("--pr", type=int, help="the change's PR number")
    parser.add_argument("--parent", help="parent revision")
    parser.add_argument("--change", default="HEAD",
                        help="change revision (default: HEAD)")
    parser.add_argument("--workload", nargs="+", default=["chip_model"],
                        help="workloads, one row each")
    parser.add_argument("--layout-pad", type=int, metavar="N",
                        help="control only: pad the second side's layout "
                        "with N volatile stores")
    parser.add_argument("--driver", help="time this bench driver instead "
                        "of perfbench workloads")
    parser.add_argument("--driver-args", type=lambda v: v.split(","),
                        default=[], metavar="A,B,...",
                        help="the driver's arguments, comma-separated")
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
    if args.self_test:
        self_test()
        return 0
    if args.pr is None or not args.scratch:
        parser.error("--pr and --scratch are required")
    if args.pairs < MIN_PAIRS:
        parser.error("--pairs must be at least %d" % MIN_PAIRS)

    scratch = os.path.abspath(args.scratch)
    args.change_rev = git("rev-parse", args.change)
    parent_rev = git("rev-parse", args.parent or args.change_rev + "~1")
    if args.layout_pad and (parent_rev != args.change_rev or args.driver):
        parser.error("--layout-pad makes a perfbench control: give one "
                     "commit as --change and --parent")
    sides = {}
    for side, rev in (("parent", parent_rev), ("change", args.change_rev)):
        tree = os.path.join(scratch, side)
        export(rev, tree)
        sides[side] = (tree, os.path.join(scratch, "build-" + side))
    doc = {"schema": SCHEMA, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    rows = (measure_driver(args, sides) if args.driver
            else measure_workloads(args, sides))
    for measured in rows:
        row = {"pr": args.pr, "parent": parent_rev,
               "change": args.change_rev, "host": host(),
               "pairs": args.pairs, **measured}
        if parent_rev == args.change_rev:
            row["control"] = True
        else:
            judge(row, doc["rows"])
        why = check_row(row, doc["rows"])
        if why:
            fail("new row: " + why)
        doc["rows"].append(row)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("ab_pairs: %s" % subject(row))
        for name, m in row["metrics"].items():
            print("%-14s parent %-12.6g (IQR %-10.4g) change %-12.6g "
                  "(IQR %-10.4g) ratio %.3f wins %d/%d%s"
                  % (name, m["parent_median"], m["parent_iqr"],
                     m["change_median"], m["change_iqr"], m["ratio"] or 0,
                     m["wins"], args.pairs,
                     " resolved" if m.get("resolved") else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
