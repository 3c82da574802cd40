#!/usr/bin/env python3
"""Assemble the bench report log into BENCH_<report>.json files.

Every bench driver appends its records to the one file named by
RAPID_REPORT_JSON, one JSON object per line, tagged with the report
it belongs to: {"report": "serve", "section": ..., ...}. sweepMain
adds a "sweeps" timing record ({"figure", "threads",
"wall_seconds"}) for every driver run. This script splits the log by
report and, for each report in SCHEMAS:

  * merges its records, keeping the last record per merge key so
    reruns overwrite stale points;
  * HARD-FAILS when the report has no records, when a required
    section is missing (the bench run that should have appended it
    never completed), or when a ledger boolean is false (an open
    ledger is a simulator bug, not a data point);
  * computes its summary (which may hard-fail on a headline that
    does not hold), writes BENCH_<report>.json with the "report"
    field dropped, and prints its summary table.

The five bench reports (serve, resilience, cluster, llm, overload)
are mandatory; sweeps is written when the log holds timing records.

Usage: assemble.py <raw-jsonl> [<out-dir>]
       assemble.py --self-test <report>
"""

import json
import os
import sys
import tempfile
from collections import namedtuple

# A serve ramp point past the knee sheds more than this fraction.
KNEE_SHED_FRACTION = 0.05

Schema = namedtuple("Schema", [
    "noun",      # the word in "no <noun> records found"
    "title",     # the stdout banner above the summary table
    "key",       # merge key: ("a|b", cast) per field; "a|b" falls
                 # back to b, then to cast() when neither is present
    "required",  # sections that must be present
    "ledgers",   # (boolean field, label): false means an open ledger
    "cell",      # record -> the cell name a failure message cites
    "summary",   # (path, records) -> (output field, summary); a None
                 # field writes the summary itself as the report
    "table",     # (summary) -> the stdout table lines
])


# --------------------------------------------------------------------
# Summaries and tables, one pair per report.
# --------------------------------------------------------------------

def sweeps_summary(path, records):
    """Each figure's speedup against its own single-thread run."""
    baselines = {r["figure"]: float(r["wall_seconds"])
                 for r in records if int(r["threads"]) == 1}
    merged = []
    for rec in records:
        secs = float(rec["wall_seconds"])
        entry = {"figure": rec["figure"], "threads": int(rec["threads"]),
                 "wall_seconds": secs}
        base = baselines.get(rec["figure"])
        if base is not None and secs > 0:
            entry["speedup_vs_1thread"] = base / secs
        merged.append(entry)
    return None, merged


def sweeps_table(merged):
    width = max(len(e["figure"]) for e in merged) + 2
    yield (f"{'figure':<{width}}{'threads':>8}{'seconds':>12}"
           f"{'speedup':>10}")
    for e in merged:
        speedup = e.get("speedup_vs_1thread")
        speedup_s = f"{speedup:.2f}x" if speedup is not None else "-"
        yield (f"{e['figure']:<{width}}{e['threads']:>8}"
               f"{e['wall_seconds']:>12.3f}{speedup_s:>10}")


def serve_summary(path, records):
    """The goodput knee of each (ramp section, policy): the highest
    offered load still served with under 5% shed."""
    knees = {}
    for rec in records:
        if not rec["section"].startswith("ramp_"):
            continue
        key = (rec["section"], rec["policy"])
        offered = float(rec["offered"])
        shed = float(rec["shed"]) / offered if offered > 0 else 0.0
        if shed <= KNEE_SHED_FRACTION:
            rps = float(rec["offered_rps"])
            if rps > knees.get(key, (0.0, None))[0]:
                knees[key] = (rps, float(rec["goodput_rps"]))
        else:
            knees.setdefault(key, (0.0, None))
    return "knees", [
        {"section": section, "policy": policy,
         "knee_offered_rps": offered, "knee_goodput_rps": goodput}
        for (section, policy), (offered, goodput) in sorted(knees.items())
    ]


def serve_table(knees):
    width = max((len(f"{k['section']}/{k['policy']}") for k in knees),
                default=8) + 2
    yield f"{'ramp/policy':<{width}}{'knee offered/s':>16}{'goodput/s':>12}"
    for k in knees:
        goodput = k["knee_goodput_rps"]
        goodput_s = f"{goodput:.0f}" if goodput is not None else "-"
        yield (f"{k['section'] + '/' + k['policy']:<{width}}"
               f"{k['knee_offered_rps']:>16.0f}{goodput_s:>12}")


def worse(entry, field, value):
    """Keep the minimum of @value in entry[field] (None = unset)."""
    if entry[field] is None or value < entry[field]:
        entry[field] = value


def by_policy(policies):
    return [{"policy": name, **entry}
            for name, entry in sorted(policies.items())]


def resilience_summary(path, records):
    """Per policy: the fault-free accuracy, the worst accuracy and
    work efficiency across nonzero fault rates, and the total
    recovery activity."""
    policies = {}
    for rec in records:
        if rec["section"] != "policy_grid":
            continue
        entry = policies.setdefault(rec["policy"], {
            "baseline_accuracy": None, "worst_accuracy": None,
            "worst_work_efficiency": None, "retries": 0,
            "rollbacks": 0, "escalations": 0, "skipped": 0,
        })
        if float(rec["rate"]) == 0.0:
            entry["baseline_accuracy"] = float(rec["accuracy"])
        else:
            worse(entry, "worst_accuracy", float(rec["accuracy"]))
            worse(entry, "worst_work_efficiency",
                  float(rec["work_efficiency"]))
        for field in ("retries", "rollbacks", "escalations", "skipped"):
            entry[field] += int(rec[field])
    return "policies", by_policy(policies)


def fmt3(value):
    return f"{value:.3f}" if value is not None else "-"


def resilience_table(policies):
    width = max((len(p["policy"]) for p in policies), default=8) + 2
    yield (f"{'policy':<{width}}{'clean acc':>10}{'worst acc':>10}"
           f"{'worst eff':>10}{'recoveries':>11}")
    for p in policies:
        recoveries = p["retries"] + p["rollbacks"] + p["escalations"]
        yield (f"{p['policy']:<{width}}{fmt3(p['baseline_accuracy']):>10}"
               f"{fmt3(p['worst_accuracy']):>10}"
               f"{fmt3(p['worst_work_efficiency']):>10}{recoveries:>11}")


def cluster_summary(path, records):
    """Checks that failover-restore never loses a training tenant,
    then per policy over the kill grid: the worst goodput retained
    relative to the live-chip fraction of offered load."""
    lost = [r for r in records
            if r.get("training_enabled")
            and r["policy"] == "failover-restore"
            and r["chips_failed"] > 0 and not r.get("training_restored")]
    if lost:
        cells = ", ".join(f"{r['section']}@{r['failure_rate']}"
                          for r in lost)
        raise SystemExit(
            f"{path}: training tenant lost without restore in: {cells}")
    policies = {}
    for rec in records:
        if rec["section"] != "policy_grid":
            continue
        entry = policies.setdefault(rec["policy"], {
            "cells": 0, "worst_goodput_vs_live": None, "failed": 0,
            "failed_over": 0, "retries": 0,
        })
        entry["cells"] += 1
        for field in ("failed", "failed_over", "retries"):
            entry[field] += int(rec[field])
        live_rps = float(rec["offered_rps"]) * float(rec["live_fraction"])
        if live_rps > 0:
            worse(entry, "worst_goodput_vs_live",
                  float(rec["goodput_rps"]) / live_rps)
    return "policies", by_policy(policies)


def cluster_table(policies):
    width = max((len(p["policy"]) for p in policies), default=8) + 2
    yield (f"{'policy':<{width}}{'cells':>6}{'worst vs live':>14}"
           f"{'failed':>8}{'failed-over':>12}{'retries':>8}")
    for p in policies:
        yield (f"{p['policy']:<{width}}{p['cells']:>6}"
               f"{fmt3(p['worst_goodput_vs_live']):>14}{p['failed']:>8}"
               f"{p['failed_over']:>12}{p['retries']:>8}")


def llm_summary(path, records):
    """Per batching policy over the ramp: peak goodput and token
    rate, and the worst decode occupancy (live members per charged
    batch slot)."""
    policies = {}
    for rec in records:
        if rec["section"] != "batching_ramp":
            continue
        entry = policies.setdefault(rec["label"].split("@")[0], {
            "points": 0, "peak_goodput_rps": 0.0,
            "worst_occupancy": None, "tokens_per_s_peak": 0.0,
        })
        entry["points"] += 1
        entry["peak_goodput_rps"] = max(entry["peak_goodput_rps"],
                                        float(rec["goodput_rps"]))
        entry["tokens_per_s_peak"] = max(entry["tokens_per_s_peak"],
                                         float(rec["tokens_per_s"]))
        batch = float(rec["mean_decode_batch"])
        if batch > 0:
            worse(entry, "worst_occupancy",
                  float(rec["mean_decode_live"]) / batch)
    return "batching", by_policy(policies)


def llm_table(policies):
    width = max((len(p["policy"]) for p in policies), default=8) + 2
    yield (f"{'policy':<{width}}{'points':>7}{'peak goodput':>14}"
           f"{'peak tok/s':>12}{'worst occupancy':>16}")
    for p in policies:
        yield (f"{p['policy']:<{width}}{p['points']:>7}"
               f"{p['peak_goodput_rps']:>14.1f}"
               f"{p['tokens_per_s_peak']:>12.1f}"
               f"{fmt3(p['worst_occupancy']):>16}")


def knee_headline(path, records):
    """At the knee (highest offered load of the knee section) the
    calibrated tier must recover >= half of the bound's shed with no
    additional SLA violations."""
    by_offered = {}
    for rec in records:
        if rec["section"] == "knee":
            by_offered.setdefault(float(rec["offered_rps"]), {})[
                rec["policy"]] = rec
    if not by_offered:
        return None
    knee = by_offered[max(by_offered)]
    if "bound" not in knee or "calibrated" not in knee:
        raise SystemExit(
            f"{path}: knee section lacks a bound/calibrated pair")
    bound, cal = knee["bound"], knee["calibrated"]
    shed_b, shed_c = int(bound["shed"]), int(cal["shed"])
    viol_b, viol_c = int(bound["violations"]), int(cal["violations"])
    recovery = (shed_b - shed_c) / shed_b if shed_b > 0 else 0.0
    if recovery < 0.5:
        raise SystemExit(
            f"{path}: knee recovery {recovery:.1%} < 50% "
            f"(bound shed {shed_b}, calibrated shed {shed_c})")
    if viol_c > viol_b:
        raise SystemExit(
            f"{path}: calibrated tier added SLA violations at the "
            f"knee ({viol_b} -> {viol_c})")
    return {"knee_offered_rps": float(bound["offered_rps"]),
            "bound_shed": shed_b, "calibrated_shed": shed_c,
            "recovery": recovery, "bound_violations": viol_b,
            "calibrated_violations": viol_c}


def fuse_headline(path, records):
    """The fused run trips at least once and does not violate more
    than the no-fuse contrast."""
    cells = {r["policy"]: r for r in records if r["section"] == "fuse"}
    if not cells:
        return None
    nofuse = cells.get("calibrated-nofuse")
    fused = cells.get("calibrated-fuse")
    if nofuse is None or fused is None:
        raise SystemExit(f"{path}: fuse section lacks a fuse/nofuse pair")
    if int(fused["fuse_trips"]) < 1:
        raise SystemExit(f"{path}: the trust fuse never tripped")
    if int(fused["violations"]) > int(nofuse["violations"]):
        raise SystemExit(
            f"{path}: the fuse made violations worse "
            f"({nofuse['violations']} -> {fused['violations']})")
    return {"violations_nofuse": int(nofuse["violations"]),
            "violations_fuse": int(fused["violations"]),
            "fuse_trips": int(fused["fuse_trips"])}


def budget_headline(path, records):
    """Retry budgets deny some retries, account every denial as a
    shed, and retry strictly less than the no-budget storm."""
    storm = budget = None
    for rec in records:
        if rec["section"] == "retry_storm":
            storm = rec
        elif rec["section"] == "retry_budget":
            budget = rec
    if storm is None and budget is None:
        return None
    if storm is None or budget is None:
        raise SystemExit(
            f"{path}: retry budget demo lacks its storm contrast")
    if int(budget["retries_denied"]) < 1:
        raise SystemExit(f"{path}: the retry budget denied nothing")
    if int(budget["shed_budget"]) < 1:
        raise SystemExit(
            f"{path}: denied retries were not converted to sheds")
    if int(budget["retries"]) >= int(storm["retries"]):
        raise SystemExit(
            f"{path}: budget did not bound retries "
            f"({storm['retries']} -> {budget['retries']})")
    return {"storm_retries": int(storm["retries"]),
            "budget_retries": int(budget["retries"]),
            "retries_denied": int(budget["retries_denied"]),
            "shed_budget": int(budget["shed_budget"])}


def overload_summary(path, records):
    """The three headlines; each hard-fails when it does not hold."""
    headlines = {}
    for name, fn in (("knee", knee_headline), ("fuse", fuse_headline),
                     ("retry_budget", budget_headline)):
        head = fn(path, records)
        if head is not None:
            headlines[name] = head
    return "headlines", headlines


def overload_table(headlines):
    if "knee" in headlines:
        h = headlines["knee"]
        yield (f"knee: calibrated recovers {h['recovery']:.1%} of the "
               f"bound's shed ({h['bound_shed']} -> "
               f"{h['calibrated_shed']}), violations "
               f"{h['bound_violations']} -> {h['calibrated_violations']}")
    if "fuse" in headlines:
        h = headlines["fuse"]
        yield (f"fuse: {h['violations_nofuse']} violations -> "
               f"{h['violations_fuse']} with {h['fuse_trips']} trip(s)")
    if "retry_budget" in headlines:
        h = headlines["retry_budget"]
        yield (f"budget: retries {h['storm_retries']} -> "
               f"{h['budget_retries']}, {h['retries_denied']} denied, "
               f"{h['shed_budget']} accounted as shed")


# --------------------------------------------------------------------
# The schemas: every report's contract, as data.
# --------------------------------------------------------------------

SCHEMAS = {
    "sweeps": Schema(
        noun="sweep", title="per-figure sweep timing",
        key=(("figure", str), ("threads", int)),
        required=(), ledgers=(), cell=None,
        summary=sweeps_summary, table=sweeps_table),
    "serve": Schema(
        noun="serve", title="serving goodput knees",
        key=(("section", str), ("policy", str), ("offered_rps", float)),
        required=("ramp_healthy", "ramp_degraded", "multi_tenant",
                  "fault_tails"),
        ledgers=(("tier_closed", "per-tier admission"),),
        cell=lambda r: f"{r['section']}/{r['policy']}@{r['offered_rps']}",
        summary=serve_summary, table=serve_table),
    "resilience": Schema(
        noun="resilience", title="resilience policy summary",
        key=(("section", str), ("rate", float), ("policy", str)),
        required=("policy_grid",),
        ledgers=(("closed", "recovery"),),
        cell=lambda r: f"{r['policy']}@{r['rate']}",
        summary=resilience_summary, table=resilience_table),
    "cluster": Schema(
        noun="cluster", title="fleet failover summary",
        key=(("section", str), ("policy", str), ("num_chips", int),
             ("failure_rate", float)),
        required=("equivalence", "policy_grid", "anatomy",
                  "training_reference", "training_failover"),
        ledgers=(("closed", "request"),),
        cell=lambda r: f"{r['section']}/{r['policy']}@{r['failure_rate']}",
        summary=cluster_summary, table=cluster_table),
    "llm": Schema(
        noun="llm", title="transformer serving summary",
        key=(("section", str), ("label", str)),
        required=("batching_ramp", "spill_cliff"),
        ledgers=(("request_accounting_closed", "request"),
                 ("token_accounting_closed", "token")),
        cell=lambda r: f"{r['section']}/{r['label']}",
        summary=llm_summary, table=llm_table),
    "overload": Schema(
        noun="overload", title="overload control summary",
        key=(("section", str), ("policy|label", str),
             ("offered_rps|offered", float)),
        required=("knee", "fuse", "brownout", "breaker", "retry_storm",
                  "retry_budget", "llm_tpot"),
        ledgers=(("tier_closed", "per-tier admission"),
                 ("closed", "fleet ledger"),
                 ("request_accounting_closed", "llm request"),
                 ("token_accounting_closed", "llm token")),
        cell=lambda r: (f"{r['section']}/"
                        f"{r.get('policy', r.get('label', '?'))}"),
        summary=overload_summary, table=overload_table),
}
MANDATORY = ("serve", "resilience", "cluster", "llm", "overload")


# --------------------------------------------------------------------
# The one pipeline every report runs through.
# --------------------------------------------------------------------

def load_log(path):
    """Split the report log into {report: [records]}, in file order,
    with the "report" tag dropped from each record."""
    reports = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SystemExit(f"{path}:{line_no}: bad record: {exc}")
            name = rec.pop("report", None)
            if name not in SCHEMAS:
                raise SystemExit(
                    f"{path}:{line_no}: unknown report {name!r}")
            reports.setdefault(name, []).append(rec)
    return reports


def merge_key(schema, rec):
    key = []
    for names, cast in schema.key:
        present = [n for n in names.split("|") if n in rec]
        if present:
            key.append(cast(rec[present[0]]))
        elif "|" in names:
            key.append(cast())
        else:
            key.append(cast(rec[names]))  # KeyError names the field
    return tuple(key)


def assemble_report(name, path, records, out_path, required=None):
    """Merge, check, summarize and write one report. @required
    overrides the schema's required sections. Returns the merged
    records and the object written to @out_path."""
    schema = SCHEMAS[name]
    if not records:
        raise SystemExit(f"{path}: no {schema.noun} records found")
    merged = {}
    for rec in records:
        merged[merge_key(schema, rec)] = rec
    records = [merged[k] for k in sorted(merged)]

    present = {rec.get("section") for rec in records}
    required = schema.required if required is None else required
    missing = [s for s in required if s not in present]
    if missing:
        raise SystemExit(
            f"{path}: missing {name} sections: " + ", ".join(missing)
            + " (the bench run that should have appended them never "
            "completed)")
    for flag, label in schema.ledgers:
        bad = [r for r in records if flag in r and not r[flag]]
        if bad:
            cells = ", ".join(schema.cell(r) for r in bad)
            raise SystemExit(
                f"{path}: open {label} accounting in cells: {cells}")

    field, summary = schema.summary(path, records)
    out = summary
    if field is not None:
        sections = {}
        for rec in records:
            sections.setdefault(rec["section"], []).append(rec)
        out = {"sections": sections, field: summary}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")

    for line in schema.table(summary):
        print(line)
    counts = f"{len(records)} records"
    if field is not None:
        counts += f", {len(out['sections'])} sections"
    print(f"\nwrote {out_path} ({counts})")
    return records, out


def assemble(raw_path, out_dir=""):
    reports = load_log(raw_path)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for name in SCHEMAS:
        if name not in MANDATORY and name not in reports:
            continue
        print(f"\n===== {SCHEMAS[name].title}")
        assemble_report(name, raw_path, reports.get(name, []),
                        os.path.join(out_dir, f"BENCH_{name}.json"))


def main(argv):
    args = argv[1:]
    if len(args) == 2 and args[0] == "--self-test":
        if args[1] not in SELF_TESTS:
            raise SystemExit("--self-test needs one of: "
                             + ", ".join(SELF_TESTS))
        with tempfile.TemporaryDirectory() as tmp:
            SELF_TESTS[args[1]](tmp)
        print(f"assemble.py {args[1]} self-test passed")
        return 0
    if len(args) not in (1, 2) or args[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    assemble(*args)
    return 0


# --------------------------------------------------------------------
# Self-tests: fixture logs per report; every guarded failure mode
# must hard-fail naming the offense.
# --------------------------------------------------------------------

def run_fixture(tmp, name, records, required=None):
    """Write @records as a tagged report log, assemble report @name
    from it, and return (merged records, written object)."""
    raw = os.path.join(tmp, "raw.jsonl")
    out = os.path.join(tmp, "out.json")
    with open(raw, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"report": name, **rec}) + "\n")
    return assemble_report(name, raw, load_log(raw).get(name, []), out,
                           required=required)


def expect_fail(tmp, name, records, needles, what, required=()):
    try:
        run_fixture(tmp, name, records, required)
    except SystemExit as exc:
        for needle in needles:
            assert needle in str(exc), exc
        return str(exc)
    raise SystemExit(f"self-test: {what} did not fail")


def test_sweeps(tmp):
    fixture = [
        {"figure": "fig_a", "threads": 1, "wall_seconds": 2.0},
        {"figure": "fig_a", "threads": 4, "wall_seconds": 0.5},
        {"figure": "fig_b", "threads": 4, "wall_seconds": 1.0},
    ]
    _, merged = run_fixture(tmp, "sweeps", fixture)
    assert len(merged) == 3, merged
    by_key = {(e["figure"], e["threads"]): e for e in merged}
    speedup = by_key[("fig_a", 4)]["speedup_vs_1thread"]
    assert abs(speedup - 4.0) < 1e-9, speedup

    # A driver that died before appending a section: the real
    # overload schema names the absent section and only that one.
    log = [r for r in overload_fixture() if r["section"] != "fuse"]
    message = expect_fail(tmp, "overload", log, ["fuse"],
                          "a missing required section", required=None)
    assert "knee" not in message.split(":")[-1], message

    expect_fail(tmp, "sweeps", [], ["no sweep records"], "empty input")


def serve_record(section, policy, offered_rps, **extra):
    offered = int(offered_rps)
    rec = {
        "section": section, "policy": policy,
        "offered_rps": float(offered_rps),
        "goodput_rps": float(offered_rps) * 0.95,
        "offered": offered, "completed": offered, "shed": 0,
        "failed": 0, "violations": 0, "admitted_calibrated": 0,
        "admitted_bound": offered, "shed_admission": 0,
        "shed_brownout": 0, "fuse_trips": 0, "breaker_opens": 0,
        "breaker_closes": 0, "brownout_max_level": 0,
        "tier_closed": True,
    }
    rec.update(extra)
    return rec


def test_serve(tmp):
    good = [
        serve_record("ramp_web", "int4", 1000.0),
        serve_record("ramp_web", "int4", 2000.0, shed=40,
                     completed=1960, admitted_bound=1960),
        serve_record("ramp_web", "int4", 3000.0, shed=600,
                     completed=2400, admitted_bound=2400),
        serve_record("multi_tenant", "ladder", 2500.0),
    ]
    records, out = run_fixture(tmp, "serve", good,
                               required=("ramp_web", "multi_tenant"))
    assert len(records) == 4, records
    assert set(out["sections"]) == {"ramp_web", "multi_tenant"}
    assert all("report" not in r for r in records), records
    # 2000/s sheds 2% (under the 5% knee), 3000/s sheds 20%.
    knee = {(k["section"], k["policy"]): k for k in out["knees"]}
    assert knee[("ramp_web", "int4")]["knee_offered_rps"] == 2000.0
    assert knee[("ramp_web", "int4")]["knee_goodput_rps"] == 1900.0

    expect_fail(tmp, "serve", good, ["missing serve sections: ramp_bert"],
                "missing section", required=("ramp_web", "ramp_bert"))
    expect_fail(tmp, "serve", good + [serve_record(
        "multi_tenant", "brownout", 2500.0, tier_closed=False)],
        ["open per-tier admission", "brownout"], "open accounting")
    expect_fail(tmp, "serve", [], ["no serve records"], "empty input")


def test_resilience(tmp):
    def cell(policy, rate, accuracy, efficiency, **extra):
        rec = {
            "section": "policy_grid", "rate": rate, "policy": policy,
            "accuracy": accuracy, "work_efficiency": efficiency,
            "steps": 60, "clean": 55, "retried": 5, "rolled_back": 0,
            "escalated": 0, "skipped": 0, "retries": 5,
            "rollbacks": 0, "escalations": 0, "checkpoints": 6,
            "replayed": 0, "closed": True, "injected": 7, "sdc": 2,
            "final_precision": "hfp8",
        }
        rec.update(extra)
        return rec

    good = [
        cell("blind", 0.0, 0.95, 1.0, retries=0, retried=0, clean=60),
        cell("blind", 0.01, 0.5, 1.0, retries=0, retried=0, clean=60),
        cell("full-ladder", 0.0, 0.95, 1.0),
        cell("full-ladder", 0.01, 0.9, 0.8),
        cell("full-ladder", 0.05, 0.85, 0.9),
    ]
    _, out = run_fixture(tmp, "resilience", good)
    policies = {p["policy"]: p for p in out["policies"]}
    ladder = policies["full-ladder"]
    assert ladder["baseline_accuracy"] == 0.95, ladder
    assert ladder["worst_accuracy"] == 0.85, ladder
    assert ladder["worst_work_efficiency"] == 0.8, ladder
    assert ladder["retries"] == 15, ladder
    assert policies["blind"]["worst_accuracy"] == 0.5, policies

    expect_fail(tmp, "resilience",
                good + [cell("retry", 0.05, 0.9, 0.9, closed=False)],
                ["open recovery accounting", "retry@0.05"],
                "open recovery accounting")
    expect_fail(tmp, "resilience", [], ["no resilience records"],
                "empty input")


def cluster_record(section, policy, closed=True, **extra):
    rec = {
        "section": section, "policy": policy, "num_chips": 6,
        "failure_rate": 0.5, "offered": 100, "completed": 90,
        "shed": 4, "failed": 6, "failed_over": 10, "retries": 12,
        "goodput_rps": 900.0, "offered_rps": 1200.0,
        "live_fraction": 0.8, "chips_failed": 2, "chips_degraded": 0,
        "closed": closed, "training_enabled": False,
        "training_restored": False, "training_lost_steps": 0,
    }
    rec.update(extra)
    return rec


def test_cluster(tmp):
    good = [
        cluster_record("policy_grid", "no-failover"),
        cluster_record("policy_grid", "failover-restore", failed=0,
                       completed=96, goodput_rps=950.0),
        cluster_record("anatomy", "failover-restore",
                       training_enabled=True, chips_failed=1,
                       training_restored=True, training_lost_steps=9),
    ]
    records, out = run_fixture(tmp, "cluster", good, required=())
    assert len(records) == 3, records
    assert set(out["sections"]) == {"policy_grid", "anatomy"}, out
    policies = {p["policy"]: p for p in out["policies"]}
    worst = policies["failover-restore"]["worst_goodput_vs_live"]
    assert abs(worst - 950.0 / (1200.0 * 0.8)) < 1e-9, worst

    expect_fail(tmp, "cluster", good + [
        cluster_record("policy_grid", "drain-only", closed=False)],
        ["open request accounting", "drain-only"], "open accounting")
    expect_fail(tmp, "cluster", [cluster_record(
        "training_failed", "failover-restore", training_enabled=True,
        chips_failed=1, training_restored=False)],
        ["lost without restore"], "lost training")
    expect_fail(tmp, "cluster", [], ["no cluster records"], "empty input")


def llm_record(section, label, **extra):
    rec = {
        "section": section, "label": label, "offered": 100,
        "completed": 95, "shed": 5, "sla_met": 90,
        "ttft_violations": 3, "tpot_violations": 2,
        "planned_tokens": 6400, "generated_tokens": 6080,
        "dropped_tokens": 320, "request_accounting_closed": True,
        "token_accounting_closed": True, "goodput_rps": 180.0,
        "tokens_per_s": 12160.0, "ttft_p95_ms": 12.5,
        "tpot_p95_ms": 0.4, "mean_decode_live": 6.5,
        "mean_decode_batch": 7.2, "spill_ms": 0.0,
        "energy_per_token_mj": 0.02,
    }
    rec.update(extra)
    return rec


def test_llm(tmp):
    good = [
        llm_record("batching_ramp", "one-shot@400", goodput_rps=160.0,
                   mean_decode_live=3.0, mean_decode_batch=7.5),
        llm_record("batching_ramp", "continuous@400", goodput_rps=390.0),
        llm_record("spill_cliff", "fp16-kv@ctx512", spill_ms=13.2),
    ]
    records, out = run_fixture(tmp, "llm", good)
    assert len(records) == 3, records
    assert set(out["sections"]) == {"batching_ramp", "spill_cliff"}, out
    policies = {p["policy"]: p for p in out["batching"]}
    assert policies["one-shot"]["peak_goodput_rps"] == 160.0
    assert abs(policies["one-shot"]["worst_occupancy"] -
               3.0 / 7.5) < 1e-9, policies

    expect_fail(tmp, "llm", good + [llm_record(
        "batching_ramp", "one-shot@800",
        request_accounting_closed=False)],
        ["open request accounting", "one-shot@800"], "open requests")
    expect_fail(tmp, "llm", [llm_record(
        "spill_cliff", "int4-kv@ctx256", token_accounting_closed=False)],
        ["open token accounting", "int4-kv@ctx256"], "open tokens")
    expect_fail(tmp, "llm", [], ["no llm records"], "empty input")


def overload_serve(section, policy, **extra):
    rec = {
        "section": section, "policy": policy, "offered_rps": 2000.0,
        "goodput_rps": 1800.0, "offered": 2000, "completed": 1800,
        "shed": 200, "failed": 0, "violations": 0,
        "admitted_calibrated": 0, "admitted_bound": 1800,
        "shed_admission": 200, "shed_brownout": 0, "fuse_trips": 0,
        "breaker_opens": 0, "breaker_closes": 0,
        "brownout_max_level": 0, "tier_closed": True,
    }
    rec.update(extra)
    return rec


def overload_cluster(section, **extra):
    rec = {
        "section": section, "policy": "failover-restore",
        "num_chips": 4, "failure_rate": 0.0, "offered": 1000,
        "completed": 980, "shed": 0, "failed": 20, "failed_over": 50,
        "shed_budget": 0, "retries_denied": 0, "retries": 100,
        "closed": True,
    }
    rec.update(extra)
    return rec


def overload_llm(label, **extra):
    rec = {
        "section": "llm_tpot", "label": label, "offered": 80,
        "completed": 60, "shed": 20, "tpot_violations": 0,
        "admitted_calibrated": 0, "admitted_bound": 60,
        "fuse_trips": 0, "tier_closed": True,
        "request_accounting_closed": True,
        "token_accounting_closed": True,
    }
    rec.update(extra)
    return rec


def overload_fixture():
    return [
        overload_serve("knee", "bound", offered_rps=1000.0, shed=100),
        overload_serve("knee", "calibrated", offered_rps=1000.0,
                       shed=60, admitted_calibrated=1500,
                       admitted_bound=440, completed=1940),
        overload_serve("knee", "bound", offered_rps=2000.0, shed=300),
        overload_serve("knee", "calibrated", offered_rps=2000.0,
                       shed=20, admitted_calibrated=1700,
                       admitted_bound=280, completed=1980),
        overload_serve("fuse", "calibrated-nofuse", violations=200),
        overload_serve("fuse", "calibrated-fuse", violations=50,
                       fuse_trips=1),
        overload_cluster("retry_storm", retries=500),
        overload_cluster("retry_budget", retries=420,
                         retries_denied=80, shed_budget=80,
                         completed=900),
        overload_llm("bound"),
        overload_llm("calibrated", completed=75, shed=5,
                     admitted_calibrated=70, admitted_bound=5),
    ]


def test_overload(tmp):
    records, out = run_fixture(tmp, "overload", overload_fixture(),
                               required=("knee", "fuse", "retry_budget"))
    headlines = out["headlines"]
    assert len(records) == 10, records
    assert set(headlines) == {"knee", "fuse", "retry_budget"}
    # The knee is the highest offered point: 300 -> 20 shed.
    assert abs(headlines["knee"]["recovery"] - 280 / 300) < 1e-9
    assert headlines["fuse"]["fuse_trips"] == 1
    assert headlines["retry_budget"]["budget_retries"] == 420

    expect_fail(tmp, "overload", overload_fixture(),
                ["missing overload sections: brownout"],
                "missing section", required=("knee", "brownout"))

    # Each failure mode, one mutation at a time.
    for index, rec, needle in (
        (1, overload_serve("knee", "calibrated", offered_rps=1000.0,
                           tier_closed=False), "open per-tier admission"),
        (3, overload_serve("knee", "calibrated", offered_rps=2000.0,
                           shed=200), "knee recovery"),
        (3, overload_serve("knee", "calibrated", offered_rps=2000.0,
                           shed=20, violations=5), "added SLA violations"),
        (5, overload_serve("fuse", "calibrated-fuse", violations=50,
                           fuse_trips=0), "never tripped"),
        (5, overload_serve("fuse", "calibrated-fuse", violations=300,
                           fuse_trips=1), "violations worse"),
        (7, overload_cluster("retry_budget", retries=500,
                             retries_denied=80, shed_budget=80),
         "did not bound retries"),
        (7, overload_cluster("retry_budget", retries=420,
                             retries_denied=0, shed_budget=0),
         "denied nothing"),
        (8, overload_llm("bound", request_accounting_closed=False),
         "open llm request"),
        (7, overload_cluster("retry_budget", retries=420,
                             retries_denied=80, shed_budget=80,
                             closed=False), "open fleet ledger"),
    ):
        bad = overload_fixture()
        bad[index] = rec
        expect_fail(tmp, "overload", bad, [needle], needle)

    expect_fail(tmp, "overload", [], ["no overload records"],
                "empty input")


SELF_TESTS = {
    "sweeps": test_sweeps, "serve": test_serve,
    "resilience": test_resilience, "cluster": test_cluster,
    "llm": test_llm, "overload": test_overload,
}

if __name__ == "__main__":
    sys.exit(main(sys.argv))
