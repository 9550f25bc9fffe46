#!/usr/bin/env python3
"""Golden-result regression gate for the BENCH_*.json artifacts.

Compares a fresh bench capture against the checked-in goldens under
bench/results/ and separates three field classes:

  bit-exact   revenue, seeding cost, seed counts, theta, graph sizes and
              the matrix's RR-store byte counters — the determinism
              contract says these cannot drift for a fixed (scale, seed);
              any difference fails. A change that moves bytes on purpose
              re-captures the golden.
  tolerance   wall-clock seconds — gated on a slowdown RATIO (default 8x,
              --time-ratio), and only when both sides are above a noise
              floor; speedups never fail.
  annotate    hardware_concurrency, dataset provenance (file vs synthetic)
              — printed as notes, never fatal (goldens may come from a
              different host class than the run being checked).

BENCH_growth.json rows are matched by regime: their seed, revenue, theta
and growth counters are bit-exact, their seconds ratio-gated as above.

BENCH_table3.json's rows are matched by (dataset, h) and its budget_rows
by (budget_bytes, threads, failpoints): every byte, chunk, lookup and seed
field and the matches_unbudgeted / recovery_ok verdicts are bit-exact, and
elapsed_seconds only annotates. Table 3 captures at different scales are
not compared row by row (CI runs it at a smaller scale than the golden's).

BENCH_micro.json's sampling_kernel rows are matched by instance and
BENCH_fig5.json's sampler and end-to-end thread-sweep rows by thread
count: the sampled-set hash, the sampled store's hash and the end-to-end
seeds and revenue are bit-exact. Their times only annotate: these benches
time single-thread kernels and thread scaling, which a shared host moves
more than any ratio gate allows. Fig5 captures at different scales are
not compared row by row (CI runs it at a smaller scale than the golden's).

Independent of any golden, every fresh file's gate booleans must be true:
the determinism gates (top-level keys ending in "determinism_ok") and
BENCH_table3.json's peak_bounded_ok (every budgeted row's process peak
below the unbudgeted row's).

Usage:
  check_bench_regression.py --golden bench/results --fresh out_dir
  check_bench_regression.py --golden bench/results/BENCH_matrix.json \
      --fresh BENCH_matrix.json [--time-ratio 8] [--allow-missing]
  check_bench_regression.py --self-test

Directories are matched by file name; a file present in the golden dir but
absent from the fresh capture is a coverage regression (fails, unless
--allow-missing). Exit status: 0 pass, 1 regression, 2 usage error.
"""

import argparse
import json
import os
import sys

# Cell-level field classes for BENCH_matrix.json (schema_version 2). The
# byte counters are thread-count-invariant like the results: a store's
# footprint, what it spilled and the budget resolved from it are pure
# functions of the cell.
MATRIX_BIT_EXACT = (
    "revenue",
    "seeding_cost",
    "seeds",
    "theta",
    "nodes",
    "arcs",
    "topics",
    "effective_budget",
    "rr_bytes",
    "spilled_bytes",
    "memory_budget_bytes",
)
MATRIX_ANNOTATE = ("source",)
# Captures taken under different values of these knobs are not comparable
# cell-by-cell; refusing beats quietly diffing apples against oranges.
MATRIX_COMPAT = (
    "schema_version",
    "scale",
    "seed",
    "advertisers",
    "epsilon",
    "theta_cap",
    "csrm_window",
)
# Row-level bit-exact fields for BENCH_growth.json, rows keyed by regime.
GROWTH_BIT_EXACT = (
    "seeds",
    "revenue",
    "total_theta",
    "growth_events",
    "ads_growth_engaged",
    "ads_growth_idle",
    "idle_revisions",
    "theta_cap_hits",
    "pilots_converged",
)
# Row-level bit-exact fields for BENCH_micro.json's sampling_kernel rows,
# keyed by instance, and BENCH_fig5.json's thread-sweep rows, keyed by
# threads.
MICRO_KERNEL_BIT_EXACT = ("sets_hash",)
FIG5_SAMPLER_BIT_EXACT = ("store_hash",)
FIG5_E2E_BIT_EXACT = ("seeds", "revenue")
# Row-level bit-exact fields for BENCH_table3.json: its rows, keyed by
# (dataset, h), and its budget_rows, keyed by (budget_bytes, threads,
# failpoints). A faulted budget row carries the recovery counters in place
# of the byte and chunk fields; a field absent from both sides matches.
TABLE3_ROW_BIT_EXACT = ("carm_bytes", "csrm_bytes", "carm_seeds",
                        "csrm_seeds", "index_bytes")
TABLE3_BUDGET_BIT_EXACT = (
    "resident_final_bytes",
    "resident_peak_bytes",
    "spilled_bytes",
    "spill_chunks",
    "scan_reloads",
    "chunks_read",
    "chunks_skipped",
    "seeds",
    "matches_unbudgeted",
    "degradation_events",
    "recovered_sets",
    "spill_retries",
    "recovery_ok",
)
TIME_NOISE_FLOOR_SECONDS = 0.05


class Report:
    """Collects failures (fatal) and notes (informational)."""

    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)

    @property
    def ok(self):
        return not self.failures


def check_gate_booleans(name, fresh, report):
    """Every top-level gate boolean in a fresh capture must be true."""
    for key, value in fresh.items():
        gate = key.endswith("determinism_ok") or key == "peak_bounded_ok"
        if gate and value is not True:
            report.fail(f"{name}: gate boolean '{key}' is {value!r}, "
                        "expected true")


def check_compat(name, golden, fresh, keys, report):
    """False (and a failure) when the captures ran under different knobs."""
    for key in keys:
        if golden.get(key) != fresh.get(key):
            report.fail(
                f"{name}: incomparable captures: '{key}' differs "
                f"(golden {golden.get(key)!r}, fresh {fresh.get(key)!r}); "
                "re-capture the golden at the same settings")
            return False
    return True


def check_rows(name, kind, golden_rows, fresh_rows, bit_exact, report,
               time_ratio, allow_missing, time_fatal=True,
               time_field="seconds"):
    """Coverage, bit-exact fields and the time_field ratio gate of rows
    keyed by id (a note instead of a failure unless time_fatal); returns
    (id, golden row, fresh row) for every id in both."""
    for rid in golden_rows:
        if rid not in fresh_rows:
            msg = f"{name}: {kind} '{rid}' present in golden, missing fresh"
            if allow_missing:
                report.note(msg + " (allowed by --allow-missing)")
            else:
                report.fail(msg + " (coverage regression)")
    for rid in fresh_rows:
        if rid not in golden_rows:
            report.note(f"{name}: new {kind} '{rid}' not in golden "
                        "(refresh the golden to start gating it)")
    matched = []
    for rid, fresh_row in sorted(fresh_rows.items()):
        golden_row = golden_rows.get(rid)
        if golden_row is None:
            continue
        matched.append((rid, golden_row, fresh_row))
        for field in bit_exact:
            gv, fv = golden_row.get(field), fresh_row.get(field)
            if gv != fv:
                report.fail(f"{name}: {kind} '{rid}': bit-exact field "
                            f"'{field}' drifted: golden {gv!r} -> fresh "
                            f"{fv!r}")
        gs = golden_row.get(time_field) or 0.0
        fs = fresh_row.get(time_field) or 0.0
        if (gs > TIME_NOISE_FLOOR_SECONDS
                and fs > TIME_NOISE_FLOOR_SECONDS and fs > gs * time_ratio):
            (report.fail if time_fatal else report.note)(
                f"{name}: {kind} '{rid}': wall-clock regression: "
                f"{gs:.3f}s -> {fs:.3f}s exceeds the {time_ratio}x ratio "
                "gate")
    return matched


def check_matrix(name, golden, fresh, report, time_ratio, allow_missing):
    if not check_compat(name, golden, fresh, MATRIX_COMPAT, report):
        return
    if golden.get("hardware_concurrency") != fresh.get(
            "hardware_concurrency"):
        report.note(
            f"{name}: hardware_concurrency differs (golden "
            f"{golden.get('hardware_concurrency')}, fresh "
            f"{fresh.get('hardware_concurrency')}) — fine: bit-exact "
            "fields are thread-count-invariant by the determinism contract")

    golden_cells = {c["id"]: c for c in golden.get("cells", [])}
    fresh_cells = {c["id"]: c for c in fresh.get("cells", [])}
    for cid, fresh_cell in sorted(fresh_cells.items()):
        if fresh_cell.get("determinism_ok") is not True:
            report.fail(f"{name}: cell '{cid}': determinism_ok is "
                        f"{fresh_cell.get('determinism_ok')!r}")
    matched = check_rows(name, "cell", golden_cells, fresh_cells,
                         MATRIX_BIT_EXACT, report, time_ratio, allow_missing)
    for cid, golden_cell, fresh_cell in matched:
        for field in MATRIX_ANNOTATE:
            gv, fv = golden_cell.get(field), fresh_cell.get(field)
            if gv != fv:
                report.note(f"{name}: cell '{cid}': {field}: golden {gv!r} "
                            f"-> fresh {fv!r}")


def check_growth(name, golden, fresh, report, time_ratio, allow_missing):
    if not check_compat(name, golden, fresh, ("scale",), report):
        return
    if golden.get("default_regime_grows") != fresh.get(
            "default_regime_grows"):
        report.fail(f"{name}: 'default_regime_grows' drifted: golden "
                    f"{golden.get('default_regime_grows')!r} -> fresh "
                    f"{fresh.get('default_regime_grows')!r}")
    check_rows(name, "regime",
               {r["regime"]: r for r in golden.get("rows", [])},
               {r["regime"]: r for r in fresh.get("rows", [])},
               GROWTH_BIT_EXACT, report, time_ratio, allow_missing)


def keyed(doc, array, key):
    return {r[key]: r for r in doc.get(array, [])}


def check_micro(name, golden, fresh, report, time_ratio, allow_missing):
    check_rows(name, "sampling_kernel instance",
               keyed(golden, "sampling_kernel", "instance"),
               keyed(fresh, "sampling_kernel", "instance"),
               MICRO_KERNEL_BIT_EXACT, report, time_ratio, allow_missing,
               time_fatal=False)


def check_fig5(name, golden, fresh, report, time_ratio, allow_missing):
    if golden.get("scale") != fresh.get("scale"):
        report.note(f"{name}: captured at scale {fresh.get('scale')!r}, "
                    f"the golden at {golden.get('scale')!r}: rows not "
                    "compared")
        return
    for array, kind, bit_exact in (
            ("sampler_thread_sweep", "sampler threads", FIG5_SAMPLER_BIT_EXACT),
            ("e2e_thread_sweep", "e2e threads", FIG5_E2E_BIT_EXACT)):
        check_rows(name, kind, keyed(golden, array, "threads"),
                   keyed(fresh, array, "threads"), bit_exact, report,
                   time_ratio, allow_missing, time_fatal=False)


def table3_row_key(row):
    return f"{row['dataset']}/h{row['h']}"


def table3_budget_key(row):
    key = f"budget {row['budget_bytes']}/threads {row['threads']}"
    return key + (f"/{row['failpoints']}" if row.get("failpoints") else "")


def check_table3(name, golden, fresh, report, time_ratio, allow_missing):
    if golden.get("scale") != fresh.get("scale"):
        report.note(f"{name}: captured at scale {fresh.get('scale')!r}, "
                    f"the golden at {golden.get('scale')!r}: rows not "
                    "compared")
        return
    for array, kind, key, bit_exact in (
            ("rows", "row", table3_row_key, TABLE3_ROW_BIT_EXACT),
            ("budget_rows", "budget row", table3_budget_key,
             TABLE3_BUDGET_BIT_EXACT)):
        check_rows(name, kind,
                   {key(r): r for r in golden.get(array, [])},
                   {key(r): r for r in fresh.get(array, [])}, bit_exact,
                   report, time_ratio, allow_missing, time_fatal=False,
                   time_field="elapsed_seconds")


def check_file(name, golden, fresh, report, time_ratio, allow_missing):
    check_gate_booleans(name, fresh, report)
    kinds = (golden.get("bench"), fresh.get("bench"))
    if kinds == ("sweep_matrix", "sweep_matrix"):
        check_matrix(name, golden, fresh, report, time_ratio, allow_missing)
        return
    if kinds == ("growth_regimes", "growth_regimes"):
        check_growth(name, golden, fresh, report, time_ratio, allow_missing)
        return
    if kinds == ("micro_components", "micro_components"):
        check_micro(name, golden, fresh, report, time_ratio, allow_missing)
    elif kinds == ("fig5_scalability", "fig5_scalability"):
        check_fig5(name, golden, fresh, report, time_ratio, allow_missing)
    elif kinds == ("table3_memory", "table3_memory"):
        check_table3(name, golden, fresh, report, time_ratio, allow_missing)
    if golden.get("hardware_concurrency") is not None and golden.get(
            "hardware_concurrency") != fresh.get("hardware_concurrency"):
        report.note(f"{name}: hardware_concurrency differs (golden "
                    f"{golden.get('hardware_concurrency')}, fresh "
                    f"{fresh.get('hardware_concurrency')})")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def bench_files(directory):
    return sorted(f for f in os.listdir(directory)
                  if f.startswith("BENCH_") and f.endswith(".json"))


def run(golden_path, fresh_path, time_ratio, allow_missing):
    report = Report()
    if os.path.isdir(golden_path) != os.path.isdir(fresh_path):
        print("error: --golden and --fresh must both be files or both be "
              "directories", file=sys.stderr)
        return 2
    if os.path.isdir(golden_path):
        golden_names = bench_files(golden_path)
        fresh_names = set(bench_files(fresh_path))
        if not golden_names:
            print(f"error: no BENCH_*.json under {golden_path}",
                  file=sys.stderr)
            return 2
        for fname in golden_names:
            if fname not in fresh_names:
                msg = f"{fname}: golden exists but fresh capture is missing"
                if allow_missing:
                    report.note(msg + " (allowed by --allow-missing)")
                else:
                    report.fail(msg)
                continue
            check_file(fname, load(os.path.join(golden_path, fname)),
                       load(os.path.join(fresh_path, fname)), report,
                       time_ratio, allow_missing)
        for fname in sorted(fresh_names.difference(golden_names)):
            report.note(f"{fname}: fresh capture has no golden yet")
    else:
        check_file(os.path.basename(fresh_path), load(golden_path),
                   load(fresh_path), report, time_ratio, allow_missing)

    for note in report.notes:
        print(f"note: {note}")
    for failure in report.failures:
        print(f"FAIL: {failure}")
    if report.ok:
        print(f"bench regression check passed ({len(report.notes)} notes)")
        return 0
    print(f"bench regression check FAILED: {len(report.failures)} "
          f"failure(s), {len(report.notes)} note(s)")
    return 1


# ---------------------------------------------------------------------------
# Self-test: exercises every verdict class on synthetic captures in memory.

def _matrix_doc(**overrides):
    cell = {
        "id": "ds/wc/carm/b1500/m0/t1",
        "revenue": 123.5,
        "seeding_cost": 40.0,
        "seeds": 17,
        "theta": 8000,
        "nodes": 100,
        "arcs": 500,
        "topics": 1,
        "effective_budget": 30.0,
        "source": "synthetic:ba",
        "rr_bytes": 1000,
        "spilled_bytes": 0,
        "memory_budget_bytes": 0,
        "seconds": 1.0,
        "determinism_ok": True,
    }
    cell.update(overrides.pop("cell", {}))
    doc = {
        "bench": "sweep_matrix",
        "schema_version": 2,
        "scale": 0.04,
        "seed": 2017,
        "advertisers": 4,
        "epsilon": 0.3,
        "theta_cap": 30000,
        "csrm_window": 2000,
        "hardware_concurrency": 1,
        "determinism_ok": True,
        "cells": [cell],
    }
    doc.update(overrides)
    return doc


def _growth_doc(**overrides):
    rows = [
        {"regime": "weighted-cascade", "seconds": 0.04, "seeds": 18,
         "revenue": 22.94933333, "total_theta": 1200000, "growth_events": 3,
         "ads_growth_engaged": 2, "ads_growth_idle": 0, "idle_revisions": 3,
         "theta_cap_hits": 5, "pilots_converged": 0},
        {"regime": "uniform-p0.30", "seconds": 0.06, "seeds": 22,
         "revenue": 19.7751233, "total_theta": 1137125, "growth_events": 5,
         "ads_growth_engaged": 2, "ads_growth_idle": 0, "idle_revisions": 1,
         "theta_cap_hits": 2, "pilots_converged": 2},
    ]
    rows[-1].update(overrides.pop("row", {}))
    doc = {"bench": "growth_regimes", "scale": 1,
           "default_regime_grows": True, "rows": rows}
    doc.update(overrides)
    return doc


def _micro_doc(**overrides):
    rows = [
        {"instance": "wc-ba", "sets_hash": "0xf6891ca509c5e263",
         "coin_sets_per_s": 3965617.6, "speedup": 2.22},
        {"instance": "topic-mix", "sets_hash": "0x408dc4ad80d01a33",
         "coin_sets_per_s": 11241917.1, "speedup": 1.04},
    ]
    rows[-1].update(overrides.pop("row", {}))
    doc = {"bench": "micro_components", "hardware_concurrency": 4,
           "determinism_ok": True, "sampling_kernel": rows}
    doc.update(overrides)
    return doc


def _fig5_doc(**overrides):
    sampler = {"threads": 2, "seconds": 0.157, "sets_per_sec": 15323372.6,
               "store_hash": "0xc47bf60ee4b6c055"}
    e2e = {"threads": 2, "seconds": 0.252, "seeds": 50,
           "revenue": 407.4306667, "rr_bytes": 22974960}
    sampler.update(overrides.pop("sampler", {}))
    e2e.update(overrides.pop("e2e", {}))
    doc = {"bench": "fig5_scalability", "scale": 0.06,
           "hardware_concurrency": 4, "determinism_ok": True,
           "sampler_thread_sweep": [sampler], "e2e_thread_sweep": [e2e]}
    doc.update(overrides)
    return doc


def _table3_doc(**overrides):
    row = {"dataset": "com-dblp", "h": 1, "carm_bytes": 5638848,
           "csrm_bytes": 5865704, "carm_seeds": 2, "csrm_seeds": 11,
           "index_bytes": 4713768}
    budget = {"budget_bytes": 2961512, "threads": 0,
              "resident_final_bytes": 14638790,
              "resident_peak_bytes": 11250832, "spilled_bytes": 18454388,
              "spill_chunks": 60, "scan_reloads": 54, "chunks_read": 515,
              "chunks_skipped": 133, "seeds": 54,
              "matches_unbudgeted": True, "elapsed_seconds": 0.27,
              "solve_ratio_vs_unbudgeted": 1.31, "process_peak_mib": 31.9}
    faulted = {"budget_bytes": 1480756, "threads": 0,
               "failpoints": "spill.read.eio@every:1",
               "degradation_events": 105, "recovered_sets": 400000,
               "spill_retries": 0, "recovery_ok": True,
               "elapsed_seconds": 0.78, "process_peak_mib": 30.2}
    row.update(overrides.pop("row", {}))
    budget.update(overrides.pop("budget", {}))
    faulted.update(overrides.pop("faulted", {}))
    doc = {"bench": "table3_memory", "scale": 0.06,
           "repeat_determinism_ok": True, "peak_bounded_ok": True,
           "rows": [row], "budget_rows": [budget, faulted]}
    doc.update(overrides)
    return doc


def self_test():
    def verdict(golden, fresh, time_ratio=8.0, allow_missing=False):
        report = Report()
        check_file("t", golden, fresh, report, time_ratio, allow_missing)
        return report

    # Identical captures pass with no notes.
    r = verdict(_matrix_doc(), _matrix_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)

    # Bit-exact drift fails.
    r = verdict(_matrix_doc(), _matrix_doc(cell={"revenue": 123.6}))
    assert not r.ok and "revenue" in r.failures[0], r.failures

    # Wall-clock: slow fails past the ratio, fast only ever passes.
    r = verdict(_matrix_doc(), _matrix_doc(cell={"seconds": 9.0}))
    assert not r.ok and "wall-clock" in r.failures[0], r.failures
    r = verdict(_matrix_doc(), _matrix_doc(cell={"seconds": 0.2}))
    assert r.ok, r.failures

    # hardware_concurrency mismatch annotates, never fails.
    r = verdict(_matrix_doc(), _matrix_doc(hardware_concurrency=8))
    assert r.ok and any("hardware_concurrency" in n for n in r.notes), (
        r.failures, r.notes)

    # Annotate-class drift (provenance) notes, never fails.
    r = verdict(_matrix_doc(),
                _matrix_doc(cell={"source": "file:/data/x.txt"}))
    assert r.ok and len(r.notes) == 1, (r.failures, r.notes)

    # Byte counters are bit-exact: one byte of drift in any of them fails,
    # naming the field.
    for field, value in (("rr_bytes", 1001), ("spilled_bytes", 1),
                         ("memory_budget_bytes", 1)):
        r = verdict(_matrix_doc(), _matrix_doc(cell={field: value}))
        assert len(r.failures) == 1 and field in r.failures[0], r.failures

    # A false gate boolean fails even when the golden matches.
    bad = _matrix_doc(determinism_ok=False)
    bad["cells"][0]["determinism_ok"] = False
    r = verdict(_matrix_doc(determinism_ok=False,
                            cells=bad["cells"]), bad)
    assert not r.ok, r.failures

    # Incomparable captures (scale changed) fail up front.
    r = verdict(_matrix_doc(), _matrix_doc(scale=0.5))
    assert not r.ok and "incomparable" in r.failures[0], r.failures

    # Missing cell: coverage regression, unless --allow-missing.
    gone = _matrix_doc()
    gone["cells"] = []
    r = verdict(_matrix_doc(), gone)
    assert not r.ok and "coverage regression" in r.failures[0], r.failures
    r = verdict(_matrix_doc(), gone, allow_missing=True)
    assert r.ok, r.failures

    # New fresh cell is a note, not a failure.
    extra = _matrix_doc()
    extra["cells"].append(dict(extra["cells"][0],
                               id="ds/wc/carm/b1500/m0/t2"))
    r = verdict(_matrix_doc(), extra)
    assert r.ok and any("new cell" in n for n in r.notes), (r.failures,
                                                           r.notes)

    # Growth rows: an identical capture passes with no notes, and so does
    # a slower one within the ratio gate.
    r = verdict(_growth_doc(), _growth_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)
    r = verdict(_growth_doc(), _growth_doc(row={"seconds": 0.3}))
    assert r.ok and not r.notes, (r.failures, r.notes)

    # Any drift in a bit-exact growth field fails, naming the field.
    for field, value in (("revenue", 22.94933334), ("growth_events", 4),
                         ("pilots_converged", 1)):
        r = verdict(_growth_doc(), _growth_doc(row={field: value}))
        assert (len(r.failures) == 1 and "uniform-p0.30" in r.failures[0]
                and field in r.failures[0]), r.failures
    r = verdict(_growth_doc(), _growth_doc(default_regime_grows=False))
    assert not r.ok and "default_regime_grows" in r.failures[0], r.failures

    # A growth row past the wall-clock ratio fails.
    r = verdict(_growth_doc(), _growth_doc(row={"seconds": 9.0}))
    assert not r.ok and "wall-clock" in r.failures[0], r.failures

    # A missing regime is a coverage regression, unless --allow-missing.
    gone = _growth_doc()
    gone["rows"].pop()
    r = verdict(_growth_doc(), gone)
    assert not r.ok and "coverage regression" in r.failures[0], r.failures
    r = verdict(_growth_doc(), gone, allow_missing=True)
    assert r.ok, r.failures

    # Growth captures at another scale are incomparable.
    r = verdict(_growth_doc(), _growth_doc(scale=0.5))
    assert not r.ok and "incomparable" in r.failures[0], r.failures

    # Non-matrix bench file: only the gate booleans are checked.
    r = verdict({"bench": "fig5_scalability", "determinism_ok": True},
                {"bench": "fig5_scalability", "determinism_ok": True,
                 "e2e_determinism_ok": False})
    assert not r.ok and "e2e_determinism_ok" in r.failures[0], (
        r.failures)

    # Table 3: a budgeted row whose process peak reached the unbudgeted
    # row's fails the capture on its own, like a determinism gate.
    r = verdict(_table3_doc(), _table3_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)
    r = verdict(_table3_doc(), _table3_doc(peak_bounded_ok=False))
    assert (len(r.failures) == 1
            and "peak_bounded_ok" in r.failures[0]), r.failures

    # Table 3 rows: one byte of spill drift, a changed seed count or a
    # failed recovery fails, naming the field; a slower solve or another
    # process peak only annotates; another scale is not compared.
    for part, field, value in (("budget", "spilled_bytes", 18454389),
                               ("row", "csrm_seeds", 12),
                               ("row", "index_bytes", 4713769),
                               ("budget", "seeds", 53),
                               ("faulted", "recovery_ok", False)):
        r = verdict(_table3_doc(), _table3_doc(**{part: {field: value}}))
        assert len(r.failures) == 1 and field in r.failures[0], r.failures
    r = verdict(_table3_doc(), _table3_doc(budget={"elapsed_seconds": 9.0,
                                                   "process_peak_mib": 99}))
    assert r.ok and len(r.notes) == 1 and "wall-clock" in r.notes[0], (
        r.failures, r.notes)
    r = verdict(_table3_doc(), _table3_doc(scale=0.04,
                                           row={"csrm_seeds": 12}))
    assert r.ok and "not compared" in r.notes[0], (r.failures, r.notes)
    gone = _table3_doc()
    gone["budget_rows"].pop()
    r = verdict(_table3_doc(), gone)
    assert not r.ok and "coverage regression" in r.failures[0], r.failures

    # Micro sampling kernel: a changed set hash fails, naming the instance;
    # a changed rate passes silently; a missing instance is a coverage
    # regression.
    r = verdict(_micro_doc(), _micro_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)
    r = verdict(_micro_doc(), _micro_doc(row={"sets_hash": "0x1"}))
    assert (len(r.failures) == 1 and "topic-mix" in r.failures[0]
            and "sets_hash" in r.failures[0]), r.failures
    r = verdict(_micro_doc(), _micro_doc(row={"coin_sets_per_s": 1.0,
                                              "speedup": 0.1}))
    assert r.ok and not r.notes, (r.failures, r.notes)
    gone = _micro_doc()
    gone["sampling_kernel"].pop()
    r = verdict(_micro_doc(), gone)
    assert not r.ok and "coverage regression" in r.failures[0], r.failures

    # Fig5: a changed store hash or e2e revenue/seeds fails; a time past
    # the ratio gate only annotates; another scale is not compared.
    r = verdict(_fig5_doc(), _fig5_doc())
    assert r.ok and not r.notes, (r.failures, r.notes)
    for part, field, value in (("sampler", "store_hash", "0x2"),
                               ("e2e", "revenue", 407.4306668),
                               ("e2e", "seeds", 49)):
        r = verdict(_fig5_doc(), _fig5_doc(**{part: {field: value}}))
        assert len(r.failures) == 1 and field in r.failures[0], r.failures
    r = verdict(_fig5_doc(), _fig5_doc(sampler={"seconds": 9.0},
                                       e2e={"seconds": 9.0, "rr_bytes": 1}))
    assert r.ok and len(r.notes) == 2 and all(
        "wall-clock" in n for n in r.notes), (r.failures, r.notes)
    r = verdict(_fig5_doc(), _fig5_doc(scale=0.04,
                                       sampler={"store_hash": "0x3"}))
    assert r.ok and "not compared" in r.notes[0], (r.failures, r.notes)

    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Golden-result regression gate for BENCH_*.json")
    parser.add_argument("--golden", help="golden file or directory")
    parser.add_argument("--fresh", help="fresh capture file or directory")
    parser.add_argument("--time-ratio", type=float, default=8.0,
                        help="max allowed fresh/golden wall-clock ratio "
                             "(default 8; speedups always pass)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="missing files/cells annotate instead of fail")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.golden or not args.fresh:
        parser.error("--golden and --fresh are required (or --self-test)")
    if not os.path.exists(args.golden):
        print(f"error: golden path does not exist: {args.golden}",
              file=sys.stderr)
        return 2
    if not os.path.exists(args.fresh):
        print(f"error: fresh path does not exist: {args.fresh}",
              file=sys.stderr)
        return 2
    return run(args.golden, args.fresh, args.time_ratio, args.allow_missing)


if __name__ == "__main__":
    sys.exit(main())
