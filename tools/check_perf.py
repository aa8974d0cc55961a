#!/usr/bin/env python3
"""Perf ratchet: fail when a bench run regresses vs a committed baseline.

Usage:
    check_perf.py BASELINE.json CURRENT.json [CURRENT.json ...]
                  [--tolerance 0.25]

Compares only *dimensionless* ratios (per-cell view-vs-legacy
speedups, fused-sweep speedups, model ratios), never absolute instructions/second: the committed baseline
and the CI runner are different machines, and a ratio of two
measurements taken in the same process on the same host transfers
across hosts where raw throughput does not.

Three ratchet kinds: floors (ratios where bigger is better — a drop
past tolerance fails), ceilings (errors where smaller is better — a
rise past tolerance fails, e.g. bench_sampling's max_abs_error), and
hard gates (booleans with no tolerance, e.g. bench_sampling's
all_in_ci exact-mean-inside-CI check).

Both files must come from the same bench at the same scale (the
"small" flag must match) — cell mixes and therefore expected ratios
differ between the small and paper-scaled traces.

Several CURRENT files (repeated runs of one bench) are ratcheted by
each ratio's median across them, so one run caught in a slow stretch
of a shared host does not fail the check on its own. A ratio or
ceiling missing from a run is left out of that run's median; a hard
gate must hold in every run.

Exit codes: 0 ok, 1 regression (>tolerance drop in any compared
ratio), 2 usage or file mismatch. CI may skip a known-noisy failure
with the `perf-override` PR label (see .github/workflows/ci.yml).
"""

import argparse
import json
import statistics
import sys


def fail(msg):
    print(f"check_perf: {msg}", file=sys.stderr)
    sys.exit(2)


def load_doc(path):
    """Load one bench JSON document, exiting 2 on a bad file."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON: {e}")


def ratios(doc):
    """Extract {name: dimensionless ratio} from one bench JSON."""
    out = {}
    bench = doc.get("bench")
    if bench == "bench_hotloop":
        for cell in doc.get("cells", []):
            out[f"cell:{cell['label']}:speedup"] = cell["speedup"]
        sweep = doc.get("campaign_sweep")
        if sweep:
            out["campaign_sweep:speedup_jobs1"] = sweep["speedup_jobs1"]
            out["campaign_sweep:speedup_jobsN"] = sweep["speedup_jobsN"]
        # schema_version >= 4: fused-vs-per-cell ratio of the
        # memory_bound regime (streamed synthetic cells past the LLC).
        # The warm, cache-resident ratio is campaign_sweep:speedup_jobs1
        # above; the two ratchet independently — the SoL executor must
        # not buy its memory-bound win by regressing the warm path or
        # vice versa.
        # schema_version >= 5 adds memory_bound_streamed: the same
        # fused sweep against the chunk-compressed resident form;
        # streamed_over_fused ratchets the sweep over inline-decoded
        # tiles against the flat fused sweep it replaces.
        for name, regime in sorted(doc.get("regimes", {}).items()):
            if "fused_speedup" in regime:
                out[f"regime:{name}:fused_speedup"] = (
                    regime["fused_speedup"])
            if "streamed_over_fused" in regime:
                out[f"regime:{name}:streamed_over_fused"] = (
                    regime["streamed_over_fused"])
    elif bench == "bench_contention":
        # Deterministic simulation outputs, not wall-clock: these
        # ratios ratchet the *model* — scheduler row-buffer locality
        # and the latency hiding that survives DRAM contention — so
        # any drop is a real semantic regression, never runner noise.
        traces = doc.get("traces", [])
        runs = doc.get("runs", [])

        def unit_label(trace):
            dram = trace.get("dram")
            if dram is None:
                return "paper"
            return f"{dram['sched']}@{dram['banks']}b"

        for t in traces:
            dram = t.get("dram")
            if dram and dram.get("requests"):
                out[f"dram:{t['app']}:{unit_label(t)}:row_hit_frac"] = (
                    dram["row_hits"] / dram["requests"])
        # Runs arrive in campaign-unit order, a fixed number per unit
        # (BASE + one row per window); attribute each to its trace to
        # recover the memory-config label, and keep the paper's
        # canonical W=64 point as the ratcheted hidden-read fraction.
        if traces and runs and len(runs) % len(traces) == 0:
            per_unit = len(runs) // len(traces)
            for i, r in enumerate(runs):
                if r["spec"] != "RC DS-64":
                    continue
                t = traces[i // per_unit]
                out[f"hidden:{r['app']}:{unit_label(t)}:W64"] = (
                    r["hidden_read"])
    elif bench == "bench_sampling":
        out["min_speedup"] = doc["min_speedup"]
        for cell in doc.get("cells", []):
            out[f"cell:{cell['label']}:speedup"] = cell["speedup"]
    else:
        fail(f"unknown bench {bench!r}")
    return out


def ceilings(doc):
    """Extract {name: value} metrics where *smaller* is better.

    These ratchet the opposite direction from ratios(): the current
    run regresses when a value exceeds baseline * (1 + tolerance).
    Sampling errors are deterministic simulation outputs (seeded trace,
    seeded plan), so a ceiling breach is a real estimator regression,
    never timing noise.
    """
    out = {}
    if doc.get("bench") == "bench_sampling":
        out["max_abs_error"] = doc["max_abs_error"]
        for cell in doc.get("cells", []):
            out[f"cell:{cell['label']}:abs_error"] = cell["abs_error"]
    elif doc.get("bench") == "bench_hotloop":
        # Memory ratchets for the chunk-compressed streamed regime
        # (schema_version >= 5), both dimensionless so they transfer
        # across hosts. resident_ratio (chunked resident bytes over
        # flat SoA bytes) is a deterministic property of the encoder;
        # the worker-RSS fraction comes from the --rss-probe child
        # processes and is skipped when the probe could not run.
        regimes = doc.get("regimes", {})
        streamed = regimes.get("memory_bound_streamed")
        if streamed and streamed.get("flat_bytes"):
            out["regime:memory_bound_streamed:resident_ratio"] = (
                streamed["resident_ratio"])
        rss = regimes.get("worker_rss")
        if rss and rss.get("flat_peak_rss_bytes") and \
                rss.get("streamed_peak_rss_bytes"):
            out["worker_rss:streamed_fraction"] = (
                rss["streamed_peak_rss_bytes"]
                / rss["flat_peak_rss_bytes"])
    return out


def gates(doc):
    """Extract {name: bool} hard pass/fail gates (no tolerance)."""
    out = {}
    if doc.get("bench") == "bench_sampling":
        out["all_in_ci"] = doc["all_in_ci"]
    return out


def medians(docs, extract):
    """{name: median over @p docs of extract(doc)[name]}."""
    values = {}
    for doc in docs:
        for name, value in extract(doc).items():
            values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one or more runs; each ratio's median "
                             "across them is ratcheted")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop (default 0.25)")
    args = parser.parse_args()

    base = load_doc(args.baseline)
    curs = [load_doc(path) for path in args.current]

    for path, cur in zip(args.current, curs):
        if base.get("bench") != cur.get("bench"):
            fail(f"bench mismatch: {base.get('bench')} vs "
                 f"{cur.get('bench')} ({path})")
        if base.get("small") != cur.get("small"):
            fail(f"scale mismatch: baseline and {path} disagree on "
                 "--small; ratios are only comparable at the same "
                 "trace scale")
    if len(curs) > 1:
        print(f"check_perf: medians over {len(curs)} runs")

    base_r = ratios(base)
    cur_r = medians(curs, ratios)
    cur_c = medians(curs, ceilings)

    regressions = []
    compared = 0
    for name, want in sorted(base_r.items()):
        have = cur_r.get(name)
        if have is None:
            # A removed cell is a bench-definition change, not a perf
            # regression; the test suite owns result correctness.
            print(f"check_perf: note: {name} absent in current run")
            continue
        compared += 1
        floor = want * (1.0 - args.tolerance)
        status = "ok"
        if have < floor:
            status = "REGRESSION"
            regressions.append(name)
        print(f"  {name}: baseline {want:.3f} current {have:.3f} "
              f"(floor {floor:.3f}) {status}")

    for name, want in sorted(ceilings(base).items()):
        have = cur_c.get(name)
        if have is None:
            print(f"check_perf: note: {name} absent in current run")
            continue
        compared += 1
        ceiling = want * (1.0 + args.tolerance)
        status = "ok"
        if have > ceiling:
            status = "REGRESSION"
            regressions.append(name)
        print(f"  {name}: baseline {want:.5f} current {have:.5f} "
              f"(ceiling {ceiling:.5f}) {status}")

    cur_g = {}
    for cur in curs:
        for name, ok in gates(cur).items():
            cur_g[name] = cur_g.get(name, True) and bool(ok)
    for name, ok in sorted(cur_g.items()):
        compared += 1
        if not ok:
            regressions.append(name)
        print(f"  {name}: {'ok' if ok else 'REGRESSION'}")

    print(f"check_perf: compared {compared} ratio(s), "
          f"{len(regressions)} regression(s), "
          f"tolerance {args.tolerance:.0%}")
    if regressions:
        print("check_perf: FAILED — regressed ratios: "
              + ", ".join(regressions), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
