#!/usr/bin/env python3
"""Compare fresh BENCH_micro.json runs against the committed baseline.

Usage:
    python3 bench/check_regression.py FRESH.json [FRESH2.json ...]
        [--baseline BASELINE.json [BASELINE2.json ...]] [--threshold 0.15]
        [--all]

Reads the fresh files and the baseline (default: the committed
BENCH_micro.json next to the repo root), joins rows by benchmark name, and
fails (exit 1) when any *key op* regressed by more than the threshold
(default 15% slower in ns_per_iter). With several fresh files -- separate
runs of the same binary, ideally interleaved with other work -- each row
is judged on its median across the runs that carry it, so one run slowed
by hypervisor steal cannot fail a row on its own. Several baseline files
are joined the same way, each row on its median across them: runs of the
parent commit interleaved with the fresh runs, so a slow or fast phase of
the machine moves both sides alike. Key ops are the single-thread rows of
the performance substrate plus the end-to-end model benches -- rows whose
timing is stable on one machine across runs. Multi-thread scaling rows are
reported but not gated: their baseline numbers depend on the core count of
the machine that recorded them.

A second check needs no baseline: every BM_MatMulSmall/<shape>/4 row whose
median across the fresh runs is more than 10% slower than its /1 row's
fails, because more threads must never make a product slower.

Accepts both the v1 schema ("results") and the v2 schema ("benchmarks").
Rows present in only one file are reported and skipped. --all widens the
gate to every joined row.

Table-3 files (schema elda-bench-table3-v3) additionally carry workload
quality columns (decomp_auc_roc / pheno_auc_roc, -1 = not applicable).
Those are joined and reported as an informational section but never gate:
quality at one bench epoch is noisy by design, and the bitwise contracts
that actually pin model behaviour live in the test suite.
"""

import argparse
import json
import os
import statistics
import sys

# Rows gated by default: deterministic single-thread substrate ops and the
# end-to-end model paths. A >threshold slowdown on any of these fails CI.
KEY_OPS = [
    "BM_MatMulSquare/256/1",
    "BM_MatMulBatchedSmall/1",
    "BM_SoftmaxLastAxis/1",
    "BM_BroadcastMul",
    # The tile backward's dp product ([113664, 4]^T x [113664, 48]) through
    # the TN Product tasks; the /4 row is reported only (VM noise).
    "BM_MatMulSkinnyTN/1",
    # MatMul at the shapes that carry most MatMul calls (labels in
    # bench_micro_substrate.cc): ward step, readout GEMV, Eq. 9 logits,
    # Eq. 11 dbeta (NT, m = 1), Eq. 9 ds (NT, k = 1), the B=64 GRU step and
    # its dh (NT and against the hoisted W_hh^T) and dW, the B=256 step,
    # ELDA-Net's ward input projection, the GRU input projection,
    # ELDA-Net's long-k dW_ih, the GRU's dW_ih and its NT dX. The /4 rows
    # gate against their /1 rows (THREADS_SLOWER_LIMIT), not against the
    # baseline.
] + [f"BM_MatMulSmall/{shape}/1" for shape in range(15)] + [
    "BM_GruForward",
    "BM_RecurrentSweep/256/0",
    "BM_RecurrentSweep/256/1",
    # The fused feature-interaction tile: taped forward at B=8, forward +
    # backward at the training shape (B=64), no-grad scoring at B=256.
    "BM_FeatureInteractionFactored/37/8/0",
    "BM_FeatureInteractionFactored/37/64/1",
    "BM_FeatureInteractionFactored/37/256/2",
    # The fused Eq. 2 embedding op, taped forward + backward at B=64.
    "BM_BiDirectionalEmbedding/1",
    "BM_EldaNetForwardBackward",
    "BM_EldaNetInference/256/1",
    # Per-step decompensation encodings (packed segment sweep), no-grad.
    "BM_EldaNetEncodeSteps/0",
    # Out-of-core data substrate (bench_loader --json_out, schema
    # elda-bench-loader-v1; same {name, ns_per_iter} row shape so the files
    # join here directly). ns_per_iter is ns/stay for generation and
    # ns/batch for epoch drains; gated rows are the deterministic
    # single-stream configurations.
    "BM_ShardCohortGenerate",
    "BM_ShardedLoaderEpoch/4/0",
    "BM_ShardedLoaderEpoch/4/1",
]


# Informational quality metrics (reported, never gated). Values < 0 mean
# "not applicable for this model" and are skipped.
QUALITY_METRICS = ["decomp_auc_roc", "pheno_auc_roc"]


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("benchmarks", doc.get("results", []))
    out = {}
    quality = {}
    for row in rows:
        name = row.get("name")
        if name is None:
            continue
        ns = row.get("ns_per_iter")
        if ns is not None:
            out[name] = float(ns)
        metrics = {m: float(row[m]) for m in QUALITY_METRICS
                   if row.get(m) is not None and float(row[m]) >= 0.0}
        if metrics:
            quality[name] = metrics
    if not out and not quality:
        raise SystemExit(f"{path}: no benchmark rows found "
                         "(expected 'benchmarks' or 'results')")
    return out, quality


def median_rows(paths):
    """Per-row median of ns_per_iter and quality metrics over several runs."""
    runs = [load_rows(path) for path in paths]
    ns = {}
    quality = {}
    for rows, qual in runs:
        for name, value in rows.items():
            ns.setdefault(name, []).append(value)
        for name, metrics in qual.items():
            for metric, value in metrics.items():
                quality.setdefault(name, {}).setdefault(metric, []).append(value)
    return ({name: statistics.median(v) for name, v in ns.items()},
            {name: {m: statistics.median(v) for m, v in metrics.items()}
             for name, metrics in quality.items()},
            {name: len(v) for name, v in ns.items()})


# A /4 row may be at most this much slower than its /1 row.
THREADS_SLOWER_LIMIT = 0.10
THREADS_PREFIX = "BM_MatMulSmall/"


def threads_failures(fresh):
    """(name, ns at /1, ns at /4) for every BM_MatMulSmall shape whose /4
    median is more than THREADS_SLOWER_LIMIT slower than its /1 median."""
    failures = []
    for name in sorted(fresh):
        if not (name.startswith(THREADS_PREFIX) and name.endswith("/4")):
            continue
        one = name[:-len("/4")] + "/1"
        if one in fresh and fresh[name] > fresh[one] * (1 + THREADS_SLOWER_LIMIT):
            failures.append((name, fresh[one], fresh[name]))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("fresh", nargs="+",
                        help="one or more freshly measured BENCH_micro.json "
                             "runs; rows gate on their median")
    parser.add_argument(
        "--baseline", nargs="+",
        default=[os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCH_micro.json")],
        help="one or more baseline jsons, rows judged on their median "
             "(default: committed BENCH_micro.json)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="fail when ns_per_iter grows by more than this "
                             "fraction (default 0.15)")
    parser.add_argument("--all", action="store_true",
                        help="gate every joined row, not just the key ops")
    args = parser.parse_args()

    fresh, fresh_quality, fresh_runs = median_rows(args.fresh)
    base, base_quality, _ = median_rows(args.baseline)
    if len(args.fresh) > 1:
        print(f"fresh ns = median over {len(args.fresh)} runs "
              "(rows carried by fewer runs are marked [n])")
    if len(args.baseline) > 1:
        print(f"baseline ns = median over {len(args.baseline)} runs")

    joined = sorted(set(fresh) & set(base))
    gated = set(joined) if args.all else {n for n in KEY_OPS if n in joined}
    missing_keys = [n for n in KEY_OPS if n not in joined]

    failures = []
    print(f"{'benchmark':<40} {'baseline ns':>14} {'fresh ns':>14} "
          f"{'delta':>8}  gate")
    for name in joined:
        old, new = base[name], fresh[name]
        delta = (new - old) / old if old > 0 else 0.0
        is_gated = name in gated
        verdict = ""
        if is_gated and delta > args.threshold:
            verdict = "REGRESSION"
            failures.append((name, old, new, delta))
        elif is_gated:
            verdict = "ok"
        runs = fresh_runs[name]
        note = f" [{runs}]" if runs < len(args.fresh) else ""
        print(f"{name:<40} {old:>14.0f} {new:>14.0f} {delta:>+7.1%}  "
              f"{verdict}{note}")

    for name in sorted(set(base) - set(fresh)):
        print(f"{name:<40} {'(missing from fresh run)':>30}")
    for name in sorted(set(fresh) - set(base)):
        print(f"{name:<40} {'(new, no baseline)':>30}")
    if missing_keys:
        print(f"note: key ops absent from the join: {', '.join(missing_keys)}")

    quality_join = sorted(set(fresh_quality) & set(base_quality))
    if quality_join:
        print("\nworkload quality (informational, not gated):")
        print(f"{'model / metric':<40} {'baseline':>10} {'fresh':>10} "
              f"{'delta':>8}")
        for name in quality_join:
            for metric in QUALITY_METRICS:
                old = base_quality[name].get(metric)
                new = fresh_quality[name].get(metric)
                if old is None or new is None:
                    continue
                print(f"{name + ' ' + metric:<40} {old:>10.3f} {new:>10.3f} "
                      f"{new - old:>+8.3f}")

    slower = threads_failures(fresh)
    if failures:
        print(f"\nFAIL: {len(failures)} key op(s) regressed more than "
              f"{args.threshold:.0%}:")
        for name, old, new, delta in failures:
            print(f"  {name}: {old:.0f} -> {new:.0f} ns/iter ({delta:+.1%})")
    if slower:
        print(f"\nFAIL: {len(slower)} /4 row(s) more than "
              f"{THREADS_SLOWER_LIMIT:.0%} slower than their /1 row:")
        for name, one, four in slower:
            print(f"  {name}: {one:.0f} ns at /1, {four:.0f} ns at /4 "
                  f"({four / one - 1:+.1%})")
    if failures or slower:
        return 1
    print(f"\nOK: no key op regressed more than {args.threshold:.0%} "
          f"({len(gated)} gated, {len(joined)} compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
