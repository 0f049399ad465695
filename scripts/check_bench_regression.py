#!/usr/bin/env python3
"""CI perf-regression gate for the bench smoke.

Compares the smoke run's merged JSON (google-benchmark format) against the
checked-in BENCH_BASELINE.json and fails when a gated series point regresses
by more than the threshold on its throughput counter. Gated series: the fig5
pooled connection-scaling points (the pooled+batched wire path whose
trajectory this repo optimises for), the fig4 HTTP smoke points (the HTTP
load-balancer series, pooled and per-client), the fig5/fig4 IO-shard
scaling points (the sharded-plane series at io_shards 1/2/4), the DSL
ablation's lowered arm (compiled FLICK dispatch on the pooled plane — the
point the compile story stands on; the interp and hand-written arms serve
as in-run reference points and are gated relatively, not absolutely, by
merge_bench_smoke.py invariant 10), and the fig6 Hadoop point (the foldt
merge tree, on its ingest_mbps counter; warn-only until the baseline is
regenerated with it). Lower-is-better series: the idle-conn
per-connection pool-byte cost and the open-loop tail-latency p99 of both
BM_TailSmoke modes (coordinated-omission-free, from scheduled arrival
timestamps — see docs/BENCHMARKS.md).

Rules:
  * a gated point slower than baseline * (1 - threshold)  -> FAIL
  * a gated baseline point missing from the current run   -> FAIL
    (a silently dropped series is a regression too)
  * a gated current point missing from the baseline       -> WARN only
    (new points enter the gate when the baseline is regenerated)

Regenerate the baseline via the workflow_dispatch input `regen_baseline`
(uploads a fresh BENCH_BASELINE.json artifact to commit), or locally with:
  ./build/bench_micro --benchmark_min_time=0.1 \
      --benchmark_out=bench_micro_smoke.json --benchmark_out_format=json
  ./build/bench_fig5_memcached --benchmark_filter='Fig5Conns|Fig5Shards' \
      --benchmark_out=bench_fig5_conns_smoke.json --benchmark_out_format=json
  ./build/bench_fig4_http_lb --benchmark_filter='Fig4Smoke|Fig4Shards' \
      --benchmark_out=bench_fig4_smoke.json --benchmark_out_format=json
  ./build/bench_idle_conns \
      --benchmark_out=bench_idle_smoke.json --benchmark_out_format=json
  ./build/bench_tail_latency --benchmark_filter='TailSmoke' \
      --benchmark_out=bench_tail_smoke.json --benchmark_out_format=json
  ./build/bench_dsl_ablation --benchmark_filter='DslAblation' \
      --benchmark_out=bench_dsl_smoke.json --benchmark_out_format=json
  ./build/bench_fig6_hadoop --benchmark_filter='BM_Fig6_Hadoop/2/8/' \
      --benchmark_out=bench_fig6_smoke.json --benchmark_out_format=json
  python3 scripts/merge_bench_smoke.py bench_micro_smoke.json \
      bench_fig5_conns_smoke.json bench_fig4_smoke.json \
      bench_idle_smoke.json bench_tail_smoke.json \
      bench_dsl_smoke.json bench_fig6_smoke.json  # -> bench_smoke.json
"""

import argparse
import json
import sys

GATED_PREFIXES = ("BM_Fig5Conns_Pooled", "BM_Fig4Smoke", "BM_Fig5Shards",
                  "BM_Fig4Shards", "BM_DslAblation_Lowered", "BM_Fig6_Hadoop")
METRIC = "reqs_per_s"
# Higher-is-better series whose throughput counter is not METRIC. The fig6
# Hadoop point (the foldt merge-tree plane) reports mapper ingest in Mb/s;
# it is absent from BENCH_BASELINE.json until the next regeneration, so it
# only WARNs until then.
SERIES_METRIC = {"BM_Fig6_Hadoop": "ingest_mbps"}


def metric_of(name):
    for prefix, metric in SERIES_METRIC.items():
        if name.startswith(prefix):
            return metric
    return METRIC

# Lower-is-better series, as (name-prefix, counter, threshold) triples. A
# point exceeding baseline * (1 + threshold) on its counter fails; None means
# use the --threshold default.
#   * BM_IdleConns gates the pool bytes PINNED per idle connection (the
#     per-connection memory economics of the million-idle scenario).
#   * BM_TailSmokePair gates the open-loop, coordinated-omission-free p99
#     (median of the point's interleaved windows) of the cache-hit and
#     pooled-miss paths at a fixed offered load — the tail the look-aside
#     cache plane exists to shrink. Even the median p99 swings run-to-run on
#     shared CI runners, so this series gets a wide 5.0 threshold: it only
#     trips on gross regressions (an order of magnitude, e.g. the hit path
#     re-acquiring pool leases), while the tight RELATIVE check — cache p99
#     strictly below pooled p99 within the same paired run — lives in
#     merge_bench_smoke.py invariant 8 where both numbers share a runner and
#     interleaved windows.
GATED_LOW_SERIES = (
    ("BM_IdleConns", "rx_bytes_per_idle_conn", None),
    ("BM_TailSmokePair", "p99_ms_pooled_miss", 5.0),
    ("BM_TailSmokePair", "p99_ms_cache_hit", 5.0),
)


def load_points(path):
    with open(path) as f:
        data = json.load(f)
    points = {}
    low_points = {}
    for bench in data.get("benchmarks", []):
        name = bench["name"]
        # Counters live under "counters" on newer libbenchmark, top-level on
        # older ones.
        counters = bench.get("counters", bench)
        if name.startswith(GATED_PREFIXES) and metric_of(name) in counters:
            points[name] = float(counters[metric_of(name)])
        for prefix, metric, _ in GATED_LOW_SERIES:
            if name.startswith(prefix) and metric in counters:
                # Keyed by (name, metric) so one point could gate several
                # lower-is-better counters without collision.
                low_points[(name, metric)] = float(counters[metric])
    return points, low_points


def low_threshold(name, metric, default):
    for prefix, m, thresh in GATED_LOW_SERIES:
        if name.startswith(prefix) and m == metric:
            return default if thresh is None else thresh
    return default


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in BENCH_BASELINE.json")
    parser.add_argument("current", help="merged bench_smoke.json from this run")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional throughput drop (default 0.30)")
    args = parser.parse_args()

    baseline, baseline_low = load_points(args.baseline)
    current, current_low = load_points(args.current)
    if not baseline:
        print(f"FAIL: no gated points ({GATED_PREFIXES}) in {args.baseline}")
        return 1

    failures = []
    for name, base_val in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: present in baseline but missing from this run")
            continue
        cur_val = current[name]
        floor = base_val * (1.0 - args.threshold)
        delta = (cur_val - base_val) / base_val
        verdict = "FAIL" if cur_val < floor else "ok"
        metric = metric_of(name)
        print(f"{verdict:>4}  {name}: {metric} {cur_val:,.0f} vs baseline "
              f"{base_val:,.0f} ({delta:+.1%}, floor {floor:,.0f})")
        if cur_val < floor:
            failures.append(f"{name}: {metric} {cur_val:,.0f} < floor {floor:,.0f} "
                            f"({delta:+.1%} vs baseline)")
        elif cur_val > base_val * 2.0:
            # Absolute throughput comparisons only mean something when the
            # baseline came from comparable hardware/build settings. A 2x+
            # gap means this runner far outruns whatever produced the
            # baseline — real regressions could hide entirely above the
            # floor, so tell the operator to regenerate.
            print(f"WARN  {name}: current is {cur_val / base_val:.1f}x the "
                  "baseline — baseline looks stale for this runner; "
                  "regenerate via the workflow_dispatch 'regen_baseline' "
                  "input so the gate has teeth")
    for name in sorted(set(current) - set(baseline)):
        print(f"WARN  {name}: not in baseline (gated after next regeneration)")

    # Lower-is-better: idle-conn byte cost and open-loop p99 must not grow.
    for (name, metric), base_val in sorted(baseline_low.items()):
        if (name, metric) not in current_low:
            failures.append(f"{name}: {metric} present in baseline but missing "
                            f"from this run")
            continue
        cur_val = current_low[(name, metric)]
        ceiling = base_val * (1.0 + low_threshold(name, metric, args.threshold))
        delta = (cur_val - base_val) / base_val if base_val else 0.0
        verdict = "FAIL" if cur_val > ceiling else "ok"
        print(f"{verdict:>4}  {name}: {metric} {cur_val:,.2f} vs baseline "
              f"{base_val:,.2f} ({delta:+.1%}, ceiling {ceiling:,.2f})")
        if cur_val > ceiling:
            failures.append(f"{name}: {metric} {cur_val:,.2f} > ceiling "
                            f"{ceiling:,.2f} ({delta:+.1%} vs baseline) — "
                            f"lower-is-better series regressed")
    for name, metric in sorted(set(current_low) - set(baseline_low)):
        print(f"WARN  {name}: {metric} not in baseline (gated after next "
              f"regeneration)")

    if failures:
        print("\nPerf regression gate FAILED:")
        for f in failures:
            print(f"  - {f}")
        print("If this slowdown is intended, regenerate BENCH_BASELINE.json via "
              "the workflow_dispatch 'regen_baseline' input and commit it.")
        return 1
    print("\nPerf regression gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
