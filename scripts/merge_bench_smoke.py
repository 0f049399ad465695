#!/usr/bin/env python3
"""Merge the bench-smoke JSON fragments and assert the smoke invariants.

Inputs (google-benchmark --benchmark_out files, in order):
    bench_micro_smoke.json bench_fig5_conns_smoke.json \
        bench_fig4_smoke.json ...
Outputs:
    bench_smoke.json        merged run, the per-PR perf-trajectory artifact
    batching_counters.json  the wire-coalescing counters (writev batching AND
                            readv fills) of every pooled point + the micro
                            coalescing pairs, uploaded alongside so the
                            batching win is scannable without parsing the
                            full run

Asserted invariants (smoke fails on violation):
  1. Pooling: pooled backend connection count does not grow with client
     concurrency (>= 2 pooled fig5 points, all with equal backend_conns).
  2. Write batching: on every pooled fig5 point (8+ concurrent client
     graphs) the pooled wires issue FEWER vectored writes than requests
     forwarded — writev batching must actually coalesce, not degenerate to
     per-message.
  3. Read coalescing: on every pooled point exporting fill counters (fig5
     and the fig4 HTTP smoke) the pooled wires issue FEWER vectored reads
     than the legacy one-read-per-buffer loop would have (one read per
     buffer filled, plus the trailing would-block probe every drain paid) —
     the vectored fills must actually amortise.
  4. Shard scaling: the BM_Fig5Shards series (pooled fig5 point at
     io_shards 1/2/4) must never LOSE throughput beyond noise when sharded —
     shards > 1 within SHARD_NOISE_FLOOR of the single-shard point (CI
     runners may have too few cores to show the win, but a sharded plane
     slower than one poller thread is a regression).
  5. Stripe locality: every pooled point exporting pool_stripe_spills must
     report 0 — in steady state every lease is served by its home stripe;
     spills mean the striping is mis-sized or the spill path is leaking.
  6. Idle-conn plane: on every BM_IdleConns point the poller's quiescent
     sweep cost per idle connection stays near zero (edge-triggered
     readiness means the sweep never scans the idle mass), the cost does not
     blow up from 10k to 100k conns, the adaptive sleep engages
     (idle_sweep_frac), one idle timer is armed per conn, and
     admissions_shed == 0 — the shard cap sits above N, nothing may shed.
  7. Share-nothing planes: on every sharded point (BM_Fig5Shards and
     BM_Fig4Shards, which export the platform counters)
     cross_shard_steals == 0 — the benches pin every task to its accepting
     shard, so a steal crossing a worker group means pinning leaked — and
     pool_slice_spills == 0 — every buffer/msg acquire was served by the
     shard's own pool slice, never the global spill pool.
  8. Open-loop cache plane: the BM_TailSmokePair point is present and
     carries CO-free percentiles (median-of-window p50/p99/p999_ms) and
     achieved_rps > 0 for BOTH modes; the warmed cache side serves a
     nonzero hit ratio with cache_stale_populates_dropped == 0 (a read-only
     steady state must never race a populate against an invalidation); and
     the cache-hit median p99 sits STRICTLY below the pooled-miss median
     p99 at the same offered load — the look-aside hit path dodging the
     pool lease + backend RTT is the whole point of cache mode, so losing
     that ordering is a regression. (The point interleaves the two modes'
     windows and compares medians precisely so this assertion is stable on
     small runners — see bench/bench_tail_latency.cc.)
  9. Health plane quiescence: the smoke benches run against HEALTHY backends
     with the deadline/breaker plane armed (services default a 2 s
     response deadline), so on every point exporting the health counters
     breaker_opens == 0, request_deadline_expiries == 0 and
     pool_requests_failed == 0 — a breaker trip, deadline expiry or kError
     reply under clean steady-state load means the health plane is
     misfiring (false positives would fail real traffic too).
 10. DSL ablation: the BM_DslAblation triple (same FLICK program, same
     pooled topology, three arms) must show the compile story working:
     the Lowered arm never LOSES to the Interp arm beyond noise (on a
     quiet host it wins ~1.1-1.3x; small CI runners invert single runs,
     so the check is a don't-lose floor like invariant 4, not a
     must-win), the Lowered arm lands within the documented gap of the
     hand-written ceiling, the Lowered point reports
     dsl_interp_fallbacks == 0 with dsl_lowered_msgs > 0 (every message
     took the native path, none leaked back to the evaluator), the
     Interp point reports dsl_lowered_msgs == 0 (the ablation arms are
     actually distinct), and no arm records a launch failure.
 11. foldt plane: at least one BM_Fig6_Hadoop point is present, and on
     every one the reducer received pairs (pairs_out > 0) and fewer of
     them than the mappers sent (pairs_out < pairs_in) — the merge tree
     ran and combined.
"""

import json
import sys

# Shards > 1 may legitimately tie (or lose slightly to scheduling noise on
# small CI runners) vs shards = 1; losing more than this fraction fails.
# When the runner has no spare cores for the extra poller threads
# (num_cpus <= shards) the sharded plane is purely oversubscribed — it
# cannot win, it just must not collapse — so the floor loosens.
SHARD_NOISE_FLOOR = 0.35
SHARD_OVERSUBSCRIBED_FLOOR = 0.55

# Idle-conn plane (invariant 6). The absolute cap is the teeth: the legacy
# O(n) readiness scan costs ~100-250 ns per idle conn per sweep (memory
# bound), the edge-triggered poller ~2-8 ns; anything above the cap means the
# sweep is touching the idle mass again. The ratio bound catches superlinear
# growth between the 10k and 100k points, waived while both sit under the
# noise floor where single cache misses dominate the division.
IDLE_SWEEP_NS_CAP = 40.0
IDLE_SWEEP_FLAT_RATIO = 8.0
IDLE_SWEEP_NOISE_NS = 15.0
IDLE_SLEEP_FRAC_FLOOR = 0.5

# DSL ablation (invariant 10). On a quiet host the lowered arm beats the
# interpreter ~1.1-1.3x, but the three arms are single-iteration
# closed-loop runs and 1-2 core CI runners invert individual runs on
# scheduling noise — so, like the shard floor, the assertion is "never
# LOSE beyond noise", not "must win". The ceiling gap bounds how far the
# lowered arm may trail the hand-written proxy (the bench header
# documents ~1.5x on a quiet host; the floor leaves noise headroom and
# still catches the failure mode that matters — lowered dispatch
# collapsing back to evaluator-class cost, a 3x+ gap).
DSL_NOISE_FLOOR = 0.35
DSL_CEILING_GAP = 2.0


def counters_of(bench):
    # Counters live under "counters" on newer libbenchmark, top-level on
    # older ones.
    return bench.get("counters", bench)


def main(argv):
    if len(argv) < 2:
        print("usage: merge_bench_smoke.py <smoke.json>...", file=sys.stderr)
        return 2
    merged = {}
    for name in argv[1:]:
        with open(name) as f:
            data = json.load(f)
        if not merged:
            merged = data
        else:
            merged["benchmarks"].extend(data["benchmarks"])
    with open("bench_smoke.json", "w") as f:
        json.dump(merged, f, indent=1)

    pooled = [b for b in merged["benchmarks"]
              if b["name"].startswith("BM_Fig5Conns_Pooled")]

    # 1. Pooling: backend connection count independent of client concurrency.
    conns = {counters_of(b)["backend_conns"] for b in pooled}
    assert len(pooled) >= 2, "pooled fig5 points missing from smoke"
    assert len(conns) == 1, f"pooled backend conns vary with clients: {conns}"

    # 2. Batching: vectored writes < requests on every pooled point.
    batching = {}
    for b in pooled:
        c = counters_of(b)
        writev = c.get("pool_writev_calls")
        requests = c.get("pool_requests")
        assert writev is not None and requests is not None, \
            f"{b['name']}: batching counters missing from pooled fig5 point"
        assert writev < requests, (
            f"{b['name']}: writev_calls ({writev}) not below requests "
            f"({requests}) — output batching is not coalescing")
        # The fig5 pooled points must also carry the fill counters (checked
        # in the amortisation pass below); asserted here so fig4 points can
        # never mask a dropped fig5 export.
        assert counters_of(b).get("pool_readv_calls") is not None, \
            f"{b['name']}: fill counters missing from pooled fig5 point"
        batching[b["name"]] = {
            "pool_writev_calls": writev,
            "pool_requests": requests,
            "pool_msgs_per_writev": c.get("pool_msgs_per_writev"),
            "pool_flushes_forced": c.get("pool_flushes_forced"),
            "reqs_per_s": c.get("reqs_per_s"),
        }

    # 3. Read coalescing: vectored fills < legacy reads on every pooled point
    # that exports the fill counters (fig5 pooled + fig4 HTTP smoke pooled).
    fills_checked = 0
    for b in merged["benchmarks"]:
        c = counters_of(b)
        readv = c.get("pool_readv_calls")
        if readv is None:
            continue
        legacy = c.get("pool_reads_legacy_equivalent")
        assert legacy is not None, \
            f"{b['name']}: pool_reads_legacy_equivalent missing"
        assert readv > 0, f"{b['name']}: no vectored fills ran at all"
        assert readv < legacy, (
            f"{b['name']}: readv_calls ({readv}) not below the legacy "
            f"one-read-per-buffer count ({legacy}) — ingest coalescing is "
            f"not amortising")
        fills_checked += 1
        batching.setdefault(b["name"], {}).update({
            "pool_readv_calls": readv,
            "pool_reads_legacy_equivalent": legacy,
            "pool_bytes_per_readv": c.get("pool_bytes_per_readv"),
            "pool_fills_short": c.get("pool_fills_short"),
            "pool_responses": c.get("pool_responses"),
        })
    assert fills_checked >= len(pooled), \
        "fewer fill-checked points than pooled fig5 points"

    # 4. Shard scaling: shards > 1 never lose to shards = 1 beyond noise.
    shard_points = {}
    for b in merged["benchmarks"]:
        if b["name"].startswith("BM_Fig5Shards/"):
            shard_points[int(b["name"].split("/")[1])] = b
    if shard_points:
        assert 1 in shard_points, "BM_Fig5Shards/1 missing from smoke"
        base = counters_of(shard_points[1])["reqs_per_s"]
        num_cpus = merged.get("context", {}).get("num_cpus", 1)
        for n, b in sorted(shard_points.items()):
            c = counters_of(b)
            rps = c["reqs_per_s"]
            if n > 1:
                frac = (SHARD_NOISE_FLOOR if num_cpus > n
                        else SHARD_OVERSUBSCRIBED_FLOOR)
                floor = base * (1.0 - frac)
                assert rps >= floor, (
                    f"{b['name']}: {rps:,.0f} req/s vs {base:,.0f} at one "
                    f"shard (floor {floor:,.0f}) — the sharded IO plane "
                    f"LOSES to the single dispatcher")
            assert c.get("pool_stripes") == n, \
                f"{b['name']}: pool stripes ({c.get('pool_stripes')}) != io_shards ({n})"
            batching.setdefault(b["name"], {}).update({
                "reqs_per_s": rps,
                "pool_stripes": c.get("pool_stripes"),
                "pool_stripe_spills": c.get("pool_stripe_spills"),
                "shard_speedup_vs_1": rps / base if base else None,
            })

    # 5. Stripe locality: steady-state smoke must never spill a lease.
    spills_checked = 0
    for b in merged["benchmarks"]:
        c = counters_of(b)
        spills = c.get("pool_stripe_spills")
        if spills is None:
            continue
        assert spills == 0, (
            f"{b['name']}: {spills} pool stripe spills in steady state — "
            f"leases are leaving their home stripe")
        spills_checked += 1
        batching.setdefault(b["name"], {}).setdefault("pool_stripe_spills", spills)

    # 7. Share-nothing planes: pinned compute never crosses a shard group,
    # sliced memory never spills to the global pool, on any sharded point.
    shard_plane_checked = 0
    for b in merged["benchmarks"]:
        c = counters_of(b)
        steals = c.get("cross_shard_steals")
        slice_spills = c.get("pool_slice_spills")
        if steals is None and slice_spills is None:
            continue
        assert steals is not None and slice_spills is not None, \
            f"{b['name']}: exports only one of the share-nothing counters"
        assert steals == 0, (
            f"{b['name']}: {steals:.0f} cross-shard steals — shard-pinned "
            f"tasks are migrating off their home worker group")
        assert slice_spills == 0, (
            f"{b['name']}: {slice_spills:.0f} pool slice spills — shard "
            f"pool slices are under-sized or leaking to the global pool")
        shard_plane_checked += 1
        batching.setdefault(b["name"], {}).update({
            "cross_shard_steals": steals,
            "pool_slice_spills": slice_spills,
        })
    if shard_points:
        assert shard_plane_checked >= len(shard_points), \
            "sharded points missing the share-nothing plane counters"

    # 6. Idle-conn plane: near-zero flat sweep cost, no shedding under cap.
    idle_points = {}
    for b in merged["benchmarks"]:
        if not b["name"].startswith("BM_IdleConns/"):
            continue
        c = counters_of(b)
        n = int(c["idle_conns"])
        idle_points[n] = c
        sweep = c["sweep_ns_per_idle_conn"]
        assert sweep <= IDLE_SWEEP_NS_CAP, (
            f"{b['name']}: {sweep:.1f} ns sweep cost per idle conn (cap "
            f"{IDLE_SWEEP_NS_CAP}) — the poller is scanning the idle mass")
        assert c["admissions_shed"] == 0, (
            f"{b['name']}: {c['admissions_shed']:.0f} admissions shed with "
            f"the cap above N — the shard is shedding conns it should admit")
        assert c["idle_sweep_frac"] >= IDLE_SLEEP_FRAC_FLOOR, (
            f"{b['name']}: idle_sweep_frac {c['idle_sweep_frac']:.2f} below "
            f"{IDLE_SLEEP_FRAC_FLOOR} — the adaptive sleep is not engaging")
        assert c["timers_armed"] >= n, (
            f"{b['name']}: {c['timers_armed']:.0f} timers armed for {n} "
            f"conns — idle deadlines are not being armed per connection")
        batching[b["name"]] = {
            "idle_conns": n,
            "sweep_ns_per_idle_conn": sweep,
            "idle_sweep_frac": c["idle_sweep_frac"],
            "rx_bytes_per_idle_conn": c.get("rx_bytes_per_idle_conn"),
            "timers_armed": c["timers_armed"],
            "timers_fired": c.get("timers_fired"),
            "admissions_shed": c["admissions_shed"],
        }
    if idle_points:
        lo, hi = min(idle_points), max(idle_points)
        assert hi > lo, "idle-conn series needs at least two scale points"
        lo_ns = idle_points[lo]["sweep_ns_per_idle_conn"]
        hi_ns = idle_points[hi]["sweep_ns_per_idle_conn"]
        flat = (hi_ns <= IDLE_SWEEP_NOISE_NS or
                hi_ns <= max(lo_ns, 0.1) * IDLE_SWEEP_FLAT_RATIO)
        assert flat, (
            f"idle sweep cost blows up with scale: {lo_ns:.1f} ns/conn at "
            f"{lo} conns vs {hi_ns:.1f} at {hi} — per-idle-conn wakeup work "
            f"must stay flat")

    # 9. Health plane quiescence: against healthy backends with the
    # deadline/breaker plane armed, no breaker may trip, no deadline may
    # expire, no request may be answered with a kError.
    health_checked = 0
    for b in merged["benchmarks"]:
        c = counters_of(b)
        opens = c.get("breaker_opens")
        if opens is None:
            continue
        expiries = c.get("request_deadline_expiries")
        failed = c.get("pool_requests_failed")
        assert expiries is not None and failed is not None, \
            f"{b['name']}: exports only part of the health counter set"
        assert opens == 0, (
            f"{b['name']}: {opens:.0f} breaker opens against healthy "
            f"backends — the circuit breaker is tripping on clean load")
        assert expiries == 0, (
            f"{b['name']}: {expiries:.0f} request deadline expiries in "
            f"steady state — responses are not beating the armed deadline")
        assert failed == 0, (
            f"{b['name']}: {failed:.0f} requests failed with kError against "
            f"healthy backends — the pool is losing wires on clean load")
        health_checked += 1
        batching.setdefault(b["name"], {}).update({
            "breaker_opens": opens,
            "request_deadline_expiries": expiries,
            "pool_requests_failed": failed,
        })
    assert health_checked >= len(pooled), \
        "pooled points missing the health plane counters"

    # 8. Open-loop cache plane: CO-free percentiles for both modes of the
    # paired point, warmed-cache hit ratio > 0 with zero stale-populate
    # drops, and the cache-hit median p99 strictly below the pooled-miss
    # median p99 at equal offered load.
    tail_points = {}
    for b in merged["benchmarks"]:
        if not b["name"].startswith("BM_TailSmokePair"):
            continue
        c = counters_of(b)
        for mode in ("_pooled_miss", "_cache_hit"):
            for key in ("p50_ms", "p99_ms", "p999_ms", "achieved_rps",
                        "offered_rps"):
                assert c.get(key + mode) is not None, \
                    f"{b['name']}: open-loop counter {key}{mode} missing"
            assert c["achieved_rps" + mode] > 0, (
                f"{b['name']}: achieved_rps{mode} is 0 — that mode's "
                f"open-loop windows completed nothing")
        assert c.get("cache_hit_ratio", 0) > 0, (
            f"{b['name']}: hit ratio is 0 — the warmed cache side served no "
            f"hits, cache mode is not engaging")
        assert c.get("cache_stale_populates_dropped") == 0, (
            f"{b['name']}: {c['cache_stale_populates_dropped']:.0f} stale "
            f"populates dropped on a read-only steady-state point — "
            f"populates are racing invalidations that cannot exist here")
        assert c["p99_ms_cache_hit"] < c["p99_ms_pooled_miss"], (
            f"{b['name']}: cache-hit median p99 ({c['p99_ms_cache_hit']:.2f} "
            f"ms) not strictly below pooled-miss median p99 "
            f"({c['p99_ms_pooled_miss']:.2f} ms) at the same offered load — "
            f"the look-aside hit path is not beating the pool-lease + "
            f"backend-RTT path")
        tail_points[b["name"]] = c
        batching[b["name"]] = {
            k: c.get(k)
            for k in ("offered_rps_pooled_miss", "achieved_rps_pooled_miss",
                      "p50_ms_pooled_miss", "p99_ms_pooled_miss",
                      "p999_ms_pooled_miss", "offered_rps_cache_hit",
                      "achieved_rps_cache_hit", "p50_ms_cache_hit",
                      "p99_ms_cache_hit", "p999_ms_cache_hit",
                      "cache_hit_ratio", "cache_stale_populates_dropped")
        }
    assert tail_points, \
        "BM_TailSmokePair point missing — the open-loop cache plane is unchecked"

    # 10. DSL ablation: interp vs lowered vs hand-written on the identical
    # pooled topology. The lowered arm must not lose to the interpreter
    # beyond noise, must sit within the ceiling gap of the hand-written
    # proxy, and the counters must prove the arms are what they claim:
    # lowered took the native path for every message, interp lowered none.
    dsl_arms = {}
    for b in merged["benchmarks"]:
        for arm in ("Interp", "Lowered", "HandWritten"):
            if b["name"].startswith(f"BM_DslAblation_{arm}"):
                dsl_arms[arm] = b
    if dsl_arms:
        assert set(dsl_arms) == {"Interp", "Lowered", "HandWritten"}, (
            f"DSL ablation arms missing from smoke: have {sorted(dsl_arms)}, "
            f"need all three — a dropped arm makes the ablation unreadable")
        interp = counters_of(dsl_arms["Interp"])
        lowered = counters_of(dsl_arms["Lowered"])
        hand = counters_of(dsl_arms["HandWritten"])
        for arm, c in (("Interp", interp), ("Lowered", lowered),
                       ("HandWritten", hand)):
            for key in ("reqs_per_s", "dsl_lowered_msgs",
                        "dsl_interp_fallbacks", "launch_failures"):
                assert c.get(key) is not None, \
                    f"BM_DslAblation_{arm}: counter {key} missing"
            assert c["launch_failures"] == 0, (
                f"BM_DslAblation_{arm}: {c['launch_failures']:.0f} launch "
                f"failures — the ablation graphs are not even starting")
        # Arm identity: the only difference between the DSL arms is the
        # `lower` flag, and the counters must reflect it.
        assert lowered["dsl_interp_fallbacks"] == 0, (
            f"Lowered arm leaked {lowered['dsl_interp_fallbacks']:.0f} "
            f"messages back to the evaluator — the lowering pass is "
            f"declining plans it should own")
        assert lowered["dsl_lowered_msgs"] > 0, (
            "Lowered arm reports 0 lowered messages — native dispatch "
            "never ran, the arm degenerated to the interpreter")
        assert interp["dsl_lowered_msgs"] == 0, (
            f"Interp arm reports {interp['dsl_lowered_msgs']:.0f} lowered "
            f"messages — lower=false is not disabling the lowering pass, "
            f"the ablation arms are measuring the same thing")
        # Perf ordering, with the shard-style noise floor.
        i_rps, l_rps, h_rps = (interp["reqs_per_s"], lowered["reqs_per_s"],
                               hand["reqs_per_s"])
        floor = i_rps * (1.0 - DSL_NOISE_FLOOR)
        assert l_rps >= floor, (
            f"BM_DslAblation_Lowered: {l_rps:,.0f} req/s vs interp "
            f"{i_rps:,.0f} (floor {floor:,.0f}) — compiled dispatch LOSES "
            f"to the bounded evaluator")
        ceiling_floor = h_rps / DSL_CEILING_GAP
        assert l_rps >= ceiling_floor, (
            f"BM_DslAblation_Lowered: {l_rps:,.0f} req/s is more than "
            f"{DSL_CEILING_GAP}x below the hand-written ceiling "
            f"({h_rps:,.0f}) — lowered dispatch is paying evaluator-class "
            f"overhead")
        batching["BM_DslAblation"] = {
            "interp_reqs_per_s": i_rps,
            "lowered_reqs_per_s": l_rps,
            "handwritten_reqs_per_s": h_rps,
            "lowered_speedup_vs_interp": l_rps / i_rps if i_rps else None,
            "lowered_frac_of_handwritten": l_rps / h_rps if h_rps else None,
            "lowered_msgs": lowered["dsl_lowered_msgs"],
            "interp_fallbacks_on_lowered_arm": lowered["dsl_interp_fallbacks"],
        }
    assert dsl_arms, \
        "BM_DslAblation points missing — the interp-vs-compiled plane is unchecked"

    # 11. foldt plane: the Hadoop merge tree ran and combined on every fig6
    # point.
    fig6_points = 0
    for b in merged["benchmarks"]:
        if not b["name"].startswith("BM_Fig6_Hadoop"):
            continue
        c = counters_of(b)
        pairs_in, pairs_out = c.get("pairs_in"), c.get("pairs_out")
        assert pairs_in is not None and pairs_out is not None, \
            f"{b['name']}: pairs_in/pairs_out counters missing"
        assert pairs_out > 0, (
            f"{b['name']}: the reducer received no pairs — the merge tree "
            f"delivered nothing")
        assert pairs_out < pairs_in, (
            f"{b['name']}: {pairs_out:,.0f} pairs out for {pairs_in:,.0f} in "
            f"— the foldt tree is not combining")
        fig6_points += 1
        batching[b["name"]] = {
            "pairs_in": pairs_in,
            "pairs_out": pairs_out,
            "reduction": c.get("reduction"),
            "ingest_mbps": c.get("ingest_mbps"),
        }
    assert fig6_points, \
        "BM_Fig6_Hadoop points missing — the foldt plane is unchecked"

    for b in merged["benchmarks"]:
        if b["name"].startswith(("BM_WriteCoalescedWritev",
                                 "BM_WriteMessagePerSyscall")):
            c = counters_of(b)
            batching[b["name"]] = {
                "writes_issued": c.get("writes_issued"),
                "items_per_second": c.get("items_per_second"),
            }
        elif b["name"].startswith(("BM_ReadScatteredReadv",
                                   "BM_ReadPerSyscall")):
            c = counters_of(b)
            batching[b["name"]] = {
                "reads_issued": c.get("reads_issued"),
                "items_per_second": c.get("items_per_second"),
            }
    with open("batching_counters.json", "w") as f:
        json.dump(batching, f, indent=1)
    print(f"merged {len(merged['benchmarks'])} benchmarks; "
          f"{len(pooled)} pooled fig5 points batching-checked; "
          f"{fills_checked} pooled points fill-checked; "
          f"{len(shard_points)} shard-scaling points checked; "
          f"{spills_checked} points spill-checked; "
          f"{shard_plane_checked} points share-nothing-checked; "
          f"{len(idle_points)} idle-conn points checked; "
          f"{len(tail_points)} open-loop tail points checked; "
          f"{health_checked} points health-checked; "
          f"{len(dsl_arms)} DSL ablation arms checked; "
          f"{fig6_points} fig6 foldt points checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
