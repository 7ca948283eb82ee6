#!/usr/bin/env python3
"""Gate CI on the machine-readable benchmark JSON (perf smoke).

Reads the ``BENCH_<name>.json`` files written by ``benchmarks/benchutils
.emit_json`` and checks each known benchmark against conservative floors —
loose enough to stay green on loaded CI runners, tight enough to catch a
regression that loses a fast path entirely.

Usage::

    python tools/check_bench_floors.py [BENCH_DIR] [--only NAME ...]

``--only`` restricts the gate to the named benchmark(s) — the docs-job
serve smoke runs just the service bench, while the tests job gates the
full set.  Exits 1 (listing every violation) if any checked floor is
broken or an expected file is missing.
"""

from __future__ import annotations

import json
import os
import sys

#: name -> list of (description, predicate over the "results" payload).
FLOORS = {
    "sweep_cache": [
        ("cold and warm reports are byte-identical",
         lambda r: r["reports_identical"] is True),
        ("warm (all-cached) rerun is at least 20x faster than cold",
         lambda r: r["warm_speedup"] >= 20.0),
        ("cold 4-point sweep finishes within 30 s",
         lambda r: r["cold_s"] <= 30.0),
        ("shared-stage memoization is active (artifact hits > 0)",
         lambda r: r["artifact_store"].get("hits", 0) > 0),
    ],
    "cache_probe": [
        ("batched diff agrees with per-key probing",
         lambda r: r["results_identical"] is True),
        ("batched diff costs O(pages) round trips",
         lambda r: r["batched_calls"] <= r["expected_pages"]),
        ("batched diff beats per-key probing by at least 5x under latency",
         lambda r: r["speedup"] >= 5.0),
    ],
    "end_to_end_snr": [
        ("measured SNR stays above 80 dB", lambda r: r["snr_db"] > 80.0),
        ("65536-sample SNR simulation finishes within 60 s",
         lambda r: r["elapsed_s"] <= 60.0),
    ],
    "activity": [
        ("vectorized toggle traces equal the reference engine's",
         lambda r: r["toggles_match_reference"] is True),
        ("activity path costs at most half the flow without it",
         lambda r: r["activity_s"] <= 0.5 * r["flow_no_activity_s"]),
    ],
    "robustness_yield": [
        ("batched hot path is bit-exact to the per-sample loop",
         lambda r: r["snr_match"] is True),
        ("batched Monte Carlo beats the per-sample loop by at least 2x",
         lambda r: r["speedup"] >= 2.0),
        ("256-sample batched population finishes within 30 s",
         lambda r: r["batched_s"] <= 30.0),
        ("perturbed SNR population stays physical (40-100 dB)",
         lambda r: 40.0 <= r["snr_min_db"] <= r["snr_max_db"] <= 100.0),
    ],
    "obs_overhead": [
        ("instrumented flow emits spans when traced",
         lambda r: r["spans_per_flow"] > 0),
        ("disabled span call costs under 10 microseconds",
         lambda r: r["per_span_ns_disabled"] <= 10_000.0),
        ("projected disabled-tracing overhead stays within 2%",
         lambda r: r["overhead_pct"] <= 2.0),
    ],
    "serve_throughput": [
        ("served responses are byte-identical (cold, hot, across clients)",
         lambda r: r["responses_identical"] is True),
        ("concurrent identical requests coalesced at least once",
         lambda r: r["coalesced"] >= 1),
        ("hot replay against the resident store is at least 1.5x faster",
         lambda r: r["hot_speedup"] >= 1.5),
        ("hot store serves a nonzero artifact cache hit rate",
         lambda r: r["cache_hit_rate"] > 0.0),
        ("slowest cold pass finishes within 120 s",
         lambda r: r["cold_s_max"] <= 120.0),
        ("bounded admission queue shed traffic under overload",
         lambda r: r["overload"]["shed"] >= 1),
        ("retrying clients recovered shed traffic to 100% success",
         lambda r: r["overload"]["retry_success_rate"] == 1.0),
        ("queue-wait p99 is measured under overload",
         lambda r: r["overload"]["queue_wait_p99_ms"] >= 0.0),
        ("SIGTERM drained the overloaded daemon to a clean exit 0",
         lambda r: r["overload"]["drain_clean_exit"] is True),
    ],
}


def main(argv):
    positional = []
    only = []
    rest = list(argv[1:])
    while rest:
        arg = rest.pop(0)
        if arg == "--only":
            if not rest:
                print("error: --only requires a benchmark name",
                      file=sys.stderr)
                return 2
            only.append(rest.pop(0))
        else:
            positional.append(arg)
    bench_dir = positional[0] if positional else "."
    unknown = [name for name in only if name not in FLOORS]
    if unknown:
        print(f"error: unknown benchmark(s): {', '.join(unknown)} "
              f"(known: {', '.join(sorted(FLOORS))})", file=sys.stderr)
        return 2
    selected = {name: FLOORS[name] for name in only} if only else FLOORS
    failures = []
    for name, checks in selected.items():
        path = os.path.join(bench_dir, f"BENCH_{name}.json")
        if not os.path.exists(path):
            failures.append(f"{name}: missing {path}")
            continue
        with open(path, "r", encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        for description, predicate in checks:
            try:
                ok = predicate(results)
            except (KeyError, TypeError) as exc:
                ok = False
                description += f" (malformed payload: {exc!r})"
            status = "ok" if ok else "FAIL"
            print(f"[{status}] {name}: {description}")
            if not ok:
                failures.append(f"{name}: {description}")
    if failures:
        print(f"\n{len(failures)} benchmark floor(s) broken:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nAll benchmark floors hold ({bench_dir}).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
