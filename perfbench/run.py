"""Repository benchmark: one command, four workloads, seeded inputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``flow``, ``montecarlo``, ``sweep`` and ``serve``
(see :mod:`workloads`).  The run sets up (timed as ``setup_s``), runs timed
operations for ``--seconds``, checks every output and prints, as the last
line of standard output, one JSON object::

    {"correct": true, "attempted": 94, "failed": 0,
     "metrics": {"primary_op_ms.p50": {"value": 291.4, "unit": "ms"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones of
:data:`END_TO_END`; every workload reports every name, each defined by the
workload's own operations (see :mod:`workloads`).  With ``--trace 1`` the
run measures an untraced phase and then a traced phase, each half of
``--seconds``; the metrics are the per-layer ones (every name in
:data:`PER_LAYER`, zero where a workload does not reach a layer).  A
layer's time is its self time as a share of the traced phase's wall time
(``<layer>.self_pct``), so a layer the workload never reaches reads 0 %.
``overhead.<metric>_pct`` is the cost of tracing on each end-to-end metric
but ``setup_s`` (set-up runs once, untraced), as a share of the untraced
value.  The ``cli.*`` floor (interpreter start, numpy import, ``repro
--help``) is measured after the phases.  The spans go to
``perfbench-results/<run>.spans.jsonl``, readable with
``python -m repro trace summarize``.

Host noise: the CPU speed of a shared host drifts by up to 2x within a
minute, moving every time with it.  The end-to-end times and the work
rate are therefore scaled to a reference host speed, measured by a small
probe between operations (see :mod:`hostspeed`): each operation by the
probes around it, each set-up sample by a start-up probe (a fresh
interpreter importing numpy) just before it.  A ``serve`` run pins
itself and every process it starts to one core, so that the daemon and
the ``repro client`` processes run on the core the probe samples.
``peak_rss_mb`` and the per-layer metrics are not scaled.

The line before the result holds the details: sample counts, the base of
every ratio, the raw (unscaled) end-to-end values, the host speed
factors, failed checks and the machine (cores, load average,
CPU, Python and numpy versions).  The same document is written to
``perfbench-results/<workload>.seed<N>.trace<T>.json``; ``compare.py``
reads two directories of them.

``--size smoke`` runs every workload in seconds and still emits every
metric (the benchmark's tests use it).  The program is imported from the
checkout's ``src/``; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import median, min_samples, percentile  # noqa: E402
from workloads import SIZES, WORKLOADS, Context, Phase  # noqa: E402

#: Every end-to-end metric as ``(name, unit, better)``; every workload
#: reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("primary_op_ms.p50", "ms", "lower"),
    ("secondary_op_ms.p50", "ms", "lower"),
    ("work_items_per_s", "1/s", "higher"),
)

#: Layer spans reported as ``.self_pct`` and ``.calls``.
_SPAN_LAYERS = (
    "dsm.modulate", "dsm.modulate_batch", "chain.process", "analysis.fft",
    "power.activity", "flow.design", "flow.verify.mask", "flow.verify.snr",
    "flow.synthesis", "payload.execute", "cas.get", "cas.put",
    "cas.probe_many", "serve.request", "serve.queue_wait", "serve.compute",
    "serve.write", "bench.op",
)
_SAMPLE_LAYERS = ("dsm.modulate", "dsm.modulate_batch", "chain.process")

#: Cold-start floor of the ``cli`` layer: interpreter arguments per metric.
_CLI_FLOOR = (
    ("cli.python_startup_ms", ["-c", "pass"]),
    ("cli.numpy_import_ms", ["-c", "import numpy"]),
    ("cli.help_ms", ["-m", "repro", "--help"]),
)


def _per_layer_spec() -> List[Tuple[str, str, str]]:
    spec = []
    for layer in _SPAN_LAYERS:
        spec += [(f"{layer}.self_pct", "%", "lower"),
                 (f"{layer}.calls", "count", "higher")]
        if layer in _SAMPLE_LAYERS:
            spec.append((f"{layer}.samples", "count", "higher"))
    spec += [
        ("memo.hit_ratio", "ratio", "higher"), ("memo.hits", "count", "higher"),
        ("memo.lookups", "count", "higher"),
        ("cas.hit_ratio", "ratio", "higher"), ("cas.hits", "count", "higher"),
        ("cas.put.bytes", "bytes", "lower"),
        ("serve.coalesced", "count", "higher"),
        ("serve.requests", "count", "higher"),
        ("serve.cache_hit_rate", "ratio", "higher"),
        ("serve.cache_hits", "count", "higher"),
        ("serve.cache_lookups", "count", "higher"),
        ("serve.shed", "count", "lower"), ("serve.errors", "count", "lower"),
        ("serve.latency_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p50", "ms", "lower"),
        ("serve.queue_wait_ms.p99", "ms", "lower"),
    ]
    spec += [(name, "ms", "lower") for name, _ in _CLI_FLOOR]
    spec += [(f"overhead.{name}_pct", "%", "lower")
             for name, _, _ in END_TO_END if name != "setup_s"]
    return spec


#: Every per-layer metric as ``(name, unit, better)``.
PER_LAYER = _per_layer_spec()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment() -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "loadavg_start": list(os.getloadavg()),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform()}


def _phase_e2e(workload, phase: Phase, setup: List[Tuple[float, float]],
               scaled: bool = True) -> Dict[str, Tuple[float, int]]:
    """``{metric: (value, samples)}`` of one phase and the set-up samples
    (``(seconds, start-up speed factor)``), scaled to the reference host
    speed unless ``scaled`` is false."""
    setup_s = [s / (factor if scaled else 1.0) for s, factor in setup]
    values = {"setup_s": (median(setup_s), len(setup_s)),
              "peak_rss_mb": (phase.peak_rss_mb, 1)}
    values.update(workload.end_to_end(phase, scaled))
    return values


def _as_detail(values: Dict[str, Tuple[float, int]]) -> dict:
    return {name: {"value": v, "samples": n} for name, (v, n) in values.items()}


def _operations(phase: Phase) -> dict:
    """Per operation kind: sample count, median and each tail percentile
    with at least ten samples beyond it, in ms as measured."""
    detail = {}
    for kind in phase.ops:
        seconds = phase.durations(kind)
        row = {"samples": len(seconds)}
        for q in (50, 75, 90):
            if len(seconds) >= min_samples(q):
                row[f"p{q}_ms"] = 1e3 * percentile(seconds, q)
        detail[kind] = row
    return detail


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _overhead_pct(untraced: float, traced: float, better: str) -> float:
    """Cost of tracing as a share of the untraced value (positive when the
    traced phase reads worse)."""
    if not untraced or not traced:
        return 0.0
    worse, base = ((traced, untraced) if better == "lower"
                   else (untraced, traced))
    return 100.0 * (worse / base - 1.0)


def _per_layer(workload, spans, memo: Tuple[int, int], traced_s: float,
               untraced: Dict[str, Tuple[float, int]],
               traced: Dict[str, Tuple[float, int]],
               cli_floor: Dict[str, float]) -> Dict[str, float]:
    from tracing import cas_counts, layer_times

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    rows = layer_times(spans)
    for layer in _SPAN_LAYERS:
        row = rows.get(layer)
        if row is None:
            continue
        values[f"{layer}.self_pct"] = 100.0 * row["self_s"] / traced_s
        values[f"{layer}.calls"] = float(row["calls"])
        if layer in _SAMPLE_LAYERS:
            values[f"{layer}.samples"] = float(row["samples"])
    cas = cas_counts(spans)
    values["cas.hits"] = float(cas["hits"])
    values["cas.hit_ratio"] = _ratio(cas["hits"], values["cas.get.calls"])
    values["cas.put.bytes"] = float(cas["put_bytes"])
    values["memo.hits"], values["memo.lookups"] = map(float, memo)
    values["memo.hit_ratio"] = _ratio(*memo)
    values.update(workload.layer_metrics())
    values.update(cli_floor)
    for name, _, better in END_TO_END:
        if name != "setup_s":
            values[f"overhead.{name}_pct"] = _overhead_pct(
                untraced[name][0], traced[name][0], better)
    return values


def _cli_floor(ctx: Context) -> Dict[str, float]:
    """Median wall time of each cold-start floor command, in ms."""
    floor = {}
    for name, args in _CLI_FLOOR:
        times = []
        for _ in range(ctx.knobs["cli_repeats"]):
            t0 = time.perf_counter()
            subprocess.run([sys.executable] + args, cwd=ctx.root,
                           env=ctx.child_env(), check=True,
                           stdout=subprocess.DEVNULL, timeout=120)
            times.append(1e3 * (time.perf_counter() - t0))
        floor[name] = median(times)
    return floor


def _summarize_spans(path: str) -> Tuple[int, str]:
    from repro.cli import run_command

    out, err = io.StringIO(), io.StringIO()
    code = run_command(["trace", "summarize", path], stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


def _run_traced(workload, seconds: float):
    from repro.obs import trace as obs_trace
    from tracing import Instrumentation, MemoryTracer

    tracer = MemoryTracer()
    instrumentation = Instrumentation()
    memo = [0, 0]

    def harvest():
        hits, lookups = instrumentation.memo_counts()
        instrumentation.stores.clear()
        memo[0] += hits
        memo[1] += lookups

    workload.on_op = harvest
    previous = obs_trace.install(tracer)
    try:
        started = time.perf_counter()
        phase = workload.measure_phase(seconds, traced=True)
        wall_s = time.perf_counter() - started
    finally:
        obs_trace.uninstall(previous)
        instrumentation.restore()
        tracer.close()
        workload.on_op = lambda: None
    harvest()
    return (phase, wall_s, list(tracer.spans) + workload.extra_spans(),
            tuple(memo))


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", default="perfbench-results",
                        help="result directory, relative to the checkout root")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one workload; returns the exit code."""
    args = _parse_args(argv)
    # A terminated run still stops its daemon and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if WORKLOADS[args.workload].pin_core:
        # One core for this process and every process it starts, so that
        # the speed probe samples the core the work runs on (hostspeed).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed, size=args.size)
    workload = WORKLOADS[args.workload](ctx)
    try:
        if args.setup_only:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED,
                              "failures": workload.setup_failures}))
            return 0
        return _benchmark(args, workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def _benchmark(args, workload) -> int:
    environment = _environment()
    setup = workload.setup_samples(_STARTED)
    setup_s = [seconds for seconds, _ in setup]
    import numpy

    environment["numpy"] = numpy.__version__
    _log(f"[{args.workload}] set-up {median(setup_s):.3f} s "
            f"({len(setup_s)} samples); measuring {args.seconds:g} s")
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = workload.measure_phase(seconds, traced=False)
    untraced = _phase_e2e(workload, phase, setup)
    phases = [phase]
    factors = workload.probe.factors
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "setup_samples_s": setup_s,
              "setup_start_factors": [factor for _, factor in setup],
              "end_to_end": _as_detail(untraced),
              "raw_end_to_end": _as_detail(
                  _phase_e2e(workload, phase, setup, scaled=False)),
              "host_speed": {"probes": len(factors),
                             "median_factor": median(factors),
                             "min_factor": min(factors),
                             "max_factor": max(factors)},
              "operations": _operations(phase)}
    if args.trace:
        traced_phase, traced_s, spans, memo = _run_traced(workload, seconds)
        phases.append(traced_phase)
        traced = _phase_e2e(workload, traced_phase, setup)
        cli_floor = _cli_floor(workload.ctx)
        values = _per_layer(workload, spans, memo, traced_s, untraced,
                            traced, cli_floor)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        os.makedirs(args.out, exist_ok=True)
        span_path = os.path.join(args.out, f"{args.workload}.seed{args.seed}"
                                           f".trace1.spans.jsonl")
        from tracing import write_spans

        write_spans(spans, span_path)
        code, summary = _summarize_spans(span_path)
        _log(summary)
        if code != 0:
            workload.setup_failures.append(
                f"trace summarize exited {code} on {span_path}")
        detail.update({
            "traced_end_to_end": _as_detail(traced),
            "traced_operations": _operations(traced_phase),
            "traced_phase_s": traced_s,
            "span_file": span_path, "spans": len(spans),
            "bases": {"memo.hit_ratio": {"hits": memo[0],
                                         "lookups": memo[1]},
                      "cas.hit_ratio": {"hits": values["cas.hits"],
                                        "gets": values["cas.get.calls"]},
                      "self_pct": {"traced_phase_s": traced_s},
                      "serve.coalesced": {
                          "coalesced": values["serve.coalesced"],
                          "requests": values["serve.requests"]},
                      "serve.cache_hit_rate": {
                          "hits": values["serve.cache_hits"],
                          "lookups": values["serve.cache_lookups"]}},
        })
    else:
        metrics = {name: {"value": untraced[name][0], "unit": unit}
                   for name, unit, _ in END_TO_END}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = workload.setup_failures + [f for p in phases
                                          for f in p.failures]
    environment["loadavg_end"] = list(os.getloadavg())
    detail.update({
        "bases": {**detail.get("bases", {}), **phases[0].bases},
        "failed_checks": failures, "environment": environment})
    result = {"correct": not failures and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, f"{args.workload}.seed{args.seed}"
                                     f".trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2,
                  sort_keys=True)
    for failure in failures:
        _log(f"FAILED: {failure}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
