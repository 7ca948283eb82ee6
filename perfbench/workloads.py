"""The benchmark's four workloads.

Each workload is a closed loop: the next operation starts only when the
previous one has returned.  The seed varies the stimuli and the order of
work, never the amount of work.

``flow``
    One in-process caller alternating ``run_design_flow()`` (paper spec,
    activity on, no memo store) with a 65536-sample SNR run of a seeded
    coherent in-band tone and phase at 0.9 x MSA.  The pure-Python
    modulator loop and the reference activity path dominate it.  It never
    touches the CAS or the daemon.
``montecarlo``
    ``run_robustness("lte-20", n_samples=256, seed=<drawn>,
    stimulus_samples=8192, jobs=1, cache_dir=None)`` with the CLI's
    default perturbation model, each
    followed by the pinned golden run checked against its committed
    record: batched modulator, batched chain, batched FFT; no activity, CAS
    or daemon.
``sweep``
    Cycles of one cold 3x3x3 ``run_sweep`` (sinc split x output bits x
    halfband attenuation, ``include_snr=True``, two thread workers) into a
    fresh local-directory ``ArtifactCAS``, then warm resumes of the same
    grid.  The only workload whose time goes to CAS writes, reads,
    ``probe_many``, the executor and in-run memo sharing.
``serve``
    A ``repro serve --jobs 2`` daemon driven by one closed-loop
    ``ServeClient`` connection sending 16 ``--no-activity`` requests over
    and over, each pass in a seeded order, then ``repro client``
    processes.  The only workload with the daemon's admission, queue,
    compute and write path and CLI cold start.

A workload measures set-up through :meth:`Workload.setup_samples`
(untimed warm-up included) and one phase of timed operations through
:meth:`Workload.measure_phase`, which samples the host speed around
:meth:`Workload.run_phase`; :mod:`run` turns them into metrics.

Every workload reports the same end-to-end names, each defined by the
workload's own operations:

==============  ==================  ====================  =================
workload        primary operation   secondary operation   one work item
==============  ==================  ====================  =================
``flow``        design flow         65k-sample SNR run    design flow and
                                                          SNR run
``montecarlo``  256-sample run      golden check run      Monte Carlo
                                                          sample
``sweep``       cold 27-point       warm resume           cold grid point
                sweep
``serve``       served request      ``repro client``      served request
                                    process
==============  ==================  ====================  =================
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from hostspeed import SpeedProbe, start_factor
from stats import min_samples, percentile

#: Per-size knobs.  At full size the flow loop runs at least as long as
#: its medians need and the serve loop as long as the p90 of the detail
#: line needs.  ``smoke`` finishes each workload in seconds and still
#: emits every metric; the benchmark's tests use it.
SIZES = {
    "full": {"setup_repeats": 3, "flow_min_pairs": min_samples(50),
             "mc_samples": 256, "sweep_resumes": 5,
             "serve_min_requests": min_samples(90),
             "serve_cli_runs": 3, "cli_repeats": 3},
    "smoke": {"setup_repeats": 1, "flow_min_pairs": 1, "mc_samples": 16,
              "sweep_resumes": 2, "serve_min_requests": 4,
              "serve_cli_runs": 1, "cli_repeats": 1},
}


@dataclass
class Phase:
    """Timed operations of one phase, with their checks."""

    #: ``(start, end, speed factor or None)`` of every operation that
    #: passed its checks, by kind.
    ops: Dict[str, List[Tuple[float, float, Optional[float]]]] = field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: The base of each rate metric: ``{"work_items_per_s": {"item":
    #: "served request", "items": 784, "ops": ["request"]}}``, the rate
    #: being items per second of the listed operations.
    bases: Dict[str, dict] = field(default_factory=dict)

    def add(self, name: str, t0: float, t1: float,
            factor: Optional[float] = None) -> None:
        """Record one operation that passed its checks, with the speed
        factor measured for it, if any."""
        self.ops.setdefault(name, []).append((t0, t1, factor))

    def durations(self, name: str,
                  probe: Optional[SpeedProbe] = None) -> List[float]:
        """Seconds of each ``name`` operation that passed its checks, as
        measured, or scaled to the reference host speed by ``probe``."""
        def scale(t0: float, t1: float, factor: Optional[float]) -> float:
            if probe is None:
                return 1.0
            if factor is not None:
                return factor
            return probe.factor(t0, t1)

        return [(t1 - t0) / scale(t0, t1, factor)
                for t0, t1, factor in self.ops.get(name, [])]

    def outcome(self, ok: bool, what: str) -> None:
        """Count one operation; a failed check fails the operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_span(op: str):
    """The benchmark's own span around one timed operation (a no-op
    unless the traced phase installed a tracer)."""
    from repro.obs import trace as obs_trace

    return obs_trace.span("bench.op", op=op)


def _median_ms(seconds: Sequence[float]) -> Tuple[float, int]:
    """``(median in ms, sample count)``; zero when every operation failed
    (the run then reports ``correct: false``)."""
    if not seconds:
        return 0.0, 0
    return 1e3 * percentile(seconds, 50), len(seconds)


@dataclass
class Context:
    """What every workload needs from the runner."""

    root: str
    workdir: str
    seed: int
    size: str

    @property
    def knobs(self) -> dict:
        """The :data:`SIZES` entry of this run."""
        return SIZES[self.size]

    def child_env(self) -> Dict[str, str]:
        """Environment for program subprocesses: the checkout's sources."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        return env


class Workload:
    """Base class: set-up, phases of timed operations, clean-up."""

    name = ""
    #: Operation kinds (keys of :attr:`Phase.ops`) whose medians are
    #: ``primary_op_ms.p50`` and ``secondary_op_ms.p50``.
    primary = ""
    secondary = ""
    #: Whether the run pins itself and its child processes to one core,
    #: so that work in a child runs on the core the speed probe samples.
    pin_core = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        self.probe = SpeedProbe()
        self.setup_failures: List[str] = []
        #: Called after every timed operation (the traced phase harvests
        #: artifact-store counters here).
        self.on_op: Callable[[], None] = lambda: None

    def check(self, ok: bool, what: str) -> None:
        """Record a failed set-up check."""
        if not ok:
            self.setup_failures.append(what)

    def setup(self) -> None:
        """Import the program and run one untimed warm-up operation."""
        raise NotImplementedError

    def setup_samples(self, started: float
                      ) -> List[Tuple[float, float]]:
        """``(seconds, start-up speed factor)`` of every set-up of this
        run: this process's own, from ``started``, then fresh processes
        doing the same."""
        self.setup()
        samples = [(time.perf_counter() - started, start_factor())]
        for _ in range(self.ctx.knobs["setup_repeats"] - 1):
            factor = start_factor()
            samples.append((self._child_setup(), factor))
        return samples

    def _child_setup(self) -> float:
        argv = [sys.executable, os.path.join(self.ctx.root, "perfbench",
                                             "run.py"),
                "--workload", self.name, "--seed", str(self.ctx.seed),
                "--size", self.ctx.size, "--setup-only"]
        proc = subprocess.run(argv, cwd=self.ctx.root, capture_output=True,
                              text=True, timeout=150)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): "
                               f"{proc.stderr[-2000:]}")
        result = json.loads(lines[-1])
        self.setup_failures.extend(result["failures"])
        return float(result["setup_s"])

    def measure_phase(self, seconds: float, traced: bool) -> Phase:
        """:meth:`run_phase` between two speed probes."""
        self.probe.measure()
        phase = self.run_phase(seconds, traced)
        self.probe.measure()
        return phase

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        """Run timed operations for ``seconds`` (and at least the size's
        minimum count), sampling the host speed between operations."""
        raise NotImplementedError

    def end_to_end(self, phase: Phase, scaled: bool = True
                   ) -> Dict[str, Tuple[float, int]]:
        """``{metric: (value, samples)}`` of the workload's operations: the
        two operation medians and the work rate, whose base the phase
        recorded as ``bases["work_items_per_s"]``; scaled to the reference
        host speed unless ``scaled`` is false."""
        probe = self.probe if scaled else None
        base = phase.bases["work_items_per_s"]
        seconds = sum(sum(phase.durations(kind, probe))
                      for kind in base["ops"])
        rate = base["items"] / seconds if seconds else 0.0
        return {"primary_op_ms.p50":
                _median_ms(phase.durations(self.primary, probe)),
                "secondary_op_ms.p50":
                _median_ms(phase.durations(self.secondary, probe)),
                "work_items_per_s": (rate, base["items"])}

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer metrics the workload measures itself, after the
        traced phase (the span-derived ones come from :mod:`tracing`)."""
        return {}

    def extra_spans(self) -> List[dict]:
        """Spans recorded outside this process during the traced phase."""
        return []

    def close(self) -> None:
        """Release what the workload holds (processes, files)."""


# ----------------------------------------------------------------------
# flow
# ----------------------------------------------------------------------
class FlowWorkload(Workload):
    """Single in-process caller: design flow, then a 65k-sample SNR run."""

    name = "flow"
    primary = "design_flow"
    secondary = "snr_run"

    #: Record length of the SNR run (the paper's Table I measurement).
    SNR_SAMPLES = 65536
    #: Floor of the SNR check (paper: 86 dB; the flow measures 84.9 dB).
    MIN_SNR_DB = 80.0
    #: Drive level as a share of the MSA.  The chain's output word clips
    #: above about 0.93 x MSA: at the flow's default 0.95 x MSA every tone
    #: and phase but the default phase-0 bandwidth/4 tone measures 41-46 dB.
    #: At 0.9 x MSA every drawn tone and phase measures 84.2-84.9 dB.
    DRIVE_MSA = 0.9
    #: Drawn tones lie in this share of the signal band.
    TONE_BAND = (0.05, 0.95)

    def setup(self) -> None:
        from repro.core.verification import simulated_output_snr
        from repro.flow import run_design_flow

        self._run_design_flow = run_design_flow
        self._simulated_output_snr = simulated_output_snr
        result = run_design_flow()
        self.check(result.meets_spec, "warm-up design flow misses the spec")
        self.reference = json.dumps(result.record(), sort_keys=True)
        self.check(self._snr(result.chain, 0.25, 0.0) >= self.MIN_SNR_DB,
                   "warm-up SNR run below the floor")

    def _snr(self, chain, tone: float, phase: float) -> float:
        """SNR of a coherent tone at ``tone`` x bandwidth."""
        modulator = chain.spec.modulator
        return self._simulated_output_snr(
            chain, n_samples=self.SNR_SAMPLES,
            tone_hz=tone * modulator.bandwidth_hz,
            amplitude=self.DRIVE_MSA * modulator.msa, seed_phase=phase)

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        min_pairs = self.ctx.knobs["flow_min_pairs"]
        started = time.perf_counter()
        pairs = completed = 0
        while time.perf_counter() - started < seconds or pairs < min_pairs:
            pairs += 1
            try:
                with bench_span("design_flow"):
                    t0 = time.perf_counter()
                    result = self._run_design_flow()
                    t1 = time.perf_counter()
                same = json.dumps(result.record(),
                                  sort_keys=True) == self.reference
                ok = result.meets_spec and same
                if ok:
                    phase.add("design_flow", t0, t1)
                phase.outcome(ok, f"design flow #{pairs}: meets_spec="
                                  f"{result.meets_spec} record_identical="
                                  f"{same}")
            except Exception:  # noqa: BLE001 - count it and keep measuring
                phase.outcome(False, traceback.format_exc(limit=3))
                continue
            self.on_op()
            self.probe.sample()
            tone = self.rng.uniform(*self.TONE_BAND)
            tone_phase = self.rng.uniform(0.0, 2.0 * math.pi)
            try:
                with bench_span("snr_run"):
                    t0 = time.perf_counter()
                    snr = self._snr(result.chain, tone, tone_phase)
                    t1 = time.perf_counter()
                if snr >= self.MIN_SNR_DB:
                    phase.add("snr_run", t0, t1)
                    completed += int(ok)
                phase.outcome(snr >= self.MIN_SNR_DB,
                              f"SNR run #{pairs} (tone {tone:.3f} x bw, "
                              f"phase {tone_phase:.3f}): {snr:.2f} dB")
            except Exception:  # noqa: BLE001
                phase.outcome(False, traceback.format_exc(limit=3))
            self.on_op()
            self.probe.sample()
        phase.bases["work_items_per_s"] = {
            "item": "design flow + SNR run, both checks passed",
            "items": completed, "ops": ["design_flow", "snr_run"]}
        phase.peak_rss_mb = self_peak_rss_mb()
        return phase


# ----------------------------------------------------------------------
# montecarlo
# ----------------------------------------------------------------------
class MonteCarloWorkload(Workload):
    """Batched Monte Carlo robustness runs over the paper's lte-20 chain."""

    name = "montecarlo"
    primary = "run"
    secondary = "golden_check"
    SCENARIO = "lte-20"
    #: Stimulus record of a run (``--stimulus-samples``), shorter than the
    #: scenario's: a run of the default record takes 4-6 s, so a phase
    #: held only three, and its arrays of tens of MB moved with the host
    #: otherwise than the probe.
    STIMULUS_SAMPLES = 8192

    def setup(self) -> None:
        from repro.robustness import (GOLDEN_RUN_SETTINGS,
                                      check_robustness_record, run_robustness)

        self._run_robustness = run_robustness
        self._check_record = check_robustness_record
        self._golden = GOLDEN_RUN_SETTINGS
        diffs = self._golden_diffs()
        self.check(not diffs, f"golden robustness run drifted: {diffs[:3]}")

    def _golden_diffs(self) -> List[str]:
        """Run the pinned golden configuration (what ``repro robustness
        check`` runs); the differences from its committed record."""
        settings = self._golden
        report = self._run_robustness(
            settings["scenario"], n_samples=settings["n_samples"],
            seed=settings["seed"],
            stimulus_samples=settings["stimulus_samples"])
        return self._check_record(settings["scenario"], report.record)

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        n_samples = self.ctx.knobs["mc_samples"]
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not phase.attempted:
            seed = self.rng.randrange(1, 2 ** 31)
            try:
                with bench_span("robustness_run"):
                    t0 = time.perf_counter()
                    report = self._run_robustness(
                        self.SCENARIO, n_samples=n_samples, seed=seed,
                        stimulus_samples=self.STIMULUS_SAMPLES, jobs=1,
                        cache_dir=None)
                    t1 = time.perf_counter()
                rows = report.record["samples"]
                finite = all(math.isfinite(row[key]) for row in rows
                             for key in ("snr_db", "power_mw", "area_mm2"))
                ok = len(rows) == n_samples and finite
                if ok:
                    phase.add("run", t0, t1)
                phase.outcome(ok, f"robustness seed {seed}: {len(rows)} rows,"
                                  f" finite={finite}")
            except Exception:  # noqa: BLE001
                phase.outcome(False, traceback.format_exc(limit=3))
            self.on_op()
            self.probe.sample()
            try:
                with bench_span("golden_check"):
                    t0 = time.perf_counter()
                    diffs = self._golden_diffs()
                    t1 = time.perf_counter()
                if not diffs:
                    phase.add("golden_check", t0, t1)
                phase.outcome(not diffs, f"golden run drifted: {diffs[:3]}")
            except Exception:  # noqa: BLE001
                phase.outcome(False, traceback.format_exc(limit=3))
            self.on_op()
            self.probe.sample()
        phase.peak_rss_mb = self_peak_rss_mb()
        phase.bases["work_items_per_s"] = {
            "item": "Monte Carlo sample",
            "items": n_samples * len(phase.durations("run")),
            "ops": ["run"]}
        return phase


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """Cold sweeps into an empty CAS, each followed by warm resumes."""

    name = "sweep"
    primary = "cold"
    secondary = "resume"

    #: Each axis takes every value of its pool; the seed draws the order,
    #: which sets the expansion order of the 27 points.
    POOLS = {
        "sinc_orders": ((4, 4, 6), (3, 3, 5), "auto"),
        "output_bits": (12, 14, 16),
        "halfband_attenuation_db": (80.0, 85.0, 90.0),
    }
    POINTS = math.prod(len(pool) for pool in POOLS.values())

    def setup(self) -> None:
        from repro.explore import (ArtifactCAS, SweepSpec, run_sweep,
                                   sweep_report_json)

        self._cas = ArtifactCAS
        self._spec = SweepSpec
        self._run_sweep = run_sweep
        self._report = sweep_report_json
        probe = Phase()
        self._cycle(probe, resumes=1)
        self.check(not probe.failed, f"warm-up sweep failed: "
                                     f"{probe.failures[:2]}")

    def _sweep(self, spec, cas):
        return self._run_sweep(spec, cache_dir=cas, include_snr=True,
                               jobs=2, executor="thread")

    def _cycle(self, phase: Phase, resumes: int) -> None:
        grid = {axis: tuple(self.rng.sample(pool, len(pool)))
                for axis, pool in self.POOLS.items()}
        spec = self._spec(**grid)
        directory = tempfile.mkdtemp(prefix="cas-", dir=self.ctx.workdir)
        try:
            cas = self._cas(directory)
            with bench_span("sweep_cold"):
                t0 = time.perf_counter()
                cold = self._sweep(spec, cas)
                t1 = time.perf_counter()
            cold_ok = len(cold.points) == self.POINTS == cold.cache_misses
            if cold_ok:
                phase.add("cold", t0, t1)
            phase.outcome(cold_ok, f"cold sweep ran {cold.cache_misses} of "
                                   f"{self.POINTS} points")
            self.on_op()
            self.probe.sample()
            reference = self._report(cold)
            for index in range(resumes):
                with bench_span("sweep_resume"):
                    t0 = time.perf_counter()
                    warm = self._sweep(spec, cas)
                    t1 = time.perf_counter()
                stored = (warm.cache_misses == 0
                          and all(p.from_cache for p in warm.points))
                same = self._report(warm) == reference
                if stored and same:
                    phase.add("resume", t0, t1)
                phase.outcome(stored and same,
                              f"resume #{index}: all_from_store={stored} "
                              f"report_identical={same}")
                self.on_op()
                self.probe.sample()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        phase = Phase()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or not phase.attempted:
            try:
                self._cycle(phase, self.ctx.knobs["sweep_resumes"])
            except Exception:  # noqa: BLE001
                phase.outcome(False, traceback.format_exc(limit=3))
        phase.peak_rss_mb = self_peak_rss_mb()
        phase.bases["work_items_per_s"] = {
            "item": "grid point of a cold sweep",
            "items": self.POINTS * len(phase.durations("cold")),
            "ops": ["cold"]}
        return phase


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve_requests() -> List[Tuple[str, ...]]:
    """{design, verify} x {paper, audio} x {45 nm, 90 nm} x {default,
    auto} sinc split, all ``--no-activity``."""
    requests = []
    for verb in ("design", "verify"):
        for spec in ("paper", "audio"):
            for library in ("generic-45nm", "generic-90nm"):
                for split in ((), ("--sinc-orders-base", "auto")):
                    requests.append((verb, "--no-activity", "--spec", spec,
                                     "--library", library) + split)
    return requests


class Daemon:
    """One ``repro serve`` subprocess on a UNIX socket in the work dir."""

    def __init__(self, ctx: Context, index: int,
                 trace_path: Optional[str] = None) -> None:
        from repro.serve.client import parse_address

        # A relative path keeps the socket name short whatever the
        # checkout's location; every process involved runs in the root.
        self.socket = os.path.relpath(
            os.path.join(ctx.workdir, f"serve-{index}.sock"), ctx.root)
        self.address = parse_address(f"unix:{self.socket}")
        argv = [sys.executable, "-m", "repro", "serve", "--socket",
                self.socket, "--jobs", "2"]
        if trace_path is not None:
            argv += ["--trace", trace_path]
        self._log = open(os.path.join(ctx.workdir, f"serve-{index}.log"),
                         "wb")
        self.process = subprocess.Popen(argv, cwd=ctx.root,
                                        env=ctx.child_env(),
                                        stdout=self._log,
                                        stderr=subprocess.STDOUT)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until the daemon answers ``ping``."""
        from repro.serve.client import call

        deadline = time.perf_counter() + timeout_s
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with "
                                   f"{self.process.returncode}")
            try:
                if call(self.address, "ping", timeout=10.0)["exit_code"] == 0:
                    return
            except OSError:
                if time.perf_counter() > deadline:
                    raise
            time.sleep(0.005)

    def call(self, verb: str) -> dict:
        """One control request (``stats``, ``metrics``)."""
        from repro.serve.client import call

        return call(self.address, verb, timeout=60.0)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident memory (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Shut the daemon down and wait for it (kill if it hangs)."""
        from repro.serve.client import call

        try:
            if self.process.poll() is None:
                call(self.address, "shutdown", timeout=10.0)
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self._log.close()


class ServeWorkload(Workload):
    """One closed-loop connection to a daemon, then CLI client runs.

    One connection, not several: the benchmark process and the daemon
    already keep two cores busy, and more client threads made the request
    times measure the host's scheduler (spread 0.30 against 0.13 over
    five seeds with two connections).
    """

    name = "serve"
    primary = "request"
    secondary = "client_cli"
    #: The daemon and the ``repro client`` processes run on the probed
    #: core (unpinned, their times spread twice as wide over seeds).
    pin_core = True

    #: Share of a phase spent in the closed loop; the rest runs
    #: ``repro client`` processes.  A request takes about 10 ms and a
    #: client process 1.5 s, varying by 20 % from one to the next, so the
    #: processes get most of the phase (about ten per 20 s run).
    LOOP_SHARE = 0.2
    CLI_ARGV = ("design", "--no-activity")

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.requests = _serve_requests()
        self.daemon: Optional[Daemon] = None
        self.spawned = 0
        self.daemon_trace: Optional[str] = None
        self.scrapes: Dict[str, dict] = {}

    def _spawn(self, trace_path: Optional[str] = None) -> Daemon:
        self.spawned += 1
        return Daemon(self.ctx, self.spawned, trace_path)

    def setup(self) -> None:
        from repro.cli import run_command

        self.expected = {}
        for argv in self.requests + [self.CLI_ARGV]:
            out, err = io.StringIO(), io.StringIO()
            code = run_command(list(argv), stdout=out, stderr=err)
            self.expected[argv] = (code, out.getvalue())
        self.check(self.expected[self.CLI_ARGV][0] == 0,
                   "in-process design run failed")

    def setup_samples(self, started: float
                      ) -> List[Tuple[float, float]]:
        """Daemon spawn until its first ``ping`` is answered, several
        times, with the start-up speed factor before each; the last
        daemon serves the untraced phase."""
        self.setup()
        samples = []
        for index in range(self.ctx.knobs["setup_repeats"]):
            factor = start_factor()
            t0 = time.perf_counter()
            daemon = self._spawn()
            try:
                daemon.wait_ready()
            except Exception:
                daemon.stop()
                raise
            samples.append((time.perf_counter() - t0, factor))
            if index < self.ctx.knobs["setup_repeats"] - 1:
                daemon.stop()
        self.daemon = daemon
        return samples

    def _client_loop(self, phase: Phase, deadline: float) -> None:
        from repro.serve.client import ServeClient

        rng = random.Random(f"serve:{self.ctx.seed}")
        requests = 0
        # Each pass sends all 16 requests in a fresh seeded order, so every
        # seed sends the same mix of verbs, specs and sinc splits.
        order: List[Tuple[str, ...]] = []
        with ServeClient(self.daemon.address, timeout=60.0) as client:
            while (time.perf_counter() < deadline
                   or requests < self.ctx.knobs["serve_min_requests"]):
                requests += 1
                if not order:
                    order = rng.sample(self.requests, len(self.requests))
                argv = order.pop()
                with bench_span("request"):
                    t0 = time.perf_counter()
                    response = client.request(argv[0], list(argv[1:]))
                    t1 = time.perf_counter()
                code, stdout = self.expected[argv]
                ok = (response.get("exit_code") == code
                      and response.get("stdout") == stdout)
                if ok:
                    phase.add("request", t0, t1)
                phase.outcome(ok, " ".join(argv))
                self.probe.sample()

    def _cli_run(self, phase: Phase) -> None:
        argv = [sys.executable, "-m", "repro", "client", "--socket",
                self.daemon.socket] + list(self.CLI_ARGV)
        with bench_span("client_cli"):
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=self.ctx.root,
                                  env=self.ctx.child_env(),
                                  capture_output=True, text=True, timeout=60)
            t1 = time.perf_counter()
        code, stdout = self.expected[self.CLI_ARGV]
        ok = proc.returncode == code and proc.stdout == stdout
        if ok:
            phase.add("client_cli", t0, t1)
        phase.outcome(ok, f"repro client exited {proc.returncode}")

    def run_phase(self, seconds: float, traced: bool) -> Phase:
        if traced:
            # The traced phase gets its own daemon, writing its spans.
            self.daemon_trace = os.path.join(self.ctx.workdir,
                                             "daemon-spans.jsonl")
            self.daemon = self._spawn(self.daemon_trace)
            self.daemon.wait_ready()
        phase = Phase()
        before = self._scrape()
        started = time.perf_counter()
        try:
            self._client_loop(phase, started + self.LOOP_SHARE * seconds)
        except Exception:  # noqa: BLE001 - the connection is gone
            phase.outcome(False, traceback.format_exc(limit=3))
        phase.bases["work_items_per_s"] = {
            "item": "served request",
            "items": len(phase.durations("request")), "ops": ["request"]}
        cli_runs = 0
        while (time.perf_counter() - started < seconds
               or cli_runs < self.ctx.knobs["serve_cli_runs"]):
            cli_runs += 1
            self.probe.measure()
            try:
                self._cli_run(phase)
            except Exception:  # noqa: BLE001
                phase.outcome(False, traceback.format_exc(limit=3))
            self.on_op()
        self.probe.measure()
        after = self._scrape()
        self.scrapes = {"before": before, "after": after}
        phase.peak_rss_mb = self.daemon.peak_rss_mb()
        self.daemon.stop()
        self.daemon = None
        return phase

    def _scrape(self) -> dict:
        from repro.obs import parse_exposition

        exposition = parse_exposition(self.daemon.call("metrics")["stdout"])
        return {"stats": self.daemon.call("stats")["stats"],
                "errors": exposition.get(("repro_serve_errors_total", ()),
                                         0.0),
                "shed": exposition.get(("repro_serve_shed_total", ()), 0.0)}

    def layer_metrics(self) -> Dict[str, float]:
        """The daemon's own counters, scraped around the traced phase."""
        before, after = self.scrapes["before"], self.scrapes["after"]

        def delta(*path):
            new, old = after["stats"], before["stats"]
            for key in path:
                new, old = new.get(key, {}), old.get(key, {})
            return float((new or 0) - (old or 0))

        stats = after["stats"]
        hits = delta("artifact_store", "hits")
        lookups = hits + delta("artifact_store", "misses")
        return {
            "serve.latency_ms.p50": float(stats["latency_ms"]["p50"]),
            "serve.queue_wait_ms.p50": float(stats["queue_wait_ms"]["p50"]),
            "serve.queue_wait_ms.p99": float(stats["queue_wait_ms"]["p99"]),
            "serve.coalesced": delta("coalesce", "coalesced"),
            "serve.requests": (delta("requests", "by_verb", "design")
                               + delta("requests", "by_verb", "verify")),
            "serve.cache_hits": hits,
            "serve.cache_lookups": lookups,
            "serve.cache_hit_rate": hits / lookups if lookups else 0.0,
            "serve.shed": after["shed"] - before["shed"],
            "serve.errors": after["errors"] - before["errors"],
        }

    def extra_spans(self) -> List[dict]:
        """The traced daemon's spans (``serve.*``, ``flow.*``, ...)."""
        from repro.obs import trace as obs_trace

        if self.daemon_trace and os.path.exists(self.daemon_trace):
            return obs_trace.read_spans(self.daemon_trace)
        return []

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {cls.name: cls for cls in (FlowWorkload, MonteCarloWorkload,
                                       SweepWorkload, ServeWorkload)}
