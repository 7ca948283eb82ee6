"""Benchmark-side span recording for the traced run (``--trace 1``).

The program already opens ``repro.obs`` spans at some layer boundaries
(``flow.*``, ``cas.*``, ``payload.execute``, ``serve.*``).  For the layers
that have none yet, :class:`Instrumentation` wraps their public entry points
from outside, under the span names the roadmap plans for them:

==========================  ============================================
span                        wrapped entry point
==========================  ============================================
``dsm.modulate``            ``DeltaSigmaModulator.simulate`` (all engines)
``dsm.modulate_batch``      ``DeltaSigmaModulator.simulate_batch``
``chain.process``           ``DecimationChain.process_fixed`` (1-D, 2-D)
``analysis.fft``            ``analyze_tone``, ``analyze_tone_batch``
``power.activity``          ``measure_hogenauer_activity``
==========================  ============================================

Both kinds of span go to one :class:`MemoryTracer`, installed as the
process's ``repro.obs`` tracer only for the traced phase, so parent links
run across the two.  Spans stay in memory until :func:`write_spans` writes
them in the JSON-lines format ``repro trace summarize`` reads.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  When a span name nests inside itself
(a later change may add a program span where this module adds a wrapper),
only the outermost span counts toward the name's inclusive time, calls
and samples, so nothing is counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
from typing import Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.obs import trace as obs_trace


class MemoryTracer(obs_trace.Tracer):
    """A ``repro.obs`` tracer that keeps completed spans in a list.

    It opens no file: the traced run must not pay for per-span writes,
    so :func:`write_spans` serializes everything once at the end.
    """

    def __init__(self) -> None:
        """Set up the state :class:`repro.obs.trace.Span` relies on (the
        base initializer would open a file)."""
        self.path = None
        self.trace_id = os.urandom(8).hex()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self.spans: List[Dict[str, Any]] = []

    def _emit(self, span_obj: obs_trace.Span, t0_wall: float,
              duration_s: float, ok: bool) -> None:
        entry = {"trace": self.trace_id, "span": span_obj.span_id,
                 "parent": span_obj.parent_id, "pid": os.getpid(),
                 "name": span_obj.name, "t0": t0_wall, "dur_s": duration_s,
                 "ok": ok, "attrs": dict(span_obj.attrs)}
        with self._lock:
            if not self._closed:
                self.spans.append(entry)

    def close(self) -> None:
        """Stop recording; the spans stay readable."""
        with self._lock:
            self._closed = True


def _spanned(name: str, fn: Callable, samples: Callable[..., int]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs_trace.span(name, samples=samples(*args, **kwargs)):
            return fn(*args, **kwargs)
    return wrapper


def _input_size(instance, data=(), *args, **kwargs) -> int:
    """Element count of a method's first positional argument (the samples
    fed in); never raises, so the wrapped call always runs."""
    return int(np.size(data))


def _no_samples(*args, **kwargs) -> int:
    return 0


class Instrumentation:
    """Wrap the layer entry points and count artifact-store lookups.

    Construct it, run the traced phase, then call :meth:`restore`; the
    originals are put back everywhere they were bound.  Every
    :class:`repro.flow.ArtifactStore` created in between is remembered,
    so its ``hits``/``misses`` give ``memo.hit_ratio`` with its base.
    """

    def __init__(self) -> None:
        from repro.core.chain import DecimationChain
        from repro.dsm import spectrum
        from repro.dsm.modulator import DeltaSigmaModulator
        from repro.flow.artifacts import ArtifactStore
        from repro.hardware import power

        self.stores: List[Any] = []
        self._methods: List[Tuple[type, str, Callable]] = []
        self._functions: List[Tuple[Callable, Callable]] = []

        self._wrap_method(DeltaSigmaModulator, "simulate", "dsm.modulate",
                          _input_size)
        self._wrap_method(DeltaSigmaModulator, "simulate_batch",
                          "dsm.modulate_batch", _input_size)
        self._wrap_method(DecimationChain, "process_fixed", "chain.process",
                          _input_size)
        self._wrap_function(spectrum.analyze_tone, "analysis.fft")
        self._wrap_function(spectrum.analyze_tone_batch, "analysis.fft")
        self._wrap_function(power.measure_hogenauer_activity,
                            "power.activity")

        original_init = ArtifactStore.__init__
        stores = self.stores

        @functools.wraps(original_init)
        def init(store, *args, **kwargs):
            original_init(store, *args, **kwargs)
            stores.append(store)
        ArtifactStore.__init__ = init
        self._methods.append((ArtifactStore, "__init__", original_init))

    def _wrap_method(self, cls: type, attr: str, name: str,
                     samples: Callable[..., int]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, _spanned(name, original, samples))
        self._methods.append((cls, attr, original))

    def _wrap_function(self, fn: Callable, name: str) -> None:
        wrapper = _spanned(name, fn, _no_samples)
        self._functions.append((fn, wrapper))
        self._rebind(fn, wrapper)

    @staticmethod
    def _rebind(old: Callable, new: Callable) -> None:
        """Replace every module-level binding of ``old`` in the program's
        modules (``from x import f`` copies the name into the importer)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    def memo_counts(self) -> Tuple[int, int]:
        """``(hits, lookups)`` summed over the stores created so far."""
        hits = sum(store.hits for store in self.stores)
        misses = sum(store.misses for store in self.stores)
        return hits, hits + misses

    def restore(self) -> None:
        """Put every original entry point back."""
        for cls, attr, original in reversed(self._methods):
            setattr(cls, attr, original)
        for original, wrapper in self._functions:
            self._rebind(wrapper, original)


def write_spans(spans: Iterable[Dict[str, Any]], path: str) -> None:
    """Write spans as ``repro.obs`` JSON lines (same keys, key order and
    rounding as :class:`repro.obs.trace.Tracer`)."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in spans:
            line = dict(entry)
            line["t0"] = round(line["t0"], 6)
            line["dur_s"] = round(line["dur_s"], 9)
            fh.write(json.dumps(line, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def layer_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive seconds, self seconds, calls and samples.

    Spans link to parents within one ``(trace, pid)`` group; a span whose
    ancestors include its own name is nested and adds only self time.
    """
    by_key = {(s["trace"], s["pid"], s["span"]): s for s in spans}
    children: Dict[Tuple, List[Tuple[float, float]]] = {}
    for entry in spans:
        if entry.get("parent") is not None:
            key = (entry["trace"], entry["pid"], entry["parent"])
            children.setdefault(key, []).append(
                (entry["t0"], entry["t0"] + entry["dur_s"]))

    def nested(entry: Dict[str, Any]) -> bool:
        parent = entry.get("parent")
        while parent is not None:
            ancestor = by_key.get((entry["trace"], entry["pid"], parent))
            if ancestor is None:
                return False
            if ancestor["name"] == entry["name"]:
                return True
            parent = ancestor.get("parent")
        return False

    rows: Dict[str, Dict[str, float]] = {}
    for key, entry in by_key.items():
        row = rows.setdefault(entry["name"], {"s": 0.0, "self_s": 0.0,
                                              "calls": 0, "samples": 0})
        start = entry["t0"]
        covered = _covered(children.get(key, []), start,
                           start + entry["dur_s"])
        row["self_s"] += max(0.0, entry["dur_s"] - covered)
        if not nested(entry):
            row["s"] += entry["dur_s"]
            row["calls"] += 1
            row["samples"] += int(entry.get("attrs", {}).get("samples", 0))
    return rows


def cas_counts(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """CAS read hits and written bytes, from the ``cas.*`` span attributes."""
    hits = sum(1 for s in spans
               if s["name"] == "cas.get" and s["attrs"].get("hit") is True)
    put_bytes = sum(int(s["attrs"].get("bytes", 0)) for s in spans
                    if s["name"] == "cas.put")
    return {"hits": hits, "put_bytes": put_bytes}
