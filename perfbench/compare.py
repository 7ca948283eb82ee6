"""Compare two sets of benchmark results.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the ``<workload>.seed<N>.trace<T>.json`` files that
``run.py --out DIR`` writes, one per run.  For every workload the helper
prints each end-to-end metric's median and quartiles on both sides and the
change of the median, and marks a metric ``unresolved`` where either
side's spread (quartile distance over median) exceeds the metric's bound
in ``BENCHMARK.json``; otherwise ``worse`` when the change's median is
worse by more than the bound, and ``ok``.  From traced runs it prints the
per-layer self-time shares (medians) and their change.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import quartiles  # noqa: E402


def load_runs(directory: str) -> Dict[tuple, List[dict]]:
    """``{(workload, trace): [result, ...]}`` of a result directory."""
    runs: Dict[tuple, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
        detail = document["detail"]
        runs.setdefault((detail["workload"], detail["trace"]), []).append(
            document["result"])
    return runs


def _values(results: List[dict], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def verdict(base: dict, change: dict, bound: float, better: str) -> str:
    """``unresolved``, ``worse`` or ``ok`` for one metric (see module
    docstring); ``base``/``change`` are :func:`stats.quartiles` dicts."""
    for side in (base, change):
        if side["spread"] is None or side["spread"] > bound:
            return "unresolved"
    ratio = change["median"] / base["median"]
    worse = ratio > 1.0 + bound if better == "lower" else ratio < 1.0 - bound
    return "worse" if worse else "ok"


def _fmt(q: dict) -> str:
    return f"{q['median']:>11.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"


def compare(base_dir: str, change_dir: str, benchmark: dict) -> str:
    """The comparison report as text."""
    base, change = load_runs(base_dir), load_runs(change_dir)
    e2e = {m["name"]: m for m in benchmark["end_to_end"]}
    lines: List[str] = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a, b = base.get((workload, 0), []), change.get((workload, 0), [])
        lines.append(f"== {workload}: {len(a)} base runs, {len(b)} change "
                     f"runs")
        for name, metric in e2e.items():
            va, vb = _values(a, name), _values(b, name)
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            delta = 100.0 * (qb["median"] / qa["median"] - 1.0)
            mark = verdict(qa, qb, metric["bound"], metric["better"])
            lines.append(f"  {name:<26} {_fmt(qa)} -> {_fmt(qb)} "
                         f"{delta:+7.2f}% {metric['unit']:<9} {mark}")
        ta, tb = base.get((workload, 1), []), change.get((workload, 1), [])
        if ta and tb:
            lines.append(f"  per-layer self time, {len(ta)} vs {len(tb)} "
                         f"traced runs (median % of the traced phase):")
            names = sorted(n for n in ta[0]["metrics"]
                           if n.endswith(".self_pct"))
            for name in names:
                ma = quartiles(_values(ta, name))["median"]
                mb = quartiles(_values(tb, name))["median"]
                if ma or mb:
                    lines.append(f"    {name:<30} {ma:>8.2f} -> {mb:>8.2f}"
                                 f" {mb - ma:+8.2f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Print the comparison of two result directories."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    print(compare(args.base, args.change, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
