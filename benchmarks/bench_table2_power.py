"""Table II and Figure 13 — power profile of the decimation filter at 1.1 V.

Regenerates the per-stage dynamic and leakage power table (Table II) and the
dynamic-power distribution pie chart (Fig. 13) using the paper's
methodology: the bit-true chain is stimulated with a 5 MHz sine at the MSA,
the measured switching activity drives the 45 nm standard-cell power model.

Absolute milliwatts depend on the cell-model calibration (documented in
DESIGN.md); the per-stage distribution and the totals' order of magnitude
are the reproduced result.

A second test times the switching-activity path itself against the rest of
the default design flow and checks that its (vectorized) toggle traces equal
the reference engine's on the same code stream; it writes
``BENCH_activity.json`` for ``tools/check_bench_floors.py``.
"""

import statistics
import time

import pytest

from benchutils import emit_json, print_series

#: Modulator samples the default design flow uses for the activity stimulus.
FLOW_ACTIVITY_SAMPLES = 4096

#: Table II of the paper (dynamic mW, leakage uW) for side-by-side printing.
PAPER_TABLE2 = {
    "Sinc4 stage 1": (2.36, 19.41),
    "Sinc4 stage 2": (1.13, 22.34),
    "Sinc6 stage 3": (1.16, 47.26),
    "Halfband": (1.28, 152.44),
    "Scaling Stage": (0.38, 11.13),
    "Equalizer": (1.73, 537.88),
    "Total": (8.04, 771.10),
}


def _table2(paper_chain):
    from repro.hardware import SynthesisFlow

    report = SynthesisFlow().run(paper_chain, measure_activity=True,
                                 activity_samples=4096)
    return report


@pytest.mark.benchmark(group="table2")
def test_table2_power_profile(benchmark, paper_chain):
    report = benchmark.pedantic(_table2, args=(paper_chain,), rounds=1, iterations=1)
    rows = []
    for row in report.power_table():
        label = row["Filter Stage"]
        paper_dyn, paper_leak = PAPER_TABLE2.get(label, ("-", "-"))
        rows.append((label, row["Dynamic Power (mW)"], paper_dyn,
                     row["Leakage Power (uW)"], paper_leak))
    print_series("Table II — power profile (VDD = 1.1 V)",
                 ["stage", "dynamic mW (ours)", "dynamic mW (paper)",
                  "leakage uW (ours)", "leakage uW (paper)"], rows)

    fractions = report.power_distribution()
    pie_rows = [(label, f"{fraction*100:.1f}%") for label, fraction in fractions.items()]
    print_series("Figure 13 — dynamic power distribution", ["stage", "share"], pie_rows)

    # Shape assertions: totals in the paper's range, scaling smallest,
    # halfband a modest share, equalizer + first Sinc among the largest.
    assert 5.0 < report.power.total_dynamic_mw < 12.0
    assert 400.0 < report.power.total_leakage_uw < 1200.0
    assert min(fractions, key=fractions.get) == "Scaling Stage"
    assert fractions["Halfband"] < 0.25
    top_three = sorted(fractions, key=fractions.get, reverse=True)[:3]
    assert "Equalizer" in top_three and "Sinc4 stage 1" in top_three


def _median_s(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _activity_traces(chain, backend):
    """Run the activity measurement with every Hogenauer stage forced onto
    ``backend``; return each stage's ``(samples, toggles)`` trace."""
    from dataclasses import replace

    from repro.hardware import measure_hogenauer_activity

    stages = chain._hogenauer_stages
    configs = [stage.config for stage in stages]
    try:
        for stage, config in zip(stages, configs):
            stage.config = replace(config, backend=backend)
        measure_hogenauer_activity(chain, n_samples=FLOW_ACTIVITY_SAMPLES)
        return [(stage.trace.samples, dict(stage.trace.toggles))
                for stage in stages]
    finally:
        for stage, config in zip(stages, configs):
            stage.config = config


@pytest.mark.benchmark(group="table2")
def test_activity_path_speed(paper_chain):
    """The activity path against the rest of the default design flow."""
    from repro.flow import run_design_flow
    from repro.hardware import measure_hogenauer_activity

    run_design_flow(measure_activity=False)  # warm the design caches
    activity_s = _median_s(lambda: measure_hogenauer_activity(
        paper_chain, n_samples=FLOW_ACTIVITY_SAMPLES))
    flow_no_activity_s = _median_s(
        lambda: run_design_flow(measure_activity=False))
    fast = _activity_traces(paper_chain, "auto")
    reference = _activity_traces(paper_chain, "reference")
    toggles_match = fast == reference and all(samples > 0 for samples, _ in fast)

    print_series("Switching-activity path (paper chain, 5 MHz MSA stimulus)",
                 ["quantity", "value"],
                 [("activity measurement", f"{activity_s * 1e3:.1f} ms"),
                  ("design flow without activity", f"{flow_no_activity_s * 1e3:.1f} ms"),
                  ("toggles match reference engine", toggles_match)])
    emit_json("activity", {
        "activity_s": activity_s,
        "flow_no_activity_s": flow_no_activity_s,
        "toggles_match_reference": toggles_match,
        "n_samples": FLOW_ACTIVITY_SAMPLES,
    })
    assert toggles_match
