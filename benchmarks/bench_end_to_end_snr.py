"""Table I (bottom row) — end-to-end SNR of the decimated output.

Regenerates the 86 dB / 14-bit figure: the modulator is driven with a
near-MSA tone, its 4-bit code stream runs through the bit-true decimation
chain and the SNR of the 14-bit output is measured over the 20 MHz band.

The benchmark runs on the vectorized simulation engine (what the chain
picks for the paper's word widths); a second test compares the sample
throughput of the reference engines (forced through the
``reference_engines`` fixture of the root ``conftest.py``) and the
vectorized engines on the same record (typically a 50–100× speed-up) and
asserts a conservative 5× floor that stays robust on loaded CI runners.
"""

import time

import pytest

from benchutils import emit_json, print_series


def _end_to_end(paper_chain, n_samples):
    from repro.core.verification import simulated_output_snr

    return simulated_output_snr(paper_chain, n_samples=n_samples)


@pytest.mark.benchmark(group="snr")
def test_end_to_end_snr(benchmark, paper_chain):
    t0 = time.perf_counter()
    snr = benchmark.pedantic(_end_to_end, args=(paper_chain, 65536),
                             rounds=1, iterations=1)
    elapsed_s = time.perf_counter() - t0
    enob = (snr - 1.76) / 6.02
    rows = [
        ("measured SNR (0.95*MSA tone, 20 MHz band)", f"{snr:.1f} dB"),
        ("paper", "86 dB"),
        ("measured ENOB", f"{enob:.1f} bits"),
        ("paper resolution", "14 bits"),
    ]
    print_series("End-to-end SNR (Table I, decimated output)", ["quantity", "value"], rows)
    emit_json("end_to_end_snr", {
        "snr_db": snr,
        "enob": enob,
        "n_samples": 65536,
        "elapsed_s": elapsed_s,
    })
    assert snr > 80.0
    assert enob > 13.0


@pytest.mark.benchmark(group="snr")
def test_backend_throughput(paper_chain, reference_engines):
    """Reference vs vectorized sample throughput on the same code stream."""
    import numpy as np

    from repro.dsm import DeltaSigmaModulator, coherent_tone

    n = 32768
    modulator = DeltaSigmaModulator()
    result = modulator.simulate(coherent_tone(2.5e6, 0.7, 640e6, n), engine="fast")

    with reference_engines():
        start = time.perf_counter()
        ref = paper_chain.process_fixed(result.codes)
        t_ref = time.perf_counter() - start
    start = time.perf_counter()
    vec = paper_chain.process_fixed(result.codes)
    t_vec = time.perf_counter() - start
    assert np.array_equal(ref, vec)

    speedup = t_ref / t_vec
    rows = [
        ("reference engines", f"{n / t_ref / 1e6:.2f} Msamples/s"),
        ("vectorized engines", f"{n / t_vec / 1e6:.2f} Msamples/s"),
        ("speed-up", f"{speedup:.0f}x"),
    ]
    print_series("Bit-true chain throughput (engine comparison)",
                 ["engine", "throughput"], rows)
    # Typical speed-up is 50-100x; the floor is deliberately conservative so
    # the assertion stays robust on loaded CI runners (single un-warmed
    # timing pair), while still catching a regression that loses the fast
    # path entirely.
    assert speedup > 5.0
