"""Differential tests over generated inputs for the engines that claim
bit-exactness.

The power model's activity measurement runs the reference error-feedback
modulator and traces the Hogenauer stages, and the bit-true chain picks a
fast engine per stage from word widths alone.  All of them must be
bit-exact to a simpler oracle, which these tests check on
hypothesis-generated inputs:

* the ring-buffer :class:`ErrorFeedbackSimulator` against the original
  loop that shifts its error window with ``np.roll`` every sample (kept here
  as the oracle), including overloaded, unstable stimuli;
* the vectorized Hogenauer engine's toggle traces against the
  sample-by-sample reference engine over several consecutive ``process``
  calls, so carried streaming state and per-call trace semantics are
  covered;
* the whole decimation chain on its automatically chosen engines against
  the same chain forced onto the reference engines (the
  ``reference_engines`` fixture): ``process_fixed`` on 1-D records and
  ``(batch, n)`` arrays, ``simulate_blocks`` over random block sizes, and
  the ``collect_trace`` toggle traces.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dsm import MultibitQuantizer, synthesize_ntf
from repro.dsm.modulator import ErrorFeedbackSimulator, SimulationResult
from repro.filters.hogenauer import HogenauerDecimator
from repro.filters.sinc import SincFilterSpec


def rolled_window_simulate(sim: ErrorFeedbackSimulator, u) -> SimulationResult:
    """Oracle loop: shift the error window with ``np.roll`` every sample and
    quantize through the scalar ``MultibitQuantizer`` calls."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    taps = sim._feedback
    errors = np.zeros(len(taps))
    output = np.empty(n)
    quantizer_input = np.empty(n)
    codes = np.empty(n, dtype=int)
    stable = True
    limit = sim.INSTABILITY_THRESHOLD * sim.quantizer.full_scale
    for i in range(n):
        feedback = float(np.dot(taps, errors))
        y = u[i] - feedback
        v = sim.quantizer.quantize(y)
        e = v - y
        errors = np.roll(errors, 1)
        errors[0] = e
        output[i] = v
        quantizer_input[i] = y
        codes[i] = sim.quantizer.quantize_to_code(y)
        if abs(y) > limit:
            stable = False
    return SimulationResult(output=output, codes=codes,
                            quantizer_input=quantizer_input, stable=stable)


def _simulator(order: int) -> ErrorFeedbackSimulator:
    return ErrorFeedbackSimulator(
        synthesize_ntf(order, 16, 1.5 if order < 5 else 3.0),
        MultibitQuantizer(bits=4))


def _stimulus(kind: str, n: int, amplitude: float, cycles: float, seed: int):
    if kind == "tone":
        return amplitude * np.sin(2 * np.pi * cycles * np.arange(n) / max(n, 1))
    return amplitude * np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _assert_identical(got: SimulationResult, want: SimulationResult):
    assert np.array_equal(got.output, want.output)
    assert np.array_equal(got.codes, want.codes)
    assert got.codes.dtype == want.codes.dtype
    assert np.array_equal(got.quantizer_input, want.quantizer_input)
    assert got.stable is want.stable


class TestRingBufferModulator:
    @given(order=st.sampled_from([3, 5]),
           n=st.integers(min_value=0, max_value=700),
           amplitude=st.floats(min_value=0.0, max_value=2.0),
           kind=st.sampled_from(["tone", "noise"]),
           cycles=st.floats(min_value=0.5, max_value=40.0),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=40, deadline=None)
    @example(order=5, n=600, amplitude=1.9, kind="tone", cycles=3.0, seed=0)
    def test_matches_rolled_window_oracle(self, order, n, amplitude, kind,
                                          cycles, seed):
        sim = _simulator(order)
        u = _stimulus(kind, n, amplitude, cycles, seed)
        _assert_identical(sim.simulate(u), rolled_window_simulate(sim, u))

    def test_unstable_overload_matches_oracle(self):
        sim = _simulator(5)
        u = 1.3 * np.sin(2 * np.pi * np.arange(2000) * 0.003)
        got = sim.simulate(u)
        assert got.stable is False
        _assert_identical(got, rolled_window_simulate(sim, u))


def _traced(spec, blocks, engines=contextlib.nullcontext):
    """Trace ``blocks`` through a fresh decimator inside ``engines()``
    (pass the ``reference_engines`` fixture to run the oracle)."""
    dec = HogenauerDecimator(spec)
    with engines():
        outputs = [dec.process(block, collect_trace=True) for block in blocks]
    return dec, outputs


class TestHogenauerTraceEquivalence:
    @given(order=st.integers(min_value=1, max_value=6),
           decimation=st.integers(min_value=2, max_value=8),
           input_bits=st.integers(min_value=1, max_value=16),
           lengths=st.lists(st.integers(min_value=0, max_value=90),
                            min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_trace_matches_reference(self, order, decimation,
                                                input_bits, lengths, seed,
                                                reference_engines):
        spec = SincFilterSpec(order=order, decimation=decimation,
                              input_bits=input_bits, input_rate_hz=640e6)
        rng = np.random.default_rng(seed)
        half = 1 << (input_bits - 1)
        blocks = [rng.integers(-half, half, n) for n in lengths]
        vec, vec_out = _traced(spec, blocks)
        ref, ref_out = _traced(spec, blocks, reference_engines)
        assert vec.width <= 62
        for got, want in zip(vec_out, ref_out):
            assert np.array_equal(got, want)
        assert vec.trace.samples == ref.trace.samples == sum(lengths)
        assert list(vec.trace.toggles.items()) == list(ref.trace.toggles.items())

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_each_call_compares_first_value_with_zero(self, engine,
                                                      reference_engines):
        # Integrator values 1 then 2 (0b01 -> 0b10): compared with 0 at the
        # start of each call they toggle 1 + 1 bits; a trace carried across
        # calls would count 1 + 2.
        spec = SincFilterSpec(order=1, decimation=2, input_bits=4,
                              input_rate_hz=640e6)
        engines = (reference_engines if engine == "reference"
                   else contextlib.nullcontext)
        dec, _ = _traced(spec, [np.array([1]), np.array([1])], engines)
        assert dec.trace.toggles == {"integrator0": 2, "comb0": 1}
        assert dec.trace.samples == 2

    def test_wide_registers_trace_on_reference(self, rng, reference_engines):
        # 40 + 4*6 = 64-bit registers exceed the vectorized engine.
        spec = SincFilterSpec(order=4, decimation=64, input_bits=40,
                              input_rate_hz=640e6)
        blocks = [rng.integers(-(1 << 39), 1 << 39, n) for n in (200, 73)]
        auto, auto_out = _traced(spec, blocks)
        ref, ref_out = _traced(spec, blocks, reference_engines)
        assert auto.width > 62
        assert all(out.dtype == object for out in auto_out)
        for got, want in zip(auto_out, ref_out):
            assert np.array_equal(got, want)
        assert auto.trace.samples == 273
        assert list(auto.trace.toggles.items()) == list(ref.trace.toggles.items())


def _codes(seed, n, level):
    """Modulator-like 4-bit codes: random, or a constant worst-case level
    that drives the Hogenauer registers through wrap-around."""
    if level is None:
        return np.random.default_rng(seed).integers(0, 16, n)
    return np.full(n, level, dtype=np.int64)


_LEVEL = st.one_of(st.none(), st.sampled_from([0, 15]))


class TestChainEngineDifferential:
    @given(n=st.integers(min_value=0, max_value=1200),
           seed=st.integers(min_value=0, max_value=2 ** 16), level=_LEVEL)
    @settings(max_examples=25, deadline=None)
    def test_process_fixed_record(self, paper_chain, reference_engines,
                                  n, seed, level):
        codes = _codes(seed, n, level)
        auto = paper_chain.process_fixed(codes)
        with reference_engines():
            ref = paper_chain.process_fixed(codes)
        assert auto.dtype == ref.dtype == np.int64
        assert np.array_equal(auto, ref)

    @given(batch=st.integers(min_value=1, max_value=4),
           n=st.integers(min_value=0, max_value=600),
           seed=st.integers(min_value=0, max_value=2 ** 16), level=_LEVEL)
    @settings(max_examples=20, deadline=None)
    def test_process_fixed_batch(self, paper_chain, reference_engines,
                                 batch, n, seed, level):
        codes = np.stack([_codes(seed + b, n, level) for b in range(batch)])
        auto = paper_chain.process_fixed(codes)
        with reference_engines():
            ref = paper_chain.process_fixed(codes)
        assert auto.shape == ref.shape == (batch, auto.shape[1])
        assert np.array_equal(auto, ref)
        for b in range(batch):
            assert np.array_equal(auto[b], paper_chain.process_fixed(codes[b]))

    @given(sizes=st.lists(st.integers(min_value=0, max_value=300),
                          min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2 ** 16), level=_LEVEL)
    @settings(max_examples=20, deadline=None)
    def test_simulate_blocks(self, paper_chain, reference_engines, sizes,
                             seed, level):
        codes = _codes(seed, sum(sizes), level)
        bounds = np.cumsum([0] + sizes)
        chunks = [codes[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

        def streamed():
            parts = list(paper_chain.simulate_blocks(iter(chunks)))
            return (np.concatenate(parts) if parts
                    else np.zeros(0, dtype=np.int64))

        one_shot = paper_chain.process_fixed(codes)
        auto = streamed()
        with reference_engines():
            ref = streamed()
        assert np.array_equal(auto, one_shot)
        assert np.array_equal(ref, one_shot)

    @given(n=st.integers(min_value=0, max_value=800),
           seed=st.integers(min_value=0, max_value=2 ** 16), level=_LEVEL)
    @settings(max_examples=20, deadline=None)
    def test_collect_trace(self, paper_chain, reference_engines, n, seed,
                           level):
        codes = _codes(seed, n, level)

        def traces():
            words = paper_chain.process_fixed(codes, collect_trace=True)
            return words, [(stage.trace.samples, list(stage.trace.toggles.items()))
                           for stage in paper_chain._hogenauer_stages]

        auto_words, auto = traces()
        with reference_engines():
            ref_words, ref = traces()
        assert np.array_equal(auto_words, ref_words)
        assert auto == ref
        assert auto[0][0] == n
