"""Discrete-time simulation of the delta-sigma modulator.

The paper's ADC front-end is a continuous-time, 5th-order, feed-forward
Active-RC modulator clocked at 640 MHz with a 4-bit quantizer.  What the
decimation filter sees, however, is only the modulator's *output code
stream* whose quantization noise is shaped by the NTF.  We therefore
simulate the discrete-time equivalent of the loop (same NTF, same quantizer,
unity STF) and use it to generate bit-streams, estimate the maximum stable
amplitude (MSA) and measure SQNR.  The substitution is documented in
DESIGN.md.

Three simulation engines are provided:

* :class:`ErrorFeedbackSimulator` — simulates the loop in error-feedback
  form (``y = u - h * e`` with ``h`` the impulse response of ``1 - NTF``).
  This reproduces the exact input/output behaviour of any realization with
  a unity STF and is numerically robust.
* :class:`FastErrorFeedbackSimulator` — the same error-feedback loop with
  the filter ``1 - NTF`` evaluated in its exact recursive (IIR) form
  instead of a truncated 64-tap FIR.  The per-sample work drops from one
  64-point dot product to ~2·order multiply-adds, making it roughly an
  order of magnitude faster — this is the engine the fast end-to-end SNR
  simulation uses (``engine="error-feedback-fast"`` / ``engine="fast"``).
  Because the quantizer decisions of a chaotic delta-sigma loop are
  sensitive to rounding, its bit-stream is not sample-identical to the FIR
  engine's; the noise-shaping statistics (SQNR, spectra, MSA) agree, which
  the tests verify.
* :class:`StateSpaceSimulator` — simulates the loop filter
  ``L1(z) = 1/NTF(z) - 1`` as a direct-form state space, providing access to
  internal state trajectories (used for MSA/stability analysis, mirroring
  the role of the Active-RC integrator outputs in Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import signal

from repro.dsm.ntf import NoiseTransferFunction, synthesize_ntf
from repro.dsm.quantizer import MultibitQuantizer


@dataclass
class SimulationResult:
    """Output of a modulator simulation.

    Attributes
    ----------
    output:
        Quantizer output values (full scale ±1), one per clock cycle.
    codes:
        Integer output codes in ``[0, 2**bits - 1]`` — the decimator input.
    quantizer_input:
        The loop-filter output seen by the quantizer (used for stability
        and MSA analysis).
    stable:
        Heuristic stability flag: ``False`` when the quantizer input grew
        beyond several full scales, indicating the loop has lost lock.
    """

    output: np.ndarray
    codes: np.ndarray
    quantizer_input: np.ndarray
    stable: bool
    metadata: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of simulated samples."""
        return len(self.output)


@dataclass
class BatchSimulationResult:
    """Output of a batched modulator simulation over independent records.

    Arrays carry a leading batch axis: row ``b`` is bit-exact to the
    per-record simulation of input row ``b`` (the tests pin this).

    Attributes
    ----------
    output, codes, quantizer_input:
        ``(batch, n)`` arrays; per-record meaning as in
        :class:`SimulationResult`.
    stable:
        ``(batch,)`` boolean array, one stability verdict per record.
    """

    output: np.ndarray
    codes: np.ndarray
    quantizer_input: np.ndarray
    stable: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        """Number of independent records in the batch."""
        return self.output.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of simulated samples per record."""
        return self.output.shape[1]

    def record(self, index: int) -> SimulationResult:
        """View one row as a per-record :class:`SimulationResult`."""
        return SimulationResult(
            output=self.output[index],
            codes=self.codes[index],
            quantizer_input=self.quantizer_input[index],
            stable=bool(self.stable[index]),
            metadata=dict(self.metadata, batch_index=index),
        )


def _finite_stimulus(u: np.ndarray) -> np.ndarray:
    """Coerce a stimulus to floats; NaN/Inf has no quantizer code, so reject it."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("modulator stimulus must be finite "
                         "(found NaN or Inf samples)")
    return u


class ErrorFeedbackSimulator:
    """Error-feedback simulation of a delta-sigma loop with unity STF.

    The quantizer input at time ``n`` is ``y[n] = u[n] - Σ_k h[k]·e[n-k]``
    where ``e`` is the past quantization error and ``h`` is the impulse
    response of ``1 - NTF(z)`` (whose leading sample is zero because the NTF
    is monic).  The output is then ``v[n] = Q(y[n])`` and
    ``e[n] = v[n] - y[n]``, which yields exactly ``V(z) = U(z) + NTF(z)·E(z)``.
    """

    #: Quantizer inputs beyond this many full scales flag instability.
    INSTABILITY_THRESHOLD = 8.0

    def __init__(self, ntf: NoiseTransferFunction, quantizer: MultibitQuantizer,
                 feedback_taps: int = 64) -> None:
        self.ntf = ntf
        self.quantizer = quantizer
        impulse = ntf.loop_filter_impulse_response(feedback_taps)
        # The leading sample of 1 - NTF is zero (NTF is monic); drop it so the
        # filter acts only on *past* errors.
        if abs(impulse[0]) > 1e-9:
            raise ValueError("NTF must be monic (leading impulse sample of 1)")
        self._feedback = impulse[1:]

    def simulate(self, u: np.ndarray) -> SimulationResult:
        """Run the loop on the input sequence ``u`` (values within ±1)."""
        u = np.asarray(u, dtype=float)
        n = len(u)
        taps = self._feedback
        n_taps = len(taps)
        # Doubled ring buffer: each error is written at ``p`` and ``p + n_taps``,
        # so ``ring[p:p + n_taps]`` is the newest-first error window — the same
        # operands, in the same order, as a window shifted every sample.
        ring = np.zeros(2 * n_taps)
        p = 0
        output = np.empty(n)
        quantizer_input = np.empty(n)
        codes = np.empty(n, dtype=int)
        stable = True
        full_scale = self.quantizer.full_scale
        step = self.quantizer.step
        top_code = self.quantizer.levels - 1
        limit = self.INSTABILITY_THRESHOLD * full_scale
        for i, ui in enumerate(u.tolist()):
            y = ui - float(np.dot(taps, ring[p:p + n_taps]))
            # Inline scalar quantization (same rounding as MultibitQuantizer).
            code = round((y + full_scale) / step)
            if code < 0:
                code = 0
            elif code > top_code:
                code = top_code
            v = code * step - full_scale
            p = p - 1 if p else n_taps - 1
            ring[p] = ring[p + n_taps] = v - y
            output[i] = v
            quantizer_input[i] = y
            codes[i] = code
            if y > limit or y < -limit:
                stable = False
        return SimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata={"engine": "error-feedback", "feedback_taps": n_taps},
        )


class FastErrorFeedbackSimulator:
    """Error-feedback simulation with the loop filter in recursive form.

    The feedback filter ``G(z) = 1 - NTF(z) = (a(z) - b(z)) / a(z)`` is
    strictly proper (the NTF is monic), so the loop stays causal.  It is
    evaluated sample-by-sample in transposed direct form II, which costs
    ``2·order`` multiply-adds per sample instead of the reference engine's
    64-point dot product — and, unlike the FIR engine, realizes the NTF
    *exactly* rather than through a truncated impulse response.  The inner
    loop runs on Python scalars (no per-sample numpy dispatch), which is
    where the ~10× speed-up comes from.
    """

    INSTABILITY_THRESHOLD = 8.0

    def __init__(self, ntf: NoiseTransferFunction, quantizer: MultibitQuantizer) -> None:
        self.ntf = ntf
        self.quantizer = quantizer
        b_ntf, a_ntf = ntf.as_tf()
        num = np.polysub(a_ntf, b_ntf)
        if abs(num[0]) > 1e-9:
            raise ValueError("NTF must be monic (leading impulse sample of 1)")
        # Align numerator and (monic) denominator to the same length.
        order = len(a_ntf) - 1
        padded = np.zeros(order + 1)
        padded[order + 1 - len(num):] = num
        self._num = [float(v) for v in padded]
        self._den = [float(v) for v in a_ntf]

    def simulate(self, u: np.ndarray) -> SimulationResult:
        """Run the loop on the input sequence ``u`` (values within ±1)."""
        u = np.asarray(u, dtype=float)
        n = len(u)
        order = len(self._den) - 1
        num = self._num
        den = self._den
        states = [0.0] * order
        output = np.empty(n)
        quantizer_input = np.empty(n)
        codes = np.empty(n, dtype=int)
        stable = True
        full_scale = self.quantizer.full_scale
        step = self.quantizer.step
        top_code = self.quantizer.levels - 1
        limit = self.INSTABILITY_THRESHOLD * full_scale
        for i, ui in enumerate(u.tolist()):
            # DF2T output of G(z); num[0] == 0, so only the first state.
            feedback = states[0]
            y = ui - feedback
            # Inline scalar quantization (same rounding as MultibitQuantizer).
            code = round((y + full_scale) / step)
            if code < 0:
                code = 0
            elif code > top_code:
                code = top_code
            v = code * step - full_scale
            e = v - y
            for j in range(order - 1):
                states[j] = num[j + 1] * e + states[j + 1] - den[j + 1] * feedback
            states[order - 1] = num[order] * e - den[order] * feedback
            output[i] = v
            quantizer_input[i] = y
            codes[i] = code
            if y > limit or y < -limit:
                stable = False
        return SimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata={"engine": "error-feedback-fast", "order": order},
        )

    def simulate_batch(self, u: np.ndarray) -> BatchSimulationResult:
        """Run the loop on a ``(batch, n)`` array of independent records.

        Sequential in time, vectorized across records: each time step
        evaluates the same scalar recurrence as :meth:`simulate` but as
        elementwise numpy operations over the batch, in the same
        expression order.  Elementwise IEEE arithmetic matches the scalar
        path operation for operation (``np.rint`` is the same
        round-half-to-even as Python's ``round``), so every row is
        **bit-exact** to its per-record simulation — including the chaotic
        quantizer decisions — while the per-sample Python overhead is paid
        once per time step instead of once per record.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2:
            raise ValueError("simulate_batch expects a 2-D (batch, n) array")
        batch, n = u.shape
        order = len(self._den) - 1
        num = self._num
        den = self._den
        states = [np.zeros(batch) for _ in range(order)]
        output = np.empty((batch, n))
        quantizer_input = np.empty((batch, n))
        codes = np.empty((batch, n), dtype=np.int64)
        unstable = np.zeros(batch, dtype=bool)
        full_scale = self.quantizer.full_scale
        step = self.quantizer.step
        top_code = self.quantizer.levels - 1
        limit = self.INSTABILITY_THRESHOLD * full_scale
        for i in range(n):
            feedback = states[0]
            y = u[:, i] - feedback
            code = np.rint((y + full_scale) / step)
            np.clip(code, 0.0, float(top_code), out=code)
            v = code * step - full_scale
            e = v - y
            # The list rebinding below never mutates the arrays `feedback`
            # and `states[j + 1]` still reference, so the update order
            # matches the scalar loop exactly.
            for j in range(order - 1):
                states[j] = num[j + 1] * e + states[j + 1] - den[j + 1] * feedback
            states[order - 1] = num[order] * e - den[order] * feedback
            output[:, i] = v
            quantizer_input[:, i] = y
            codes[:, i] = code.astype(np.int64)
            unstable |= (y > limit) | (y < -limit)
        return BatchSimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=~unstable,
            metadata={"engine": "error-feedback-fast", "order": order,
                      "batched": True},
        )


class StateSpaceSimulator:
    """State-space simulation of the loop filter ``L1(z) = 1/NTF - 1``.

    The loop filter is realized in controllable canonical form; its states
    play the role of the Active-RC integrator outputs.  The simulator
    reports the state trajectory so stability (bounded states) can be
    checked directly, which is how the MSA estimate is produced.
    """

    INSTABILITY_THRESHOLD = 8.0

    def __init__(self, ntf: NoiseTransferFunction, quantizer: MultibitQuantizer) -> None:
        self.ntf = ntf
        self.quantizer = quantizer
        b_ntf, a_ntf = ntf.as_tf()
        # The error-shaping filter G(z) = 1 - NTF(z) = (a - b)/a is strictly
        # proper (the NTF is monic), so the state space below is strictly
        # causal: the quantizer input depends only on past errors.
        num = np.polysub(a_ntf, b_ntf)
        den = a_ntf
        self._A, self._B, self._C, self._D = signal.tf2ss(num, den)

    def simulate(self, u: np.ndarray) -> SimulationResult:
        """Run the state-space loop on the input sequence ``u`` (values within ±1)."""
        u = np.asarray(u, dtype=float)
        n = len(u)
        A, B, C = self._A, self._B, self._C
        x = np.zeros(A.shape[0])
        output = np.empty(n)
        quantizer_input = np.empty(n)
        codes = np.empty(n, dtype=int)
        states = np.empty((n, len(x)))
        stable = True
        limit = self.INSTABILITY_THRESHOLD * self.quantizer.full_scale
        for i in range(n):
            # y[n] = u[n] - G(z){e}[n];   e[n] = v[n] - y[n]
            loop_out = float(np.dot(C, x).item())
            y = u[i] - loop_out
            v = self.quantizer.quantize(y)
            e = v - y
            x = A @ x + B.flatten() * e
            output[i] = v
            quantizer_input[i] = y
            codes[i] = self.quantizer.quantize_to_code(y)
            states[i] = x
            if abs(y) > limit:
                stable = False
        return SimulationResult(
            output=output,
            codes=codes,
            quantizer_input=quantizer_input,
            stable=stable,
            metadata={"engine": "state-space", "states": states},
        )


@dataclass
class DeltaSigmaModulator:
    """The paper's delta-sigma modulator model.

    Combines a synthesized NTF with a multi-bit quantizer and exposes the
    operations the rest of the reproduction needs: bit-stream generation,
    SQNR measurement hooks and MSA estimation.

    Parameters mirror Table I of the paper; the defaults construct the
    5th-order, OSR-16, 4-bit, 640 MHz design.
    """

    order: int = 5
    osr: int = 16
    quantizer_bits: int = 4
    sample_rate_hz: float = 640e6
    h_inf: float = 3.0
    optimize_zeros: bool = True
    ntf: Optional[NoiseTransferFunction] = None
    quantizer: MultibitQuantizer = None

    def __post_init__(self) -> None:
        if self.ntf is None:
            self.ntf = synthesize_ntf(self.order, self.osr, self.h_inf,
                                      self.optimize_zeros)
        if self.quantizer is None:
            self.quantizer = MultibitQuantizer(bits=self.quantizer_bits)
        self._simulator = ErrorFeedbackSimulator(self.ntf, self.quantizer)
        self._fast_simulator: Optional[FastErrorFeedbackSimulator] = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def signal_bandwidth_hz(self) -> float:
        """Nyquist bandwidth of the decimated output (fs / (2*OSR))."""
        return self.sample_rate_hz / (2.0 * self.osr)

    @property
    def output_rate_hz(self) -> float:
        """Decimated (Nyquist) output rate ``fs / OSR``."""
        return self.sample_rate_hz / self.osr

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, u: np.ndarray, engine: str = "error-feedback") -> SimulationResult:
        """Simulate the modulator on an input sequence (values within ±1).

        ``engine`` selects the simulation backend: ``"error-feedback"``
        (reference), ``"error-feedback-fast"`` / ``"fast"`` (recursive loop
        filter, ~10× faster; used by the fast end-to-end SNR path) or
        ``"state-space"`` (records internal state trajectories).  A
        stimulus with NaN or Inf samples raises :class:`ValueError`.
        """
        u = _finite_stimulus(u)
        if engine == "error-feedback":
            return self._simulator.simulate(u)
        if engine in ("error-feedback-fast", "fast"):
            if self._fast_simulator is None:
                self._fast_simulator = FastErrorFeedbackSimulator(self.ntf, self.quantizer)
            return self._fast_simulator.simulate(u)
        if engine == "state-space":
            return StateSpaceSimulator(self.ntf, self.quantizer).simulate(u)
        raise ValueError(f"unknown simulation engine {engine!r}")

    def simulate_batch(self, u: np.ndarray,
                       engine: str = "fast") -> BatchSimulationResult:
        """Simulate a ``(batch, n)`` array of independent input records.

        Only the fast recursive engine supports batching (its scalar
        recurrence vectorizes across records while staying bit-exact; see
        :meth:`FastErrorFeedbackSimulator.simulate_batch`).
        """
        if engine not in ("error-feedback-fast", "fast"):
            raise ValueError(
                f"batched simulation requires the fast engine, got {engine!r}")
        u = _finite_stimulus(u)
        if self._fast_simulator is None:
            self._fast_simulator = FastErrorFeedbackSimulator(self.ntf, self.quantizer)
        return self._fast_simulator.simulate_batch(u)

    def bitstream_for_tone(self, frequency_hz: float, amplitude: float,
                           n_samples: int) -> SimulationResult:
        """Convenience: simulate the modulator driven by a coherent tone."""
        from repro.dsm.signals import coherent_tone

        tone = coherent_tone(frequency_hz, amplitude, self.sample_rate_hz, n_samples)
        return self.simulate(tone)

    # ------------------------------------------------------------------
    # Maximum stable amplitude
    # ------------------------------------------------------------------
    def estimate_msa(self, n_samples: int = 8192, amplitude_grid: Optional[np.ndarray] = None,
                     frequency_hz: Optional[float] = None,
                     engine: str = "fast") -> float:
        """Empirically estimate the maximum stable amplitude.

        The modulator is driven with tones of increasing amplitude; the MSA
        is the largest amplitude for which the loop remains stable (bounded
        quantizer input and no saturation-dominated behaviour).  The paper
        reports MSA = 0.81 of full scale for the 5th-order design.

        ``engine`` selects the simulation backend.  The default ``"fast"``
        engine runs the **whole amplitude grid as one batched simulation**
        (:meth:`simulate_batch` — every amplitude is a row of the batch)
        and then applies the first-failure rule, roughly an order of
        magnitude faster than sweeping the grid one amplitude at a time;
        ``"error-feedback"`` keeps the reference per-amplitude loop (which
        stops simulating at the first unstable amplitude).  Both engines
        report the same MSA on the paper's design — the loop's stability
        boundary is an engine-independent statistic.
        """
        if amplitude_grid is None:
            amplitude_grid = np.linspace(0.5, 1.0, 26)
        if frequency_hz is None:
            frequency_hz = self.signal_bandwidth_hz / 8.0
        from repro.dsm.signals import coherent_tone

        if engine in ("error-feedback-fast", "fast"):
            tones = np.stack([
                coherent_tone(frequency_hz, float(a), self.sample_rate_hz, n_samples)
                for a in amplitude_grid])
            batch = self.simulate_batch(tones, engine=engine)
            sat_fraction = np.mean(
                self.quantizer.is_saturating(batch.quantizer_input), axis=1)
            acceptable = batch.stable & (sat_fraction < 0.2)
            last_stable = 0.0
            for amplitude, ok in zip(amplitude_grid, acceptable):
                if not ok:
                    break
                last_stable = float(amplitude)
            return last_stable

        last_stable = 0.0
        for amplitude in amplitude_grid:
            tone = coherent_tone(frequency_hz, float(amplitude),
                                 self.sample_rate_hz, n_samples)
            result = self.simulate(tone, engine=engine)
            sat_fraction = float(np.mean(self.quantizer.is_saturating(result.quantizer_input)))
            if result.stable and sat_fraction < 0.2:
                last_stable = float(amplitude)
            else:
                break
        return last_stable

    def predicted_sqnr_db(self, input_amplitude: float = 0.81) -> float:
        """Linear-model SQNR prediction at the given input amplitude."""
        return self.ntf.predicted_sqnr_db(self.quantizer.levels, input_amplitude, self.osr)


def simulate_dsm(u: np.ndarray, ntf: NoiseTransferFunction,
                 quantizer_bits: int = 4) -> SimulationResult:
    """Functional wrapper mirroring the Delta-Sigma Toolbox's ``simulateDSM``."""
    quantizer = MultibitQuantizer(bits=quantizer_bits)
    return ErrorFeedbackSimulator(ntf, quantizer).simulate(_finite_stimulus(u))
