"""Bit-true Hogenauer (CIC) implementation of the Sinc^K decimator.

Fig. 6 of the paper: K accumulators clocked at the input rate ``fs``,
followed by the rate change and K differentiators clocked at ``fs/M``.
The registers use wrap-around two's-complement arithmetic of width
``Bmax = K*log2(M) + Bin - 1`` (Eq. 2), which guarantees a correct output in
spite of intermediate overflow.  Two hardware optimizations from the paper
are modelled because they matter for the power estimate:

* **retiming** — a register in the forward path of each accumulator stops
  adder glitches from propagating into the next stage (reduces switching
  activity, modelled by the power estimator);
* **pipelining** — a register clocked at ``fs/M`` after the accumulator
  cascade prevents the fast-clock data from toggling the slower
  differentiator logic.

Functionally both optimizations only add latency; the bit-true output is
unchanged, which the test suite verifies.

Simulation engines
------------------
Two engines produce bit-identical outputs:

* the reference engine — the original sample-by-sample simulation of the
  register-transfer structure.  It is the gold model and it works for
  arbitrary register widths.
* the vectorized engine — a numpy fast path: the K integrators are K
  cumulative sums, the rate change is a strided slice, and the K combs are
  vectorized first differences.  All arithmetic runs in ``uint64`` (i.e.
  modulo 2**64); because every operation is an addition or subtraction, the
  results stay congruent to the reference modulo ``2**width``, so the final
  wrap to the register width reproduces the wrap-around two's-complement
  hardware exactly.

The register width alone picks the engine (:func:`_use_vectorized_engine`):
vectorized up to 62 bits, reference beyond.  Both engines share the
streaming state (integrators, comb delays, phase) and record the same
per-node toggle counts for the switching-activity power estimation
(``collect_trace=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.filters.polyphase import max_abs_int
from repro.filters.sinc import SincFilter, SincFilterSpec
from repro.fixedpoint.word import wrap_twos_complement

#: Widest register for which the vectorized engine (and plain int64 output
#: arrays) can be used; wider words fall back to Python integers.
_MAX_INT64_WIDTH = 62

_MASK64 = (1 << 64) - 1


def _use_vectorized_engine(width: int) -> bool:
    """Engine guard of the Hogenauer stages: the vectorized engine for
    registers up to :data:`_MAX_INT64_WIDTH` bits, the reference engine
    beyond.  Tests force the reference engine (their oracle) by patching
    this guard false."""
    return width <= _MAX_INT64_WIDTH


@dataclass
class HogenauerConfig:
    """Implementation options for the Hogenauer structure."""

    retimed: bool = True
    pipelined: bool = True
    #: Extra guard bits on top of Eq. (2); zero reproduces the paper.
    guard_bits: int = 0


@dataclass
class HogenauerTrace:
    """Per-node switching-activity record used by the power model.

    ``toggles[node]`` counts the total number of bit transitions observed at
    that node across the simulation; the power model converts these into
    dynamic energy.
    """

    toggles: dict = field(default_factory=dict)
    samples: int = 0

    def activity(self, node: str, width: int) -> float:
        """Average toggle probability per bit per clock for a node."""
        if self.samples == 0 or width == 0:
            return 0.0
        return self.toggles.get(node, 0) / (self.samples * width)


def _toggle_count_series(values, width: int) -> int:
    """Total bit transitions along a node's value sequence (0 → values),
    counting only the low ``width`` bits of each value."""
    if width > _MAX_INT64_WIDTH:
        mask = (1 << width) - 1
        values = [int(v) for v in values]
        return sum(bin((a ^ b) & mask).count("1")
                   for a, b in zip([0] + values, values))
    values = np.asarray(values)
    if len(values) == 0:
        return 0
    previous = np.concatenate((np.zeros(1, dtype=values.dtype), values[:-1]))
    xor = (previous ^ values) & np.array((1 << width) - 1, dtype=values.dtype)
    return int(np.unpackbits(xor.view(np.uint8)).sum())


class HogenauerDecimator:
    """Bit-true multirate Sinc^K decimate-by-M filter (Fig. 6).

    The filter consumes integer samples (two's complement, ``input_bits``
    wide) and produces integer samples of ``register_bits`` width.  The DC
    gain is ``M**K``; callers that need unity gain divide by
    ``2**(K*log2(M))`` afterwards (the chain keeps track of this scaling).
    """

    def __init__(self, spec: SincFilterSpec, config: Optional[HogenauerConfig] = None) -> None:
        self.spec = spec
        self.config = config or HogenauerConfig()
        self.width = spec.register_bits + self.config.guard_bits
        self.reset()

    def reset(self) -> None:
        """Clear all integrator, differentiator and pipeline registers."""
        k = self.spec.order
        self._integrators = [0] * k
        self._comb_delays = [0] * k
        self._pipeline_register = 0
        self._phase = 0
        self.trace = HogenauerTrace()

    def coefficient_fingerprint(self) -> dict:
        """JSON-safe identity of everything that determines the output words.

        The Hogenauer structure is multiplierless — its "coefficients" are
        the structural parameters (order, decimation, register width), which
        is why the :mod:`repro.robustness` coefficient-perturbation axes
        leave Sinc stages untouched: there is no coefficient ROM to dither
        and no CSD term to drop.  The fingerprint still participates in the
        robustness cache keys so a chain's perturbable state is fully
        described by its per-stage fingerprints.
        """
        return {"kind": "hogenauer", "order": int(self.spec.order),
                "decimation": int(self.spec.decimation),
                "input_bits": int(self.spec.input_bits),
                "register_bits": int(self.spec.register_bits)}

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def process(self, samples: np.ndarray, collect_trace: bool = False) -> np.ndarray:
        """Filter and decimate a block of integer input samples.

        Parameters
        ----------
        samples:
            Integer input samples; values must fit in ``input_bits`` signed
            bits (they are wrapped otherwise, as real hardware would).
        collect_trace:
            Accumulate per-node toggle counts into :attr:`trace` for the
            power model.  Both engines count the same toggles; each call
            compares a node's first value against 0.

        Returns
        -------
        numpy.ndarray
            Integer output samples at ``input_rate / M``.
        """
        samples = np.asarray(samples)
        if samples.dtype != object and not np.issubdtype(samples.dtype, np.integer):
            raise TypeError("HogenauerDecimator processes integer samples; "
                            "quantize the input first")
        # Value sequences of integrators 0…K-1 then combs 0…K-1; nodes an
        # early-returning engine never reached are empty.
        nodes: Optional[list] = [] if collect_trace else None
        run = (self._process_vectorized if _use_vectorized_engine(self.width)
               else self._process_reference)
        out = run(samples, nodes)
        if collect_trace:
            k = self.spec.order
            nodes += [()] * (2 * k - len(nodes))
            self.trace.samples += len(samples)
            for i in range(k):
                for node, values in ((f"integrator{i}", nodes[i]),
                                     (f"comb{i}", nodes[k + i])):
                    self.trace.toggles[node] = self.trace.toggles.get(node, 0) + \
                        _toggle_count_series(values, self.width)
        return out

    def _process_reference(self, samples: np.ndarray,
                           nodes: Optional[list]) -> np.ndarray:
        k = self.spec.order
        m = self.spec.decimation
        width = self.width
        outputs: List[int] = []
        integrators = self._integrators
        comb_delays = self._comb_delays
        phase = self._phase
        if nodes is not None:
            nodes.extend([] for _ in range(2 * k))

        for raw in samples.tolist():
            value = wrap_twos_complement(int(raw), width)
            # Integrator cascade at the input rate.  The retiming register in
            # each accumulator only affects glitch power, not the transfer
            # function, so the functional model is the plain accumulation.
            for i in range(k):
                integrators[i] = wrap_twos_complement(integrators[i] + value, width)
                value = integrators[i]
                if nodes is not None:
                    nodes[i].append(value)
            phase += 1
            if phase < m:
                continue
            phase = 0
            # Pipeline register between the fast and slow sections.
            self._pipeline_register = value
            diff_value = self._pipeline_register
            for i in range(k):
                new_value = wrap_twos_complement(diff_value - comb_delays[i], width)
                comb_delays[i] = diff_value
                diff_value = new_value
                if nodes is not None:
                    nodes[k + i].append(diff_value)
            outputs.append(diff_value)

        self._integrators = integrators
        self._comb_delays = comb_delays
        self._phase = phase
        return np.array(outputs, dtype=object if width > _MAX_INT64_WIDTH else np.int64)

    def _process_vectorized(self, samples: np.ndarray,
                            nodes: Optional[list]) -> np.ndarray:
        """Cumsum/strided-slice evaluation, bit-exact to the reference.

        All additions run modulo 2**64 in ``uint64``; since the reference
        only ever wraps (never saturates), every intermediate value is
        congruent modulo ``2**width`` and the single final wrap recovers the
        exact register contents.  The same congruence makes the node arrays
        appended to ``nodes`` (when tracing) toggle like the reference's.
        """
        k = self.spec.order
        m = self.spec.decimation
        width = self.width
        n = len(samples)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if samples.dtype == object:
            # Arbitrary-precision inputs are wrapped to the register width up
            # front — the reference engine does the same before accumulating,
            # so this is exact (and the wrapped values fit int64).
            samples = np.array([wrap_twos_complement(int(v), width)
                                for v in samples.tolist()], dtype=np.int64)
        x = samples.astype(np.int64).astype(np.uint64)

        # K integrators = K cumulative sums with carried-in register state.
        for i in range(k):
            x = np.cumsum(x, dtype=np.uint64)
            x += np.uint64(self._integrators[i] & _MASK64)
            self._integrators[i] = wrap_twos_complement(int(x[-1]), width)
            if nodes is not None:
                nodes.append(x)

        # Rate change: the reference emits at samples where the running phase
        # counter reaches M.
        start = (m - 1 - self._phase) % m
        dec = x[start::m]
        self._phase = (self._phase + n) % m
        if len(dec) == 0:
            return np.zeros(0, dtype=np.int64)
        self._pipeline_register = wrap_twos_complement(int(dec[-1]), width)

        # K combs = vectorized first differences with carried-in delays.
        for i in range(k):
            previous = np.empty_like(dec)
            previous[0] = np.uint64(self._comb_delays[i] & _MASK64)
            previous[1:] = dec[:-1]
            self._comb_delays[i] = wrap_twos_complement(int(dec[-1]), width)
            dec = dec - previous
            if nodes is not None:
                nodes.append(dec)

        # Single final wrap to the register width.
        modulus = 1 << width
        wrapped = dec & np.uint64(modulus - 1)
        out = wrapped.astype(np.int64)
        out[wrapped >= np.uint64(modulus >> 1)] -= modulus
        return out

    def process_batch(self, samples: np.ndarray) -> np.ndarray:
        """Filter and decimate a ``(batch, n)`` array of independent records.

        Every row is processed from a cleared register state (the batch
        axis models independent records, not a continued stream), entirely
        in vectorized ``uint64`` arithmetic: the K integrators are K
        cumulative sums along the time axis, the rate change is a strided
        column slice and the K combs are first differences.  Row ``b`` of
        the result is bit-exact to ``reset(); process(samples[b])``.  The
        instance's streaming state is left untouched.  Registers too wide
        for the vectorized engine run each row through a fresh decimator
        on the reference engine instead.
        """
        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise ValueError("process_batch expects a 2-D (batch, n) array")
        if samples.dtype != object and not np.issubdtype(samples.dtype, np.integer):
            raise TypeError("HogenauerDecimator processes integer samples; "
                            "quantize the input first")
        k = self.spec.order
        m = self.spec.decimation
        width = self.width
        batch, n = samples.shape
        n_out = n // m
        if n_out == 0 or batch == 0:
            return np.zeros((batch, n_out), dtype=np.int64)
        if not _use_vectorized_engine(width):
            return np.stack([HogenauerDecimator(self.spec, self.config).process(row)
                             for row in samples])
        if samples.dtype == object:
            samples = np.array([[wrap_twos_complement(int(v), width) for v in row]
                                for row in samples.tolist()], dtype=np.int64)
        x = samples.astype(np.int64).astype(np.uint64)
        for _ in range(k):
            x = np.cumsum(x, axis=-1, dtype=np.uint64)
        dec = x[:, m - 1::m]
        for _ in range(k):
            previous = np.empty_like(dec)
            previous[:, 0] = np.uint64(0)
            previous[:, 1:] = dec[:, :-1]
            dec = dec - previous
        modulus = 1 << width
        wrapped = dec & np.uint64(modulus - 1)
        out = wrapped.astype(np.int64)
        out[wrapped >= np.uint64(modulus >> 1)] -= modulus
        return out

    # ------------------------------------------------------------------
    # Reference / verification helpers
    # ------------------------------------------------------------------
    def reference_output(self, samples: np.ndarray) -> np.ndarray:
        """Polyphase FIR reference computed in exact integer arithmetic.

        Convolving the input with the boxcar^K impulse response and keeping
        every M-th sample must produce exactly the same values as the
        wrap-around Hogenauer structure (after wrapping to the register
        width); the tests use this as the gold model.  The convolution runs
        in ``int64`` when the exact partial sums provably fit (the common
        case) and falls back to arbitrary-precision Python integers
        otherwise.
        """
        taps = SincFilter(self.spec).impulse_response(normalized=False)
        samples = np.asarray(samples)
        tap_sum = int(round(float(np.sum(taps))))  # = M**K, all taps positive
        if samples.dtype != object and np.issubdtype(samples.dtype, np.integer):
            max_abs = max_abs_int(samples.astype(np.int64))
        else:
            max_abs = max((abs(int(v)) for v in samples.tolist()), default=0)
        int64_safe = (self.width <= _MAX_INT64_WIDTH
                      and tap_sum * max_abs < (1 << _MAX_INT64_WIDTH))
        if int64_safe:
            full = np.convolve(samples.astype(np.int64),
                               np.round(taps).astype(np.int64))
        else:
            int_taps = np.array([int(round(float(t))) for t in taps], dtype=object)
            obj = np.array([int(v) for v in samples.tolist()], dtype=object)
            full = np.convolve(obj, int_taps)
        decimated = full[self.spec.decimation - 1::self.spec.decimation]
        decimated = decimated[:max(0, (len(samples)) // self.spec.decimation)]
        if int64_safe:
            return wrap_twos_complement(decimated, self.width).astype(np.int64)
        return np.array([wrap_twos_complement(int(v), self.width) for v in decimated],
                        dtype=object if self.width > _MAX_INT64_WIDTH else np.int64)

    # ------------------------------------------------------------------
    # Hardware accounting (consumed by repro.hardware)
    # ------------------------------------------------------------------
    def resource_summary(self) -> dict:
        """Adder/register resources of this stage for the area/power model."""
        k = self.spec.order
        width = self.width
        registers = k * width  # integrators
        registers += k * width  # comb delays
        if self.config.retimed:
            registers += k * width  # retiming registers in the accumulators
        if self.config.pipelined:
            registers += width  # pipeline register at the rate boundary
        adders = 2 * k  # one adder per integrator, one subtractor per comb
        return {
            "label": self.spec.label or f"Sinc{k}",
            "adders": adders,
            "adder_bits": adders * width,
            "registers": registers,
            "register_bits": registers,
            "word_width": width,
            "fast_clock_hz": self.spec.input_rate_hz,
            "slow_clock_hz": self.spec.output_rate_hz,
            "fast_adders": k,
            "slow_adders": k,
            "retimed": self.config.retimed,
            "pipelined": self.config.pipelined,
        }


class HogenauerCascade:
    """Bit-true cascade of Hogenauer stages with inter-stage word-width tracking.

    The cascade scales each stage's output down by its DC gain (a power of
    two, i.e. an arithmetic shift) so the signal keeps its full-scale
    alignment while the word length follows the 4 → 8 → 12-bit progression
    of the paper.
    """

    def __init__(self, stages: List[HogenauerDecimator], rescale: bool = True) -> None:
        if not stages:
            raise ValueError("cascade requires at least one stage")
        self.stages = stages
        self.rescale = rescale

    def reset(self) -> None:
        """Clear every stage's integrator, comb and pipeline registers."""
        for stage in self.stages:
            stage.reset()

    def process(self, samples: np.ndarray, collect_trace: bool = False) -> np.ndarray:
        """Run a block through every stage."""
        data = np.asarray(samples)
        for stage in self.stages:
            data = stage.process(data, collect_trace=collect_trace)
            if self.rescale:
                shift = stage.spec.output_bits - stage.spec.input_bits
                if shift > 0:
                    # Divide by the DC gain (2**shift) with rounding toward
                    # negative infinity (arithmetic shift, as hardware does).
                    if data.dtype == object:
                        data = np.array([int(v) >> shift for v in data.tolist()],
                                        dtype=np.int64)
                    else:
                        data = data >> shift
        return data

    def process_batch(self, samples: np.ndarray) -> np.ndarray:
        """Run a ``(batch, n)`` array of independent records through the
        cascade (zero initial state per row; see
        :meth:`HogenauerDecimator.process_batch`)."""
        data = np.asarray(samples)
        for stage in self.stages:
            data = stage.process_batch(data)
            if self.rescale:
                shift = stage.spec.output_bits - stage.spec.input_bits
                if shift > 0:
                    data = data >> shift
        return data

    @property
    def total_decimation(self) -> int:
        """Product of every stage's decimation factor."""
        total = 1
        for stage in self.stages:
            total *= stage.spec.decimation
        return total

    def resource_summaries(self) -> List[dict]:
        """Per-stage ``resource_summary()`` dicts, first stage first."""
        return [stage.resource_summary() for stage in self.stages]
