"""Noise transfer function (NTF) synthesis for delta-sigma modulators.

The paper's modulator is a 5th-order, OSR-16 design with an out-of-band gain
(OBG) of 3 and optimized in-band NTF zeros realized by two resonators
(Table I / Fig. 2).  This module reproduces the functionality of the
Delta-Sigma Toolbox's ``synthesizeNTF`` that the authors used:

* optimal placement of NTF zeros inside the signal band (minimizing the
  integrated in-band quantization noise), and
* a maximally-flat (Butterworth-style) high-pass pole placement whose corner
  frequency is tuned so that the out-of-band NTF gain equals the requested
  ``h_inf`` (the Lee-criterion knob controlling stability vs. noise
  suppression).

The resulting NTF is returned in zero-pole-gain form and can be converted to
transfer-function or loop-filter form for simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import signal

#: Optimal normalized zero positions (relative to the band edge) that minimize
#: the integrated in-band noise power for an all-zero-on-the-unit-circle NTF.
#: Values follow Schreier & Temes, "Understanding Delta-Sigma Data
#: Converters", Table 4.1 (odd orders include a zero at DC).
_OPTIMAL_ZERO_POSITIONS = {
    1: [0.0],
    2: [0.57735],
    3: [0.0, 0.77459],
    4: [0.33998, 0.86113],
    5: [0.0, 0.53846, 0.90617],
    6: [0.23861, 0.66120, 0.93246],
    7: [0.0, 0.40584, 0.74153, 0.94910],
    8: [0.18343, 0.52553, 0.79666, 0.96028],
}


class NTFSynthesisError(RuntimeError):
    """Raised when NTF synthesis cannot satisfy the requested parameters."""


@dataclass
class NoiseTransferFunction:
    """A synthesized noise transfer function in zero-pole-gain form.

    Attributes
    ----------
    zeros, poles:
        Arrays of complex zeros and poles in the z-plane.
    gain:
        Overall gain (always 1.0 for an NTF, whose leading impulse-response
        sample must be unity).
    order:
        Modulator order.
    osr:
        Oversampling ratio the NTF was designed for.
    h_inf:
        Out-of-band gain actually achieved.
    """

    zeros: np.ndarray
    poles: np.ndarray
    gain: float
    order: int
    osr: int
    h_inf: float
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Response evaluation
    # ------------------------------------------------------------------
    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate the NTF at points ``z`` in the complex plane."""
        z = np.asarray(z, dtype=complex)
        num = np.ones_like(z)
        for zero in self.zeros:
            num = num * (z - zero)
        den = np.ones_like(z)
        for pole in self.poles:
            den = den * (z - pole)
        return self.gain * num / den

    def frequency_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Evaluate the NTF at normalized frequencies (cycles/sample)."""
        w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        return self.evaluate(np.exp(1j * w))

    def magnitude_db(self, frequencies: np.ndarray) -> np.ndarray:
        """NTF magnitude in dB at normalized frequencies (cycles/sample)."""
        resp = np.abs(self.frequency_response(frequencies))
        return 20.0 * np.log10(np.maximum(resp, 1e-300))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def as_tf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(b, a)`` polynomial coefficients of the NTF."""
        b, a = signal.zpk2tf(self.zeros, self.poles, self.gain)
        return np.real_if_close(b).astype(float), np.real_if_close(a).astype(float)

    def loop_filter_impulse_response(self, n_samples: int = 64) -> np.ndarray:
        """Impulse response of the error-feedback loop filter ``1 - NTF``.

        With a signal transfer function of unity, the quantizer input is
        ``y[n] = u[n] - sum_k h[k] e[n-k]`` where ``h`` is this impulse
        response without its leading (zero) sample.  This is the sequence
        used by the error-feedback modulator simulation.
        """
        b, a = self.as_tf()
        # 1 - NTF(z):  numerator a - b over denominator a.
        diff = np.polysub(a, b)
        impulse = np.zeros(n_samples)
        impulse[0] = 1.0
        response = signal.lfilter(diff, a, impulse)
        return response

    # ------------------------------------------------------------------
    # Figures of merit
    # ------------------------------------------------------------------
    def inband_noise_gain(self, osr: Optional[int] = None, n_points: int = 2048) -> float:
        """RMS gain of the NTF over the signal band ``[0, 0.5/OSR]``.

        This is the factor by which the quantization noise standard
        deviation is attenuated in band; it drives the theoretical SQNR.
        """
        osr = osr or self.osr
        freqs = np.linspace(0.0, 0.5 / osr, n_points)
        mag2 = np.abs(self.frequency_response(freqs)) ** 2
        return float(np.sqrt(np.trapezoid(mag2, freqs) * 2.0 * osr))

    def out_of_band_gain(self, n_points: int = 4096) -> float:
        """Maximum NTF magnitude over the whole band (attained near fs/2)."""
        freqs = np.linspace(0.0, 0.5, n_points)
        return float(np.max(np.abs(self.frequency_response(freqs))))

    def predicted_sqnr_db(self, quantizer_levels: int = 16,
                          input_amplitude: float = 0.5,
                          osr: Optional[int] = None) -> float:
        """Linear-model SQNR prediction.

        Assumes the quantization error is white with power ``Δ²/12`` where
        ``Δ = 2/(levels-1)`` (full scale ±1), shaped by the NTF and
        integrated over the signal band.
        """
        osr = osr or self.osr
        delta = 2.0 / (quantizer_levels - 1)
        noise_power_total = delta ** 2 / 12.0
        freqs = np.linspace(1e-6, 0.5 / osr, 4096)
        mag2 = np.abs(self.frequency_response(freqs)) ** 2
        inband_noise = noise_power_total * 2.0 * np.trapezoid(mag2, freqs)
        signal_power = input_amplitude ** 2 / 2.0
        return float(10.0 * np.log10(signal_power / max(inband_noise, 1e-300)))


def optimal_zero_frequencies(order: int, osr: int, optimize: bool = True) -> np.ndarray:
    """Normalized frequencies (cycles/sample) of the optimal in-band NTF zeros.

    When ``optimize`` is ``False`` all zeros are placed at DC, matching a
    plain ``(1 - z^-1)^N`` differentiator NTF.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    band_edge = 0.5 / osr
    if not optimize:
        return np.zeros(order)
    positions = _OPTIMAL_ZERO_POSITIONS.get(order)
    if positions is None:
        positions = _solve_optimal_positions(order)
    freqs = []
    for p in positions:
        if p == 0.0:
            freqs.append(0.0)
        else:
            freqs.append(p * band_edge)
            freqs.append(-p * band_edge)
    freqs = np.array(sorted(freqs))
    if len(freqs) != order:
        raise NTFSynthesisError(
            f"internal error: produced {len(freqs)} zeros for order {order}"
        )
    return freqs


def _solve_optimal_positions(order: int) -> Sequence[float]:
    """Numerically solve for the optimal zero positions of an arbitrary order.

    Minimizes ``∫_0^1 prod_i (x - x_i)^2 dx`` over symmetric zero placements
    ``x_i`` in [0, 1] (DC zero included for odd orders), which is the
    band-normalized in-band noise power for zeros on the unit circle.
    """
    from scipy import optimize as sciopt

    n_free = order // 2
    include_dc = order % 2 == 1

    def inband_power(free_positions: np.ndarray) -> float:
        xs = np.linspace(0.0, 1.0, 2048)
        prod = np.ones_like(xs)
        if include_dc:
            prod = prod * xs ** 2
        for p in free_positions:
            prod = prod * (xs ** 2 - p ** 2) ** 2
        return float(np.trapezoid(prod, xs))

    x0 = np.linspace(0.3, 0.9, n_free)
    bounds = [(0.0, 1.0)] * n_free
    result = sciopt.minimize(inband_power, x0, bounds=bounds, method="L-BFGS-B")
    positions = sorted(float(v) for v in result.x)
    if include_dc:
        return [0.0] + positions
    return positions


def _butterworth_highpass_poles(order: int, corner: float) -> np.ndarray:
    """Poles of a digital Butterworth high-pass with normalized corner frequency.

    ``corner`` is in cycles/sample (0..0.5).  Only the poles are used; the
    NTF zeros come from :func:`optimal_zero_frequencies`.
    """
    corner = min(max(corner, 1e-6), 0.49999)
    _, poles, _ = signal.butter(order, 2.0 * corner, btype="highpass", output="zpk")
    return np.asarray(poles, dtype=complex)


@lru_cache(maxsize=64)
def synthesize_ntf(order: int = 5, osr: int = 16, h_inf: float = 3.0,
                   optimize_zeros: bool = True,
                   f0: float = 0.0) -> NoiseTransferFunction:
    """Synthesize a low-pass delta-sigma NTF.

    Synthesis is deterministic in its arguments and the returned
    :class:`NoiseTransferFunction` is never mutated, so results are
    memoized — a design-space sweep constructs the same modulator NTF for
    every point that shares a modulator spec.

    Parameters
    ----------
    order:
        Loop-filter order (5 for the paper's modulator).
    osr:
        Oversampling ratio (16 for the paper's modulator).
    h_inf:
        Target out-of-band gain (infinity-norm of the NTF).  The paper's
        design uses 3 (Table I, "OBG").
    optimize_zeros:
        Spread the NTF zeros across the signal band (two resonators plus a
        DC zero for a 5th-order design) instead of stacking them at DC.
    f0:
        Center frequency for band-pass designs (only 0.0 — low-pass — is
        supported; the parameter exists for API compatibility).

    Returns
    -------
    NoiseTransferFunction

    Raises
    ------
    NTFSynthesisError
        If the requested out-of-band gain cannot be realized.
    """
    if f0 != 0.0:
        raise NotImplementedError("only low-pass NTF synthesis is supported")
    if order < 1 or order > 12:
        raise ValueError("order must be between 1 and 12")
    if osr < 2:
        raise ValueError("osr must be at least 2")
    if h_inf <= 1.0:
        raise ValueError("h_inf must exceed 1.0")

    zero_freqs = optimal_zero_frequencies(order, osr, optimize_zeros)
    zeros = np.exp(2j * np.pi * zero_freqs)

    def out_of_band_gain_for(corner: float) -> float:
        poles = _butterworth_highpass_poles(order, corner)
        ntf = NoiseTransferFunction(zeros, poles, 1.0, order, osr, h_inf)
        return ntf.out_of_band_gain()

    # The out-of-band gain grows monotonically with the Butterworth corner
    # frequency once the corner is at or above the signal-band edge (below
    # the band edge the poles crowd the in-band zeros and the response peaks
    # in band); bisect the corner in that monotone region.
    lo, hi = 0.5 / osr, 0.45
    gain_lo = out_of_band_gain_for(lo)
    gain_hi = out_of_band_gain_for(hi)
    if gain_lo > h_inf:
        raise NTFSynthesisError(
            f"requested h_inf={h_inf} is below the minimum achievable "
            f"({gain_lo:.3f}) for order {order}"
        )
    if gain_hi < h_inf:
        hi = 0.499
        gain_hi = out_of_band_gain_for(hi)
        if gain_hi < h_inf:
            raise NTFSynthesisError(
                f"requested h_inf={h_inf} exceeds the maximum achievable "
                f"({gain_hi:.3f}) for order {order}"
            )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if out_of_band_gain_for(mid) < h_inf:
            lo = mid
        else:
            hi = mid
    corner = 0.5 * (lo + hi)
    poles = _butterworth_highpass_poles(order, corner)
    ntf = NoiseTransferFunction(
        zeros=zeros,
        poles=poles,
        gain=1.0,
        order=order,
        osr=osr,
        h_inf=float(out_of_band_gain_for(corner)),
        metadata={
            "butterworth_corner": corner,
            "optimized_zeros": optimize_zeros,
            "zero_frequencies": zero_freqs,
        },
    )
    return ntf


def ntf_for_paper_design() -> NoiseTransferFunction:
    """The NTF used throughout the paper: 5th order, OSR 16, OBG 3."""
    return synthesize_ntf(order=5, osr=16, h_inf=3.0, optimize_zeros=True)
