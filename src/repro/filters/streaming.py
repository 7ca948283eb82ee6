"""Block-streaming wrappers for the bit-true FIR-shaped chain stages.

The one-shot simulators (:class:`~repro.filters.halfband.HalfbandDecimator`,
:class:`~repro.filters.fir.FIRFilterFixedPoint`) use block-processing
semantics: the full linear convolution is aligned to the filter's group
delay and truncated to the input length, i.e. ``out[i] = full[i + delay]``
for ``i < n_inputs`` (decimated afterwards).  Those semantics make the
output at index ``i`` depend on inputs up to ``i + delay``, so a streaming
implementation must hold back the last ``delay`` outputs until more input
(or the final flush, which supplies the implicit trailing zeros) arrives.

:class:`StreamingFIRDecimator` implements exactly that: it keeps the last
``len(taps) - 1`` input samples as convolution context plus the held-back
output window, and emits, for every pushed block, precisely the outputs that
have become computable.  Concatenating ``push(block)`` results followed by
``flush()`` reproduces the one-shot output bit for bit, while memory use is
bounded by the block size plus the filter length — this is what lets
:meth:`repro.core.chain.DecimationChain.simulate_blocks` run arbitrarily
long bit-streams in constant memory.

The arithmetic runs through the same kernel as the one-shot stages
(:func:`repro.filters.polyphase.fixed_point_decimate`), so it follows the
same engine rule: ``int64`` strided matmul when the accumulator provably
fits, exact arbitrary-precision integers otherwise.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.filters.polyphase import fixed_point_decimate


class StreamingFIRDecimator:
    """Stateful block-wise evaluation of "convolve, align to group delay,
    decimate, round" — bit-exact with the one-shot block semantics.

    Parameters
    ----------
    int_taps:
        Integer (fixed-point) filter taps.
    coefficient_bits:
        Fractional bits of the taps; products are rounded to nearest and the
        fraction is shifted away at the output.
    decimation:
        Keep every ``decimation``-th aligned output (phase 0 first).
    delay:
        Group-delay alignment in samples; defaults to ``(len(taps) - 1)//2``
        (the centred linear-phase alignment used by the chain stages).
    """

    def __init__(self, int_taps: np.ndarray, coefficient_bits: int,
                 decimation: int = 1, delay: Optional[int] = None) -> None:
        taps = [int(t) for t in np.asarray(int_taps).tolist()]
        if not taps:
            raise ValueError("taps must be non-empty")
        if decimation < 1:
            raise ValueError("decimation must be at least 1")
        self._taps_obj = np.array(taps, dtype=object)
        self.coefficient_bits = coefficient_bits
        self.decimation = decimation
        self.delay = (len(taps) - 1) // 2 if delay is None else delay
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        self.reset()

    def reset(self) -> None:
        """Forget all streamed input (fresh zero-state filter)."""
        length = len(self._taps_obj)
        # Last len(taps)-1 inputs: the left context every new window needs.
        self._history = np.zeros(length - 1, dtype=np.int64)
        self._n_seen = 0        # total input samples consumed
        self._next_aligned = 0  # next aligned output index to emit (multiple of M)
        self._flushed = False

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, block: np.ndarray) -> np.ndarray:
        """Consume a block; return the outputs that became computable."""
        if self._flushed:
            raise RuntimeError("streaming filter already flushed; reset() first")
        block = np.asarray(block)
        if len(block) == 0:
            return np.zeros(0, dtype=np.int64)
        data = self._concat_history(block)
        self._n_seen += len(block)
        # Aligned index i needs inputs through i + delay; data[0] is global
        # input index n_seen - len(data).
        emit_end = self._n_seen - self.delay
        out = self._emit(data, emit_end, self._n_seen - len(data))
        self._update_history(data)
        return out

    def flush(self) -> np.ndarray:
        """Emit the held-back tail (implicit trailing zeros), ending the stream."""
        if self._flushed:
            return np.zeros(0, dtype=np.int64)
        self._flushed = True
        if self.delay == 0:
            return np.zeros(0, dtype=np.int64)
        pad = np.zeros(self.delay, dtype=np.int64)
        data = self._concat_history(pad)
        # The one-shot semantics stop at aligned index n_inputs - 1; the pad
        # supplies the trailing zeros np.convolve implies.  data[0] is global
        # input index n_seen - (len(taps) - 1).
        return self._emit(data, self._n_seen,
                          self._n_seen - (len(self._taps_obj) - 1))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _concat_history(self, block: np.ndarray) -> np.ndarray:
        if block.dtype == object or self._history.dtype == object:
            hist = np.array([int(v) for v in self._history.tolist()], dtype=object)
            blk = np.array([int(v) for v in block.tolist()], dtype=object)
            return np.concatenate([hist, blk])
        return np.concatenate([self._history, block.astype(np.int64)])

    def _update_history(self, data: np.ndarray) -> None:
        length = len(self._taps_obj)
        if length == 1:
            return
        tail = data[-(length - 1):]
        if tail.dtype == object:
            # Keep int64 history whenever the values fit, so later blocks can
            # use the fast path again.
            if all(-(1 << 62) <= int(v) < (1 << 62) for v in tail.tolist()):
                tail = np.array([int(v) for v in tail.tolist()], dtype=np.int64)
        self._history = tail

    def _emit(self, data: np.ndarray, emit_end: int, global_base: int) -> np.ndarray:
        """Outputs for aligned indices ``[next_aligned, emit_end)`` on the
        decimation grid.

        ``data`` holds the last ``len(taps)-1`` inputs of context followed
        by the new samples; ``global_base`` is the global input index of
        ``data[0]``.  The aligned output ``i`` is the convolution value at
        global index ``i + delay``, i.e. at index ``i + delay - global_base``
        of ``np.convolve(data, taps)`` — the history guarantees that window
        never reaches into the implicit left zero-padding.
        """
        m = self.decimation
        start = self._next_aligned
        if emit_end <= start:
            return np.zeros(0, dtype=np.int64)
        count = -(-(emit_end - start) // m)  # aligned grid points in range
        offset = start + self.delay - global_base
        out = fixed_point_decimate(data, self._taps_obj, self.coefficient_bits,
                                   offset=offset, step=m, count=count)
        self._next_aligned = start + count * m
        return out
