"""Declarative design-space sweeps: a base spec expanded over parameter grids.

A :class:`SweepSpec` describes a grid of design points around a base
:class:`~repro.core.spec.ChainSpec`: oversampling ratios, signal bandwidths,
Sinc order splits, output word widths and halfband stopband-ripple
(attenuation) targets.  :meth:`SweepSpec.expand` turns the grid into a
deterministic, ordered list of :class:`SweepPoint` objects, each carrying a
fully-derived, self-consistent ``ChainSpec`` + ``ChainDesignOptions`` pair
ready for :func:`repro.flow.run_design_flow` — the batch runner in
:mod:`repro.explore.runner` executes them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.chain import ChainDesignOptions
from repro.core.spec import ChainSpec, content_hash, paper_chain_spec

#: Sentinel axis value meaning "let the designer pick the Sinc order split".
AUTO_SINC_ORDERS = "auto"

#: Margin (dB) between a swept stopband-attenuation requirement and the
#: halfband design target, mirroring the paper's 90 dB target for its
#: 85 dB requirement.
HALFBAND_DESIGN_MARGIN_DB = 5.0

#: The grid axes in their fixed expansion order (first axis varies slowest).
SWEEP_AXES = (
    "osr",
    "bandwidth_hz",
    "sinc_orders",
    "output_bits",
    "halfband_attenuation_db",
    "halfband_coefficient_bits",
)


@dataclass(frozen=True)
class SweepPoint:
    """One fully-derived point of a design-space sweep."""

    #: Position in the deterministic expansion order.
    index: int
    #: Short human-readable identifier built from the swept parameters.
    label: str
    #: The swept parameter values that distinguish this point (axis → value).
    params: Tuple[Tuple[str, object], ...]
    #: Derived, self-consistent chain specification.
    spec: ChainSpec
    #: Derived design options (Sinc split, halfband sizing, …).
    options: ChainDesignOptions

    def params_dict(self) -> Dict[str, object]:
        """The swept parameters as a plain dictionary."""
        return dict(self.params)

    def payload(self) -> dict:
        """JSON-serializable spec+options payload (what a worker rebuilds)."""
        return {"spec": self.spec.to_dict(), "options": self.options.to_dict()}

    def cache_key(self, flow_settings: Optional[Mapping] = None) -> str:
        """Content hash keying this point's on-disk cache entry.

        The key covers the derived spec, the design options and the flow
        settings (SNR simulation on/off, sample count, activity
        measurement, library), so any input that could change the result
        changes the key.
        """
        return content_hash({
            "payload": self.payload(),
            "flow": dict(flow_settings or {}),
        })


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of design points around a base specification.

    Every axis is a (possibly empty) tuple of candidate values; empty axes
    keep the base value.  The cartesian product of the non-empty axes, in
    :data:`SWEEP_AXES` order, defines the sweep — expansion order and
    labels are fully deterministic.

    Axes
    ----
    osr:
        Oversampling ratios (each a power of two for the halving-stage
        architecture).
    bandwidth_hz:
        Signal bandwidths; rates and filter band edges scale with them
        (see :meth:`repro.core.spec.ChainSpec.derive`).
    sinc_orders:
        Sinc order splits — explicit tuples like ``(4, 4, 6)`` and/or the
        string ``"auto"`` to let :func:`repro.core.designer.choose_sinc_orders`
        pick.  Explicit splits must match the point's stage count.
    output_bits:
        Output word widths.
    halfband_attenuation_db:
        Stopband-attenuation (halfband stopband ripple) requirements; each
        value retargets both the verification mask and the halfband design
        target (requirement + :data:`HALFBAND_DESIGN_MARGIN_DB`).
    halfband_coefficient_bits:
        Halfband coefficient word widths.

    Bandwidths and attenuations must be finite and positive, the integer
    axes at least 1; anything else raises :class:`ValueError`.
    """

    base: ChainSpec = field(default_factory=paper_chain_spec)
    options: ChainDesignOptions = field(default_factory=ChainDesignOptions)
    osr: Tuple[int, ...] = ()
    bandwidth_hz: Tuple[float, ...] = ()
    sinc_orders: Tuple[Union[Tuple[int, ...], str], ...] = ()
    output_bits: Tuple[int, ...] = ()
    halfband_attenuation_db: Tuple[float, ...] = ()
    halfband_coefficient_bits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "osr", tuple(int(v) for v in self.osr))
        object.__setattr__(self, "bandwidth_hz",
                           tuple(float(v) for v in self.bandwidth_hz))
        object.__setattr__(self, "sinc_orders",
                           tuple(self._normalize_split(v) for v in self.sinc_orders))
        object.__setattr__(self, "output_bits",
                           tuple(int(v) for v in self.output_bits))
        object.__setattr__(self, "halfband_attenuation_db",
                           tuple(float(v) for v in self.halfband_attenuation_db))
        object.__setattr__(self, "halfband_coefficient_bits",
                           tuple(int(v) for v in self.halfband_coefficient_bits))
        for name in ("bandwidth_hz", "halfband_attenuation_db"):
            for value in getattr(self, name):
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"{name} values must be finite and > 0, "
                                     f"got {value}")
        for name in ("osr", "output_bits", "halfband_coefficient_bits"):
            for value in getattr(self, name):
                if value < 1:
                    raise ValueError(f"{name} values must be >= 1, got {value}")

    @staticmethod
    def _normalize_split(value: Union[Sequence[int], str]) -> Union[Tuple[int, ...], str]:
        if isinstance(value, str):
            if value != AUTO_SINC_ORDERS:
                raise ValueError(
                    f"sinc_orders axis entries must be order tuples or "
                    f"{AUTO_SINC_ORDERS!r}, got {value!r}")
            return AUTO_SINC_ORDERS
        return tuple(int(v) for v in value)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def axes(self) -> Dict[str, Tuple[object, ...]]:
        """The non-empty axes, in expansion order (axis name → values)."""
        axes: Dict[str, Tuple[object, ...]] = {}
        for name in SWEEP_AXES:
            values = getattr(self, name)
            if values:
                axes[name] = values
        return axes

    def num_points(self) -> int:
        """Number of points :meth:`expand` will produce."""
        count = 1
        for values in self.axes().values():
            count *= len(values)
        return count

    def expand(self) -> List[SweepPoint]:
        """Expand the grid into its deterministic, ordered list of points.

        Raises :class:`ValueError` when a combination is inconsistent
        (e.g. an explicit Sinc split whose length does not match the OSR's
        stage count), naming the offending point.
        """
        axes = self.axes()
        names = list(axes)
        points: List[SweepPoint] = []
        for index, combo in enumerate(itertools.product(*axes.values())):
            params = dict(zip(names, combo))
            label = self._label(params) or "base"
            spec, options = self._derive_point(params, label)
            points.append(SweepPoint(
                index=index,
                label=label,
                params=tuple(params.items()),
                spec=spec,
                options=options,
            ))
        return points

    def _derive_point(self, params: Dict[str, object],
                      label: str) -> Tuple[ChainSpec, ChainDesignOptions]:
        spec = self.base.derive(
            osr=params.get("osr"),
            bandwidth_hz=params.get("bandwidth_hz"),
            output_bits=params.get("output_bits"),
            stopband_attenuation_db=params.get("halfband_attenuation_db"),
        )
        n_sinc = spec.num_halving_stages - 1  # validates power-of-two OSR

        overrides: Dict[str, object] = {}
        split = params.get("sinc_orders")
        if split == AUTO_SINC_ORDERS:
            overrides["sinc_orders"] = None
        elif split is not None:
            if len(split) != n_sinc:
                raise ValueError(
                    f"sweep point {label!r}: sinc split {split} has "
                    f"{len(split)} stages but OSR {spec.modulator.osr} "
                    f"needs {n_sinc}")
            overrides["sinc_orders"] = tuple(split)
        else:
            base_split = self.options.sinc_orders
            if base_split is not None and len(base_split) != n_sinc:
                # The base options' split no longer fits the derived OSR;
                # fall back to the designer's choice instead of erroring.
                overrides["sinc_orders"] = None
        if "halfband_attenuation_db" in params:
            overrides["halfband_target_attenuation_db"] = (
                float(params["halfband_attenuation_db"]) + HALFBAND_DESIGN_MARGIN_DB)
        if "halfband_coefficient_bits" in params:
            overrides["halfband_coefficient_bits"] = int(
                params["halfband_coefficient_bits"])
        options = replace(self.options, **overrides) if overrides else self.options
        return spec, options

    @staticmethod
    def _label(params: Dict[str, object]) -> str:
        parts: List[str] = []
        for name, value in params.items():
            if name == "osr":
                parts.append(f"osr{value}")
            elif name == "bandwidth_hz":
                parts.append(f"bw{float(value) / 1e6:g}M")
            elif name == "sinc_orders":
                if value == AUTO_SINC_ORDERS:
                    parts.append("sincauto")
                else:
                    parts.append("sinc" + "-".join(str(v) for v in value))
            elif name == "output_bits":
                parts.append(f"w{value}")
            elif name == "halfband_attenuation_db":
                parts.append(f"att{float(value):g}")
            elif name == "halfband_coefficient_bits":
                parts.append(f"hbc{value}")
        return "_".join(parts)
