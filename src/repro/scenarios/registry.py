"""Declarative scenario registry: named multi-standard workloads.

A :class:`Scenario` bundles everything one reconfigurability workload
needs — the standard's :class:`~repro.core.spec.ChainSpec` profile, the
design options, the SNR stimulus, the flow settings and (optionally) the
Farrow rate-converter output rates — into a single declarative object with
a stable name.  The registry maps names to scenarios; the built-in
standard profiles (LTE-20/10/5, WCDMA, NB-IoT, audio, voice-band,
instrumentation, fractional-rate SDR) are defined in
:mod:`repro.scenarios.profiles` and registered on package import.

Examples, tests, benchmarks, the CLI (``python -m repro scenario ...``)
and the golden-record regression checker all resolve workloads through
this registry, so there is exactly one definition of each standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.chain import ChainDesignOptions
from repro.core.spec import ChainSpec, content_hash

__all__ = [
    "Stimulus",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
    "scenarios_by_standard",
]


@dataclass(frozen=True)
class Stimulus:
    """The SNR-leg stimulus of a scenario: one coherent sine tone.

    The tone frequency is snapped to the nearest coherent FFT bin at run
    time (see :func:`repro.core.verification.snr_stimulus_parameters`);
    the values here are the nominal targets recorded in the golden record.
    """

    #: Nominal tone frequency in Hz (the paper uses bandwidth / 4).
    tone_hz: float
    #: Tone amplitude relative to full scale (the paper uses 0.95 x MSA).
    amplitude: float
    #: Modulator samples to simulate for the SNR measurement.
    n_samples: int = 16384

    def to_dict(self) -> dict:
        """JSON-serializable dictionary of the stimulus fields."""
        return {"tone_hz": float(self.tone_hz),
                "amplitude": float(self.amplitude),
                "n_samples": int(self.n_samples)}


@dataclass(frozen=True)
class Scenario:
    """One named, fully-declarative workload of the reproduction.

    A scenario is everything needed to run a standard through the design
    flow and compare the outcome against its committed golden record: the
    profile spec, the design options, the stimulus, the flow settings and
    the optional rate-converter leg.  Scenarios are immutable; derive
    variants with :func:`dataclasses.replace`.
    """

    #: Registry key (kebab-case, e.g. ``"lte-20"``).
    name: str
    #: One-line human-readable title.
    title: str
    #: Standard family tag (``"lte"``, ``"audio"``, ``"sdr"``, ...).
    standard: str
    #: Longer description: what the workload demonstrates and why.
    description: str
    #: The standard's chain specification (profile).
    spec: ChainSpec
    #: Design options (Sinc split, halfband sizing, equalizer order, ...).
    options: ChainDesignOptions
    #: SNR stimulus definition.
    stimulus: Stimulus
    #: Whether the flow simulates the end-to-end SNR (adds the Table I
    #: bottom-row check to the verification mask).
    include_snr: bool = True
    #: Whether the power model measures toggle activity; scenarios default
    #: to the per-kind activity defaults.
    measure_activity: bool = False
    #: Standard-cell library for the power/area estimates.
    library: str = "generic-45nm"
    #: Bit-true chain engine for the simulation legs.
    backend: str = "auto"
    #: Output rates of the Farrow rate-converter leg; empty tuple skips it.
    resample_rates_hz: Tuple[float, ...] = ()
    #: Paper artefact this scenario anchors to (figure/table/claim).
    paper_anchor: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        object.__setattr__(self, "resample_rates_hz",
                           tuple(float(r) for r in self.resample_rates_hz))

    # ------------------------------------------------------------------
    # Execution payload / caching
    # ------------------------------------------------------------------
    def flow_settings(self) -> dict:
        """The flow-settings dictionary consumed by the execution harness.

        Layout-compatible with the sweep runner's flow settings (same
        library/backend/SNR keys), extended with the scenario's explicit
        stimulus so the on-disk cache key covers it.
        """
        from repro.explore.store import CACHE_SCHEMA_VERSION

        tone = self.stimulus
        return {
            "include_snr": bool(self.include_snr),
            "snr_samples": int(tone.n_samples),
            "snr_tone_hz": float(tone.tone_hz),
            "snr_amplitude": float(tone.amplitude),
            "measure_activity": bool(self.measure_activity),
            "backend": str(self.backend),
            "library": str(self.library),
            "cache_schema": CACHE_SCHEMA_VERSION,
        }

    def payload(self) -> dict:
        """JSON-serializable execution payload (what a pool worker rebuilds).

        Superset of the sweep-point payload: the ``"scenario"`` key carries
        the name and the rate-converter leg configuration.
        """
        return {
            "spec": self.spec.to_dict(),
            "options": self.options.to_dict(),
            "flow": self.flow_settings(),
            "scenario": {
                "name": self.name,
                "resample_rates_hz": [float(r) for r in self.resample_rates_hz],
            },
        }

    def cache_key(self) -> str:
        """Content hash keying this scenario's on-disk cache entry.

        Covers the full payload — spec, options, flow settings (stimulus,
        library, backend, cache schema) and the rate-converter leg — so
        any input that could change the record changes the key.
        """
        return content_hash({"payload": self.payload()})

    def summary_row(self) -> Dict[str, object]:
        """Flat catalog row (the ``scenario list`` table / docs catalog)."""
        mod = self.spec.modulator
        dec = self.spec.decimator
        return {
            "name": self.name,
            "standard": self.standard,
            "bandwidth_hz": mod.bandwidth_hz,
            "osr": mod.osr,
            "sample_rate_hz": mod.sample_rate_hz,
            "modulator_order": mod.order,
            "output_rate_hz": dec.output_rate_hz,
            "output_bits": dec.output_bits,
            "target_snr_db": dec.target_snr_db,
            "stopband_attenuation_db": dec.stopband_attenuation_db,
            "resample_rates_hz": list(self.resample_rates_hz),
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register a scenario under its name; duplicate names are an error.

    Returns the scenario so definitions can be registered inline.
    """
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name (KeyError names the options)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; registered: "
                       f"{', '.join(scenario_names())}") from None


def scenario_names() -> List[str]:
    """Names of every registered scenario, in registration order."""
    return list(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """Every registered scenario, in registration order."""
    return list(_REGISTRY.values())


def scenarios_by_standard(standard: str) -> List[Scenario]:
    """Registered scenarios of one standard family (e.g. ``"lte"``)."""
    return [s for s in _REGISTRY.values() if s.standard == standard]


def resolve_scenarios(which: Optional[Union[str, Scenario, list, tuple]] = None,
                      ) -> List[Scenario]:
    """Normalize a scenario selection into a list of :class:`Scenario`.

    ``None`` selects every registered scenario; a string or
    :class:`Scenario` selects one; a list/tuple may mix both forms.
    """
    if which is None:
        return all_scenarios()
    if isinstance(which, (str, Scenario)):
        which = [which]
    resolved: List[Scenario] = []
    for entry in which:
        resolved.append(entry if isinstance(entry, Scenario)
                        else get_scenario(entry))
    return resolved
