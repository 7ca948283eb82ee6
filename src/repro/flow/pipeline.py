"""End-to-end design flow: spec in, verified design + synthesis report out.

The flow's simulation steps accept a ``backend`` option selecting the
bit-true chain engine (``"auto"``/``"reference"``/``"vectorized"``; all
bit-exact — see :mod:`repro.core.chain`) and expose the block-streaming
simulator through :meth:`FlowResult.simulate_blocks` so arbitrarily long
code records can be pushed through a designed chain in bounded memory.

Staged execution
----------------
:func:`run_design_flow` is internally a pipeline of keyed stages —
modulator simulation, chain design (halfband + equalizer sub-stages), mask
verification, SNR measurement, synthesis.  Passing an
:class:`~repro.flow.artifacts.ArtifactStore` memoizes every stage on a
content key derived from its actual inputs, so repeated flows that share
inputs (the points of a design-space sweep) compute each shared stage once
while producing records bit-identical to unmemoized runs.
:func:`warm_flow_artifacts` pre-computes exactly the shareable stages,
which is how the sweep runner's process executor fills a store in the
parent before shipping it to the workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from repro.core.chain import ChainDesignOptions, DecimationChain
from repro.core.spec import ChainSpec, paper_chain_spec
from repro.core.verification import (VerificationReport, modulator_tone_codes,
                                     verify_chain)
from repro.flow.artifacts import ArtifactStore
from repro.hardware.stdcell import GENERIC_45NM, StandardCellLibrary
from repro.hardware.synthesis import SynthesisFlow, SynthesisReport
from repro.obs import trace


@dataclass
class FlowResult:
    """Everything produced by one run of the design flow."""

    spec: ChainSpec
    chain: DecimationChain
    verification: VerificationReport
    synthesis: SynthesisReport
    simulated_snr_db: Optional[float] = None
    metadata: dict = field(default_factory=dict)

    @property
    def meets_spec(self) -> bool:
        """Whether the verification report passed every check."""
        return self.verification.passed

    def simulate_blocks(self, codes: Union[np.ndarray, Iterable[np.ndarray]],
                        block_size: int = 65536,
                        backend: str = "auto") -> Iterator[np.ndarray]:
        """Stream a code record through the designed chain in bounded memory.

        Thin delegate to
        :meth:`repro.core.chain.DecimationChain.simulate_blocks`; the
        concatenated blocks equal ``chain.process_fixed(codes)`` bit for
        bit.
        """
        return self.chain.simulate_blocks(codes, block_size=block_size,
                                          backend=backend)

    def summary(self) -> dict:
        """Flat dictionary used by the examples and the benchmark harness."""
        out = {
            "meets_spec": self.meets_spec,
            "total_power_mw": self.synthesis.total_power_mw,
            "total_area_mm2": self.synthesis.total_area_mm2,
            "rtl_modules": len(self.synthesis.rtl),
            "rtl_lines": self.synthesis.rtl_line_count(),
        }
        out.update({f"design_{k}": v for k, v in self.chain.summary().items()})
        if self.simulated_snr_db is not None:
            out["simulated_snr_db"] = self.simulated_snr_db
        return out

    def record(self) -> dict:
        """JSON-serializable record of this run (the sweep cache payload).

        Contains the spec, design options, flat summary, verification
        checks and per-stage power rows — everything the batch reports and
        the :mod:`repro.explore` result cache need, with numpy scalars
        coerced to plain Python types so ``json.dumps`` round-trips.
        """
        return json_sanitize({
            "spec": self.spec.to_dict(),
            "options": self.chain.options.to_dict(),
            "summary": self.summary(),
            "verification": self.verification.as_dict(),
            "power_table": self.synthesis.power_table(),
            "gate_count": self.synthesis.total_gate_count,
            "metadata": self.metadata,
        })


def json_sanitize(value):
    """Recursively coerce numpy scalars/arrays into JSON-safe Python types.

    Public utility shared by every record producer (`FlowResult.record`,
    the scenario runner, the robustness engine): nested dicts/lists/tuples
    are rebuilt with numpy booleans/integers/floats/arrays converted to
    their plain Python equivalents, so ``json.dumps`` round-trips the
    result byte-stably.
    """
    if isinstance(value, dict):
        return {str(k): json_sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def run_design_flow(spec: Optional[ChainSpec] = None,
                    options: Optional[ChainDesignOptions] = None,
                    library: StandardCellLibrary = GENERIC_45NM,
                    include_snr_simulation: bool = False,
                    snr_samples: int = 32768,
                    measure_activity: bool = True,
                    backend: str = "auto",
                    artifacts: Optional[ArtifactStore] = None,
                    snr_tone_hz: Optional[float] = None,
                    snr_amplitude: Optional[float] = None) -> FlowResult:
    """Run the complete rapid design-and-synthesis flow.

    Parameters
    ----------
    spec:
        Chain specification; defaults to the paper's Table I.
    options:
        Architecture/implementation options; defaults reproduce the paper.
    library:
        Standard-cell technology model for the power/area estimates.
    include_snr_simulation:
        Also simulate the modulator + bit-true chain to measure the output
        SNR (slow; a few seconds for the default record length).  The
        measured SNR is added to the verification report as a check
        against the Table I target, so it counts toward ``meets_spec``.
    snr_samples:
        Modulator samples for the SNR simulation.
    measure_activity:
        Measure Hogenauer toggle activity with the 5 MHz MSA stimulus for
        the power model (the paper's methodology) instead of using defaults.
    backend:
        Bit-true chain engine for the SNR simulation (all engines are
        bit-exact; ``"auto"`` picks the vectorized fast path).
    artifacts:
        Optional :class:`~repro.flow.artifacts.ArtifactStore` memoizing the
        shareable stages (halfband/equalizer design, mask verification,
        modulator bit-stream) across flow runs.  Results are bit-identical
        with or without a store; per-run stages (synthesis, the per-chain
        SNR leg) always execute.
    snr_tone_hz, snr_amplitude:
        Optional explicit SNR stimulus, forwarded to
        :func:`repro.core.verification.verify_chain`; the defaults derive
        the paper's bandwidth/4 tone at 0.95 x MSA from the spec.
    """
    spec = spec or paper_chain_spec()
    with trace.span("flow.design", memoized=artifacts is not None):
        chain = DecimationChain.design(spec, options, artifacts=artifacts)
    verification = verify_chain(chain, include_snr=include_snr_simulation,
                                snr_samples=snr_samples, backend=backend,
                                artifacts=artifacts,
                                snr_tone_hz=snr_tone_hz,
                                snr_amplitude=snr_amplitude)
    with trace.span("flow.synthesis", measure_activity=measure_activity):
        synthesis = SynthesisFlow(library).run(chain, measure_activity=measure_activity)
    snr = verification.metadata.get("simulated_snr_db")
    return FlowResult(
        spec=spec,
        chain=chain,
        verification=verification,
        synthesis=synthesis,
        simulated_snr_db=snr,
        metadata={"library": library.name},
    )


def warm_flow_artifacts(spec: Optional[ChainSpec],
                        options: Optional[ChainDesignOptions],
                        artifacts: ArtifactStore,
                        include_snr_simulation: bool = False,
                        snr_samples: int = 32768,
                        modulator_engine: str = "fast",
                        snr_tone_hz: Optional[float] = None,
                        snr_amplitude: Optional[float] = None) -> None:
    """Pre-compute the shareable stages of :func:`run_design_flow`.

    Fills ``artifacts`` with the chain-design sub-stages, the mask
    verification and (with ``include_snr_simulation``) the modulator
    bit-stream for the given point, without running the per-point stages
    (synthesis, the chain's SNR leg).  The sweep runner's process executor
    warms a store with one representative of every stage-sharing group of
    pending points in the parent and ships it to the workers once, via the
    pool initializer.
    """
    spec = spec or paper_chain_spec()
    chain = DecimationChain.design(spec, options, artifacts=artifacts)
    verify_chain(chain, include_snr=False, artifacts=artifacts)
    if include_snr_simulation:
        from repro.core.verification import snr_stimulus_parameters

        exact_tone_hz, amplitude, total, _ = snr_stimulus_parameters(
            chain, snr_samples, tone_hz=snr_tone_hz, amplitude=snr_amplitude)
        modulator_tone_codes(spec.modulator, exact_tone_hz, amplitude, total,
                             engine=modulator_engine, artifacts=artifacts)
