"""Tests for the delta-sigma modulator simulation."""

import dataclasses

import numpy as np
import pytest

from repro.dsm import (
    DeltaSigmaModulator,
    ErrorFeedbackSimulator,
    MultibitQuantizer,
    StateSpaceSimulator,
    analyze_tone,
    coherent_tone,
    simulate_dsm,
    synthesize_ntf,
)


class TestErrorFeedbackSimulator:
    def test_output_values_on_quantizer_grid(self, paper_modulator, modulator_codes):
        grid = paper_modulator.quantizer.level_values
        assert np.all(np.isin(np.round(modulator_codes.output, 10),
                              np.round(grid, 10)))

    def test_codes_in_range(self, modulator_codes):
        assert modulator_codes.codes.min() >= 0
        assert modulator_codes.codes.max() <= 15

    def test_stable_for_moderate_input(self, modulator_codes):
        assert modulator_codes.stable

    def test_output_tracks_input_at_low_frequency(self, paper_modulator):
        # The STF is unity, so a slow ramp must be followed closely on average.
        n = 4096
        u = np.full(n, 0.5)
        result = paper_modulator.simulate(u)
        assert np.mean(result.output[n // 2:]) == pytest.approx(0.5, abs=0.01)

    def test_dc_input_zero_gives_near_zero_mean(self, paper_modulator):
        result = paper_modulator.simulate(np.zeros(4096))
        assert abs(np.mean(result.output[1000:])) < 0.02

    def test_noise_is_shaped_highpass(self, paper_modulator):
        # Quantization error spectrum must rise with frequency: compare the
        # in-band noise with the out-of-band noise for a zero input.
        result = paper_modulator.simulate(np.zeros(16384))
        spectrum = np.abs(np.fft.rfft(result.output * np.hanning(16384))) ** 2
        freqs = np.fft.rfftfreq(16384)
        inband = np.sum(spectrum[(freqs > 0.001) & (freqs < 0.5 / 16)])
        outband = np.sum(spectrum[freqs > 0.25])
        assert outband > 100 * inband

    def test_requires_monic_ntf(self):
        # A non-monic copy: synthesize_ntf results are shared (LRU-cached).
        ntf = dataclasses.replace(synthesize_ntf(3, 16, 1.5), gain=2.0)
        with pytest.raises(ValueError):
            ErrorFeedbackSimulator(ntf, MultibitQuantizer(4))

    def test_measured_sqnr_near_paper_value(self, paper_modulator):
        n = 16384
        tone = coherent_tone(2e6, 0.6, 640e6, n)
        result = paper_modulator.simulate(tone)
        analysis = analyze_tone(result.output, 640e6, 2e6, 20e6)
        # Paper: 102 dB at full MSA; at -4 dBFS we expect >90 dB.
        assert analysis.snr_db > 90.0

    def test_instability_flag_for_large_input(self, paper_modulator):
        n = 4096
        tone = coherent_tone(2e6, 1.3, 640e6, n)
        result = paper_modulator.simulate(tone)
        saturating = np.mean(paper_modulator.quantizer.is_saturating(result.quantizer_input))
        assert (not result.stable) or saturating > 0.1


class TestStateSpaceSimulator:
    def test_matches_error_feedback_engine(self, paper_ntf):
        quantizer = MultibitQuantizer(4)
        n = 8192
        tone = coherent_tone(2e6, 0.5, 640e6, n)
        ef = ErrorFeedbackSimulator(paper_ntf, quantizer).simulate(tone)
        ss = StateSpaceSimulator(paper_ntf, quantizer).simulate(tone)
        # Both engines realize the same NTF/STF.  The error-feedback engine
        # truncates the feedback impulse response, so individual quantizer
        # decisions eventually diverge (the loop is chaotic), but the initial
        # samples match exactly and the noise-shaping statistics agree.
        assert np.array_equal(ef.output[:100], ss.output[:100])
        snr_ef = analyze_tone(ef.output, 640e6, 2e6, 20e6).snr_db
        snr_ss = analyze_tone(ss.output, 640e6, 2e6, 20e6).snr_db
        assert snr_ef == pytest.approx(snr_ss, abs=4.0)
        assert ef.stable and ss.stable

    def test_states_are_recorded(self, paper_ntf):
        sim = StateSpaceSimulator(paper_ntf, MultibitQuantizer(4))
        result = sim.simulate(np.zeros(128))
        assert result.metadata["states"].shape == (128, 5)


class TestDeltaSigmaModulator:
    def test_derived_rates(self, paper_modulator):
        assert paper_modulator.signal_bandwidth_hz == pytest.approx(20e6)
        assert paper_modulator.output_rate_hz == pytest.approx(40e6)

    def test_bitstream_for_tone_helper(self, paper_modulator):
        result = paper_modulator.bitstream_for_tone(3e6, 0.5, 2048)
        assert result.n_samples == 2048

    def test_msa_estimate_in_plausible_range(self, paper_modulator):
        msa = paper_modulator.estimate_msa(n_samples=2048,
                                           amplitude_grid=np.linspace(0.6, 1.0, 9))
        # The paper reports 0.81; the coarse empirical estimate must land in
        # the same neighbourhood.
        assert 0.6 <= msa <= 1.0

    def test_predicted_sqnr(self, paper_modulator):
        assert paper_modulator.predicted_sqnr_db(0.81) > 95.0

    def test_unknown_engine_raises(self, paper_modulator):
        with pytest.raises(ValueError):
            paper_modulator.simulate(np.zeros(16), engine="spice")

    def test_simulate_dsm_wrapper(self, paper_ntf):
        tone = coherent_tone(2e6, 0.4, 640e6, 1024)
        result = simulate_dsm(tone, paper_ntf, quantizer_bits=4)
        assert result.n_samples == 1024
        assert result.codes.dtype.kind == "i"


class TestNonFiniteStimulus:
    """NaN/Inf stimuli are rejected where the modulator accepts ``u``."""

    @staticmethod
    def _poisoned(bad):
        u = 0.5 * np.sin(np.arange(64) * 0.1)
        u[17] = bad
        return u

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", ["error-feedback", "fast",
                                        "error-feedback-fast", "state-space"])
    def test_simulate_rejects(self, paper_modulator, engine, bad):
        with pytest.raises(ValueError, match="stimulus must be finite"):
            paper_modulator.simulate(self._poisoned(bad), engine=engine)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_simulate_batch_rejects(self, paper_modulator, bad):
        batch = np.stack([self._poisoned(0.0), self._poisoned(bad)])
        with pytest.raises(ValueError, match="stimulus must be finite"):
            paper_modulator.simulate_batch(batch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_simulate_dsm_rejects(self, paper_ntf, bad):
        with pytest.raises(ValueError, match="stimulus must be finite"):
            simulate_dsm(self._poisoned(bad), paper_ntf)

    def test_finite_stimulus_still_accepted(self, paper_modulator):
        result = paper_modulator.simulate([0.0, 0.25, -0.25])
        assert result.n_samples == 3 and result.stable
