"""Tests for the declarative sweep expansion (repro.explore.sweep)."""

import pytest

from repro.core import ChainDesignOptions, audio_chain_spec, paper_chain_spec
from repro.explore import AUTO_SINC_ORDERS, HALFBAND_DESIGN_MARGIN_DB, SweepSpec


class TestExpansionDeterminism:
    def test_expansion_is_deterministic(self):
        sweep = SweepSpec(osr=(8, 16), output_bits=(12, 14),
                          halfband_attenuation_db=(80.0, 85.0))
        first = sweep.expand()
        second = sweep.expand()
        assert [p.label for p in first] == [p.label for p in second]
        assert [p.spec for p in first] == [p.spec for p in second]
        assert [p.options for p in first] == [p.options for p in second]

    def test_expansion_order_first_axis_slowest(self):
        sweep = SweepSpec(osr=(8, 16), output_bits=(12, 14))
        labels = [p.label for p in sweep.expand()]
        assert labels == ["osr8_w12", "osr8_w14", "osr16_w12", "osr16_w14"]

    def test_indices_are_sequential(self):
        sweep = SweepSpec(output_bits=(12, 14, 16))
        assert [p.index for p in sweep.expand()] == [0, 1, 2]

    def test_num_points_matches_expansion(self):
        sweep = SweepSpec(osr=(8, 16), bandwidth_hz=(10e6, 20e6),
                          output_bits=(12, 14))
        assert sweep.num_points() == 8
        assert len(sweep.expand()) == 8

    def test_empty_sweep_is_single_base_point(self):
        sweep = SweepSpec()
        points = sweep.expand()
        assert len(points) == 1
        assert points[0].label == "base"
        assert points[0].spec == paper_chain_spec()

    def test_labels_are_unique(self):
        sweep = SweepSpec(osr=(8, 16), sinc_orders=((4, 4), (4, 4, 6)))
        with pytest.raises(ValueError):
            sweep.expand()  # mismatched splits caught, not silently skipped
        sweep = SweepSpec(output_bits=(12, 14), halfband_attenuation_db=(80, 85))
        labels = [p.label for p in sweep.expand()]
        assert len(set(labels)) == len(labels)


class TestPointDerivation:
    def test_osr_axis_scales_sample_rate(self):
        point = SweepSpec(osr=(8,)).expand()[0]
        assert point.spec.modulator.osr == 8
        assert point.spec.modulator.sample_rate_hz == pytest.approx(320e6)
        assert point.spec.total_decimation == 8

    def test_bandwidth_axis_scales_band_edges(self):
        point = SweepSpec(bandwidth_hz=(10e6,)).expand()[0]
        dec = point.spec.decimator
        assert dec.passband_edge_hz == pytest.approx(10e6)
        assert dec.stopband_edge_hz == pytest.approx(11.5e6)
        assert dec.output_rate_hz == pytest.approx(20e6)

    def test_explicit_sinc_split_applied(self):
        point = SweepSpec(sinc_orders=((3, 3, 5),)).expand()[0]
        assert point.options.sinc_orders == (3, 3, 5)

    def test_auto_split_defers_to_designer(self):
        point = SweepSpec(sinc_orders=(AUTO_SINC_ORDERS,)).expand()[0]
        assert point.options.sinc_orders is None

    def test_mismatched_split_raises_with_label(self):
        sweep = SweepSpec(osr=(8,), sinc_orders=((4, 4, 6),))
        with pytest.raises(ValueError, match="osr8"):
            sweep.expand()

    def test_incompatible_base_split_falls_back_to_designer(self):
        # OSR 8 needs two Sinc stages; the base options' (4, 4, 6) cannot fit.
        point = SweepSpec(osr=(8,)).expand()[0]
        assert point.options.sinc_orders is None

    def test_attenuation_axis_sets_mask_and_design_target(self):
        point = SweepSpec(halfband_attenuation_db=(80.0,)).expand()[0]
        assert point.spec.decimator.stopband_attenuation_db == pytest.approx(80.0)
        assert point.options.halfband_target_attenuation_db == pytest.approx(
            80.0 + HALFBAND_DESIGN_MARGIN_DB)

    def test_non_power_of_two_osr_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(osr=(12,)).expand()

    def test_audio_base_spec_supported(self):
        point = SweepSpec(base=audio_chain_spec(),
                          options=ChainDesignOptions(sinc_orders=None)).expand()[0]
        assert point.spec == audio_chain_spec()
        assert point.spec.num_halving_stages == 6

    def test_invalid_sinc_axis_entry_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            SweepSpec(sinc_orders=("automatic",))

    @pytest.mark.parametrize("axis", ["osr", "output_bits",
                                      "halfband_coefficient_bits"])
    def test_integer_axes_below_one_rejected(self, axis):
        with pytest.raises(ValueError, match=f"{axis} values must be >= 1"):
            SweepSpec(**{axis: (0,)})


class TestCacheKeys:
    def test_key_stable_across_expansions(self):
        sweep = SweepSpec(output_bits=(12, 14))
        keys1 = [p.cache_key({"include_snr": False}) for p in sweep.expand()]
        keys2 = [p.cache_key({"include_snr": False}) for p in sweep.expand()]
        assert keys1 == keys2

    def test_key_differs_per_point(self):
        sweep = SweepSpec(output_bits=(12, 14))
        keys = {p.cache_key() for p in sweep.expand()}
        assert len(keys) == 2

    def test_key_depends_on_flow_settings(self):
        point = SweepSpec().expand()[0]
        assert point.cache_key({"include_snr": True}) != \
            point.cache_key({"include_snr": False})

    def test_key_depends_on_options(self):
        base = SweepSpec().expand()[0]
        other = SweepSpec(options=ChainDesignOptions(equalizer_order=32)).expand()[0]
        assert base.cache_key() != other.cache_key()
