"""Closed-form analysis tests.

The independent oracle throughout is the direct N-term phasor sum,
implemented here from scratch and in ``oracles``, which also bisects it
for the half-power crossing that the closed-form coherent bandwidth
approximates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coherent_bandwidth_numeric, space_factor_direct
from squintsim import (
    ArrayConfig,
    coherent_bandwidth,
    combine_evm,
    input_referred_ssir,
    isi_bandwidth_limit,
    max_delay_spread,
    null_fractions,
    ofdm_tone_bounds,
    reduced_sizing,
    space_factor,
    space_factor_at_steer,
)
from squintsim.analytic import (
    SINC_3DB_FACTOR,
    eirp_gain_db,
    report,
    rx_snr_gain_db,
)
from squintsim.errors import DegenerateSteer, Infeasible, SpacingAssumption

DEG = np.pi / 180.0


def direct_sum(cfg, theta, f_ratio):
    """Oracle: magnitude of the plain phasor sum over elements."""
    n = np.arange(cfg.n_elements)
    u = cfg.spacing_ratio * (f_ratio * math.sin(theta) - math.sin(cfg.steer_angle))
    return abs(np.sum(np.exp(2j * np.pi * n * u))) / cfg.n_elements


class TestArrayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(0, 0.5)
        with pytest.raises(ValueError):
            ArrayConfig(8, np.pi / 2)
        with pytest.raises(ValueError):
            ArrayConfig(8, 0.5, spacing_ratio=0.0)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ArrayConfig(8, bad)
            with pytest.raises(ValueError, match="finite"):
                ArrayConfig(8, 0.5, spacing_ratio=bad)

    def test_grating_lobe_warning(self):
        with pytest.warns(UserWarning):
            ArrayConfig(8, 0.5, spacing_ratio=0.75)


class TestSpaceFactor:
    def test_full_coherence_at_steer_and_carrier(self):
        cfg = ArrayConfig(8, 30 * DEG)
        assert space_factor(cfg, 30 * DEG, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_null_at_band_edge(self):
        cfg = ArrayConfig(8, 30 * DEG)
        val = space_factor(cfg, 30 * DEG, 1.5)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert direct_sum(cfg, 30 * DEG, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_half_power_at_half_coherent_bandwidth(self):
        cfg = ArrayConfig(16, 30 * DEG)
        assert space_factor(cfg, 30 * DEG, 1.11) == pytest.approx(1 / np.sqrt(2), abs=0.02)

    def test_matches_direct_sum_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            cfg = ArrayConfig(
                int(rng.integers(1, 129)),
                float(rng.uniform(-80, 80)) * DEG,
            )
            theta = float(rng.uniform(-89, 89)) * DEG
            f_ratio = float(rng.uniform(0.5, 1.5))
            closed = space_factor(cfg, theta, f_ratio)
            assert abs(closed - direct_sum(cfg, theta, f_ratio)) < 1e-10
            assert 0.0 <= closed <= 1.0 + 1e-12

    def test_even_in_frequency_offset_at_steer(self):
        cfg = ArrayConfig(16, 40 * DEG)
        for x in (0.01, 0.05, 0.11, 0.2):
            hi = space_factor(cfg, cfg.steer_angle, 1 + x)
            lo = space_factor(cfg, cfg.steer_angle, 1 - x)
            assert hi == pytest.approx(lo, abs=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            space_factor(ArrayConfig(8, 30 * DEG), 0.0, 0.0)


@settings(max_examples=100)
@given(
    st.integers(1, 256),
    st.floats(-60.0, 60.0),
    st.floats(-60.0, 60.0),
    st.floats(0.5, 1.2),
)
def test_space_factor_matches_direct_sum_property(n, steer_deg, theta_deg, f_ratio):
    # |offset| stays below 0.96 turns, away from the integer poles of
    # sin(pi u) where the closed ratio loses precision
    cfg = ArrayConfig(n, steer_deg * DEG)
    closed = space_factor(cfg, theta_deg * DEG, f_ratio)
    direct = space_factor_direct(cfg, theta_deg * DEG, f_ratio)
    assert closed == pytest.approx(direct, abs=1e-10)


class TestSpaceFactorAtSteer:
    def test_matches_general_form(self):
        rng = np.random.default_rng(7)
        cfg = ArrayConfig(32, 25 * DEG)
        for _ in range(50):
            f = float(rng.uniform(0.6, 1.4))
            assert space_factor_at_steer(cfg, f) == pytest.approx(
                space_factor(cfg, cfg.steer_angle, f), abs=1e-10
            )

    def test_band_edge_null(self):
        assert space_factor_at_steer(ArrayConfig(8, 30 * DEG), 1.5) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_broadside_is_flat(self):
        cfg = ArrayConfig(8, 0.0)
        for f in (0.5, 0.9, 1.3):
            assert space_factor_at_steer(cfg, f) == pytest.approx(1.0, abs=1e-12)

    def test_requires_half_wavelength_spacing(self):
        with pytest.raises(SpacingAssumption):
            space_factor_at_steer(ArrayConfig(8, 30 * DEG, spacing_ratio=0.4), 1.1)


class TestCoherentBandwidth:
    def test_known_values(self):
        assert coherent_bandwidth(ArrayConfig(16, 30 * DEG)) == pytest.approx(0.22125, abs=1e-9)
        assert coherent_bandwidth(ArrayConfig(8, 30 * DEG)) == pytest.approx(0.4425, abs=1e-9)

    def test_numeric_agrees_with_approx(self):
        for n in (8, 16, 32, 64, 128):
            for theta in (10, 30, 45, 60, 90):
                theta = min(theta, 89.9)
                cfg = ArrayConfig(n, theta * DEG)
                approx = coherent_bandwidth(cfg)
                numeric = coherent_bandwidth_numeric(cfg)
                assert abs(approx - numeric) / numeric < 0.05

    def test_numeric_is_true_half_power_point(self):
        cfg = ArrayConfig(16, 30 * DEG)
        bw = coherent_bandwidth_numeric(cfg)
        assert direct_sum(cfg, cfg.steer_angle, 1 + bw / 2) == pytest.approx(
            1 / np.sqrt(2), abs=1e-9
        )

    def test_broadside_rejected(self):
        with pytest.raises(DegenerateSteer):
            coherent_bandwidth(ArrayConfig(16, 0.0))


class TestNullsAndIsiLimit:
    def test_examples(self):
        assert null_fractions(ArrayConfig(8, 30 * DEG)) == pytest.approx((0.5, 1.5))
        assert null_fractions(ArrayConfig(64, 30 * DEG)) == pytest.approx(
            (1 - 1 / 16, 1 + 1 / 16)
        )
        assert null_fractions(ArrayConfig(4, 89.99999 * DEG)) == pytest.approx(
            (0.5, 1.5), abs=1e-4
        )

    def test_nulls_are_zeros_of_direct_sum(self):
        for n in (4, 8, 16, 64):
            cfg = ArrayConfig(n, 37 * DEG)
            lo, hi = null_fractions(cfg)
            assert space_factor_at_steer(cfg, lo) < 1e-9
            assert space_factor_at_steer(cfg, hi) < 1e-9
            assert direct_sum(cfg, cfg.steer_angle, lo) < 1e-9

    def test_isi_limit_values(self):
        assert isi_bandwidth_limit(ArrayConfig(16, 30 * DEG)) == pytest.approx(0.25)
        assert isi_bandwidth_limit(ArrayConfig(8, 30 * DEG)) == pytest.approx(0.5)
        one = ArrayConfig(1, 40 * DEG)
        assert isi_bandwidth_limit(one) == pytest.approx(2 / math.sin(40 * DEG))

    def test_isi_limit_equals_null_offset(self):
        for n in (2, 8, 32):
            cfg = ArrayConfig(n, 55 * DEG)
            lo, hi = null_fractions(cfg)
            limit = isi_bandwidth_limit(cfg)
            assert hi - 1.0 == pytest.approx(limit, abs=1e-12)
            assert 1.0 - lo == pytest.approx(limit, abs=1e-12)

    def test_broadside_rejected(self):
        with pytest.raises(DegenerateSteer):
            null_fractions(ArrayConfig(8, 0.0))
        with pytest.raises(DegenerateSteer):
            isi_bandwidth_limit(ArrayConfig(8, 0.0))


class TestDelaySpreadAndGains:
    def test_values(self):
        assert max_delay_spread(ArrayConfig(8, 30 * DEG)) == pytest.approx(2.0)
        assert max_delay_spread(ArrayConfig(64, 30 * DEG)) == pytest.approx(16.0)
        assert max_delay_spread(ArrayConfig(13, 0.0)) == 0.0

    def test_gains(self):
        cfg = ArrayConfig(8, 30 * DEG)
        assert eirp_gain_db(cfg) == pytest.approx(20 * math.log10(8))
        assert rx_snr_gain_db(cfg) == pytest.approx(10 * math.log10(8))


class TestOfdmToneBounds:
    def test_in_band_nulls(self):
        tb = ofdm_tone_bounds(ArrayConfig(64, 30 * DEG), 128, 0.2)
        assert tb.tone_low == 24 and tb.tone_high == 104
        assert tb.null_low == pytest.approx(24.0)
        assert tb.null_high == pytest.approx(104.0)
        assert tb.m_3db == pytest.approx(35.4)

    def test_out_of_band_nulls_absent(self):
        tb = ofdm_tone_bounds(ArrayConfig(32, 30 * DEG), 64, 0.2)
        assert tb.null_low == pytest.approx(-8.0)
        assert tb.null_high == pytest.approx(72.0)
        assert tb.tone_low is None and tb.tone_high is None
        assert tb.m_3db == pytest.approx(35.4)

    def test_broadside_rejected(self):
        with pytest.raises(DegenerateSteer):
            ofdm_tone_bounds(ArrayConfig(64, 0.0), 128, 0.2)


class TestReducedSizing:
    def test_reference_configuration(self):
        s = reduced_sizing(ArrayConfig(64, 30 * DEG), 128, 0.2)
        assert (s.n_sub, s.m_group, s.n_reduced, s.m_reduced) == (16, 32, 4, 4)

    def test_near_broadside_trivial(self):
        s = reduced_sizing(ArrayConfig(64, 0.001 * DEG), 128, 0.2)
        assert (s.n_reduced, s.m_reduced) == (1, 1)
        assert (s.n_sub, s.m_group) == (64, 128)

    def test_wide_band_end_fire(self):
        s = reduced_sizing(ArrayConfig(64, 89.99999 * DEG), 128, 0.4)
        assert (s.n_reduced, s.m_reduced) == (16, 16)

    def test_bound_follows_spacing(self):
        # d = lambda/4 doubles the coherent bandwidth, so less reduction is needed
        half = reduced_sizing(ArrayConfig(16, 40 * DEG), 256, 0.3)
        quarter = reduced_sizing(ArrayConfig(16, 40 * DEG, spacing_ratio=0.25), 256, 0.3)
        assert (half.n_sub, half.m_group) == (8, 128)
        assert (quarter.n_sub, quarter.m_group) == (16, 256)

    def test_products_and_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(2 ** rng.integers(2, 8))
            m = int(2 ** rng.integers(2, 9))
            cfg = ArrayConfig(n, float(rng.uniform(5, 85)) * DEG)
            bw = float(rng.uniform(0.02, 0.4))
            try:
                s = reduced_sizing(cfg, m, bw)
            except Infeasible:
                continue
            assert s.n_sub * s.n_reduced == n
            assert s.m_group * s.m_reduced == m
            bound = n * bw * math.sin(cfg.steer_angle) / SINC_3DB_FACTOR
            assert s.n_reduced > bound and s.m_reduced > bound
            assert s.n_sub < SINC_3DB_FACTOR / (bw * math.sin(cfg.steer_angle))
            assert s.m_group < m * SINC_3DB_FACTOR / (n * bw * math.sin(cfg.steer_angle))

    def test_infeasible_when_bound_exceeds_carrier_count(self):
        # bound ~ 14.5 exceeds every divisor of M = 4
        with pytest.raises(Infeasible):
            reduced_sizing(ArrayConfig(64, 89.9 * DEG), 4, 0.4)


class TestLinkBudget:
    def test_examples(self):
        assert combine_evm(20.0, np.inf) == pytest.approx(-20.0)
        assert combine_evm(20.0, 20.0) == pytest.approx(-16.9897, abs=1e-3)
        assert combine_evm(np.inf, 25.4) == pytest.approx(-25.4)

    def test_commutative_and_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(0, 40, 2)
            assert combine_evm(a, b) == pytest.approx(combine_evm(b, a))
            assert combine_evm(a + 1.0, b) <= combine_evm(a, b)
            assert combine_evm(a, b + 1.0) <= combine_evm(a, b)

    def test_input_referred(self):
        assert input_referred_ssir(30.0, ArrayConfig(8, 30 * DEG)) == pytest.approx(
            20.969, abs=1e-3
        )
        assert input_referred_ssir(17.0, ArrayConfig(1, 30 * DEG)) == pytest.approx(17.0)
        assert input_referred_ssir(25.0, ArrayConfig(64, 30 * DEG)) == pytest.approx(
            6.938, abs=1e-3
        )


class TestReportAssembly:
    def test_includes_sizing_with_carriers(self):
        rep = report(ArrayConfig(64, 30 * DEG), 0.2, 128)
        assert rep.reduced_sizing.n_reduced == 4
        assert rep.tone_bounds.tone_low == 24
        assert rep.coherent_bw == pytest.approx(1.77 / 32, abs=1e-9)
        assert rep.isi_bw_limit == pytest.approx(1 / 16)

    def test_broadside_leaves_unbounded_fields_empty(self):
        rep = report(ArrayConfig(8, 0.0), 0.2)
        assert rep.coherent_bw is None
        assert rep.null_fractions is None
        assert rep.max_delay_spread == 0.0
