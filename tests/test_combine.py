"""Spatial combiner tests: phase sum, full IDFT, reduced IDFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_idft_combine, phase_sum, presum_subarrays, reduced_idft_combine
from squintsim import (
    ArrayConfig,
    ComplexSignal,
    CombinerSpec,
    OfdmSpec,
    SignalSpec,
    full_idft_weights,
    phase_align,
    propagate,
    reduced_idft_weights,
    space_factor_at_steer,
)
from squintsim.errors import IndivisibleSizing
from squintsim.wavefront import ElementStreams

DEG = np.pi / 180.0


def make_streams(n_elements, theta_deg, bw, length=512, seed=0, oversample=8):
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(n_elements, theta_deg * DEG)
    spec = SignalSpec(bw, oversample=oversample, seed=seed)
    x = np.zeros(length, dtype=complex)
    x[32:-32] = rng.standard_normal(length - 64) + 1j * rng.standard_normal(length - 64)
    tx = ComplexSignal(x, sample_rate=float(oversample))
    return phase_align(propagate(tx, cfg, spec)), tx


def ofdm_tone_streams(n_elements, theta_deg, bw, ofdm, tone, oversample=8):
    """Element streams carrying a single OFDM subcarrier as a pure tone.

    With length equal to a whole number of symbol cores the tone sits on an
    exact FFT bin, so circular delays act on it exactly.
    """
    cfg = ArrayConfig(n_elements, theta_deg * DEG)
    spec = SignalSpec(bw, oversample=oversample, seed=0)
    m, q = ofdm.m_carriers, oversample
    length = 8 * m * q
    bin_freq = (tone - ofdm.center_tone) / (m * q)
    tx = ComplexSignal(
        np.exp(2j * np.pi * bin_freq * np.arange(length)), sample_rate=float(q)
    )
    return phase_align(propagate(tx, cfg, spec, check_guard=False)), cfg, spec


class TestPhaseSum:
    def test_broadside_recovers_tx(self):
        streams, tx = make_streams(8, 0.0, 0.1)
        out = phase_sum(streams)
        # identical streams, so the mean matches to reduction-order ulps
        assert np.max(np.abs(out.samples - tx.samples)) < 1e-14

    def test_single_element_identity(self):
        streams, tx = make_streams(1, 30.0, 0.2)
        assert np.array_equal(phase_sum(streams).samples, tx.samples)

    def test_offset_tone_magnitude_is_space_factor(self):
        ofdm = OfdmSpec(32, n_ofdm_symbols=1)
        streams, cfg, spec = ofdm_tone_streams(16, 30.0, 0.2, ofdm, tone=4)
        out = phase_sum(streams).samples
        df = (4 - 16) / 32 * spec.fractional_bandwidth
        assert np.abs(out[0]) == pytest.approx(
            space_factor_at_steer(cfg, 1 + df), abs=1e-9
        )


class TestFullIdft:
    def test_weights_unit_modulus_and_formula(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.2, seed=0)
        ofdm = OfdmSpec(16)
        w = full_idft_weights(cfg, spec, ofdm)
        assert w.shape == (16, 8)
        assert np.allclose(np.abs(w), 1.0)
        step = 0.5 * np.sin(30 * DEG) * 0.2 / 16
        for m in (0, 5, 8, 15):
            for n in (0, 3, 7):
                expected = np.exp(2j * np.pi * n * step * (m - 8))
                assert w[m, n] == pytest.approx(expected, abs=1e-12)

    def test_center_row_equals_phase_sum(self):
        streams, _ = make_streams(8, 30.0, 0.2)
        ofdm = OfdmSpec(16)
        outs = full_idft_combine(streams, ofdm)
        ps = phase_sum(streams)
        assert np.allclose(outs[ofdm.center_tone].samples, ps.samples, atol=1e-12)

    def test_every_tone_fully_coherent(self):
        # brute force across all tones of small arrays: output stream m
        # carries tone m at unit magnitude, against |SF| < 1 for phase sum
        for n_el, m_car in ((4, 8), (16, 32)):
            ofdm = OfdmSpec(m_car)
            for tone in range(m_car):
                streams, cfg, spec = ofdm_tone_streams(n_el, 30.0, 0.2, ofdm, tone)
                outs = full_idft_combine(streams, ofdm)
                mag = np.abs(outs[tone].samples[0])
                assert mag == pytest.approx(1.0, abs=1e-6)
                if tone != ofdm.center_tone:
                    df = (tone - ofdm.center_tone) / m_car * spec.fractional_bandwidth
                    assert np.abs(phase_sum(streams).samples[0]) <= \
                        space_factor_at_steer(cfg, 1 + df) + 1e-9

    def test_linear_in_streams(self):
        streams, _ = make_streams(4, 25.0, 0.15, seed=3)
        ofdm = OfdmSpec(8)
        doubled = ElementStreams(
            2.0 * streams.streams, streams.cfg, streams.spec, streams.sample_rate
        )
        a = full_idft_combine(streams, ofdm)
        b = full_idft_combine(doubled, ofdm)
        for m in range(8):
            assert np.allclose(b[m].samples, 2.0 * a[m].samples, atol=1e-12)


class TestReducedIdft:
    def test_degenerate_full_presum_equals_phase_sum(self):
        streams, _ = make_streams(8, 30.0, 0.2)
        ofdm = OfdmSpec(16)
        outs, groups = reduced_idft_combine(streams, ofdm, n_sub=8, m_group=16)
        assert len(outs) == 1
        assert groups[0] == range(0, 16)
        assert np.allclose(outs[0].samples, phase_sum(streams).samples, atol=1e-12)

    def test_degenerate_no_reduction_equals_full(self):
        streams, _ = make_streams(8, 30.0, 0.2)
        ofdm = OfdmSpec(16)
        outs, groups = reduced_idft_combine(streams, ofdm, n_sub=1, m_group=1)
        full = full_idft_combine(streams, ofdm)
        assert len(outs) == 16
        for m in range(16):
            assert groups[m] == range(m, m + 1)
            assert np.allclose(outs[m].samples, full[m].samples, atol=1e-12)

    def test_group_weights_use_stride_and_midpoint(self):
        cfg = ArrayConfig(16, 30 * DEG)
        spec = SignalSpec(0.2, seed=0)
        ofdm = OfdmSpec(32)
        w = reduced_idft_weights(cfg, spec, ofdm, n_sub=4, m_group=8)
        assert w.shape == (4, 4)
        step = 0.5 * np.sin(30 * DEG) * 0.2 / 32
        for g in range(4):
            centre = g * 8 + 3.5 - 16
            for r in range(4):
                expected = np.exp(2j * np.pi * (r * 4) * step * centre)
                assert w[g, r] == pytest.approx(expected, abs=1e-12)

    def test_presum_blocks(self):
        streams, _ = make_streams(8, 10.0, 0.1, seed=4)
        branches = presum_subarrays(streams, 4)
        assert branches.shape == (2, streams.streams.shape[1])
        assert np.allclose(branches[0], streams.streams[:4].sum(axis=0))

    def test_worst_tone_subarray_factor_bounded(self):
        # with automatic sizing every tone keeps its sub-array response
        # within 10 percent of the half-power level
        from squintsim import reduced_sizing

        cfg = ArrayConfig(64, 30 * DEG)
        bw, m_car = 0.2, 128
        sizing = reduced_sizing(cfg, m_car, bw)
        sub_cfg = ArrayConfig(sizing.n_sub, cfg.steer_angle)
        worst = min(
            space_factor_at_steer(sub_cfg, 1 + (m - m_car // 2) / m_car * bw)
            for m in range(m_car)
        )
        assert worst >= (1 / np.sqrt(2)) * 0.9

    def test_indivisible_sizing_rejected(self):
        streams, _ = make_streams(8, 30.0, 0.2)
        ofdm = OfdmSpec(16)
        with pytest.raises(IndivisibleSizing):
            reduced_idft_combine(streams, ofdm, n_sub=3, m_group=4)
        with pytest.raises(IndivisibleSizing):
            reduced_idft_combine(streams, ofdm, n_sub=4, m_group=5)


def divisor_sizing(n: int):
    return st.tuples(st.just(n), st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))


@settings(max_examples=60)
@given(
    st.sampled_from([1, 2, 6, 12, 16, 33, 64]).flatmap(divisor_sizing),
    st.sampled_from([2, 7, 16, 63, 128]).flatmap(divisor_sizing),
    st.floats(-89.0, 89.0),
    st.floats(0.01, 0.99),
)
def test_weights_shape_and_unit_modulus_property(array, tones, theta, bw):
    """For every divisor sizing the weights are M / m_group rows by
    N / n_sub columns of unit modulus, and the full IDFT's are the reduced
    combiner's at sizing (1, 1)."""
    (n, n_sub), (m, m_group) = array, tones
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, seed=0)
    ofdm = OfdmSpec(m, cp_ratio_num=1)
    w = reduced_idft_weights(cfg, spec, ofdm, n_sub, m_group)
    assert w.shape == (m // m_group, n // n_sub)
    assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
    assert np.array_equal(full_idft_weights(cfg, spec, ofdm),
                          reduced_idft_weights(cfg, spec, ofdm, 1, 1))


class TestCombinerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CombinerSpec("bogus")
        with pytest.raises(ValueError):
            CombinerSpec("idft", n_sub=4)
        for sizing in ({"n_sub": 0}, {"n_sub": -2}, {"m_group": 0}, {"m_group": -1}):
            with pytest.raises(ValueError, match="must be positive"):
                CombinerSpec.reduced_idft(**sizing)

    def test_auto_sizing_resolution(self):
        cfg = ArrayConfig(64, 30 * DEG)
        ofdm = OfdmSpec(128)
        spec = CombinerSpec.reduced_idft()
        assert spec.resolve_sizing(cfg, ofdm, 0.2) == (16, 32)

    def test_degenerate_kinds_resolve_to_reduced_sizings(self):
        cfg = ArrayConfig(64, 30 * DEG)
        ofdm = OfdmSpec(128)
        assert CombinerSpec.phase_shifter_sum().resolve_sizing(cfg, ofdm, 0.2) == (64, 128)
        assert CombinerSpec.full_idft().resolve_sizing(cfg, ofdm, 0.2) == (1, 1)
