"""Transceiver chain tests: OFDM modulation, both links, paired-run SSIR."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squintsim import (
    ArrayConfig,
    CombinerSpec,
    OfdmSpec,
    SignalSpec,
    combine_evm,
    ofdm_demodulate,
    ofdm_modulate,
    qam_map,
    run_ofdm,
    run_single_carrier,
)
from squintsim.errors import CombinerRequiresOfdm, DimensionMismatch
from squintsim.txrx import _ofdm_transmit, _sc_folded_response, _sc_transmit, _smooth_length
from squintsim.wavefront import element_delay_samples

DEG = np.pi / 180.0


def random_grid(rng, n_sym, m_carriers, order=16):
    idx = rng.integers(0, order, (n_sym, m_carriers))
    return qam_map(idx.ravel(), order).samples.reshape(n_sym, m_carriers)


class TestOfdmModulation:
    @pytest.mark.parametrize("oversample", [1, 4])
    def test_round_trip_identity(self, oversample):
        rng = np.random.default_rng(0)
        ofdm = OfdmSpec(32, n_ofdm_symbols=6)
        grid = random_grid(rng, 6, 32)
        frame = ofdm_modulate(grid, ofdm, oversample)
        back = ofdm_demodulate(frame, ofdm, oversample)
        assert np.max(np.abs(back - grid)) < 1e-10

    def test_unitary_energy(self):
        rng = np.random.default_rng(1)
        ofdm = OfdmSpec(64, n_ofdm_symbols=4, cp_ratio_num=2)
        grid = random_grid(rng, 4, 64)
        frame = ofdm_modulate(grid, ofdm)
        # the transform is unitary: prefix-stripped cores carry exactly
        # the grid energy
        cores = frame.samples.reshape(4, 66)[:, 2:]
        assert np.sum(np.abs(cores) ** 2) == pytest.approx(
            np.sum(np.abs(grid) ** 2), rel=1e-9
        )

    @pytest.mark.parametrize("delay", [1, 2])
    def test_cp_covered_delay_is_pure_phase_ramp(self, delay):
        # DFT shift theorem: circular delay d <= k rotates tone m by
        # exp(-2j pi (m - m0) d / M), with no inter-carrier interference
        rng = np.random.default_rng(2)
        ofdm = OfdmSpec(32, n_ofdm_symbols=5, cp_ratio_num=2)
        grid = random_grid(rng, 5, 32)
        frame = ofdm_modulate(grid, ofdm)
        shifted = np.roll(frame.samples, delay)
        back = ofdm_demodulate(
            type(frame)(shifted, frame.sample_rate), ofdm
        )
        m = np.arange(32)
        expected = grid * np.exp(-2j * np.pi * (m - 16) * delay / 32)
        assert np.max(np.abs(back - expected)) < 1e-9

    def test_delay_beyond_cp_causes_interference(self):
        rng = np.random.default_rng(3)
        ofdm = OfdmSpec(32, n_ofdm_symbols=40, cp_ratio_num=2)
        grid = random_grid(rng, 40, 32)
        frame = ofdm_modulate(grid, ofdm)
        shifted = np.roll(frame.samples, 5)  # exceeds the 2-sample prefix
        back = ofdm_demodulate(type(frame)(shifted, frame.sample_rate), ofdm)
        m = np.arange(32)
        compensated = back * np.exp(2j * np.pi * (m - 16) * 5 / 32)
        err = compensated - grid
        evm_db = 10 * np.log10(np.mean(np.abs(err) ** 2) / np.mean(np.abs(grid) ** 2))
        assert evm_db > -40.0

    def test_dimension_checks(self):
        ofdm = OfdmSpec(16, n_ofdm_symbols=2)
        with pytest.raises(DimensionMismatch):
            ofdm_modulate(np.zeros((2, 8), dtype=complex), ofdm)
        frame = ofdm_modulate(np.ones((2, 16), dtype=complex), ofdm)
        from squintsim import ComplexSignal

        with pytest.raises(DimensionMismatch):
            ofdm_demodulate(ComplexSignal(frame.samples[:-1]), ofdm)


class TestSingleCarrier:
    def test_single_element_evm_equals_snr(self):
        cfg = ArrayConfig(1, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=4000, seed=3)
        report = run_single_carrier(cfg, spec, 20.0)
        assert report.overall_evm_db == pytest.approx(-20.0, abs=0.5)
        assert report.overall_ssir_db >= 55.0

    def test_single_element_no_squint_long_filter(self):
        cfg = ArrayConfig(1, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=4000, rrc_span=24, seed=3)
        report = run_single_carrier(cfg, spec, 20.0)
        assert report.overall_ssir_db >= 60.0

    def test_narrowband_array_gain(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.01, n_symbols=6000, seed=3)
        report = run_single_carrier(cfg, spec, 20.0)
        assert report.overall_evm_db == pytest.approx(-29.03, abs=1.0)

    def test_noiseless_evm_is_negative_ssir(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=3000, seed=4)
        report = run_single_carrier(cfg, spec, np.inf)
        assert report.overall_evm_db == pytest.approx(-report.overall_ssir_db)

    def test_ssir_noise_independent(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=3000, seed=5)
        a = run_single_carrier(cfg, spec, 10.0)
        b = run_single_carrier(cfg, spec, 30.0)
        assert a.overall_ssir_db == pytest.approx(b.overall_ssir_db, abs=1e-9)
        assert a.overall_evm_db > b.overall_evm_db

    def test_idft_combiner_rejected(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=100, seed=0)
        with pytest.raises(CombinerRequiresOfdm):
            run_single_carrier(cfg, spec, 20.0, CombinerSpec.full_idft())

    @pytest.mark.parametrize(
        "n, theta, bw, exact_db", [(32, 30, 0.1, 21.453), (64, 45, 0.2, 1.013), (16, 60, 0.05, 36.061)]
    )
    def test_exact_ssir_matches_monte_carlo(self, n, theta, bw, exact_db):
        """The symbol-spaced samples g_k of rrc * rrc * h / N (the inverse
        FFT of the folded response) give the SSIR with zero variance:
        sum |g|^2 / (sum |g|^2 - |g_0|^2), the least-squares MER that the
        Monte-Carlo run estimates. 20k symbols land within 0.1 dB (the
        measured gaps are at most 0.033 dB)."""
        cfg = ArrayConfig(n, theta * DEG)
        short = SignalSpec(bw, n_symbols=200, seed=0)
        g = np.fft.ifft(_sc_folded_response(_sc_transmit(short, cfg)[0], cfg, short))
        total = np.sum(np.abs(g) ** 2)
        exact = 10 * np.log10(total / (total - abs(g[0]) ** 2))
        assert exact == pytest.approx(exact_db, abs=1e-3)
        for seed in (1, 2):
            spec = SignalSpec(bw, n_symbols=20_000, seed=seed)
            mc = run_single_carrier(cfg, spec, np.inf).overall_ssir_db
            assert mc == pytest.approx(exact, abs=0.1)

    def test_ssir_monotone_in_elements(self):
        spec = SignalSpec(0.2, n_symbols=3000, oversample=4, seed=6)
        ssirs = []
        for n in (4, 8, 16, 32, 64):
            cfg = ArrayConfig(n, 30 * DEG)
            ssirs.append(run_single_carrier(cfg, spec, np.inf).overall_ssir_db)
        assert all(a >= b for a, b in zip(ssirs, ssirs[1:]))

    def test_constellation_shape(self):
        cfg = ArrayConfig(4, 30 * DEG)
        spec = SignalSpec(0.1, n_symbols=500, seed=7)
        report = run_single_carrier(cfg, spec, 15.0)
        assert report.constellation.shape[1] == 2
        assert len(report.constellation) == 500

    def test_constellation_is_thinned_across_the_stream(self):
        # 10 000 symbols keep every third, up to the last ones, rather than
        # the first 4096
        cfg = ArrayConfig(4, 30 * DEG)
        spec = SignalSpec(0.1, n_symbols=10_000, oversample=4, seed=7)
        report = run_single_carrier(cfg, spec, 15.0)
        symbols = _sc_transmit(spec, cfg)[1]
        rows = len(report.constellation)
        assert rows <= 4096
        assert np.array_equal(report.constellation[:, 1], symbols[::3])
        assert 3 * (rows - 1) >= 9990

    @pytest.mark.parametrize(
        "a, b", [((64, 45, 0.2), (256, 45, 0.05)), ((32, 30, 0.1), (16, 30, 0.2))]
    )
    def test_ssir_depends_on_n_bw_sin_theta_only(self, a, b):
        # the delay spread across the array in symbols, N·BW·sin(theta),
        # sets the clean SSIR
        ssir = [
            run_single_carrier(
                ArrayConfig(n, theta * DEG), SignalSpec(bw, n_symbols=2000, seed=1), np.inf
            ).overall_ssir_db
            for n, theta, bw in (a, b)
        ]
        assert ssir[0] == pytest.approx(ssir[1], abs=0.05)


class TestOfdmChain:
    def test_constellation_is_capped(self):
        # 60 symbols x 128 tones = 7680 points, thinned to at most the cap
        cfg = ArrayConfig(4, 30 * DEG)
        spec = SignalSpec(0.1, oversample=4, seed=12)
        report = run_ofdm(cfg, spec, OfdmSpec(128, n_ofdm_symbols=60), 20.0)
        assert len(report.constellation) <= 4096

    def test_broadside_per_tone_evm_flat_at_array_gain(self):
        cfg = ArrayConfig(8, 0.0)
        spec = SignalSpec(0.2, oversample=4, seed=8)
        ofdm = OfdmSpec(32, n_ofdm_symbols=2000)
        report = run_ofdm(cfg, spec, ofdm, 20.0)
        target = -(20.0 + 10 * np.log10(8))
        tones = np.array([t.evm_db for t in report.per_tone])
        assert np.max(np.abs(tones - target)) < 0.3

    def test_per_tone_ssir_symmetric_about_center(self):
        cfg = ArrayConfig(16, 30 * DEG)
        spec = SignalSpec(0.2, oversample=4, seed=9)
        ofdm = OfdmSpec(32, n_ofdm_symbols=400)
        report = run_ofdm(cfg, spec, ofdm, np.inf)
        ssir = np.array([t.ssir_db for t in report.per_tone])
        m0 = ofdm.center_tone
        for off in (2, 5, 9, 14):
            assert ssir[m0 + off] == pytest.approx(ssir[m0 - off], abs=1.5)

    def test_paired_ssir_predicts_noisy_evm(self):
        cfg = ArrayConfig(16, 30 * DEG)
        spec = SignalSpec(0.1, oversample=4, seed=10)
        ofdm = OfdmSpec(32, n_ofdm_symbols=400)
        report = run_ofdm(cfg, spec, ofdm, 15.0)
        predicted = combine_evm(15.0 + 10 * np.log10(16), report.overall_ssir_db)
        assert report.overall_evm_db == pytest.approx(predicted, abs=1.0)

    def test_ofdm_beats_single_carrier_at_wideband(self):
        cfg = ArrayConfig(32, 30 * DEG)
        sc_spec = SignalSpec(0.2, n_symbols=3000, oversample=4, seed=11)
        sc = run_single_carrier(cfg, sc_spec, np.inf)
        ofdm_spec = SignalSpec(0.2, oversample=4, seed=11)
        ofdm = run_ofdm(cfg, ofdm_spec, OfdmSpec(64, n_ofdm_symbols=150), np.inf)
        gap = ofdm.overall_ssir_db - sc.overall_ssir_db
        assert 8.0 < gap < 25.0

    def test_full_idft_flattens_tones(self):
        cfg = ArrayConfig(32, 30 * DEG)
        spec = SignalSpec(0.2, oversample=4, seed=12)
        ofdm = OfdmSpec(64, n_ofdm_symbols=150)
        ps = run_ofdm(cfg, spec, ofdm, np.inf)
        idft = run_ofdm(cfg, spec, ofdm, np.inf, CombinerSpec.full_idft())
        ps_spread = max(t.evm_db for t in ps.per_tone) - min(t.evm_db for t in ps.per_tone)
        id_spread = max(t.evm_db for t in idft.per_tone) - min(t.evm_db for t in idft.per_tone)
        assert id_spread < 5.0 < ps_spread
        assert idft.overall_evm_db < ps.overall_evm_db - 3.0

    def test_reduced_idft_between_extremes(self):
        cfg = ArrayConfig(32, 30 * DEG)
        spec = SignalSpec(0.2, oversample=4, seed=13)
        ofdm = OfdmSpec(64, n_ofdm_symbols=150)
        ps = run_ofdm(cfg, spec, ofdm, np.inf)
        red = run_ofdm(cfg, spec, ofdm, np.inf, CombinerSpec.reduced_idft())
        idft = run_ofdm(cfg, spec, ofdm, np.inf, CombinerSpec.full_idft())
        assert idft.overall_evm_db <= red.overall_evm_db <= ps.overall_evm_db

    def test_report_fields(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.2, oversample=4, seed=14)
        ofdm = OfdmSpec(32, n_ofdm_symbols=40)
        report = run_ofdm(cfg, spec, ofdm, 20.0)
        assert len(report.per_tone) == 32
        assert all(t.tone_index == i for i, t in enumerate(report.per_tone))
        assert report.analytic.max_delay_spread == pytest.approx(2.0)
        assert report.constellation.shape[1] == 2
        # overall aggregates per-tone errors by RMS
        rms = 10 * np.log10(np.mean([10 ** (t.evm_db / 10) for t in report.per_tone]))
        assert report.overall_evm_db == pytest.approx(rms, abs=1e-6)


class TestNegativeSteering:
    # the delay set relative to the centroid is the same at -theta and
    # +theta, so the guards must be sized from the magnitude of the delay
    def test_ofdm_mirrors_positive_angle(self):
        spec = SignalSpec(0.2, oversample=4, seed=15)
        ofdm = OfdmSpec(32, n_ofdm_symbols=40)
        for combiner in (CombinerSpec.phase_shifter_sum(), CombinerSpec.full_idft()):
            pos = run_ofdm(ArrayConfig(16, 45 * DEG), spec, ofdm, np.inf, combiner)
            neg = run_ofdm(ArrayConfig(16, -45 * DEG), spec, ofdm, np.inf, combiner)
            assert neg.overall_ssir_db == pytest.approx(pos.overall_ssir_db, abs=1e-6)

    def test_single_carrier_mirrors_positive_angle(self):
        spec = SignalSpec(0.4, n_symbols=500, seed=16)
        pos = run_single_carrier(ArrayConfig(64, 60 * DEG), spec, np.inf)
        neg = run_single_carrier(ArrayConfig(64, -60 * DEG), spec, np.inf)
        assert neg.overall_ssir_db == pytest.approx(pos.overall_ssir_db, abs=1e-6)


def is_7_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def least_7_smooth(n):
    """Brute force: count up from n to the first 7-smooth integer."""
    while not is_7_smooth(n):
        n += 1
    return n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 100_000))
@example(1)
@example(62468)  # the ofdm_combiners benchmark frame
@example(80464)  # the sc_link benchmark frame
def test_smooth_length_is_least_7_smooth_property(n):
    assert _smooth_length(n) == least_7_smooth(n)


class TestSmoothFrames:
    """Trailing zeros pad both transmit frames to a 7-smooth length (the
    single-carrier one to os times a 7-smooth symbol count); the leading
    guard, the symbol instants and the OFDM frame stay where the unpadded
    layout put them. Configs of the benchmark workloads
    (ofdm_combiners, sc_link, the largest OFDM cell of ssir_sweep)."""

    @pytest.mark.parametrize(
        "n, theta, bw, m, n_sym, length",
        [(32, 45, 0.2, 128, 60, 62468), (32, 60, 0.2, 64, 40, 21196)],
    )
    def test_ofdm_frame_layout(self, n, theta, bw, m, n_sym, length):
        cfg, spec = ArrayConfig(n, theta * DEG), SignalSpec(bw, oversample=8, seed=5)
        ofdm = OfdmSpec(m, n_ofdm_symbols=n_sym)
        tx, grid, guard = _ofdm_transmit(spec, ofdm, cfg)
        spread = (n - 1) * abs(element_delay_samples(cfg, spec, 8))
        assert guard == int(np.ceil(spread)) + 16
        frame = ofdm_modulate(grid, ofdm, 8).samples
        assert len(frame) == n_sym * (m + ofdm.cp_ratio_num) * 8
        assert len(frame) + 2 * guard == length
        assert len(tx) == least_7_smooth(length)
        assert np.array_equal(tx.samples[guard:guard + len(frame)], frame)
        assert not np.any(tx.samples[:guard]) and not np.any(tx.samples[guard + len(frame):])

    def test_single_carrier_frame_layout(self):
        """The grid is os times a 7-smooth symbol count, so its symbol-rate
        subsampling holds every impulse. At sc_link (80464 samples) this is
        also the least 7-smooth length; at N=256, 60 deg, BW 0.5 it is
        9408, not 9375."""
        for n, theta, bw, n_sym, length, padded in (
            (32, 30, 0.1, 10_000, 80464, 80640),
            (256, 60, 0.5, 1000, 9344, 9408),
        ):
            cfg, spec = ArrayConfig(n, theta * DEG), SignalSpec(bw, n_symbols=n_sym, seed=5)
            tx, symbols, instants = _sc_transmit(spec, cfg)
            os, span = spec.oversample, spec.rrc_span
            spread = (n - 1) * abs(element_delay_samples(cfg, spec, os))
            guard_syms = int(np.ceil(spread / os)) + span + 4
            first = guard_syms * os + span * os // 2
            assert instants == slice(first, first + n_sym * os, os)
            assert (n_sym + 2 * guard_syms + span) * os == length
            assert len(tx) == os * least_7_smooth(length // os) == padded
            impulses = np.zeros(len(tx), dtype=complex)
            impulses[instants] = symbols
            assert np.array_equal(tx.samples, impulses)
            assert first % os == 0
