"""Transceiver chain tests: OFDM modulation, both links, paired-run SSIR."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import cp_frame, ofdm_frame, sc_folded_response
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
from squintsim.errors import DimensionMismatch
from squintsim.txrx import _sc_folded_response, _sc_transmit, _smooth_length
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

    @pytest.mark.parametrize("oversample", [0, -1])
    def test_oversample_below_one_rejected(self, oversample):
        ofdm = OfdmSpec(16, n_ofdm_symbols=2)
        grid = np.ones((2, 16), dtype=complex)
        with pytest.raises(ValueError, match="oversample"):
            ofdm_modulate(grid, ofdm, oversample)
        with pytest.raises(ValueError, match="oversample"):
            ofdm_demodulate(ofdm_modulate(grid, ofdm), ofdm, oversample)

    def test_dimension_checks(self):
        ofdm = OfdmSpec(16, n_ofdm_symbols=2)
        with pytest.raises(DimensionMismatch):
            ofdm_modulate(np.zeros((2, 8), dtype=complex), ofdm)
        frame = ofdm_modulate(np.ones((2, 16), dtype=complex), ofdm)
        from squintsim import ComplexSignal

        with pytest.raises(DimensionMismatch):
            ofdm_demodulate(ComplexSignal(frame.samples[:-1]), ofdm)
        with pytest.raises(DimensionMismatch):
            ofdm_demodulate(ComplexSignal(frame.samples[:0]), ofdm)


def bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + str(a.shape).encode() + np.ascontiguousarray(a).tobytes()


@settings(max_examples=40)
@given(st.integers(2, 40), st.integers(1, 39), st.integers(1, 8), st.integers(1, 6))
@example(2, 1, 1, 1)  # the smallest grid: M = 2, CP 1, critical sampling
@example(128, 2, 8, 60)  # the ofdm_combiners frame
def test_modulation_matches_allocating_oracle_property(m, cp, q, n_sym):
    """Modulating in place (tones into each symbol's core slot, one batched
    in-place inverse FFT, the prefix copied from the core) gives the frame
    of a zero spectrum grid, its inverse FFT and a concatenation bit for
    bit."""
    ofdm = OfdmSpec(m, n_ofdm_symbols=n_sym, cp_ratio_num=min(cp, m - 1))
    grid = random_grid(np.random.default_rng(m * q + n_sym), n_sym, m)
    assert bits(ofdm_modulate(grid, ofdm, q).samples) == bits(cp_frame(grid, ofdm, q))


@settings(max_examples=30)
@given(
    st.integers(1, 40),
    st.floats(-89.0, 89.0),
    st.floats(0.01, 0.99),
    st.integers(4, 8),
    st.integers(1, 300),
)
@example(32, 30.0, 0.1, 8, 10_000)  # the sc_link frame: L = 80640
@example(33, -60.0, 0.2, 5, 301)  # odd os
@example(16, 0.0, 0.3, 7, 40)  # broadside: the kernel is N everywhere
def test_folded_response_matches_allocating_oracle_property(n, theta, bw, os, n_sym):
    """The fold summed from half-spectrum views, with the taps written
    straight into their rolled positions, is bit for bit the fold of the
    full even extension (even and odd L, os 4 to 8)."""
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, n_symbols=n_sym, oversample=os, seed=0)
    length = os * len(_sc_transmit(spec, cfg)[0])
    assert bits(_sc_folded_response(length, cfg, spec)) == bits(sc_folded_response(length, cfg, spec))


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
        length = short.oversample * len(_sc_transmit(short, cfg)[0])
        g = np.fft.ifft(_sc_folded_response(length, cfg, short))
        total = np.sum(np.abs(g) ** 2)
        exact = 10 * np.log10(total / (total - abs(g[0]) ** 2))
        assert exact == pytest.approx(exact_db, abs=1e-3)
        for seed in (1, 2):
            spec = SignalSpec(bw, n_symbols=20_000, seed=seed)
            mc = run_single_carrier(cfg, spec, np.inf).overall_ssir_db
            assert mc == pytest.approx(exact, abs=0.1)

    @pytest.mark.parametrize(
        "n, theta, bw, os", [(32, 30, 0.1, 8), (33, -60, 0.2, 5), (1, 45, 0.3, 4), (16, -75, 0.95, 16)]
    )
    def test_folded_response_is_real_and_even(self, n, theta, bw, os):
        """R^2 H / N is real and even on the oversampled grid, so its fold
        is real float64 and even about bin 0, up to the rounding of the
        fold's sums (which add the aliases of bins k and -k in opposite
        orders)."""
        cfg = ArrayConfig(n, theta * DEG)
        spec = SignalSpec(bw, n_symbols=301, oversample=os, seed=0)
        folded = _sc_folded_response(os * len(_sc_transmit(spec, cfg)[0]), cfg, spec)
        assert folded.dtype == np.float64
        mirrored = np.roll(folded[::-1], 1)  # folded[-k]
        assert np.max(np.abs(folded - mirrored)) <= 1e-15 * np.max(np.abs(folded))

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


def all_finite(report):
    tones = [(t.evm_db, t.ssir_db) for t in report.per_tone or []]
    return np.all(np.isfinite([report.overall_evm_db, report.overall_ssir_db, *np.ravel(tones)]))


class TestShortGuardedFrames:
    """Frames guarded by the chain's own rule run however short they are
    against the delay spread: the guard check tests only the zeros that the
    circular delays wrap. Both configs were once rejected as shorter than
    four delay spreads."""

    @pytest.mark.parametrize(
        "combiner",
        [CombinerSpec.phase_shifter_sum(), CombinerSpec.full_idft(), CombinerSpec.reduced_idft(6, 1)],
    )
    def test_ofdm_single_symbol(self, combiner):
        # spread 22.0 samples, guard 39, L = 90 (a quarter is 22)
        cfg = ArrayConfig(36, 39 * DEG)
        spec = SignalSpec(0.5, oversample=4, seed=0)
        ofdm = OfdmSpec(2, n_ofdm_symbols=1, cp_ratio_num=1)
        assert all_finite(run_ofdm(cfg, spec, ofdm, 20.0, combiner))

    def test_single_carrier_large_array(self):
        # spread 1772 samples against a 4800-sample oversampled frame
        cfg = ArrayConfig(1024, 60 * DEG)
        spec = SignalSpec(0.5, n_symbols=100, seed=0)
        assert all_finite(run_single_carrier(cfg, spec, 20.0))


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


@settings(max_examples=300)
@given(st.integers(1, 100_000))
@example(1)
@example(62468)  # the ofdm_combiners benchmark frame
@example(80464)  # the sc_link benchmark frame
def test_smooth_length_is_least_7_smooth_property(n):
    assert _smooth_length(n) == least_7_smooth(n)


class TestSmoothFrames:
    """Trailing zeros pad both transmit frames to a 7-smooth length (the
    single-carrier one, built at the symbol rate, to a 7-smooth symbol
    count; the oversampled frame it stands for is os times as long); the
    leading guard, the first symbol and the OFDM frame stay where the
    unpadded layout put them. Configs of the benchmark workloads
    (ofdm_combiners, sc_link, the largest OFDM cell of ssir_sweep)."""

    @pytest.mark.parametrize(
        "n, theta, bw, m, n_sym, length",
        [(32, 45, 0.2, 128, 60, 62468), (32, 60, 0.2, 64, 40, 21196)],
    )
    def test_ofdm_frame_layout(self, n, theta, bw, m, n_sym, length):
        cfg, spec = ArrayConfig(n, theta * DEG), SignalSpec(bw, oversample=8, seed=5)
        ofdm = OfdmSpec(m, n_ofdm_symbols=n_sym)
        tx, grid, guard = ofdm_frame(spec, ofdm, cfg, False)
        spread = (n - 1) * abs(element_delay_samples(cfg, spec, 8))
        assert guard == int(np.ceil(spread)) + 16
        frame = ofdm_modulate(grid, ofdm, 8).samples
        assert len(frame) == n_sym * (m + ofdm.cp_ratio_num) * 8
        assert len(frame) + 2 * guard == length
        assert len(tx) == least_7_smooth(length)
        assert np.array_equal(tx.samples[guard:guard + len(frame)], frame)
        assert not np.any(tx.samples[:guard]) and not np.any(tx.samples[guard + len(frame):])

    @pytest.mark.parametrize(
        "n, theta, bw, m, q, cp, n_sym, length, padded",
        [
            (32, 45, 0.2, 128, 8, 2, 60, 62468, 64512),  # 1024 * 63
            (1024, 30, 0.1, 256, 8, 32, 40, 92602, 98304),  # 2048 * 48
            (6, -50, 0.3, 3, 5, 1, 3, 98, 105),  # odd Mq: 15 * 7, odd L
            (1, 0, 0.1, 4, 4, 1, 4, 112, 112),  # already 16 * 7: no padding
        ],
    )
    def test_window_side_frame_layout(self, n, theta, bw, m, q, cp, n_sym, length, padded):
        """The window side pads the same frame to Mq times a 7-smooth count,
        so every tone frequency is an FFT bin; the guard and the frame stay
        where the branch side's frame has them."""
        cfg, spec = ArrayConfig(n, theta * DEG), SignalSpec(bw, oversample=q, seed=5)
        ofdm = OfdmSpec(m, n_ofdm_symbols=n_sym, cp_ratio_num=cp)
        tx, grid, guard = ofdm_frame(spec, ofdm, cfg, True)
        branch, branch_grid, branch_guard = ofdm_frame(spec, ofdm, cfg, False)
        assert guard == branch_guard and np.array_equal(grid, branch_grid)
        frame = ofdm_modulate(grid, ofdm, q).samples
        assert len(frame) + 2 * guard == length
        assert len(tx) == padded == m * q * least_7_smooth(-(-length // (m * q)))
        assert np.array_equal(tx.samples[:length], branch.samples[:length])
        assert np.array_equal(tx.samples[guard:guard + len(frame)], frame)
        assert not np.any(tx.samples[:guard]) and not np.any(tx.samples[guard + len(frame):])

    def test_single_carrier_frame_layout(self):
        """The symbol-rate frame is a 7-smooth symbol count; the oversampled
        frame it stands for is os times as long, with each symbol's instant
        at os times its index. At sc_link (80464 oversampled samples) this
        is also the least 7-smooth length; at N=256, 60 deg, BW 0.5 it is
        9408, not 9375."""
        for n, theta, bw, n_sym, length, padded in (
            (32, 30, 0.1, 10_000, 80464, 80640),
            (256, 60, 0.5, 1000, 9344, 9408),
        ):
            cfg, spec = ArrayConfig(n, theta * DEG), SignalSpec(bw, n_symbols=n_sym, seed=5)
            frame, symbols, start = _sc_transmit(spec, cfg)
            os, span = spec.oversample, spec.rrc_span
            spread = (n - 1) * abs(element_delay_samples(cfg, spec, os))
            guard_syms = int(np.ceil(spread / os)) + span + 4
            first = guard_syms * os + span * os // 2
            assert start * os == first
            assert (n_sym + 2 * guard_syms + span) * os == length
            assert os * len(frame) == os * least_7_smooth(length // os) == padded
            expected = np.zeros(len(frame), dtype=complex)
            expected[start:start + n_sym] = symbols
            assert np.array_equal(frame, expected)
            assert first % os == 0
