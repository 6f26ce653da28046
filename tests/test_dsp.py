"""DSP primitive tests: QAM, pulse shaping, transforms, delay, noise, EVM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dft, idft
from squintsim import (
    ComplexSignal,
    SignalSpec,
    awgn,
    constellation,
    derive_seed,
    fractional_delay,
    measure_evm,
    qam_demap,
    qam_map,
    rrc_taps,
)
from squintsim.dsp import EVM_FLOOR_DB
from squintsim.errors import (
    DelayTooLarge,
    InvalidOrder,
    IndexOutOfRange,
    LengthMismatch,
    ZeroReference,
    ZeroSignal,
)


def sig(samples, rate=1.0):
    return ComplexSignal(np.asarray(samples, dtype=complex), sample_rate=rate)


class TestComplexSignal:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0, np.nan], dtype=complex))
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0, np.inf * 1j]))

    def test_power(self):
        assert sig([1, 1j, -1, -1j]).power == pytest.approx(1.0)


class TestQam:
    def test_qpsk_points(self):
        pts = qam_map(np.arange(4), 4).samples
        expected = {(s * 1 + 1j * t) / np.sqrt(2) for s in (-1, 1) for t in (-1, 1)}
        assert {complex(round(p.real, 9) + 1j * round(p.imag, 9)) for p in pts} == {
            complex(round(e.real, 9) + 1j * round(e.imag, 9)) for e in expected
        }

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_power(self, order):
        pts = qam_map(np.arange(order), order).samples
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_round_trip(self, order):
        idx = np.arange(order)
        assert np.array_equal(qam_demap(qam_map(idx, order), order), idx)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        # nearest horizontal/vertical neighbours differ in exactly one bit
        pts = constellation(order)
        side = int(np.sqrt(order))
        spacing = 2 * np.sqrt(3.0 / (2 * (order - 1)))
        for i in range(order):
            for j in range(i + 1, order):
                if abs(abs(pts[i] - pts[j]) - spacing) < 1e-9:
                    assert bin(i ^ j).count("1") == 1

    def test_awgn_qpsk_symbol_errors_rare(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 4, 100_000)
        tx = qam_map(idx, 4)
        rx = awgn(tx, 20.0, seed=1)
        errors = np.count_nonzero(qam_demap(rx, 4) != idx)
        assert errors / len(idx) < 1e-3

    def test_zero_signal_decodes_deterministically(self):
        out = qam_demap(sig(np.zeros(5)), 16)
        assert np.array_equal(out, np.full(5, out[0]))

    def test_errors(self):
        with pytest.raises(InvalidOrder):
            qam_map([0], 8)
        with pytest.raises(IndexOutOfRange):
            qam_map([4], 4)
        with pytest.raises(InvalidOrder):
            qam_demap(sig([0]), 32)


class TestRrc:
    def test_symmetric_unit_energy(self):
        taps = rrc_taps(0.25, 16, 8)
        assert len(taps) == 16 * 8 + 1
        assert np.allclose(taps, taps[::-1])
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_center_tap_analytic_limit(self):
        taps = rrc_taps(0.35, 8, 4)
        centre_unnorm = 1 - 0.35 + 4 * 0.35 / np.pi
        ratio = taps[len(taps) // 2] / centre_unnorm
        # every other tap scaled by the same energy normalization
        assert np.isfinite(ratio) and ratio > 0

    def test_quarter_rolloff_singularity_finite(self):
        # t = 1/(4 beta) lands exactly on a tap for beta = 0.25, os = 1 case
        taps = rrc_taps(0.25, 16, 8)
        assert np.all(np.isfinite(taps))

    def test_cascade_is_nyquist(self):
        os = 8
        taps = rrc_taps(0.25, 16, os)
        cascade = np.convolve(taps, taps)
        centre = len(cascade) // 2
        assert cascade[centre] == pytest.approx(1.0, abs=1e-3)
        offsets = cascade[centre + os::os]
        assert np.max(np.abs(offsets)) < 1e-3

    def test_matched_filter_isi_below_minus_40db(self):
        os = 8
        taps = rrc_taps(0.25, 16, os)
        cascade = np.convolve(taps, taps)
        centre = len(cascade) // 2
        isi = np.concatenate([cascade[centre - os::-os][1:], cascade[centre + os::os]])
        isi_db = 10 * np.log10(np.sum(isi**2) / cascade[centre] ** 2)
        assert isi_db < -40.0

    def test_rejects_bad_rolloff(self):
        with pytest.raises(ValueError):
            rrc_taps(0.0, 16, 8)


class TestDft:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for length in (1, 2, 7, 256, 2**16):
            x = sig(rng.standard_normal(length) + 1j * rng.standard_normal(length))
            back = idft(dft(x))
            assert np.max(np.abs(back.samples - x.samples)) < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(4)
        x = sig(rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        spec = dft(x)
        assert np.sum(np.abs(spec.samples) ** 2) == pytest.approx(
            np.sum(np.abs(x.samples) ** 2), rel=1e-10
        )

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        b = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = dft(sig(2.0 * a + 3j * b)).samples
        rhs = 2.0 * dft(sig(a)).samples + 3j * dft(sig(b)).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_impulse_and_tone(self):
        impulse = np.zeros(64, dtype=complex)
        impulse[0] = 1.0
        spec = dft(sig(impulse)).samples
        assert np.allclose(np.abs(spec), 1 / np.sqrt(64))
        k = 5
        tone = np.exp(2j * np.pi * k * np.arange(64) / 64)
        spec = dft(sig(tone)).samples
        assert abs(spec[k]) == pytest.approx(np.sqrt(64), abs=1e-9)
        spec[k] = 0
        assert np.max(np.abs(spec)) < 1e-9


class TestFractionalDelay:
    def test_zero_delay_identity(self):
        rng = np.random.default_rng(6)
        x = sig(rng.standard_normal(128) + 1j * rng.standard_normal(128))
        out = fractional_delay(x, 0.0)
        assert np.max(np.abs(out.samples - x.samples)) < 1e-12

    def test_integer_delay_is_circular_shift(self):
        impulse = np.zeros(64, dtype=complex)
        impulse[0] = 1.0
        out = fractional_delay(sig(impulse), 3.0).samples
        assert abs(out[3] - 1.0) < 1e-12
        out[3] = 0
        assert np.max(np.abs(out)) < 1e-12

    def test_half_sample_phase_on_tone(self):
        length, k = 256, 9
        tone = np.exp(2j * np.pi * k * np.arange(length) / length)
        out = fractional_delay(sig(tone), 0.5).samples
        expected = tone * np.exp(-1j * np.pi * k / length)
        assert np.max(np.abs(out - expected)) < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(8)
        x = sig(rng.standard_normal(512) + 1j * rng.standard_normal(512))
        a, b = 2.35, -4.1
        once = fractional_delay(fractional_delay(x, a), b).samples
        combined = fractional_delay(x, a + b).samples
        assert np.max(np.abs(once - combined)) < 1e-9

    def test_energy_preserved(self):
        rng = np.random.default_rng(9)
        x = sig(rng.standard_normal(256) + 1j * rng.standard_normal(256))
        out = fractional_delay(x, 7.77)
        assert out.power == pytest.approx(x.power, rel=1e-12)

    def test_delay_too_large(self):
        with pytest.raises(DelayTooLarge):
            fractional_delay(sig(np.ones(16)), 4.0)


class TestAwgn:
    def test_measured_snr(self):
        rng = np.random.default_rng(10)
        x = sig(np.exp(2j * np.pi * rng.random(1_000_000)))
        noisy = awgn(x, 17.0, seed=2)
        noise = noisy.samples - x.samples
        measured = 10 * np.log10(x.power / np.mean(np.abs(noise) ** 2))
        assert measured == pytest.approx(17.0, abs=0.1)

    def test_deterministic_in_seed(self):
        x = sig(np.ones(100))
        a = awgn(x, 10.0, seed=5).samples
        b = awgn(x, 10.0, seed=5).samples
        assert np.array_equal(a, b)
        c = awgn(x, 10.0, seed=6).samples
        assert not np.array_equal(a, c)

    def test_infinite_snr_identity(self):
        x = sig(np.arange(10) + 0j)
        assert np.array_equal(awgn(x, np.inf, seed=1).samples, x.samples)

    def test_zero_signal_rejected(self):
        with pytest.raises(ZeroSignal):
            awgn(sig(np.zeros(8)), 10.0, seed=0)


class TestMeasureEvm:
    def test_perfect_match_hits_floor(self):
        x = qam_map(np.arange(16), 16)
        report = measure_evm(x, x)
        assert report.evm_db == -120.0
        assert report.mer_db == 120.0

    def test_scalar_fit_absorbs_gain_and_rotation(self):
        rng = np.random.default_rng(11)
        ref = qam_map(rng.integers(0, 16, 1000), 16).samples
        for c in (2.0, 0.3 * np.exp(1j * 1.2), -1j):
            report = measure_evm(sig(c * ref), sig(ref))
            assert report.evm_db == -120.0

    def test_scaling_invariance_with_noise(self):
        rng = np.random.default_rng(12)
        ref = qam_map(rng.integers(0, 16, 5000), 16).samples
        rx = ref + 0.05 * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        base = measure_evm(sig(rx), sig(ref)).evm_db
        scaled = measure_evm(sig(1.7j * rx), sig(ref)).evm_db
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_constructed_noise_level(self):
        rng = np.random.default_rng(13)
        n = 200_000
        ref = qam_map(rng.integers(0, 4, n), 4).samples
        sigma = np.sqrt(0.01 / 2)
        rx = ref + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        report = measure_evm(sig(rx), sig(ref))
        assert report.evm_db == pytest.approx(-20.0, abs=0.1)

    def test_mer_negates_evm(self):
        rng = np.random.default_rng(14)
        ref = qam_map(rng.integers(0, 16, 100), 16).samples
        rx = ref + 0.1
        report = measure_evm(sig(rx), sig(ref))
        assert report.mer_db == -report.evm_db

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            measure_evm(sig([1, 2]), sig([1]))
        with pytest.raises(ZeroReference):
            measure_evm(sig([1, 2]), sig([0, 0]))


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(123, 0)
        assert a == derive_seed(123, 0)
        assert a != derive_seed(123, 1)
        assert a != derive_seed(124, 0)
        assert 0 <= a < 2**64


class TestSignalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(0.0)
        with pytest.raises(ValueError):
            SignalSpec(0.2, oversample=2)
        with pytest.raises(ValueError):
            SignalSpec(0.2, rrc_span=7)
        with pytest.raises(InvalidOrder):
            SignalSpec(0.2, modulation_order=8)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SignalSpec(0.2, seed=-1)
        assert SignalSpec(0.2, seed=0).seed == 0

    @pytest.mark.parametrize(
        "field", ["fractional_bandwidth", "n_symbols", "rrc_rolloff", "oversample"]
    )
    def test_rejects_non_finite(self, field):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                SignalSpec(**{"fractional_bandwidth": 0.2, field: bad})


# ---------------------------------------------------------------------------
# Properties (derandomized, so the suite stays deterministic)
# ---------------------------------------------------------------------------

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=50)
@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=200))
def test_idft_inverts_dft_property(pairs):
    x = np.array([complex(re, im) for re, im in pairs])
    back = idft(dft(sig(x))).samples
    assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=50)
@given(st.integers(16, 300), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(0, 2**32))
def test_fractional_delays_compose_property(length, a, b, seed):
    # both steps and their sum stay strictly inside the length/4 limit
    a, b = a * length / 9, b * length / 9
    rng = np.random.default_rng(seed)
    x = sig(rng.standard_normal(length) + 1j * rng.standard_normal(length))
    twice = fractional_delay(fractional_delay(x, a), b).samples
    once = fractional_delay(x, a + b).samples
    assert np.max(np.abs(twice - once)) < 1e-10


@settings(max_examples=50)
@given(st.sampled_from([4, 16, 64]).flatmap(
    lambda order: st.tuples(st.just(order), st.lists(st.integers(0, order - 1), max_size=100))
))
def test_qam_demap_inverts_map_property(case):
    order, indices = case
    back = qam_demap(qam_map(indices, order), order)
    assert np.array_equal(back, np.asarray(indices, dtype=np.int64))


@settings(max_examples=50)
@given(st.integers(1, 60), st.integers(3, 8), st.floats(0.0, 2.0), st.integers(0, 2**32))
def test_measure_evm_fits_each_column_property(n_symbols, n_tones, noise, seed):
    rng = np.random.default_rng(seed)
    shape = (n_symbols, n_tones)
    ref = qam_map(rng.integers(0, 16, shape).ravel(), 16).samples.reshape(shape)
    gains = rng.standard_normal(n_tones) + 1j * rng.standard_normal(n_tones)
    rx = gains * ref + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    rx[:, 0] = 0.0  # no fit: the error is the reference itself
    rx[:, 1] = 1.5j * ref[:, 1]  # exact fit
    grid = measure_evm(rx, ref)
    columns = [measure_evm(rx[:, m], ref[:, m]) for m in range(n_tones)]
    assert all(isinstance(col.evm_db, float) for col in columns)
    assert np.allclose(grid.evm_db, [col.evm_db for col in columns], rtol=0.0, atol=1e-9)
    assert np.array_equal(grid.mer_db, -grid.evm_db)
    assert grid.evm_db[0] == 0.0
    assert grid.evm_db[1] == EVM_FLOOR_DB
