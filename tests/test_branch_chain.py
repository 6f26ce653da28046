"""The collapsed receive chain against the per-element reference.

The chains receive each combiner branch through one frequency response
(``branch_responses``, in closed form), combine in the tone domain with
the reduced-IDFT kernel, run the single-carrier link at the symbol rate,
and draw receiver noise once at the combiner output. The references are
the per-element stages of :mod:`squintsim.wavefront` (``propagate``,
``phase_align``, ``add_noise``, ``sync_mean_delay``), and the time-domain
combiners and the oversampled single-carrier product of ``oracles``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    full_idft_combine,
    phase_sum,
    presum_subarrays,
    reduced_idft_combine,
    sc_oversampled_clean,
)
from squintsim import (
    ArrayConfig,
    ComplexSignal,
    CombinerSpec,
    OfdmSpec,
    SignalSpec,
    add_noise,
    ofdm_demodulate,
    phase_align,
    propagate,
    sync_mean_delay,
)
from squintsim.dsp import rrc_taps
from squintsim.errors import IndivisibleSizing, InsufficientGuard
from squintsim.txrx import _ofdm_receive, _ofdm_transmit, _sc_receive, _sc_transmit
from squintsim.wavefront import _dirichlet, branch_responses

DEG = np.pi / 180.0


def branch_streams(tx, cfg, spec, n_sub):
    spectrum = np.fft.fft(tx.samples)
    for response in branch_responses(tx, cfg, spec, n_sub):
        yield np.fft.ifft(spectrum * response)


def oracle_streams(tx, cfg, spec):
    return sync_mean_delay(phase_align(propagate(tx, cfg, spec)))


def demod(samples, guard, ofdm, q):
    block = (ofdm.m_carriers + ofdm.cp_ratio_num) * q
    frame = samples[guard:guard + ofdm.n_ofdm_symbols * block]
    return ofdm_demodulate(ComplexSignal(frame, float(q)), ofdm, q)


def oracle_grid(streams, guard, ofdm, q, kind, sizing=None):
    """Combine in the time domain, then keep each output's own tones."""
    m = ofdm.m_carriers
    if kind == "ps":
        outs, groups = [phase_sum(streams)], [range(m)]
    elif kind == "idft":
        outs, groups = full_idft_combine(streams, ofdm), [range(t, t + 1) for t in range(m)]
    else:
        outs, groups = reduced_idft_combine(streams, ofdm, *sizing)
    grid = np.empty((ofdm.n_ofdm_symbols, m), dtype=complex)
    for out, tones in zip(outs, groups):
        grid[:, tones] = demod(out.samples, guard, ofdm, q)[:, tones]
    return grid


class TestBranchStreams:
    @pytest.mark.parametrize("n_sub", [1, 2, 3, 4, 6, 12])
    def test_equals_presummed_element_streams(self, n_sub):
        rng = np.random.default_rng(0)
        cfg = ArrayConfig(12, 40 * DEG)
        spec = SignalSpec(0.3, oversample=8, seed=0)
        x = np.zeros(1024, dtype=complex)
        x[64:-64] = rng.standard_normal(896) + 1j * rng.standard_normal(896)
        tx = ComplexSignal(x, sample_rate=8.0)
        expected = presum_subarrays(oracle_streams(tx, cfg, spec), n_sub)
        got = np.array(list(branch_streams(tx, cfg, spec, n_sub)))
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_rejects_indivisible_and_unguarded(self):
        cfg = ArrayConfig(8, 40 * DEG)
        spec = SignalSpec(0.3, seed=0)
        tx = ComplexSignal(np.ones(256, dtype=complex), sample_rate=8.0)
        with pytest.raises(IndivisibleSizing):
            next(branch_streams(tx, cfg, spec, 3))
        with pytest.raises(InsufficientGuard):
            next(branch_streams(tx, cfg, spec, 8))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 300), st.floats(-0.5, 0.5))
def test_dirichlet_matches_direct_sum(n, f):
    """The closed form equals the centred sum, also at and next to its
    removable poles (integer x), where it is exactly +-n."""
    x = np.array([f, 0.0, 0.5, -0.5, 1.0, 2.5, f + 3.0])
    k = np.arange(n) - (n - 1) / 2.0
    direct = np.exp(-2j * np.pi * np.outer(x, k)).sum(axis=1)
    got = _dirichlet(x, n)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - direct)) < 1e-10 * n
    assert got[1] == n and got[4] == (-1) ** (n - 1) * n


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(1, 40),
    st.floats(-89.0, 89.0),
    st.floats(0.01, 0.99),
    st.sampled_from([4, 5, 8]),
    st.integers(1, 300),
)
@example(33, -75.0, 0.95, 8, 200)  # odd N, negative theta, dtau = 3.7 samples
@example(16, -75.0, 0.95, 16, 50)  # x = f dtau crosses the poles at 1, 2 and 3
@example(32, 89.0, 0.99, 5, 120)
def test_single_carrier_symbol_rate_matches_oversampled_property(n, theta, bw, os, n_sym):
    """The symbol-rate chain (impulses times the folded response) equals the
    oversampled product ifft(fft(tx) R^2 H / N) at the symbol instants."""
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, n_symbols=n_sym, oversample=os, seed=n_sym)
    _, clean, _ = _sc_receive(cfg, spec, np.inf)
    assert np.max(np.abs(clean - sc_oversampled_clean(cfg, spec))) < 1e-12


class TestToneGridEquivalence:
    """N=16, M=64, theta=30 deg, BW=0.2: the chain's clean tone grid
    equals the per-element reference combined in the time domain."""

    cfg = ArrayConfig(16, 30 * DEG)
    spec = SignalSpec(0.2, oversample=4, seed=21)
    ofdm = OfdmSpec(64, n_ofdm_symbols=12)

    @pytest.fixture(scope="class")
    def reference(self):
        tx, _, guard = _ofdm_transmit(self.spec, self.ofdm, self.cfg)
        return oracle_streams(tx, self.cfg, self.spec), guard

    @pytest.mark.parametrize(
        "combiner, kind, sizing",
        [
            (CombinerSpec.phase_shifter_sum(), "ps", None),
            (CombinerSpec.full_idft(), "idft", None),
            (CombinerSpec.reduced_idft(), "reduced", None),  # auto sizing
            (CombinerSpec.reduced_idft(4, 8), "reduced", (4, 8)),
            (CombinerSpec.reduced_idft(16, 64), "ps", None),
            (CombinerSpec.reduced_idft(1, 1), "idft", None),
        ],
    )
    def test_clean_grid_matches_reference(self, reference, combiner, kind, sizing):
        if kind == "reduced" and sizing is None:
            sizing = combiner.resolve_sizing(self.cfg, self.ofdm, 0.2)
        streams, guard = reference
        expected = oracle_grid(streams, guard, self.ofdm, self.spec.oversample, kind, sizing)
        _, clean, _ = _ofdm_receive(self.cfg, self.spec, self.ofdm, np.inf, combiner)
        assert np.max(np.abs(clean - expected)) < 1e-9

    def test_single_carrier_combined_stream_is_phase_sum(self):
        """Time-domain reference: RRC shaping, the per-element stages, the
        phase sum and the matched filter, sampled at the symbol instants."""
        cfg = ArrayConfig(16, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=300, seed=22)
        impulses, _, instants = _sc_transmit(spec, cfg)
        taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, spec.oversample)
        shaped = ComplexSignal(np.convolve(impulses.samples, taps, "same"), impulses.sample_rate)
        combined = phase_sum(oracle_streams(shaped, cfg, spec)).samples
        expected = np.convolve(combined, taps, "same")[instants]
        _, clean, _ = _sc_receive(cfg, spec, np.inf)
        assert np.max(np.abs(clean - expected)) < 1e-9


class TestSmoothPadding:
    """The trailing zeros that pad the OFDM frame to a 7-smooth length leave
    the clean grid alone: the per-element reference run on the frame cut
    back to one trailing guard (the unpadded layout) agrees within 1e-6.
    The ofdm_combiners benchmark config, whose 62468-sample frame pads to
    62500."""

    cfg = ArrayConfig(32, 45 * DEG)
    spec = SignalSpec(0.2, oversample=8, seed=23)
    ofdm = OfdmSpec(128, n_ofdm_symbols=60)

    @pytest.fixture(scope="class")
    def unpadded(self):
        tx, _, guard = _ofdm_transmit(self.spec, self.ofdm, self.cfg)
        frame = self.ofdm.n_ofdm_symbols * (self.ofdm.m_carriers + self.ofdm.cp_ratio_num) * 8
        end = guard + frame + guard
        assert len(tx) > end
        cut = ComplexSignal(tx.samples[:end], tx.sample_rate)
        return oracle_streams(cut, self.cfg, self.spec), guard

    @pytest.mark.parametrize(
        "combiner, kind",
        [
            (CombinerSpec.phase_shifter_sum(), "ps"),
            (CombinerSpec.full_idft(), "idft"),
            (CombinerSpec.reduced_idft(), "reduced"),
        ],
    )
    def test_clean_grid_matches_unpadded_reference(self, unpadded, combiner, kind):
        sizing = combiner.resolve_sizing(self.cfg, self.ofdm, 0.2) if kind == "reduced" else None
        streams, guard = unpadded
        expected = oracle_grid(streams, guard, self.ofdm, 8, kind, sizing)
        _, clean, _ = _ofdm_receive(self.cfg, self.spec, self.ofdm, np.inf, combiner)
        assert np.max(np.abs(clean - expected)) < 1e-6


def element_noise_variance(tx, snr_db, oversample):
    """Per-element, per-sample noise power of the element-level model."""
    snr_ps = snr_db - 10.0 * math.log10(oversample)
    return tx.power * 10.0 ** (-snr_ps / 10.0)


class TestOutputNoise:
    """Noise drawn at the combiner output has the statistics the
    per-element model gives: CN(0, sigma^2 / N) per tone and symbol.

    With 2000 symbols the sample variance of one tone has a relative
    standard error of 1/sqrt(2000) = 2.2 percent; per-tone checks allow
    12 percent (over 5 standard errors) and the mean over tones 3 percent.
    """

    cfg = ArrayConfig(8, 30 * DEG)
    spec = SignalSpec(0.2, oversample=4, seed=23)
    ofdm = OfdmSpec(16, n_ofdm_symbols=2000)
    snr_db = 10.0

    @pytest.fixture(scope="class")
    def element_model(self):
        """Output noise variance per tone of the element-level reference:
        noise added to every element before alignment, sync and combining."""
        cfg, spec, ofdm = self.cfg, self.spec, self.ofdm
        tx, _, guard = _ofdm_transmit(spec, ofdm, cfg)
        q = spec.oversample
        received = propagate(tx, cfg, spec)
        clean = sync_mean_delay(phase_align(received))
        noisy = sync_mean_delay(phase_align(
            add_noise(received, self.snr_db - 10 * math.log10(q), 99)
        ))
        sigma2 = element_noise_variance(tx, self.snr_db, q)
        variances = {}
        for kind, sizing in (("ps", None), ("idft", None), ("reduced", (2, 4))):
            diff = (oracle_grid(noisy, guard, ofdm, q, kind, sizing)
                    - oracle_grid(clean, guard, ofdm, q, kind, sizing))
            variances[kind] = np.mean(np.abs(diff) ** 2, axis=0)
        return sigma2, variances

    @pytest.mark.parametrize(
        "combiner, kind",
        [
            (CombinerSpec.phase_shifter_sum(), "ps"),
            (CombinerSpec.full_idft(), "idft"),
            (CombinerSpec.reduced_idft(2, 4), "reduced"),
        ],
    )
    def test_per_tone_variance(self, element_model, combiner, kind):
        sigma2, reference = element_model
        _, clean, noisy = _ofdm_receive(self.cfg, self.spec, self.ofdm, self.snr_db, combiner)
        measured = np.mean(np.abs(noisy - clean) ** 2, axis=0)
        target = sigma2 / self.cfg.n_elements
        for var in (measured, reference[kind]):
            assert np.all(np.abs(var / target - 1.0) < 0.12)
            assert np.mean(var) / target == pytest.approx(1.0, abs=0.03)

    def test_single_carrier_symbol_noise(self):
        cfg = ArrayConfig(8, 30 * DEG)
        spec = SignalSpec(0.1, n_symbols=20000, seed=24)
        _, clean, noisy = _sc_receive(cfg, spec, 10.0)
        # against the unit symbol power, reduced by the array gain N
        target = 10.0 ** (-10.0 / 10.0) / cfg.n_elements
        assert np.mean(np.abs(noisy - clean) ** 2) / target == pytest.approx(1.0, abs=0.05)


class TestNoiseReference:
    """Receiver noise is set against the unit symbol power, not against the
    power of the zero-guarded frame: at a large delay spread the guards are
    a sizeable part of the frame, and the output noise must still be
    10^(-snr/10) / N. The guard-power reference was 0.72 dB (SC) and
    1.79 dB (OFDM) low at these configs. Four seeds give 4000 and 5120
    noise samples, a relative standard error below 1.6 percent."""

    snr_db = 10.0
    seeds = range(26, 30)

    def ratio(self, cfg, runs):
        var = np.mean([np.mean(np.abs(noisy - clean) ** 2) for _, clean, noisy in runs])
        return var / (10.0 ** (-self.snr_db / 10.0) / cfg.n_elements)

    def test_single_carrier(self):
        cfg = ArrayConfig(256, 60 * DEG)
        runs = [_sc_receive(cfg, SignalSpec(0.5, n_symbols=1000, seed=seed), self.snr_db)
                for seed in self.seeds]
        assert self.ratio(cfg, runs) == pytest.approx(1.0, abs=0.06)

    def test_ofdm(self):
        cfg = ArrayConfig(1024, 60 * DEG)
        ofdm = OfdmSpec(64, n_ofdm_symbols=20)
        ps = CombinerSpec.phase_shifter_sum()
        runs = [_ofdm_receive(cfg, SignalSpec(0.5, oversample=4, seed=seed), ofdm,
                              self.snr_db, ps)
                for seed in self.seeds]
        assert self.ratio(cfg, runs) == pytest.approx(1.0, abs=0.06)


divisors = {n: [d for d in range(1, n + 1) if n % d == 0] for n in (1, 2, 4, 6, 8, 12)}
tone_divisors = {m: [d for d in range(1, m + 1) if m % d == 0] for m in (4, 8, 12, 16)}


@st.composite
def chain_case(draw):
    n = draw(st.sampled_from(sorted(divisors)))
    m = draw(st.sampled_from(sorted(tone_divisors)))
    theta = draw(st.floats(-70.0, 70.0))
    bw = draw(st.floats(0.02, 0.5))
    n_sub = draw(st.sampled_from(divisors[n]))
    m_group = draw(st.sampled_from(tone_divisors[m]))
    return n, m, theta, bw, n_sub, m_group


@settings(max_examples=25, deadline=None, derandomize=True)
@given(chain_case())
def test_kernel_degenerate_sizings_property(case):
    """The tone-domain kernel at (N, M) is the phase sum, at (1, 1) the full
    IDFT, and at any divisor pair the two-stage reduced combiner."""
    n, m, theta, bw, n_sub, m_group = case
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, oversample=4, seed=25)
    ofdm = OfdmSpec(m, n_ofdm_symbols=3)
    tx, _, guard = _ofdm_transmit(spec, ofdm, cfg)
    streams = oracle_streams(tx, cfg, spec)
    q = spec.oversample
    for sizing, kind in (((n, m), "ps"), ((1, 1), "idft"), ((n_sub, m_group), "reduced")):
        _, clean, _ = _ofdm_receive(cfg, spec, ofdm, np.inf, CombinerSpec.reduced_idft(*sizing))
        expected = oracle_grid(streams, guard, ofdm, q, kind, sizing)
        assert np.max(np.abs(clean - expected)) < 1e-9
