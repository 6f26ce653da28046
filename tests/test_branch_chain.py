"""The collapsed receive chain against the per-element reference.

The chains receive each combiner branch through one frequency response
(``branch_responses``, in closed form), combine in the tone domain with
the reduced-IDFT kernel or, for one tone per group, on the DFT-window side
(which the branch side pins), run the single-carrier link at the symbol
rate, and draw receiver noise once at the combiner output. The references are
the per-element stages of :mod:`squintsim.wavefront` (``propagate``,
``phase_align``, ``add_noise``, ``sync_mean_delay``), and the time-domain
combiners and the oversampled single-carrier product of ``oracles``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dirichlet,
    full_grid_branch_responses,
    full_idft_combine,
    ofdm_frame,
    phase_sum,
    presum_subarrays,
    reduced_idft_combine,
    sc_impulses,
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
from squintsim.txrx import (
    _branch_combine,
    _ofdm_guard,
    _ofdm_length,
    _ofdm_receive,
    _sc_receive,
    _window_combine,
    _window_side,
)
from squintsim.wavefront import (
    _dirichlet,
    array_kernel,
    branch_responses,
    element_delay_samples,
)

DEG = np.pi / 180.0


def branch_streams(tx, cfg, spec, n_sub):
    for filtered in branch_responses(tx.samples, np.fft.fft(tx.samples), cfg, spec, n_sub):
        yield np.fft.ifft(filtered)


def window_side(cfg, spec, ofdm, n_sub, m_group):
    """Whether the chain combines this sizing on the DFT-window side."""
    length = _ofdm_length(spec, ofdm, _ofdm_guard(cfg, spec), True)
    return _window_side(cfg, ofdm, n_sub, m_group, length)


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


@settings(max_examples=50)
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


def bits(a: np.ndarray) -> bytes:
    return a.dtype.str.encode() + np.ascontiguousarray(a).tobytes()


kernel_values = st.one_of(
    st.floats(-1e4, 1e4),
    st.integers(-300, 300).map(float),  # the removable poles
    st.integers(-600, 600).map(lambda k: k / 2),  # half-integers: rint ties
)


@st.composite
def kernel_input(draw):
    """Every form ``_dirichlet`` is called with: float arrays (empty too),
    0-d arrays, Python and numpy scalars, integer arrays and integers."""
    form = draw(st.sampled_from(["array", "0-d", "float", "float64", "int array", "int"]))
    if form in ("array", "int array"):
        values = draw(st.lists(kernel_values if form == "array" else st.integers(-50, 50),
                               max_size=40))
        return np.array(values, dtype=float if form == "array" else np.int64)
    if form == "int":
        return draw(st.integers(-50, 50))
    value = draw(kernel_values)
    return {"0-d": np.array, "float": float, "float64": np.float64}[form](value)


@settings(max_examples=300)
@given(kernel_input(), st.integers(1, 300))
@example(np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.5, 2.5, 1e-300]), 2)
@example(np.array([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, -0.5, 2.5, 1e-300]), 33)
@example(np.float64(-0.0), 4)  # a pole at a signed zero, even n
@example(np.array(-3.0), 6)  # a 0-d pole with the sign flip
@example(np.arange(-4, 5), 8)  # integers: every entry a pole
@example(7, 1)  # one element: ones_like keeps the input's type
def test_dirichlet_matches_allocating_oracle_property(x, n):
    """The in-place kernel is bit for bit (dtype, shape and signed zeros
    included) the allocating oracle, and leaves its argument alone."""
    before = bits(np.asarray(x))
    got, want = _dirichlet(x, n), dirichlet(x, n)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert bits(np.asarray(got)) == bits(np.asarray(want))
    assert bits(np.asarray(x)) == before


def divisor_sizing(n: int):
    return st.tuples(st.just(n), st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))


@settings(max_examples=40)
@given(
    st.sampled_from([1, 2, 6, 12, 16, 32, 33]).flatmap(divisor_sizing),
    st.floats(-89.0, 89.0),
    st.floats(0.01, 0.99),
    st.integers(300, 3000),
)
@example((1, 1), 30.0, 0.5, 401)  # one element: all ones
@example((32, 32), -60.0, 0.9, 1000)  # even L: the Nyquist bin is +0.5 on the half grid
@example((33, 11), -75.0, 0.95, 999)  # odd L, odd N
def test_array_kernel_is_the_full_grid_kernel_property(sizing, theta, bw, length):
    """The half-spectrum kernel is bit for bit the full-grid kernel on bins
    0 .. L // 2, and the branch spectra built from it are bit-identical to
    a random spectrum times the responses built on the full grid, for even
    and odd L."""
    n, n_sub = sizing
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, oversample=4)
    tx = ComplexSignal(np.zeros(length), 4.0)
    x = np.fft.fftfreq(length) * element_delay_samples(cfg, spec, 4.0)
    half = array_kernel(length, cfg, spec, n_sub)
    assert bits(half) == bits(_dirichlet(x, n_sub)[:length // 2 + 1])
    rng = np.random.default_rng(length)
    spectrum = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    got = [filtered.copy() for filtered in
           branch_responses(tx.samples, spectrum.copy(), cfg, spec, n_sub)]
    want = [spectrum * response for response in full_grid_branch_responses(tx, cfg, spec, n_sub)]
    assert len(got) == len(want) == n // n_sub
    assert all(bits(a) == bits(b) for a, b in zip(got, want))


@settings(max_examples=30)
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
@example(1024, 60.0, 0.5, 8, 100)  # a frame shorter than four delay spreads
def test_single_carrier_symbol_rate_matches_oversampled_property(n, theta, bw, os, n_sym):
    """The symbol-rate chain (its frame times the folded response) equals the
    oversampled product ifft(fft(up) R^2 H / N) at the symbol instants, with
    up the frame upsampled to impulses."""
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
        """The per-element streams and the guard of either frame the chain
        can transmit, keyed by whether it combines on the window side."""
        frames = {}
        for window in (False, True):
            tx, _, guard = ofdm_frame(self.spec, self.ofdm, self.cfg, window)
            frames[window] = oracle_streams(tx, self.cfg, self.spec), guard
        return frames

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
        resolved = combiner.resolve_sizing(self.cfg, self.ofdm, 0.2)
        if kind == "reduced" and sizing is None:
            sizing = resolved
        streams, guard = reference[window_side(self.cfg, self.spec, self.ofdm, *resolved)]
        expected = oracle_grid(streams, guard, self.ofdm, self.spec.oversample, kind, sizing)
        _, clean, _, _ = _ofdm_receive(self.cfg, self.spec, self.ofdm, np.inf, combiner)
        assert np.max(np.abs(clean - expected)) < 1e-9

    def test_single_carrier_combined_stream_is_phase_sum(self):
        """Time-domain reference: RRC shaping, the per-element stages, the
        phase sum and the matched filter, sampled at the symbol instants."""
        cfg = ArrayConfig(16, 30 * DEG)
        spec = SignalSpec(0.2, n_symbols=300, seed=22)
        impulses, instants = sc_impulses(spec, cfg)
        taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, spec.oversample)
        shaped = ComplexSignal(np.convolve(impulses.samples, taps, "same"), impulses.sample_rate)
        combined = phase_sum(oracle_streams(shaped, cfg, spec)).samples
        expected = np.convolve(combined, taps, "same")[instants]
        _, clean, _ = _sc_receive(cfg, spec, np.inf)
        assert np.max(np.abs(clean - expected)) < 1e-9


class TestSmoothPadding:
    """The trailing zeros that pad the OFDM frame leave the clean grid
    alone: the per-element reference run on the chain's branch-side frame
    cut back to one trailing guard (the unpadded layout) agrees within
    1e-6. The ofdm_combiners benchmark config, whose 62468-sample frame
    pads to the least 7-smooth 62500 for ps and reduced (branch side) and
    to 64512 = 1024 * 63 for idft (window side)."""

    cfg = ArrayConfig(32, 45 * DEG)
    spec = SignalSpec(0.2, oversample=8, seed=23)
    ofdm = OfdmSpec(128, n_ofdm_symbols=60)

    @pytest.fixture(scope="class")
    def unpadded(self):
        tx, _, guard = ofdm_frame(self.spec, self.ofdm, self.cfg, False)
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
        _, clean, _, _ = _ofdm_receive(self.cfg, self.spec, self.ofdm, np.inf, combiner)
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
        tx, _, guard = ofdm_frame(spec, ofdm, cfg, False)
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
        _, clean, noisy, _ = _ofdm_receive(self.cfg, self.spec, self.ofdm, self.snr_db, combiner)
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
                              self.snr_db, ps)[:3]
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


@settings(max_examples=25)
@given(chain_case())
def test_kernel_degenerate_sizings_property(case):
    """The tone-domain kernel at (N, M) is the phase sum, at (1, 1) the full
    IDFT, and at any divisor pair the two-stage reduced combiner."""
    n, m, theta, bw, n_sub, m_group = case
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, oversample=4, seed=25)
    ofdm = OfdmSpec(m, n_ofdm_symbols=3)
    q = spec.oversample
    for sizing, kind in (((n, m), "ps"), ((1, 1), "idft"), ((n_sub, m_group), "reduced")):
        # the reference takes the frame the chain transmits for this sizing
        tx, _, guard = ofdm_frame(spec, ofdm, cfg, window_side(cfg, spec, ofdm, *sizing))
        streams = oracle_streams(tx, cfg, spec)
        _, clean, _, _ = _ofdm_receive(cfg, spec, ofdm, np.inf, CombinerSpec.reduced_idft(*sizing))
        expected = oracle_grid(streams, guard, ofdm, q, kind, sizing)
        assert np.max(np.abs(clean - expected)) < 1e-9


@st.composite
def window_case(draw):
    n = draw(st.integers(1, 64))
    m = draw(st.integers(2, 24))
    return (
        n,
        draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0])),
        draw(st.floats(-70.0, 70.0)),
        draw(st.floats(0.02, 0.6)),
        m,
        draw(st.integers(4, 8)),
        draw(st.integers(1, m - 1)),
        draw(st.integers(1, 4)),
    )


def window_and_branch(n, n_sub, theta, bw, m, q, cp, n_sym):
    """Both sides of the chain on the same window-side frame."""
    cfg = ArrayConfig(n, theta * DEG)
    spec = SignalSpec(bw, oversample=q, seed=n_sym)
    ofdm = OfdmSpec(m, n_ofdm_symbols=n_sym, cp_ratio_num=cp)
    tx, _, guard = ofdm_frame(spec, ofdm, cfg, True)
    assert len(tx) % (m * q) == 0
    branch = _branch_combine(tx.samples, guard, cfg, spec, ofdm, n_sub, 1)
    return _window_combine(tx.samples, guard, cfg, spec, ofdm, n_sub), branch, len(tx)


@settings(max_examples=60)
@given(window_case())
@example((6, 1, -50.0, 0.3, 3, 5, 1, 3))  # odd Mq = 15 and odd L = 105
@example((45, 9, 65.0, 0.5, 7, 5, 3, 2))  # odd Mq = 35, odd N_r = 5
@example((64, 1, -70.0, 0.6, 24, 8, 23, 4))  # the largest N, CP and delay spread drawn
@example((12, 12, 40.0, 0.3, 9, 4, 2, 1))  # one branch: the phase sum of tone-wise weights
@example((16, 4, 0.0, 0.3, 7, 5, 3, 3))  # broadside: no delay spread, odd Mq = 35
@example((36, 1, 39.0, 0.5, 2, 4, 1, 1))  # L = 96, under four delay spreads (22 samples)
def test_window_side_matches_branch_side_property(case):
    """For one tone per group, combining on the DFT-window side equals the
    branch side (one IFFT and one demodulation per branch, then the
    tone-domain kernel) on the same frame: every divisor n_sub, odd and
    even M and Mq, odd and even frame lengths, negative angles."""
    window, branch, _ = window_and_branch(*case)
    assert np.max(np.abs(window - branch)) < 1e-9


def test_window_side_matches_branch_side_large_array():
    """N = 256 at M = 64 and 8 symbols: the delay spread (about 10 samples
    here) and the tone frequencies wrap past Nyquist together."""
    window, branch, length = window_and_branch(256, 1, 30.0, 0.1, 64, 8, 8, 8)
    assert length == 5120
    assert np.max(np.abs(window - branch)) < 1e-9


def test_combining_side_selection():
    """The window side serves one tone per group where its measured cost is
    lower; ps, grouped tones and a single branch stay on the branch side.
    At the benchmark frame (L = 64512, log2 L = 15.98, S = 60) the window
    side costs 60 + 3 * 15.98 + 1.6 = 109.5 per L against 15.98 N_r, so
    N_r = 8 takes it and N_r = 4 does not; both sides time about even at
    N_r = 4 and 5. On a short frame the window side's fixed work decides:
    the N = 8 full IDFT at M = 32, 12 symbols, q = 4 (L = 1792) stays on
    the branch side, while N = 16 takes the window side."""
    cfg, spec, ofdm = ArrayConfig(32, 45 * DEG), SignalSpec(0.2, oversample=8), OfdmSpec(128, 60)
    assert window_side(cfg, spec, ofdm, 1, 1)
    assert window_side(cfg, spec, ofdm, 2, 1)
    assert window_side(cfg, spec, ofdm, 4, 1)  # N_r = 8
    assert not window_side(cfg, spec, ofdm, 8, 1)  # N_r = 4
    assert not window_side(cfg, spec, ofdm, 32, 1)  # N_r = 1
    assert not window_side(cfg, spec, ofdm, 1, 2)
    assert not window_side(cfg, spec, ofdm, 32, 128)
    spec, ofdm = SignalSpec(0.1, oversample=4), OfdmSpec(32, 12)
    assert not window_side(ArrayConfig(8, 30 * DEG), spec, ofdm, 1, 1)
    assert window_side(ArrayConfig(16, 30 * DEG), spec, ofdm, 1, 1)


class TestInputFrameUnchanged:
    """The combining sides transform, filter and demodulate in buffers of
    their own and only read the frame they are given, so the caller's frame
    (here the one both sides are compared on) keeps every bit; so does the
    signal given to ``ofdm_demodulate``, whose windows the chain transforms
    in place."""

    cfg = ArrayConfig(16, 30 * DEG)
    spec = SignalSpec(0.2, oversample=4, seed=31)
    ofdm = OfdmSpec(16, n_ofdm_symbols=6)

    def frame(self):
        tx, _, guard = ofdm_frame(self.spec, self.ofdm, self.cfg, True)
        return tx.samples, guard

    @pytest.mark.parametrize("n_sub, m_group", [(16, 16), (4, 4), (1, 1), (16, 1)])
    def test_branch_side(self, n_sub, m_group):
        x, guard = self.frame()
        before = bits(x)
        _branch_combine(x, guard, self.cfg, self.spec, self.ofdm, n_sub, m_group)
        assert bits(x) == before

    @pytest.mark.parametrize("n_sub", [1, 4, 16])
    def test_window_side(self, n_sub):
        x, guard = self.frame()
        before = bits(x)
        _window_combine(x, guard, self.cfg, self.spec, self.ofdm, n_sub)
        assert bits(x) == before

    def test_ofdm_demodulate(self):
        x, guard = self.frame()
        before = bits(x)
        demod(x, guard, self.ofdm, self.spec.oversample)
        assert bits(x) == before


def traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` holds at once, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize(
    "combiner, bound",
    [
        (CombinerSpec.phase_shifter_sum(), 3.5),  # branch side, one branch; 5.10 before
        (CombinerSpec.full_idft(), 5.25),  # window side; 7.54 before
        (CombinerSpec.reduced_idft(), 5.25),  # auto (8, 16): branch side, 4 branches; 7.47
        (CombinerSpec.reduced_idft(4, 1), 6.25),  # window side with a sub-array kernel; 8.54
        (CombinerSpec.reduced_idft(2, 4), 6.75),  # branch side, 16 branches; 8.93
    ],
)
def test_receive_peak_memory_in_frames(combiner, bound):
    """Allocation guard: the traced peak of one clean and noisy OFDM receive
    (N = 32, 45 deg, BW 0.2, M = 64, 20 symbols, q = 8; L = 10752 on both
    sides), in frames of L complex samples. Each run owns a few frame-length
    buffers (the frame, its spectrum, one branch stream or the window
    side's doubled kernel) and reuses them; the comments give the peak
    when every step allocated afresh. Measured 3.25, 4.96, 4.87, 5.96 and
    6.33 frames; a step that allocates a frame-length temporary again
    breaks its bound."""
    cfg, spec, ofdm = ArrayConfig(32, 45 * DEG), SignalSpec(0.2, oversample=8, seed=5), OfdmSpec(64, 20)
    sizing = combiner.resolve_sizing(cfg, ofdm, 0.2)
    length = _ofdm_length(spec, ofdm, _ofdm_guard(cfg, spec), window_side(cfg, spec, ofdm, *sizing))
    assert length == 10752
    _ofdm_receive(cfg, spec, ofdm, 20.0, combiner)  # FFT plans and caches warm
    peak = traced_peak(_ofdm_receive, cfg, spec, ofdm, 20.0, combiner)
    assert peak / (16 * length) <= bound
