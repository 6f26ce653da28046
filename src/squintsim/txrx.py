"""End-to-end receive chains: single-carrier QAM and OFDM.

Both chains share the receiver conventions:

* ``snr_db`` is the per-channel symbol-level (in-band) SNR against the
  unit symbol power, so a single element receives with EVM = -snr_db and
  an N-element broadside array with EVM = -(snr_db + 10 log10 N).
* Symbol timing locks to the centroid of the array's systematic delay
  spread (what a synchronizer tracking the combined signal converges to);
  OFDM DFT windows then sit at the conventional cyclic-prefix end, for
  both combining sides and :func:`ofdm_demodulate` (:func:`_window_starts`).
* Chain frames are plain arrays at ``oversample`` samples per symbol,
  zero-guarded by the one rule of :mod:`squintsim.wavefront`.
* The self-interference ratio (SSIR) of a run is the modulation error
  ratio of the noiseless combiner output.

The array up to the combiner is linear and time-invariant, so each chain
multiplies the spectrum of its frame by one response per combiner branch
(:func:`squintsim.wavefront.branch_responses`, in closed form). The
single-carrier chain folds its pulse shaping and matched filter into the
same product and, since it only reads the output at the symbol instants,
runs at the symbol rate: the oversampled response folded onto the
symbol-rate grid (its aliases summed) filters the symbol-rate frame. That
filter is real and even in frequency: the zero-phase RRC taps are real and
even, and after centroid sync so is the whole array's impulse response.
So it is built on the real half spectrum (``rfft`` and
:func:`squintsim.wavefront.array_kernel`) and even-extended, and its
symbol-spaced impulse response is real.

The OFDM chain combines on one of two sides, both exact:

* the branch side multiplies the frame spectrum by each branch response,
  demodulates each branch stream and applies the tone-domain kernel
  (:func:`squintsim.combine.combine_branch_grids`): N_r full-frame
  transforms;
* the DFT-window side serves one tone per group (the full IDFT and any
  ``(n_sub, 1)`` sizing). Tone k's weights undo each branch's delay at
  the tone frequency, so its combined response is one array kernel
  centred on that frequency. With the frame length L a multiple of Mq,
  every tone frequency is an FFT bin and each symbol's tones are one
  length-Mq FFT of the frame times the box-summed array impulse response,
  folded to Mq samples, plus an exact correction on the bins where
  ``f - f_k`` wraps past Nyquist (:func:`_window_combine`). Its cost, S
  folds of length L plus O(L log L), does not depend on N.

The chain takes the window side where its measured cost model, ``S L +
3 L log2 L + 1e5``, is below the branch side's ``N_r L log2 L``
(:func:`_window_side`), and pads that frame to Mq times a 7-smooth count
(L may be odd); every other frame pads to the least 7-smooth length.

Receiver noise is drawn once, at the combiner output. The element noise is
white and i.i.d., the delays are unitary, the weights have unit modulus
and the matched filter has unit energy, so every combiner's output noise
is exactly CN(0, 10^(-snr_db/10) / N) per symbol (single carrier) or per
tone and symbol (OFDM).

Buffers: a run writes only into arrays it made, and keeps none of them
after it returns (no cache or workspace lives between runs). The
transmitter modulates straight into the zeroed, padded frame
(:func:`_modulate_into`, which :func:`ofdm_modulate` shares). The branch
side owns the frame spectrum and hands it to
:func:`squintsim.wavefront.branch_responses`, the one route to every
branch stream: a single branch is filtered in the spectrum itself, more
branches each in the one buffer the generator reuses. Each stream and its
DFT windows are transformed in place and demodulated into that branch's
row of the branch grids. The window side owns the spectrum (filtered and
inverse transformed in place when n_sub > 1), one doubled kernel reversal
and one buffer for the imaginary, then the real part of the frame. No
public function writes into an array its caller passed in, except that
``branch_responses`` takes over the spectrum it is handed: the chain only
reads the frame, and :func:`ofdm_demodulate` transforms a copy of its
signal.

Runs are pure functions of (configs, seed); sweep points may execute
concurrently when every point derives its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .analytic import AnalyticReport, ArrayConfig, _dirichlet
from .combine import CombinerSpec, _check_divisible, combine_branch_grids, reduced_idft_weights
from .dsp import (
    ComplexSignal,
    SignalSpec,
    complex_noise,
    derive_seed,
    measure_evm,
    qam_map,
    rrc_taps,
    _evm_fit,
)
from .errors import DimensionMismatch
from .ofdm_spec import OfdmSpec
from .wavefront import (_delay_spread, _times_even, array_kernel, branch_responses,
                        element_delay_samples)

# not called here: bound because squintbench/tracer.py wraps these names on this module
from .combine import full_idft_weights  # noqa: F401
from .wavefront import add_noise, phase_align, propagate, sync_mean_delay  # noqa: F401

_CONSTELLATION_CAP = 4096


@dataclass
class ToneMetrics:
    """Per-subcarrier quality of an OFDM run."""

    tone_index: int
    evm_db: float
    ssir_db: float


@dataclass
class SimReport:
    """Outcome of one simulated link.

    ``constellation`` holds fitted received symbols next to their
    references, shape (K, 2) complex, thinned evenly to at most 4096 rows.
    ``analytic`` echoes the closed-form predictions for the same
    configuration; ``config`` echoes the resolved run parameters.
    ``combining`` (``"window"`` or ``"branch"``, OFDM only) and
    ``frame_length`` say what the chain did; they are for diagnostics and
    never enter a report file.
    """

    overall_evm_db: float
    overall_ssir_db: float
    per_tone: list[ToneMetrics] | None
    constellation: np.ndarray
    analytic: AnalyticReport
    config: dict = field(default_factory=dict)
    combining: str | None = None
    frame_length: int | None = None


# ---------------------------------------------------------------------------
# OFDM modulation
# ---------------------------------------------------------------------------

def _tone_bins(ofdm: OfdmSpec, oversample: int) -> np.ndarray:
    # tone m occupies the signed FFT bin (m - m0) of the oversampled symbol
    length = ofdm.m_carriers * oversample
    return (np.arange(ofdm.m_carriers) - ofdm.center_tone) % length


def ofdm_modulate(grid: np.ndarray, ofdm: OfdmSpec, oversample: int = 1) -> ComplexSignal:
    """Serialize a (symbols x tones) grid into a cyclic-prefixed frame.

    Tone m rides the complex exponential of signed frequency
    (m - center_tone) subcarrier spacings; the transform is unitary so the
    grid and frame carry equal energy. ``oversample`` multiplies the
    critical sampling rate (the returned ``sample_rate`` equals it).
    """
    _check_oversample(oversample)
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2 or grid.shape[1] != ofdm.m_carriers:
        raise DimensionMismatch(
            f"grid must be (n_symbols, {ofdm.m_carriers}), got {grid.shape}"
        )
    step = (ofdm.m_carriers + ofdm.cp_ratio_num) * oversample
    frame = np.zeros(grid.shape[0] * step, dtype=np.complex128)
    return ComplexSignal(_modulate_into(frame, grid, ofdm, oversample),
                         sample_rate=float(oversample))


def _check_oversample(oversample: int) -> None:
    if oversample < 1:
        raise ValueError("oversample must be at least 1")


def _modulate_into(frame: np.ndarray, grid: np.ndarray, ofdm: OfdmSpec,
                   oversample: int) -> np.ndarray:
    """Write the cyclic-prefixed symbols of ``grid`` into ``frame``, a
    zeroed contiguous array of S (M + cp) q samples, and return it: each
    symbol's tones go to its core slot, one batched in-place inverse FFT
    and scaling make the core, and the prefix is copied from its tail."""
    m, q = ofdm.m_carriers, oversample
    mq, cp = m * q, ofdm.cp_ratio_num * q
    blocks = frame.reshape(grid.shape[0], mq + cp)
    core = blocks[:, cp:]
    core[:, _tone_bins(ofdm, q)] = grid
    np.fft.ifft(core, axis=1, out=core)
    core *= math.sqrt(mq)
    blocks[:, :cp] = core[:, mq - cp:]
    return frame


def ofdm_demodulate(signal: ComplexSignal, ofdm: OfdmSpec, oversample: int = 1) -> np.ndarray:
    """Recover the tone grid from a frame produced by :func:`ofdm_modulate`.

    DFT windows start right after each cyclic prefix, so a circular delay
    of up to the prefix length appears as a pure per-tone phase ramp
    ``exp(-j 2 pi (m - m0) d / M)`` with no inter-carrier interference.
    :func:`_window_starts` places the windows; the OFDM chain's branch side
    takes each branch stream's windows there on plain arrays, and its
    window side takes each tone's window DFT at the same starts inside the
    closed form of :func:`_window_combine` (see :func:`_ofdm_receive`).
    """
    _check_oversample(oversample)
    x = signal.samples
    block = (ofdm.m_carriers + ofdm.cp_ratio_num) * oversample
    if len(x) % block or not len(x):
        raise DimensionMismatch(
            f"frame length {len(x)} is not a positive whole number of {block}-sample blocks"
        )
    n_symbols = len(x) // block
    # a copy: the windows are transformed in place
    return _demodulate(np.array(x, dtype=np.complex128),
                       _window_starts(ofdm, oversample, 0, n_symbols), ofdm, oversample,
                       np.empty((n_symbols, ofdm.m_carriers), dtype=np.complex128))


def _window_starts(ofdm: OfdmSpec, oversample: int, guard: int, n_symbols: int) -> slice:
    """The first sample of each of ``n_symbols`` DFT windows, each at its
    cyclic prefix's end, in a frame after ``guard`` zeros: a slice, so a
    frame's windows are one strided view."""
    q, cp = oversample, ofdm.cp_ratio_num
    step = (ofdm.m_carriers + cp) * q
    return slice(guard + cp * q, guard + cp * q + n_symbols * step, step)


def _demodulate(x: np.ndarray, starts: slice, ofdm: OfdmSpec, oversample: int,
                out: np.ndarray) -> np.ndarray:
    """The tones of the DFT windows at ``starts`` written into ``out``
    (S x M). The windows, one strided view of ``x``, do not overlap and are
    transformed in place, so ``x`` must be an array the caller owns and
    no longer needs."""
    mq = ofdm.m_carriers * oversample
    windows = np.lib.stride_tricks.sliding_window_view(x, mq, writeable=True)[starts]
    np.fft.fft(windows, axis=1, out=windows)
    return np.divide(windows[:, _tone_bins(ofdm, oversample)], math.sqrt(mq), out=out)


# ---------------------------------------------------------------------------
# Shared chain pieces
# ---------------------------------------------------------------------------

def _check_snr(snr_db: float) -> None:
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError("snr_db must be finite or +inf")


def _add_receiver_noise(clean: np.ndarray, cfg: ArrayConfig, spec: SignalSpec,
                        snr_db: float) -> np.ndarray:
    """``clean`` plus the combiner-output noise CN(0, 10^(-snr_db/10) / N)
    per symbol (or per tone and symbol); ``clean`` itself at snr = inf."""
    if np.isinf(snr_db):
        return clean
    variance = 10.0 ** (-snr_db / 10.0) / cfg.n_elements
    return clean + complex_noise(clean.shape, variance, derive_seed(spec.seed, 1))


def _score(ref: np.ndarray, rx_clean: np.ndarray, rx: np.ndarray, snr_db: float):
    """SSIR and EVM of the combiner output, fitted per column (scalars for a
    symbol stream, per-tone arrays for a tone grid), and its constellation:
    the fitted symbols ``c·rx`` next to their references, raveled and
    thinned evenly to at most ``_CONSTELLATION_CAP`` rows."""
    ssir_db = measure_evm(rx_clean, ref).mer_db
    evm_db = -ssir_db if np.isinf(snr_db) else measure_evm(rx, ref).evm_db
    fitted, ref = (_evm_fit(rx, ref) * rx).ravel(), ref.ravel()
    stride = -(-len(ref) // _CONSTELLATION_CAP)  # ceiling: at most the cap
    return ssir_db, evm_db, np.stack([fitted[::stride], ref[::stride]], axis=1)


def _rms_db(values_db: np.ndarray) -> float:
    return 10.0 * math.log10(np.mean(10.0 ** (np.asarray(values_db) / 10.0)))


def _smooth_length(n: int) -> int:
    """The least 7-smooth integer >= n (no prime factor above 7): a length
    numpy's FFT splits into radices 2, 3, 5 and 7 instead of taking its
    slower Bluestein path."""
    best = 1 << (n - 1).bit_length()
    odd7 = 1
    while odd7 < best:
        odd5 = odd7
        while odd5 < best:
            odd = odd5
            while odd < best:  # odd = 3^a 5^b 7^c; take the least odd * 2^k >= n
                best = min(best, odd << (-(-n // odd) - 1).bit_length())
                odd *= 3
            odd5 *= 5
        odd7 *= 7
    return best


# ---------------------------------------------------------------------------
# Single-carrier chain
# ---------------------------------------------------------------------------

def _sc_transmit(spec: SignalSpec, cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """The symbol-rate frame (the symbols between zero guards, trailing
    zeros padding it to a 7-smooth length), the symbols, and the index of
    the first. Upsampled by ``os`` it is the impulse frame the link filters,
    its impulses where the zero-phase RRC cascade peaks; the chain builds
    only the symbol-rate frame and reads the oversampled length."""
    rng = np.random.default_rng(spec.seed)
    indices = rng.integers(0, spec.modulation_order, spec.n_symbols)
    symbols = qam_map(indices, spec.modulation_order).samples
    os = spec.oversample
    guard = int(np.ceil(_delay_spread(cfg, spec, os) / os)) + spec.rrc_span + 4
    # room for half an RRC span (an even symbol count) on either side
    first = guard + spec.rrc_span // 2
    frame = np.zeros(_smooth_length(spec.n_symbols + 2 * guard + spec.rrc_span), np.complex128)
    frame[first:first + spec.n_symbols] = symbols
    return frame, symbols, first


def _sc_folded_response(length: int, cfg: ArrayConfig, spec: SignalSpec) -> np.ndarray:
    """The link's response R^2 H / N on the symbol-rate grid of an
    oversampled frame of ``length`` samples, as real float64.

    R is the spectrum of the zero-phase RRC taps and H the whole array's
    response, both on the oversampled grid; folding sums the ``os``
    aliases of each symbol-rate bin. Its inverse FFT is the symbol-spaced
    samples g_k of the cascade rrc * rrc * h / N, with g_0 the desired tap.

    Exactness: the taps are real and even, so R is the real part of their
    ``rfft``, and H is the real kernel of :func:`array_kernel`; the product
    is formed on the half spectrum, and each of the ``os`` rows of its even
    extension is summed from views of it, in row order, onto zeros (as
    ``full.reshape(os, -1).sum(axis=0)`` would). The result is real and
    even about bin 0 (to the rounding of the fold's sums), so g is real and
    even too.
    """
    os = spec.oversample
    taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, os)
    centre = len(taps) // 2
    rolled = np.zeros(length)  # the taps with their centre at sample 0
    rolled[:len(taps) - centre] = taps[centre:]
    rolled[length - centre:] = taps[:centre]
    rrc = np.fft.rfft(rolled).real
    half = array_kernel(length, cfg, spec, cfg.n_elements)
    half *= np.square(rrc, out=rrc)
    n, top = length // os, len(half)
    folded = np.zeros(n)
    for lo in range(0, length, n):  # row [lo, lo + n) of the even extension
        mid = min(max(top, lo), lo + n)
        folded[:mid - lo] += half[lo:mid]
        folded[mid - lo:] += half[length - mid:length - lo - n:-1]
    folded /= os * cfg.n_elements
    return folded


def _sc_receive(cfg: ArrayConfig, spec: SignalSpec, snr_db: float):
    """Transmitted symbols, then the matched-filter symbol samples of the
    noiseless and of the noisy combiner output (the same array twice at
    snr = inf).

    Shaping, array and matched filter are one filter, R^2 H / N. Only its
    output at the symbol instants is kept, on every ``os``-th sample of
    the upsampled frame ``up``, so the chain runs at the symbol rate: the
    symbol-rate frame times the folded response (:func:`_sc_folded_response`).
    This equals ``ifft(fft(up) R^2 H / N)`` at the instants.
    """
    frame, symbols, first = _sc_transmit(spec, cfg)
    spectrum = np.fft.fft(frame)
    spectrum *= _sc_folded_response(spec.oversample * len(frame), cfg, spec)
    rx_clean = np.fft.ifft(spectrum, out=spectrum)[first:first + spec.n_symbols]
    return symbols, rx_clean, _add_receiver_noise(rx_clean, cfg, spec, snr_db)


def run_single_carrier(cfg: ArrayConfig, spec: SignalSpec, snr_db: float) -> SimReport:
    """Simulate the single-carrier link of an N-element phased receiver.

    Chain: QAM mapping, root-raised-cosine shaping, plane-wave reception
    with progressive delays, phase-shifter alignment, centroid timing and
    the sum over elements, matched filtering and symbol sampling (one
    filter of shaping, array response and matched filter, run at the
    symbol rate), receiver noise per output symbol, then EVM against the
    transmitted symbols. Its one combiner is the phase-shifter sum: the
    IDFT combiners serve OFDM tones.
    """
    _check_snr(snr_db)
    ssir_db, evm_db, constellation = _score(*_sc_receive(cfg, spec, snr_db), snr_db)
    return SimReport(
        overall_evm_db=evm_db,
        overall_ssir_db=ssir_db,
        per_tone=None,
        constellation=constellation,
        analytic=analytic.report(cfg, spec.fractional_bandwidth),
        config={},
    )


# ---------------------------------------------------------------------------
# OFDM chain
# ---------------------------------------------------------------------------

def _ofdm_guard(cfg: ArrayConfig, spec: SignalSpec) -> int:
    # zeros on either side of the frame: the array's delay spread plus margin
    return int(np.ceil(_delay_spread(cfg, spec, spec.oversample))) + 16


def _ofdm_length(spec: SignalSpec, ofdm: OfdmSpec, guard: int, window: bool) -> int:
    """The padded frame length L: the frame between two guards, padded to
    the least 7-smooth length, or for the window side to Mq times the least
    7-smooth count (every tone frequency is then an FFT bin)."""
    q = spec.oversample
    n = ofdm.n_ofdm_symbols * (ofdm.m_carriers + ofdm.cp_ratio_num) * q + 2 * guard
    if not window:
        return _smooth_length(n)
    mq = ofdm.m_carriers * q
    return mq * _smooth_length(-(-n // mq))


def _ofdm_transmit(spec: SignalSpec, ofdm: OfdmSpec, guard: int, length: int):
    """The cyclic-prefixed frame after ``guard`` zeros, padded by trailing
    zeros (at least one guard) to ``length`` (:func:`_ofdm_length`) so its
    FFTs stay fast, and the transmitted grid."""
    rng = np.random.default_rng(spec.seed)
    shape = (ofdm.n_ofdm_symbols, ofdm.m_carriers)
    indices = rng.integers(0, spec.modulation_order, shape)
    grid = qam_map(indices.ravel(), spec.modulation_order).samples.reshape(shape)
    padded = np.zeros(length, np.complex128)
    step = (ofdm.m_carriers + ofdm.cp_ratio_num) * spec.oversample
    _modulate_into(padded[guard:guard + shape[0] * step], grid, ofdm, spec.oversample)
    return padded, grid


def _window_side(cfg: ArrayConfig, ofdm: OfdmSpec, n_sub: int, m_group: int, length: int) -> bool:
    """Whether the chain combines on the DFT-window side, with its frame of
    L = ``length``: only for one tone per group, where it costs less.

    Costs are in units where one branch of the branch side costs L log2 L
    (L of the window-side frame), so that side costs N_r L log2 L beyond
    the work both sides share. Fitted to the timed transmit and combine of
    both sides over 350 runs (N 8 to 1024, M 32 to 256 with prime M, S 1
    to 300, q 4 to 8), the window side costs S L for its S folds,
    3 L log2 L for its transforms and kernels, and about 1e5 (near 0.3 ms)
    for its fixed per-call work, which decides short frames.
    """
    if m_group != 1:
        return False
    branch = length * math.log2(length)
    return ofdm.n_ofdm_symbols * length + 3 * branch + 1e5 < cfg.n_elements // n_sub * branch


def _branch_combine(x: np.ndarray, guard: int, cfg: ArrayConfig, spec: SignalSpec,
                    ofdm: OfdmSpec, n_sub: int, m_group: int) -> np.ndarray:
    """The clean combined grid on the branch side: one full-frame inverse
    FFT and one demodulation per branch, then the tone-domain kernel.

    The run owns two frame-length work buffers: the frame spectrum and one
    branch stream, the buffer that :func:`branch_responses` yields each
    filtered spectrum in (for a single branch, the spectrum itself). Each
    branch stream is transformed in place, its DFT windows too, and
    demodulated straight into its row of the branch grids. ``x`` is only
    read.
    """
    weights = reduced_idft_weights(cfg, spec, ofdm, n_sub, m_group)
    q, shape = spec.oversample, (ofdm.n_ofdm_symbols, ofdm.m_carriers)
    starts = _window_starts(ofdm, q, guard, shape[0])
    grids = np.empty((cfg.n_elements // n_sub,) + shape, dtype=np.complex128)
    streams = branch_responses(x, np.fft.fft(x), cfg, spec, n_sub)
    for r, stream in enumerate(streams):
        np.fft.ifft(stream, out=stream)
        _demodulate(stream, starts, ofdm, q, grids[r])
    return combine_branch_grids(grids, weights, cfg.n_elements)


def _box_response(p: np.ndarray, length: int, width: int) -> np.ndarray:
    """``sum_{n < width} exp(j 2 pi p n / length)`` at integer bins ``p``:
    the response of a forward ``width``-sample box sum on a ``length``
    grid, its linear phase reduced exactly in integers."""
    turns = p * (width - 1)
    turns %= 2 * length
    phase = np.multiply(1j * np.pi, turns, out=np.empty(turns.shape, np.complex128))
    phase /= length
    np.exp(phase, out=phase)
    phase *= _dirichlet(p / length, width)
    return phase


def _window_combine(x: np.ndarray, guard: int, cfg: ArrayConfig, spec: SignalSpec,
                    ofdm: OfdmSpec, n_sub: int) -> np.ndarray:
    """The clean combined grid on the DFT-window side, for one tone per
    group; ``len(x)`` must be a multiple of Mq.

    The weights of tone k undo each branch's delay at the tone frequency
    f_k = kappa_k / Mq, so the combined response of tone k is the
    sub-array kernel times the N_r-branch array kernel centred on f_k,
    ``D_n_sub(f dtau) D_N_r((f - f_k) n_sub dtau)``, times a constant.
    With every f_k an FFT bin, that centred kernel is the array impulse
    response modulated by f_k, and the modulation cancels the window's
    DFT. Symbol s's window starts at a_s, and ``abar`` is the Mq-sample
    box sum of the array impulse response (one ``irfft``). Then
    ``out[s, k] = C_k exp(j 2 pi kappa_k a_s / Mq)
    FFT_Mq(fold_Mq(z abar[(a_s - .) mod L]))[k]``, with z the frame
    filtered by the sub-array kernel and
    ``C_k = exp(j 2 pi kappa_k (N_r - 1)/2 n_sub dtau / Mq) / (N sqrt(Mq))``.
    The branch side's kernel lives on the ``fftfreq`` grid, where
    ``f - f_k`` wraps past Nyquist on the |kappa_k| L / Mq bins nearest
    it; :func:`_nyquist_correction` adds the exact difference there.
    """
    length = len(x)
    m, q = ofdm.m_carriers, spec.oversample
    mq = m * q
    n_r = cfg.n_elements // n_sub
    stride = n_sub * element_delay_samples(cfg, spec, q)
    at = _window_starts(ofdm, q, guard, ofdm.n_ofdm_symbols)
    starts = np.arange(at.start, at.stop, at.step)
    spectrum = np.fft.fft(x)
    if n_sub > 1:
        _times_even(spectrum, array_kernel(length, cfg, spec, n_sub))
    correction = _nyquist_correction(spectrum, starts, ofdm, q, stride, n_r)
    # z: the frame filtered by the sub-array kernel, in the spectrum's buffer;
    # the spectrum is not read past the correction
    z = np.fft.ifft(spectrum, out=spectrum) if n_sub > 1 else x
    del spectrum
    kappa = np.arange(m) - ofdm.center_tone
    grid = _window_dfts(z, at, len(starts), mq, stride, n_r)[:, kappa % mq]
    grid += correction / length
    const = np.exp(1j * np.pi * kappa * (n_r - 1) * stride / mq) / (cfg.n_elements * math.sqrt(mq))
    return grid * const * np.exp(2j * np.pi * (np.outer(starts, kappa) % mq) / mq)


def _window_dfts(z: np.ndarray, at: slice, n_symbols: int, mq: int, stride: float,
                 n_r: int) -> np.ndarray:
    """``FFT_Mq(fold_Mq(z abar[(a_s - .) mod L]))`` for the windows at
    ``at`` (see :func:`_window_combine`), (S x Mq); the kernel, its doubled
    reversal and the real and imaginary parts of ``z`` live only here."""
    length = len(z)
    # row L - a_s of the doubled reversal holds abar[(a_s - u) mod L] over u;
    # the starts step evenly, so the S windows are one strided view
    rows = np.lib.stride_tricks.sliding_window_view(_doubled_reversal(length, mq, stride, n_r),
                                                    length)
    windows = rows[length - at.start::-at.step][:n_symbols].reshape(n_symbols, -1, mq)
    part = np.empty((length // mq, mq))  # z.imag, then z.real, contiguous
    np.copyto(part, z.imag.reshape(-1, mq))
    sums = np.einsum("sjm,jm->sm", windows, part)
    folds = np.multiply(1j, sums)
    np.copyto(part, z.real.reshape(-1, mq))
    folds += np.einsum("sjm,jm->sm", windows, part, out=sums)
    return np.fft.fft(folds, axis=1, out=folds)


def _doubled_reversal(length: int, mq: int, stride: float, n_r: int) -> np.ndarray:
    """``abar[(-u) mod L]`` twice over, u < 2L: ``abar`` is the Mq-sample
    box sum of the N_r-branch array impulse response (one ``irfft``)."""
    p = np.arange(length // 2 + 1)
    scaled = p * stride
    scaled /= length
    kernel = _box_response(p, length, mq)
    kernel *= _dirichlet(scaled, n_r)
    abar = np.fft.irfft(kernel, length)
    doubled = np.empty(2 * length)
    doubled[0] = abar[0]
    doubled[1:length + 1] = abar[::-1]
    doubled[length + 1:] = doubled[1:length]
    return doubled


def _nyquist_correction(spectrum: np.ndarray, starts: np.ndarray, ofdm: OfdmSpec, q: int,
                        stride: float, n_r: int) -> np.ndarray:
    """L times what the wrapped bins add to the window side's grid, before
    its constant and window phase (see :func:`_window_combine`).

    Tone k's wrapped bins are the |kappa_k| J nearest Nyquist (J = L / Mq):
    the lowest for kappa_k > 0, the highest for kappa_k < 0. On side sigma
    write bin ``p = e + sigma (b J + r)`` (e the extreme ``fftfreq`` bin,
    block b, 0 <= r < J). Then ``p - kappa_k J = e + sigma (r - c J)``
    with ``c = |kappa_k| - b``, so the kernel difference, the box response
    of the window and the window phase depend on (c, r) alone, up to the
    factor ``exp(-j 2 pi sigma c s cp / M)`` of symbol s. Each side is
    therefore a convolution over blocks: one length-M FFT over the block
    index of the spectrum and of the kernel, a circular shift of the
    kernel by ``s cp`` per symbol, a contraction over r, and one length-M
    IFFT per symbol.
    """
    length = len(spectrum)
    m, cp = ofdm.m_carriers, ofdm.cp_ratio_num
    mq = m * q
    r = np.arange(length // mq)
    out = np.zeros((len(starts), m), dtype=np.complex128)
    for sign, edge, n_tones in ((1, -(length // 2), m - 1 - ofdm.center_tone),
                                (-1, (length - 1) // 2, ofdm.center_tone)):
        blocks = np.arange(1, n_tones + 1)[:, None]
        wrapped = edge + sign * (r - blocks * len(r))  # p - kappa_k J, not reduced
        kernel = np.zeros((m, len(r)), dtype=np.complex128)
        kernel[1:n_tones + 1] = (
            (_dirichlet(wrapped * stride / length, n_r)
             - _dirichlet((wrapped + sign * length) * stride / length, n_r))
            * _box_response(wrapped, length, mq)
            * np.exp(-2j * np.pi * (sign * blocks * starts[0] % mq) / mq)
        )
        bins = np.zeros((m, len(r)), dtype=np.complex128)
        bins[:n_tones] = spectrum[(edge + sign * ((blocks - 1) * len(r) + r)) % length]
        bins = np.fft.fft(bins, axis=0)
        kernel = np.fft.fft(kernel, axis=0)
        kernel = np.concatenate([kernel, kernel])  # rows o .. o + M: shifted by o
        twiddle = np.exp(2j * np.pi * (np.outer(starts, edge + sign * r) % length) / length)
        conv = np.empty((len(starts), m), dtype=np.complex128)
        for s, phases in enumerate(twiddle):
            shift = sign * s * cp % m
            conv[s] = (bins * phases * kernel[shift:shift + m]).sum(axis=1)
        tones = ofdm.center_tone + sign * np.arange(1, n_tones + 1)
        out[:, tones] = np.fft.ifft(conv, axis=1)[:, 1:n_tones + 1]
    return out


def _ofdm_receive(cfg: ArrayConfig, spec: SignalSpec, ofdm: OfdmSpec, snr_db: float,
                  combiner: CombinerSpec):
    """Transmitted grid, then the combined tone grid without and with
    receiver noise (the same array twice at snr = inf), and what the chain
    did: the combining side (``"window"`` or ``"branch"``) and the frame
    length L.

    The guard is sized once, then L for the window side; the chain
    combines there (:func:`_window_combine`) if :func:`_window_side` says
    it is cheaper, and otherwise on the branch side
    (:func:`_branch_combine`) with the least 7-smooth L.
    """
    n_sub, m_group = combiner.resolve_sizing(cfg, ofdm, spec.fractional_bandwidth)
    _check_divisible(cfg, ofdm, n_sub, m_group)
    guard = _ofdm_guard(cfg, spec)
    length = _ofdm_length(spec, ofdm, guard, True)
    window = _window_side(cfg, ofdm, n_sub, m_group, length)
    length = length if window else _ofdm_length(spec, ofdm, guard, False)
    x, ref_grid = _ofdm_transmit(spec, ofdm, guard, length)
    if window:
        rx_clean = _window_combine(x, guard, cfg, spec, ofdm, n_sub)
    else:
        rx_clean = _branch_combine(x, guard, cfg, spec, ofdm, n_sub, m_group)
    noisy = _add_receiver_noise(rx_clean, cfg, spec, snr_db)
    return ref_grid, rx_clean, noisy, ("window" if window else "branch", length)


def run_ofdm(
    cfg: ArrayConfig,
    spec: SignalSpec,
    ofdm: OfdmSpec,
    snr_db: float,
    combiner: CombinerSpec = CombinerSpec.phase_shifter_sum(),
) -> SimReport:
    """Simulate the OFDM link with the selected spatial combiner.

    Chain: per-tone QAM grid, oversampled inverse transform with cyclic
    prefix, plane-wave reception, phase alignment and centroid timing (one
    response per combiner branch), prefix-stripped DFT windows on each
    branch, the combiner's weights per tone group (for one tone per group,
    where cheaper, combined exactly on the DFT-window side instead; see
    :func:`_ofdm_receive`), receiver noise at the combiner output, then
    per-tone EVM against the transmitted grid. The
    overall figure is the RMS across all tones and symbols; SSIR is that of
    the noiseless output.
    """
    _check_snr(snr_db)
    ref_grid, rx_clean, rx, (side, length) = _ofdm_receive(cfg, spec, ofdm, snr_db, combiner)
    ssir_tones, evm_tones, constellation = _score(ref_grid, rx_clean, rx, snr_db)
    per_tone = [
        ToneMetrics(m, float(evm_tones[m]), float(ssir_tones[m]))
        for m in range(ofdm.m_carriers)
    ]
    return SimReport(
        overall_evm_db=float(_rms_db(evm_tones)),
        overall_ssir_db=float(-_rms_db(-ssir_tones)),
        per_tone=per_tone,
        constellation=constellation,
        analytic=analytic.report(cfg, spec.fractional_bandwidth, ofdm.m_carriers),
        config={},
        combining=side,
        frame_length=length,
    )
