"""End-to-end receive chains: single-carrier QAM and OFDM.

Both chains share the receiver conventions:

* ``snr_db`` is the per-channel symbol-level (in-band) SNR against the
  unit symbol power, so a single element receives with EVM = -snr_db and
  an N-element broadside array with EVM = -(snr_db + 10 log10 N).
* Symbol timing locks to the centroid of the array's systematic delay
  spread (what a synchronizer tracking the combined signal converges to);
  OFDM DFT windows then sit at the conventional cyclic-prefix end.
* The self-interference ratio (SSIR) of a run is the modulation error
  ratio of the noiseless combiner output.

The array up to the combiner is linear and time-invariant, so each chain
multiplies the spectrum of its frame by one response per combiner branch
(:func:`squintsim.wavefront.branch_responses`, in closed form). The
single-carrier chain folds its pulse shaping and matched filter into the
same product and, since it only reads the output at the symbol instants,
runs at the symbol rate: the oversampled response folded onto the
symbol-rate grid (its aliases summed) filters the symbol impulses. Receiver
noise is drawn once, at the combiner output. The element noise is white
and i.i.d., the delays are unitary, the weights have unit modulus and the
matched filter has unit energy, so every combiner's output noise is
exactly CN(0, 10^(-snr_db/10) / N) per symbol (single carrier) or per tone
and symbol (OFDM).

Runs are pure functions of (configs, seed); sweep points may execute
concurrently when every point derives its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analytic
from .analytic import AnalyticReport, ArrayConfig
from .combine import (
    PHASE_SUM,
    CombinerSpec,
    combine_branch_grids,
    reduced_idft_weights,
)
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
from .errors import CombinerRequiresOfdm, DimensionMismatch
from .ofdm_spec import OfdmSpec
from .wavefront import branch_responses, element_delay_samples

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
    """

    overall_evm_db: float
    overall_ssir_db: float
    per_tone: list[ToneMetrics] | None
    constellation: np.ndarray
    analytic: AnalyticReport
    config: dict = field(default_factory=dict)


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
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2 or grid.shape[1] != ofdm.m_carriers:
        raise DimensionMismatch(
            f"grid must be (n_symbols, {ofdm.m_carriers}), got {grid.shape}"
        )
    m, q = ofdm.m_carriers, oversample
    spec = np.zeros((grid.shape[0], m * q), dtype=np.complex128)
    spec[:, _tone_bins(ofdm, q)] = grid
    core = np.fft.ifft(spec, axis=1) * math.sqrt(m * q)
    cp = core[:, m * q - ofdm.cp_ratio_num * q:]
    blocks = np.concatenate([cp, core], axis=1)
    return ComplexSignal(blocks.ravel(), sample_rate=float(q))


def ofdm_demodulate(signal: ComplexSignal, ofdm: OfdmSpec, oversample: int = 1) -> np.ndarray:
    """Recover the tone grid from a frame produced by :func:`ofdm_modulate`.

    DFT windows start right after each cyclic prefix, so a circular delay
    of up to the prefix length appears as a pure per-tone phase ramp
    ``exp(-j 2 pi (m - m0) d / M)`` with no inter-carrier interference.
    """
    x = signal.samples
    m, q = ofdm.m_carriers, oversample
    block = (m + ofdm.cp_ratio_num) * q
    if len(x) % block:
        raise DimensionMismatch(
            f"frame length {len(x)} is not a whole number of {block}-sample blocks"
        )
    blocks = x.reshape(-1, block)
    cores = blocks[:, ofdm.cp_ratio_num * q:]
    return np.fft.fft(cores, axis=1)[:, _tone_bins(ofdm, q)] / math.sqrt(m * q)


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

def _sc_transmit(spec: SignalSpec, cfg: ArrayConfig) -> tuple[ComplexSignal, np.ndarray, slice]:
    """Symbol impulses on a zero-guarded grid, the symbols, and the slice of
    the impulse instants (where the zero-phase RRC cascade peaks). Trailing
    zeros pad the grid to ``os`` times a 7-smooth symbol count, so the FFTs
    of the grid and of its symbol-rate subsampling ``[::os]``, which holds
    every impulse, stay fast."""
    rng = np.random.default_rng(spec.seed)
    indices = rng.integers(0, spec.modulation_order, spec.n_symbols)
    symbols = qam_map(indices, spec.modulation_order).samples
    os = spec.oversample
    spread = (cfg.n_elements - 1) * abs(element_delay_samples(cfg, spec, os))
    guard_syms = int(np.ceil(spread / os)) + spec.rrc_span + 4
    # room for half an RRC span (an even symbol count) on either side
    first = guard_syms * os + spec.rrc_span * os // 2
    instants = slice(first, first + spec.n_symbols * os, os)
    n_grid = spec.n_symbols + 2 * guard_syms + spec.rrc_span
    up = np.zeros(os * _smooth_length(n_grid), dtype=np.complex128)
    up[instants] = symbols
    return ComplexSignal(up, sample_rate=float(os)), symbols, instants


def _sc_folded_response(tx: ComplexSignal, cfg: ArrayConfig, spec: SignalSpec) -> np.ndarray:
    """The link's response R^2 H / N on the symbol-rate grid of ``tx``.

    R is the spectrum of the zero-phase RRC taps and H the whole array's
    response, both on the oversampled grid; folding sums the ``os``
    aliases of each symbol-rate bin. Its inverse FFT is the symbol-spaced
    samples g_k of the cascade rrc * rrc * h / N, with g_0 the desired tap.
    """
    os = spec.oversample
    taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, os)
    padded = np.zeros(len(tx))
    padded[:len(taps)] = taps
    rrc = np.fft.fft(np.roll(padded, -(len(taps) // 2)))
    array = next(branch_responses(tx, cfg, spec, cfg.n_elements))
    return (rrc**2 * array).reshape(os, -1).sum(axis=0) / (os * cfg.n_elements)


def _sc_receive(cfg: ArrayConfig, spec: SignalSpec, snr_db: float):
    """Transmitted symbols, then the matched-filter symbol samples of the
    noiseless and of the noisy combiner output (the same array twice at
    snr = inf).

    Shaping, array and matched filter are one filter, R^2 H / N. Only its
    output at the symbol instants is kept, and the impulses sit on every
    ``os``-th sample, so the chain runs at the symbol rate: the symbol-rate
    impulses times the folded response (:func:`_sc_folded_response`).
    This equals the oversampled product ``ifft(fft(tx) R^2 H / N)`` at the
    instants.
    """
    tx, symbols, instants = _sc_transmit(spec, cfg)
    os = spec.oversample
    spectrum = np.fft.fft(tx.samples[::os]) * _sc_folded_response(tx, cfg, spec)
    start = instants.start // os
    rx_clean = np.fft.ifft(spectrum)[start:start + spec.n_symbols]
    return symbols, rx_clean, _add_receiver_noise(rx_clean, cfg, spec, snr_db)


def run_single_carrier(
    cfg: ArrayConfig,
    spec: SignalSpec,
    snr_db: float,
    combiner: CombinerSpec = CombinerSpec.phase_shifter_sum(),
) -> SimReport:
    """Simulate the single-carrier link of an N-element phased receiver.

    Chain: QAM mapping, root-raised-cosine shaping, plane-wave reception
    with progressive delays, phase-shifter alignment, centroid timing and
    the sum over elements, matched filtering and symbol sampling (one
    filter of shaping, array response and matched filter, run at the
    symbol rate), receiver noise per output symbol, then EVM against the
    transmitted symbols.
    """
    if combiner.kind != PHASE_SUM:
        raise CombinerRequiresOfdm("IDFT combining requires the OFDM chain")
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

def _ofdm_transmit(spec: SignalSpec, ofdm: OfdmSpec, cfg: ArrayConfig):
    """The cyclic-prefixed frame between zero guards, the transmitted grid,
    and the leading guard length. The trailing zeros, at least one guard,
    pad the frame to a 7-smooth length, so its FFTs stay fast."""
    rng = np.random.default_rng(spec.seed)
    shape = (ofdm.n_ofdm_symbols, ofdm.m_carriers)
    indices = rng.integers(0, spec.modulation_order, shape)
    grid = qam_map(indices.ravel(), spec.modulation_order).samples.reshape(shape)
    q = spec.oversample
    frame = ofdm_modulate(grid, ofdm, q).samples
    spread = (cfg.n_elements - 1) * abs(element_delay_samples(cfg, spec, q))
    guard = int(np.ceil(spread)) + 16
    padded = np.zeros(_smooth_length(len(frame) + 2 * guard), np.complex128)
    padded[guard:guard + len(frame)] = frame
    return ComplexSignal(padded, sample_rate=float(q)), grid, guard


def _ofdm_receive(cfg: ArrayConfig, spec: SignalSpec, ofdm: OfdmSpec, snr_db: float,
                  combiner: CombinerSpec):
    """Transmitted grid, then the combined tone grid without and with
    receiver noise (the same array twice at snr = inf)."""
    tx, ref_grid, guard = _ofdm_transmit(spec, ofdm, cfg)
    n_sub, m_group = combiner.resolve_sizing(cfg, ofdm, spec.fractional_bandwidth)
    weights = reduced_idft_weights(cfg, spec, ofdm, n_sub, m_group)
    q = spec.oversample
    frame = slice(guard, guard + ofdm.n_ofdm_symbols * (ofdm.m_carriers + ofdm.cp_ratio_num) * q)
    grids = np.empty((cfg.n_elements // n_sub,) + ref_grid.shape, dtype=np.complex128)
    spectrum = np.fft.fft(tx.samples)
    for r, response in enumerate(branch_responses(tx, cfg, spec, n_sub)):
        stream = np.fft.ifft(spectrum * response)[frame]
        grids[r] = ofdm_demodulate(ComplexSignal(stream, float(q)), ofdm, q)
    rx_clean = combine_branch_grids(grids, weights, cfg.n_elements)
    return ref_grid, rx_clean, _add_receiver_noise(rx_clean, cfg, spec, snr_db)


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
    branch, the combiner's weights per tone group, receiver noise at the
    combiner output, then per-tone EVM against the transmitted grid. The
    overall figure is the RMS across all tones and symbols; SSIR is that of
    the noiseless output.
    """
    _check_snr(snr_db)
    ssir_tones, evm_tones, constellation = _score(
        *_ofdm_receive(cfg, spec, ofdm, snr_db, combiner), snr_db
    )
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
    )
