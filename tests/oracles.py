"""Reference implementations the tests compare the package against.

The link chains never call these. They are the time-domain combiners
(which the tone-domain kernel ``combine_branch_grids`` must reproduce),
the unitary DFT pair, the single-carrier link on its oversampled grid
(which the symbol-rate chain must reproduce), the branch responses on
the full FFT grid (which the half-spectrum kernel must reproduce) and the
direct phasor sum with the half-power crossing bisected on it (which the
closed-form space factor and coherent bandwidth must reproduce). The
references take the chains' own frames: :func:`sc_impulses` upsamples the
single-carrier frame, and :func:`ofdm_frame` builds the OFDM frame of
either combining side by the chain's layout.

Three references keep the plain, allocating form of a step the package now
computes in place or on half-spectrum views, with the same arithmetic in
the same order, so the package must match them bit for bit: the Dirichlet
kernel (:func:`dirichlet`), the cyclic-prefixed OFDM frame
(:func:`cp_frame`) and the folded single-carrier response
(:func:`sc_folded_response`).
"""

import math

import numpy as np

from squintsim import ComplexSignal, ElementStreams, OfdmSpec
from squintsim.combine import full_idft_weights, reduced_idft_weights
from squintsim.dsp import _as_samples, rrc_taps
from squintsim.errors import IndivisibleSizing
from squintsim.txrx import _ofdm_guard, _ofdm_length, _ofdm_transmit, _sc_transmit
from squintsim.wavefront import _dirichlet, array_kernel, element_delay_samples


def dft(signal: ComplexSignal) -> ComplexSignal:
    """Unitary DFT of the sample stream."""
    x = _as_samples(signal)
    rate = signal.sample_rate if isinstance(signal, ComplexSignal) else 1.0
    return ComplexSignal(np.fft.fft(x) / np.sqrt(len(x)), sample_rate=rate)


def idft(spectrum: ComplexSignal) -> ComplexSignal:
    """Unitary inverse DFT; ``idft(dft(x))`` returns x to within 1e-10."""
    x = _as_samples(spectrum)
    rate = spectrum.sample_rate if isinstance(spectrum, ComplexSignal) else 1.0
    return ComplexSignal(np.fft.ifft(x) * np.sqrt(len(x)), sample_rate=rate)


def phase_sum(streams: ElementStreams) -> ComplexSignal:
    """Elementwise sum over the array divided by N, so a coherent
    narrowband broadside signal combines with unit gain."""
    return ComplexSignal(streams.streams.mean(axis=0), sample_rate=streams.sample_rate)


def full_idft_combine(streams: ElementStreams, ofdm: OfdmSpec) -> list[ComplexSignal]:
    """Produce the M output streams of the full combiner.

    Output m is meaningful only at tone m; the OFDM demodulator keeps just
    that tone from each stream. Row m0 has all-ones weights and equals the
    plain phase-shifter sum.
    """
    w = full_idft_weights(streams.cfg, streams.spec, ofdm)
    out = w @ streams.streams / streams.n_elements
    return [ComplexSignal(row, sample_rate=streams.sample_rate) for row in out]


def presum_subarrays(streams: ElementStreams, n_sub: int) -> np.ndarray:
    """Stage one of the reduced combiner: sum contiguous blocks of
    ``n_sub`` elements into N_r branch streams (no normalization)."""
    if streams.n_elements % n_sub:
        raise IndivisibleSizing(f"n_sub = {n_sub} must divide N = {streams.n_elements}")
    n_r = streams.n_elements // n_sub
    return streams.streams.reshape(n_r, n_sub, -1).sum(axis=1)


def reduced_idft_combine(
    streams: ElementStreams, ofdm: OfdmSpec, n_sub: int, m_group: int
) -> tuple[list[ComplexSignal], list[range]]:
    """Two-stage reduced combiner.

    Returns the M_r output streams and the contiguous tone ranges each one
    demodulates. Degenerate sizings recover the other combiners exactly:
    (n_sub=N, m_group=M) is the phase-shifter sum, (1, 1) the full IDFT.
    """
    w = reduced_idft_weights(streams.cfg, streams.spec, ofdm, n_sub, m_group)
    branches = presum_subarrays(streams, n_sub)
    out = w @ branches / streams.n_elements
    groups = [range(g * m_group, (g + 1) * m_group) for g in range(out.shape[0])]
    return (
        [ComplexSignal(row, sample_rate=streams.sample_rate) for row in out],
        groups,
    )


def sc_impulses(spec, cfg) -> tuple[ComplexSignal, slice]:
    """The single-carrier chain's symbol-rate frame upsampled to its
    oversampled impulse frame (each symbol on every ``os``-th sample), and
    the slice of its symbol instants."""
    frame, _, first = _sc_transmit(spec, cfg)
    os = spec.oversample
    up = np.zeros(os * len(frame), dtype=complex)
    up[::os] = frame
    return ComplexSignal(up, float(os)), slice(first * os, (first + spec.n_symbols) * os, os)


def ofdm_frame(spec, ofdm, cfg, window) -> tuple[ComplexSignal, np.ndarray, int]:
    """The frame the OFDM chain transmits when it combines on the window
    side (``window``) or on the branch side, the transmitted grid and the
    leading guard."""
    guard = _ofdm_guard(cfg, spec)
    x, grid = _ofdm_transmit(spec, ofdm, guard, _ofdm_length(spec, ofdm, guard, window))
    return ComplexSignal(x, float(spec.oversample)), grid, guard


def sc_oversampled_clean(cfg, spec) -> np.ndarray:
    """The clean single-carrier output as one oversampled spectrum product:
    the impulse frame times R^2 H / N, read at the symbol instants."""
    tx, instants = sc_impulses(spec, cfg)
    taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, spec.oversample)
    padded = np.zeros(len(tx))
    padded[:len(taps)] = taps
    rrc = np.fft.fft(np.roll(padded, -(len(taps) // 2)))
    array = full_grid_branch_responses(tx, cfg, spec, cfg.n_elements)[0]
    spectrum = np.fft.fft(tx.samples) * rrc**2 * array
    return np.fft.ifft(spectrum)[instants] / cfg.n_elements


def full_grid_branch_responses(tx, cfg, spec, n_sub) -> list[np.ndarray]:
    """Every branch response with its Dirichlet kernel evaluated on the
    full ``fftfreq`` grid, negative bins included, not on the half
    spectrum."""
    x = np.fft.fftfreq(len(tx)) * element_delay_samples(cfg, spec, tx.sample_rate)
    kernel = _dirichlet(x, n_sub)
    n_r = cfg.n_elements // n_sub
    if n_r == 1:
        return [kernel]
    response = np.exp(1j * np.pi * (n_r - 1) * n_sub * x)
    if n_sub > 1:
        response *= kernel
    stride = np.exp(-2j * np.pi * n_sub * x)
    responses = []
    for _ in range(n_r):
        responses.append(response)
        response = response * stride
    return responses


def dirichlet(x, n: int):
    """The kernel ``sin(pi n x) / sin(pi x)`` with a fresh array per step:
    ``u = x - rint(x)``, exactly n at the poles, the sign ``(-1)^(k (n - 1))``
    for even n."""
    if n == 1:
        return np.ones_like(x)
    k = np.rint(x)
    u = x - k
    den = np.sin(np.pi * u)
    amp = np.full_like(u, float(n))
    np.divide(np.sin(np.pi * n * u), den, out=amp, where=den != 0.0)
    if n % 2 == 0:
        amp[(k.astype(np.int64) & 1) == 1] *= -1.0
    return amp


def cp_frame(grid: np.ndarray, ofdm: OfdmSpec, q: int) -> np.ndarray:
    """The cyclic-prefixed frame of ``grid`` built from a zero spectrum grid,
    its inverse FFT and a concatenation of prefix and core."""
    m = ofdm.m_carriers
    spec = np.zeros((grid.shape[0], m * q), dtype=np.complex128)
    spec[:, (np.arange(m) - ofdm.center_tone) % (m * q)] = grid
    core = np.fft.ifft(spec, axis=1) * math.sqrt(m * q)
    cp = core[:, m * q - ofdm.cp_ratio_num * q:]
    return np.concatenate([cp, core], axis=1).ravel()


def sc_folded_response(length: int, cfg, spec) -> np.ndarray:
    """R^2 H / N folded onto the symbol-rate grid from the full even
    extension of its half spectrum, with the taps rolled by ``np.roll``."""
    os = spec.oversample
    taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, os)
    padded = np.zeros(length)
    padded[:len(taps)] = taps
    rrc = np.fft.rfft(np.roll(padded, -(len(taps) // 2))).real
    half = rrc**2 * array_kernel(length, cfg, spec, cfg.n_elements)
    full = np.concatenate([half, half[1:(length + 1) // 2][::-1]])  # full[k] = half[min(k, L - k)]
    return full.reshape(os, -1).sum(axis=0) / (os * cfg.n_elements)


def space_factor_direct(cfg, theta: float, f_ratio: float) -> float:
    """Normalized array response magnitude as the direct N-term phasor sum."""
    n = np.arange(cfg.n_elements)
    u = cfg.spacing_ratio * (f_ratio * math.sin(theta) - cfg.sin_steer)  # turns per element
    return abs(np.sum(np.exp(2j * np.pi * n * u))) / cfg.n_elements


def coherent_bandwidth_numeric(cfg) -> float:
    """Fractional 3 dB bandwidth at the steer angle, bisected on the direct
    phasor sum: |SF| falls monotonically from 1 to 0 across the main lobe,
    whose edge (first null) sits at the offset 1 / (N (d/lambda)
    |sin(theta0)|). Needs N >= 2 and a steer off broadside."""
    x_null = 1.0 / (cfg.n_elements * cfg.spacing_ratio * abs(cfg.sin_steer))
    target = 1.0 / np.sqrt(2.0)
    lo, hi = 0.0, x_null
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if space_factor_direct(cfg, cfg.steer_angle, 1.0 + mid) > target:
            lo = mid
        else:
            hi = mid
    return lo + hi  # bandwidth is twice the one-sided offset
