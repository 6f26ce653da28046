"""Complex-baseband DSP primitives.

Signals are complex128 sample streams wrapped in :class:`ComplexSignal`,
which carries the number of samples per symbol period alongside the data.
All functions are pure; random operations take an explicit seed and never
touch global RNG state, so concurrent callers only need distinct seeds
(use :func:`derive_seed` to mix a base seed with point indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DelayTooLarge,
    InvalidOrder,
    IndexOutOfRange,
    LengthMismatch,
    ZeroReference,
    ZeroSignal,
)

EVM_FLOOR_DB = -120.0

_QAM_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class SignalSpec:
    """Modulation and pulse-shaping parameters of a simulated signal.

    ``fractional_bandwidth`` is the symbol rate as a fraction of the
    carrier frequency (the symbol period spans 1/fractional_bandwidth
    carrier cycles). ``oversample`` also sets the OFDM simulation rate,
    where it multiplies the critical (one sample per subcarrier interval)
    rate; at least 4 so per-element fractional delays stay well resolved.
    """

    fractional_bandwidth: float
    n_symbols: int = 10_000
    modulation_order: int = 16
    rrc_rolloff: float = 0.25
    rrc_span: int = 16
    oversample: int = 8
    seed: int = 0

    def __post_init__(self):
        numeric = (self.fractional_bandwidth, self.n_symbols, self.rrc_rolloff,
                   self.rrc_span, self.oversample)
        if not all(math.isfinite(v) for v in numeric):
            raise ValueError("signal parameters must be finite")
        if not 0.0 < self.fractional_bandwidth < 1.0:
            raise ValueError("fractional_bandwidth must lie in (0, 1)")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be positive")
        if self.modulation_order not in _QAM_ORDERS:
            raise InvalidOrder(f"modulation_order must be one of {_QAM_ORDERS}")
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError("rrc_rolloff must lie in (0, 1]")
        if self.rrc_span < 2 or self.rrc_span % 2:
            raise ValueError("rrc_span must be a positive even symbol count")
        if self.oversample < 4:
            raise ValueError("oversample must be at least 4")


@dataclass(eq=False)
class ComplexSignal:
    """A sampled complex-baseband signal.

    Parameters
    ----------
    samples : ndarray
        Complex sample stream.
    sample_rate : float
        Samples per symbol period (the oversampling factor of the stream
        relative to the modulation symbol rate).
    """

    samples: np.ndarray
    sample_rate: float = 1.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples.view(np.float64))):
            raise ValueError("signal contains NaN or Inf")

    def __len__(self):
        return len(self.samples)

    @property
    def power(self) -> float:
        """Mean per-sample power."""
        return float(np.mean(np.abs(self.samples) ** 2))


def _as_samples(signal) -> np.ndarray:
    if isinstance(signal, ComplexSignal):
        return signal.samples
    return np.asarray(signal, dtype=np.complex128)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Mix a base seed with point indices into a fresh 64-bit seed.

    Deterministic and platform-stable, so sweep cells can run in any order
    (or concurrently) and still reproduce byte-identical results.
    """
    ss = np.random.SeedSequence((int(base_seed),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

def _gray_encode(n: np.ndarray) -> np.ndarray:
    return n ^ (n >> 1)


def _gray_decode(g: np.ndarray) -> np.ndarray:
    out = g.copy()
    mask = out >> 1
    while mask.any():
        out ^= mask
        mask >>= 1
    return out


def constellation(order: int) -> np.ndarray:
    """Gray-mapped square QAM constellation, unit average power.

    Index layout: the high half of the index bits select the I level, the
    low half the Q level, each through a binary-reflected Gray code so that
    adjacent levels differ in one bit.
    """
    if order not in _QAM_ORDERS:
        raise InvalidOrder(f"order must be one of {_QAM_ORDERS}, got {order}")
    side = int(np.sqrt(order))
    bits_per_axis = side.bit_length() - 1
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))
    idx = np.arange(order)
    bi = idx >> bits_per_axis
    bq = idx & (side - 1)
    li = _gray_decode(bi)
    lq = _gray_decode(bq)
    return ((2 * li - (side - 1)) + 1j * (2 * lq - (side - 1))) * scale


def qam_map(symbol_indices, order: int) -> ComplexSignal:
    """Map integer indices onto the unit-power Gray QAM constellation."""
    points = constellation(order)
    idx = np.asarray(symbol_indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= order):
        raise IndexOutOfRange(f"indices must lie in [0, {order})")
    return ComplexSignal(points[idx], sample_rate=1.0)


def qam_demap(signal, order: int) -> np.ndarray:
    """Nearest-neighbour hard decisions back to symbol indices.

    Ties at level midpoints resolve by round-half-to-even on the level
    index (numpy rounding), so an all-zero input decodes deterministically.
    """
    if order not in _QAM_ORDERS:
        raise InvalidOrder(f"order must be one of {_QAM_ORDERS}, got {order}")
    x = _as_samples(signal)
    side = int(np.sqrt(order))
    bits_per_axis = side.bit_length() - 1
    scale = np.sqrt(3.0 / (2.0 * (order - 1)))

    def axis_levels(vals):
        lv = np.round((vals / scale + (side - 1)) / 2.0)
        return np.clip(lv, 0, side - 1).astype(np.int64)

    li = axis_levels(x.real)
    lq = axis_levels(x.imag)
    return (_gray_encode(li) << bits_per_axis) | _gray_encode(lq)


# ---------------------------------------------------------------------------
# Pulse shaping
# ---------------------------------------------------------------------------

def rrc_taps(rolloff: float, span: int, oversample: int) -> np.ndarray:
    """Root-raised-cosine filter taps, normalized to unit energy.

    Parameters
    ----------
    rolloff : float
        Excess-bandwidth factor in (0, 1].
    span : int
        Filter length in symbol periods (even); the filter covers
        ``span * oversample + 1`` taps centred on t = 0.
    oversample : int
        Samples per symbol period.

    The two removable singularities (t = 0 and t = 1/(4*rolloff)) use their
    analytic limits. Cascading two of these filters gives a Nyquist pulse,
    so symbol-spaced samples of the cascade vanish at nonzero offsets up to
    truncation error.
    """
    if not 0.0 < rolloff <= 1.0:
        raise ValueError("rolloff must lie in (0, 1]")
    b = float(rolloff)
    t = np.arange(-span * oversample // 2, span * oversample // 2 + 1) / oversample
    h = np.empty(t.shape)
    near0 = np.abs(t) < 1e-10
    sing = np.abs(np.abs(t) - 1.0 / (4.0 * b)) < 1e-10
    reg = ~(near0 | sing)
    tr = t[reg]
    h[near0] = 1.0 - b + 4.0 * b / np.pi
    h[sing] = (b / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * b))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * b))
    )
    h[reg] = (
        np.sin(np.pi * tr * (1.0 - b)) + 4.0 * b * tr * np.cos(np.pi * tr * (1.0 + b))
    ) / (np.pi * tr * (1.0 - (4.0 * b * tr) ** 2))
    return h / np.sqrt(np.sum(h**2))


# ---------------------------------------------------------------------------
# Delay
# ---------------------------------------------------------------------------

def _delay_ramp(length: int, delay: float) -> np.ndarray:
    return np.exp(-2j * np.pi * np.fft.fftfreq(length) * delay)


def _fractional_delay_array(x: np.ndarray, delay: float) -> np.ndarray:
    return np.fft.ifft(np.fft.fft(x) * _delay_ramp(len(x), delay))


def fractional_delay(signal: ComplexSignal, delay: float) -> ComplexSignal:
    """Circularly delay a signal by a (possibly fractional) sample count.

    Applies a linear phase ramp across the spectrum, so integer delays are
    exact circular shifts and delays compose additively. The delay is
    circular: callers must pad with zero guards so wrap-around never reaches
    payload samples.
    """
    x = _as_samples(signal)
    if abs(delay) >= len(x) / 4:
        raise DelayTooLarge(f"|delay| = {abs(delay)} exceeds length/4 = {len(x) / 4}")
    rate = signal.sample_rate if isinstance(signal, ComplexSignal) else 1.0
    return ComplexSignal(_fractional_delay_array(x, delay), sample_rate=rate)


# ---------------------------------------------------------------------------
# Channel noise
# ---------------------------------------------------------------------------

def complex_noise(shape, variance: float, seed) -> np.ndarray:
    """Circular complex Gaussian samples of the given variance (total over
    the real and imaginary parts). Deterministic in the seed, which may be
    an int or a tuple of ints."""
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(variance / 2.0)
    return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def awgn(signal: ComplexSignal, snr_db: float, seed) -> ComplexSignal:
    """Add circular complex Gaussian noise at the requested per-sample SNR.

    The noise variance is set against the measured power of ``signal`` so
    that signal power / noise power equals ``10**(snr_db/10)``. Passing
    ``snr_db = inf`` returns the signal unchanged. Deterministic in the
    seed, which may be an int or a tuple of ints.
    """
    x = _as_samples(signal)
    rate = signal.sample_rate if isinstance(signal, ComplexSignal) else 1.0
    if np.isinf(snr_db):
        return ComplexSignal(x.copy(), sample_rate=rate)
    p = np.mean(np.abs(x) ** 2)
    if p == 0.0:
        raise ZeroSignal("cannot set an SNR against a zero signal")
    noise = complex_noise(len(x), p * 10.0 ** (-snr_db / 10.0), seed)
    return ComplexSignal(x + noise, sample_rate=rate)


# ---------------------------------------------------------------------------
# Quality metrics
# ---------------------------------------------------------------------------

@dataclass
class EvmReport:
    """Error vector magnitude of a received symbol stream.

    ``evm_db`` is a float for a 1-D stream and an array of one figure per
    column for a (symbols x tones) grid. ``mer_db`` is always its negation.
    """

    evm_db: float | np.ndarray
    mer_db: float | np.ndarray = field(init=False)

    def __post_init__(self):
        self.mer_db = -self.evm_db


def _evm_fit(rx: np.ndarray, ref: np.ndarray) -> complex | np.ndarray:
    # per column: the complex least-squares scalar minimizing ||c*rx - ref||^2;
    # an all-zero column has no fit and gets c = 0, so its error is -ref
    energy = np.sum(np.abs(rx) ** 2, axis=0)
    return np.sum(rx.conj() * ref, axis=0) / np.where(energy > 0.0, energy, 1.0)


def measure_evm(rx_symbols, ref_symbols) -> EvmReport:
    """RMS error vector magnitude after a single complex-scalar fit per
    column (axis 0).

    One amplitude-and-phase scalar is fitted from rx to ref by least
    squares, so bulk gain and rotation do not count as error while
    per-symbol variation does. A 1-D stream is one column and gives a
    float; a (symbols x tones) grid gives one figure per tone. A perfect
    match reports the -120 dB floor rather than -inf, and an all-zero
    column 0 dB (its error is the reference itself).
    """
    rx = _as_samples(rx_symbols)
    ref = _as_samples(ref_symbols)
    if rx.shape != ref.shape:
        raise LengthMismatch(f"rx has shape {rx.shape}, ref has shape {ref.shape}")
    if ref.size == 0:
        raise LengthMismatch("empty symbol streams")
    ref_power = np.mean(np.abs(ref) ** 2, axis=0)
    if np.any(ref_power == 0.0):
        raise ZeroReference("reference has zero power")
    err = _evm_fit(rx, ref) * rx - ref
    evm_lin_sq = np.mean(np.abs(err) ** 2, axis=0) / ref_power
    with np.errstate(divide="ignore"):
        evm_db = np.maximum(10.0 * np.log10(evm_lin_sq), EVM_FLOOR_DB)
    return EvmReport(evm_db if evm_db.ndim else float(evm_db))
