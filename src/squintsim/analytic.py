"""Closed-form analysis of beam squint in uniform linear arrays.

Everything here is a pure function of the array geometry, steering angle
and fractional signal bandwidth, in normalized units: the carrier sets the
frequency unit, time is measured in carrier cycles, and element spacing is
a fraction of the carrier wavelength. Safe to call concurrently, no shared
state.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSteer, Infeasible, SpacingAssumption

# Half-power width constant of the large-array (sinc) limit of the array
# response. The exact sinc half-power argument gives 4*1.39156/pi = 1.7718;
# the two-decimal value is used throughout the sizing rules.
SINC_3DB_FACTOR = 1.77


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array geometry and steering.

    Parameters
    ----------
    n_elements : int
        Number of array elements.
    steer_angle : float
        Intended beam direction in radians from the array normal,
        inside (-pi/2, pi/2).
    spacing_ratio : float
        Element spacing as a fraction of the carrier wavelength.
        Values above 0.5 produce grating lobes and trigger a warning.
    """

    n_elements: int
    steer_angle: float
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if not all(
            math.isfinite(v) for v in (self.n_elements, self.steer_angle, self.spacing_ratio)
        ):
            raise ValueError("array parameters must be finite")
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if not 0.0 < self.spacing_ratio <= 1.0:
            raise ValueError("spacing_ratio must lie in (0, 1]")
        if abs(self.steer_angle) >= np.pi / 2:
            raise ValueError("steer_angle must lie inside (-pi/2, pi/2)")
        if self.spacing_ratio > 0.5:
            warnings.warn(
                "element spacing above half a wavelength produces grating lobes",
                stacklevel=2,
            )

    @property
    def sin_steer(self) -> float:
        return math.sin(self.steer_angle)

    @property
    def delay_per_element_cycles(self) -> float:
        """Progressive per-element group delay in carrier cycles."""
        return self.spacing_ratio * self.sin_steer


@dataclass
class ToneBounds:
    """Predicted deep-fade and half-power tone positions of an OFDM band.

    ``null_low``/``null_high`` are real-valued tone coordinates; the
    matching integer indices are None when the null falls outside [0, M).
    ``m_3db`` counts the tones around the centre that stay within 3 dB.
    """

    null_low: float
    null_high: float
    tone_low: int | None
    tone_high: int | None
    m_3db: float


@dataclass
class ReducedSizing:
    """Divisor-based sizing of the reduced IDFT combiner.

    ``n_sub`` elements are pre-combined per branch (N_o), each IDFT output
    serves ``m_group`` tones (M_o), and the matrix itself is
    ``m_reduced x n_reduced`` (M_r x N_r).
    """

    n_sub: int
    m_group: int
    n_reduced: int
    m_reduced: int


@dataclass
class AnalyticReport:
    """Bundle of the closed-form predictions for one configuration."""

    coherent_bw: float | None
    null_fractions: tuple[float, float] | None
    isi_bw_limit: float | None
    max_delay_spread: float
    eirp_gain_db: float
    rx_snr_gain_db: float
    tone_bounds: ToneBounds | None = None
    reduced_sizing: ReducedSizing | None = None


# ---------------------------------------------------------------------------
# Space factor
# ---------------------------------------------------------------------------

def _offset(cfg: ArrayConfig, theta: float, f_ratio: float) -> float:
    # phase progression per element, in turns
    return cfg.spacing_ratio * (f_ratio * math.sin(theta) - cfg.sin_steer)


def _dirichlet(x: np.ndarray, n: int) -> np.ndarray:
    """The real Dirichlet kernel ``sin(pi n x) / sin(pi x)``, which is
    ``sum_k exp(-j 2 pi x (k - (n - 1) / 2))`` over ``k < n``.

    ``x`` is reduced to ``u = x - k`` about its nearest integer ``k`` (an
    exact subtraction), so the removable poles at integer ``x`` give
    exactly ``n`` times the sign ``(-1)^(k (n - 1))``, which is +1 for odd
    ``n``. One element's kernel is all ones. Every step is odd-symmetric
    in ``x``, so the kernel is exactly even: ``D(-x) == D(x)`` bit for
    bit.

    The steps write into two arrays made here (0-d for a scalar ``x``),
    never into ``x``: ``k``, overwritten by ``u`` and then by the kernel
    once the sign of each bin is known, and the denominator. At the poles
    the quotient is n / 1."""
    if n == 1:
        return np.ones_like(x)
    k = np.asarray(np.rint(x))
    if n % 2 == 0:
        flip = (k.astype(np.int64) & 1) == 1
    u = np.subtract(x, k, out=k)
    den = np.multiply(np.pi, u, out=np.empty_like(u))
    np.sin(den, out=den)
    amp = np.multiply(np.pi * n, u, out=u)
    np.sin(amp, out=amp)
    poles = den == 0.0
    np.copyto(den, 1.0, where=poles)
    np.copyto(amp, float(n), where=poles)
    np.divide(amp, den, out=amp)
    if n % 2 == 0:
        np.multiply(amp, -1.0, out=amp, where=flip)
    return amp


def _magnitude(n: int, u: float) -> float:
    # |D(u)| / N: the normalized response of N elements at phase step u turns
    return float(abs(_dirichlet(np.float64(u), n))) / n


def space_factor(cfg: ArrayConfig, theta: float, f_ratio: float) -> float:
    """Normalized array response magnitude at angle ``theta``.

    ``f_ratio`` is the evaluation frequency as a fraction of the carrier.
    Uses the closed sin/sin ratio; equals the direct N-term phasor sum to
    within 1e-10 and peaks at 1 when all elements align.
    """
    if f_ratio <= 0:
        raise ValueError("f_ratio must be positive")
    return _magnitude(cfg.n_elements, _offset(cfg, theta, f_ratio))


def space_factor_at_steer(cfg: ArrayConfig, f_ratio: float) -> float:
    """Array response at the steering direction itself.

    Valid only for half-wavelength spacing, where the spacing-to-wavelength
    ratio scales linearly with frequency and the response reduces to a
    function of ``f_ratio - 1`` alone.
    """
    if cfg.spacing_ratio != 0.5:
        raise SpacingAssumption(
            "the steering-direction reduction assumes half-wavelength spacing"
        )
    if f_ratio <= 0:
        raise ValueError("f_ratio must be positive")
    return _magnitude(cfg.n_elements, 0.5 * cfg.sin_steer * (f_ratio - 1.0))


# ---------------------------------------------------------------------------
# Bandwidth limits
# ---------------------------------------------------------------------------

def _require_steer(cfg: ArrayConfig):
    if cfg.sin_steer == 0.0:
        raise DegenerateSteer("quantity is unbounded at broadside steering")


def coherent_bandwidth(cfg: ArrayConfig) -> float:
    """Fractional 3 dB bandwidth of the array response at the steer angle.

    The large-array sinc-limit expression 1.77 / (N sin(theta0)) for
    half-wavelength spacing (scaled for other spacings). It agrees within
    5 percent with the half-power crossing of the direct phasor sum for
    N >= 8, which the tests bisect as its reference.
    """
    _require_steer(cfg)
    return SINC_3DB_FACTOR / (
        2.0 * cfg.n_elements * cfg.spacing_ratio * abs(cfg.sin_steer)
    )


def null_fractions(cfg: ArrayConfig) -> tuple[float, float]:
    """Closest frequencies (as fractions of the carrier) where the
    steer-angle response is exactly null.

    Symmetric about 1: the offset is 2/(N sin(theta0)) for half-wavelength
    spacing, scaled accordingly otherwise.
    """
    _require_steer(cfg)
    if cfg.n_elements < 2:
        raise ValueError("a single element has no response nulls")
    dx = 1.0 / (cfg.n_elements * cfg.spacing_ratio * abs(cfg.sin_steer))
    return (1.0 - dx, 1.0 + dx)


def isi_bandwidth_limit(cfg: ArrayConfig) -> float:
    """Upper fractional-bandwidth bound that keeps the symbol period above
    the systematic delay spread (2/(N sin(theta0)) at half-wavelength
    spacing). Equals the one-sided null offset of the array response.
    """
    _require_steer(cfg)
    return 1.0 / (cfg.n_elements * cfg.spacing_ratio * abs(cfg.sin_steer))


def max_delay_spread(cfg: ArrayConfig) -> float:
    """Worst-case systematic delay spread across the aperture, in carrier
    cycles: N (d/lambda) sin(theta0). Zero at broadside."""
    return cfg.n_elements * cfg.spacing_ratio * abs(cfg.sin_steer)


def eirp_gain_db(cfg: ArrayConfig) -> float:
    """Transmit EIRP gain of coherent radiation, 20 log10 N."""
    return 20.0 * math.log10(cfg.n_elements)


def rx_snr_gain_db(cfg: ArrayConfig) -> float:
    """Receive SNR gain of coherent combining, 10 log10 N."""
    return 10.0 * math.log10(cfg.n_elements)


# ---------------------------------------------------------------------------
# OFDM tone geometry
# ---------------------------------------------------------------------------

def ofdm_tone_bounds(cfg: ArrayConfig, m_carriers: int, bw_sig: float) -> ToneBounds:
    """Locate deep-faded tones and the 3 dB tone count for an OFDM band.

    The nulls sit at M*(1/2 +- 2/(N BW sin(theta0))); positions outside
    [0, M) mean no null falls inside the band and the integer index is
    reported as None.
    """
    _require_steer(cfg)
    if m_carriers < 1:
        raise ValueError("m_carriers must be positive")
    if bw_sig <= 0:
        raise ValueError("bw_sig must be positive")
    span = isi_bandwidth_limit(cfg) / bw_sig
    null_low = m_carriers * (0.5 - span)
    null_high = m_carriers * (0.5 + span)

    def tone_index(x: float) -> int | None:
        i = int(round(x))
        return i if 0 <= i < m_carriers else None

    m_3db = m_carriers * coherent_bandwidth(cfg) / bw_sig
    return ToneBounds(null_low, null_high, tone_index(null_low), tone_index(null_high), m_3db)


def _divisors(n: int) -> list[int]:
    out = set()
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def reduced_sizing(cfg: ArrayConfig, m_carriers: int, bw_sig: float) -> ReducedSizing:
    """Smallest divisor-based IDFT reduction meeting the coherence bounds.

    Both reduced dimensions must exceed BW / coherent bandwidth, that is
    N BW sin(theta0) (2 d / lambda) / 1.77, which simultaneously keeps each
    pre-combined sub-array inside its coherent bandwidth and each tone group
    inside the 3 dB tone span. Dimensions are restricted to divisors of N
    and M so sub-arrays and tone groups tile exactly. At broadside the
    bound is 0 and the smallest divisor, 1, meets it.
    """
    if m_carriers < 1:
        raise ValueError("m_carriers must be positive")
    if bw_sig <= 0:
        raise ValueError("bw_sig must be positive")
    bound = (cfg.n_elements * bw_sig * abs(cfg.sin_steer) * 2.0 * cfg.spacing_ratio
             / SINC_3DB_FACTOR)

    def smallest_divisor_above(n: int) -> int:
        for d in _divisors(n):
            if d > bound:
                return d
        raise Infeasible(
            f"no divisor of {n} exceeds the required bound {bound:.3f}"
        )

    n_r = smallest_divisor_above(cfg.n_elements)
    m_r = smallest_divisor_above(m_carriers)
    return ReducedSizing(cfg.n_elements // n_r, m_carriers // m_r, n_r, m_r)


# ---------------------------------------------------------------------------
# Link-budget arithmetic
# ---------------------------------------------------------------------------

def combine_evm(snr_db: float, ssir_db: float) -> float:
    """Total EVM (dB) of independent noise and self-interference.

    Treats both ratios as linear amplitude quantities: the squared error
    vector magnitudes add, so EVM_lin^2 = SNR_lin^-2 + SSIR_lin^-2 with
    X_lin = 10**(X_dB/20). Either input may be inf.
    """
    total = 10.0 ** (-snr_db / 10.0) + 10.0 ** (-ssir_db / 10.0)
    return 10.0 * math.log10(total) if total > 0 else -math.inf


def input_referred_ssir(ssir_db: float, cfg: ArrayConfig) -> float:
    """Self-interference ratio referred to a single element input,
    SSIR - 10 log10 N."""
    return ssir_db - rx_snr_gain_db(cfg)


def report(cfg: ArrayConfig, bw_sig: float, m_carriers: int | None = None) -> AnalyticReport:
    """Assemble every closed-form prediction that is defined for ``cfg``.

    Broadside configurations leave the 1/sin(theta0) quantities as None
    instead of raising, so simulation reports can always embed a report.
    """
    degenerate = cfg.sin_steer == 0.0
    tone_bounds = None
    sizing = None
    if m_carriers is not None and not degenerate:
        tone_bounds = ofdm_tone_bounds(cfg, m_carriers, bw_sig)
        try:
            sizing = reduced_sizing(cfg, m_carriers, bw_sig)
        except Infeasible:
            sizing = None
    nulls = None
    if not degenerate and cfg.n_elements > 1:
        nulls = null_fractions(cfg)
    return AnalyticReport(
        coherent_bw=None if degenerate else coherent_bandwidth(cfg),
        null_fractions=nulls,
        isi_bw_limit=None if degenerate else isi_bandwidth_limit(cfg),
        max_delay_spread=max_delay_spread(cfg),
        eirp_gain_db=eirp_gain_db(cfg),
        rx_snr_gain_db=rx_snr_gain_db(cfg),
        tone_bounds=tone_bounds,
        reduced_sizing=sizing,
    )
