"""The array propagation channel.

Between the transmitter and the combiner the array is a linear,
time-invariant filter bank. :func:`branch_responses` is what the link
chains use: it collapses plane-wave propagation, phase-shifter alignment
and centroid timing sync into one frequency response per combiner branch
(a contiguous sub-array), in closed form: a real Dirichlet kernel of the
sub-array size times the pure delay of the sub-array centre. The chains
apply those responses to the spectrum of their frame themselves, so
nothing here transforms a signal on the chains' path.

The per-element stages are the reference that ``branch_responses`` and the
tests' time-domain combiners are checked against: :func:`propagate` splits
a transmitted baseband signal into per-element received streams carrying
the progressive group delay and carrier phase of a plane wave arriving
from the steering direction, :func:`phase_align` models the phase-shifter
correction, :func:`add_noise` per-element receiver noise (per-element
derived seeds, so results do not depend on processing order) and
:func:`sync_mean_delay` the receiver's timing recovery.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .analytic import ArrayConfig
from .dsp import ComplexSignal, SignalSpec, awgn, _fractional_delay_array
from .errors import IndivisibleSizing, InsufficientGuard


@dataclass(eq=False)
class ElementStreams:
    """Per-element received streams of equal length.

    ``streams`` is an (N, L) complex array, row n holding element n.
    ``sample_rate`` is samples per symbol period, inherited from the
    transmitted signal.
    """

    streams: np.ndarray
    cfg: ArrayConfig
    spec: SignalSpec
    sample_rate: float

    def __post_init__(self):
        self.streams = np.asarray(self.streams, dtype=np.complex128)
        if self.streams.ndim != 2:
            raise ValueError("streams must be a 2-D (element, sample) array")
        if self.streams.shape[0] != self.cfg.n_elements:
            raise ValueError("stream count must equal the element count")

    @property
    def n_elements(self) -> int:
        return self.streams.shape[0]


def element_delay_samples(cfg: ArrayConfig, spec: SignalSpec, sample_rate: float) -> float:
    """Per-element-step group delay converted to samples.

    The delay is (d/lambda) sin(theta0) carrier cycles; one symbol period
    spans 1/BW cycles and ``sample_rate`` samples.
    """
    return cfg.delay_per_element_cycles * spec.fractional_bandwidth * sample_rate


def _carrier_phases(cfg: ArrayConfig) -> np.ndarray:
    # passband delay at the carrier appears at baseband as this rotation
    n = np.arange(cfg.n_elements)
    return 2.0 * np.pi * n * cfg.delay_per_element_cycles


def propagate(
    tx: ComplexSignal, cfg: ArrayConfig, spec: SignalSpec, check_guard: bool = True
) -> ElementStreams:
    """Receive ``tx`` on every element of the array.

    Element n (0-based) sees the signal delayed by n steps of the
    progressive group delay and rotated by the matching carrier phase.
    Element 0 equals ``tx`` exactly; at broadside every element does.
    Delays are circular, so the signal must carry zero guards at both ends
    at least as long as the total delay spread; anything else raises
    :class:`InsufficientGuard`. Pass ``check_guard=False`` only for
    signals that are circularly consistent by construction (exact-bin
    tones).
    """
    x = tx.samples
    n_el = cfg.n_elements
    dtau = element_delay_samples(cfg, spec, tx.sample_rate)
    if dtau == 0.0:
        streams = np.tile(x, (n_el, 1))
        return ElementStreams(streams, cfg, spec, tx.sample_rate)
    if check_guard:
        _check_guard(x, n_el, dtau)
    streams = np.empty((n_el, len(x)), dtype=np.complex128)
    streams[0] = x
    spectrum = np.fft.fft(x)
    freqs = np.fft.fftfreq(len(x))
    rot = np.exp(-1j * _carrier_phases(cfg))
    for n in range(1, n_el):
        ramp = np.exp(-2j * np.pi * freqs * (n * dtau))
        streams[n] = rot[n] * np.fft.ifft(spectrum * ramp)
    return ElementStreams(streams, cfg, spec, tx.sample_rate)


def _check_guard(x: np.ndarray, n_elements: int, dtau: float) -> None:
    # circular delays of up to (N - 1) * dtau samples must only wrap zeros
    if not len(x):
        return
    need = int(np.ceil((n_elements - 1) * abs(dtau))) + 1
    if need >= len(x) // 4:
        raise InsufficientGuard("signal too short for the array's delay spread")
    if np.any(x[:need] != 0) or np.any(x[-need:] != 0):
        raise InsufficientGuard(
            f"leading and trailing {need} samples must be zero guards"
        )


def _dirichlet(x: np.ndarray, n: int) -> np.ndarray:
    """The real Dirichlet kernel ``sin(pi n x) / sin(pi x)``, which is
    ``sum_k exp(-j 2 pi x (k - (n - 1) / 2))`` over ``k < n``.

    ``x`` is reduced to ``u = x - k`` about its nearest integer ``k`` (an
    exact subtraction), so the removable poles at integer ``x`` give
    exactly ``n`` times the sign ``(-1)^(k (n - 1))``, which is +1 for odd
    ``n``."""
    k = np.rint(x)
    u = x - k
    den = np.sin(np.pi * u)
    amp = np.full_like(u, float(n))
    np.divide(np.sin(np.pi * n * u), den, out=amp, where=den != 0.0)
    if n % 2 == 0:
        amp[(k.astype(np.int64) & 1) == 1] *= -1.0
    return amp


def branch_responses(
    tx: ComplexSignal, cfg: ArrayConfig, spec: SignalSpec, n_sub: int
) -> Iterator[np.ndarray]:
    """Frequency response of each combiner branch on the FFT grid of ``tx``,
    one branch at a time.

    Branch r is the unnormalized sum of the ``n_sub`` contiguous elements
    ``[r * n_sub, (r + 1) * n_sub)`` after propagation, phase alignment and
    centroid sync, so ``ifft(fft(tx) * H_r)`` equals the pre-summed
    sub-array streams of the per-element stages. The carrier rotations of
    propagation and alignment cancel exactly, leaving
    ``H_r(f) = sum_{n in r} exp(-j 2 pi f (n dtau - tau_mean))``: in closed
    form the real Dirichlet kernel ``sin(pi n_sub x) / sin(pi x)`` of
    ``x = f dtau`` times the pure delay of the sub-array centre,
    ``(r - (n_r - 1) / 2) n_sub dtau`` after sync. A single branch
    (``n_sub = N``: the phase-shifter sum and the whole single-carrier
    array) is centred, so its response is the real kernel alone; otherwise
    branches step by the recurrence ``z^n_sub`` with
    ``z = exp(-j 2 pi f dtau)``, two complex exponentials per frame
    whatever the array size. Every yielded array is fresh. Raises
    :class:`InsufficientGuard` like :func:`propagate`.
    """
    n_el = cfg.n_elements
    if n_sub < 1 or n_el % n_sub:
        raise IndivisibleSizing(f"n_sub = {n_sub} must divide N = {n_el}")
    dtau = element_delay_samples(cfg, spec, tx.sample_rate)
    if dtau != 0.0:
        _check_guard(tx.samples, n_el, dtau)
    x = np.fft.fftfreq(len(tx)) * dtau
    n_r = n_el // n_sub
    if n_r == 1:
        yield _dirichlet(x, n_sub)
        return
    # the centre of branch 0 leads the centroid by (n_r - 1) / 2 strides
    response = np.exp(1j * np.pi * (n_r - 1) * n_sub * x)
    if n_sub > 1:  # one element's kernel is all ones
        response *= _dirichlet(x, n_sub)
    stride = np.exp(-2j * np.pi * n_sub * x)
    for _ in range(n_r):
        yield response
        response = response * stride


def phase_align(streams: ElementStreams) -> ElementStreams:
    """Undo the per-element carrier phase, leaving group delays untouched.

    This is the phase-shifter correction: after it, a zero-bandwidth tone
    combines fully coherently while wideband content still carries the
    progressive delay.
    """
    rot = np.exp(1j * _carrier_phases(streams.cfg))
    return ElementStreams(
        streams.streams * rot[:, None], streams.cfg, streams.spec, streams.sample_rate
    )


def add_noise(streams: ElementStreams, snr_db: float, seed) -> ElementStreams:
    """Independent per-element AWGN at the given per-sample SNR.

    Each element draws from its own generator seeded by (seed, element
    index), so results do not depend on processing order. ``snr_db = inf``
    returns the streams unchanged.
    """
    if np.isinf(snr_db):
        return ElementStreams(
            streams.streams.copy(), streams.cfg, streams.spec, streams.sample_rate
        )
    out = np.empty_like(streams.streams)
    for n in range(streams.n_elements):
        out[n] = awgn(
            ComplexSignal(streams.streams[n], streams.sample_rate), snr_db, (seed, n)
        ).samples
    return ElementStreams(out, streams.cfg, streams.spec, streams.sample_rate)


def sync_mean_delay(streams: ElementStreams) -> ElementStreams:
    """Receiver timing recovery: advance every stream by the array's mean
    group delay, centring the residual delay spread on zero.

    This models a synchronizer locked to the combined signal. Circular,
    like :func:`propagate`, and covered by the same guard requirement.
    """
    dtau = element_delay_samples(streams.cfg, streams.spec, streams.sample_rate)
    tau_mean = (streams.n_elements - 1) / 2.0 * dtau
    if tau_mean == 0.0:
        return streams
    out = np.empty_like(streams.streams)
    for n in range(streams.n_elements):
        out[n] = _fractional_delay_array(streams.streams[n], -tau_mean)
    return ElementStreams(out, streams.cfg, streams.spec, streams.sample_rate)
