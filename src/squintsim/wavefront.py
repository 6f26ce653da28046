"""The array propagation channel.

Between the transmitter and the combiner the array is a linear,
time-invariant filter bank. Plane-wave propagation, phase-shifter
alignment and centroid timing sync collapse into one frequency response
per combiner branch (a contiguous sub-array), in closed form: a real
Dirichlet kernel of the sub-array size times the pure delay of the
sub-array centre. :func:`branch_responses` is the one generator of the
branch spectra the OFDM chain combines: it takes the spectrum of the
frame from its caller and yields it filtered by each branch response in
turn, so nothing here transforms a signal on the chains' path. A single
branch (the whole array) takes one route, the real kernel of
:func:`array_kernel` applied in place, which is also the whole array's
response in the single-carrier chain's folded filter.

Delays are circular, so frames carry zero guards by one rule: the
frame builders of :mod:`squintsim.txrx` size them from :func:`_delay_spread`,
and :func:`propagate` and :func:`branch_responses` check the ``ceil(spread)
+ 1`` zeros at either end that the delays wrap.

After centroid sync the whole array's impulse response is real and
symmetric about zero delay, so its response is real and even in
frequency: the Dirichlet kernel ``D(x)`` of ``x = f dtau``. Every
sub-array's impulse response is real too, so each branch response is
conjugate-symmetric. :func:`array_kernel` therefore evaluates the kernel
on the non-negative bins of the real half spectrum only, and the full grid
is its even extension.

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

from .analytic import ArrayConfig, _dirichlet
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


def _delay_spread(cfg: ArrayConfig, spec: SignalSpec, sample_rate: float) -> float:
    """The array's systematic delay spread (N - 1)|dtau| in samples."""
    return (cfg.n_elements - 1) * abs(element_delay_samples(cfg, spec, sample_rate))


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
    longer than the total delay spread; anything else raises
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
        _check_guard(x, _delay_spread(cfg, spec, tx.sample_rate))
    streams = np.empty((n_el, len(x)), dtype=np.complex128)
    streams[0] = x
    spectrum = np.fft.fft(x)
    freqs = np.fft.fftfreq(len(x))
    rot = np.exp(-1j * _carrier_phases(cfg))
    for n in range(1, n_el):
        ramp = np.exp(-2j * np.pi * freqs * (n * dtau))
        streams[n] = rot[n] * np.fft.ifft(spectrum * ramp)
    return ElementStreams(streams, cfg, spec, tx.sample_rate)


def _check_guard(x: np.ndarray, spread: float) -> None:
    # circular delays of up to ``spread`` samples must only wrap zeros
    if spread == 0.0:
        return
    need = int(np.ceil(spread)) + 1
    if np.any(x[:need]) or np.any(x[-need:]):
        raise InsufficientGuard(f"leading and trailing {need} samples must be zero guards")


def _times_even(spectrum: np.ndarray, half: np.ndarray) -> np.ndarray:
    """``spectrum`` times the even sequence ``full[k] = half[min(k, L - k)]``
    of its ``L`` bins, in place: the bins ``0 .. L // 2`` by ``half``, the
    rest by its reversed view, with no full-length kernel. Each bin takes
    the same product as with the full-length kernel, bit for bit."""
    length = len(spectrum)
    spectrum[:len(half)] *= half
    spectrum[len(half):] *= half[(length + 1) // 2 - 1:0:-1]
    return spectrum


def array_kernel(length: int, cfg: ArrayConfig, spec: SignalSpec, n_sub: int) -> np.ndarray:
    """The real kernel ``sin(pi n_sub x) / sin(pi x)`` of ``x = f dtau`` on
    the non-negative bins ``0 .. length // 2`` of a ``length``-sample FFT
    grid at ``spec.oversample`` samples per symbol (the ``rfft`` grid): the
    response of ``n_sub`` centred elements. It checks no guard.

    Exactness: ``rfftfreq`` and ``fftfreq`` both compute ``k * (1 / L)``
    and the kernel is exactly even, so these values are bit-identical to
    the full-grid kernel at bins ``k`` and ``L - k``.
    """
    x = np.fft.rfftfreq(length)
    x *= element_delay_samples(cfg, spec, spec.oversample)
    return _dirichlet(x, n_sub)


def branch_responses(
    frame: np.ndarray, spectrum: np.ndarray, cfg: ArrayConfig, spec: SignalSpec, n_sub: int
) -> Iterator[np.ndarray]:
    """The spectrum of each combiner branch's stream, one branch at a time:
    ``spectrum``, the FFT of ``frame`` (``spec.oversample`` samples per
    symbol), times the branch's frequency response.

    Branch r is the unnormalized sum of the ``n_sub`` contiguous elements
    ``[r * n_sub, (r + 1) * n_sub)`` after propagation, phase alignment and
    centroid sync, so the inverse FFT of its yielded spectrum equals the
    pre-summed sub-array stream of the per-element stages. The carrier
    rotations of propagation and alignment cancel exactly, leaving
    ``H_r(f) = sum_{n in r} exp(-j 2 pi f (n dtau - tau_mean))``: in closed
    form the real Dirichlet kernel ``sin(pi n_sub x) / sin(pi x)`` of
    ``x = f dtau`` times the pure delay of the sub-array centre,
    ``(r - (n_r - 1) / 2) n_sub dtau`` after sync. A single branch
    (``n_sub = N``, the phase-shifter sum) is centred, so its response is
    the real kernel of :func:`array_kernel` alone, applied to ``spectrum``
    in place through half-spectrum views; otherwise branches step by the
    recurrence ``z^n_sub`` with ``z = exp(-j 2 pi f dtau)``, two complex
    exponentials per frame whatever the array size. Raises
    :class:`InsufficientGuard` for ``frame`` like :func:`propagate`.

    Buffers: a single branch is formed in ``spectrum`` itself, so pass a
    spectrum that is no longer needed otherwise. With more than one branch
    ``spectrum`` is only read, and every branch is written into one buffer
    that the generator rewrites in full on the next step: use each before
    taking the next (the caller may write into it meanwhile), and copy what
    must outlive the step.

    Exactness: every yielded spectrum is bit for bit ``spectrum`` times the
    response evaluated on the full ``fftfreq`` grid, for even and odd
    ``len(frame)``. The single branch's kernel is the even extension of
    :func:`array_kernel`. Every impulse response is real, so every branch
    response is conjugate-symmetric, and the recurrence runs on the
    non-negative bins of the ``rfft`` grid only: ``fftfreq`` gives bin
    ``L - k`` exactly ``-x_k`` (the even-L Nyquist bin too), every step is
    odd in x, and bin ``L - k`` is the conjugate of bin ``k``. At dtau = 0
    every bin holds the same real value with a +0 imaginary part, which the
    conjugate would turn to -0, so broadside copies it instead.
    """
    n_el = cfg.n_elements
    if n_sub < 1 or n_el % n_sub:
        raise IndivisibleSizing(f"n_sub = {n_sub} must divide N = {n_el}")
    _check_guard(frame, _delay_spread(cfg, spec, spec.oversample))
    length = len(spectrum)
    n_r = n_el // n_sub
    if n_r == 1:
        yield _times_even(spectrum, array_kernel(length, cfg, spec, n_sub))
        return
    lower, stride = _first_branch(length, cfg, spec, n_sub)
    mirror = np.conjugate if element_delay_samples(cfg, spec, spec.oversample) else np.positive
    response = np.empty(length, dtype=np.complex128)
    # bins 0 .. (L - 1) // 2 are the rfft bins; bins L - 1 down to L // 2
    # mirror rfft bins 1 .. L // 2 (for even L the Nyquist bin, which fftfreq
    # gives as -x, mirrors itself)
    positive, negative = response[:(length + 1) // 2], response[:(length - 1) // 2:-1]
    for _ in range(n_r):
        np.copyto(positive, lower[:len(positive)])
        mirror(lower[1:], out=negative)
        yield np.multiply(spectrum, response, out=response)
        lower *= stride


def _first_branch(length: int, cfg: ArrayConfig, spec: SignalSpec,
                  n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """Branch 0's response and the step ``z^n_sub`` to the next branch, on
    the ``rfft`` grid of a ``length``-sample frame."""
    n_r = cfg.n_elements // n_sub
    x = np.fft.rfftfreq(length)
    x *= element_delay_samples(cfg, spec, spec.oversample)
    # the centre of branch 0 leads the centroid by (n_r - 1) / 2 strides
    first = _exp(1j * np.pi * (n_r - 1) * n_sub, x)
    first *= _dirichlet(x, n_sub)  # array_kernel on the same grid
    return first, _exp(-2j * np.pi * n_sub, x)


def _exp(c: complex, x: np.ndarray) -> np.ndarray:
    """``exp(c * x)`` for a complex scalar ``c``, in one complex array."""
    out = np.multiply(c, x, out=np.empty(x.shape, dtype=np.complex128))
    return np.exp(out, out=out)


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
