"""Reference implementations the tests compare the package against.

The link chains never call these. They are the time-domain combiners
(which the tone-domain kernel ``combine_branch_grids`` must reproduce),
the unitary DFT pair, and the single-carrier link on its oversampled grid
(which the symbol-rate chain must reproduce).
"""

import numpy as np

from squintsim import ComplexSignal, ElementStreams, OfdmSpec
from squintsim.combine import full_idft_weights, reduced_idft_weights
from squintsim.dsp import _as_samples, rrc_taps
from squintsim.errors import IndivisibleSizing
from squintsim.txrx import _sc_transmit
from squintsim.wavefront import branch_responses


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
    out = w.matrix @ streams.streams / streams.n_elements
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
    out = w.matrix @ branches / streams.n_elements
    groups = [range(g * m_group, (g + 1) * m_group) for g in range(out.shape[0])]
    return (
        [ComplexSignal(row, sample_rate=streams.sample_rate) for row in out],
        groups,
    )


def sc_oversampled_clean(cfg, spec) -> np.ndarray:
    """The clean single-carrier output as one oversampled spectrum product:
    the impulse frame times R^2 H / N, read at the symbol instants."""
    tx, _, instants = _sc_transmit(spec, cfg)
    taps = rrc_taps(spec.rrc_rolloff, spec.rrc_span, spec.oversample)
    padded = np.zeros(len(tx))
    padded[:len(taps)] = taps
    rrc = np.fft.fft(np.roll(padded, -(len(taps) // 2)))
    array = next(branch_responses(tx, cfg, spec, cfg.n_elements))
    spectrum = np.fft.fft(tx.samples) * rrc**2 * array
    return np.fft.ifft(spectrum)[instants] / cfg.n_elements
