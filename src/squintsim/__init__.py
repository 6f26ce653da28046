"""Beam-squint analysis and link simulation for wideband phased arrays.

Closed-form array analysis (coherent bandwidth, response nulls, delay
spread, OFDM tone geometry), full baseband transceiver simulation of
single-carrier and OFDM links through an N-element phased receiver, and
the spatial IDFT combiners (full and reduced) that remove squint for OFDM
signals. Everything runs in carrier-normalized units.
"""

__version__ = "0.1.0"

from .analytic import (
    AnalyticReport,
    ArrayConfig,
    ReducedSizing,
    ToneBounds,
    coherent_bandwidth,
    combine_evm,
    input_referred_ssir,
    isi_bandwidth_limit,
    max_delay_spread,
    null_fractions,
    ofdm_tone_bounds,
    reduced_sizing,
    space_factor,
    space_factor_at_steer,
)
from .combine import (
    CombinerSpec,
    IdftWeights,
    full_idft_weights,
    reduced_idft_weights,
)
from .dsp import (
    ComplexSignal,
    EvmReport,
    SignalSpec,
    awgn,
    constellation,
    derive_seed,
    fractional_delay,
    measure_evm,
    qam_demap,
    qam_map,
    rrc_taps,
)
from .ofdm_spec import OfdmSpec
from .txrx import (
    SimReport,
    ToneMetrics,
    ofdm_demodulate,
    ofdm_modulate,
    run_ofdm,
    run_single_carrier,
)
from .wavefront import (
    ElementStreams,
    add_noise,
    element_delay_samples,
    phase_align,
    propagate,
    sync_mean_delay,
)

from . import errors  # noqa: F401  (re-export the exception module)
