"""Spatial combiners: phase-shifter sum, full IDFT, and reduced IDFT.

The IDFT combiners weight element n for tone m (centre tone m0) by
``exp(+j 2 pi n (d/lambda) sin(theta0) (BW/M) (m - m0))``, which exactly
cancels the residual per-tone group-delay phase left after carrier
alignment and restores full coherence for every subcarrier. The reduced
form first sums contiguous sub-arrays of ``n_sub`` elements and serves
contiguous groups of ``m_group`` tones per output, trading a bounded EVM
ripple for an IDFT matrix shrunk to M_r x N_r.

All three are one kernel: the phase-shifter sum is the reduced IDFT at
sizing (N, M) and the full IDFT is sizing (1, 1), which
:meth:`CombinerSpec.resolve_sizing` returns. Its weights are one formula,
:func:`reduced_idft_weights`, returned as a plain complex array of M_r rows
by N_r columns (:func:`full_idft_weights` is that formula at sizing
(1, 1)); every weight is ``exp(j 2 pi x)`` of a real x, so it has unit
modulus by construction. The OFDM chain applies that kernel in the tone
domain (:func:`combine_branch_grids`) to the demodulated branch streams;
the DFT is linear, so this equals combining the element streams in the
time domain, which the tests keep as the reference.

With one tone per group (m_group = 1: the full IDFT and any ``(n_sub, 1)``
sizing) the weights of tone k are the conjugate delays of the branches at
the tone frequency, so the combined response of tone k is a closed form:
the sub-array kernel times the N_r-branch Dirichlet kernel centred on that
frequency, ``D_n_sub(f dtau) D_N_r((f - f_k) n_sub dtau)``, times a
constant phase. The OFDM chain uses it to combine on the DFT-window side,
at a cost independent of N (see :mod:`squintsim.txrx`).

Weight generation and per-output combining are independent per output row;
combining uses fixed-order numpy reductions so parallel callers reproduce
sequential results exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import ArrayConfig, reduced_sizing
from .dsp import SignalSpec
from .errors import IndivisibleSizing
from .ofdm_spec import OfdmSpec

PHASE_SUM = "ps"
FULL_IDFT = "idft"
REDUCED_IDFT = "reduced"
_KINDS = (PHASE_SUM, FULL_IDFT, REDUCED_IDFT)


@dataclass(frozen=True)
class CombinerSpec:
    """Which spatial combiner a simulation run uses.

    For the reduced IDFT, ``n_sub`` (elements per pre-combined sub-array)
    and ``m_group`` (tones per IDFT output) may be left None to take the
    automatic sizing from :func:`squintsim.analytic.reduced_sizing`; a size
    that is set must be positive. Whether it divides N or M is checked
    where the array and the tones are known.
    """

    kind: str = PHASE_SUM
    n_sub: int | None = None
    m_group: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        sizes = {"n_sub": self.n_sub, "m_group": self.m_group}
        if self.kind != REDUCED_IDFT and any(v is not None for v in sizes.values()):
            raise ValueError("sub-array sizing only applies to the reduced IDFT")
        for name, value in sizes.items():
            if value is not None and value < 1:
                raise ValueError(f"{name} = {value} must be positive")

    @classmethod
    def phase_shifter_sum(cls) -> "CombinerSpec":
        return cls(PHASE_SUM)

    @classmethod
    def full_idft(cls) -> "CombinerSpec":
        return cls(FULL_IDFT)

    @classmethod
    def reduced_idft(cls, n_sub: int | None = None, m_group: int | None = None) -> "CombinerSpec":
        return cls(REDUCED_IDFT, n_sub=n_sub, m_group=m_group)

    def resolve_sizing(self, cfg: ArrayConfig, ofdm: OfdmSpec, bw_sig: float) -> tuple[int, int]:
        """Concrete (n_sub, m_group) of the reduced-IDFT kernel this combiner
        is: (N, M) for the phase-shifter sum, (1, 1) for the full IDFT, and
        for the reduced IDFT its own sizing with auto sizing where unset."""
        if self.kind == PHASE_SUM:
            return cfg.n_elements, ofdm.m_carriers
        if self.kind == FULL_IDFT:
            return 1, 1
        n_sub, m_group = self.n_sub, self.m_group
        if n_sub is None or m_group is None:
            auto = reduced_sizing(cfg, ofdm.m_carriers, bw_sig)
            n_sub = n_sub if n_sub is not None else auto.n_sub
            m_group = m_group if m_group is not None else auto.m_group
        return n_sub, m_group


def full_idft_weights(cfg: ArrayConfig, spec: SignalSpec, ofdm: OfdmSpec) -> np.ndarray:
    """Weight matrix of the full combiner, M rows by N columns: the reduced
    combiner's at sizing (1, 1)."""
    return reduced_idft_weights(cfg, spec, ofdm, 1, 1)


def reduced_idft_weights(
    cfg: ArrayConfig, spec: SignalSpec, ofdm: OfdmSpec, n_sub: int, m_group: int
) -> np.ndarray:
    """Weight matrix of the reduced combiner, M_r rows by N_r columns.

    Row g corrects for the midpoint tone of group g (tones
    [g*m_group, (g+1)*m_group)) using the sub-array stride delay.
    """
    _check_divisible(cfg, ofdm, n_sub, m_group)
    m_r = ofdm.m_carriers // m_group
    n_r = cfg.n_elements // n_sub
    # per-element, per-tone-offset phase in turns: delay times subcarrier spacing
    step = cfg.delay_per_element_cycles * spec.fractional_bandwidth / ofdm.m_carriers
    centers = np.arange(m_r) * m_group + (m_group - 1) / 2.0 - ofdm.center_tone
    strides = np.arange(n_r) * n_sub
    return np.exp(2j * np.pi * step * np.outer(centers, strides))


def _check_divisible(cfg: ArrayConfig, ofdm: OfdmSpec, n_sub: int, m_group: int):
    if n_sub < 1 or cfg.n_elements % n_sub:
        raise IndivisibleSizing(f"n_sub = {n_sub} must divide N = {cfg.n_elements}")
    if m_group < 1 or ofdm.m_carriers % m_group:
        raise IndivisibleSizing(f"m_group = {m_group} must divide M = {ofdm.m_carriers}")


def combine_branch_grids(
    branch_grids: np.ndarray, weights: np.ndarray, n_elements: int
) -> np.ndarray:
    """The reduced combiner applied in the tone domain.

    ``branch_grids`` holds the demodulated grid of each sub-array branch,
    shape (N_r, symbols, M); ``weights`` is the M_r x N_r matrix of
    :func:`reduced_idft_weights`, row g serving the g-th contiguous group
    of M / M_r tones. Returns the combined (symbols, M) grid, normalized by
    the element count like the time-domain combiners.
    """
    n_r, n_sym, m = branch_grids.shape
    m_r = weights.shape[0]
    groups = branch_grids.reshape(n_r, n_sym, m_r, m // m_r)
    out = np.einsum("gr,rjgk->jgk", weights, groups)
    return out.reshape(n_sym, m) / n_elements

