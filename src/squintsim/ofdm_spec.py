"""OFDM frame parameters, shared by the transceiver and the combiners."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OfdmSpec:
    """Subcarrier grid and cyclic-prefix layout.

    ``cp_ratio_num`` is the integer k in T_cp / T_symbol = k / M, so the
    cyclic prefix spans k samples at critical sampling of the M-point
    symbol. Tones run 0..M-1 from the low to the high band edge.
    """

    m_carriers: int
    n_ofdm_symbols: int = 150
    cp_ratio_num: int = 2

    def __post_init__(self):
        if self.m_carriers < 2:
            raise ValueError("m_carriers must be at least 2")
        if not 1 <= self.cp_ratio_num < self.m_carriers:
            raise ValueError("cp_ratio_num must satisfy 1 <= k < M")
        if self.n_ofdm_symbols < 1:
            raise ValueError("n_ofdm_symbols must be positive")

    @property
    def center_tone(self) -> int:
        """The tone index m0 = M/2 that sits at the carrier frequency."""
        return self.m_carriers // 2
