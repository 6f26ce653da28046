"""Experiment configuration: file parsing, defaults, CLI merging.

The config file is a flat ``key = value`` text format, one pair per line,
with ``#`` comments. Unknown keys are rejected. List-valued keys
(sweep axes) take comma-separated values. Angles are degrees at this
interface and radians internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .analytic import ArrayConfig
from .combine import _KINDS, CombinerSpec, PHASE_SUM, REDUCED_IDFT
from .dsp import SignalSpec
from .errors import ConfigError, InvalidOrder
from .ofdm_spec import OfdmSpec


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _snr(raw: str) -> float:
    value = float(raw)
    if math.isnan(value) or value == -math.inf:
        raise ValueError("must be finite or 'inf'")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _choice(names, message: str):
    def parse(raw: str) -> str:
        if raw not in names:
            raise ValueError(message)
        return raw
    return parse


def _list(item):
    def parse(raw: str) -> list:
        return [item(v) for v in raw.split(",") if v.strip()]
    return parse


# key: (parser of the stripped text, default)
_SCHEMA: dict[str, tuple] = {
    "n": (int, 8),
    "theta_deg": (_finite_float, 30.0),
    "spacing": (_finite_float, 0.5),
    "bw": (_finite_float, 0.2),
    "snr_db": (_snr, math.inf),
    "combiner": (_choice(_KINDS, f"must be one of {sorted(_KINDS)}"), PHASE_SUM),
    "n_sub": (int, None),
    "m_group": (int, None),
    "carriers": (int, None),
    "cp_num": (int, 2),
    "n_ofdm_symbols": (int, 150),
    "n_symbols": (int, 10_000),
    "mod_order": (int, 16),
    "rrc_rolloff": (_finite_float, 0.25),
    "rrc_span": (int, 16),
    "oversample": (int, 8),
    "seed": (_non_negative_int, 0),
    "sweep_n": (_list(int), None),
    "sweep_theta_deg": (_list(_finite_float), None),
    "sweep_bw": (_list(_finite_float), None),
    "out": (str, "report"),
    "format": (_choice(("csv", "json"), "must be 'csv' or 'json'"), "csv"),
}

# Keys that only say where and how a report is written; they never change a
# result, so the config echo leaves them out.
_OUTPUT_KEYS = frozenset({"out", "format"})


def _parse_value(key: str, raw, parse):
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {raw!r} ({exc})") from None


@dataclass
class ExperimentConfig:
    """Fully resolved parameters of one CLI invocation."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        resolved = {k: default for k, (_, default) in _SCHEMA.items()}
        for key, raw in self.values.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key: '{key}'")
            resolved[key] = _parse_value(key, raw, _SCHEMA[key][0])
        self.values = resolved

    def __getitem__(self, key):
        return self.values[key]

    @property
    def array(self) -> ArrayConfig:
        try:
            return ArrayConfig(
                n_elements=self["n"],
                steer_angle=math.radians(self["theta_deg"]),
                spacing_ratio=self["spacing"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def signal(self) -> SignalSpec:
        try:
            return SignalSpec(
                fractional_bandwidth=self["bw"],
                n_symbols=self["n_symbols"],
                modulation_order=self["mod_order"],
                rrc_rolloff=self["rrc_rolloff"],
                rrc_span=self["rrc_span"],
                oversample=self["oversample"],
                seed=self["seed"],
            )
        except (ValueError, InvalidOrder) as exc:
            raise ConfigError(str(exc)) from None

    @property
    def ofdm(self) -> OfdmSpec | None:
        if self["carriers"] is None:
            return None
        try:
            return OfdmSpec(
                m_carriers=self["carriers"],
                n_ofdm_symbols=self["n_ofdm_symbols"],
                cp_ratio_num=self["cp_num"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def combiner(self) -> CombinerSpec:
        kind = self["combiner"]
        if kind != PHASE_SUM and self.ofdm is None:
            raise ConfigError("IDFT combiners require 'carriers' to be set")
        if kind == REDUCED_IDFT:
            return CombinerSpec.reduced_idft(self["n_sub"], self["m_group"])
        return CombinerSpec(kind)

    @property
    def sweep_axes(self) -> tuple[list[int], list[float], list[float]] | None:
        ns, thetas, bws = self["sweep_n"], self["sweep_theta_deg"], self["sweep_bw"]
        if ns is None and thetas is None and bws is None:
            return None
        ns = ns or [self["n"]]
        thetas = thetas or [self["theta_deg"]]
        bws = bws or [self["bw"]]
        if not (ns and thetas and bws):
            raise ConfigError("sweep axes must be non-empty")
        return ns, thetas, bws

    def echo(self) -> dict:
        """JSON-serializable echo of the keys that decide the result.

        Building a config from the echo reproduces this config's result.
        Output-only keys (``_OUTPUT_KEYS``) and unset keys are left out,
        so the same config echoes the same whatever its output path.
        """
        out = {}
        for k, v in self.values.items():
            if v is None or k in _OUTPUT_KEYS:
                continue
            out[k] = "inf" if isinstance(v, float) and math.isinf(v) else v
        return out


def parse_config_file(path) -> dict:
    """Read a ``key = value`` config file into a raw string mapping."""
    raw = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = value.strip()
    return raw
