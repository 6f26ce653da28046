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
from .combine import CombinerSpec, PHASE_SUM, FULL_IDFT, REDUCED_IDFT
from .dsp import SignalSpec
from .errors import ConfigError
from .ofdm_spec import OfdmSpec

_COMBINER_NAMES = {PHASE_SUM, FULL_IDFT, REDUCED_IDFT}

# key: (parser, default)
_SCHEMA: dict[str, tuple] = {
    "n": (int, 8),
    "theta_deg": (float, 30.0),
    "spacing": (float, 0.5),
    "bw": (float, 0.2),
    "snr_db": ("snr", math.inf),
    "combiner": ("combiner", PHASE_SUM),
    "n_sub": (int, None),
    "m_group": (int, None),
    "carriers": (int, None),
    "cp_num": (int, 2),
    "n_ofdm_symbols": (int, 150),
    "n_symbols": (int, 10_000),
    "mod_order": (int, 16),
    "rrc_rolloff": (float, 0.25),
    "rrc_span": (int, 16),
    "oversample": (int, 8),
    "seed": (int, 0),
    "sweep_n": ("int_list", None),
    "sweep_theta_deg": ("float_list", None),
    "sweep_bw": ("float_list", None),
    "out": (str, "report"),
    "format": ("format", "csv"),
}

# Keys that only say where and how a report is written; they never change a
# result, so the config echo leaves them out.
_OUTPUT_KEYS = frozenset({"out", "format"})


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_value(key: str, raw, kind):
    if not isinstance(raw, str):
        return raw
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return _finite_float(raw)
        if kind is str:
            return raw
        if kind == "snr":
            value = float(raw)
            if math.isnan(value) or value == -math.inf:
                raise ValueError("must be finite or 'inf'")
            return value
        if kind == "combiner":
            if raw not in _COMBINER_NAMES:
                raise ValueError(f"must be one of {sorted(_COMBINER_NAMES)}")
            return raw
        if kind == "format":
            if raw not in ("csv", "json"):
                raise ValueError("must be 'csv' or 'json'")
            return raw
        if kind == "int_list":
            return [int(v) for v in raw.split(",") if v.strip()]
        if kind == "float_list":
            return [_finite_float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for '{key}': {raw!r} ({exc})") from None
    raise ConfigError(f"unhandled kind for '{key}'")


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
        except ValueError as exc:
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

    @classmethod
    def from_dict(cls, values: dict) -> "ExperimentConfig":
        return cls(dict(values))


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
