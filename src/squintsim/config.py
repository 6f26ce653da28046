"""Experiment configuration: file parsing, defaults, CLI merging.

The config file is a flat ``key = value`` text format, one pair per line,
with ``#`` comments. Unknown keys are rejected. List-valued keys
(sweep axes) take comma-separated values. Angles are degrees at this
interface and radians internally.

Validation happens in one place. :class:`ExperimentConfig` runs every
value through its key's parser in ``_SCHEMA``, whether it comes as text
(a config file, a flag) or already parsed (a config built in code, a
sweep cell), and then builds the run's array, signal, OFDM and combiner
specs, so a config that constructs can run. That includes the combiner
sizing: ``n_sub`` and ``m_group`` must be positive, and ``m_group`` must
divide ``carriers``, since the tone count is no sweep axis. What is left to
fail later depends on the (N, theta, BW) point itself, such as an
``n_sub`` that does not divide the array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .analytic import ArrayConfig
from .combine import _KINDS, CombinerSpec, PHASE_SUM, REDUCED_IDFT
from .dsp import SignalSpec
from .errors import ConfigError, InvalidOrder
from .ofdm_spec import OfdmSpec


def _int(raw) -> int:
    # text is parsed; anything else must already be an integer (2.5 is not)
    return int(raw) if isinstance(raw, str) else operator.index(raw)


def _finite_float(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _snr(raw) -> float:
    value = float(raw)
    if math.isnan(value) or value == -math.inf:
        raise ValueError("must be finite or 'inf'")
    return value


def _non_negative_int(raw) -> int:
    value = _int(raw)
    if value < 0:
        raise ValueError("must be non-negative")
    return value


def _choice(names, message: str):
    def parse(raw) -> str:
        if raw not in names:
            raise ValueError(message)
        return raw
    return parse


def _list(item):
    def parse(raw) -> list:
        if isinstance(raw, str):
            raw = [v for v in raw.split(",") if v.strip()]
        values = [item(v) for v in raw]
        if not values:
            raise ValueError("must list at least one value")
        return values
    return parse


# key: (parser of a value, text or already parsed; default)
_SCHEMA: dict[str, tuple] = {
    "n": (_int, 8),
    "theta_deg": (_finite_float, 30.0),
    "spacing": (_finite_float, 0.5),
    "bw": (_finite_float, 0.2),
    "snr_db": (_snr, math.inf),
    "combiner": (_choice(_KINDS, f"must be one of {sorted(_KINDS)}"), PHASE_SUM),
    "n_sub": (_int, None),
    "m_group": (_int, None),
    "carriers": (_int, None),
    "cp_num": (_int, 2),
    "n_ofdm_symbols": (_int, 150),
    "n_symbols": (_int, 10_000),
    "mod_order": (_int, 16),
    "rrc_rolloff": (_finite_float, 0.25),
    "rrc_span": (_int, 16),
    "oversample": (_int, 8),
    "seed": (_non_negative_int, 0),
    "sweep_n": (_list(_int), None),
    "sweep_theta_deg": (_list(_finite_float), None),
    "sweep_bw": (_list(_finite_float), None),
    "out": (str, "report"),
    "format": (_choice(("csv", "json"), "must be 'csv' or 'json'"), "csv"),
}

# Keys that only say where and how a report is written; they never change a
# result, so the config echo leaves them out.
_OUTPUT_KEYS = frozenset({"out", "format"})


def _parse_value(key: str, raw, parse):
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid value for '{key}': {raw!r} ({exc})") from None


@dataclass
class ExperimentConfig:
    """Fully resolved and validated parameters of one CLI invocation.

    Construction parses every value and builds the run's specs
    (``array``, ``signal``, ``ofdm``, ``combiner``); any invalid value
    raises :class:`ConfigError` here and nowhere later.
    """

    values: dict = field(default_factory=dict)
    array: ArrayConfig = field(init=False, repr=False)
    signal: SignalSpec = field(init=False, repr=False)
    ofdm: OfdmSpec | None = field(init=False, repr=False)
    combiner: CombinerSpec = field(init=False, repr=False)

    def __post_init__(self):
        resolved = {k: default for k, (_, default) in _SCHEMA.items()}
        for key, raw in self.values.items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key: '{key}'")
            resolved[key] = _parse_value(key, raw, _SCHEMA[key][0])
        v = self.values = resolved
        if v["combiner"] != PHASE_SUM and v["carriers"] is None:
            raise ConfigError("IDFT combiners require 'carriers' to be set")
        try:
            self.array = ArrayConfig(
                n_elements=v["n"],
                steer_angle=math.radians(v["theta_deg"]),
                spacing_ratio=v["spacing"],
            )
            self.signal = SignalSpec(
                fractional_bandwidth=v["bw"],
                n_symbols=v["n_symbols"],
                modulation_order=v["mod_order"],
                rrc_rolloff=v["rrc_rolloff"],
                rrc_span=v["rrc_span"],
                oversample=v["oversample"],
                seed=v["seed"],
            )
            self.ofdm = None if v["carriers"] is None else OfdmSpec(
                m_carriers=v["carriers"],
                n_ofdm_symbols=v["n_ofdm_symbols"],
                cp_ratio_num=v["cp_num"],
            )
            self.combiner = (
                CombinerSpec.reduced_idft(v["n_sub"], v["m_group"])
                if v["combiner"] == REDUCED_IDFT else CombinerSpec(v["combiner"])
            )
            # M is no sweep axis, so a tone group that does not divide it
            # would fail every cell alike
            if self.combiner.m_group and v["carriers"] % self.combiner.m_group:
                raise ValueError(
                    f"m_group = {self.combiner.m_group} must divide carriers = {v['carriers']}"
                )
        except (ValueError, InvalidOrder) as exc:
            raise ConfigError(str(exc)) from None

    def __getitem__(self, key):
        return self.values[key]

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
