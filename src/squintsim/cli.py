"""Command-line harness: closed-form analysis, single runs, and sweeps.

    squintsim {analyze,simulate,sweep} [--config FILE] [--<key> VALUE ...]

Commands:

* ``analyze``: print the closed-form predictions and write them to a JSON
  report.
* ``simulate``: run one link simulation, writing a JSON report plus
  per-tone and constellation CSVs.
* ``sweep``: run a grid of (N, theta, BW) cells into one CSV or JSON
  report, cells distributed over a process pool sized by
  ``SQUINTSIM_WORKERS``. A CSV report leaves a failed cell's figures blank
  and lists the failed cells with their errors in ``<out>_errors.csv``,
  written only when a cell fails (and removed, if an earlier run left it,
  when none does).

One parser serves all three commands. A flag is its config key with ``-``
for ``_`` (``--theta-deg`` sets ``theta_deg``) and overrides the config
file; its text is parsed by the config schema like a file value, so a bad
value reads the same from either. A sweep checks its base settings when
the config is built, before any cell runs; only what depends on a cell's
(N, theta, BW) fails per cell.

Exit codes: 0 success; 2 configuration error, a bad value from a flag, a
file or the environment (``SQUINTSIM_WORKERS``), a non-positive ``n_sub``
or ``m_group`` and an ``m_group`` that does not divide ``carriers``
included; 3 runtime failure, a failed report write included, and for
``simulate`` an ``n_sub`` that does not divide N (in a sweep only the cells
whose N it does not divide fail). All outputs are deterministic for a fixed
seed, whatever the output path (wall time goes to stderr, never into the
report files).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, analytic
from .config import ExperimentConfig, parse_config_file
from .dsp import derive_seed
from .errors import ConfigError, SquintSimError
from .txrx import SimReport, run_ofdm, run_single_carrier

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# argparse destinations that are not config keys; every other flag's
# destination is the config key it sets
_NON_CONFIG_ARGS = ("command", "config")

# (config key, help) of each flag; the flag is --<key> with '-' for '_'
_FLAGS = (
    ("n", "number of array elements"),
    ("theta_deg", "steering angle, degrees"),
    ("bw", "fractional signal bandwidth"),
    ("snr_db", "per-channel SNR in dB, or 'inf'"),
    ("carriers", "OFDM subcarrier count (omit for single carrier)"),
    ("cp_num", "cyclic prefix numerator k in k/M"),
    ("combiner", "spatial combiner: ps, idft or reduced"),
    ("seed", "base RNG seed"),
    ("out", "output path stem"),
    ("format", "sweep output format: csv or json"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squintsim",
        description="Beam-squint analysis and link simulation for wideband phased arrays",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "command",
        help="analyze (closed-form array analysis), simulate (run one link "
        "simulation) or sweep (run a grid of simulations)",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    for key, text in _FLAGS:
        parser.add_argument("--" + key.replace("_", "-"), help=text)
    return parser


def _resolve_config(args) -> ExperimentConfig:
    raw = parse_config_file(args.config) if args.config else {}
    raw.update(
        (key, value) for key, value in vars(args).items()
        if key not in _NON_CONFIG_ARGS and value is not None
    )
    return ExperimentConfig(raw)


def _json_text(payload: dict) -> str:
    # allow_nan=False: a report never carries NaN or Infinity, which are not JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(cfg: ExperimentConfig) -> int:
    report = analytic.report(cfg.array, cfg["bw"], cfg["carriers"])
    if report.coherent_bw is None:
        raise ConfigError(
            "analysis is undefined at broadside steering (theta = 0): "
            "coherent bandwidth and null positions are unbounded"
        )
    payload = {"config": cfg.echo(), "version": __version__, "analytic": dataclasses.asdict(report)}
    text = _json_text(payload)
    print(text)
    with open(f"{cfg['out']}.json", "w") as fh:
        fh.write(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _run_point(cfg: ExperimentConfig) -> SimReport:
    if cfg.ofdm is not None:
        report = run_ofdm(cfg.array, cfg.signal, cfg.ofdm, cfg["snr_db"], cfg.combiner)
    else:
        report = run_single_carrier(cfg.array, cfg.signal, cfg["snr_db"])
    report.config = cfg.echo()
    return report


def _csv_field(text: str) -> str:
    # csv.writer's minimal quoting: only a field holding a comma, a quote or
    # a line break is quoted, with its quotes doubled
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str, header: str, rows: str) -> None:
    """Write the header and the rows in one call, each line ended by CRLF
    as csv.writer ends them; ``rows`` holds its CRLFs already."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + rows)


def _crlf_rows(lines: Iterable[str]) -> str:
    return "".join(line + "\r\n" for line in lines)


def _fixed_rows(values: np.ndarray, decimals: int) -> str:
    """The rows of a 2-D float array as ``%.<decimals>f`` fields joined by
    ``,``, each row ended by CRLF: byte for byte what ``"%.*f"`` writes,
    formatted for all values at once (``decimals >= 1``).

    The digits come from ``n = rint(|x| 10^decimals)`` in float64, one
    ``floor(t / 10)`` per digit, which is exact for ``t < 2^53``, and the
    sign from ``np.signbit``, so -0.0 and tiny negatives read
    ``-0.000...`` as ``%`` writes them. Exactness rule: ``rint(y)`` is the
    correctly rounded decimal unless ``y`` lies within ``2 spacing(y)`` of
    a half-integer (an exact tie such as 2^-10, or a product that rounded
    onto the wrong side of one) or ``y >= 2^53``. A row holding such a
    value, or a non-finite one, is formatted by ``"%.*f"`` instead.
    """
    values = np.asarray(values, dtype=np.float64)
    scaled = np.abs(values)
    exact = scaled < 2.0**53 / 10.0**decimals  # False for NaN and inf
    scaled[~exact] = 0.0
    scaled *= 10.0**decimals
    exact &= np.abs(scaled - np.floor(scaled) - 0.5) > 2.0 * np.spacing(scaled)
    rows = exact.all(axis=1)
    text = _digit_rows(values[rows], np.rint(scaled[rows]), decimals)
    if rows.all():
        return text
    digit_lines = iter(text.splitlines(keepends=True))
    return "".join(
        next(digit_lines) if fast else ",".join("%.*f" % (decimals, v) for v in row) + "\r\n"
        for fast, row in zip(rows.tolist(), values.tolist())
    )


def _digit_rows(values: np.ndarray, digits: np.ndarray, decimals: int) -> str:
    # one uint8 row per character position of a right-aligned field: sign,
    # integer digits, point, fraction, then ',' or CRLF; zero bytes are blanks
    if not values.size:
        return ""
    n_rows, n_cols = values.shape
    n_digits = max(len("%d" % digits.max()), decimals + 1)
    width = n_digits + 4
    chars = np.zeros((width, values.size), dtype=np.uint8)
    chars[0] = np.signbit(values.ravel()) * ord("-")
    t = digits.ravel()
    for j in range(n_digits):  # least significant first
        q = np.floor(t / 10.0)
        digit = (t - 10.0 * q).astype(np.uint8) + ord("0")
        if j > decimals:  # blank the leading zeros of the integer part
            digit[t == 0.0] = 0
        chars[width - 3 - j - (j >= decimals)] = digit
        t = q
    chars[width - 3 - decimals] = ord(".")
    ends = chars[width - 2:].reshape(2, n_rows, n_cols)
    ends[0] = ord(",")
    ends[:, :, -1] = np.array([ord("\r"), ord("\n")], dtype=np.uint8)[:, None]
    flat = chars.T.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _write_simulate_outputs(report: SimReport, out: str) -> list[str]:
    written = []
    payload = {
        "config": report.config,
        "version": __version__,
        "overall_evm_db": report.overall_evm_db,
        "overall_ssir_db": report.overall_ssir_db,
        "analytic": dataclasses.asdict(report.analytic),
    }
    path = f"{out}.json"
    with open(path, "w") as fh:
        fh.write(_json_text(payload) + "\n")
    written.append(path)
    if report.per_tone is not None:
        path = f"{out}_tones.csv"
        _write_csv(path, "tone,evm_db,ssir_db", _crlf_rows(
            "%d,%.6f,%.6f" % (tone.tone_index, tone.evm_db, tone.ssir_db)
            for tone in report.per_tone
        ))
        written.append(path)
    path = f"{out}_constellation.csv"
    # rows of [re, im, ref_re, ref_im] as plain floats
    _write_csv(path, "re,im,ref_re,ref_im", _fixed_rows(report.constellation.view("f8"), 9))
    written.append(path)
    return written


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Run one link and write its reports. The summary on stderr gives EVM,
    SSIR, for OFDM the combining side (window or branch) and the frame
    length L, and the wall time."""
    start = time.monotonic()
    report = _run_point(cfg)
    for path in _write_simulate_outputs(report, cfg["out"]):
        print(path)
    chain = f", {report.combining} side, L {report.frame_length}" if report.combining else ""
    print(
        f"evm {report.overall_evm_db:.2f} dB, ssir {report.overall_ssir_db:.2f} dB{chain} "
        f"({time.monotonic() - start:.1f} s)",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_cell(values: dict) -> tuple[float | None, float | None, str]:
    try:
        report = _run_point(ExperimentConfig(values))
        return report.overall_ssir_db, report.overall_evm_db, ""
    except Exception as exc:  # one failed cell must not end the sweep
        return None, None, f"{type(exc).__name__}: {exc}"


_SWEPT = ("n", "theta_deg", "bw")


def sweep_cells(cfg: ExperimentConfig) -> list[dict]:
    """Expand the sweep grid into per-cell config values, row-major over
    (N, theta, BW), each with a seed derived from the base seed and the
    cell index. An axis left unset takes the base value."""
    axes = [cfg[f"sweep_{key}"] for key in _SWEPT]
    if not any(axes):
        raise ConfigError("sweep requires at least one sweep_* axis")
    base = {k: v for k, v in cfg.echo().items() if not k.startswith("sweep_")}
    grid = itertools.product(*(axis or [cfg[key]] for axis, key in zip(axes, _SWEPT)))
    return [
        dict(base, n=n, theta_deg=theta, bw=bw, seed=derive_seed(cfg["seed"], index))
        for index, (n, theta, bw) in enumerate(grid)
    ]


def _workers() -> int:
    raw = os.environ.get("SQUINTSIM_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"invalid value for SQUINTSIM_WORKERS: {raw!r} (must be an integer)"
        ) from None


def cmd_sweep(cfg: ExperimentConfig) -> int:
    start = time.monotonic()
    cells = sweep_cells(cfg)
    workers = _workers()
    rows = []
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = (pool.map if pool else map)(_sweep_cell, cells)
        for values, (ssir, evm, error) in zip(cells, results):
            rows.append(
                {
                    "n_elements": values["n"],
                    "theta_deg": values["theta_deg"],
                    "bw_frac": values["bw"],
                    "ssir_db": ssir,
                    "evm_db": evm,
                    "error": error,
                }
            )
            if error:
                print(
                    f"cell {values['n']}/{values['theta_deg']}/{values['bw']}: {error}",
                    file=sys.stderr,
                )
    out = cfg["out"]
    if cfg["format"] == "json":
        written = [f"{out}.json"]
        text = _json_text({"config": cfg.echo(), "version": __version__, "cells": rows})
        with open(written[0], "w") as fh:
            fh.write(text + "\n")
    else:
        written = [f"{out}.csv"]
        _write_csv(written[0], "n_elements,theta_deg,bw_frac,ssir_db,evm_db", _crlf_rows(
            "%d,%r,%r,%s,%s" % (
                row["n_elements"], row["theta_deg"], row["bw_frac"],
                "" if row["ssir_db"] is None else "%.6f" % row["ssir_db"],
                "" if row["evm_db"] is None else "%.6f" % row["evm_db"],
            )
            for row in rows
        ))
        failed = [row for row in rows if row["error"]]
        errors = f"{out}_errors.csv"
        if failed:
            # the failed cells and why, beside the report and never in it
            written.append(errors)
            _write_csv(errors, "n_elements,theta_deg,bw_frac,error", _crlf_rows(
                "%d,%r,%r,%s" % (row["n_elements"], row["theta_deg"], row["bw_frac"],
                                 _csv_field(row["error"]))
                for row in failed
            ))
        elif os.path.exists(errors):
            os.remove(errors)  # left by an earlier run: these cells all succeeded
    for path in written:
        print(path)
    print(f"{len(rows)} cells ({time.monotonic() - start:.1f} s)", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS.get(args.command)
    if command is None:
        parser.error(f"unknown command {args.command!r} (choose from {', '.join(_COMMANDS)})")
    try:
        return command(_resolve_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SquintSimError, OSError) as exc:  # OSError: a report could not be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
