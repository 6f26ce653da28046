"""Output checks for the squintsim benchmark.

Every operation's report files are read back and checked:

* every number in them is finite;
* each clean SSIR is close to the reference table (``reference.json``,
  recorded by ``record.py`` at the seed commit as the mean over several
  config seeds): within ``SPREAD_FACTOR`` times the entry's recorded
  seed-to-seed range, and never tighter than ``SSIR_TOL_DB``;
* each noisy EVM is close to the table in the same way, with the wider
  floor ``EVM_TOL_DB`` because another seed draws another noise
  realisation;
* within one cycle, the workload's SSIR ordering holds (on
  ``ofdm_combiners``: the IDFT combiners sit above the phase-shifter sum).

The seed-to-seed range differs a lot between entries (a few tenths of a dB
for the single-carrier link, a few dB for clean OFDM cells with SSIR above
40 dB), hence a tolerance per entry.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SSIR_TOL_DB = 1.0
EVM_TOL_DB = 1.5
SPREAD_FACTOR = 2.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Outputs:
    """What one operation wrote, reduced to the checked figures."""

    figures: dict = field(default_factory=dict)  # key -> {"ssir_db", "evm_db"}
    problems: list = field(default_factory=list)
    report_bytes: int = 0


def load_reference(size: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["sizes"][size]


def _nonfinite(value, path: str = "") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nonfinite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [path]
    return []


def _load_json(path: Path, out: Outputs):
    text = path.read_text()
    out.report_bytes += len(text.encode())
    try:
        payload = json.loads(text)
    except ValueError as exc:
        out.problems.append(f"{path.name}: {exc}")
        return None
    bad = _nonfinite(payload)
    if bad:
        out.problems.append(f"{path.name}: non-finite values at {bad[:3]}")
    return payload


def _check_csv(path: Path, out: Outputs):
    out.report_bytes += path.stat().st_size
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        try:
            values = [float(v) for v in row]
        except ValueError:
            out.problems.append(f"{path.name}: unparsable row {row}")
            return
        if not all(math.isfinite(v) for v in values):
            out.problems.append(f"{path.name}: non-finite row {row}")
            return
    if not rows:
        out.problems.append(f"{path.name}: no rows")


def cell_key(label: str, cell: dict) -> str:
    return f"{label}:{cell['n_elements']}:{cell['theta_deg']:g}:{cell['bw_frac']:g}"


def read_outputs(command: str, label: str, stem: Path) -> Outputs:
    """Read the files one call wrote and collect its figures.

    A simulate call yields one figure keyed by ``label``; a sweep call one
    per cell keyed by :func:`cell_key`.
    """
    out = Outputs()
    report = Path(f"{stem}.json")
    if not report.is_file():
        out.problems.append(f"missing {report.name}")
        return out
    payload = _load_json(report, out)
    if payload is None:
        return out
    try:
        if command == "simulate":
            out.figures[label] = {
                "ssir_db": payload["overall_ssir_db"],
                "evm_db": payload["overall_evm_db"],
            }
            for suffix in ("_tones.csv", "_constellation.csv"):
                path = Path(f"{stem}{suffix}")
                if path.is_file():
                    _check_csv(path, out)
                elif suffix == "_constellation.csv" or "carriers" in payload["config"]:
                    out.problems.append(f"missing {path.name}")
        else:
            for cell in payload["cells"]:
                if cell["error"]:
                    out.problems.append(f"cell {cell_key(label, cell)}: {cell['error']}")
                    continue
                out.figures[cell_key(label, cell)] = {
                    "ssir_db": cell["ssir_db"],
                    "evm_db": cell["evm_db"],
                }
    except (KeyError, TypeError) as exc:
        out.problems.append(f"{report.name}: malformed report ({exc!r})")
    return out


def compare(out: Outputs, reference: dict, noisy: bool):
    """Append a problem for every figure off its reference entry."""
    for key, figures in out.figures.items():
        ref = reference.get(key)
        if ref is None:
            out.problems.append(f"{key}: no reference entry")
            continue
        checks = [("ssir_db", SSIR_TOL_DB)]
        if noisy:
            checks.append(("evm_db", EVM_TOL_DB))
        for name, floor in checks:
            tol = max(floor, SPREAD_FACTOR * ref[f"{name[:-3]}_spread_db"])
            value = figures[name]
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                out.problems.append(f"{key}: {name} = {value!r}")
            elif abs(value - ref[name]) > tol:
                out.problems.append(
                    f"{key}: {name} {value:.3f} is off the reference "
                    f"{ref[name]:.3f} by more than {tol:.3f} dB"
                )


def ordering_problems(ssir: dict, ordering) -> list[tuple[str, str]]:
    """(label, problem) for each broken SSIR order of one cycle; ``ssir``
    maps each label to its clean SSIR in dB. The problem is charged to the
    label that should sit higher."""
    problems = []
    for higher, lower in ordering:
        if higher in ssir and lower in ssir and not ssir[higher] > ssir[lower]:
            problems.append((higher, (
                f"SSIR of {higher} ({ssir[higher]:.2f} dB) is not above "
                f"{lower} ({ssir[lower]:.2f} dB)"
            )))
    return problems
