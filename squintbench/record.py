"""Record the benchmark's reference table and FFT-length census.

Run from the repository root, at the commit whose outputs define correct:

    python3 squintbench/record.py

For every workload and size it runs one cycle per seed in ``SEEDS`` and
stores each figure's mean and seed-to-seed spread in ``reference.json``,
which ``check.py`` compares every benchmark operation against. It then
traces one full-size cycle of every workload and stores each distinct FFT
length, its factorisation and its call count in ``fft_census.json``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
from pathlib import Path

import check
import run
import workloads
from tracer import Tracer, fft_census

SEEDS = tuple(range(1, 17))
CENSUS_SEED = 1


def _reference(size: str, tmp: Path) -> dict:
    table = {}
    for workload in workloads.build(size).values():
        runner = run.Runner(workload, None, tmp)
        samples: dict[str, dict[str, list]] = {}
        for seed in SEEDS:
            for result in runner.cycle(seed, workload.workers):
                if result.problems:
                    raise run.HarnessError(f"{workload.name} seed {seed}: {result.problems}")
                for key, figures in result.figures.items():
                    entry = samples.setdefault(key, {"ssir_db": [], "evm_db": []})
                    for name, value in figures.items():
                        entry[name].append(value)
        table[workload.name] = {
            key: {
                **{name: statistics.fmean(v) for name, v in entry.items()},
                **{f"{name[:-3]}_spread_db": max(v) - min(v) for name, v in entry.items()},
            }
            for key, entry in samples.items()
        }
    return table


def _census(tmp: Path) -> dict:
    census = {}
    for workload in workloads.build("full").values():
        tracer = Tracer()
        ops = run.Runner(workload, None, tmp).cycle(CENSUS_SEED, 1, tracer)
        census[workload.name] = {"ops": len(ops), "lengths": fft_census(tracer.spans)}
    return census


def main() -> int:
    run._import_squintsim()
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        reference = {
            "note": "mean over config seeds of each clean SSIR and noisy EVM (dB); "
            "*_spread_db is max - min over those seeds",
            "seeds": list(SEEDS),
            "tolerance": {
                "ssir_floor_db": check.SSIR_TOL_DB,
                "evm_floor_db": check.EVM_TOL_DB,
                "spread_factor": check.SPREAD_FACTOR,
            },
            "sizes": {size: _reference(size, tmp) for size in workloads.SIZES},
        }
        census = {
            "note": "calls and transforms per traced cycle at config seed "
            f"{CENSUS_SEED}; a length with a prime factor above 11 is awkward. "
            "Flops (5 L log2 L) and bytes (32 L per transform) derived from these "
            "lengths are computed, not measured; the largest arrays (the per-element "
            "streams, ~32-41 MB) fit in a 300 MB L3, so no bandwidth figure is claimed",
            "workloads": _census(tmp),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, payload in (("reference.json", reference), ("fft_census.json", census)):
        with open(run.BENCH_DIR / name, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {run.BENCH_DIR / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
