"""One fresh interpreter's set-up for a workload, timed from outside by run.py.

Imports squintsim from the ``src`` tree next to this directory, builds one
cycle of the workload's configs (expanding a sweep's cells) and, for a
workload that runs on a process pool, starts that pool and waits for its
workers, then shuts it down.

    python3 squintbench/setup_probe.py WORKLOAD SEED SIZE
"""

import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from squintsim import cli  # noqa: E402
from squintsim.config import ExperimentConfig  # noqa: E402

import workloads  # noqa: E402


def main(argv) -> int:
    name, seed, size = argv
    workload = workloads.build(size)[name]
    for op in workload.cycle(int(seed)):
        cfg = ExperimentConfig({k: str(v) for k, v in op.config.items()})
        cfg.array, cfg.signal, cfg.ofdm, cfg.combiner
        if op.command == "sweep":
            cli.sweep_cells(cfg)
    if workload.workers > 1:
        with ProcessPoolExecutor(max_workers=workload.workers) as pool:
            list(pool.map(abs, range(workload.workers)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
