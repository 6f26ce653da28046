"""Harness self-test: every workload at the tiny size, untraced and traced.

Run from the repository root:

    python3 squintbench/selftest.py

Each run must exit 0 and end with the result JSON line; its metrics must
be exactly the ones ``BENCHMARK.json`` names (end-to-end untraced,
per-layer traced), no operation may fail, and in the traced run the layer
self times must add up to the traced op time. Last, the benchmark must
exit non-zero without a result in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
LAYER_SELF = (
    "cli.self_s", "txrx.self_s", "combine.self_s", "wavefront.self_s",
    "dsp.self_s", "analytic.self_s", "fft.s", "conv.s",
)


def _run(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _check(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(spec, ROOT, workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {sorted(got)} differ from {sorted(expected)}")
    if "failed_frac" not in proc.stdout:
        problems.append(f"{where}: failed_frac not printed")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    if trace and not problems:
        total = sum(metrics[name] for name in LAYER_SELF)
        if abs(total - metrics["trace.op_s"]) > 1e-6 * metrics["trace.op_s"]:
            problems.append(f"{where}: layer self times sum to {total}, op is "
                            f"{metrics['trace.op_s']}")
    return problems


def _check_bare(spec: dict) -> list[str]:
    """Without the program next to it, the benchmark must fail cleanly."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = _check(spec, workload["name"], trace)
            print(f"{workload['name']} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    found = _check_bare(spec)
    print(f"bare directory: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
