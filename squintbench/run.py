"""Benchmark of squintsim's ``simulate`` and ``sweep`` commands.

Run from the repository root:

    python3 squintbench/run.py --workload ofdm_combiners --seed 1 --seconds 30 --trace 0

The benchmark drives ``squintsim.cli.main`` in process, from the ``src``
tree next to this directory, with config files generated from ``--seed``
and outputs in a temporary directory under ``.bench_out/``. Operations run
in a closed loop, one after another, in whole cycles of the workload
(see ``workloads.py``) for about ``--seconds``: no cycle starts that would
likely end past it, but at least one runs. Every operation's
outputs are checked (see ``check.py``); a failed check counts as a failed
operation and never stops the run.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of several fresh interpreters that each
  import squintsim, build one cycle of the workload's configs and, for the
  sweep, start its process pool (``setup_probe.py``);
* ``op_p50_s``: median wall seconds per operation (one CLI call); each op
  of the cycle is taken at its own median and the cycle's mean reported;
* ``cpu_per_op_s``: the same for user+sys CPU seconds, pool children
  included;
* ``symbols_per_s``: QAM symbols of the configured inputs demodulated per
  wall second of a median cycle; counted from the input sizes, so frame
  padding does not inflate it;
* ``cells_per_s``: (N, theta, BW) points completed per wall second of a
  median cycle; a ``simulate`` call is one point, a sweep call one per cell;
* ``peak_rss_mb``: peak resident set of this process or any child.

``failed_frac`` (failed over attempted operations) is printed with them;
the final JSON line carries the same counts as ``attempted`` and ``failed``.

``--trace 1`` reports the per-layer metrics instead. Each cycle runs the
workload untraced and serially, untraced on its pool (sweep only), and
traced and serially, so every span stays in this process (``tracer.py``).
Per-layer figures are means per traced operation; ``trace.overhead_frac``
compares traced with untraced serial operations.

One untimed warm-up operation runs before timing, so numpy's FFT set-up
and the interpreter's caches are warm. The last line of standard output is
the result as one JSON object; the detail (samples, environment, FFT
census, failures) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import check
import workloads
from tracer import LAYERS, ROOT as ROOT_SPAN, Tracer, fft_bytes, fft_census, fft_flops, is_awkward

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "symbols_per_s": "1/s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fft.calls": "calls/op",
    "fft.s": "s/op",
    "fft.awkward_calls": "calls/op",
    "fft.gflop_computed": "GFLOP/op",
    "fft.gb_computed": "GB/op",
    "wavefront.propagate_s": "s/op",
    "wavefront.sync_s": "s/op",
    "wavefront.phase_align_s": "s/op",
    "wavefront.add_noise_s": "s/op",
    "wavefront.calls": "calls/op",
    "wavefront.self_s": "s/op",
    "wavefront.stream_mb": "MB",
    "mem.peak_traced_mb": "MB",
    "dsp.awgn_s": "s/op",
    "dsp.rrc_taps_s": "s/op",
    "dsp.measure_evm_s": "s/op",
    "dsp.measure_evm_calls": "calls/op",
    "dsp.qam_map_s": "s/op",
    "dsp.self_s": "s/op",
    "combine.weights_s": "s/op",
    "combine.weights_calls": "calls/op",
    "combine.self_s": "s/op",
    "txrx.self_s": "s/op",
    "txrx.ofdm_modulate_s": "s/op",
    "conv.calls": "calls/op",
    "conv.s": "s/op",
    "cli.self_s": "s/op",
    "cli.report_bytes": "B/op",
    "cli.pool_efficiency": "frac",
    "analytic.report_s": "s/op",
    "analytic.report_calls": "calls/op",
    "analytic.self_s": "s/op",
    "trace.op_s": "s/op",
    "trace.overhead_frac": "frac",
}


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class OpResult:
    label: str
    wall: float
    cpu: float
    symbols: int  # of the op's input; counted only if the op succeeds
    cells: int
    figures: dict
    problems: list = field(default_factory=list)
    report_bytes: int = 0
    peak_traced: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Runner:
    """Runs single CLI operations and checks what they wrote."""

    def __init__(self, workload, reference: dict | None, tmp: Path):
        from squintsim import cli

        self.main = cli.main
        self.workload = workload
        self.reference = reference
        self.tmp = tmp
        self.count = 0
        self.results: list[OpResult] = []

    def run(self, op, workers: int, tracer=None, trace_memory=False) -> OpResult:
        self.count += 1
        stem = self.tmp / f"{self.count:05d}-{op.label}"
        config = self.tmp / f"{stem.name}.cfg"
        config.write_text(op.config_text())
        argv = [op.command, "--config", str(config), "--out", str(stem)]
        os.environ["SQUINTSIM_WORKERS"] = str(workers)
        problems = []
        sink = io.StringIO()
        if trace_memory:
            tracemalloc.start()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = self.main(argv)
                else:
                    with tracer.installed():
                        code = tracer.run_op(self.count, self.main, argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a stop
            code = None
            problems.append(f"raised {exc!r}")
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        peak = 0
        if trace_memory:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if code != 0 and not problems:
            tail = sink.getvalue().strip().splitlines()[-1:] or [""]
            problems.append(f"exit code {code}: {tail[0]}")

        outputs = check.read_outputs(op.command, op.label, stem)
        if self.reference is not None:
            noisy = str(op.config.get("snr_db", "inf")) != "inf"
            check.compare(outputs, self.reference, noisy)
        for path in self.tmp.glob(f"{stem.name}*"):
            path.unlink()
        problems += outputs.problems
        result = OpResult(op.label, wall, cpu, op.symbols, op.cells, outputs.figures,
                          problems, outputs.report_bytes, peak)
        self.results.append(result)
        return result

    def cycle(self, seed: int, workers: int, tracer=None, trace_memory=False) -> list[OpResult]:
        results = [
            self.run(op, workers, tracer, trace_memory) for op in self.workload.cycle(seed)
        ]
        ssir = {r.label: r.figures[r.label]["ssir_db"] for r in results if r.label in r.figures}
        for label, problem in check.ordering_problems(ssir, self.workload.ordering):
            for r in results:
                if r.label == label:
                    r.problems.append(problem)
        return results


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, size: str) -> list[float]:
    """Wall seconds of each fresh set-up process."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), size]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return times


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _closed_loop(rng: random.Random, seconds: float, body):
    """Call ``body(seed)`` once per cycle, each with a fresh seed, and stop
    before a cycle as long as the last one would end past ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body(rng.getrandbits(31))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _cycle_median(workload, results, attr: str = "wall") -> float:
    """One cycle's cost, taking each op of the cycle at the median over the
    results of the same op; ops of one cycle may differ a lot in cost, so a
    median over all of them would fall between the kinds."""
    by_label: dict[str, list[float]] = {}
    for r in results:
        by_label.setdefault(r.label, []).append(getattr(r, attr))
    return sum(statistics.median(by_label[op.label]) for op in workload.ops)


def untraced(runner: Runner, rng: random.Random, seconds: float):
    workload = runner.workload
    cycles = []
    _closed_loop(rng, seconds, lambda seed: cycles.append(runner.cycle(seed, workload.workers)))
    ops = [r for c in cycles for r in c]
    cycle_wall = _cycle_median(workload, ops)
    per_cycle = len(workload.ops)
    metrics = {
        "op_p50_s": cycle_wall / per_cycle,
        "cpu_per_op_s": _cycle_median(workload, ops, "cpu") / per_cycle,
        "symbols_per_s": sum(r.symbols for r in ops if r.ok) / len(cycles) / cycle_wall,
        "cells_per_s": sum(r.cells for r in ops if r.ok) / len(cycles) / cycle_wall,
        "peak_rss_mb": _peak_rss_mb(),
    }
    samples = {"ops": len(ops), "cycles": len(cycles)}
    return metrics, samples, {}


def traced(runner: Runner, rng: random.Random, seconds: float):
    tracer = Tracer()
    workload = runner.workload
    workers = workload.workers
    serial, parallel, traced_ops = [], [], []

    def body(seed):
        serial.extend(runner.cycle(seed, 1))
        if workers > 1:
            parallel.extend(runner.cycle(seed, workers))
        traced_ops.extend(runner.cycle(seed, 1, tracer))

    _closed_loop(rng, seconds, body)
    if workers == 1:
        parallel = serial
    # tracemalloc slows every Python allocation, so memory gets a cycle of its own
    memory = runner.cycle(rng.getrandbits(31), 1, trace_memory=True)

    n = len(traced_ops)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    fft = {"awkward": 0, "flops": 0.0, "bytes": 0.0}
    stream_bytes = 0
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        layer_self[span.layer] += self_s
        inclusive[span.name] += span.duration
        calls[span.name] += 1
        if span.layer == "fft":
            length, transforms = span.attrs["length"], span.attrs["transforms"]
            fft["awkward"] += is_awkward(length)
            fft["flops"] += fft_flops(length, transforms)
            fft["bytes"] += fft_bytes(length, transforms)
        elif span.name == "wavefront.propagate":
            stream_bytes = max(stream_bytes, span.attrs["stream_bytes"])

    def per_op(value):
        return value / n

    metrics = {
        "fft.calls": per_op(calls["fft"]),
        "fft.s": per_op(layer_self["fft"]),
        "fft.awkward_calls": per_op(fft["awkward"]),
        "fft.gflop_computed": per_op(fft["flops"] / 1e9),
        "fft.gb_computed": per_op(fft["bytes"] / 1e9),
        "wavefront.propagate_s": per_op(inclusive["wavefront.propagate"]),
        "wavefront.sync_s": per_op(inclusive["wavefront.sync"]),
        "wavefront.phase_align_s": per_op(inclusive["wavefront.phase_align"]),
        "wavefront.add_noise_s": per_op(inclusive["wavefront.add_noise"]),
        "wavefront.calls": per_op(sum(v for k, v in calls.items() if k.startswith("wavefront."))),
        "wavefront.self_s": per_op(layer_self["wavefront"]),
        "wavefront.stream_mb": stream_bytes / 1e6,
        "mem.peak_traced_mb": max(r.peak_traced for r in memory) / 1e6,
        "dsp.awgn_s": per_op(inclusive["dsp.awgn"]),
        "dsp.rrc_taps_s": per_op(inclusive["dsp.rrc_taps"]),
        "dsp.measure_evm_s": per_op(inclusive["dsp.measure_evm"]),
        "dsp.measure_evm_calls": per_op(calls["dsp.measure_evm"]),
        "dsp.qam_map_s": per_op(inclusive["dsp.qam_map"]),
        "dsp.self_s": per_op(layer_self["dsp"]),
        "combine.weights_s": per_op(inclusive["combine.weights"]),
        "combine.weights_calls": per_op(calls["combine.weights"]),
        "combine.self_s": per_op(layer_self["combine"]),
        "txrx.self_s": per_op(layer_self["txrx"]),
        "txrx.ofdm_modulate_s": per_op(inclusive["txrx.ofdm_modulate"]),
        "conv.calls": per_op(calls["conv"]),
        "conv.s": per_op(layer_self["conv"]),
        "cli.self_s": per_op(layer_self["cli"]),
        "cli.report_bytes": per_op(sum(r.report_bytes for r in traced_ops)),
        "cli.pool_efficiency": sum(r.wall for r in serial)
        / (workers * sum(r.wall for r in parallel)),
        "analytic.report_s": per_op(inclusive["analytic.report"]),
        "analytic.report_calls": per_op(calls["analytic.report"]),
        "analytic.self_s": per_op(layer_self["analytic"]),
        "trace.op_s": per_op(inclusive.get(ROOT_SPAN, 0.0)),
        "trace.overhead_frac": _cycle_median(workload, traced_ops)
        / _cycle_median(workload, serial) - 1.0,
    }
    samples = {
        "traced_ops": n,
        "untraced_serial_ops": len(serial),
        "untraced_pool_ops": len(parallel) if workers > 1 else 0,
        "spans": len(tracer.spans),
    }
    extra = {
        "fft_census": fft_census(tracer.spans),
        "fft_note": "flops (5 L log2 L) and bytes (32 L per transform) are computed "
        "from the lengths, not measured; the largest arrays (the per-element "
        "streams, ~32-41 MB) fit in a 300 MB L3, so no bandwidth figure is claimed",
        "layer_self_s": {k: per_op(v) for k, v in layer_self.items()},
        "spans_file": str(_write_spans(tracer, runner.workload.name)),
    }
    return metrics, samples, extra


def _write_spans(tracer, workload: str) -> Path:
    path = OUT_DIR / f"spans-{workload}.json"
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return path.relative_to(ROOT)


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "workload_seed": seed,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.build()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload for the harness self-test")
    return parser.parse_args(argv)


def _import_squintsim():
    if not (SRC / "squintsim" / "__init__.py").is_file():
        raise HarnessError(f"no squintsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import squintsim

    if Path(squintsim.__file__).resolve().parent != SRC / "squintsim":
        raise HarnessError(f"imported squintsim from {squintsim.__file__}, not {SRC}")


def run(args) -> dict:
    _import_squintsim()
    workload = workloads.build(args.size)[args.workload]
    reference = check.load_reference(args.size)[workload.name]
    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(workload.name, args.seed, args.size)
    tmp = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR))
    try:
        runner = Runner(workload, reference, tmp)
        rng = random.Random(args.seed)
        runner.run(workload.cycle(rng.getrandbits(31))[0], workload.workers)  # warm-up
        measure = traced if args.trace else untraced
        metrics, samples, extra = measure(runner, rng, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        samples["setup_probes"] = len(setup)
    units = PER_LAYER if args.trace else END_TO_END
    attempted = len(runner.results)
    failed = sum(not r.ok for r in runner.results)
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "size": args.size,
        "trace": args.trace,
        "environment": environment(args.seed),
        "samples": samples,
        "failed_frac": failed / attempted,
        "failures": [f"{r.label}: {p}" for r in runner.results for p in r.problems],
        "op_walls_s": [r.wall for r in runner.results],
        "setup_walls_s": setup,
        **extra,
    }
    detail_path = OUT_DIR / f"result-{workload.name}-trace{args.trace}.json"
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1)
    for name, unit in units.items():
        print(f"{name:26s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_frac':26s} {failed / attempted:14.6g} frac  ({failed} of {attempted} ops)")
    print(f"detail: {detail_path.relative_to(ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result = run(args)
    except HarnessError as exc:
        print(f"squintbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
