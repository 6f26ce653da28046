"""Workloads of the squintsim benchmark.

A workload is a cycle of ``squintsim`` CLI operations (``simulate`` or
``sweep`` calls). Each cycle gets one config seed drawn from the workload
seed, so the same workload seed always gives the same inputs; the program
itself only ever sees the generated config files.

Two sizes exist: ``full`` is what the benchmark measures, ``tiny`` is the
same shape shrunk for the harness self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``squintsim <command> --config <file> --out <stem>``."""

    label: str
    command: str
    config: dict
    symbols: int  # QAM symbols the call demodulates, from the input sizes
    cells: int  # (N, theta, BW) points the call simulates

    def with_seed(self, seed: int) -> "Op":
        return replace(self, config={**self.config, "seed": seed})

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]  # one cycle
    workers: int = 1  # SQUINTSIM_WORKERS for untraced calls
    # (higher, lower) label pairs whose clean SSIR must keep this order
    ordering: tuple[tuple[str, str], ...] = ()

    def cycle(self, seed: int) -> list[Op]:
        return [op.with_seed(seed) for op in self.ops]


def _simulate(label: str, config: dict) -> Op:
    if "carriers" in config:
        symbols = config["carriers"] * config["n_ofdm_symbols"]
    else:
        symbols = config["n_symbols"]
    return Op(label, "simulate", config, symbols, 1)


def _sweep(label: str, config: dict) -> Op:
    cells = len(config["sweep_n"]) * len(config["sweep_theta_deg"]) * len(config["sweep_bw"])
    if "carriers" in config:
        per_cell = config["carriers"] * config["n_ofdm_symbols"]
    else:
        per_cell = config["n_symbols"]
    text = {k: ",".join(map(str, v)) if isinstance(v, list) else v for k, v in config.items()}
    return Op(label, "sweep", text, cells * per_cell, cells)


def _ofdm_combiners(size: str) -> Workload:
    if size == "full":
        base = dict(n=32, theta_deg=45, bw=0.2, carriers=128, n_ofdm_symbols=60,
                    oversample=8, snr_db=20)
    else:
        base = dict(n=32, theta_deg=45, bw=0.2, carriers=32, n_ofdm_symbols=8,
                    oversample=8, snr_db=20)
    return Workload(
        "ofdm_combiners",
        "long awkward-length OFDM frames: full-frame FFTs in wavefront dominate, "
        "all three combiners and both clean and noisy passes run",
        tuple(_simulate(c, {**base, "combiner": c}) for c in ("ps", "idft", "reduced")),
        ordering=(("idft", "ps"), ("reduced", "ps")),
    )


def _sc_link(size: str) -> Workload:
    if size == "full":
        config = dict(n=32, theta_deg=30, bw=0.1, n_symbols=10_000, snr_db=20)
    else:
        config = dict(n=8, theta_deg=30, bw=0.1, n_symbols=500, snr_db=20)
    return Workload(
        "sc_link",
        "single-carrier link: same wavefront path plus RRC convolution, "
        "bypasses combine and OFDM demodulation",
        (_simulate("sc", config),),
    )


def _ssir_sweep(size: str) -> Workload:
    if size == "full":
        grid = dict(sweep_n=[8, 16, 32], sweep_theta_deg=[15, 30, 45, 60],
                    sweep_bw=[0.05, 0.1, 0.2])
        sc, ofdm = dict(n_symbols=2000), dict(carriers=64, n_ofdm_symbols=40)
    else:
        grid = dict(sweep_n=[8, 16], sweep_theta_deg=[30], sweep_bw=[0.1])
        sc, ofdm = dict(n_symbols=300), dict(carriers=16, n_ofdm_symbols=8)
    common = dict(snr_db="inf", format="json", **grid)
    return Workload(
        "ssir_sweep",
        "many short clean sweep cells over a 2-worker pool: cli, pool, config "
        "and analytic overhead weigh most and no noise is drawn",
        (
            _sweep("sc", {**common, **sc}),
            _sweep("ofdm", {**common, **ofdm, "combiner": "reduced"}),
        ),
        workers=2,
    )


def build(size: str = "full") -> dict[str, Workload]:
    """All workloads at one size, keyed by name."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    return {w.name: w for w in (_ofdm_combiners(size), _sc_link(size), _ssir_sweep(size))}
