"""In-memory span tracing of squintsim's layers, from outside the package.

While installed, the tracer replaces the public functions of each layer on
the names their callers look up (``squintsim.txrx.propagate``,
``squintsim.wavefront.awgn``, ``numpy.fft.fft`` ...) with wrappers that
record a span: name, layer, start, end, parent span and op id. Spans stay
in memory until the run writes them out; self times are derived afterwards
as a span's duration minus the durations of its direct children, so the
self times of all spans of an op add up to the op's root span.

Layers are the package modules plus the numpy kernels they call: ``cli``
(which includes ``config``), ``txrx``, ``combine``, ``wavefront``, ``dsp``,
``analytic``, ``fft`` and ``conv``. Code that is not wrapped counts as
self time of the nearest wrapped caller.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "txrx", "combine", "wavefront", "dsp", "analytic", "fft", "conv")
ROOT = "cli.main"
AWKWARD_PRIME = 11  # an FFT length with a larger prime factor is awkward


@dataclass
class Span:
    op: int
    name: str
    layer: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fft_probe(args, kwargs, result) -> dict:
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    length = result.shape[axis]
    return {"length": length, "transforms": result.size // length}


def _stream_probe(args, kwargs, result) -> dict:
    return {"stream_bytes": result.streams.nbytes}


def targets() -> list[tuple]:
    """(owner, attribute, layer, span name, probe) for every wrapped callable."""
    import squintsim.analytic as analytic
    import squintsim.cli as cli
    import squintsim.combine as combine
    import squintsim.txrx as txrx
    import squintsim.wavefront as wavefront

    return [
        (cli, "run_ofdm", "txrx", "txrx.run_ofdm", None),
        (cli, "run_single_carrier", "txrx", "txrx.run_single_carrier", None),
        (txrx, "ofdm_modulate", "txrx", "txrx.ofdm_modulate", None),
        (txrx, "propagate", "wavefront", "wavefront.propagate", _stream_probe),
        (txrx, "add_noise", "wavefront", "wavefront.add_noise", None),
        (txrx, "phase_align", "wavefront", "wavefront.phase_align", None),
        (txrx, "sync_mean_delay", "wavefront", "wavefront.sync", None),
        (wavefront, "awgn", "dsp", "dsp.awgn", None),
        (txrx, "measure_evm", "dsp", "dsp.measure_evm", None),
        (txrx, "qam_map", "dsp", "dsp.qam_map", None),
        (txrx, "rrc_taps", "dsp", "dsp.rrc_taps", None),
        (txrx, "full_idft_weights", "combine", "combine.weights", None),
        (txrx, "reduced_idft_weights", "combine", "combine.weights", None),
        (combine.CombinerSpec, "resolve_sizing", "combine", "combine.resolve_sizing", None),
        (analytic, "report", "analytic", "analytic.report", None),
        (analytic, "reduced_sizing", "analytic", "analytic.reduced_sizing", None),
        (combine, "reduced_sizing", "analytic", "analytic.reduced_sizing", None),
        (np.fft, "fft", "fft", "fft", _fft_probe),
        (np.fft, "ifft", "fft", "fft", _fft_probe),
        (np, "convolve", "conv", "conv", None),
    ]


class Tracer:
    """Collects spans of traced ops in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def call(self, layer: str, name: str, fn, args, kwargs, probe=None):
        index = len(self.spans)
        span = Span(self._op, name, layer, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if probe is not None:
            span.attrs = probe(args, kwargs, result)
        return result

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as the root span of op ``op_id``."""
        self._op = op_id
        return self.call("cli", ROOT, fn, args, {})

    def _wrap(self, layer, name, fn, probe):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, probe)

        return wrapper

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer, name, probe in targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, name, original, probe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def dump(self) -> list[dict]:
        return [
            {
                "op": s.op,
                "name": s.name,
                "layer": s.layer,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self": self_s,
                **(s.attrs or {}),
            }
            for s, self_s in zip(self.spans, self.self_times())
        ]


def factorize(n: int) -> list[int]:
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def factor_text(n: int) -> str:
    factors = factorize(n)
    return "*".join(
        f"{p}^{factors.count(p)}" if factors.count(p) > 1 else str(p)
        for p in sorted(set(factors))
    )


def is_awkward(n: int) -> bool:
    return max(factorize(n), default=1) > AWKWARD_PRIME


def fft_census(spans: list[Span]) -> dict:
    """Every distinct FFT length with its factorisation, whether it is
    awkward, its call count and its transform count (a batched call over
    an axis makes one transform per row)."""
    census: dict[int, dict] = {}
    for span in spans:
        if span.layer != "fft":
            continue
        length = span.attrs["length"]
        entry = census.setdefault(
            length,
            {"factors": factor_text(length), "awkward": is_awkward(length),
             "calls": 0, "transforms": 0},
        )
        entry["calls"] += 1
        entry["transforms"] += span.attrs["transforms"]
    return {str(k): census[k] for k in sorted(census)}


def fft_flops(length: int, transforms: int) -> float:
    """Computed flops: 5 L log2 L per transform."""
    return 5.0 * length * math.log2(length) * transforms if length > 1 else 0.0


def fft_bytes(length: int, transforms: int) -> float:
    """Computed bytes: one complex128 array read and one written per transform."""
    return 32.0 * length * transforms
