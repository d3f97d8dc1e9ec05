"""In-memory spans recorded around the benchmark's calls into repi.

A span is (name, start_ns, end_ns, parent, op): ``name`` is
``"<layer>.<call>"``, ``parent`` indexes the enclosing span (-1 at top
level) and ``op`` is the operation the call served. Counters record work
done at the same boundaries. Nothing here reaches into the package: the
spans sit in the benchmark's own code, around public functions.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

#: the package modules the per-layer metrics are reported for
LAYERS = ("verify", "optimizer", "bounds", "core", "cli", "filters", "diagnostics")


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def durations(self, name: str) -> np.ndarray:
        """Wall seconds of every span called ``name``, children included."""
        return np.array([(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == name])

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        child = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s[0]] += (s[2] - s[1] - child[i]) * 1e-9
        return dict(out)

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_seconds().items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + secs
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent, tr.op])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter_ns()
        tr._stack.pop()


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean()) * scale if values.size else 0.0


def _quantile(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values.size else 0.0


def layer_metrics(tr: Tracer, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``*_s`` and ``*.self_s`` are totals over the traced phase; ``*_ms`` and
    ``*_us`` are means per call unless named as a percentile. A layer the
    workload never calls reads 0.
    """
    own = tr.self_seconds()
    certify = tr.durations("verify.certify")
    weights = tr.durations("optimizer.weights")
    top = tr.durations("diagnostics.max_eigenvalue")
    secular = tr.durations("diagnostics.secular")
    instances = tr.counts["verify.instances"]
    constants = tr.counts["bounds.constants"]
    out = {
        "verify.convolve_s": (own.get("verify.convolve", 0.0), "s"),
        "verify.convolve_samples": (tr.counts["verify.convolve_samples"], "count"),
        "verify.construct_s": (own.get("verify.construct", 0.0), "s"),
        "verify.instance_mb": (
            tr.counts["verify.instance_bytes"] / 2**20 / instances if instances else 0.0,
            "MiB",
        ),
        "verify.entropy_s": (own.get("verify.entropy", 0.0), "s"),
        "verify.certify_ms_p50": (_quantile(certify, 50, 1e3), "ms"),
        "verify.certify_ms_p90": (_quantile(certify, 90, 1e3), "ms"),
        "optimizer.weights_ms_p50": (_quantile(weights, 50, 1e3), "ms"),
        "optimizer.weights_ms_p90": (_quantile(weights, 90, 1e3), "ms"),
        "optimizer.ratios_total": (tr.counts["optimizer.ratios"], "count"),
        "bounds.log_constant_ms": (_mean(tr.durations("bounds.log_constant"), 1e3), "ms"),
        "bounds.constants_us": (
            float(tr.durations("bounds.constants").sum()) * 1e6 / constants if constants else 0.0,
            "us",
        ),
        "core.validate_ms": (_mean(tr.durations("core.validate"), 1e3), "ms"),
        "cli.parse_ms": (_mean(tr.durations("cli.parse"), 1e3), "ms"),
        "cli.compute_ms": (_mean(tr.durations("cli.compute"), 1e3), "ms"),
        "cli.write_ms": (_mean(tr.durations("cli.write"), 1e3), "ms"),
        "filters.bounds_ms": (_mean(tr.durations("filters.bounds"), 1e3), "ms"),
        "diagnostics.hessian_ms": (_mean(tr.durations("diagnostics.hessian"), 1e3), "ms"),
        # max_eigenvalue runs the dense route and the secular cross-check;
        # the secular route is timed on its own, so the rest is the dense one
        "diagnostics.dense_ms": (
            (_mean(top, 1e3) - _mean(secular, 1e3)) if top.size else 0.0,
            "ms",
        ),
        "diagnostics.secular_ms": (_mean(secular, 1e3), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    for layer, secs in tr.layer_self_seconds().items():
        if layer in LAYERS:
            out[f"{layer}.self_s"] = (secs, "s")
    return out
