"""Layered benchmark for repi.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs one workload (corpus, solver, cli or hessian; see workloads.py) as a
closed loop, one operation at a time, for ``--seconds`` seconds of
operation time, and checks every output outside the timed region. Run from
the repository root: the program is imported from ``src/`` of the same
tree, never from an installed copy.

The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` the
run measures half its time untraced and half traced and reports the
per-layer ones. The line before it carries the run metadata and the error
rate. Each run also writes ``.bench_out/<workload>-seed<n>-trace<t>.json``
with the same record plus, when traced, every span.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fresh interpreters timed for setup_s, spread over the timed phase
#: (outside the timed region) after one untimed warm start
SETUP_REPEATS = 7

#: seconds one reference pass takes at the reference speed, per kind of
#: kernel (about its median on a shared 2-core x86_64 host, Python 3.11, numpy 2.4)
REFERENCE_S = {"interpreter": 0.010, "array": 0.009}

#: reference passes per sample, and operation seconds between samples
REFERENCE_PASSES = 2
REFERENCE_EVERY_S = 0.25


def load_program():
    """Import repi from this tree's src/; raise ImportError if it is not there."""
    if not (SRC / "repi" / "__init__.py").is_file():
        raise ImportError(f"no repi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repi

    if Path(repi.__file__).resolve().parent != SRC / "repi":
        raise ImportError(f"repi imported from {repi.__file__}, not from {SRC}")
    return repi


def spawn_setup() -> float:
    """Seconds from spawning a fresh interpreter until ``import repi`` returns.

    Not scaled to the reference speed: spawn and import time drift with
    the host's process and memory handling, which neither reference
    kernel follows.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import repi; "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if line != b"ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed with code {child.returncode}")
    return elapsed


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_sha() -> str:
    """HEAD of the tree, read from .git; "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def metadata(args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Reference:
    """A fixed kernel timed between operations to track the machine's speed.

    On a shared machine the speed of a core drifts by tens of percent over
    seconds to minutes, and every operation drifts with it. Interpreter-bound
    and array-bound code drift differently, so the kernel does the kind of
    work its workload does: Python float arithmetic with calls plus
    small-array numpy operations (``"interpreter"``), or a direct
    convolution and a real transform of 4096 samples (``"array"``). It
    calls no repi code. Operations between two samples are scaled to the
    reference speed, at which one pass takes ``REFERENCE_S[kind]``.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self._a, self._b = rng.random(4096), rng.random(4096)
        self._kernel = {"interpreter": self._interpreter, "array": self._array}[kind]

    @staticmethod
    def _companion(x: float, c: float) -> float:
        return 2.0 * c * x * (1.5 - x) / (1.5 + math.sqrt(2.25 * (1.0 - c) + c * (2.0 * x - 1.5) ** 2))

    def _interpreter(self) -> None:
        total = 0.0
        for i in range(20_000):
            total += self._companion(0.3 + i * 1e-6, 0.5)
        m = np.eye(16)
        for _ in range(300):
            row = 0.6 * m[1, :] - 0.8 * m[2, :]
            m[1, :] = row
            total += float(m[1, 2])

    def _array(self) -> None:
        for _ in range(2):
            np.convolve(self._a, self._b)
            np.fft.irfft(np.fft.rfft(self._a, 1 << 15))

    def passes(self, count: int = REFERENCE_PASSES) -> list[float]:
        out = []
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            out.append(time.perf_counter() - start)
        return out


class Phase:
    """Operation times of one timed phase, as measured and at the reference speed."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.measured: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def add(self, times: list[float], passes: list[float]) -> None:
        """Operation times measured between reference samples ``passes``."""
        factor = REFERENCE_S[self.kind] / statistics.median(passes)
        self.measured += times
        self.latencies += [t * factor for t in times]

    @property
    def throughput(self) -> float:
        """Attempted units per second at the reference speed."""
        return self.attempted / sum(self.latencies)

    def latency_ms(self, q: float) -> float:
        """Percentile q of the operation times at the reference speed, in ms."""
        return float(np.percentile(self.latencies, q)) * 1e3


def measure(workload, seed: int, seconds: float, tracer=None, setup=None) -> Phase:
    """Run blocks of operations until ``seconds`` of operation time have passed.

    Each operation is timed on its own; a block's outputs are checked after
    the block, outside the timed region. An operation that raises counts as
    failed. If ``setup`` is a list, ``SETUP_REPEATS`` set-up times are
    appended to it between blocks, spread over the phase.
    """
    phase = Phase(workload.reference)
    reference = Reference(workload.reference)
    before = reference.passes()
    times: list[float] = []
    for block in workload.blocks(seed):
        results = []
        for item in block:
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.op(item)
                else:
                    tracer.op += 1
                    out = workload.traced(item, tracer)
                error = False
            except (Exception, SystemExit):
                traceback.print_exc(file=sys.stderr)
                out, error = None, True
            times.append(time.perf_counter() - start)
            results.append((item, out, error))
            if sum(times) >= REFERENCE_EVERY_S:
                after = reference.passes()
                phase.add(times, before + after)
                before, times = after, []
        for item, out, error in results:
            units = workload.units(item)
            phase.attempted += units
            phase.failed += units if error else workload.check(item, out)
        done = sum(phase.measured) + sum(times) >= seconds
        while setup is not None and len(setup) < SETUP_REPEATS * (
            1.0 if done else (sum(phase.measured) + sum(times)) / seconds
        ):
            setup.append(spawn_setup())
        if done:
            if times:
                phase.add(times, before + reference.passes())
            return phase
    raise AssertionError("workload blocks ended")


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, extra record fields)."""
    setup = None if trace else []
    if not trace:
        spawn_setup()
    attempted, failed = workload.warmup(seed)
    plain = measure(workload, seed, seconds / 2 if trace else seconds, setup=setup)
    attempted += plain.attempted
    failed += plain.failed
    extra: dict = {
        "latency_samples": len(plain.latencies),
        "busy_s": sum(plain.measured),
        "measured": {
            "throughput": plain.attempted / sum(plain.measured),
            "latency_p50_ms": statistics.median(plain.measured) * 1e3,
        },
        "latencies": plain.latencies,
        "setup": setup,
    }
    if trace:
        tracer = Tracer()
        traced = measure(workload, seed, seconds / 2, tracer)
        attempted += traced.attempted
        failed += traced.failed
        overhead = 100.0 * (1.0 - traced.throughput / plain.throughput)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(tracer, overhead).items()
        }
        extra["spans"] = tracer.spans
        extra["counts"] = dict(tracer.counts)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput": {"value": plain.throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": plain.latency_ms(50), "unit": "ms"},
            "latency_p90_ms": {"value": plain.latency_ms(90), "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    extra["error_rate"] = failed / attempted
    return result, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    meta = metadata(args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.make(args.workload, tmp)
        result, extra = run(workload, args.seed, args.seconds, bool(args.trace))
    spans = extra.pop("spans", None)
    latencies = extra.pop("latencies")
    summary = {"meta": meta, **extra}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**summary, "result": result, "latencies": latencies, "spans": spans}, fh)
    print(json.dumps(summary))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
