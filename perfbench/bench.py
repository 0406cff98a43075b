"""Shared machinery of the linexsel benchmark: run context, tracing, statistics,
child processes and the run record.

Everything here is benchmark-side. The program under test is reached only
through its public functions and through ``python -m linexsel.cli``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: how many fresh processes set the workload up to give the median setup_s
SETUP_SAMPLES, SMOKE_SETUP_SAMPLES = 5, 2
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 60.0
#: percentiles tried, highest first, for the reported tail of a timing
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class BenchError(Exception):
    """The benchmark cannot run here (for example the program is missing)."""


@dataclass
class Context:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    fault: str | None = None
    #: a traced loop stops early once this many spans are held in memory
    max_spans: int | None = None

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def out(self) -> Path:
        path = self.root / "perfbench" / "_out" / f"{self.workload}-{self.seed}-{os.getpid()}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        return env


def locate_program(root: Path) -> Path:
    """Put the checkout's own ``src`` first on sys.path and check it is what imports."""
    src = root / "src"
    if not (src / "linexsel" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'linexsel'}; run from a checkout root")
    if not (root / "tests" / "_tables.py").is_file():
        raise BenchError(f"no frozen reference tables at {root / 'tests' / '_tables.py'}")
    sys.path.insert(0, str(src))
    return src


def import_program(root: Path):
    import linexsel

    where = Path(linexsel.__file__).resolve()
    if (root / "src").resolve() not in where.parents:
        raise BenchError(f"imported linexsel from {where}, not from this checkout")
    return linexsel


def load_reference_tables(root: Path):
    """The frozen quadrature REFERENCE of tests/_tables.py, read, never changed."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("_bench_frozen_tables", root / "tests" / "_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans (id, parent, name, start, end) of one run id.

    ``call`` wraps one call into the program; ``span`` groups calls under a
    parent. Spans are only written out by ``write`` at the end of the run.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._index: dict = {}
        self._indexed = 0

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next
        self._next += 1
        t0 = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        self.spans.append((sid, self._stack[-1], name, t0, t1))
        return result

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        if self._indexed != len(self.spans):
            self._index = {}
            for _, _, n, s, e in self.spans:
                self._index.setdefault(n, []).append((e - s) * 1e-9)
            self._indexed = len(self.spans)
        return self._index.get(name, [])

    def write(self, path: Path) -> None:
        """A header line naming the run and the fields, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next
        tr._next += 1
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.t0, t1))
        return False


class NullTracer:
    """Untraced runs: the same call sites, nothing recorded."""

    run_id = ""
    spans: list = []

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


# ---------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    k = (len(data) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (k - lo))


def summarize(values, scale: float = 1.0) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    vals = [v * scale for v in values]
    out = {"median": median(vals), "n": len(vals)}
    for p in TAIL_PERCENTILES:
        if len(vals) * (1.0 - p / 100.0) >= 10:
            out[f"p{p:g}"] = percentile(vals, p)
            break
    return out


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure kind."""

    attempted: int = 0
    failed: int = 0
    reasons: dict = field(default_factory=dict)

    def op(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.reasons[p] = self.reasons.get(p, 0) + 1
        return not problems


# ---------------------------------------------------------------- processes


@dataclass
class ChildResult:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str


def run_child(cmd: list[str], ctx: Context) -> ChildResult:
    """Run one child to completion; wall time, exit code and its own peak RSS."""
    out_path = ctx.out / f"child-{os.getpid()}-{time.monotonic_ns()}.out"
    with open(out_path, "w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            cwd=str(ctx.root), env=ctx.child_env(),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    out_path.unlink()
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0, text)


# ---------------------------------------------------------------- machine speed

# The benchmark host may be shared: on a shared 2-core x86-64 host (Python
# 3.11.7, numpy 2.4.6) the same code ran up to 40 % slower from one 10-second
# stretch to the next, and whole-run medians moved by 10-15 %. Each workload
# therefore ends every round with a fixed speed probe, shaped like its own
# work and never calling linexsel, and its end-to-end timings are reported
# scaled by SPEED_REF_MS over that round's probe time: milliseconds on a host
# that runs the probe in SPEED_REF_MS. The raw timings and probe times stay in
# the run record.


def _probe_numpy() -> float:
    """A risk cell's shape without linexsel: Philox normals, selection, LINEX loss."""
    g = np.random.Generator(np.random.Philox(20191112)).standard_normal((4, 20000))
    x1, x2 = 0.2 + 1.4 * g[0], 2.0 + 1.4 * g[2]
    y1, y2 = 2.0 + 0.7 * g[0] + 1.2 * g[1], 0.2 + 0.7 * g[2] + 1.2 * g[3]
    sel = x1 > x2
    y_sel = np.where(sel, y1, y2)
    t2 = np.where(sel, y2, y1) - y_sel
    z = np.log1p(np.expm1(0.5 * t2) * 0.3) + y_sel - np.where(sel, 2.0, 0.2)
    loss = np.expm1(z) - z
    return float(loss.mean() + loss.std())


@dataclass(frozen=True)
class _ProbePair:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("probe values must be finite")


def _probe_python() -> float:
    """Scalar code without linexsel: validated frozen dataclasses, erfc, log1p/expm1."""
    total = 0.0
    for k in range(1500):
        u = (k - 750) * 1e-3
        p = _ProbePair(u, -u)
        q = _ProbePair(max(p.a, p.b), min(p.a, p.b))
        total += 0.5 * math.erfc(-q.a / 1.4142135623730951) + math.log1p(math.expm1(0.1 * q.b))
    return total


SPEED_PROBES = {"numpy": _probe_numpy, "python": _probe_python}
#: probe times of the host the reference figures were taken on (2 cores, Python 3.11)
SPEED_REF_MS = {"numpy": 3.5, "python": 4.7, "process": 225.0}


def speed_probe_ms(kind: str, ctx: "Context | None" = None) -> float:
    if kind == "process":
        return run_child([sys.executable, "-c", "import numpy"], ctx).wall_s * 1e3
    t0 = time.perf_counter()
    SPEED_PROBES[kind]()
    return (time.perf_counter() - t0) * 1e3


class Samples:
    """A run's timings in ms, raw and scaled by the speed probe of their own round."""

    def __init__(self, probe: str, ctx: Context):
        self.probe, self.ctx = probe, ctx
        self.raw: dict = {"op_ms": [], "aux_ms": []}
        self.scaled: dict = {"op_ms": [], "aux_ms": []}
        self.speed_ms: list[float] = []
        self._pending: list[tuple[str, float]] = []

    def add(self, slot: str, ms: float) -> None:
        self.raw[slot].append(ms)
        self._pending.append((slot, ms))

    def end_round(self, probes: int = 1) -> None:
        """Probe the host's speed and scale the timings taken since the last round."""
        probe = median([speed_probe_ms(self.probe, self.ctx) for _ in range(probes)])
        self.speed_ms.append(probe)
        scale = SPEED_REF_MS[self.probe] / probe
        for slot, ms in self._pending:
            self.scaled[slot].append(ms * scale)
        self._pending.clear()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(ctx: Context) -> list[float]:
    """Fresh processes that import linexsel and build this workload's inputs.

    Each sample runs from the parent's spawn to the child's ready mark, which
    the child prints as a CLOCK_MONOTONIC reading just before its first timed
    call would start.
    """
    run_py = ctx.root / "perfbench" / "run.py"
    cmd = [sys.executable, str(run_py), "--workload", ctx.workload, "--seed", str(ctx.seed),
           "--seconds", "1", "--trace", "0", "--setup-only"]
    if ctx.smoke:
        cmd.append("--smoke")
    warm = run_child(cmd, ctx)  # fills the bytecode and page caches; not a sample
    if warm.code != 0:
        raise BenchError(f"setup child failed ({warm.code}): {warm.stdout[-2000:]}")
    samples = []
    for _ in range(SMOKE_SETUP_SAMPLES if ctx.smoke else SETUP_SAMPLES):
        t0 = time.monotonic_ns()
        child = run_child(cmd, ctx)
        ready = [ln for ln in child.stdout.splitlines() if ln.startswith("READY ")]
        if child.code != 0 or not ready:
            raise BenchError(f"setup child failed ({child.code}): {child.stdout[-2000:]}")
        samples.append((int(ready[-1].split()[1]) - t0) * 1e-9)
    return samples


# ---------------------------------------------------------------- run record


def l2_cache_bytes() -> int | None:
    """Size of cpu0's level-2 cache, from sysfs (e.g. ``2048K``)."""
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()
                unit = {"K": 2**10, "M": 2**20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * unit
    except (OSError, ValueError):
        pass
    return None


def source_digest(src: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((src / "linexsel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD when the checkout is itself a git work tree (not merely inside one)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(ctx: Context) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "l2_cache_bytes": l2_cache_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(ctx.root),
        "source_sha256": source_digest(ctx.src),
    }
