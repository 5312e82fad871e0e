"""Shared helpers of the benchmark: statistics, child-process I/O, platform stamp.

Everything here is stdlib-only so the orchestrator (``run.py``) can import
it without importing the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Latency limit behind ``max_rate_rps``: a rung passes only if its p99 stays
#: at or below this many milliseconds.
LATENCY_LIMIT_MS = 100.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    share = position - low
    if share == 0:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * share


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def interpolate_max_rate(rungs: List[Dict]) -> float:
    """The rate where p99 crosses the latency limit, on a log-log scale.

    ``rungs`` are the walked ladder rungs in increasing rate, each with
    ``rate``, ``p99_ms`` and ``passed``.  Between the last passing rung and
    the first failing one, ``log(rate)`` is interpolated linearly in
    ``log(p99)``; a failing rung whose p99 is still under the limit (it
    failed on backlog, errors or an invalid generator) pins the result to
    the last passing rate.  With no passing rung the first rung's rate is
    scaled down by how far its p99 overshoots the limit; with no failing
    rung the top rate is reported.
    """
    first_fail = next((i for i, rung in enumerate(rungs) if not rung["passed"]), None)
    if first_fail is None:
        return float(rungs[-1]["rate"])
    fail = rungs[first_fail]
    if first_fail == 0:
        return fail["rate"] * min(1.0, LATENCY_LIMIT_MS / max(fail["p99_ms"], 1e-9))
    ok = rungs[first_fail - 1]
    if fail["p99_ms"] <= LATENCY_LIMIT_MS or ok["p99_ms"] >= fail["p99_ms"]:
        return float(ok["rate"])
    span = math.log(fail["p99_ms"]) - math.log(max(ok["p99_ms"], 1e-9))
    share = (math.log(LATENCY_LIMIT_MS) - math.log(max(ok["p99_ms"], 1e-9))) / span
    share = min(max(share, 0.0), 1.0)
    return math.exp(math.log(ok["rate"]) + share * (math.log(fail["rate"]) - math.log(ok["rate"])))


#: Steps of the calibration loop in one sample (about 9 ms on the reference machine).
CALIBRATION_STEPS = 50_000
#: Seconds of one calibration sample on the reference machine in a quiet period.
CALIBRATION_REF_S = 0.0088


def _calibration_loop(steps: int) -> int:
    value = 0x2545F4914F6CDD1D
    for step in range(steps):
        value = ((value << 1) ^ (value >> 7) ^ step) & 0xFFFFFFFFFFFFFFFF
    return value


def calibrate(count: int = 1) -> float:
    """How slow the machine runs now: ``count`` calibration samples' mean time ÷ the reference.

    The reference machine shares its host with other machines, and its speed
    switches between states for seconds at a time; the calibration loop
    slows down with the program's work, and it shares no code with the
    program, so no change to the program moves it.  The closed loops and
    the serve rate ladder take a sample right before and right after each
    timed region and divide the region's time by the pair's mean (rates:
    multiply), which puts them at reference speed; ``run.py`` samples right
    before each set-up process starts.
    """
    start = time.perf_counter()
    for _ in range(count):
        _calibration_loop(CALIBRATION_STEPS)
    return (time.perf_counter() - start) / count / CALIBRATION_REF_S


def rate_ladder(start: float, stop: float) -> List[float]:
    """A ×√2 rate ladder from ``start`` up to ``stop`` (inclusive)."""
    rates = []
    rate = float(start)
    while rate <= stop * 1.0001:
        rates.append(round(rate, 3))
        rate *= math.sqrt(2.0)
    return rates


def emit(event: Dict) -> None:
    """One JSON line on stdout: how a child reports to the orchestrator."""
    sys.stdout.write(json.dumps(event, sort_keys=True) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS (``VmHWM``) of another live process, in MB."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over every file under ``src/`` (identifies the code measured)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    try:
        return (root / ".git" / ref[5:]).read_text().strip()
    except OSError:
        packed = root / ".git" / "packed-refs"
        try:
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        except OSError:
            pass
    return None


def platform_stamp(root: Path) -> Dict:
    """CPU, cores, interpreter and package versions, and the code identity."""
    import importlib.metadata as metadata

    def version(name: str) -> Optional[str]:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu_model": _cpu_model(),
        "logical_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cffi": version("cffi"),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def backend_stamp() -> Dict[str, str]:
    """The resolved default backend of every catalog field, with its dispatch.

    Raises ``RuntimeError`` when any catalog field resolves to something
    other than ``native``: a silent fallback would change every figure.
    """
    from repro.curves.catalog import CURVES
    from repro.galois.field import GF2mField

    stamp: Dict[str, str] = {}
    fallen = []
    for spec in CURVES:
        backend = GF2mField(spec.modulus, check_irreducible=False).resolve_backend(None)
        stamp[spec.name] = f"{backend.name}: {backend.describe()}"
        if backend.name != "native":
            fallen.append(spec.name)
    if fallen:
        raise RuntimeError(f"catalog fields fell back from native: {', '.join(fallen)}")
    return stamp
