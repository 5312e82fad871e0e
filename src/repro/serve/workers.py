"""Worker pool: execute leased batches on warmed backends, across cores.

Two consumers share this module:

* the serving layer: a :class:`WorkerPool` executes each flushed
  :class:`~repro.serve.batcher.Batch` through the batched protocol entry
  points (:func:`~repro.curves.protocols.ecdh_batch`, generator
  ``multiply_batch`` for keygen, :func:`~repro.curves.protocols
  .sign_batch`) on a worker that resolved its backend **once** and warmed
  every compiled cache at startup — the first request never pays compile
  latency;
* ``repro ecdh --jobs``: :func:`ecdh_sharded` splits one large agreement
  batch across the same kind of pool.

Both are **start-method-agnostic**: the pool always builds an explicit
``multiprocessing.get_context`` (:func:`preferred_start_method` — ``fork``
when the platform has it, so children inherit the parent's warm caches
for free; ``spawn`` otherwise, where the per-worker initializer re-warms)
and every worker entry point is a module-level function fed only
picklable data (names and integers, never backend instances).

Telemetry crosses the process boundary the PR 8 way: each worker task
runs against a fresh local :class:`~repro.telemetry.metrics
.MetricsRegistry` (a forked child's copy of the parent registry must not
be double-reported) and ships its snapshot back with the results; the
parent folds every snapshot into the process registry, so parallel
aggregates match serial runs exactly.

``workers=0`` selects the **inline** mode: batches execute on a single
worker *thread* in the server process.  On one-core machines this beats a
process pool (no pickling, no IPC — and the native backend's cffi calls
release the GIL, so the event loop keeps parsing the next wave while the
C kernel runs); it is also what the tests use.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING

from ..curves import curve_by_name, ecdh_batch, ecdsa_sign, sign_batch
from ..curves.protocols import ecdh_shared
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Dict, List, Optional, Sequence, Tuple

    from ..backends.base import FieldBackend
    from ..curves.point import BinaryCurve, Point
    from .batcher import GroupKey

__all__ = [
    "OP_FIELDS",
    "preferred_start_method",
    "pool_context",
    "warm_curve",
    "execute_group",
    "WorkerPool",
    "ecdh_sharded",
]

#: Request payload fields per operation, in columnar order.  The server
#: validates these on ingress; the pool ships them as parallel lists.
OP_FIELDS: "Dict[str, Tuple[str, ...]]" = {
    "ecdh": ("private", "peer_x", "peer_y"),
    "keygen": ("private",),
    "sign": ("private", "digest"),
}


def preferred_start_method(explicit: "Optional[str]" = None) -> str:
    """The multiprocessing start method the pools use.

    ``fork`` when the platform offers it — children inherit every warm
    cache (compiled circuits, comb tables, plane lowerings) for free —
    and ``spawn`` otherwise, where the worker initializer re-warms.  An
    ``explicit`` method is validated against the platform rather than
    passed through blindly.
    """
    methods = multiprocessing.get_all_start_methods()
    if explicit is not None:
        if explicit not in methods:
            raise ValueError(
                f"start method {explicit!r} is not available on this platform; "
                f"choose from: {', '.join(methods)}"
            )
        return explicit
    return "fork" if "fork" in methods else "spawn"


def pool_context(start_method: "Optional[str]" = None):
    """An explicit multiprocessing context (never the mutable global one)."""
    return multiprocessing.get_context(preferred_start_method(start_method))


def warm_curve(curve: "BinaryCurve", backend: "Optional[str]" = None) -> "FieldBackend":
    """Resolve one backend for ``curve`` and pre-pay every compile cost.

    Runs tiny batches through each route a service request can take —
    the binary ladder, the τ-adic ladder on Koblitz curves, and the
    fixed-base auto route (which builds or loads the comb table) — so the
    compiled formulas, plane/word lowerings and comb tables are all hot
    before the first real request arrives.
    """
    from ..curves import scalarmul

    resolved = curve.field.resolve_backend(backend)
    generator = curve.generator
    bases = [generator, generator]
    scalars = [2, 3]
    curve.multiply_batch(
        bases, scalars, backend=resolved, scalar_rep="binary", fixed_base=False
    )
    if scalarmul.is_koblitz(curve):
        curve.multiply_batch(
            bases, scalars, backend=resolved, scalar_rep="tau", fixed_base=False
        )
    # fixed_base auto: rides (and therefore builds/loads) the comb table
    # when the curve supports one; toy curves quietly keep the ladder.
    curve.multiply_batch(bases, scalars, backend=resolved)
    return resolved


# -- batch execution (runs inside workers) ----------------------------


def execute_group(
    curve: "BinaryCurve",
    backend: "FieldBackend | str | None",
    op: str,
    scalar_rep: str,
    columns: "Dict[str, List[int]]",
) -> "List[Dict[str, Any]]":
    """Execute one compatible group through the batched protocol entry points.

    Returns one result row per request: ``{"x", "y"}`` for ecdh/keygen
    (``None`` coordinates for the point at infinity), ``{"r", "s"}`` for
    sign.  Raises when the *batch* fails — callers wanting per-request
    isolation use :func:`execute_group_isolated`.
    """
    if op == "ecdh":
        peers = [
            curve.point(x, y, check=False)
            for x, y in zip(columns["peer_x"], columns["peer_y"])
        ]
        points = ecdh_batch(
            curve, columns["private"], peers, backend=backend, scalar_rep=scalar_rep
        )
        return [{"x": point.x, "y": point.y} for point in points]
    if op == "keygen":
        privates = columns["private"]
        points = curve.multiply_batch(
            [curve.generator] * len(privates),
            privates,
            backend=backend,
            scalar_rep=scalar_rep,
        )
        return [{"x": point.x, "y": point.y} for point in points]
    if op == "sign":
        signatures = sign_batch(
            curve,
            columns["private"],
            columns["digest"],
            backend=backend,
            scalar_rep=scalar_rep,
        )
        return [{"r": signature.r, "s": signature.s} for signature in signatures]
    raise ValueError(f"unknown op {op!r}; known: {', '.join(OP_FIELDS)}")


def execute_group_isolated(
    curve: "BinaryCurve",
    backend: "FieldBackend | str | None",
    op: str,
    scalar_rep: str,
    columns: "Dict[str, List[int]]",
) -> "List[Dict[str, Any]]":
    """Like :func:`execute_group`, but one bad request cannot poison its batch.

    The batched entry points validate collectively (an off-curve peer
    fails the whole compiled on-curve check), so on batch failure every
    request is retried individually on the scalar reference path and only
    the offenders come back as ``{"error": ...}`` rows.
    """
    try:
        return execute_group(curve, backend, op, scalar_rep, columns)
    except Exception:
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("service.batch_fallback")
        rows: "List[Dict[str, Any]]" = []
        count = len(columns["private"])
        for index in range(count):
            try:
                if op == "ecdh":
                    peer = curve.point(
                        columns["peer_x"][index], columns["peer_y"][index], check=False
                    )
                    point = ecdh_shared(curve, columns["private"][index], peer)
                    rows.append({"x": point.x, "y": point.y})
                elif op == "keygen":
                    point = curve.multiply(
                        curve.generator, columns["private"][index], scalar_rep=scalar_rep
                    )
                    rows.append({"x": point.x, "y": point.y})
                else:
                    signature = ecdsa_sign(
                        curve, columns["private"][index], columns["digest"][index]
                    )
                    rows.append({"r": signature.r, "s": signature.s})
            except Exception as error:
                rows.append({"error": str(error)})
        return rows


#: Per-worker-process state installed by :func:`_worker_init`.
_WORKER_CURVES: "Dict[str, Tuple[BinaryCurve, FieldBackend]]" = {}
_WORKER_BACKEND: "List[Optional[str]]" = [None]


def _worker_init(backend_name: "Optional[str]", curve_names: "Tuple[str, ...]") -> None:
    """Process-pool initializer: resolve and warm every served curve once."""
    # A terminal Ctrl-C is delivered to the whole foreground process
    # group; shutdown is the parent's job, so workers must not die (or
    # spray tracebacks) on the shared SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORKER_BACKEND[0] = backend_name
    for name in curve_names:
        curve = curve_by_name(name)
        _WORKER_CURVES[name] = (curve, warm_curve(curve, backend_name))


def _worker_probe(delay_s: float) -> int:
    """Startup barrier task: holds a worker busy so every worker spawns."""
    time.sleep(delay_s)
    return os.getpid()


def _worker_execute(task: "Tuple[str, str, str, Dict[str, List[int]]]"):
    """One leased batch, executed against a local metrics registry.

    Returns ``(rows, snapshot)``; the parent folds the snapshot so the
    registry aggregates match a serial run (a forked child's inherited
    registry contents must never be re-reported).
    """
    op, curve_name, scalar_rep, columns = task
    state = _WORKER_CURVES.get(curve_name)
    if state is None:  # cold path: a curve the initializer was not told about
        curve = curve_by_name(curve_name)
        state = (curve, curve.field.resolve_backend(_WORKER_BACKEND[0]))
        _WORKER_CURVES[curve_name] = state
    curve, backend = state
    if not _metrics.REGISTRY.enabled:
        return execute_group_isolated(curve, backend, op, scalar_rep, columns), None
    local = _metrics.MetricsRegistry()
    previous = _metrics.set_registry(local)
    try:
        rows = execute_group_isolated(curve, backend, op, scalar_rep, columns)
    finally:
        _metrics.set_registry(previous)
    return rows, local.snapshot()


class WorkerPool:
    """Executes compatible request groups on warmed workers.

    ``workers >= 1`` builds a :class:`ProcessPoolExecutor` over an
    explicit start-method context whose initializer warms every listed
    curve, then runs a startup barrier so no worker (and therefore no
    request) pays compile latency later.  ``workers=0`` executes inline
    on one worker thread in this process (best on single-core machines;
    used by the tests).  ``backend`` is a registry *name* (or ``None``
    for the per-field default) — instances do not cross process
    boundaries.
    """

    def __init__(
        self,
        *,
        workers: "Optional[int]" = None,
        backend: "Optional[str]" = None,
        curves: "Sequence[str]" = (),
        start_method: "Optional[str]" = None,
    ) -> None:
        if backend is not None and not isinstance(backend, str):
            raise TypeError("WorkerPool takes a backend *name*; instances cannot cross processes")
        self.backend_name = backend
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        self.curve_names = tuple(curves)
        self._lock = threading.Lock()
        if self.workers == 0:
            self._inline_curves: "Dict[str, Tuple[BinaryCurve, FieldBackend]]" = {}
            for name in self.curve_names:
                curve = curve_by_name(name)
                self._inline_curves[name] = (curve, warm_curve(curve, backend))
            self._executor: "Any" = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-worker"
            )
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=pool_context(start_method),
                initializer=_worker_init,
                initargs=(backend, self.curve_names),
            )
            # Startup barrier: one probe per worker forces every process to
            # spawn and run the warming initializer now, not on first lease.
            wait([self._executor.submit(_worker_probe, 0.05) for _ in range(self.workers)])

    # -- leasing ------------------------------------------------------

    def submit(self, key: "GroupKey", columns: "Dict[str, List[int]]") -> "Future":
        """Lease one group to a worker; the future resolves to result rows."""
        op, curve_name, scalar_rep = key
        outer: "Future" = Future()
        submitted_at = time.perf_counter()
        lanes = len(columns["private"])
        if self.workers == 0:
            inner = self._executor.submit(self._execute_inline, key, columns)
        else:
            inner = self._executor.submit(
                _worker_execute, (op, curve_name, scalar_rep, columns)
            )

        def _complete(done: "Future") -> None:
            elapsed = time.perf_counter() - submitted_at
            _trace.record_span(
                "serve.execute", submitted_at, elapsed, op=op, curve=curve_name, lanes=lanes
            )
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.observe("service.execute", elapsed)
            error = done.exception()
            if error is not None:
                outer.set_exception(error)
                return
            rows, snapshot = done.result()
            if snapshot is not None and registry.enabled:
                registry.merge(snapshot)
            outer.set_result(rows)

        inner.add_done_callback(_complete)
        return outer

    def _execute_inline(self, key: "GroupKey", columns: "Dict[str, List[int]]"):
        """Inline-mode task: same-process execution, no snapshot to fold."""
        op, curve_name, scalar_rep = key
        with self._lock:
            state = self._inline_curves.get(curve_name)
            if state is None:
                curve = curve_by_name(curve_name)
                state = (curve, curve.field.resolve_backend(self.backend_name))
                self._inline_curves[curve_name] = state
        curve, backend = state
        return execute_group_isolated(curve, backend, op, scalar_rep, columns), None

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def describe(self) -> str:
        mode = "inline thread" if self.workers == 0 else f"{self.workers} process(es)"
        backend = self.backend_name or "default"
        return f"worker pool: {mode}, backend {backend}, curves {', '.join(self.curve_names) or '-'}"


# -- CLI sharding (repro ecdh --jobs) ---------------------------------


def _ecdh_shard(payload) -> tuple:
    """One shard of a large agreement batch (module-level: spawn-safe).

    Takes plain picklable data (curve name, backend name, scalar
    recoding, scalars, peer coordinates) and returns coordinate tuples so shards
    compose deterministically.  Runs against a fresh local metrics
    registry and ships its snapshot back with the coordinates.
    """
    curve_name, backend, scalar_rep, privates, peer_coords = payload
    curve = curve_by_name(curve_name)
    peers = [curve.point(x, y, check=False) for x, y in peer_coords]
    snapshot = None
    if _metrics.REGISTRY.enabled:
        local = _metrics.MetricsRegistry()
        previous = _metrics.set_registry(local)
        try:
            points = ecdh_batch(curve, privates, peers, backend=backend, scalar_rep=scalar_rep)
        finally:
            _metrics.set_registry(previous)
        snapshot = local.snapshot()
    else:
        points = ecdh_batch(curve, privates, peers, backend=backend, scalar_rep=scalar_rep)
    return [(point.x, point.y) for point in points], snapshot


def ecdh_sharded(
    curve: "BinaryCurve",
    privates: "Sequence[int]",
    peers: "Sequence[Point]",
    jobs: int,
    *,
    backend: "Optional[str]" = None,
    scalar_rep: str = "auto",
    start_method: "Optional[str]" = None,
) -> "List[Point]":
    """A batch of shared points, sharded across ``jobs`` worker processes.

    Start-method-agnostic: under ``fork`` the children inherit the warm
    caches, under ``spawn`` each shard pays its own warm-up (the shard
    *is* the work, so there is nothing separate to pre-warm).  Results
    are byte-identical to the unsharded :func:`~repro.curves.protocols
    .ecdh_batch` in every mode, and shard telemetry snapshots fold back
    into the parent registry.  ``backend`` must be a registry name (or
    ``None``): instances cannot cross process boundaries.
    """
    if backend is not None and not isinstance(backend, str):
        raise TypeError("ecdh_sharded takes a backend *name*; instances cannot cross processes")
    if jobs <= 1 or len(privates) < 2:
        return ecdh_batch(curve, privates, peers, backend=backend, scalar_rep=scalar_rep)
    jobs = min(jobs, len(privates))
    chunk = (len(privates) + jobs - 1) // jobs
    payloads = [
        (
            curve.name,
            backend,
            scalar_rep,
            list(privates[start:start + chunk]),
            [(point.x, point.y) for point in peers[start:start + chunk]],
        )
        for start in range(0, len(privates), chunk)
    ]
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=pool_context(start_method)
    ) as pool:
        shard_results = list(pool.map(_ecdh_shard, payloads))
    registry = _metrics.REGISTRY
    if registry.enabled:
        for _, snapshot in shard_results:
            registry.merge(snapshot)
    return [curve.point(x, y, check=False) for coords, _ in shard_results for x, y in coords]
