"""Span recorder for the traced run: wraps each layer's public functions.

Nothing under ``src/`` changes: :meth:`Recorder.install` replaces the
public callables at each layer boundary with thin wrappers that record a
span (name, start, end, and the enclosing span on the same thread) and
call through.  The program's own tracer stays off, so native
``run_arrays`` keeps its single C call.

Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer figures (busy time, self time, counts) after the run.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from common import quantile

#: Span name prefix → the repository module (layer) it belongs to.
LAYER_OF = (
    ("protocols.", "curves.protocols"),
    ("point.", "curves.point"),
    ("scalarmul.", "curves.scalarmul"),
    ("native.", "backends.native"),
    ("galois.", "galois"),
    ("batcher.", "serve.batcher"),
    ("workers.", "serve.workers"),
    ("flow.", "pipeline"),
)
LAYERS = tuple(layer for _, layer in LAYER_OF)

#: ``program.ir.name`` prefixes reported as their own ``run_arrays`` bucket.
PROGRAM_BUCKETS = ("ld_step", "tau_frobenius_add", "comb_double_add", "on_curve_residual")


def program_bucket(name: str) -> str:
    for bucket in PROGRAM_BUCKETS:
        if name.startswith(bucket):
            return bucket
    return "other"


def layer_of(name: str) -> Optional[str]:
    for prefix, layer in LAYER_OF:
        if name.startswith(prefix):
            return layer
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s", "failed")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans from the wrappers; ``active`` gates all recording."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        self._local = threading.local()
        # Re-entrant: the traced server resets the window from a signal
        # handler, which may interrupt the main thread inside ``close``.
        self._lock = threading.RLock()
        self._restore: List[Tuple[object, str, object]] = []
        #: WorkerPool.submit time per leased column dict (pool wait).
        self.leased: Dict[int, float] = {}
        #: One record per executed batch: (start, lanes, pool_wait_s, execute_s, fallback_s).
        self.batches: List[Tuple[float, int, float, float, Optional[float]]] = []
        #: Per-request flush waits (submit → WorkerPool.submit): (flush time, seconds).
        self.flush_waits: List[Tuple[float, float]] = []

    def reset(self) -> None:
        """Drop everything recorded so far and start a new window."""
        with self._lock:
            self.spans = []
            self.leased = {}
            self.batches = []
            self.flush_waits = []

    # -- span plumbing ------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration
        with self._lock:
            self.spans.append(span)

    def wrapper(self, fn: Callable, namer: Callable[..., str]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span = recorder.open(namer(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                recorder.close(span)

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr``; :meth:`uninstall` puts the original back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name) -> None:
        original = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)
        self.patch(owner, attr, self.wrapper(original, namer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # -- the layer boundaries -----------------------------------------

    def install(self) -> None:
        """Wrap the public function at every layer boundary."""
        from repro.backends import native
        from repro.curves import point, protocols, scalarmul
        from repro.galois import field
        from repro.pipeline import store
        from repro.serve import batcher, server, workers
        from repro.synth import flow

        def by_curve(op):
            return lambda curve, *a, **k: f"protocols.{op}.{curve.name}"

        for op in ("ecdh_batch", "keygen_batch", "sign_batch"):
            wrapped = self.wrapper(getattr(protocols, op), by_curve(op))
            self.patch(protocols, op, wrapped)
            if hasattr(workers, op):
                self.patch(workers, op, wrapped)
        self.wrap(point.BinaryCurve, "multiply_batch", "point.multiply_batch")
        for name in ("multiply_tau_batch", "multiply_comb_batch", "comb_table"):
            self.wrap(scalarmul, name, f"scalarmul.{name}")
        for name in ("reduce_scalar", "tau_window_digits", "tau_naf"):
            self.wrap(scalarmul, name, "scalarmul.recode")
        for name in ("multiply_batch", "square_batch", "inverse_batch"):
            self.wrap(native.NativeBackend, name, f"native.{name}")
        for name in ("pack", "unpack", "broadcast_bits"):
            self.wrap(native.NativeIRExecutor, name, f"native.{name}")
        self.wrap(
            native.CompiledNativeIR, "run_arrays",
            lambda self_, *a, **k: "native.run_arrays." + program_bucket(self_.program.ir.name),
        )
        self.wrap(native.CompiledNativeIR, "__init__", "native.compile")
        self.wrap(field.GF2mField, "inverse", "galois.inverse")
        for name in ("get_json", "put_json"):
            self.wrap(store.ArtifactStore, name, "flow.store")
        for stage in ("generate", "restructure", "map", "pack", "time", "report"):
            self.wrap(flow, f"stage_{stage}", f"flow.{stage}")
        self.wrap(batcher.DynamicBatcher, "submit", "batcher.submit")
        self._install_serve(server, workers)

    def _install_serve(self, server, workers) -> None:
        recorder = self
        dispatch = server.CryptoService._dispatch
        pool_submit = workers.WorkerPool.submit
        isolated = workers.execute_group_isolated
        group = workers.execute_group

        @functools.wraps(dispatch)
        def traced_dispatch(service, batch):
            if recorder.active:
                now = time.perf_counter()
                with recorder._lock:
                    recorder.flush_waits.extend((now, now - r.enqueued_at) for r in batch.requests)
            return dispatch(service, batch)

        @functools.wraps(pool_submit)
        def traced_submit(pool, key, columns):
            if recorder.active:
                with recorder._lock:
                    recorder.leased[id(columns)] = time.perf_counter()
            return pool_submit(pool, key, columns)

        @functools.wraps(group)
        def traced_group(*args, **kwargs):
            try:
                return group(*args, **kwargs)
            except Exception:
                recorder._local.batched_failed_at = time.perf_counter()
                raise

        @functools.wraps(isolated)
        def traced_isolated(curve, backend, op, scalar_rep, columns):
            if not recorder.active:
                return isolated(curve, backend, op, scalar_rep, columns)
            with recorder._lock:
                leased = recorder.leased.pop(id(columns), None)
            recorder._local.batched_failed_at = None
            span = recorder.open("workers.execute")
            try:
                return isolated(curve, backend, op, scalar_rep, columns)
            finally:
                recorder.close(span)
                failed_at = recorder._local.batched_failed_at
                with recorder._lock:
                    recorder.batches.append((
                        span.start,
                        len(columns["private"]),
                        span.start - leased if leased is not None else 0.0,
                        span.duration,
                        span.end - failed_at if failed_at is not None else None,
                    ))

        # The service binds ``_dispatch`` when it is built, so wrapping the
        # class attribute must happen before the service exists.
        self.patch(server.CryptoService, "_dispatch", traced_dispatch)
        self.patch(workers.WorkerPool, "submit", traced_submit)
        self.patch(workers, "execute_group_isolated", traced_isolated)
        self.patch(workers, "execute_group", traced_group)


def _busy(spans: List[Span]) -> float:
    """Inclusive time of spans not nested inside a span of the same name."""
    total = 0.0
    for span in spans:
        parent = span.parent
        while parent is not None and parent.name != span.name:
            parent = parent.parent
        if parent is None:
            total += span.duration
    return total


def _ms_quantiles(values: List[float], prefix: str, out: Dict[str, float]) -> None:
    out[f"{prefix}.p50"] = quantile(values, 0.5) * 1e3 if values else 0.0
    out[f"{prefix}.p99"] = quantile(values, 0.99) * 1e3 if values else 0.0


def layer_metrics(recorder: Recorder, setup_spans: List[Span]) -> Dict[str, float]:
    """Per-layer figures of the measured window (plus set-up-only ones).

    ``setup_spans`` are the spans recorded while the workload set itself
    up; the comb-table and field-inverse figures cover set-up and window
    together (that is where their cost lands), everything else the
    measured window only.
    """
    spans = recorder.spans
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: Dict[str, float] = {}
    for op, curve in (("ecdh_batch", "B-163"), ("ecdh_batch", "K-163"),
                      ("keygen_batch", "K-163"), ("sign_batch", "K-163")):
        out[f"protocols.{op}.{curve}.busy_s"] = _busy(by_name[f"protocols.{op}.{curve}"])
    out["point.multiply_batch.self_s"] = sum(
        span.duration - span.children_s for span in by_name["point.multiply_batch"]
    )
    for bucket in PROGRAM_BUCKETS + ("other",):
        runs = by_name[f"native.run_arrays.{bucket}"]
        out[f"native.run_arrays.calls.{bucket}"] = float(len(runs))
        out[f"native.run_arrays.busy_s.{bucket}"] = sum(span.duration for span in runs)
    steps = by_name["native.run_arrays.ld_step"]
    out["native.ld_step_us"] = (
        sum(span.duration for span in steps) / len(steps) * 1e6 if steps else 0.0
    )
    for name in ("broadcast_bits", "pack", "unpack", "multiply_batch", "square_batch", "inverse_batch"):
        out[f"native.{name}.busy_s"] = _busy(by_name[f"native.{name}"])
    out["native.compile.calls"] = float(len(by_name["native.compile"]))
    out["scalarmul.recode.busy_s"] = _busy(by_name["scalarmul.recode"])
    for name in ("multiply_tau_batch", "multiply_comb_batch"):
        out[f"scalarmul.{name}.busy_s"] = _busy(by_name[f"scalarmul.{name}"])
    whole: Dict[str, List[Span]] = defaultdict(list)
    for span in setup_spans + spans:
        whole[span.name].append(span)
    out["scalarmul.comb_table.busy_s"] = _busy(whole["scalarmul.comb_table"])
    out["galois.inverse.calls"] = float(len(whole["galois.inverse"]))
    out["galois.inverse.busy_s"] = _busy(whole["galois.inverse"])
    for stage in ("generate", "restructure", "map", "pack", "time", "report"):
        out[f"flow.{stage}_s"] = _busy(by_name[f"flow.{stage}"])
    out["flow.store_s"] = _busy(by_name["flow.store"])
    # Self time per layer: each span's duration minus its wrapped children.
    selfs = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = layer_of(span.name)
        if layer is not None:
            selfs[layer] += span.duration - span.children_s
    for layer, seconds in selfs.items():
        out[f"layer.{layer}.self_s"] = seconds
    out.update(serve_metrics(recorder))
    return out


def serve_metrics(recorder: Recorder) -> Dict[str, float]:
    """Batcher and worker-pool figures from the serve wrappers."""
    out: Dict[str, float] = {}
    _ms_quantiles([wait for _, wait in recorder.flush_waits], "batcher.flush_wait_ms", out)
    batches = [record[1:] for record in recorder.batches]
    fills = [float(lanes) for lanes, _, _, _ in batches]
    out["batcher.batch_fill.mean"] = sum(fills) / len(fills) if fills else 0.0
    out["batcher.batch_fill.p50"] = quantile(fills, 0.5) if fills else 0.0
    _ms_quantiles([wait for _, wait, _, _ in batches], "workers.pool_wait_ms", out)
    _ms_quantiles([execute for _, _, execute, _ in batches], "workers.execute_ms", out)
    lanes = sum(fills)
    out["workers.execute_us_per_lane"] = (
        sum(execute for _, _, execute, _ in batches) / lanes * 1e6 if lanes else 0.0
    )
    fallbacks = [seconds for _, _, _, seconds in batches if seconds is not None]
    out["workers.fallback.batches"] = float(len(fallbacks))
    out["workers.fallback.busy_s"] = sum(fallbacks)
    return out


def registry_counters() -> Dict[str, float]:
    """The program's own telemetry counters, as they stand now."""
    from repro.telemetry import metrics

    return dict(metrics.REGISTRY.snapshot().get("counters", {}))


def counter_figures(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Comb-table counters over the whole process, flush reasons over the window."""
    return {
        "comb.table.build": float(after.get("comb.table.build", 0)),
        "comb.table.hit": float(after.get("comb.table.hit", 0)),
        "batcher.flush.size": float(after.get("service.flush.size", 0) - before.get("service.flush.size", 0)),
        "batcher.flush.deadline": float(
            after.get("service.flush.deadline", 0) - before.get("service.flush.deadline", 0)
        ),
    }


def request_time_accounted(recorder: Recorder, start: float, end: float) -> float:
    """Request-seconds the serve layers account for in ``[start, end)``.

    Each request's flush wait, plus pool wait and execute time once per
    lane of its batch.
    """
    flushed = sum(wait for stamp, wait in recorder.flush_waits if start <= stamp < end)
    executed = sum(
        lanes * (wait + execute)
        for stamp, lanes, wait, execute, _ in recorder.batches
        if start <= stamp < end
    )
    return flushed + executed


def top_level_coverage(recorder: Recorder, intervals: List[Tuple[float, float]]) -> float:
    """Share of the timed ``intervals`` covered by top-level layer spans."""
    roots = sorted(
        (span.start, span.end) for span in recorder.spans
        if span.parent is None and layer_of(span.name) is not None
    )
    covered = 0.0
    total = 0.0
    index = 0
    for start, end in sorted(intervals):
        total += end - start
        while index < len(roots) and roots[index][1] <= start:
            index += 1
        cursor = start
        probe = index
        while probe < len(roots) and roots[probe][0] < end:
            lo = max(roots[probe][0], cursor)
            hi = min(roots[probe][1], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
            probe += 1
    return covered / total if total else 0.0
