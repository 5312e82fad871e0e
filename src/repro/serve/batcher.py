"""Dynamic micro-batching: coalesce single requests into batched lanes.

A :class:`DynamicBatcher` accepts one request at a time (each parked
behind a :class:`concurrent.futures.Future`), groups compatible requests
by :data:`GroupKey` — ``(op, curve, scalar_rep)``, the tuple that decides
whether two requests can share one batched ladder call — and hands each
group to a ``dispatch`` callable as one :class:`Batch`.  ``dispatch``
returns the batch's lease future, which resolves to ``(results,
execute_s)``; the batcher counts leases in flight against ``workers``.
A group flushes when

* it reaches ``max_lanes`` pending requests (**size flush**, even while
  every worker is busy), or
* a worker is free, its oldest request has waited longest of all
  groups, and the *hold* has passed since that request arrived or the
  service last went from every worker busy to one free, whichever is
  later (**idle flush**).  The hold is :data:`HOLD_SHARE` × the
  execution time of the last completed batch, 0 before any.  Oldest
  first bounds every group's wait, whatever the mix of keys.

So requests coalesce behind a running batch and the batch size follows
the service's own speed — self-clocking batching (Clipper, Crankshaw et
al., NSDI 2017) with no timer to tune per machine or substrate.  The
hold keeps closed-loop clients together: the first request of a wave
waits for the rest, and requests parked behind a batch wait for that
batch's clients to send their next ones, so a wave split into two
cohorts merges again instead of alternating two part-filled batches.
A free worker idles for at most a tenth of one batch's execution time.

Flushes due at submit happen inline on the submitting thread; the rest
come from one flusher thread that sleeps until the next hold expires or
a lease completes.  ``dispatch`` runs outside the batcher lock.

Telemetry (all through :mod:`repro.telemetry.metrics`):

* ``service.requests`` / ``service.batches`` counters,
* ``service.flush.size`` / ``service.flush.idle`` / ``service.flush.close``
  flush-reason counters,
* ``service.flush_wait`` — each request's wait from enqueue to flush,
* ``service.batch_fill`` — a bucketed histogram of flushed lane counts,
* ``service.queue.depth`` — a gauge of requests currently parked.

With a tracer installed, every flush records a ``serve.flush`` span
covering the batch-assembly window (oldest enqueue → flush), so
``--trace-out`` makes batch assembly visible in Perfetto.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Callable, Dict, List, Optional

#: (op, curve name, resolved scalar_rep) — requests sharing a key can
#: ride one batched protocol call.
GroupKey = Tuple[str, str, str]

__all__ = ["GroupKey", "PendingRequest", "Batch", "DynamicBatcher", "HOLD_SHARE"]


#: The plane/word kernels' preferred lane count.
DEFAULT_MAX_LANES = 256

#: An idle flush waits this share of the last batch's execution time
#: for company.
HOLD_SHARE = 0.1


@dataclass
class PendingRequest:
    """One enqueued request: its payload, its future, and when it arrived."""

    payload: "Dict[str, Any]"
    future: "Future"
    enqueued_at: float = field(default_factory=time.perf_counter)


@dataclass
class Batch:
    """What ``dispatch`` receives: one flushed group of compatible requests."""

    key: "GroupKey"
    requests: "List[PendingRequest]"
    reason: str  # "size" | "idle" | "close"
    flushed_at: float

    def __len__(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Thread-safe size-or-idle request coalescer.

    ``dispatch(batch)`` returns the batch's lease future, resolving to
    ``(results, execute_s)``, and is called outside the internal lock,
    from the submitting thread or the flusher thread.  ``workers`` is how
    many leases may run at once before idle flushes stop.  Exceptions
    raised by ``dispatch`` are routed to the batch's request futures and
    free the batch's slot, so a failing dispatch never takes the flusher
    thread down.
    """

    def __init__(
        self,
        dispatch: "Callable[[Batch], Future]",
        *,
        max_lanes: int = DEFAULT_MAX_LANES,
        workers: int = 1,
    ) -> None:
        if max_lanes < 1:
            raise ValueError("max_lanes must be at least 1")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._dispatch = dispatch
        self.max_lanes = max_lanes
        self.workers = workers
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._groups: "Dict[GroupKey, List[PendingRequest]]" = {}
        self._in_flight = 0
        self._hold_s = 0.0
        self._freed_at = 0.0
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run_flusher, name="repro-serve-flusher", daemon=True
        )
        self._flusher.start()

    # -- submission ---------------------------------------------------

    def submit(self, key: "GroupKey", payload: "Dict[str, Any]") -> "Future":
        """Enqueue one request; returns the future its result will land on."""
        request = PendingRequest(payload, Future())
        with self._wakeup:
            if self._closed:
                raise RuntimeError("the batcher is closed")
            group = self._groups.setdefault(key, [])
            group.append(request)
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.inc("service.requests")
                registry.gauge("service.queue.depth", self._depth_locked())
            if len(group) >= self.max_lanes:
                batch: "Optional[Batch]" = self._take_locked(key, "size")
            else:
                batch, _ = self._idle_locked()
            if self._groups and self._in_flight < self.workers:
                self._wakeup.notify()  # a hold is running: let the flusher time it
        if batch is not None:
            self._dispatch_batch(batch)
        return request.future

    def queue_depth(self) -> int:
        """Requests currently parked across all groups."""
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(group) for group in self._groups.values())

    # -- flushing -----------------------------------------------------

    def _idle_locked(self) -> "Tuple[Optional[Batch], Optional[float]]":
        """``(batch, None)`` for a due idle flush, else ``(None, wait_s)``.

        ``wait_s`` is how long until the oldest group's hold passes, or
        ``None`` when no idle flush can happen before the next submit or
        lease completion (nothing pending, or every worker busy).  The
        oldest group's hold passes first, as its start is the earliest.
        """
        if not self._groups or self._in_flight >= self.workers:
            return None, None
        key = min(self._groups, key=lambda name: self._groups[name][0].enqueued_at)
        since = max(self._groups[key][0].enqueued_at, self._freed_at)
        wait_s = since + self._hold_s - time.perf_counter()
        if wait_s > 0:
            return None, wait_s
        return self._take_locked(key, "idle"), None

    def _take_locked(self, key: "GroupKey", reason: str) -> Batch:
        """Detach one group as a :class:`Batch` (caller holds the lock)."""
        requests = self._groups.pop(key)
        self._in_flight += 1
        flushed_at = time.perf_counter()
        registry = _metrics.REGISTRY
        if registry.enabled:
            registry.inc("service.batches")
            registry.inc(f"service.flush.{reason}")
            registry.observe("service.batch_fill", len(requests))
            registry.gauge("service.queue.depth", self._depth_locked())
            for request in requests:
                registry.observe("service.flush_wait", flushed_at - request.enqueued_at)
        return Batch(key, requests, reason, flushed_at)

    def _dispatch_batch(self, batch: Batch) -> None:
        oldest = min(request.enqueued_at for request in batch.requests)
        _trace.record_span(
            "serve.flush",
            oldest,
            batch.flushed_at - oldest,
            op=batch.key[0],
            curve=batch.key[1],
            lanes=len(batch),
            reason=batch.reason,
        )
        try:
            lease = self._dispatch(batch)
        except Exception as error:  # route, don't kill the flusher
            for request in batch.requests:
                if not request.future.done():
                    request.future.set_exception(error)
            self._release(None)
            return
        lease.add_done_callback(self._release)

    def _release(self, lease: "Optional[Future]") -> None:
        """Free one lease's slot; a completed lease also sets the next hold."""
        with self._wakeup:
            self._in_flight -= 1
            if self._in_flight == self.workers - 1:  # every worker was busy
                self._freed_at = time.perf_counter()
            if lease is not None and lease.exception() is None:
                self._hold_s = HOLD_SHARE * lease.result()[1]
            self._wakeup.notify()

    def _run_flusher(self) -> None:
        while True:
            with self._wakeup:
                if self._closed:
                    if not self._groups:
                        return
                    due = [self._take_locked(key, "close") for key in list(self._groups)]
                else:
                    batch, wait_s = self._idle_locked()
                    if batch is None:
                        self._wakeup.wait(wait_s)
                        continue
                    due = [batch]
            for batch in due:
                self._dispatch_batch(batch)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Flush leftovers (reason ``close``) and stop the flusher thread."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify()
        self._flusher.join()
