"""CryptoService: a stdlib-asyncio JSON-over-HTTP/1.1 batching front-end.

One asyncio event loop accepts many concurrent keep-alive connections,
validates each JSON request at ingress, parks it in the
:class:`~repro.serve.batcher.DynamicBatcher`, and awaits its future.
Compatible requests (same curve × op × resolved scalar recoding) that
arrive while the workers are busy ride **one** batched ladder call on
the :class:`~repro.serve.workers.WorkerPool` once a worker frees up —
single-request traffic gets batch-256 throughput without clients ever
knowing.  A lone request on an idle service waits at most a tenth of
the last batch's execution time (nothing before the first batch).

Endpoints (all bodies JSON; integers accepted as ints or hex strings,
returned as lowercase hex):

* ``POST /ecdh``   — ``{"curve", "private", "peer_x", "peer_y"}`` →
  ``{"x", "y"}`` (the shared point);
* ``POST /keygen`` — ``{"curve"[, "private"]}`` → ``{"private", "x", "y"}``
  (the private scalar is drawn server-side from the seeded RNG when
  absent);
* ``POST /sign``   — ``{"curve", "private", "digest"}`` → ``{"r", "s"}``;
* ``GET /healthz`` — liveness (curves warmed, pool mode);
* ``GET /stats``   — queue depth, batch-fill histogram, flush-reason
  counts, where a served request's time goes — its wait in the batcher
  (``flush_wait_s``), its batch's wait in the worker queue
  (``queue_wait_s``) and own execution (``execute_s``) — and per-op
  latency p50/p95/p99 straight from the telemetry registry's bucketed
  observations.

All three POST bodies take an optional ``"scalar_rep"`` (``"auto"`` /
``"binary"`` / ``"tau"``) which is resolved at ingress — so ``"auto"``
and ``"tau"`` requests on a Koblitz curve land in the *same* batch
group, and ``"tau"`` on a B-curve is rejected with 400 before it can
poison a batch.

The HTTP layer is deliberately minimal (request line + headers via
``readline``, body via ``readexactly(Content-Length)``, keep-alive
honoured): stdlib only, no new dependencies, enough for the load
generator, the benchmarks and curl.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import threading
import time
from typing import TYPE_CHECKING

from ..curves import curve_by_name
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from ..telemetry.metrics import summary_quantiles
from .batcher import DEFAULT_MAX_LANES, DynamicBatcher
from .workers import OP_FIELDS, WorkerPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future
    from typing import Any, Dict, List, Optional, Sequence, Tuple

    from .batcher import Batch, GroupKey

__all__ = ["CryptoService", "DEFAULT_CURVES", "MAX_BODY_BYTES"]

#: Served by default: the paper's m=163 pair — one B-curve (binary
#: ladder) and one Koblitz curve (τ ladder + comb keygen + ECDSA order).
DEFAULT_CURVES: "Tuple[str, ...]" = ("B-163", "K-163")

#: Request body cap; a full 571-bit batch request is well under 1 KiB.
MAX_BODY_BYTES = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error"}


class _HttpError(Exception):
    """A client-visible error: carried as ``(status, message)``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: "asyncio.StreamReader") -> bytes:
    """One request or header line; 400 when it overruns the stream limit."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's 64 KiB line limit
        raise _HttpError(400, "request line or header too long") from None


def _parse_int(value: "Any", name: str) -> int:
    """Accept a non-negative int or a hex string (``"1f"`` / ``"0x1f"``)."""
    if isinstance(value, bool):
        raise _HttpError(400, f"{name} must be an integer or hex string")
    if isinstance(value, int):
        if value < 0:
            raise _HttpError(400, f"{name} must be non-negative")
        return value
    if isinstance(value, str):
        text = value[2:] if value[:2].lower() == "0x" else value
        try:
            return int(text, 16)
        except ValueError:
            raise _HttpError(400, f"{name} is not a valid hex string: {value!r}") from None
    raise _HttpError(400, f"{name} must be an integer or hex string")


def _hex(value: "Optional[int]") -> "Optional[str]":
    return format(value, "x") if value is not None else None


class CryptoService:
    """The batching service: HTTP front-end + batcher + worker pool.

    ``workers=None`` sizes the pool to the CPU count; ``workers=0`` runs
    batches inline on one worker thread (the right call on single-core
    machines — no IPC, and the native backend releases the GIL during
    its C calls).  ``backend`` is a backend registry name or ``None``
    for the per-field default.  ``seed`` makes server-side keygen draws
    reproducible.
    """

    def __init__(
        self,
        *,
        backend: "Optional[str]" = None,
        curves: "Sequence[str]" = DEFAULT_CURVES,
        max_lanes: int = DEFAULT_MAX_LANES,
        workers: "Optional[int]" = None,
        start_method: "Optional[str]" = None,
        seed: "Optional[int]" = None,
    ) -> None:
        self.curves = {name: curve_by_name(name) for name in curves}
        self.pool = WorkerPool(
            workers=workers, backend=backend,
            curves=tuple(self.curves), start_method=start_method,
        )
        self.batcher = DynamicBatcher(
            self._dispatch, max_lanes=max_lanes, workers=max(1, self.pool.workers)
        )
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._server: "Optional[asyncio.AbstractServer]" = None
        self._started_at = time.monotonic()
        self.port: "Optional[int]" = None

    # -- batch plumbing ----------------------------------------------

    def _dispatch(self, batch: "Batch") -> "Future":
        """Hand one flushed batch to the pool; fan results back to futures.

        Returns the pool's lease future, which the batcher watches to know
        when a worker is free again and how long the batch ran.
        """
        fields = OP_FIELDS[batch.key[0]]
        columns = {
            field: [request.payload[field] for request in batch.requests]
            for field in fields
        }
        lease = self.pool.submit(batch.key, columns)

        def _complete(done) -> None:
            error = done.exception()
            if error is not None:
                for request in batch.requests:
                    if not request.future.done():
                        request.future.set_exception(error)
                return
            rows, _ = done.result()
            for request, row in zip(batch.requests, rows):
                if not request.future.done():
                    request.future.set_result(row)

        lease.add_done_callback(_complete)
        return lease

    # -- request validation ------------------------------------------

    def _prepare(self, op: str, body: bytes) -> "Tuple[GroupKey, Dict[str, Any]]":
        """Parse + validate one request body into ``(group key, payload)``.

        Everything that could make a request incompatible with (or
        poisonous to) a batch is decided here, at ingress: unknown or
        unserved curves, malformed integers, out-of-range scalars and
        invalid scalar recodings all turn into 400s before enqueue.
        """
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(data, dict):
            raise _HttpError(400, "the request body must be a JSON object")
        curve_name = data.get("curve")
        curve = self.curves.get(curve_name)
        if curve is None:
            raise _HttpError(
                400,
                f"unknown or unserved curve {curve_name!r}; "
                f"serving: {', '.join(sorted(self.curves))}",
            )
        scalar_rep = data.get("scalar_rep", "auto")
        if not isinstance(scalar_rep, str):
            raise _HttpError(400, "scalar_rep must be a string")
        try:
            resolved_rep = curve._resolve_scalar_rep(scalar_rep)
        except ValueError as error:
            raise _HttpError(400, str(error)) from None
        bound = curve.order if curve.order is not None else curve.field.order
        payload: "Dict[str, Any]" = {}
        if op == "keygen":
            if data.get("private") is not None:
                private = _parse_int(data["private"], "private")
            else:
                with self._rng_lock:
                    private = self._rng.randrange(1, bound)
            payload["private"] = private
        elif op == "ecdh":
            for field in OP_FIELDS["ecdh"]:
                if data.get(field) is None:
                    raise _HttpError(400, f"ecdh requires {field!r}")
                payload[field] = _parse_int(data[field], field)
            field_order = curve.field.order
            for coord in ("peer_x", "peer_y"):
                if payload[coord] >= field_order:
                    raise _HttpError(400, f"{coord} is not a field element of {curve_name}")
        elif op == "sign":
            if curve.order is None:
                raise _HttpError(
                    400, f"signing needs a curve with a known subgroup order; "
                         f"{curve_name} does not record one"
                )
            for field in OP_FIELDS["sign"]:
                if data.get(field) is None:
                    raise _HttpError(400, f"sign requires {field!r}")
                payload[field] = _parse_int(data[field], field)
        else:  # pragma: no cover - routes only reference known ops
            raise _HttpError(404, f"unknown operation {op!r}")
        if not 1 <= payload["private"] < bound:
            raise _HttpError(400, f"private must satisfy 1 <= d < {bound:#x}")
        return (op, curve_name, resolved_rep), payload

    # -- handlers -----------------------------------------------------

    async def _handle_op(self, op: str, body: bytes) -> "Tuple[int, Dict[str, Any]]":
        with _trace.span("serve.enqueue", op=op):
            key, payload = self._prepare(op, body)
            future = self.batcher.submit(key, payload)
        row = await asyncio.wrap_future(future)
        if "error" in row:
            return 400, {"error": row["error"], "curve": key[1], "op": op}
        response: "Dict[str, Any]" = {"curve": key[1], "scalar_rep": key[2]}
        if op == "keygen":
            response["private"] = _hex(payload["private"])
        for name, value in row.items():
            response[name] = _hex(value)
        return 200, response

    def healthz(self) -> "Dict[str, Any]":
        return {
            "status": "ok",
            "curves": sorted(self.curves),
            "workers": self.pool.describe(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    def stats(self) -> "Dict[str, Any]":
        """Service counters and latency quantiles from the live registry."""
        registry = _metrics.REGISTRY
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", {})
        observations = snapshot.get("observations", {})

        def _summary(name: str) -> "Dict[str, Any]":
            summary = observations.get(name)
            if not summary:
                return {"count": 0}
            out: "Dict[str, Any]" = {
                "count": summary["count"],
                "mean": summary["total_s"] / summary["count"],
                "min": summary["min_s"],
                "max": summary["max_s"],
            }
            out.update(summary_quantiles(summary))
            return out

        return {
            "queue_depth": self.batcher.queue_depth(),
            "requests": counters.get("service.requests", 0),
            "batches": counters.get("service.batches", 0),
            "batch_fallbacks": counters.get("service.batch_fallback", 0),
            # Nothing flushes on a deadline any more: "deadline" stays, always
            # 0, because perfbench/serve_http.py indexes it.
            "flush_reasons": {
                reason: counters.get(f"service.flush.{reason}", 0)
                for reason in ("size", "idle", "deadline", "close")
            },
            "batch_fill": _summary("service.batch_fill"),
            "flush_wait_s": _summary("service.flush_wait"),
            "execute_s": _summary("service.execute"),
            "queue_wait_s": _summary("service.queue_wait"),
            "latency_s": {
                op: _summary(f"service.latency.{op}") for op in OP_FIELDS
            },
            "config": {
                "curves": sorted(self.curves),
                "max_lanes": self.batcher.max_lanes,
                "workers": self.pool.workers,
                "backend": self.pool.backend_name,
            },
            "telemetry_enabled": bool(registry.enabled),
        }

    async def _route(self, method: str, path: str, body: bytes) -> "Tuple[int, Dict[str, Any]]":
        path = path.split("?", 1)[0]
        if path in ("/healthz", "/stats"):
            if method != "GET":
                return 405, {"error": f"{path} is GET-only"}
            return 200, self.healthz() if path == "/healthz" else self.stats()
        if path in ("/ecdh", "/keygen", "/sign"):
            if method != "POST":
                return 405, {"error": f"{path} is POST-only"}
            op = path[1:]
            started = time.perf_counter()
            try:
                status, payload = await self._handle_op(op, body)
            except _HttpError as error:
                return error.status, {"error": str(error)}
            elapsed = time.perf_counter() - started
            registry = _metrics.REGISTRY
            if registry.enabled:
                registry.observe(f"service.latency.{op}", elapsed)
            _trace.record_span("serve.request", started, elapsed, op=op, status=status)
            return status, payload
        return 404, {"error": f"no route for {path!r}"}

    # -- HTTP plumbing ------------------------------------------------

    async def _handle_client(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        try:
            while True:
                request_line = await _read_line(reader)
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._respond(writer, 400, {"error": "malformed request line"}, False)
                    break
                method, path, version = parts
                headers: "Dict[str, str]" = {}
                while True:
                    line = await _read_line(reader)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                    if length < 0:
                        raise ValueError(length)
                except ValueError:
                    await self._respond(writer, 400, {"error": "bad Content-Length"}, False)
                    break
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413, {"error": "request body too large"}, False)
                    break
                body = await reader.readexactly(length) if length else b""
                default_conn = "keep-alive" if version == "HTTP/1.1" else "close"
                keep_alive = headers.get("connection", default_conn).lower() != "close"
                try:
                    status, payload = await self._route(method.upper(), path, body)
                except _HttpError as error:
                    status, payload = error.status, {"error": str(error)}
                except Exception as error:  # pragma: no cover - defensive
                    status, payload = 500, {"error": f"internal error: {error}"}
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except _HttpError as error:
            with contextlib.suppress(ConnectionError):
                await self._respond(writer, error.status, {"error": str(error)}, False)
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(
        self, writer: "asyncio.StreamWriter", status: int,
        payload: "Dict[str, Any]", keep_alive: bool,
    ) -> None:
        started = time.perf_counter()
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        _trace.record_span("serve.respond", started, time.perf_counter() - started, status=status)

    # -- lifecycle ----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port (``port=0`` picks one)."""
        self._server = await asyncio.start_server(self._handle_client, host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop accepting, flush leftovers, and shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.batcher.close)
        await asyncio.to_thread(self.pool.close)

    async def run(self, host: str = "127.0.0.1", port: int = 8742, *, announce=None) -> None:
        """``start`` + serve until cancelled; the CLI entry point."""
        bound = await self.start(host, port)
        if announce is not None:
            announce(bound)
        try:
            assert self._server is not None
            await self._server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - shutdown path
            pass
        finally:
            await self.stop()
