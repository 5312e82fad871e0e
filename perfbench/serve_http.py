"""``serve_http``: ``repro serve`` as a child process, driven over HTTP.

A single-process asyncio generator keeps two keep-alive connections and
sends seeded Poisson arrivals: each connection sends the next due request
when its previous one returns, and latency runs from the due time.  The
mix is the serve mix plus about 2 % malformed requests (non-hex scalar,
out-of-range scalar, unserved curve) that must get a 400 at ingress, and
one off-curve peer in each of the low and high phases (about 0.2 % of a
run's requests).  An off-curve peer passes ingress, poisons its batch and
must get a 400 from the scalar fallback, while its batchmates still get
correct answers; the ``/stats`` fallback count must rise by exactly the
off-curve requests sent.

Set-up is a restart on a warm store, timed from the server's start to the
end of the set-up traffic.  The traced pass restarts the server under
``serve_child.py``, which wraps the layers inside the server process;
``/stats`` deltas give the server-side route time and ingress rejections.
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import process_peak_rss_mb, quantile
from workloads import PHASE_PARTS, SERVE_POOL, RequestPool, poisson_schedule, run_rate_phases, stratified

HERE = Path(__file__).resolve().parent
PORT_LINE = re.compile(r"on http://127\.0\.0\.1:(\d+)")
#: Share of the mix that is malformed and must be refused at ingress.
MALFORMED_SHARE = 0.02
CONNECTIONS = 2


async def _exchange(reader, writer, method: str, path: str, body: bytes = b""):
    writer.write(
        (f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
         f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n").encode("latin-1") + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("the server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length) if length else b"{}")


class Server:
    """One ``repro serve`` child process on a free port."""

    def __init__(self, seed: int, store: str, traced_out: Optional[str]) -> None:
        self.started = time.perf_counter()
        args = ["serve", "--workers", "0", "--port", "0", "--seed", str(seed)]
        if traced_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, str(HERE / "serve_child.py"), traced_out] + args
        self.log_path = Path(store) / f"server-{time.monotonic_ns()}.log"
        self.log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stdout=self.log, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            found = PORT_LINE.search(self.log_path.read_text())
            if found:
                return int(found.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"the server did not start:\n{self.log_path.read_text()[-2000:]}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class ServeHttp:
    LOW, HIGH = 20.0, 50.0
    LADDER = (25.0, 800.0)

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.seed = seed
        self.tiny = tiny
        self.scratch = scratch
        self.server: Optional[Server] = None
        self.setup_sample: Optional[float] = None
        self.server_rss_mb: Optional[float] = None

    # -- requests -------------------------------------------------------

    def _body(self, op: str, name: str, index: int) -> bytes:
        payload = {"curve": name}
        payload.update({key: format(value, "x") for key, value in self.pool.payload(op, name, index).items()})
        return json.dumps(payload).encode()

    def _draws(self, rng: random.Random, count: int, off_curve: int) -> List[Tuple[str, bytes, object, str]]:
        """``count`` requests: (path, body, expectation, kind), ``off_curve`` of them off-curve.

        The rest are malformed and valid in exact shares.  An int
        expectation is the status the request must get.
        """
        kinds = stratified(rng, count - off_curve, [("malformed", MALFORMED_SHARE),
                                                    ("valid", 1.0 - MALFORMED_SHARE)])
        for _ in range(off_curve):
            kinds.insert(rng.randrange(len(kinds) + 1), "off_curve")
        valid = iter(self.pool.draws(rng, kinds.count("valid")))
        requests = []
        for kind in kinds:
            if kind == "off_curve":
                requests.append(("/ecdh", rng.choice(self.off_curve), 400, kind))
            elif kind == "malformed":
                path, body = rng.choice(self.malformed)
                requests.append((path, body, 400, kind))
            else:
                op, name, index = next(valid)
                expected = self.pool.expected(op, name, index)
                requests.append((f"/{op}", self._body(op, name, index), expected, kind))
        return requests

    def _prepare_invalid(self) -> None:
        curve = self.pool.curves["B-163"]
        self.off_curve = []
        for index in range(4):
            payload = dict(self.pool.payload("ecdh", "B-163", index), curve="B-163")
            payload["peer_y"] ^= 1
            if curve.is_on_curve(payload["peer_x"], payload["peer_y"]):
                continue
            self.off_curve.append(json.dumps(
                {k: (format(v, "x") if isinstance(v, int) else v) for k, v in payload.items()}
            ).encode())
        order = self.pool.curves["K-163"].order
        # Non-hex scalar, out-of-range scalar, unserved curve.
        self.malformed = [
            (path, json.dumps(body).encode()) for path, body in (
                ("/ecdh", {"curve": "B-163", "private": "zz12", "peer_x": "1", "peer_y": "1"}),
                ("/keygen", {"curve": "K-163", "private": format(order, "x")}),
                ("/ecdh", {"curve": "B-233", "private": "5", "peer_x": "1", "peer_y": "1"}),
            )
        ]

    @staticmethod
    def _verdict(status: int, reply: Dict, expected) -> bool:
        if isinstance(expected, int):
            return status == expected and "error" in reply
        if status != 200:
            return False
        keys = ("r", "s") if "r" in reply else ("x", "y")
        try:
            return tuple(int(reply[key], 16) for key in keys) == expected
        except (KeyError, TypeError, ValueError):
            return False

    # -- lifecycle ------------------------------------------------------

    async def _warm(self, port: int) -> List[Tuple[Tuple[str, str, int], int, Dict]]:
        """Send the pool's set-up rounds, one request per connection; return the replies."""
        connections = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

        async def one(connection, request):
            op, name, index = request
            status, reply = await _exchange(*connection, "POST", f"/{op}", self._body(op, name, index))
            return request, status, reply

        replies = []
        try:
            for round_ in self.pool.warm_rounds():
                replies += await asyncio.gather(
                    *(one(connection, request) for connection, request in zip(connections, round_))
                )
        finally:
            for _, writer in connections:
                writer.close()
                await writer.wait_closed()
        return replies

    def _warm_misses(self, replies) -> int:
        return sum(
            not self._verdict(status, reply, self.pool.expected(*request))
            for request, status, reply in replies
        )

    def setup(self) -> None:
        self.pool = RequestPool(self.seed, 16 if self.tiny else SERVE_POOL)
        self._prepare_invalid()
        self.server = Server(self.seed, self.scratch, None)
        # As in serve_burst: every distinct request once before timing.
        self.warm_replies = asyncio.run(self._warm(self.server.port))
        self.setup_sample = time.perf_counter() - self.server.started

    def prepare(self) -> None:
        self.check_failed = self.pool.expect() + self._warm_misses(self.warm_replies)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    async def _stats(self) -> Dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
        try:
            return (await _exchange(reader, writer, "GET", "/stats"))[1]
        finally:
            writer.close()
            await writer.wait_closed()

    # -- load -----------------------------------------------------------

    async def _phase_async(self, rate: float, duration: float, rng: random.Random,
                           off_curve: int) -> Dict:
        offsets = poisson_schedule(rng, rate, duration)
        requests = list(zip(offsets, self._draws(rng, len(offsets), off_curve)))
        count = len(requests)
        latency: List[float] = [float("inf")] * count
        round_trip: List[float] = []
        late: List[float] = []
        failed = [0]
        posts = [0]
        cursor = [0]
        origin = time.perf_counter() + 0.01
        last = [origin]
        in_flight = [0]

        async def connection():
            reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
            free_at = time.perf_counter()
            try:
                while cursor[0] < count:
                    index = cursor[0]
                    cursor[0] += 1
                    offset, (path, body, expected, _) = requests[index]
                    due = origin + offset
                    pause = due - time.perf_counter()
                    if pause > 0:
                        await asyncio.sleep(pause)
                    sent = time.perf_counter()
                    late.append(sent - max(due, free_at))
                    in_flight[0] += 1
                    posts[0] += 1
                    try:
                        status, reply = await _exchange(reader, writer, "POST", path, body)
                    except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
                        failed[0] += 1
                        reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
                        continue
                    finally:
                        in_flight[0] -= 1
                    free_at = time.perf_counter()
                    last[0] = max(last[0], free_at)
                    if self._verdict(status, reply, expected):
                        latency[index] = free_at - due
                        round_trip.append(free_at - sent)
                    else:
                        failed[0] += 1
            finally:
                writer.close()
                await writer.wait_closed()

        async def backlog_probe():
            await asyncio.sleep(max(origin + duration - time.perf_counter(), 0.0))
            # Requests due by now but not yet answered: sent and in flight,
            # or still waiting for a free connection.
            due = sum(1 for offset, _ in requests if origin + offset <= time.perf_counter())
            answered = sum(1 for value in latency if value != float("inf"))
            return max(due - answered - failed[0], in_flight[0])

        probe = asyncio.ensure_future(backlog_probe())
        await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
        backlog = await probe
        finite = [value for value in latency if value != float("inf")]
        return {
            "rate": rate, "attempted": count, "failed": failed[0],
            "latencies": latency,
            "p99_ms": quantile(latency, 0.99) * 1e3 if latency else 0.0,
            "late_p99_ms": quantile(late, 0.99) * 1e3 if late else 0.0,
            "backlog_end": backlog, "latency_sum_s": sum(finite),
            "round_trip_s": sum(round_trip), "answered": len(round_trip), "posts": posts[0],
            "span_s": last[0] - origin,
            "malformed": sum(1 for _, request in requests if request[3] == "malformed"),
            "off_curve": off_curve,
            "late": late,
        }

    def measure(self, seconds: float, traced: bool = False) -> Dict:
        if traced:
            self.server.stop()
            self.layers_path = str(Path(self.scratch) / "server-layers.json")
            self.server = Server(self.seed, self.scratch, self.layers_path)
            self.check_failed += self._warm_misses(asyncio.run(self._warm(self.server.port)))
        before = asyncio.run(self._stats())
        phases: List[Dict] = []
        marks: Dict[str, Dict] = {}
        # One off-curve request in a seeded part of each of the low and high phases.
        placement = random.Random(f"{self.seed}:off-curve")
        poisoned = {label: placement.randrange(PHASE_PARTS) for label in ("low", "high")}
        parts_seen = {"low": 0, "high": 0}

        def phase(rate, duration, rng, label):
            off_curve = 0
            if label in parts_seen:
                off_curve = int(parts_seen[label] == poisoned[label])
                parts_seen[label] += 1
            result = asyncio.run(self._phase_async(rate, duration, rng, off_curve))
            phases.append(result)
            return result

        def mark(label):
            if traced:  # open or close the traced server's window
                self.server.process.send_signal(signal.SIGUSR1 if label == "start" else signal.SIGUSR2)
            marks[label] = asyncio.run(self._stats())

        outcome = run_rate_phases(phase, self.seed, seconds, self.LOW, self.HIGH, self.LADDER, mark)
        after = asyncio.run(self._stats())
        if not traced:
            self.server_rss_mb = process_peak_rss_mb(self.server.process.pid)
        outcome["stats"] = (marks["start"], marks["end"])
        window = (outcome["phases"]["low"], outcome["phases"]["high"])
        outcome["round_trip_s"] = sum(item["round_trip_s"] for item in window)
        outcome["answered"] = sum(item["answered"] for item in window)
        outcome["posts"] = sum(item["posts"] for item in phases)
        # Ingress must refuse exactly the malformed requests: every other
        # POST reaches the batcher (service.requests).
        rejected = outcome["posts"] - (after["requests"] - before["requests"])
        self.check_failed += abs(rejected - sum(item["malformed"] for item in phases))
        # Each off-curve request must have sent its batch to the scalar fallback.
        fallbacks = after["batch_fallbacks"] - before["batch_fallbacks"]
        self.check_failed += abs(fallbacks - sum(item["off_curve"] for item in phases))
        outcome["rejected_400"] = rejected
        outcome["timed"] = []
        return outcome

    def traced_figures(self, untraced: Dict, traced: Dict) -> Dict[str, float]:
        """Server-side layers (wrapped in the server) plus ``/stats`` deltas."""
        self.server.stop()
        self.server = None
        figures = json.loads(Path(self.layers_path).read_text())
        before, after = traced.pop("stats")
        untraced.pop("stats", None)
        route_count = sum(after["latency_s"][op]["count"] - before["latency_s"][op]["count"]
                          for op in after["latency_s"])
        route_total = sum(
            after["latency_s"][op].get("mean", 0.0) * after["latency_s"][op]["count"]
            - before["latency_s"][op].get("mean", 0.0) * before["latency_s"][op]["count"]
            for op in after["latency_s"]
        )
        route_ms = route_total / route_count * 1e3 if route_count else 0.0
        figures["server.route_ms.mean"] = route_ms
        round_trip_ms = traced["round_trip_s"] / traced["answered"] * 1e3 if traced["answered"] else 0.0
        figures["server.outside_route_ms.mean"] = round_trip_ms - route_ms
        figures["server.rejected_400"] = float(traced["rejected_400"])
        for reason in ("size", "deadline"):
            figures[f"batcher.flush.{reason}"] = float(
                after["flush_reasons"][reason] - before["flush_reasons"][reason]
            )
        figures["trace.overhead_frac"] = traced["cost"] / untraced["cost"] - 1.0
        figures["loadgen.late_ms.p99"] = traced["late_p99_ms"]
        figures["trace.unattributed_frac"] = 1.0 - route_total / traced["window_latency_s"]
        for name in ("luts", "slices", "axt"):
            figures[f"flow.{name}_total"] = 0.0
        return figures
