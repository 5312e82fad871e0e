"""Tests for the serving layer: batcher, worker pool, HTTP service, loadgen.

The load-bearing assertions: compatible requests (same curve x op x
resolved scalar recoding) coalesce into one batch, incompatible ones
split into separate batches, and every response is byte-identical to the
scalar reference path (``ecdh_shared`` / ``curve.multiply`` /
``ecdsa_sign``) — the service layer must never change a result, only
its throughput.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future

import pytest

from repro.curves import curve_by_name, ecdsa_sign, ecdsa_verify
from repro.curves.protocols import ecdh_shared
from repro.serve.batcher import HOLD_SHARE, DynamicBatcher
from repro.serve.loadgen import http_get, run_load
from repro.serve.server import CryptoService
from repro.serve.workers import (
    OP_FIELDS,
    WorkerPool,
    execute_group_isolated,
    preferred_start_method,
)
from repro.telemetry import metrics


@pytest.fixture
def fresh_registry():
    """A clean process registry for counter assertions; restored after."""
    registry = metrics.MetricsRegistry()
    previous = metrics.set_registry(registry)
    yield registry
    metrics.set_registry(previous)


@pytest.fixture
def toy():
    return curve_by_name("T-13")


def _keypairs(curve, count, seed):
    import random

    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(count)]
    return privates, [curve.multiply(curve.generator, d) for d in privates]


class _Leases:
    """A ``dispatch`` that records each batch and returns a lease future
    the test completes by hand: a lease left pending is a busy worker."""

    def finish(self, index, execute_s=0.0):
        """Complete lease ``index`` as a batch that ran ``execute_s``."""
        self.leases[index].set_result(([], execute_s))

    def __init__(self):
        self.batches = []
        self.leases = []
        self._flushed = threading.Condition()

    def __call__(self, batch):
        lease = Future()
        with self._flushed:
            self.batches.append(batch)
            self.leases.append(lease)
            self._flushed.notify_all()
        return lease

    def wait_for(self, count, timeout=5.0):
        with self._flushed:
            return self._flushed.wait_for(lambda: len(self.batches) >= count, timeout)


KEY = ("ecdh", "T-13", "tau")


class TestDynamicBatcher:
    def test_idle_flush_is_inline(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        try:
            batcher.submit(KEY, {"i": 0})
            # No batch has completed yet, so the hold is 0: the lone
            # request leaves on the submitting thread, before submit returns.
            assert [(batch.reason, len(batch)) for batch in leases.batches] == [("idle", 1)]
            assert batcher.queue_depth() == 0
        finally:
            batcher.close()

    def test_requests_coalesce_while_a_lease_is_pending(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        try:
            batcher.submit(KEY, {"i": 0})
            for index in range(1, 4):
                batcher.submit(KEY, {"i": index})
            time.sleep(0.05)
            assert len(leases.batches) == 1  # the only worker is busy
            assert batcher.queue_depth() == 3
            leases.finish(0)
            assert leases.wait_for(2), "no idle flush after the lease completed"
            batch = leases.batches[1]
            assert batch.reason == "idle"
            assert [request.payload["i"] for request in batch.requests] == [1, 2, 3]
        finally:
            batcher.close()

    def test_size_flush_happens_while_busy_and_splits_by_key(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=3)
        try:
            batcher.submit(KEY, {"i": -1})  # occupies the only worker
            for index in range(3):
                batcher.submit(KEY, {"i": index})
            batcher.submit(("keygen", "T-13", "tau"), {"i": 99})
            assert [batch.reason for batch in leases.batches] == ["idle", "size"]
            batch = leases.batches[1]
            assert batch.key == KEY
            assert [request.payload["i"] for request in batch.requests] == [0, 1, 2]
            assert batcher.queue_depth() == 1  # the keygen group waits for a worker
        finally:
            batcher.close()

    def test_hold_delays_idle_flush_after_a_measured_batch(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        execute_s = 1.0
        try:
            batcher.submit(KEY, {"i": 0})
            batcher.submit(KEY, {"i": 1})  # parks behind the busy worker
            time.sleep(0.2)
            freed_at = time.perf_counter()
            leases.finish(0, execute_s)
            # Request 1 has waited longer than the hold would be from its
            # arrival, but the hold runs from when the worker came free:
            # the finished batch's client can still join it.
            assert len(leases.batches) == 1, "the hold must keep the group parked"
            batcher.submit(KEY, {"i": 2})
            assert leases.wait_for(2), "the hold never passed"
            batch = leases.batches[1]
            assert batch.reason == "idle"
            assert [request.payload["i"] for request in batch.requests] == [1, 2]
            assert batch.flushed_at - freed_at >= HOLD_SHARE * execute_s
        finally:
            batcher.close()

    def test_a_busy_group_does_not_starve_a_lone_one(self):
        """Closed-loop ecdh clients keep their group the largest; a lone
        sign request, parked behind the same busy worker, must still ride
        one of the next two batches."""
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=64)
        lone = ("sign", "T-13", "tau")
        try:
            batcher.submit(KEY, {"i": 0})  # occupies the only worker
            batcher.submit(lone, {"i": -1})
            for done in range(2):
                for index in range(3):
                    batcher.submit(KEY, {"i": 1 + 3 * done + index})
                leases.finish(done, execute_s=0.05)
                assert leases.wait_for(done + 2), "no idle flush after the lease completed"
            assert lone in [batch.key for batch in leases.batches]
        finally:
            batcher.close()

    def test_a_second_free_worker_does_not_restart_the_hold(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8, workers=2)
        execute_s = 2.0  # a 0.2 s hold
        try:
            batcher.submit(KEY, {"i": 0})
            batcher.submit(("keygen", "T-13", "tau"), {"i": 1})
            freed_at = time.perf_counter()
            leases.finish(0, execute_s)  # saturated -> one free: the hold starts
            batcher.submit(KEY, {"i": 2})
            time.sleep(0.1)
            second_free_at = time.perf_counter()
            leases.finish(1, execute_s)  # a worker was already free
            assert leases.wait_for(3), "the hold never passed"
            batch = leases.batches[2]
            assert [request.payload["i"] for request in batch.requests] == [2]
            assert batch.flushed_at - freed_at >= HOLD_SHARE * execute_s
            assert batch.flushed_at - second_free_at < HOLD_SHARE * execute_s
        finally:
            batcher.close()

    def test_dispatch_error_frees_its_slot(self):
        leases = _Leases()

        def dispatch(batch):
            if batch.requests[0].payload["i"] == 0:
                raise RuntimeError("backend on fire")
            return leases(batch)

        batcher = DynamicBatcher(dispatch, max_lanes=8)
        try:
            failed = batcher.submit(KEY, {"i": 0})
            with pytest.raises(RuntimeError, match="on fire"):
                failed.result(timeout=5)
            batcher.submit(KEY, {"i": 1})
            # The failed dispatch gave its worker back: the next request
            # flushes inline instead of waiting behind a phantom lease.
            assert [batch.reason for batch in leases.batches] == ["idle"]
        finally:
            batcher.close()

    def test_two_workers_allow_two_batches_in_flight(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8, workers=2)
        try:
            batcher.submit(KEY, {"i": 0})
            batcher.submit(("keygen", "T-13", "tau"), {"i": 1})
            batcher.submit(("sign", "T-13", "tau"), {"i": 2})
            assert [batch.key[0] for batch in leases.batches] == ["ecdh", "keygen"]
            assert batcher.queue_depth() == 1
            leases.finish(1)
            assert leases.wait_for(3), "the freed worker took no batch"
            assert leases.batches[2].key[0] == "sign"
        finally:
            batcher.close()

    def test_concurrent_submitters_keep_idle_flushes_within_workers(self):
        """8 submitting threads, leases completed on 4 pool threads, a tiny
        switch interval: every request rides exactly one batch, and no idle
        flush ever finds ``workers`` leases already running."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        workers, threads, per_thread = 2, 8, 40
        completer = ThreadPoolExecutor(max_workers=4)
        lock = threading.Lock()
        seen, running, overlaps = [], [0], []

        def finish(lease):
            time.sleep(0.001)
            with lock:
                running[0] -= 1
            lease.set_result(([], 0.0))

        def dispatch(batch):
            lease = Future()
            with lock:
                seen.extend(request.payload["i"] for request in batch.requests)
                running[0] += 1
                if batch.reason == "idle" and running[0] > workers:
                    overlaps.append(running[0])
            completer.submit(finish, lease)
            return lease

        def submitter(offset):
            for index in range(per_thread):
                key = ("ecdh" if index % 3 else "sign", "T-13", "tau")
                batcher.submit(key, {"i": offset + index})

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        batcher = DynamicBatcher(dispatch, max_lanes=16, workers=workers)
        try:
            pool = [
                threading.Thread(target=submitter, args=(n * per_thread,))
                for n in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            batcher.close()
            completer.shutdown(wait=True)
            sys.setswitchinterval(switch)
        assert sorted(seen) == list(range(threads * per_thread))
        assert overlaps == []

    def test_close_flushes_what_is_pending(self):
        leases = _Leases()
        batcher = DynamicBatcher(leases, max_lanes=8)
        batcher.submit(KEY, {"i": 0})
        batcher.submit(KEY, {"i": 1})
        batcher.submit(KEY, {"i": 2})
        batcher.close()  # the first lease is still pending
        assert [(batch.reason, len(batch)) for batch in leases.batches] == [
            ("idle", 1), ("close", 2)
        ]

    def test_submit_after_close_is_refused(self):
        batcher = DynamicBatcher(_Leases(), max_lanes=2)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(KEY, {})

    def test_telemetry_counts_requests_batches_and_fill(self, fresh_registry):
        batcher = DynamicBatcher(_Leases(), max_lanes=2)
        try:
            for index in range(3):
                batcher.submit(KEY, {"i": index})
        finally:
            batcher.close()
        snap = fresh_registry.snapshot()
        assert snap["counters"]["service.requests"] == 3
        assert snap["counters"]["service.batches"] == 2
        assert snap["counters"]["service.flush.idle"] == 1
        assert snap["counters"]["service.flush.size"] == 1
        fill = snap["observations"]["service.batch_fill"]
        assert fill["count"] == 2 and fill["min_s"] == 1 and fill["max_s"] == 2
        assert snap["observations"]["service.flush_wait"]["count"] == 3


class TestWorkerPool:
    def test_inline_pool_matches_scalar_reference(self, toy):
        privates, peers = _keypairs(toy, 6, seed=1)
        other, _ = _keypairs(toy, 6, seed=2)
        pool = WorkerPool(workers=0, curves=("T-13",))
        try:
            rows, _ = pool.submit(
                ("ecdh", "T-13", "tau"),
                {
                    "private": other,
                    "peer_x": [point.x for point in peers],
                    "peer_y": [point.y for point in peers],
                },
            ).result(timeout=30)
        finally:
            pool.close()
        for private, peer, row in zip(other, peers, rows):
            reference = ecdh_shared(toy, private, peer)
            assert (row["x"], row["y"]) == (reference.x, reference.y)

    def test_bad_request_does_not_poison_its_batch(self, toy):
        privates, peers = _keypairs(toy, 3, seed=3)
        xs = [point.x for point in peers]
        ys = [point.y for point in peers]
        ys[1] ^= 1  # knock the middle peer off the curve
        rows = execute_group_isolated(
            toy, None, "ecdh", "tau",
            {"private": privates, "peer_x": xs, "peer_y": ys},
        )
        assert "error" in rows[1]
        for index in (0, 2):
            reference = ecdh_shared(toy, privates[index], peers[index])
            assert (rows[index]["x"], rows[index]["y"]) == (reference.x, reference.y)

    def test_sign_group_produces_valid_scalar_identical_signatures(self, toy):
        privates, publics = _keypairs(toy, 4, seed=4)
        digests = [97, 0xDEADBEEF, 1, 2 ** 40 + 5]
        rows = execute_group_isolated(
            toy, None, "sign", "tau", {"private": privates, "digest": digests}
        )
        for private, public, digest, row in zip(privates, publics, digests, rows):
            reference = ecdsa_sign(toy, private, digest)
            assert (row["r"], row["s"]) == (reference.r, reference.s)
            assert ecdsa_verify(toy, public, digest, reference)

    def test_process_pool_is_byte_identical_and_folds_metrics(self, toy, fresh_registry):
        privates, peers = _keypairs(toy, 5, seed=5)
        other, _ = _keypairs(toy, 5, seed=6)
        columns = {
            "private": other,
            "peer_x": [point.x for point in peers],
            "peer_y": [point.y for point in peers],
        }
        pool = WorkerPool(workers=1, curves=("T-13",))
        try:
            rows, _ = pool.submit(("ecdh", "T-13", "tau"), columns).result(timeout=60)
        finally:
            pool.close()
        for private, peer, row in zip(other, peers, rows):
            reference = ecdh_shared(toy, private, peer)
            assert (row["x"], row["y"]) == (reference.x, reference.y)
        counters = fresh_registry.snapshot()["counters"]
        assert any(name.startswith("backend.") for name in counters), (
            "worker-process telemetry snapshot was not folded into the parent"
        )

    def test_execute_excludes_and_queue_wait_includes_earlier_groups(
        self, toy, fresh_registry, monkeypatch
    ):
        """Two groups on the inline pool, each slowed to 50 ms: the second one
        queues behind the first, and only that wait counts as queue_wait."""
        from repro.serve import workers

        def slow_group(curve, backend, op, scalar_rep, columns):
            time.sleep(0.05)
            return [{"x": 0, "y": 0} for _ in columns["private"]]

        monkeypatch.setattr(workers, "execute_group_isolated", slow_group)
        pool = WorkerPool(workers=0, curves=())
        try:
            futures = [
                pool.submit(("keygen", "T-13", "tau"), {"private": [index + 1]})
                for index in range(2)
            ]
            for future in futures:
                future.result(timeout=30)
        finally:
            pool.close()
        observations = fresh_registry.snapshot()["observations"]
        execute = observations["service.execute"]
        queue_wait = observations["service.queue_wait"]
        assert execute["count"] == queue_wait["count"] == 2
        assert 0.05 <= execute["min_s"] and execute["max_s"] < 0.09
        assert queue_wait["max_s"] >= 0.045  # the second group waited out the first

    def test_backend_must_be_a_name(self):
        with pytest.raises(TypeError):
            WorkerPool(workers=0, backend=object(), curves=())

    def test_preferred_start_method_validates(self):
        assert preferred_start_method() in ("fork", "spawn")
        with pytest.raises(ValueError):
            preferred_start_method("not-a-start-method")


def _with_service(async_fn, **service_kwargs):
    """Run ``async_fn(service, port)`` against a live service, then stop it."""
    service_kwargs.setdefault("curves", ("T-13",))
    service_kwargs.setdefault("workers", 0)
    service_kwargs.setdefault("seed", 99)

    async def runner():
        service = CryptoService(**service_kwargs)
        port = await service.start()
        try:
            return await async_fn(service, port)
        finally:
            await service.stop()

    return asyncio.run(runner())


async def _exchange(port, talk):
    """Open a connection, return ``await talk(reader, writer)``, close it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await talk(reader, writer)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def _post_json(port, path, payload):
    from repro.serve.loadgen import _post

    return await _exchange(port, lambda reader, writer: _post(reader, writer, path, payload))


async def _raw_request(port, head):
    """Send raw request bytes; returns the parsed ``(status, body)``."""
    from repro.serve.loadgen import _read_response

    async def talk(reader, writer):
        writer.write(head)
        await writer.drain()
        return await _read_response(reader)

    return await _exchange(port, talk)


class TestCryptoService:
    def test_mixed_ops_and_reps_split_into_compatible_batches(self, toy, fresh_registry):
        """Concurrent requests across op x scalar_rep coalesce per group and
        every response is byte-identical to the scalar reference."""
        privates, peers = _keypairs(toy, 4, seed=7)
        other, _ = _keypairs(toy, 4, seed=8)
        digests = [11, 22, 33, 44]

        async def scenario(service, port):
            requests = []
            for index in range(4):
                requests.append(("/ecdh", {
                    "curve": "T-13", "scalar_rep": "binary",
                    "private": format(other[index], "x"),
                    "peer_x": format(peers[index].x, "x"),
                    "peer_y": format(peers[index].y, "x"),
                }))
                # "tau" and "auto" resolve identically on a Koblitz curve, so
                # these two land in the SAME group.
                rep = "tau" if index % 2 else "auto"
                requests.append(("/ecdh", {
                    "curve": "T-13", "scalar_rep": rep,
                    "private": format(other[index], "x"),
                    "peer_x": format(peers[index].x, "x"),
                    "peer_y": format(peers[index].y, "x"),
                }))
                requests.append(("/keygen", {"curve": "T-13", "private": format(privates[index], "x")}))
                requests.append(("/sign", {
                    "curve": "T-13",
                    "private": format(privates[index], "x"),
                    "digest": format(digests[index], "x"),
                }))
            return await asyncio.gather(
                *(_post_json(port, path, payload) for path, payload in requests)
            )

        responses = _with_service(scenario, max_lanes=64)
        assert all(status == 200 for status, _ in responses)
        for index in range(4):
            ecdh_bin, ecdh_tau, keygen, sign = responses[4 * index: 4 * index + 4]
            reference = ecdh_shared(toy, other[index], peers[index])
            for _, payload in (ecdh_bin, ecdh_tau):
                assert int(payload["x"], 16) == reference.x
                assert int(payload["y"], 16) == reference.y
            public = toy.multiply(toy.generator, privates[index])
            assert int(keygen[1]["x"], 16) == public.x
            assert int(keygen[1]["y"], 16) == public.y
            signature = ecdsa_sign(toy, privates[index], digests[index])
            assert int(sign[1]["r"], 16) == signature.r
            assert int(sign[1]["s"], 16) == signature.s
        counters = fresh_registry.snapshot()["counters"]
        assert counters["service.requests"] == 16
        # 4 distinct groups: ecdh-binary, ecdh-tau (tau + auto merged),
        # keygen-tau, sign-tau, so at least one batch per group; every
        # batch has exactly one flush reason.
        assert counters["service.batches"] >= 4
        assert sum(
            counters.get(f"service.flush.{reason}", 0) for reason in ("size", "idle", "close")
        ) == counters["service.batches"]

    def test_mixed_curves_split_into_separate_batches(self, fresh_registry):
        """One service, two warmed curves; responses stay byte-identical."""
        k163 = curve_by_name("K-163")
        toy = curve_by_name("T-13")
        k_privates, k_peers = _keypairs(k163, 1, seed=9)
        t_privates, t_peers = _keypairs(toy, 1, seed=10)

        async def scenario(service, port):
            return await asyncio.gather(
                _post_json(port, "/ecdh", {
                    "curve": "K-163",
                    "private": format(k_privates[0], "x"),
                    "peer_x": format(k_peers[0].x, "x"),
                    "peer_y": format(k_peers[0].y, "x"),
                }),
                _post_json(port, "/ecdh", {
                    "curve": "T-13",
                    "private": format(t_privates[0], "x"),
                    "peer_x": format(t_peers[0].x, "x"),
                    "peer_y": format(t_peers[0].y, "x"),
                }),
            )

        k_response, t_response = _with_service(
            scenario, curves=("T-13", "K-163"), max_lanes=16
        )
        assert k_response[0] == 200 and t_response[0] == 200
        k_reference = ecdh_shared(k163, k_privates[0], k_peers[0])
        assert int(k_response[1]["x"], 16) == k_reference.x
        assert int(k_response[1]["y"], 16) == k_reference.y
        t_reference = ecdh_shared(toy, t_privates[0], t_peers[0])
        assert int(t_response[1]["x"], 16) == t_reference.x
        assert int(t_response[1]["y"], 16) == t_reference.y
        assert fresh_registry.snapshot()["counters"]["service.batches"] == 2

    def test_server_side_keygen_draw_is_consistent(self, toy):
        async def scenario(service, port):
            return await _post_json(port, "/keygen", {"curve": "T-13"})

        status, payload = _with_service(scenario)
        assert status == 200
        private = int(payload["private"], 16)
        public = toy.multiply(toy.generator, private)
        assert int(payload["x"], 16) == public.x
        assert int(payload["y"], 16) == public.y

    def test_bad_peer_gets_400_without_poisoning_the_batch(self, toy):
        privates, peers = _keypairs(toy, 2, seed=11)

        async def scenario(service, port):
            good = _post_json(port, "/ecdh", {
                "curve": "T-13",
                "private": format(privates[0], "x"),
                "peer_x": format(peers[0].x, "x"),
                "peer_y": format(peers[0].y, "x"),
            })
            bad = _post_json(port, "/ecdh", {
                "curve": "T-13",
                "private": format(privates[1], "x"),
                "peer_x": format(peers[1].x, "x"),
                "peer_y": format(peers[1].y ^ 1, "x"),
            })
            return await asyncio.gather(good, bad)

        good_response, bad_response = _with_service(scenario, max_lanes=8)
        assert bad_response[0] == 400
        assert "error" in bad_response[1]
        assert good_response[0] == 200
        reference = ecdh_shared(toy, privates[0], peers[0])
        assert int(good_response[1]["x"], 16) == reference.x

    def test_ingress_validation_and_routing(self):
        async def scenario(service, port):
            cases = {}
            cases["health"] = await http_get("127.0.0.1", port, "/healthz")
            cases["missing"] = await http_get("127.0.0.1", port, "/nope")
            cases["wrong_method"] = await _post_json(port, "/healthz", {})
            cases["unknown_curve"] = await _post_json(port, "/ecdh", {"curve": "B-571"})
            cases["bad_rep"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "scalar_rep": "ternary"}
            )
            cases["bad_hex"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "private": "xyz"}
            )
            cases["zero_private"] = await _post_json(
                port, "/keygen", {"curve": "T-13", "private": 0}
            )
            cases["missing_field"] = await _post_json(
                port, "/sign", {"curve": "T-13", "private": "5"}
            )
            for length in ("abc", "-5"):
                cases[f"content_length_{length}"] = await _raw_request(
                    port, f"POST /keygen HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode()
                )
            cases["stats"] = await http_get("127.0.0.1", port, "/stats")
            return cases

        cases = _with_service(scenario)
        assert cases["health"][0] == 200 and cases["health"][1]["status"] == "ok"
        assert cases["missing"][0] == 404
        assert cases["wrong_method"][0] == 405
        assert cases["unknown_curve"][0] == 400
        assert "serving" in cases["unknown_curve"][1]["error"]
        assert cases["bad_rep"][0] == 400
        assert cases["bad_hex"][0] == 400
        assert cases["zero_private"][0] == 400
        assert cases["missing_field"][0] == 400
        for length in ("abc", "-5"):
            assert cases[f"content_length_{length}"] == (400, {"error": "bad Content-Length"})
        stats = cases["stats"][1]
        assert stats["queue_depth"] == 0
        assert set(stats["flush_reasons"]) == {"size", "idle", "deadline", "close"}
        assert "latency_s" in stats and "batch_fill" in stats
        assert stats["flush_wait_s"]["count"] == stats["requests"]
        assert "execute_s" in stats and "queue_wait_s" in stats

    def test_loadgen_closed_loop_verifies_every_response(self):
        async def scenario(service, port):
            return await run_load(
                "127.0.0.1", port, op="ecdh", curve="T-13",
                clients=8, requests_per_client=2, seed=21, spot_checks=2,
            )

        result = _with_service(scenario, max_lanes=16)
        assert result.errors == []
        assert result.completed == result.total == 16
        assert result.verified == 16
        assert result.spot_checked == 2
        assert result.throughput > 0
        assert set(result.latency_quantiles()) == {"p50", "p95", "p99"}
