"""The in-process workloads: ``ladder_batch``, ``serve_burst`` and ``paper_flow``.

Each class has the same shape, driven by ``worker.py``:

* ``setup()`` runs from a fresh process until the program's first results
  are back (the set-up stamp);
* ``prepare()`` computes the expectations and checks the set-up results,
  after the stamp and before the timed part;
* ``measure(seconds)`` runs the timed part and returns a dict with
  ``attempted``, ``failed``, the run's figures at reference speed
  (``e2e``: the end-to-end metrics plus the tails and the capacity, which
  the traced run reports per layer) and as measured (``e2e_raw``), the
  timed intervals (``timed``, for trace coverage) and ``cost`` (the figure
  the traced/untraced overhead is taken from, lower is better).

Every output is compared with seeded expectations computed outside the
timed regions, and a prefix is checked against the scalar reference.
On the closed loops the calibration loop (``common.calibrate``) is
sampled right before and after each timed region, and the region's time
is divided by the pair's mean slowness: ``e2e`` holds the figures at
reference speed.
The program is driven only through its public entry points, looked up on
their modules at call time so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Sequence, Tuple

from common import LATENCY_LIMIT_MS, calibrate, interpolate_max_rate, quantile, rate_ladder

#: Lanes per batched call and the number of distinct seeded input sets.
LANES = 256
INPUT_SETS = 2
#: Requests per operation checked against the scalar reference path.
SCALAR_PREFIX = 2
#: Distinct requests per operation in the serve workloads' request pool.
SERVE_POOL = 32
#: The operation mix, shared by ``ladder_batch`` and both serve workloads:
#: (op, curve, weight out of 10).
MIX = (("ecdh", "B-163", 6), ("ecdh", "K-163", 2), ("keygen", "K-163", 1), ("sign", "K-163", 1))


def _coords(points) -> List[Tuple[int, int]]:
    return [(point.x, point.y) for point in points]


def _sigs(signatures) -> List[Tuple[int, int]]:
    return [(signature.r, signature.s) for signature in signatures]


def robust_quantile(parts: Sequence[Sequence[float]], q: float) -> float:
    """Quantile ``q`` of samples taken in separate parts of a run.

    The median of the per-part quantiles when every part holds at least
    ten samples beyond it (one disturbed part then cannot move the
    figure); the quantile of the pooled samples otherwise.
    """
    if len(parts) > 1 and all(len(part) * (1.0 - q) >= 10 for part in parts):
        return quantile([quantile(part, q) for part in parts], 0.5)
    pooled = [sample for part in parts for sample in part]
    return quantile(pooled, q) if pooled else 0.0


def latency_figures(low: Sequence[Sequence[float]], high: Sequence[Sequence[float]]) -> Dict[str, float]:
    """p50, p90 and p99 in ms of the low-load and high-load latency parts (seconds)."""
    figures = {}
    for level, parts in (("low", low), ("high", high)):
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            figures[f"latency_{name}_ms.{level}"] = robust_quantile(parts, q) * 1e3
    return figures


class InputSet:
    """One seeded batch of inputs for one (op, curve); :meth:`expect` adds the outputs."""

    def __init__(self, op: str, curve, rng: random.Random, lanes: int) -> None:
        self.op = op
        self.curve = curve
        bound = curve.order if curve.order is not None else curve.field.order
        self.privates = [rng.randrange(1, bound) for _ in range(lanes)]
        self.expected: List[Tuple[int, int]] = []
        if op == "ecdh":
            # Peers are d'·G; the expectation uses the other side of the
            # agreement, d'·(d·G), so it shares no lane data with the call.
            self.peer_secrets = [rng.randrange(1, bound) for _ in range(lanes)]
            self.peers = curve.multiply_batch([curve.generator] * lanes, self.peer_secrets)
        elif op == "keygen":
            # keygen_batch draws its privates from Random(seed); mirror the draw.
            self.seed = rng.randrange(1 << 30)
            draw = random.Random(self.seed)
            self.privates = [draw.randrange(1, bound) for _ in range(lanes)]
        elif op == "sign":
            self.digests = [rng.getrandbits(curve.field.m) for _ in range(lanes)]
        else:
            raise ValueError(f"unknown op {op!r}")

    def expect(self) -> None:
        """The expected outputs, by another route than :meth:`call` (never timed)."""
        from repro.curves import protocols

        curve = self.curve
        lanes = len(self.privates)
        generator = curve.generator
        if self.op == "ecdh":
            own = curve.multiply_batch([generator] * lanes, self.privates)
            self.expected = _coords(protocols.ecdh_batch(curve, self.peer_secrets, own))
        elif self.op == "keygen":
            self.expected = _coords(
                curve.multiply_batch([generator] * lanes, self.privates, fixed_base=False)
            )
        else:
            self.expected = _sigs(
                protocols.sign_batch(curve, self.privates, self.digests, fixed_base=False)
            )

    def wrong(self, output) -> int:
        """Lanes of a full-width ``output`` that differ from the expectation."""
        got = self.flatten(output)
        return sum(a != b for a, b in zip(got, self.expected)) + abs(len(got) - len(self.expected))

    def scalar_misses(self) -> int:
        """Misses of the first lanes against the scalar reference path."""
        return sum(self.scalar_reference(index) != self.expected[index] for index in range(SCALAR_PREFIX))

    def call(self):
        """The batched protocol call on every lane (the timed part)."""
        from repro.curves import protocols

        if self.op == "ecdh":
            return protocols.ecdh_batch(self.curve, self.privates, self.peers)
        if self.op == "keygen":
            return protocols.keygen_batch(self.curve, len(self.privates), seed=self.seed)
        return protocols.sign_batch(self.curve, self.privates, self.digests)

    def flatten(self, output) -> List[Tuple[int, int]]:
        if self.op == "keygen":
            return _coords(pair.public for pair in output)
        if self.op == "sign":
            return _sigs(output)
        return _coords(output)

    def scalar_reference(self, index: int) -> Tuple[int, int]:
        from repro.curves.protocols import ecdh_shared, ecdsa_sign

        curve = self.curve
        if self.op == "ecdh":
            point = ecdh_shared(curve, self.privates[index], self.peers[index])
        elif self.op == "keygen":
            point = curve.multiply(curve.generator, self.privates[index])
        else:
            signature = ecdsa_sign(curve, self.privates[index], self.digests[index])
            return signature.r, signature.s
        return point.x, point.y


class LadderBatch:
    """Offline closed loop: 256-lane protocol calls from one thread.

    Cycles the serve mix (6 B-163 ecdh, 2 K-163 ecdh, 1 K-163 keygen,
    1 K-163 sign per cycle).  The latencies are those of the ecdh calls:
    B-163 (binary López–Dahab ladder) as ``.low`` and K-163 (τ ladder) as
    ``.high``.
    """

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.lanes = 16 if tiny else LANES
        self.check_failed = 0

    def setup(self) -> None:
        from repro.curves.catalog import curve_by_name

        rng = random.Random(self.seed)
        self.sets: Dict[Tuple[str, str], List[InputSet]] = {}
        for op, name, _ in MIX:
            curve = curve_by_name(name)
            self.sets[op, name] = [InputSet(op, curve, rng, self.lanes) for _ in range(INPUT_SETS)]
        # The program's first full-width call of each operation: lazy
        # lowerings and, on the empty store, the comb-table builds land here.
        self.first = {key: sets[0].call() for key, sets in self.sets.items()}

    def prepare(self) -> None:
        for sets in self.sets.values():
            for inputs in sets:
                inputs.expect()
        for key, output in self.first.items():
            inputs = self.sets[key][0]
            self.check_failed += inputs.wrong(output) + inputs.scalar_misses()

    def measure(self, seconds: float, mark=None) -> Dict:
        schedule = [(op, name) for op, name, weight in MIX for _ in range(weight)]
        # Call times at reference speed (index 0) and as measured (index 1).
        latency = [{key: [] for key in self.sets} for _ in range(2)]
        timed: List[Tuple[float, float]] = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        cycle = 0
        before = calibrate()
        while time.perf_counter() < deadline or cycle == 0:
            for position, key in enumerate(schedule):
                inputs = self.sets[key][(cycle + position) % INPUT_SETS]
                start = time.perf_counter()
                output = inputs.call()
                end = time.perf_counter()
                after = calibrate()
                latency[0][key].append((end - start) * 2.0 / (before + after))
                latency[1][key].append(end - start)
                before = after
                timed.append((start, end))
                attempted += self.lanes
                failed += inputs.wrong(output)
            cycle += 1
        figures = [
            dict(
                latency_figures([times["ecdh", "B-163"]], [times["ecdh", "K-163"]]),
                throughput_ops_s=attempted / sum(sum(values) for values in times.values()),
                max_rate_rps=0.0,  # a closed loop has no rate ladder
            )
            for times in latency
        ]
        return {
            "attempted": attempted,
            "failed": failed,
            "e2e": figures[0],
            "e2e_raw": figures[1],
            "timed": timed,
            "cost": 1.0 / figures[1]["throughput_ops_s"],
            "log": f"{cycle} cycles of {len(schedule)} calls",
        }

    def close(self) -> None:
        pass


class PaperFlow:
    """The paper's FPGA-flow stand-in: ``run_sweep(jobs=1)`` into an empty store."""

    FIELDS = ((64, 23), (113, 4))
    TINY_FIELDS = ((16, 3),)

    def __init__(self, seed: int, tiny: bool, scratch: str) -> None:
        self.seed = seed
        self.fields = self.TINY_FIELDS if tiny else self.FIELDS
        self.scratch = scratch
        self.sweeps = 0
        self.check_failed = 0

    def setup(self) -> None:
        import repro.netlist.simulate  # noqa: F401  (imports are part of set-up)
        from repro.pipeline.sweep import build_sweep_jobs

        self.jobs = build_sweep_jobs(fields=self.fields, efforts=[2])

    def prepare(self) -> None:
        pass

    def measure(self, seconds: float, mark=None) -> Dict:
        from repro.pipeline import store, sweep

        sweep_seconds: List[float] = []
        # Job times and sweep time at reference speed (index 0) and as measured (index 1).
        by_field = [{m: [] for m, _ in self.fields} for _ in range(2)]
        busy = [0.0, 0.0]
        timed: List[Tuple[float, float]] = []
        outcomes = []
        # Whole sweeps only: as many as fit in ``seconds`` at the first
        # sweep's pace, and at least one (the full grid takes longer than a
        # run on the reference machine).
        while not sweep_seconds or len(sweep_seconds) < seconds // sweep_seconds[0]:
            # Every sweep starts cold: a fresh empty store, no in-memory caches.
            for cache in store.named_caches().values():
                cache.clear()
            self.sweeps += 1
            target = store.ArtifactStore(f"{self.scratch}/sweep-{self.sweeps}")
            # The grid runs one cell per run_sweep call, in the sweep's own
            # order and into the same store, so the calibration can bracket
            # each job.
            before = calibrate()
            for job in self.jobs:
                start = time.perf_counter()
                result = sweep.run_sweep(fields=[(job.m, job.n)], methods=[job.method], efforts=[2],
                                         jobs=1, store=target)
                end = time.perf_counter()
                after = calibrate()
                slowness = (before + after) / 2.0
                before = after
                timed.append((start, end))
                busy[0] += (end - start) / slowness
                busy[1] += end - start
                for outcome in result.outcomes:
                    by_field[0][job.m].append(outcome.elapsed_s / slowness)
                    by_field[1][job.m].append(outcome.elapsed_s)
                    outcomes.append(outcome)
            sweep_seconds.append(sum(end - start for start, end in timed[-len(self.jobs):]))
        failed = sum(outcome.cache_hit or not self._verify(outcome) for outcome in outcomes)
        first = outcomes[: len(self.jobs)]
        totals = {
            "luts": sum(outcome.result.luts for outcome in first),
            "slices": sum(outcome.result.slices for outcome in first),
            "axt": sum(outcome.result.area_time for outcome in first),
        }
        figures = [
            dict(
                latency_figures([times[self.fields[0][0]]], [times[self.fields[-1][0]]]),
                throughput_ops_s=len(outcomes) / seconds_busy,
                max_rate_rps=0.0,  # a closed loop has no rate ladder
            )
            for times, seconds_busy in zip(by_field, busy)
        ]
        return {
            "attempted": len(outcomes),
            "failed": failed,
            "e2e": figures[0],
            "e2e_raw": figures[1],
            "timed": timed,
            "cost": 1.0 / figures[1]["throughput_ops_s"],
            "flow_totals": totals,
            "log": f"{self.sweeps} sweep(s) of {len(self.jobs)} jobs",
        }

    def _verify(self, outcome) -> bool:
        """Simulate the job's multiplier netlist on seeded operand pairs."""
        from repro.galois.field import GF2mField
        from repro.multipliers.registry import generate_multiplier
        from repro.netlist.simulate import multiply_words

        job = outcome.job
        multiplier = generate_multiplier(job.method, job.modulus, verify=False)
        rng = random.Random(f"{self.seed}:{job.label}")
        a = [rng.getrandbits(job.m) for _ in range(64)]
        b = [rng.getrandbits(job.m) for _ in range(64)]
        field = GF2mField(job.modulus, check_irreducible=False)
        return multiply_words(multiplier.netlist, job.m, a, b) == [
            field.multiply(x, y) for x, y in zip(a, b)
        ]

    def close(self) -> None:
        pass


# -- serve_burst --------------------------------------------------------


class RequestPool:
    """Seeded valid requests for the serve workloads, with expected rows."""

    def __init__(self, seed: int, per_op: int) -> None:
        from repro.curves.catalog import curve_by_name

        rng = random.Random(seed)
        self.curves = {name: curve_by_name(name) for _, name, _ in MIX}
        self.sets = {
            (op, name): InputSet(op, self.curves[name], rng, per_op) for op, name, _ in MIX
        }

    def expect(self) -> int:
        """Compute every expected row; return the scalar-reference prefix misses."""
        for inputs in self.sets.values():
            inputs.expect()
        return sum(inputs.scalar_misses() for inputs in self.sets.values())

    def payload(self, op: str, name: str, index: int) -> Dict[str, int]:
        inputs = self.sets[op, name]
        payload = {"private": inputs.privates[index]}
        if op == "ecdh":
            payload["peer_x"] = inputs.peers[index].x
            payload["peer_y"] = inputs.peers[index].y
        elif op == "sign":
            payload["digest"] = inputs.digests[index]
        return payload

    def expected(self, op: str, name: str, index: int) -> Tuple[int, int]:
        return self.sets[op, name].expected[index]

    def warm_rounds(self) -> List[List[Tuple[str, str, int]]]:
        """Set-up traffic: every pool request alone, then in pairs of two offsets.

        Batches of one and two lanes are what light traffic produces, and
        the τ ladder builds its step programs lazily per digit-gap shape,
        so these rounds leave no program to build in the timed window.
        """
        rounds: List[List[Tuple[str, str, int]]] = []
        for (op, name), inputs in self.sets.items():
            count = len(inputs.privates)
            rounds += [[(op, name, index)] for index in range(count)]
            for offset in (0, 1):
                rounds += [
                    [(op, name, index), (op, name, (index + 1) % count)]
                    for index in range(offset, count, 2)
                ]
        return rounds

    @staticmethod
    def row_value(op: str, row) -> "Tuple[int, int] | None":
        """The compared value of one result row (``None`` for an error row)."""
        if row is None or "error" in row:
            return None
        return (row["r"], row["s"]) if op == "sign" else (row["x"], row["y"])

    def draws(self, rng: random.Random, count: int) -> List[Tuple[str, str, int]]:
        """``count`` requests in the exact mix proportions, in seeded order."""
        kinds = stratified(rng, count, [((op, name), weight / 10) for op, name, weight in MIX])
        return [(op, name, rng.randrange(len(self.sets[op, name].privates))) for op, name in kinds]


def stratified(rng: random.Random, count: int, shares) -> list:
    """``count`` labels in exact proportion to ``(label, share)`` pairs, shuffled.

    Counts are rounded by largest remainder, so a run's mix never drifts
    from the stated one by more than one request per label.
    """
    exact = [share * count for _, share in shares]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(shares)), key=lambda i: exact[i] - counts[i], reverse=True)
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    labels = [label for (label, _), number in zip(shares, counts) for _ in range(number)]
    rng.shuffle(labels)
    return labels


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Poisson arrival offsets over ``duration`` seconds, conditioned on their count.

    Exactly ``rate * duration`` arrivals (rounded), placed uniformly at
    random: the spacing of a Poisson process without the run-to-run
    scatter of its count.
    """
    count = max(1, round(rate * duration))
    return sorted(rng.uniform(0.0, duration) for _ in range(count))


#: The generator is "late" when it submits this long after a due time;
#: a rung whose p99 lateness exceeds it is invalid, not passed.
LATE_LIMIT_MS = 10.0


def rung_verdict(rung: Dict) -> bool:
    """The pass rule of one rate rung (see the README's open-loop rules)."""
    return (
        rung["p99_ms"] <= LATENCY_LIMIT_MS
        and rung["failed"] == 0
        and rung["backlog_end"] <= rung["rate"] * LATENCY_LIMIT_MS / 1e3
        and rung["late_p99_ms"] <= LATE_LIMIT_MS
    )


class ServeBurst:
    """Open-loop Poisson arrivals into an in-process ``CryptoService``.

    One generator thread calls ``service.batcher.submit`` (the call the
    HTTP handler makes after ingress) at each scheduled time; latency runs
    from the scheduled time to the future's completion.
    """

    LOW, HIGH = 75.0, 150.0
    LADDER = (250.0, 4000.0)

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.service = None

    def setup(self) -> None:
        from repro.serve import CryptoService

        self.service = CryptoService(workers=0, curves=("B-163", "K-163"))
        self.pool = RequestPool(self.seed, 16 if self.tiny else SERVE_POOL)
        self.reps = {
            name: curve._resolve_scalar_rep("auto") for name, curve in self.pool.curves.items()
        }
        self.warm_rows = []
        for round_ in self.pool.warm_rounds():
            futures = [
                self.service.batcher.submit((op, name, self.reps[name]), self.pool.payload(op, name, index))
                for op, name, index in round_
            ]
            self.warm_rows += [
                (request, future.result(timeout=60)) for request, future in zip(round_, futures)
            ]

    def prepare(self) -> None:
        self.check_failed = self.pool.expect()
        for (op, name, index), row in self.warm_rows:
            self.check_failed += self.pool.row_value(op, row) != self.pool.expected(op, name, index)

    def _phase(self, rate: float, duration: float, rng: random.Random, label: str) -> Dict:
        """Run one open-loop phase and wait for it to drain."""
        offsets = poisson_schedule(rng, rate, duration)
        requests = list(zip(offsets, self.pool.draws(rng, len(offsets))))
        count = len(requests)
        done = [0.0] * count
        rows: List = [None] * count
        late = [0.0] * count
        remaining = [count]
        drained = threading.Event()
        lock = threading.Lock()
        if not count:
            drained.set()

        def finisher(index):
            def finish(future):
                done[index] = time.perf_counter()
                try:
                    rows[index] = future.result()
                except Exception as error:  # a failed request, counted below
                    rows[index] = {"error": str(error)}
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        drained.set()
            return finish

        submit = self.service.batcher.submit
        origin = time.perf_counter() + 0.01
        for index, (offset, (op, name, which)) in enumerate(requests):
            due = origin + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late[index] = time.perf_counter() - due
            submit((op, name, self.reps[name]), self.pool.payload(op, name, which)).add_done_callback(
                finisher(index)
            )
        end = origin + duration
        pause = end - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        with lock:
            backlog = remaining[0]
        drained.wait(timeout=60)
        latencies = []
        failed = 0
        answered = 0
        for index, (offset, (op, name, which)) in enumerate(requests):
            row = rows[index]
            if self.pool.row_value(op, row) != self.pool.expected(op, name, which):
                failed += 1
                latencies.append(float("inf"))
            else:
                latencies.append(done[index] - (origin + offset))
                answered += 1
        return {
            "rate": rate, "attempted": count, "failed": failed, "latencies": latencies,
            "p99_ms": quantile(latencies, 0.99) * 1e3 if latencies else 0.0,
            "late_p99_ms": quantile(late, 0.99) * 1e3 if late else 0.0,
            "backlog_end": backlog, "latency_sum_s": sum(x for x in latencies if x != float("inf")),
            "answered": answered, "span_s": max(done) - origin if count else duration,
            "late": late,
        }

    def measure(self, seconds: float, mark=None) -> Dict:
        return run_rate_phases(
            self._phase, self.seed, seconds, self.LOW, self.HIGH, self.LADDER, mark
        )

    def close(self) -> None:
        if self.service is not None:
            import asyncio

            asyncio.run(self.service.stop())
            self.service = None


#: The low and high phases each run as this many alternating parts.
PHASE_PARTS = 5


def merge_phases(items: List[Dict]) -> Dict:
    """One phase record from its parts: samples pooled, counts summed."""
    merged: Dict = {}
    for key, value in items[0].items():
        values = [item[key] for item in items]
        if isinstance(value, list):
            merged[key] = [sample for part in values for sample in part]
        elif key == "rate":
            merged[key] = value
        elif key == "backlog_end":
            merged[key] = max(values)
        else:
            merged[key] = sum(values)
    merged["p99_ms"] = quantile(merged["latencies"], 0.99) * 1e3
    merged["late_p99_ms"] = quantile(merged["late"], 0.99) * 1e3 if merged["late"] else 0.0
    return merged


def run_rate_phases(phase, seed: int, seconds: float, low: float, high: float, ladder,
                    mark=None) -> Dict:
    """Low-rate and high-rate phases, then the ×√2 ladder to the first failing rung.

    An untimed settling phase at the high rate comes first, so no phase
    pays for what the set-up left behind (garbage, cold buffers).  The
    time budget splits as 3 % settling, 50 % low and 35 % high; ladder
    rungs at or below the high rate, which the high phase has already
    exercised, get 2 % each and the rungs above it 4 % each.  ``phase`` is
    called as ``phase(rate, duration, rng, label)`` with ``label`` one of
    ``settle``, ``low``, ``high`` and ``rung``.  ``mark``, if given, is
    called with ``"start"`` and ``"end"`` around the low and high phases,
    the window the traced run's accounting covers.

    The latencies are as measured: at these rates a request's latency is
    mostly wall-clock waiting (the flush deadline, the schedule), which the
    calibration's slowness does not scale.
    """
    rng = random.Random(f"{seed}:arrivals")
    phase(high, 0.03 * seconds, rng, "settle")
    window = [time.perf_counter()]
    if mark:
        mark("start")
    # Low and high alternate in five parts each, so a passing disturbance of
    # the machine lands on both rather than on one whole phase.
    parts: Dict[str, List[Dict]] = {"low": [], "high": []}
    for _ in range(PHASE_PARTS):
        parts["low"].append(phase(low, 0.50 * seconds / PHASE_PARTS, rng, "low"))
        parts["high"].append(phase(high, 0.35 * seconds / PHASE_PARTS, rng, "high"))
    phases = {level: merge_phases(items) for level, items in parts.items()}
    if mark:
        mark("end")
    window.append(time.perf_counter())

    def rung_seconds(rate):
        return (0.02 if rate <= high else 0.04) * seconds

    # The capacity is compute-bound, so each rung is bracketed by the
    # calibration, and max_rate_rps is put at reference speed by the
    # rungs' median slowness.
    slowness: List[float] = []
    last = [calibrate()]

    def rung_phase(rate, duration):
        outcome = phase(rate, duration, rng, "rung")
        after = calibrate()
        slowness.append((last[0] + after) / 2.0)
        last[0] = after
        return outcome

    rungs = []
    retried = []
    for rate in rate_ladder(*ladder):
        rung = rung_phase(rate, rung_seconds(rate))
        if rung["late_p99_ms"] > LATE_LIMIT_MS:
            # The generator ran late: the rung is invalid, not failed.  It
            # runs once more before the walk stops on it.
            retried.append(rung)
            rung = rung_phase(rate, rung_seconds(rate))
        rung["passed"] = rung_verdict(rung)
        rungs.append(rung)
        if not rung["passed"]:
            break
    # The two rungs around the crossing run once more, twice as long; their
    # p99 for the interpolation pools both runs' samples (the verdicts stay
    # the walk's).
    bracket = rungs[-2:] if len(rungs) > 1 and not rungs[-1]["passed"] else []
    for rung in bracket:
        again = rung_phase(rung["rate"], 2 * rung_seconds(rung["rate"]))
        rung["repeat"] = again
        rung["p99_ms"] = quantile(rung["latencies"] + again["latencies"], 0.99) * 1e3
    every = list(phases.values()) + rungs + retried + [rung["repeat"] for rung in bracket]
    attempted = sum(item["attempted"] for item in every)
    failed = sum(item["failed"] for item in every)
    late = [value for item in every for value in item.pop("late")]
    e2e = dict(
        latency_figures(
            [part["latencies"] for part in parts["low"]], [part["latencies"] for part in parts["high"]]
        ),
        # Verified answers per second, from each phase's start to its last
        # answer: the offered schedule unless the service falls behind.
        throughput_ops_s=sum(item["answered"] for item in phases.values())
        / sum(item["span_s"] for item in phases.values()),
        max_rate_rps=interpolate_max_rate(rungs),
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "e2e": dict(e2e, max_rate_rps=e2e["max_rate_rps"] * quantile(slowness, 0.5)),
        "e2e_raw": e2e,
        "late_p99_ms": quantile(late, 0.99) * 1e3 if late else 0.0,
        "window": tuple(window),
        "window_latency_s": phases["low"]["latency_sum_s"] + phases["high"]["latency_sum_s"],
        "cost": e2e["latency_p50_ms.high"],
        "phases": phases,
        "rungs": rungs,
        "log": f"low {low:g}/s n={phases['low']['attempted']}, high {high:g}/s "
        f"n={phases['high']['attempted']}; ladder " + " ".join(
            f"{rung['rate']:.0f}/s:p99={rung['p99_ms']:.1f}ms,backlog={rung['backlog_end']},"
            f"late={rung['late_p99_ms']:.1f}ms,{'pass' if rung['passed'] else 'FAIL'}"
            for rung in rungs
        ),
    }
