"""Batched ECDH on one backend, and its compiled ladder executor against the
interpreting executor on the same backend.

Every backend runs the batched López-Dahab Montgomery ladder through one
loop: pack the batch once, run the compiled ladder-step formula once per
scalar bit through the backend's FieldIR executor, unpack once.  This
bench reports two figures on B-163:

* **end to end** — ``ecdh_batch`` agreements per second (the ladder plus
  the batched y-recovery and on-curve checks), under the
  ``plane_ladders_per_s`` key the committed trajectory has always used;
* **executor comparison** — a bench-local ladder loop run twice over the
  same scheduled program: once through ``backend.ir_executor()`` (fused
  uint64 plane passes on ``bitslice``, one C call per step on ``native``)
  and once through an :class:`~repro.backends.ir.InterpretingIRExecutor`
  built on the **same** backend, which interprets the program with
  :func:`~repro.backends.ir.execute_program` over the backend's batch ops.
  The two loops' final ladder registers are asserted equal, and the pair
  is timed interleaved.

The asserted floor: the compiled executor must run the ladder at least
``PLANE_FLOOR`` times faster than the interpreting executor on the same
backend.  ECDH results are asserted against the scalar-ladder reference.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_plane_ladder.py --backend native --json BENCH_plane_ladder.json
"""

from __future__ import annotations

import argparse
import random

from _harness import best_of, best_of_interleaved, rate, write_bench_json
from repro.backends import InterpretingIRExecutor, get_backend, numpy_available
from repro.curves import curve_by_name, ecdh_batch
from repro.curves.formulas import ladder_step_program

#: The headline grid point: NIST-degree B-163 at batch 256.
DEFAULT_CURVE = "B-163"
DEFAULT_BATCH = 256

#: The asserted floor: compiled over interpreting executor, same backend.
PLANE_FLOOR = 2.0

#: The committed-JSON schema version shared by the BENCH_* trajectory files.
COMMIT_PR = 8

#: The default substrate (any backend with a compiled executor).
DEFAULT_BACKEND = "bitslice"


def ladder_registers(executor, program, base_x, scalars):
    """The ladder loop: pack once, one ``run_arrays`` per scalar bit, unpack once."""
    compiled = executor.compile(program)
    count = len(base_x)
    base = executor.pack(base_x).array
    x1 = executor.pack([1] * count).array
    z1 = executor.pack([0] * count).array
    x2 = base.copy()
    z2 = x1.copy()
    for bit_index in range(max(s.bit_length() for s in scalars) - 1, -1, -1):
        mask = executor.broadcast_bits([(s >> bit_index) & 1 for s in scalars])
        x1, z1, x2, z2 = compiled.run_arrays((x1, z1, x2, z2, base), (mask,))
    return tuple(executor.unpack(executor.vector(a, count)) for a in (x1, z1, x2, z2))


def measure_plane_ladder(
    curve_name=DEFAULT_CURVE,
    batch=DEFAULT_BATCH,
    repeats=3,
    check=4,
    seed=2018,
    backend_name=DEFAULT_BACKEND,
):
    """One benchmark row: ECDH rate plus the executor comparison, parity-checked."""
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    privates = [rng.randrange(1, bound) for _ in range(batch)]
    peer_privates = [rng.randrange(1, bound) for _ in range(batch)]
    # Peers via the batched ladder itself (also warms circuit + executor caches).
    peers = curve.multiply_batch([curve.generator] * batch, peer_privates, backend=backend)

    shared, ecdh_s = best_of(lambda: ecdh_batch(curve, privates, peers, backend=backend), repeats)
    for index in range(min(check, batch)):
        if shared[index] != curve.multiply(peers[index], privates[index]):
            raise AssertionError(f"batched agreement {index} != scalar-ladder reference")

    program = ladder_step_program(curve)
    base_x = [peer.x for peer in peers]
    (compiled_regs, compiled_s), (interpreted_regs, interpreted_s) = best_of_interleaved(
        [
            lambda: ladder_registers(backend.ir_executor(), program, base_x, privates),
            lambda: ladder_registers(InterpretingIRExecutor(backend), program, base_x, privates),
        ],
        repeats,
    )
    if compiled_regs != interpreted_regs:
        raise AssertionError("compiled and interpreting executors disagree on the ladder registers")

    return {
        "curve": curve_name,
        "m": curve.field.m,
        "batch": batch,
        "backend": backend_name,
        "checked_vs_scalar": min(check, batch),
        "plane_ladders_per_s": rate(batch, ecdh_s),
        "compiled_ladder_loops_per_s": rate(batch, compiled_s),
        "interpreted_ladder_loops_per_s": rate(batch, interpreted_s),
        "speedup_compiled_vs_interpreted": (
            interpreted_s / compiled_s if compiled_s > 0 else float("inf")
        ),
    }


def report(rows):
    lines = [
        f"{'curve':>7s} {'batch':>6s} {'ecdh':>12s} {'compiled':>12s} "
        f"{'interpreted':>12s} {'speedup':>8s}"
    ]
    for row in rows:
        lines.append(
            f"{row['curve']:>7s} {row['batch']:>6d} {row['plane_ladders_per_s']:>10,.0f}/s"
            f" {row['compiled_ladder_loops_per_s']:>10,.0f}/s"
            f" {row['interpreted_ladder_loops_per_s']:>10,.0f}/s"
            f" {row['speedup_compiled_vs_interpreted']:>7.1f}x"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- pytest
def test_plane_ladder_speedup_b163():
    """The CI gate: compiled executor ≥2x the interpreting one on B-163."""
    if not numpy_available():  # pragma: no cover - CI installs numpy
        import pytest

        pytest.skip("numpy not installed; bitslice backend unavailable")
    row = measure_plane_ladder(batch=128, repeats=2)
    print("\n" + report([row]))
    assert row["speedup_compiled_vs_interpreted"] >= PLANE_FLOOR, (
        f"compiled ladder only {row['speedup_compiled_vs_interpreted']:.1f}x "
        "over the interpreting executor"
    )


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(
        description="batched ECDH rate and compiled vs interpreting ladder executor"
    )
    parser.add_argument("--curve", default=DEFAULT_CURVE)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--backend", default=DEFAULT_BACKEND, help="compiled substrate (bitslice or native)")
    parser.add_argument("--quick", action="store_true", help="batch 128, 2 repeats (CI smoke)")
    parser.add_argument("--json", default=None, metavar="PATH", help="write the machine-readable report here")
    args = parser.parse_args(argv)
    batch = 128 if args.quick else args.batch
    repeats = 2 if args.quick else args.repeats
    row = measure_plane_ladder(
        curve_name=args.curve, batch=batch, repeats=repeats, backend_name=args.backend
    )
    print(report([row]))
    if args.json:
        write_bench_json(
            args.json,
            "plane_ladder",
            COMMIT_PR,
            {"curve": args.curve, "batch": batch, "repeats": repeats, "backend": args.backend},
            [row],
        )
    speedup = row["speedup_compiled_vs_interpreted"]
    if speedup < PLANE_FLOOR:
        raise SystemExit(
            f"plane-ladder regression: {speedup:.1f}x < {PLANE_FLOOR:.0f}x compiled over "
            "the interpreting executor"
        )
    print(
        f"ok: compiled ladder {speedup:.1f}x over the interpreting executor "
        f"(floor {PLANE_FLOOR:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
