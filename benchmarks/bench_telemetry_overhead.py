"""Telemetry overhead A/B — the PR 8 "observability is free when off" gate.

Runs the identical compiled-formula López-Dahab ladder (the PR 6 fused
step, B-163 at batch 256) twice per repetition, interleaved: once with the
process :class:`~repro.telemetry.metrics.MetricsRegistry` enabled and once
with the :class:`~repro.telemetry.metrics.NullRegistry` installed.  The
instrumentation contract is that every hot-path hook costs one attribute
check when telemetry is off and one dict update when it is on, so the two
timings must agree to within ``OVERHEAD_CEILING`` (the asserted ≤ 3%
acceptance figure) on every available IR substrate.

Span tracing is **off on both sides** of the asserted A/B — the tracer
records one event per fused pass per ladder step, which is a deliberate
deep-inspection mode, not a production default.  Its cost is still
interesting, so the benchmark measures a third, traced run and reports the
ratio without asserting a floor on it.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --quick

or under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import random

from _harness import best_of_interleaved, rate, write_bench_json
from bench_plane_ladder import ladder_registers
from repro.backends import available_backends, get_backend, numpy_available
from repro.curves import curve_by_name
from repro.curves.formulas import ladder_step_program
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import trace as telemetry_trace

#: The acceptance grid point: NIST-degree B-163 at batch 256.
DEFAULT_CURVE = "B-163"
DEFAULT_BATCH = 256

#: The asserted ceiling: metrics-enabled over metrics-disabled wall time.
OVERHEAD_CEILING = 1.03

#: The committed-JSON schema version shared by the BENCH_* trajectory files.
COMMIT_PR = 8


def _compiled_ladder(backend, curve, base_x, scalars):
    """The fused-formula ladder loop: one ``run_arrays`` call per step."""
    return ladder_registers(backend.ir_executor(), ladder_step_program(curve), base_x, scalars)


def _run_with_metrics(enabled, backend, curve, base_x, scalars):
    """One ladder run under an explicit registry state, restored afterwards."""
    previous = telemetry_metrics.set_registry(
        telemetry_metrics.MetricsRegistry() if enabled else telemetry_metrics.NullRegistry()
    )
    try:
        return _compiled_ladder(backend, curve, base_x, scalars)
    finally:
        telemetry_metrics.set_registry(previous)


def _run_traced(backend, curve, base_x, scalars):
    """One ladder run with a fresh span tracer collecting every fused pass."""
    previous = telemetry_trace.set_tracer(telemetry_trace.Tracer())
    try:
        return _compiled_ladder(backend, curve, base_x, scalars)
    finally:
        telemetry_trace.set_tracer(previous)


def measure_overhead(backend_name, curve_name=DEFAULT_CURVE, batch=DEFAULT_BATCH, repeats=3, seed=2018):
    """One benchmark row: enabled vs disabled vs traced on one substrate."""
    curve = curve_by_name(curve_name)
    backend = get_backend(backend_name, curve.field)
    rng = random.Random(seed)
    bound = curve.order if curve.order is not None else curve.field.order
    scalars = [rng.randrange(1, bound) for _ in range(batch)]
    base_x = [rng.randrange(1, curve.field.order) for _ in range(batch)]

    (
        (off_state, off_s),
        (on_state, on_s),
        (traced_state, traced_s),
    ) = best_of_interleaved(
        [
            lambda: _run_with_metrics(False, backend, curve, base_x, scalars),
            lambda: _run_with_metrics(True, backend, curve, base_x, scalars),
            lambda: _run_traced(backend, curve, base_x, scalars),
        ],
        repeats,
    )
    if not (off_state == on_state == traced_state):
        raise AssertionError("telemetry state changed the ladder registers")
    return {
        "backend": backend_name,
        "curve": curve_name,
        "m": curve.field.m,
        "batch": batch,
        "disabled_ladders_per_s": rate(batch, off_s),
        "enabled_ladders_per_s": rate(batch, on_s),
        "traced_ladders_per_s": rate(batch, traced_s),
        "overhead_enabled_vs_disabled": on_s / off_s if off_s > 0 else float("inf"),
        "overhead_traced_vs_disabled": traced_s / off_s if off_s > 0 else float("inf"),
    }


def report(rows):
    lines = [
        f"{'backend':>9s} {'curve':>7s} {'batch':>6s} {'metrics off':>12s} {'metrics on':>12s}"
        f" {'overhead':>8s} {'traced':>12s} {'trace cost':>10s}"
    ]
    for row in rows:
        lines.append(
            f"{row['backend']:>9s} {row['curve']:>7s} {row['batch']:>6d}"
            f" {row['disabled_ladders_per_s']:>10,.0f}/s {row['enabled_ladders_per_s']:>10,.0f}/s"
            f" {row['overhead_enabled_vs_disabled']:>7.3f}x"
            f" {row['traced_ladders_per_s']:>10,.0f}/s {row['overhead_traced_vs_disabled']:>9.2f}x"
        )
    return "\n".join(lines)


def _assert_ceiling(row):
    if row["overhead_enabled_vs_disabled"] > OVERHEAD_CEILING:
        raise AssertionError(
            f"metrics-enabled ladder {row['overhead_enabled_vs_disabled']:.3f}x the disabled one "
            f"on {row['backend']} (ceiling {OVERHEAD_CEILING:.2f}x)"
        )


def _ir_backends():
    """Every registered backend with a compiled-formula executor."""
    return [name for name in available_backends() if name in ("bitslice", "native")]


# --------------------------------------------------------------------- pytest
def test_metrics_overhead_within_ceiling_b163():
    """The CI gate: metrics on vs off within 3% on the compiled ladder."""
    if not numpy_available():  # pragma: no cover - CI installs numpy
        import pytest

        pytest.skip("numpy not installed; no IR substrate available")
    rows = [measure_overhead(name, batch=128, repeats=4) for name in _ir_backends()]
    print("\n" + report(rows))
    for row in rows:
        _assert_ceiling(row)


# ----------------------------------------------------------------- standalone
def main(argv=None):
    parser = argparse.ArgumentParser(description="telemetry overhead A/B on the compiled ladder")
    parser.add_argument("--curve", default=DEFAULT_CURVE)
    parser.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="batch 128, 3 repeats (CI smoke)")
    parser.add_argument("--json", default=None, metavar="PATH", help="write the machine-readable report here")
    args = parser.parse_args(argv)
    batch = 128 if args.quick else args.batch
    repeats = 3 if args.quick else args.repeats
    rows = [
        measure_overhead(name, curve_name=args.curve, batch=batch, repeats=repeats)
        for name in _ir_backends()
    ]
    print(report(rows))
    if args.json:
        write_bench_json(
            args.json,
            "telemetry_overhead",
            COMMIT_PR,
            {"curve": args.curve, "batch": batch, "repeats": repeats},
            rows,
        )
    for row in rows:
        _assert_ceiling(row)
    print(f"ok: telemetry overhead within {OVERHEAD_CEILING:.2f}x on {', '.join(_ir_backends())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
