"""Command-line interface: ``gf2m-repro`` / ``python -m repro``.

Subcommands
-----------
``tables``      print the paper's Tables I-IV for a field
``methods``     list the available multiplier constructions
``generate``    generate a multiplier, verify it and print its statistics
``implement``   run the full FPGA flow on one multiplier
``compare``     regenerate (part of) the paper's Table V
``emit``        write VHDL/Verilog (and optionally a testbench) to a file
``fields``      list the paper's field catalog
``batch``       multiply operand streams through a batch backend
``bench``       measure backend vs scalar-reference throughput (or, without
                ``--backend``, interpreted vs compiled)
``sweep``       run a field x method x device x effort grid through the
                parallel pipeline with the persistent artifact store
``curves``      list the elliptic-curve catalog (NIST-degree K/B curves)
``ecdh``        run the batched ECDH workload on one curve and report ops/s
``stats``       print the telemetry registry (counters, timing summaries)
                and every named LRU cache's hit/miss/eviction stats
``dashboard``   render the per-PR perf trajectory from the committed
                ``BENCH_*.json`` files, with advisory regression flags

``batch``, ``bench``, ``ecdh`` and ``sweep`` accept ``--backend``
(``python`` | ``engine`` | ``bitslice`` | ``native``, see
:mod:`repro.backends`); the
``GF2M_REPRO_BACKEND`` environment variable sets the process default.
The flag is declared once on a shared parent parser (as are ``--method``
for ``batch``/``bench`` and ``--trace-out`` for every heavy subcommand)
and resolved at a single site, :func:`_resolve_cli_backend` —
subcommands cannot drift apart in spelling, defaults or error behavior.

``--trace-out FILE`` (top level or on batch/bench/ecdh/sweep) records a
span trace of the run and writes it as Chrome trace-event JSON — open it
in Perfetto (https://ui.perfetto.dev) to see pack / per-fused-pass /
unpack / inversion timings nested under each ladder.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List, Optional

from .analysis.compare import claims_report, comparison_table, compare_to_paper, run_comparison
from .analysis.tables import render_table1, render_table2, render_table3, render_table4
from .backends import BACKEND_ENV_VAR, available_backends, default_backend_name, get_backend
from .curves import CURVES, curve_by_name, ecdh_batch, keygen_batch
from .engine import default_multiplier_cache, engine_for
from .galois.field import GF2mField
from .galois.gf2poly import poly_to_string
from .galois.pentanomials import PAPER_TABLE5_FIELDS, type_ii_pentanomial
from .hdl.testbench import vhdl_testbench
from .hdl.verilog import netlist_to_verilog
from .hdl.vhdl import multiplier_to_behavioral_vhdl, netlist_to_vhdl
from .multipliers.registry import TABLE5_METHODS, describe_methods, generate_multiplier
from .netlist.simulate import simulate_words
from .pipeline.store import ArtifactStore
from .pipeline.sweep import format_outcome_stats, format_sweep, run_sweep
from .synth.device import DEVICES, device_by_name
from .synth.flow import SynthesisOptions, implement
from .telemetry import metrics as telemetry_metrics
from .telemetry import snapshot_all
from .telemetry import trace as telemetry_trace
from .telemetry.dashboard import DEFAULT_TOLERANCE, render_dashboard

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="gf2m-repro",
        description="Reproduction of 'Reconfigurable implementation of GF(2^m) bit-parallel multipliers' (DATE 2018)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record a span trace of this run and write it as Chrome "
        "trace-event JSON (open in Perfetto or chrome://tracing)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Shared option groups, declared once.  Every backend-aware subcommand
    # inherits the same --backend flag (and batch/bench the same --method)
    # from these parents, and all of them resolve
    # through the one _resolve_cli_backend site below.
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="execution backend (default: $GF2M_REPRO_BACKEND or per-field resolution); "
        "for 'sweep' it is also part of the artifact cache key",
    )
    method_parent = argparse.ArgumentParser(add_help=False)
    method_parent.add_argument(
        "--method",
        default=None,
        help="circuit construction for circuit backends (default thiswork for type II fields)",
    )
    # The same --trace-out accepted after the subcommand.  SUPPRESS keeps a
    # subparser that was not given the flag from overwriting the top-level
    # value with its own default.
    trace_parent = argparse.ArgumentParser(add_help=False)
    trace_parent.add_argument(
        "--trace-out", default=argparse.SUPPRESS, metavar="FILE",
        help="record a span trace of this run as Chrome trace-event JSON",
    )

    def add_field_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument("-m", type=int, default=8, help="field degree m (default 8)")
        subparser.add_argument("-n", type=int, default=2, help="pentanomial parameter n (default 2)")

    tables = subparsers.add_parser("tables", help="print the paper's Tables I-IV for a field")
    add_field_arguments(tables)
    tables.add_argument("--which", choices=["1", "2", "3", "4", "all"], default="all")

    subparsers.add_parser("methods", help="list available multiplier constructions")
    subparsers.add_parser("fields", help="list the paper's field catalog")

    generate = subparsers.add_parser("generate", help="generate and verify one multiplier")
    add_field_arguments(generate)
    generate.add_argument("--method", default="thiswork", help="construction name (default thiswork)")

    implement_cmd = subparsers.add_parser("implement", help="run the FPGA flow on one multiplier")
    add_field_arguments(implement_cmd)
    implement_cmd.add_argument("--method", default="thiswork")
    implement_cmd.add_argument("--effort", type=int, default=2, help="mapping effort (default 2)")

    def add_cache_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--cache-dir",
            default=None,
            help="artifact store directory (default ~/.cache/gf2m-repro or $GF2M_REPRO_CACHE_DIR)",
        )
        subparser.add_argument(
            "--no-cache", action="store_true", help="bypass the on-disk artifact store entirely"
        )
        subparser.add_argument(
            "--jobs", type=int, default=1, help="worker processes for the sweep scheduler (default 1)"
        )

    compare = subparsers.add_parser("compare", help="regenerate (part of) the paper's Table V")
    compare.add_argument(
        "--fields",
        default="8:2,64:23",
        help="comma separated m:n pairs, or 'paper' for all nine paper fields",
    )
    compare.add_argument("--methods", default=",".join(TABLE5_METHODS))
    compare.add_argument("--effort", type=int, default=2)
    compare.add_argument("--paper", action="store_true", help="show paper values side by side")
    compare.add_argument("--claims", action="store_true", help="evaluate the paper's qualitative claims")
    add_cache_arguments(compare)

    sweep = subparsers.add_parser(
        "sweep",
        parents=[backend_parent, trace_parent],
        help="run a field x method x device x effort grid through the parallel pipeline",
    )
    sweep.add_argument(
        "--fields",
        default="paper",
        help="comma separated m:n pairs, or 'paper' for all nine paper fields (default)",
    )
    sweep.add_argument("--methods", default=",".join(TABLE5_METHODS))
    sweep.add_argument(
        "--devices",
        default="artix7",
        help=f"comma separated device names (default artix7; known: {', '.join(sorted(DEVICES))})",
    )
    sweep.add_argument("--efforts", default="2", help="comma separated mapping efforts (default 2)")
    sweep.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sweep.add_argument("--stats", action="store_true", help="also print per-run scheduler/cache statistics")
    add_cache_arguments(sweep)

    emit = subparsers.add_parser("emit", help="emit HDL for one multiplier")
    add_field_arguments(emit)
    emit.add_argument("--method", default="thiswork")
    emit.add_argument("--language", choices=["vhdl", "vhdl-behavioral", "verilog"], default="vhdl")
    emit.add_argument("--testbench", action="store_true", help="also emit a VHDL testbench")
    emit.add_argument("--output", default="-", help="output file (default stdout)")

    batch = subparsers.add_parser(
        "batch",
        parents=[backend_parent, method_parent, trace_parent],
        help="multiply operand streams through a batch backend",
    )
    add_field_arguments(batch)
    batch.add_argument("--count", type=int, default=1000, help="number of random operand pairs (default 1000)")
    batch.add_argument("--seed", type=int, default=2018, help="seed for the random operand stream")
    batch.add_argument("--input", help="file with one 'hexA hexB' pair per line instead of random operands")
    batch.add_argument(
        "--chunk-size", type=int, default=None,
        help="pairs per evaluation of a circuit backend (default: the backend's)",
    )
    batch.add_argument("--check", action="store_true", help="verify every product against the reference field")
    batch.add_argument("--stats", action="store_true", help="print throughput and cache statistics")
    batch.add_argument("--output", default="-", help="output file for hex products (default stdout)")

    bench = subparsers.add_parser(
        "bench",
        parents=[backend_parent, method_parent, trace_parent],
        help="throughput of one field: backend vs scalar reference (or interpreted vs compiled)",
    )
    add_field_arguments(bench)
    bench.add_argument(
        "--check", action="store_true",
        help="with --backend: cross-check every product against the scalar reference",
    )
    bench.add_argument("--pairs", type=int, default=2048, help="operand pairs per measurement (default 2048)")
    bench.add_argument("--quick", action="store_true", help="small fast run for CI smoke tests")
    bench.add_argument(
        "--describe", action="store_true",
        help="print the FieldIR pass schedule of the López-Dahab ladder step and the "
        "backend executor's lowering of it instead of benchmarking",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="trace the compiled López-Dahab ladder step and print a per-fused-pass "
        "timing breakdown instead of benchmarking (compiled executors only; "
        "python/engine print the step total)",
    )

    subparsers.add_parser("curves", help="list the elliptic-curve catalog")

    ecdh = subparsers.add_parser(
        "ecdh",
        parents=[backend_parent, trace_parent],
        help="batched ECDH key agreement workload on one curve",
    )
    ecdh.add_argument("--curve", default="B-163", help="catalog curve name (default B-163; see 'repro curves')")
    ecdh.add_argument("--batch", type=int, default=64, help="independent key agreements per side (default 64)")
    ecdh.add_argument("--jobs", type=int, default=1, help="worker processes sharding the batch (default 1)")
    ecdh.add_argument(
        "--start-method", default=None, metavar="METHOD",
        help="multiprocessing start method for --jobs (default: fork where "
        "available, else spawn; shard results are byte-identical either way)",
    )
    ecdh.add_argument("--seed", type=int, default=2018, help="seed for the key draws")
    ecdh.add_argument(
        "--check", type=int, default=0, metavar="N",
        help="cross-check the first N results against the scalar-ladder reference path",
    )
    ecdh.add_argument(
        "--scalar-rep",
        choices=["auto", "binary", "tau"],
        default="auto",
        help="scalar recoding: 'tau' demands the τ-adic Frobenius ladder (Koblitz "
        "curves only), 'binary' pins the Montgomery ladder, 'auto' (default) picks "
        "τ exactly when the curve supports it",
    )

    keygen = subparsers.add_parser(
        "keygen",
        parents=[backend_parent, trace_parent],
        help="batched key generation workload on one curve (fixed-base comb by default)",
    )
    keygen.add_argument("--curve", default="K-163", help="catalog curve name (default K-163; see 'repro curves')")
    keygen.add_argument("--batch", type=int, default=256, help="key pairs to generate (default 256)")
    keygen.add_argument("--seed", type=int, default=2018, help="seed for the key draws")
    keygen.add_argument(
        "--path",
        choices=["auto", "comb", "ladder"],
        default="auto",
        help="fixed-base route: 'comb' demands the precomputed comb table, 'ladder' "
        "pins the generic ladders, 'auto' (default) uses the comb when the table "
        "covers the draw",
    )
    keygen.add_argument(
        "--scalar-rep",
        choices=["auto", "binary", "tau"],
        default="auto",
        help="scalar recoding of the ladder route (see 'repro ecdh --scalar-rep')",
    )
    keygen.add_argument(
        "--check", type=int, default=0, metavar="N",
        help="cross-check the first N public keys against the scalar-ladder reference path",
    )

    serve = subparsers.add_parser(
        "serve",
        parents=[backend_parent, trace_parent],
        help="run the batching crypto service (JSON over HTTP/1.1, stdlib asyncio)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8742, help="bind port (default 8742; 0 picks a free port)")
    serve.add_argument(
        "--curves", default="B-163,K-163", metavar="NAMES",
        help="comma-separated catalog curves to warm and serve (default B-163,K-163)",
    )
    serve.add_argument(
        "--max-lanes", type=int, default=256,
        help="flush a batch group when it reaches this many requests (default 256)",
    )
    serve.add_argument(
        "--max-delay-ms", type=float, default=5.0,
        help="flush a batch group this long after its oldest request (default 5 ms)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes executing batches (default: CPU count; 0 runs "
        "batches inline on one worker thread — best on single-core machines)",
    )
    serve.add_argument(
        "--start-method", default=None, metavar="METHOD",
        help="multiprocessing start method for the worker pool (default: fork "
        "where available, else spawn)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="seed the server-side keygen scalar draws (reproducible runs)",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive a running service with many concurrent single-request clients",
    )
    loadgen.add_argument("--host", default="127.0.0.1", help="service address (default 127.0.0.1)")
    loadgen.add_argument("--port", type=int, default=8742, help="service port (default 8742)")
    loadgen.add_argument("--op", choices=["ecdh", "keygen", "sign"], default="ecdh")
    loadgen.add_argument("--curve", default="B-163", help="catalog curve name (default B-163)")
    loadgen.add_argument("--clients", type=int, default=64, help="concurrent closed-loop clients (default 64)")
    loadgen.add_argument(
        "--requests", type=int, default=4, metavar="N",
        help="requests per client, sent back-to-back on one keep-alive connection (default 4)",
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    loadgen.add_argument(
        "--scalar-rep", choices=["auto", "binary", "tau"], default="auto",
        help="scalar recoding requested from the service (see 'repro ecdh --scalar-rep')",
    )
    loadgen.add_argument(
        "--check", type=int, default=4, metavar="N",
        help="additionally recompute the first N responses on the scalar "
        "reference path (default 4; every response is always verified "
        "against the locally batched expectation)",
    )
    loadgen.add_argument(
        "--connect-timeout", type=float, default=30.0, metavar="S",
        help="keep retrying the initial connections for this long (default 30 s)",
    )
    loadgen.add_argument(
        "--stats", action="store_true",
        help="fetch and print the service's /stats after the run",
    )

    stats = subparsers.add_parser(
        "stats",
        help="print the telemetry registry and every named LRU cache's statistics",
    )
    stats.add_argument("--format", choices=["table", "json"], default="table")

    dashboard = subparsers.add_parser(
        "dashboard",
        help="render the per-PR perf trajectory from the committed BENCH_*.json files",
    )
    dashboard.add_argument(
        "--dir", default=".", help="directory holding the BENCH_*.json files (default: .)"
    )
    dashboard.add_argument("--format", choices=["markdown", "html"], default="markdown")
    dashboard.add_argument("--output", default="-", help="output file (default stdout)")
    dashboard.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="fractional drop vs the best prior PR that raises a regression flag "
        f"(default {DEFAULT_TOLERANCE})",
    )
    dashboard.add_argument(
        "--check", action="store_true",
        help="print regression flags to stderr instead of the rendered document; "
        "warn-only by default — exits 0 unless --strict is also given",
    )
    dashboard.add_argument(
        "--strict", action="store_true",
        help="with --check: exit 1 when any regression is flagged (CI uses this on "
        "the committed-trajectory job; PR runs stay warn-only)",
    )
    return parser


def _read_operand_pairs(path: str, m: int) -> tuple:
    """Read one whitespace-separated hex pair per line (blank lines ignored)."""
    a_values: List[int] = []
    b_values: List[int] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as error:
        raise SystemExit(f"cannot read operand file: {error}") from None
    with handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise SystemExit(f"{path}:{line_number}: expected 'hexA hexB', got {stripped!r}")
            try:
                a, b = int(parts[0], 16), int(parts[1], 16)
            except ValueError:
                raise SystemExit(
                    f"{path}:{line_number}: operands must be hexadecimal, got {stripped!r}"
                ) from None
            if a.bit_length() > m or b.bit_length() > m:
                raise SystemExit(
                    f"{path}:{line_number}: operand wider than m={m} bits: {stripped!r}"
                )
            a_values.append(a)
            b_values.append(b)
    return a_values, b_values


def _resolve_cli_backend(field: GF2mField, name, method=None, chunk_size=None, verify=True):
    """Resolve a ``--backend``/``--method`` pair, exiting cleanly on errors.

    ``name=None`` resolves through the registry default, so the
    ``$GF2M_REPRO_BACKEND`` override applies to every subcommand.
    Registry failures (unknown names, a bad env override), contradictory
    options (``--method`` with the scalar or native backend), a missing
    numpy for ``bitslice`` and a missing C toolchain for ``native`` all
    surface as actionable messages instead of tracebacks.  ``verify=False``
    skips formal circuit verification (the large-field fast path of
    ``repro batch``/``bench``); it does not apply to ``native``, which
    evaluates no generated circuit.
    """
    try:
        if name is None:
            name = default_backend_name(field)
        options = {}
        if method is not None:
            options["method"] = method
        if name in ("engine", "bitslice", "native"):
            if chunk_size is not None:
                options["chunk_size"] = chunk_size
            if name != "native" and not verify:
                options["verify"] = False
        return get_backend(name, field, **options)
    except (KeyError, ValueError, ImportError) as error:
        raise SystemExit(str(error.args[0]) if error.args else str(error)) from None


def _run_batch(args) -> int:
    modulus = type_ii_pentanomial(args.m, args.n)
    if args.input:
        a_values, b_values = _read_operand_pairs(args.input, args.m)
    else:
        rng = random.Random(args.seed)
        a_values = [rng.getrandbits(args.m) for _ in range(args.count)]
        b_values = [rng.getrandbits(args.m) for _ in range(args.count)]
    field = GF2mField(modulus, check_irreducible=False)
    backend = _resolve_cli_backend(
        field, args.backend, method=args.method, chunk_size=args.chunk_size, verify=args.m <= 16
    )
    backend.multiply_batch(a_values[:1], b_values[:1])  # pay one-time costs up front
    with telemetry_metrics.timed("cli.batch.multiply") as timer:
        products = backend.multiply_batch(a_values, b_values)
    elapsed = timer.seconds
    if args.check:
        for a, b, product in zip(a_values, b_values, products):
            if product != field.multiply(a, b):
                raise SystemExit(f"MISMATCH: {a:x} * {b:x} -> {product:x} != reference")
    digits = (args.m + 3) // 4
    lines = "\n".join(f"{product:0{digits}x}" for product in products)
    if args.output == "-":
        if lines:
            print(lines)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(lines + ("\n" if lines else ""))
        print(f"wrote {len(products)} products to {args.output}")
    if args.check:
        print(f"checked {len(products)} products against the reference field: all match")
    if args.stats:
        rate = len(products) / elapsed if elapsed > 0 else float("inf")
        print(backend.describe())
        print(f"{len(products)} products in {elapsed * 1000:.1f} ms ({rate:,.0f} products/s)")
        print(f"multiplier cache: {default_multiplier_cache().info()}")
    return 0


def _run_bench_backend(args) -> int:
    """``repro bench --backend X``: backend vs scalar reference throughput.

    Always cross-checks a subset against ``GF2mField.multiply``;
    ``--check`` extends the cross-check to every product (the CI parity
    smoke step relies on this).
    """
    modulus = type_ii_pentanomial(args.m, args.n)
    pairs = min(args.pairs, 512) if args.quick else args.pairs
    rng = random.Random(2018)
    a_values = [rng.getrandbits(args.m) for _ in range(pairs)]
    b_values = [rng.getrandbits(args.m) for _ in range(pairs)]
    field = GF2mField(modulus, check_irreducible=False)
    backend = _resolve_cli_backend(field, args.backend, method=args.method, verify=args.m <= 16)

    backend.multiply_batch(a_values[:1], b_values[:1])  # pay one-time costs up front
    with telemetry_metrics.timed("cli.bench.backend") as backend_timer:
        products = backend.multiply_batch(a_values, b_values)
    backend_s = backend_timer.seconds

    scalar_pairs = pairs if args.check else min(pairs, 256)
    with telemetry_metrics.timed("cli.bench.scalar") as scalar_timer:
        reference = [field.multiply(a, b) for a, b in zip(a_values[:scalar_pairs], b_values[:scalar_pairs])]
    scalar_s = scalar_timer.seconds

    if products[:scalar_pairs] != reference:
        raise SystemExit(
            f"MISMATCH: backend {backend.name!r} disagrees with the scalar reference "
            "— refusing to report throughput"
        )
    backend_rate = pairs / backend_s if backend_s > 0 else float("inf")
    scalar_rate = scalar_pairs / scalar_s if scalar_s > 0 else float("inf")
    print(backend.describe())
    print(f"GF(2^{args.m}) {backend.name}: {pairs} pairs")
    print(f"  scalar ref   {scalar_rate:>12,.0f} products/s")
    print(f"  {backend.name:<12s} {backend_rate:>12,.0f} products/s")
    print(f"  speedup      {backend_rate / scalar_rate:>12.1f}x")
    if args.check:
        print(f"checked {pairs} products against the scalar reference: all match")
    return 0


def _run_bench_describe(args) -> int:
    """``repro bench --describe``: the formula compiler's pass schedule.

    Prints the scheduled López-Dahab ladder-step :class:`FieldProgram` for
    the bench field — the headline consumer of the formula compiler — and
    the resolved backend executor's lowering of it.  A catalog curve over
    the bench field supplies the curve constant ``b``; fields without a
    catalog curve describe the schedule with ``b = 1``, which has the
    identical pass structure.
    """
    from .backends.ir import schedule_program
    from .curves.formulas import ladder_step_ir, ladder_step_program

    modulus = type_ii_pentanomial(args.m, args.n)
    field = GF2mField(modulus, check_irreducible=False)
    backend = _resolve_cli_backend(field, args.backend, method=args.method, verify=args.m <= 16)
    curve = next(
        (curve_by_name(spec.name) for spec in CURVES if (spec.m, spec.n) == (args.m, args.n)),
        None,
    )
    if curve is not None:
        program = ladder_step_program(curve)
        print(f"formula: López-Dahab ladder step on {curve.name}")
    else:
        program = schedule_program(
            ladder_step_ir(), field.m,
            {"square": field.square_map, "mul_b": field.constant_multiplier(1)},
        )
        print(f"formula: López-Dahab ladder step over GF(2^{args.m}) (no catalog curve; b=1)")
    executor = backend.ir_executor()
    print(executor.describe())
    print(program.describe())
    print(f"compiled: {executor.compile(program).describe()}")
    return 0


def _run_bench_profile(args) -> int:
    """``repro bench --profile``: per-fused-pass timings of the ladder step.

    Compiles the López-Dahab ladder-step formula for the bench field on
    the resolved backend, runs ``m`` steps over a packed random batch
    under a temporary tracer, and prints where each step's time goes —
    the per-pass breakdown behind the one ``ladder.step`` number.  The
    interpreting executor of python/engine emits no per-pass spans, so
    there only the step total is printed.
    """
    from .backends.ir import schedule_program
    from .curves.formulas import ladder_step_ir, ladder_step_program

    modulus = type_ii_pentanomial(args.m, args.n)
    field = GF2mField(modulus, check_irreducible=False)
    backend = _resolve_cli_backend(field, args.backend, method=args.method, verify=args.m <= 16)
    executor = backend.ir_executor()
    curve = next(
        (curve_by_name(spec.name) for spec in CURVES if (spec.m, spec.n) == (args.m, args.n)),
        None,
    )
    if curve is not None:
        program = ladder_step_program(curve)
        formula = f"López-Dahab ladder step on {curve.name}"
    else:
        program = schedule_program(
            ladder_step_ir(), field.m,
            {"square": field.square_map, "mul_b": field.constant_multiplier(1)},
        )
        formula = f"López-Dahab ladder step over GF(2^{args.m}) (no catalog curve; b=1)"
    compiled = executor.compile(program)
    lanes = min(256, executor.chunk_size, max(1, args.pairs))
    steps = field.m if not args.quick else min(field.m, 24)
    rng = random.Random(2018)
    base = executor.pack([rng.getrandbits(args.m) or 1 for _ in range(lanes)]).array
    state = (
        executor.pack([1] * lanes).array,
        executor.pack([0] * lanes).array,
        base.copy(),
        executor.pack([1] * lanes).array,
    )
    bits = [[rng.getrandbits(1) for _ in range(lanes)] for _ in range(steps)]
    compiled.run_arrays((*state, base), (executor.broadcast_bits(bits[0]),))  # warm
    previous = telemetry_trace.set_tracer(telemetry_trace.Tracer())
    try:
        with telemetry_metrics.timed("cli.bench.profile") as timer:
            for step in range(steps):
                mask = executor.broadcast_bits(bits[step])
                state = tuple(compiled.run_arrays((*state, base), (mask,)))
        summary = telemetry_trace.aggregate_spans(
            telemetry_trace.TRACER.events(), prefix="ir.pass."
        )
    finally:
        telemetry_trace.set_tracer(previous)
    print(f"formula: {formula}")
    print(executor.describe())
    if summary:
        print(f"{steps} fused steps x {lanes} lanes, traced per pass:")
        total_s = sum(entry["total_s"] for entry in summary.values())
        header = f"  {'pass':<24s} {'count':>7s} {'total ms':>10s} {'share':>7s} {'per-step µs':>12s}"
        print(header)
        print("  " + "-" * (len(header) - 2))
        for name in sorted(summary):
            entry = summary[name]
            share = entry["total_s"] / total_s * 100 if total_s > 0 else 0.0
            per_step_us = entry["total_s"] / steps * 1e6
            print(
                f"  {name:<24s} {entry['count']:>7.0f} {entry['total_s'] * 1000:>10.2f} "
                f"{share:>6.1f}% {per_step_us:>12.1f}"
            )
        overhead_s = timer.seconds - total_s
        print(
            f"  {'(outside passes)':<24s} {'':>7s} {overhead_s * 1000:>10.2f} "
            f"{(overhead_s / timer.seconds * 100 if timer.seconds > 0 else 0.0):>6.1f}%"
        )
    else:
        print(f"{steps} interpreted steps x {lanes} lanes (no per-pass spans):")
    print(
        f"total {timer.seconds * 1000:.2f} ms "
        f"({steps * lanes / timer.seconds:,.0f} ladder-step-lanes/s)"
    )
    return 0


def _run_bench(args) -> int:
    if args.describe:
        return _run_bench_describe(args)
    if args.profile:
        return _run_bench_profile(args)
    if args.backend or os.environ.get(BACKEND_ENV_VAR):
        # An explicit flag or the process-wide env default selects the
        # backend-vs-scalar comparison (a bad env value fails loudly there).
        return _run_bench_backend(args)
    modulus = type_ii_pentanomial(args.m, args.n)
    method = args.method or "thiswork"
    pairs = min(args.pairs, 256) if args.quick else args.pairs
    rng = random.Random(2018)
    a_values = [rng.getrandbits(args.m) for _ in range(pairs)]
    b_values = [rng.getrandbits(args.m) for _ in range(pairs)]
    multiplier = generate_multiplier(method, modulus, verify=args.m <= 16)

    with telemetry_metrics.timed("cli.bench.interpreted") as interpreted_timer:
        interpreted = simulate_words(multiplier.netlist, args.m, a_values, b_values)
    interpreted_s = interpreted_timer.seconds

    engine = engine_for(method, modulus, verify=False)
    engine.multiply_batch(a_values[:1], b_values[:1])  # warm the compiled path
    with telemetry_metrics.timed("cli.bench.compiled") as compiled_timer:
        compiled = engine.multiply_batch(a_values, b_values)
    compiled_s = compiled_timer.seconds

    if compiled != interpreted:
        raise SystemExit("engine and interpreter disagree — refusing to report throughput")
    print(f"GF(2^{args.m}) {method}: {pairs} pairs")
    print(f"  interpreted  {pairs / interpreted_s:>12,.0f} products/s")
    print(f"  compiled     {pairs / compiled_s:>12,.0f} products/s")
    print(f"  speedup      {interpreted_s / compiled_s:>12.1f}x")
    return 0


def _ecdh_agreements(
    curve, privates, peers, jobs: int, backend=None, scalar_rep="auto", start_method=None,
) -> List:
    """The batch of shared points, optionally sharded over worker processes.

    Delegates to :func:`repro.serve.workers.ecdh_sharded`, the same
    start-method-agnostic pool code the serving layer uses — under
    ``fork`` the children inherit the parent's warm caches, under
    ``spawn`` each shard warms itself, and shard results are
    byte-identical either way.
    """
    from .serve.workers import ecdh_sharded

    return ecdh_sharded(
        curve, privates, peers, jobs, backend=backend, scalar_rep=scalar_rep,
        start_method=start_method,
    )


def _run_ecdh(args) -> int:
    try:
        curve = curve_by_name(args.curve)
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from None
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    if args.check < 0:
        raise SystemExit("--check must be non-negative")
    # Resolve eagerly so a bad backend (or missing numpy) fails before work.
    _resolve_cli_backend(curve.field, args.backend)
    try:
        resolved_rep = curve._resolve_scalar_rep(args.scalar_rep)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    print(curve.describe())

    with telemetry_metrics.timed("cli.ecdh.keygen") as keygen_timer:
        alice = keygen_batch(
            curve, args.batch, seed=args.seed, backend=args.backend,
            scalar_rep=args.scalar_rep,
        )
        bob = keygen_batch(
            curve, args.batch, seed=args.seed + 1, backend=args.backend,
            scalar_rep=args.scalar_rep,
        )
    keygen_s = keygen_timer.seconds

    alice_privates = [pair.private for pair in alice]
    bob_privates = [pair.private for pair in bob]
    with telemetry_metrics.timed("cli.ecdh.agreement") as agree_timer:
        alice_shared = _ecdh_agreements(
            curve,
            alice_privates,
            [pair.public for pair in bob],
            args.jobs,
            backend=args.backend,
            scalar_rep=args.scalar_rep,
            start_method=args.start_method,
        )
        bob_shared = _ecdh_agreements(
            curve,
            bob_privates,
            [pair.public for pair in alice],
            args.jobs,
            backend=args.backend,
            scalar_rep=args.scalar_rep,
            start_method=args.start_method,
        )
    agree_s = agree_timer.seconds

    if alice_shared != bob_shared:
        raise SystemExit("ECDH FAILURE: the two sides disagree on the shared secret")
    if args.check:
        count = min(args.check, args.batch)
        for index in range(count):
            reference = curve.multiply(bob[index].public, alice[index].private)
            if alice_shared[index] != reference:
                raise SystemExit(f"MISMATCH: batched agreement {index} != scalar-ladder reference")
        print(f"checked {count} agreements against the scalar-ladder reference: byte-identical")

    ladders = 2 * args.batch  # one per side per agreement
    keygen_rate = 2 * args.batch / keygen_s if keygen_s > 0 else float("inf")
    agree_rate = ladders / agree_s if agree_s > 0 else float("inf")
    backend_label = args.backend or default_backend_name(curve.field)
    rep_label = "tau-adic" if resolved_rep == "tau" else "binary"
    print(
        f"batch {args.batch}, jobs {args.jobs}, backend {backend_label} "
        f"({rep_label} scalars): all {args.batch} shared secrets agree"
    )
    print(f"  keygen     {2 * args.batch:>6d} ladders in {keygen_s * 1000:>8.1f} ms ({keygen_rate:,.1f} ops/s)")
    print(f"  agreement  {ladders:>6d} ladders in {agree_s * 1000:>8.1f} ms ({agree_rate:,.1f} ops/s)")
    return 0


def _run_keygen(args) -> int:
    """``repro keygen``: the batched key-generation workload on one curve."""
    try:
        curve = curve_by_name(args.curve)
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from None
    if args.batch < 1:
        raise SystemExit("--batch must be at least 1")
    if args.check < 0:
        raise SystemExit("--check must be non-negative")
    _resolve_cli_backend(curve.field, args.backend)
    fixed_base = {"auto": None, "comb": True, "ladder": False}[args.path]
    print(curve.describe())
    curve.generator  # derive outside the timed region (shared by all paths)
    try:
        with telemetry_metrics.timed("cli.keygen") as timer:
            pairs = keygen_batch(
                curve,
                args.batch,
                seed=args.seed,
                backend=args.backend,
                scalar_rep=args.scalar_rep,
                fixed_base=fixed_base,
            )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    seconds = timer.seconds
    if args.check:
        count = min(args.check, args.batch)
        for index in range(count):
            reference = curve.multiply(curve.generator, pairs[index].private)
            if pairs[index].public != reference:
                raise SystemExit(f"MISMATCH: batched keypair {index} != scalar-ladder reference")
        print(f"checked {count} public keys against the scalar-ladder reference: byte-identical")
    rate = args.batch / seconds if seconds > 0 else float("inf")
    backend_label = args.backend or default_backend_name(curve.field)
    path_label = {"auto": "auto (comb when covered)", "comb": "comb", "ladder": "ladder"}[args.path]
    print(
        f"batch {args.batch}, backend {backend_label}, path {path_label}: "
        f"{args.batch} key pairs in {seconds * 1000:.1f} ms ({rate:,.1f} keys/s)"
    )
    registry = telemetry_metrics.REGISTRY
    if registry.enabled:
        snapshot = registry.snapshot()
        counters = snapshot.get("counters", {})
        hits = counters.get("comb.table.hit", 0)
        builds = counters.get("comb.table.build", 0)
        if hits or builds:
            print(f"  comb table: {builds} build(s), {hits} store hit(s)")
    return 0


def _parse_fields(text: str) -> List[tuple]:
    """Parse ``--fields`` ('paper' or comma separated ``m:n`` pairs).

    Malformed specs exit with an actionable message instead of a bare
    ``ValueError`` traceback.
    """
    if text.strip().lower() == "paper":
        return [(spec.m, spec.n) for spec in PAPER_TABLE5_FIELDS]
    fields = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m_text, sep, n_text = chunk.partition(":")
        try:
            if not sep:
                raise ValueError
            m_value, n_value = int(m_text), int(n_text)
        except ValueError:
            raise SystemExit(
                f"invalid field spec {chunk!r}: expected 'm:n' with decimal integers "
                f"(e.g. '163:66'), or 'paper' for the paper's nine fields"
            ) from None
        try:
            type_ii_pentanomial(m_value, n_value)
        except ValueError as error:
            raise SystemExit(f"invalid field spec {chunk!r}: {error}") from None
        fields.append((m_value, n_value))
    if not fields:
        raise SystemExit("no fields given: pass comma separated 'm:n' pairs or 'paper'")
    return fields


def _parse_int_list(text: str, what: str) -> List[int]:
    """Parse a comma separated integer list CLI argument."""
    try:
        values = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError:
        raise SystemExit(f"invalid {what} list {text!r}: expected comma separated integers") from None
    if not values:
        raise SystemExit(f"no {what} given in {text!r}")
    return values


def _artifact_store(args) -> Optional[ArtifactStore]:
    """The artifact store selected by --cache-dir/--no-cache (None = disabled)."""
    if args.no_cache:
        return None
    return ArtifactStore(args.cache_dir) if args.cache_dir else ArtifactStore()


def _run_sweep(args) -> int:
    fields = _parse_fields(args.fields)
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    if not methods:
        raise SystemExit("no methods given: pass comma separated construction names (see 'repro methods')")
    try:
        devices = [device_by_name(name) for name in args.devices.split(",") if name.strip()]
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from None
    if not devices:
        raise SystemExit("no devices given: pass comma separated device names (e.g. 'artix7')")
    efforts = _parse_int_list(args.efforts, "effort")
    store = _artifact_store(args)
    try:
        result = run_sweep(
            fields=fields,
            methods=methods,
            devices=devices,
            efforts=efforts,
            jobs=args.jobs,
            store=store,
            backend=args.backend,
        )
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from None
    print(format_sweep(result, fmt=args.format))
    if args.stats:
        for line in format_outcome_stats(result.outcomes):
            print(line, file=sys.stderr)
    print(f"sweep: {result.summary()}", file=sys.stderr)
    return 0


def _run_serve(args) -> int:
    """``repro serve``: run the batching service until interrupted."""
    import asyncio

    from .serve import CryptoService

    curves = tuple(name.strip() for name in args.curves.split(",") if name.strip())
    if not curves:
        raise SystemExit("--curves must name at least one catalog curve")
    try:
        service = CryptoService(
            backend=args.backend,
            curves=curves,
            max_lanes=args.max_lanes,
            max_delay_ms=args.max_delay_ms,
            workers=args.workers,
            start_method=args.start_method,
            seed=args.seed,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error)) from None
    print(service.pool.describe(), file=sys.stderr)

    def announce(port: int) -> None:
        print(
            f"serving {', '.join(curves)} on http://{args.host}:{port} "
            f"(max_lanes {args.max_lanes}, max_delay {args.max_delay_ms} ms)",
            file=sys.stderr,
        )

    try:
        asyncio.run(service.run(args.host, args.port, announce=announce))
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    return 0


def _run_loadgen(args) -> int:
    """``repro loadgen``: fire many small clients at a running service."""
    import asyncio
    import json as json_module

    from .serve.loadgen import generate_load, http_get

    if args.clients < 1 or args.requests < 1:
        raise SystemExit("--clients and --requests must be at least 1")
    try:
        result = generate_load(
            args.host, args.port,
            op=args.op, curve=args.curve,
            clients=args.clients, requests_per_client=args.requests,
            seed=args.seed, scalar_rep=args.scalar_rep,
            spot_checks=args.check, connect_timeout_s=args.connect_timeout,
        )
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error.args[0] if error.args else error)) from None
    except OSError as error:
        raise SystemExit(
            f"cannot reach the service at {args.host}:{args.port}: {error}"
        ) from None
    quantiles = result.latency_quantiles()
    print(
        f"{args.op} on {args.curve}: {result.completed}/{result.total} completed, "
        f"{result.verified} verified against the batched reference "
        f"({result.spot_checked} also against the scalar ladder)"
    )
    print(
        f"  throughput {result.throughput:>10,.1f} req/s over {result.elapsed_s * 1000:.1f} ms "
        f"({args.clients} clients x {args.requests} requests)"
    )
    if quantiles:
        print(
            "  latency    "
            + "  ".join(f"{name} {value * 1000:.2f} ms" for name, value in quantiles.items())
        )
    for line in result.errors[:10]:
        print(f"  error: {line}", file=sys.stderr)
    if len(result.errors) > 10:
        print(f"  ... and {len(result.errors) - 10} more errors", file=sys.stderr)
    if args.stats:
        status, payload = asyncio.run(http_get(args.host, args.port, "/stats"))
        print(json_module.dumps(payload, indent=2))
    return 1 if result.errors or result.completed != result.total else 0


def _run_stats(args) -> int:
    """``repro stats``: the registry plus every named cache, table or JSON."""
    snapshot = snapshot_all()
    if args.format == "json":
        import json

        print(json.dumps(snapshot, indent=1, sort_keys=True))
        return 0
    counters = snapshot["metrics"]["counters"]
    observations = snapshot["metrics"]["observations"]
    gauges = snapshot["metrics"]["gauges"]
    print("counters")
    for name in sorted(counters):
        print(f"  {name:<48s} {counters[name]:>14,d}")
    if not counters:
        print("  (none)")
    if gauges:
        print("gauges")
        for name in sorted(gauges):
            print(f"  {name:<48s} {gauges[name]:>14,.6g}")
    print("timings")
    for name in sorted(observations):
        entry = observations[name]
        mean_ms = entry["total_s"] / entry["count"] * 1000 if entry["count"] else 0.0
        print(
            f"  {name:<48s} {entry['count']:>8,d} x {mean_ms:>10.3f} ms avg "
            f"(total {entry['total_s']:.3f} s, min {entry['min_s'] * 1000:.3f} ms, "
            f"max {entry['max_s'] * 1000:.3f} ms)"
        )
    if not observations:
        print("  (none)")
    print("caches  (hits / misses / evictions / size)")
    for name, info in sorted(snapshot["caches"].items()):
        print(
            f"  {name:<48s} {info['hits']:>8,d} / {info['misses']:>6,d} / "
            f"{info['evictions']:>4,d} / {info['currsize']}({info['maxsize']})"
        )
    return 0


def _run_dashboard(args) -> int:
    """``repro dashboard``: perf trajectory over the committed bench files."""
    try:
        document, regressions = render_dashboard(
            args.dir, fmt=args.format, tolerance=args.tolerance
        )
    except ValueError as error:
        raise SystemExit(f"dashboard: {error}") from None
    if args.check:
        if regressions:
            mode = "strict" if args.strict else "warn-only"
            flag = "FAIL" if args.strict else "WARN"
            print(
                f"dashboard: {len(regressions)} regression flag(s) beyond "
                f"{args.tolerance * 100:.0f}% tolerance ({mode}):",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"  {flag} {regression.describe()}", file=sys.stderr)
            return 1 if args.strict else 0
        print("dashboard: no regressions flagged", file=sys.stderr)
        return 0
    if args.output == "-":
        print(document)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
        print(f"wrote {args.format} dashboard to {args.output}", file=sys.stderr)
    if regressions:
        print(
            f"dashboard: {len(regressions)} regression flag(s) beyond "
            f"{args.tolerance * 100:.0f}% tolerance (warn-only)",
            file=sys.stderr,
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return _dispatch(parser, args)
    # --trace-out: collect spans for the whole command, write the Chrome
    # trace-event file even when the command exits early, then restore the
    # no-op tracer (main() may be called repeatedly in one process).
    telemetry_trace.enable()
    try:
        return _dispatch(parser, args)
    finally:
        count = telemetry_trace.write_chrome_trace(trace_out)
        print(f"wrote {count} trace events to {trace_out}", file=sys.stderr)
        telemetry_trace.disable()


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    """Route parsed arguments to their subcommand implementation."""
    if args.command == "methods":
        for metadata in describe_methods():
            print(f"{metadata['name']:<15s} {metadata['reference']:<45s} {metadata['description']}")
        return 0

    if args.command == "fields":
        for spec in PAPER_TABLE5_FIELDS:
            print(f"({spec.m},{spec.n})  {spec.standard or '-':<6s} {spec.modulus_string()}")
        return 0

    if args.command == "curves":
        print(f"{'name':<7s} {'field':<10s} {'a':>1s} {'order':<12s} {'standard':<12s} note")
        for spec in CURVES:
            order = f"{spec.order.bit_length()}-bit n" if spec.order else "unknown"
            print(
                f"{spec.name:<7s} ({spec.m},{spec.n:<3d})  {spec.a:>1d} {order:<12s} "
                f"{spec.standard or '-':<12s} {spec.note}"
            )
        return 0

    if args.command == "ecdh":
        return _run_ecdh(args)

    if args.command == "keygen":
        return _run_keygen(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "loadgen":
        return _run_loadgen(args)

    if args.command == "stats":
        return _run_stats(args)

    if args.command == "dashboard":
        return _run_dashboard(args)

    if args.command == "tables":
        modulus = type_ii_pentanomial(args.m, args.n)
        renderers = {"1": render_table1, "2": render_table2, "3": render_table3, "4": render_table4}
        selected = renderers.values() if args.which == "all" else [renderers[args.which]]
        for renderer in selected:
            print(renderer(modulus))
            print()
        return 0

    if args.command == "generate":
        modulus = type_ii_pentanomial(args.m, args.n)
        multiplier = generate_multiplier(args.method, modulus)
        print(multiplier.describe())
        print(f"modulus: {poly_to_string(modulus)}")
        print("formally verified against the product specification: yes")
        return 0

    if args.command == "implement":
        modulus = type_ii_pentanomial(args.m, args.n)
        multiplier = generate_multiplier(args.method, modulus, verify=args.m <= 16)
        result = implement(multiplier, options=SynthesisOptions(effort=args.effort))
        for key, value in result.as_dict().items():
            print(f"{key:20s} {value}")
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "compare":
        fields = _parse_fields(args.fields)
        methods = [name.strip() for name in args.methods.split(",") if name.strip()]
        try:
            comparisons = run_comparison(
                fields=fields,
                methods=methods,
                options=SynthesisOptions(effort=args.effort),
                jobs=args.jobs,
                store=_artifact_store(args),
            )
        except KeyError as error:
            raise SystemExit(str(error.args[0])) from None
        if args.paper:
            print(compare_to_paper(comparisons))
        else:
            print(comparison_table(comparisons, title="Measured comparison (paper Table V layout)"))
        if args.claims:
            report = claims_report(comparisons)
            print()
            for claim, fields_holding in report.items():
                print(f"{claim}: {fields_holding}")
        return 0

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "emit":
        modulus = type_ii_pentanomial(args.m, args.n)
        multiplier = generate_multiplier(args.method, modulus, verify=args.m <= 16)
        if args.language == "vhdl":
            text = netlist_to_vhdl(multiplier.netlist)
        elif args.language == "vhdl-behavioral":
            text = multiplier_to_behavioral_vhdl(multiplier)
        else:
            text = netlist_to_verilog(multiplier.netlist)
        if args.testbench:
            text += "\n" + vhdl_testbench(modulus)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
