"""The formula compiler: FieldIR tracing, level-scheduled fusion, executors.

The entire López-Dahab ladder step is traced **once**
(:mod:`repro.curves.formulas`), scheduled once per curve into fused
passes, and runs byte-identically through every backend's executor — the
compiled plane path (bitslice), the interpreting executor (python/engine)
and the scalar reference ladder must agree lane for lane on the parity
grid, including edge scalars (0, 1, n−1, mixed widths) and batch sizes
straddling the plane chunk boundary.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    InterpretingIRExecutor,
    IRBuilder,
    cached_program,
    execute_program,
    get_backend,
    numpy_available,
    schedule_program,
)
from repro.curves import curve_by_name
from repro.curves.formulas import ladder_step_ir, ladder_step_program
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

GF2_13 = GF2mField(smallest_type_ii_pentanomial(13), check_irreducible=False)
GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)

#: The parity grid of ISSUE 5/6: toy curve plus two NIST-degree Koblitz curves.
PARITY_CURVES = ["T-13", "K-163", "K-233"]


def _edge_scalars(curve, count, rng):
    """Scalars covering the masked-select corners: 0, 1, n-1, mixed widths."""
    n = curve.order if curve.order is not None else curve.field.order
    scalars = [0, 1, n - 1, 2, 3]
    for width in range(1, curve.field.m, max(1, curve.field.m // 8)):
        scalars.append((rng.getrandbits(width) | (1 << (width - 1))) % n or 1)
    while len(scalars) < count:
        scalars.append(rng.randrange(0, n))
    return scalars[:count]


def _probe_program(field):
    """A small mixed formula exercising every op kind on ``field``."""
    builder = IRBuilder("probe")
    a, b = builder.input("a"), builder.input("b")
    bit = builder.mask_input("bit")
    mixed = builder.xor(builder.mul(a, b), builder.square(builder.square(a)), builder.const(3))
    builder.output("r", builder.select(bit, mixed, a))
    return schedule_program(builder.build(), field.m, {"square": field.square_map})


def _probe_reference(field, a, b, bit):
    if not bit:
        return a
    return field.multiply(a, b) ^ field.square(field.square(a)) ^ 3


class TestIRBuilder:
    def test_trace_and_describe(self):
        ir = ladder_step_ir()
        assert [name for name, _ in ir.inputs] == ["x1", "z1", "x2", "z2", "x"]
        assert [name for name, _ in ir.mask_inputs] == ["bit"]
        assert ir.op_counts()["mul"] == 5
        assert "ld_step" in ir.describe()

    def test_vars_are_builder_scoped(self):
        first, second = IRBuilder("one"), IRBuilder("two")
        x = first.input("x")
        with pytest.raises(ValueError, match="different IRBuilder"):
            second.mul(second.input("y"), x)

    def test_masks_and_values_are_distinct_kinds(self):
        builder = IRBuilder("kinds")
        x, bit = builder.input("x"), builder.mask_input("bit")
        with pytest.raises(TypeError, match="mask input"):
            builder.select(x, x, x)
        with pytest.raises(TypeError, match="field value"):
            builder.mul(x, bit)

    def test_rejects_duplicates_and_empty_formulas(self):
        builder = IRBuilder("dups")
        builder.input("x")
        with pytest.raises(ValueError, match="duplicate input"):
            builder.input("x")
        with pytest.raises(ValueError, match="no outputs"):
            IRBuilder("empty").build()


class TestScheduleFusion:
    def test_ladder_step_schedules_to_six_passes(self):
        program = ladder_step_program(curve_by_name("K-163"))
        assert program.pass_counts() == {"mul": 2, "linear": 2, "select": 2}
        assert program.mul_pass_widths() == [3, 2]
        assert "6 fused passes" in program.describe()

    def test_chained_squarings_collapse_into_one_composed_map(self):
        builder = IRBuilder("quartic")
        builder.output("r", builder.square(builder.square(builder.input("x"))))
        program = schedule_program(builder.build(), GF2_13.m, {"square": GF2_13.square_map})
        # One fused linear pass, not two chained ones.
        assert program.pass_counts() == {"linear": 1}
        result = execute_program(program, get_backend("python", GF2_13), {"x": [5, 1000]})
        assert result["r"] == [GF2_13.square(GF2_13.square(v)) for v in (5, 1000)]

    def test_constants_are_hoisted_into_the_prologue(self):
        builder = IRBuilder("affine")
        builder.output("r", builder.xor(builder.input("x"), builder.const(6)))
        program = schedule_program(builder.build(), GF2_13.m, {})
        assert [value for _, value in program.consts] == [6]
        result = execute_program(program, get_backend("python", GF2_13), {"x": [0, 6, 9]})
        assert result["r"] == [6, 0, 15]

    def test_unbound_linear_names_fail_at_schedule_time(self):
        builder = IRBuilder("unbound")
        builder.output("r", builder.apply_linear("frobenius", builder.input("x")))
        with pytest.raises(KeyError, match="frobenius"):
            schedule_program(builder.build(), GF2_13.m, {})


class TestExecuteProgramParity:
    """The interpreter arm: one schedule, every registered backend."""

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_probe_matches_reference(self, name):
        field = GF2_13
        backend = get_backend(name, field)
        rng = random.Random(2018)
        a = [0, 1, field.order - 1] + [rng.getrandbits(13) for _ in range(40)]
        b = [rng.getrandbits(13) for _ in a]
        bits = [rng.getrandbits(1) for _ in a]
        result = execute_program(_probe_program(field), backend, {"a": a, "b": b}, {"bit": bits})
        assert result["r"] == [
            _probe_reference(field, x, y, bit) for x, y, bit in zip(a, b, bits)
        ]

    @requires_numpy
    def test_compiled_plane_path_matches_interpreter(self):
        field = GF2_163
        backend = get_backend("bitslice", field)
        program = _probe_program(field)
        rng = random.Random(7)
        a = [rng.getrandbits(163) for _ in range(70)]
        b = [rng.getrandbits(163) for _ in range(70)]
        bits = [rng.getrandbits(1) for _ in range(70)]
        interpreted = execute_program(program, backend, {"a": a, "b": b}, {"bit": bits})["r"]
        executor = backend.ir_executor()
        compiled = executor.compile(program)
        outputs = compiled.run(
            {"a": executor.pack(a), "b": executor.pack(b)}, {"bit": bits}
        )
        assert executor.unpack(outputs["r"]) == interpreted


class TestInterpretingExecutor:
    """python/engine run every formula through the same executor surface."""

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_scalar_backends_return_the_interpreting_executor(self, name):
        executor = get_backend(name, GF2_13).ir_executor()
        assert isinstance(executor, InterpretingIRExecutor)
        assert executor.chunk_size == sys.maxsize  # a batch is one chunk
        assert "interpreting executor" in executor.describe()

    def test_boundary_is_plain_int_lists(self):
        executor = get_backend("python", GF2_13).ir_executor()
        packed = executor.pack([3, 1, 4])
        assert packed.array == [3, 1, 4]
        assert executor.unpack(executor.vector(packed.array, 3)) == [3, 1, 4]
        assert executor.broadcast_bits([1, 0, 1]) == [1, 0, 1]

    @pytest.mark.parametrize("name", ["python", "engine"])
    def test_run_arrays_matches_execute_program(self, name):
        field = GF2_13
        backend = get_backend(name, field)
        program = _probe_program(field)
        rng = random.Random(11)
        a = [rng.getrandbits(13) for _ in range(20)]
        b = [rng.getrandbits(13) for _ in range(20)]
        bits = [rng.getrandbits(1) for _ in range(20)]
        executor = backend.ir_executor()
        (result,) = executor.compile(program).run_arrays(
            (executor.pack(a).array, executor.pack(b).array), (executor.broadcast_bits(bits),)
        )
        assert result == execute_program(program, backend, {"a": a, "b": b}, {"bit": bits})["r"]
        assert result == [_probe_reference(field, x, y, bit) for x, y, bit in zip(a, b, bits)]

    def test_rejects_programs_of_another_degree(self):
        executor = get_backend("python", GF2_13).ir_executor()
        with pytest.raises(ValueError, match="m=163"):
            executor.compile(_probe_program(GF2_163))


@requires_numpy
class TestFusedLadderParity:
    """Fused IR ladder: bitslice planes == interpreting executor == scalar reference."""

    @pytest.mark.parametrize("name", PARITY_CURVES)
    def test_fused_ladder_matches_both_paths_on_edge_scalars(self, name):
        curve = curve_by_name(name)
        rng = random.Random(2018)
        scalars = _edge_scalars(curve, 14, rng)
        points = [curve.generator] * len(scalars)
        fused = curve.multiply_batch(points, scalars, backend="bitslice")
        interpreted = curve.multiply_batch(points, scalars, backend="engine")
        reference = [curve.multiply(curve.generator, scalar) for scalar in scalars]
        assert fused == interpreted == reference

    @pytest.mark.parametrize("batch", [7, 8, 9, 17])
    def test_chunk_boundary_batches(self, batch):
        # chunk_size=8 puts 7/8/9/17 below, at, and across plane-chunk edges.
        curve = curve_by_name("T-13")
        rng = random.Random(batch)
        backend = get_backend("bitslice", curve.field, chunk_size=8)
        assert backend.ir_executor().chunk_size == 8
        scalars = _edge_scalars(curve, batch, rng)
        points = [curve.random_point(rng) for _ in scalars]
        fused = curve.multiply_batch(points, scalars, backend=backend)
        interpreted = curve.multiply_batch(points, scalars, backend="python")
        assert fused == interpreted == [curve.multiply(p, k) for p, k in zip(points, scalars)]

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), min_size=1, max_size=24))
    @settings(max_examples=20, deadline=None)
    def test_fused_ladder_property_t13(self, scalars):
        curve = curve_by_name("T-13")
        points = [curve.generator] * len(scalars)
        fused = curve.multiply_batch(points, scalars, backend="bitslice")
        interpreted = curve.multiply_batch(points, scalars, backend="python")
        reference = [curve.multiply(curve.generator, scalar) for scalar in scalars]
        assert fused == interpreted == reference


class TestProgramMemoization:
    """ISSUE 6 satellite: compiled programs cached per curve × backend × chunk."""

    def test_ladder_step_program_is_memoized_per_curve(self):
        curve = curve_by_name("K-163")
        assert ladder_step_program(curve) is ladder_step_program(curve)
        other = curve_by_name("B-163")  # same field, different b
        assert ladder_step_program(other) is not ladder_step_program(curve)

    def test_cached_program_is_keyed(self):
        calls = []

        def factory():
            calls.append(1)
            return _probe_program(GF2_13)

        key = ("test-ir-memo", GF2_13.modulus, id(self))
        first = cached_program(key, factory)
        assert cached_program(key, factory) is first
        assert len(calls) == 1

    @requires_numpy
    def test_compiled_lowering_is_memoized_per_executor(self):
        curve = curve_by_name("K-163")
        program = ladder_step_program(curve)
        executor = get_backend("bitslice", curve.field).ir_executor()
        assert executor.compile(program) is executor.compile(program)
        # A different chunk size is a different backend instance and executor.
        narrow = get_backend("bitslice", curve.field, chunk_size=64).ir_executor()
        assert narrow is not executor
        assert narrow.compile(program) is not executor.compile(program)


class TestDescribeSurface:
    @requires_numpy
    def test_cli_bench_describe_prints_the_schedule(self, capsys):
        from repro.cli import main

        assert main(["bench", "--backend", "bitslice", "-m", "163", "-n", "66", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "ld_step" in out and "6 fused passes" in out and "compiled:" in out

    def test_cli_bench_describe_names_the_interpreting_executor(self, capsys):
        from repro.cli import main

        assert main(["bench", "--backend", "python", "-m", "16", "-n", "3", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "FieldIR interpreting executor on python" in out
        assert "ld_step" in out and "interpreted on python" in out
