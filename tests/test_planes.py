"""The plane-resident compute layer and the batched ladder on every executor.

The bitslice backend's :class:`~repro.backends.planes.PlaneIRExecutor` runs
whole FieldIR programs in the uint64 plane domain — one pack, every pass
on planes, one unpack.  Its results must be **byte-identical** to the
interpreting executor of the python/engine backends and to the scalar
reference, single ops and whole ladders alike, including batches mixing
scalars of very different bit lengths (the masked plane-select path).  The
:class:`PlaneProgram` lowering of GF(2)-linear maps must agree with the
table-driven scalar maps lane-by-lane, pinned down by a hypothesis
property for squaring.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    IRBuilder,
    PlaneProgram,
    bitsliced_netlist,
    get_backend,
    numpy_available,
    plane_program,
    schedule_program,
)
from repro.curves import curve_by_name, ecdh_batch, keygen_batch
from repro.galois.field import GF2mField
from repro.galois.pentanomials import smallest_type_ii_pentanomial

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

GF2_163 = GF2mField(smallest_type_ii_pentanomial(163), check_irreducible=False)

#: The parity grid of ISSUE 5: toy curve plus two NIST-degree Koblitz curves.
PARITY_CURVES = ["T-13", "K-163", "K-233"]


def _mixed_scalars(curve, count, rng):
    """Scalars covering the masked-select corners: 0, 1, n-1, and mixed widths."""
    n = curve.order if curve.order is not None else curve.field.order
    scalars = [0, 1, n - 1, 2, 3]
    # Deliberately different bit lengths inside one batch.
    for width in range(1, curve.field.m, max(1, curve.field.m // 8)):
        scalars.append((rng.getrandbits(width) | (1 << (width - 1))) % n or 1)
    while len(scalars) < count:
        scalars.append(rng.randrange(0, n))
    return scalars[:count]


def _single_op_program(kind, linear_map=None):
    """A small GF(2^163) FieldIR program around one op kind."""
    builder = IRBuilder(f"single_{kind}")
    if kind == "mul":
        builder.output("y", builder.mul(builder.input("a"), builder.input("b")))
    elif kind == "mul2":
        a, b, c, d = (builder.input(name) for name in "abcd")
        builder.output("ab", builder.mul(a, b))
        builder.output("cd", builder.mul(c, d))
    elif kind == "linear":
        builder.output("y", builder.apply_linear("map", builder.input("a")))
    elif kind == "xor":
        builder.output("y", builder.xor(builder.input("a"), builder.input("b")))
    else:
        bit = builder.mask_input("bit")
        builder.output("y", builder.select(bit, builder.input("a"), builder.input("b")))
    maps = {} if linear_map is None else {"map": linear_map}
    return schedule_program(builder.build(), GF2_163.m, maps)


def _run_on(backend_name, program, inputs, masks=None):
    """Run ``program`` through ``backend_name``'s executor; unpacked outputs."""
    executor = get_backend(backend_name, GF2_163).ir_executor()
    outputs = executor.compile(program).run(
        {name: executor.pack(values) for name, values in inputs.items()}, masks
    )
    return {name: executor.unpack(vector) for name, vector in outputs.items()}


@requires_numpy
class TestPlaneCapability:
    def test_describe_mentions_the_substrate(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
        assert "plane executor" in executor.describe()


@requires_numpy
class TestPlaneVectorRoundtrip:
    """Single-op programs: bitslice planes == interpreting executor == reference."""

    def test_pack_unpack_is_identity(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
        rng = random.Random(5)
        values = [0, 1, (1 << 163) - 1] + [rng.getrandbits(163) for _ in range(70)]
        assert executor.unpack(executor.pack(values)) == values

    def test_xor_and_select(self):
        rng = random.Random(6)
        a = [rng.getrandbits(163) for _ in range(67)]
        b = [rng.getrandbits(163) for _ in range(67)]
        bits = [rng.getrandbits(1) for _ in range(67)]
        xor = _single_op_program("xor")
        expected = {"y": [x ^ y for x, y in zip(a, b)]}
        assert _run_on("bitslice", xor, {"a": a, "b": b}) == expected
        assert _run_on("python", xor, {"a": a, "b": b}) == expected
        select = _single_op_program("select")
        expected = {"y": [x if bit else y for x, y, bit in zip(a, b, bits)]}
        assert _run_on("bitslice", select, {"a": a, "b": b}, {"bit": bits}) == expected
        assert _run_on("engine", select, {"a": a, "b": b}, {"bit": bits}) == expected

    def test_mismatched_batches_are_rejected(self):
        executor = get_backend("bitslice", GF2_163).ir_executor()
        rng = random.Random(12)
        narrow = executor.pack([rng.getrandbits(163) for _ in range(10)])   # 1 lane word
        wide = executor.pack([rng.getrandbits(163) for _ in range(70)])     # 2 lane words
        with pytest.raises(ValueError, match="one batch"):
            executor.compile(_single_op_program("xor")).run({"a": narrow, "b": wide})
        with pytest.raises(ValueError, match="one batch"):
            executor.compile(_single_op_program("mul")).run({"a": narrow, "b": wide})
        mask = executor.broadcast_bits([1] * 10)
        with pytest.raises(ValueError, match="lane words"):
            executor.compile(_single_op_program("select")).run({"a": wide, "b": wide}, {"bit": mask})

    def test_multiply_planes_single_and_stacked(self):
        field = GF2_163
        rng = random.Random(7)
        a, b, c, d = ([rng.getrandbits(163) for _ in range(33)] for _ in range(4))
        single = _run_on("bitslice", _single_op_program("mul"), {"a": a, "b": b})
        assert single == {"y": [field.multiply(x, y) for x, y in zip(a, b)]}
        stacked_program = _single_op_program("mul2")
        assert stacked_program.mul_pass_widths() == [2]  # one lane-stacked netlist pass
        inputs = {"a": a, "b": b, "c": c, "d": d}
        stacked = _run_on("bitslice", stacked_program, inputs)
        assert stacked == _run_on("python", stacked_program, inputs)
        assert stacked["ab"] == single["y"]
        assert stacked["cd"] == [field.multiply(x, y) for x, y in zip(c, d)]


@requires_numpy
class TestPlaneProgram:
    def test_square_program_matches_scalar_map(self):
        field = GF2_163
        rng = random.Random(8)
        values = [0, 1, (1 << 163) - 1] + [rng.getrandbits(163) for _ in range(100)]
        program = _single_op_program("linear", field.square_map)
        expected = {"y": [field.square(value) for value in values]}
        assert _run_on("bitslice", program, {"a": values}) == expected
        assert _run_on("python", program, {"a": values}) == expected

    def test_constant_multiplier_program(self):
        field = GF2_163
        rng = random.Random(9)
        constant = rng.getrandbits(163)
        program = _single_op_program("linear", field.constant_multiplier(constant))
        values = [rng.getrandbits(163) for _ in range(65)]
        expected = {"y": [field.multiply(constant, value) for value in values]}
        assert _run_on("bitslice", program, {"a": values}) == expected
        assert _run_on("engine", program, {"a": values}) == expected

    def test_zero_and_identity_maps(self):
        import numpy as np

        identity = PlaneProgram([1 << i for i in range(8)])
        zero = PlaneProgram([0] * 8)
        data = np.arange(8, dtype=np.uint64).reshape(8, 1)
        assert identity.apply(data).tolist() == data.tolist()
        assert zero.apply(data).tolist() == [[0]] * 8
        assert identity.xor_count == 0  # pure copies need no gates

    def test_rejects_wrong_shapes(self):
        import numpy as np

        program = PlaneProgram([1, 2, 3])
        with pytest.raises(ValueError, match="input planes"):
            program.apply(np.zeros((4, 1), dtype=np.uint64))
        with pytest.raises(ValueError, match="output space"):
            PlaneProgram([1, 2, 9], out_bits=3)

    def test_programs_are_memoized(self):
        program = plane_program(GF2_163.square_map)
        assert plane_program(GF2_163.square_map) is program
        assert "XOR" in program.describe()

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 163) - 1), min_size=1, max_size=96))
    @settings(max_examples=25, deadline=None)
    def test_plane_squaring_equals_field_square_lane_by_lane(self, values):
        program = _single_op_program("linear", GF2_163.square_map)
        squared = _run_on("bitslice", program, {"a": values})["y"]
        assert squared == [GF2_163.square(value) for value in values]


@requires_numpy
class TestNetlistMemoization:
    def test_lowering_is_shared_across_equal_fields(self):
        from repro.multipliers.cache import cached_multiplier

        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        assert first is second
        # Backend instances for equal fields reuse the same lowering.
        backend = get_backend("bitslice", GF2mField(modulus, check_irreducible=False))
        assert backend.sliced is first

    def test_no_modulus_means_no_cache_entry(self):
        from repro.multipliers.cache import cached_multiplier

        multiplier = cached_multiplier("thiswork", GF2_163.modulus, verify=False)
        first = bitsliced_netlist(multiplier.netlist, multiplier.m)
        second = bitsliced_netlist(multiplier.netlist, multiplier.m)
        assert first is not second

    def test_chunk_size_is_part_of_the_key(self):
        from repro.multipliers.cache import cached_multiplier

        modulus = GF2_163.modulus
        multiplier = cached_multiplier("thiswork", modulus, verify=False)
        default = bitsliced_netlist(multiplier.netlist, multiplier.m, modulus=modulus)
        narrow = bitsliced_netlist(multiplier.netlist, multiplier.m, chunk_size=64, modulus=modulus)
        assert default is not narrow and narrow.chunk_size == 64


@requires_numpy
class TestPlaneLadderParity:
    """Plane ladder == interpreting executor == scalar reference on the grid."""

    @pytest.mark.parametrize("name", PARITY_CURVES)
    def test_plane_ladder_matches_scalar_reference(self, name):
        curve = curve_by_name(name)
        rng = random.Random(2018)
        backend = get_backend("bitslice", curve.field)
        scalars = _mixed_scalars(curve, 16, rng)
        generator = curve.generator
        points = [generator] * len(scalars)
        plane = curve.multiply_batch(points, scalars, backend=backend)
        reference = [curve.multiply(generator, scalar) for scalar in scalars]
        assert plane == reference

    @pytest.mark.parametrize("name", ["T-13", "K-163"])
    def test_plane_and_interpreting_executors_are_byte_identical(self, name):
        curve = curve_by_name(name)
        rng = random.Random(99)
        scalars = _mixed_scalars(curve, 12, rng)
        points = [curve.generator] * len(scalars)
        plane = curve.multiply_batch(points, scalars, backend="bitslice")
        interpreted = curve.multiply_batch(points, scalars, backend="engine")
        assert plane == interpreted

    def test_plane_ladder_chunks_large_batches(self):
        curve = curve_by_name("T-13")
        rng = random.Random(3)
        backend = get_backend("bitslice", curve.field, chunk_size=8)
        scalars = _mixed_scalars(curve, 37, rng)  # forces 5 plane chunks
        points = [curve.generator] * len(scalars)
        plane = curve.multiply_batch(points, scalars, backend=backend)
        assert plane == [curve.multiply(curve.generator, scalar) for scalar in scalars]

    def test_distinct_base_points_per_lane(self):
        curve = curve_by_name("T-13")
        rng = random.Random(11)
        points = [curve.random_point(rng) for _ in range(9)]
        scalars = _mixed_scalars(curve, 9, rng)
        reference = [curve.multiply(p, k) for p, k in zip(points, scalars)]
        assert curve.multiply_batch(points, scalars, backend="bitslice") == reference
        assert curve.multiply_batch(points, scalars, backend="python") == reference

    def test_protocols_route_through_the_plane_ladder(self):
        curve = curve_by_name("K-163")
        pairs = keygen_batch(curve, 6, seed=4, backend="bitslice")
        reference = keygen_batch(curve, 6, seed=4, batched=False)
        assert [p.public for p in pairs] == [p.public for p in reference]
        privates = [p.private for p in pairs]
        peers = [p.public for p in reversed(pairs)]
        shared = ecdh_batch(curve, privates, peers, backend="bitslice")
        assert shared == ecdh_batch(curve, privates, peers, backend="engine")
        assert shared == [
            curve.multiply(q.public, p.private) for p, q in zip(pairs, reversed(pairs))
        ]
