"""The batch engine: compiled-vs-interpreted equivalence and the batch API."""

import random

import pytest

from repro.engine import Engine, compile_netlist, engine_for, engine_for_netlist
from repro.galois.field import GF2mField
from repro.galois.pentanomials import type_ii_pentanomial
from repro.multipliers.registry import ALL_GENERATORS, generate_multiplier
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import multiply_with_netlist, multiply_words, simulate_words

MODULUS = type_ii_pentanomial(13, 5)
FIELD = GF2mField(MODULUS)


def random_pairs(m, count, seed):
    rng = random.Random(seed)
    a_values = [rng.getrandbits(m) for _ in range(count)]
    b_values = [rng.getrandbits(m) for _ in range(count)]
    return a_values, b_values


class TestCompiledNetlist:
    def test_compiled_matches_interpreter(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        a_values, b_values = random_pairs(13, 200, seed=7)
        engine = Engine(multiplier)
        assert engine.multiply_batch(a_values, b_values) == simulate_words(
            multiplier.netlist, 13, a_values, b_values
        )
        assert compiled.gate_count == compiled.and_count + compiled.xor_count
        assert compiled.level_count > 1

    def test_only_live_cone_is_compiled(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        assert compiled.node_count <= multiplier.netlist.node_count

    def test_source_is_inspectable(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert "def _netlist_eval" in compile_netlist(multiplier.netlist).source

    def test_input_word_count_validated(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        compiled = compile_netlist(multiplier.netlist)
        with pytest.raises(ValueError):
            compiled.evaluate([1, 2, 3])


def _edge_netlist(case):
    """A hand-built m=2 netlist and the product word it must compute."""
    netlist = Netlist(name=case)
    a0, a1, b0, b1 = (netlist.add_input(name) for name in ("a0", "a1", "b0", "b1"))
    bit = lambda word, i: (word >> i) & 1  # noqa: E731
    if case == "constant_zero_output":
        outputs = (netlist.and2(a0, b0), netlist.const0())
        expect = lambda a, b: bit(a, 0) & bit(b, 0)  # noqa: E731
    elif case == "output_wired_to_input":
        outputs = (a1, netlist.and2(a1, b1))
        expect = lambda a, b: bit(a, 1) | (bit(a, 1) & bit(b, 1)) << 1  # noqa: E731
    elif case == "dead_input":
        outputs = (netlist.and2(a0, b0), netlist.and2(a1, b0))  # b1 reaches nothing
        expect = lambda a, b: (bit(a, 0) | bit(a, 1) << 1) * bit(b, 0)  # noqa: E731
    elif case == "xor_only_level":
        outputs = (netlist.xor2(a0, b0), netlist.xor2(netlist.xor2(a0, b1), netlist.xor2(a1, b0)))
        expect = lambda a, b: (  # noqa: E731
            (bit(a, 0) ^ bit(b, 0)) | (bit(a, 0) ^ bit(b, 1) ^ bit(a, 1) ^ bit(b, 0)) << 1
        )
    else:  # full a_i x b_j plane next to a level-1 XOR of inputs
        products = {(i, j): netlist.and2(a, b) for i, a in enumerate((a0, a1)) for j, b in enumerate((b0, b1))}
        outputs = (
            netlist.xor_reduce([products[0, 0], products[1, 1], netlist.xor2(a0, b1)]),
            netlist.xor2(products[0, 1], products[1, 0]),
        )
        expect = lambda a, b: (  # noqa: E731
            (bit(a, 0) & bit(b, 0) ^ bit(a, 1) & bit(b, 1) ^ bit(a, 0) ^ bit(b, 1))
            | (bit(a, 0) & bit(b, 1) ^ bit(a, 1) & bit(b, 0)) << 1
        )
    for k, node in enumerate(outputs):
        netlist.add_output(f"c{k}", node)
    return netlist, expect


class TestEdgeNetlists:
    """The interpreter, the engine and the bitsliced segments agree on edge shapes."""

    @pytest.mark.parametrize(
        "case",
        ["constant_zero_output", "output_wired_to_input", "dead_input", "xor_only_level", "raster_plane"],
    )
    def test_all_evaluators_agree(self, case):
        pytest.importorskip("numpy")
        from repro.backends.bitslice import BitslicedNetlist

        netlist, expect = _edge_netlist(case)
        a_values = [a for a in range(4) for _ in range(4)]
        b_values = [b for _ in range(4) for b in range(4)]
        expected = [expect(a, b) for a, b in zip(a_values, b_values)]
        assert simulate_words(netlist, 2, a_values, b_values) == expected
        assert Engine(netlist=netlist, m=2).multiply_batch(a_values, b_values) == expected
        assert BitslicedNetlist(netlist, 2).multiply_batch(a_values, b_values) == expected


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", sorted(ALL_GENERATORS))
    def test_every_generator_matches_field_reference(self, method):
        engine = engine_for(method, MODULUS)
        a_values, b_values = random_pairs(13, 300, seed=hash(method) & 0xFFFF)
        products = engine.multiply_batch(a_values, b_values)
        for a, b, product in zip(a_values, b_values, products):
            assert product == FIELD.multiply(a, b), (method, a, b)


class TestBatchAPI:
    @pytest.fixture(scope="class")
    def engine(self):
        return engine_for("thiswork", MODULUS)

    def test_empty_batch(self, engine):
        assert engine.multiply_batch([], []) == []

    def test_single_pair(self, engine):
        assert engine.multiply_batch([0x57 & 0x1FFF], [0x83]) == [FIELD.multiply(0x57, 0x83)]
        assert engine.multiply(1, 1) == 1

    def test_mismatched_lengths_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.multiply_batch([1, 2], [3])

    def test_chunking_preserves_order(self, engine):
        a_values, b_values = random_pairs(13, 1000, seed=11)
        whole = engine.multiply_batch(a_values, b_values)
        chunked = engine.multiply_batch(a_values, b_values, chunk_size=17)
        assert whole == chunked
        assert len(whole) == 1000

    def test_batch_larger_than_chunk_size(self):
        engine = Engine(
            generate_multiplier("thiswork", MODULUS, verify=False), chunk_size=64
        )
        a_values, b_values = random_pairs(13, 300, seed=5)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert engine.multiply_batch(a_values, b_values) == expected

    def test_invalid_chunk_size_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.multiply_batch([1], [1], chunk_size=0)
        with pytest.raises(ValueError):
            Engine(generate_multiplier("thiswork", MODULUS, verify=False), chunk_size=0)

    def test_describe_mentions_mode_and_field(self, engine):
        text = engine.describe()
        assert "exec" in text and "GF(2^13)" in text


class TestEngineConstruction:
    def test_needs_circuit(self):
        with pytest.raises(ValueError):
            Engine()

    def test_multiplier_and_netlist_are_exclusive(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        with pytest.raises(ValueError):
            Engine(multiplier, netlist=multiplier.netlist, m=13)

    def test_raw_netlist_with_degree(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        engine = Engine(netlist=multiplier.netlist, m=13)
        assert engine.multiply(3, 5) == FIELD.multiply(3, 5)

    def test_engine_for_is_cached(self):
        assert engine_for("thiswork", MODULUS) is engine_for("thiswork", MODULUS)

    def test_engine_for_verify_upgrade_survives_engine_cache(self):
        from repro.engine import default_multiplier_cache

        modulus = type_ii_pentanomial(11, 4)
        engine_for("paar", modulus, verify=False)
        assert not default_multiplier_cache().is_verified("paar", modulus)
        engine_for("paar", modulus, verify=True)
        assert default_multiplier_cache().is_verified("paar", modulus)

    def test_only_low_m_bits_of_operands_are_used(self):
        engine = engine_for("thiswork", MODULUS)
        high = 1 << 300
        assert engine.multiply(high | 0x3, 0x5) == engine.multiply(0x3, 0x5)
        assert engine.multiply_batch([high], [1]) == [0]

    def test_engine_for_netlist_is_cached_per_netlist(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        first = engine_for_netlist(multiplier.netlist, 13)
        assert engine_for_netlist(multiplier.netlist, 13) is first


class TestRoutedEntryPoints:
    def test_field_multiply_batch_matches_scalar_reference(self):
        a_values, b_values = random_pairs(13, 400, seed=23)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert FIELD.multiply_batch(a_values, b_values) == expected

    def test_field_multiply_batch_validates_range(self):
        with pytest.raises(ValueError):
            FIELD.multiply_batch([1 << 13], [1])
        with pytest.raises(ValueError):
            FIELD.multiply_batch([1, 2], [3])

    def test_field_multiply_batch_explicit_method(self):
        a_values, b_values = random_pairs(13, 50, seed=29)
        expected = FIELD.multiply_batch(a_values, b_values)
        assert FIELD.multiply_batch(a_values, b_values, method="schoolbook") == expected

    def test_generated_multiplier_conveniences(self):
        multiplier = generate_multiplier("thiswork", MODULUS)
        assert multiplier.multiply(0x1a, 0x2b) == FIELD.multiply(0x1a, 0x2b)
        a_values, b_values = random_pairs(13, 64, seed=31)
        expected = [FIELD.multiply(a, b) for a, b in zip(a_values, b_values)]
        assert multiplier.multiply_batch(a_values, b_values) == expected
        assert multiplier.engine().m == 13

    def test_multiply_words_routes_through_engine(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        a_values, b_values = random_pairs(13, 80, seed=37)
        assert multiply_words(multiplier.netlist, 13, a_values, b_values) == simulate_words(
            multiplier.netlist, 13, a_values, b_values
        )
        with pytest.raises(ValueError):
            multiply_words(multiplier.netlist, 13, [1], [])

    def test_multiply_with_netlist_still_scalar(self):
        multiplier = generate_multiplier("thiswork", MODULUS, verify=False)
        assert multiply_with_netlist(multiplier.netlist, 13, 9, 12) == FIELD.multiply(9, 12)


class TestRegistryCaching:
    def test_generate_multiplier_uses_shared_cache(self):
        first = generate_multiplier("rashidi", MODULUS, verify=False)
        second = generate_multiplier("rashidi", MODULUS, verify=False)
        assert first is second

    def test_private_copies_on_request(self):
        cached = generate_multiplier("rashidi", MODULUS, verify=False)
        private = generate_multiplier("rashidi", MODULUS, verify=False, use_cache=False)
        assert private is not cached
