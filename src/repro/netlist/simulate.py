"""Bit-parallel functional simulation of XOR/AND netlists.

Simulation packs many test vectors into the bits of Python integers, so one
pass over the netlist evaluates an arbitrary number of operand pairs at
once.  The helpers below understand the multiplier I/O convention used
throughout the project: operand ``A`` drives inputs ``a0 .. a(m-1)``,
operand ``B`` drives ``b0 .. b(m-1)`` and the product appears on outputs
``c0 .. c(m-1)``.

:func:`simulate` and :func:`simulate_words` are the *interpreted reference
path*: a readable per-node walk with per-bit packing loops, kept deliberately
simple because every faster path is validated against it.  Production batch
traffic should go through :mod:`repro.engine`, which compiles the netlist
once and replaces the O(pairs×bits) packing loops with word-level
transposes; the :func:`multiply_words` and :func:`multiply_with_netlist`
conveniences below already route through a cached engine.  One-shot spot
checks are cheaper here: the interpreter beats compile-then-evaluate on
every first call.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

from .netlist import OP_AND, OP_CONST0, OP_INPUT, OP_XOR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .netlist import Netlist

__all__ = ["simulate", "simulate_words", "multiply_with_netlist", "multiply_words"]


def simulate(netlist: Netlist, assignments: Dict[str, int], width: int = 1) -> Dict[str, int]:
    """Evaluate the netlist on bit-packed input words.

    ``assignments`` maps every primary-input name to an integer whose low
    ``width`` bits are that input's value across the ``width`` parallel test
    vectors.  The result maps output names to similarly packed words.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    mask = (1 << width) - 1
    values: List[int] = [0] * netlist.node_count
    for name in netlist.inputs:
        if name not in assignments:
            raise KeyError(f"no value supplied for primary input {name!r}")
        word = assignments[name]
        if word < 0 or word.bit_length() > width:
            raise ValueError(
                f"assignment for input {name!r} needs {word.bit_length()} bits "
                f"but width is {width}; widen the simulation instead of silently "
                "dropping test vectors"
            )
        values[netlist.input_node(name)] = word
    for node in netlist.nodes():
        op = netlist.op(node)
        if op in (OP_INPUT, OP_CONST0):
            continue
        fanin0, fanin1 = netlist.fanins(node)
        if op == OP_AND:
            values[node] = values[fanin0] & values[fanin1]
        elif op == OP_XOR:
            values[node] = values[fanin0] ^ values[fanin1]
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op code {op} at node {node}")
    return {name: values[node] & mask for name, node in netlist.outputs}


def _pack_operand(values: Sequence[int], bit_index: int) -> int:
    """Pack bit ``bit_index`` of every operand word into one simulation word."""
    packed = 0
    for position, value in enumerate(values):
        if (value >> bit_index) & 1:
            packed |= 1 << position
    return packed


def simulate_words(netlist: Netlist, m: int, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
    """Run the multiplier netlist on parallel operand words.

    ``a_values`` and ``b_values`` must have equal length; the returned list
    holds the product word for each pair.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have the same length")
    width = max(1, len(a_values))
    assignments: Dict[str, int] = {}
    for i in range(m):
        assignments[f"a{i}"] = _pack_operand(a_values, i)
        assignments[f"b{i}"] = _pack_operand(b_values, i)
    # Some optimized netlists may not reference every input bit; feed them anyway.
    for name in netlist.inputs:
        assignments.setdefault(name, 0)
    outputs = simulate(netlist, assignments, width)
    results = [0] * len(a_values)
    for k in range(m):
        word = outputs.get(f"c{k}", 0)
        for position in range(len(a_values)):
            if (word >> position) & 1:
                results[position] |= 1 << k
    return results


def multiply_words(netlist: Netlist, m: int, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
    """Batch multiplication through the compiled engine (cached per netlist).

    Functionally identical to :func:`simulate_words` but routed through
    :func:`repro.engine.engine.engine_for_netlist`, which compiles the
    netlist on first use and amortizes that cost over subsequent calls.
    """
    if len(a_values) != len(b_values):
        raise ValueError("a_values and b_values must have the same length")
    from ..engine.engine import engine_for_netlist

    try:
        engine = engine_for_netlist(netlist, m)
    except ValueError:
        # Netlists outside the strict a<i>/b<j> → c<k> convention (extra
        # inputs, missing outputs) keep the tolerant interpreted semantics.
        return simulate_words(netlist, m, a_values, b_values)
    return engine.multiply_batch(a_values, b_values)


def multiply_with_netlist(netlist: Netlist, m: int, a: int, b: int) -> int:
    """Multiply a single pair of field elements with the netlist.

    A per-pair convenience for callers that multiply repeatedly with one
    circuit: it shares :func:`multiply_words`' cached engine, so only the
    first call pays the compilation.
    """
    return multiply_words(netlist, m, [a], [b])[0]
