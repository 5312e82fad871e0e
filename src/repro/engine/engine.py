"""The batch multiplication engine: compiled netlists fed by word transposes.

:class:`Engine` is the production execution path of this project.  It takes
a generated multiplier circuit, compiles it once
(:mod:`repro.engine.compiler`), and then streams arbitrarily long operand
batches through the compiled function in bit-packed chunks
(:mod:`repro.engine.bitpack`):

1. a chunk of up to ``chunk_size`` operand pairs is transposed from row
   words into per-input-bit plane words,
2. one call of the compiled straight-line function evaluates every gate on
   all pairs of the chunk simultaneously (bit ``p`` of every intermediate
   word belongs to pair ``p``),
3. the output planes are transposed back into product words.

Throughput at GF(2^163) is 15-30× the interpreted
:func:`repro.netlist.simulate.simulate_words` path (see
``benchmarks/bench_engine_throughput.py``).

Module-level factories cache engines so that repeated callers — the CLI,
:meth:`repro.galois.field.GF2mField.multiply_batch`, the verification
helpers — never recompile:

* :func:`engine_for` keys on ``(method, modulus)`` and obtains the
  circuit through the process-wide multiplier cache;
* :func:`engine_for_netlist` weakly keys on an existing netlist object, for
  callers that already hold a circuit (restructured variants, tests).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING, Tuple

from ..multipliers.cache import cached_multiplier
from ..pipeline.store import LRUCache
from .bitpack import pack_rows, unpack_planes
from .compiler import compile_netlist

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netlist.netlist import Netlist
    from .compiler import CompiledNetlist

__all__ = ["Engine", "NetlistMultiplier", "engine_for", "engine_for_netlist"]

#: Default number of operand pairs evaluated per compiled call.
DEFAULT_CHUNK_SIZE = 4096


class NetlistMultiplier:
    """The multiplier I/O convention and chunked batch loop of an evaluator.

    Shared by :class:`Engine` and
    :class:`~repro.backends.bitslice.BitslicedNetlist`: :meth:`_wire`
    checks that the netlist follows the ``a<i>``/``b<j>`` → ``c<k>``
    convention for degree ``m`` (``ValueError`` otherwise) and records
    ``input_sources`` (``(operand, bit)`` per declared input, operand 0 for
    ``a``) and ``output_index`` (the position of ``c<k>`` in
    ``netlist.outputs``).  Subclasses implement :meth:`_evaluate_chunk`
    over masked operand lists of at most ``chunk_size`` pairs.  Only the
    low ``m`` bits of every operand are used, matching the interpreted
    simulator's semantics.
    """

    m: int
    chunk_size: int

    def _wire(self, netlist: Netlist, m: int, chunk_size: int) -> None:
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.m = m
        self.chunk_size = chunk_size
        self.input_sources: List[Tuple[int, int]] = []
        for name in netlist.inputs:
            operand, digits = name[:1], name[1:]
            if operand not in ("a", "b") or not digits.isdigit() or int(digits) >= m:
                raise ValueError(
                    f"input {name!r} does not follow the a<i>/b<j> convention for m={m}"
                )
            self.input_sources.append((0 if operand == "a" else 1, int(digits)))
        position = {name: index for index, (name, _) in enumerate(netlist.outputs)}
        self.output_index: List[int] = []
        for k in range(m):
            index = position.get(f"c{k}")
            if index is None:
                raise ValueError(f"netlist is missing output c{k}")
            self.output_index.append(index)

    def _evaluate_chunk(self, a_chunk: List[int], b_chunk: List[int]) -> List[int]:
        raise NotImplementedError

    def multiply(self, a: int, b: int) -> int:
        """Multiply a single pair of field elements through the circuit."""
        return self.multiply_batch([a], [b])[0]

    def multiply_batch(
        self,
        a_words: Sequence[int],
        b_words: Sequence[int],
        chunk_size: Optional[int] = None,
    ) -> List[int]:
        """Products of ``a_words[i] · b_words[i]`` for every ``i``, in order.

        The streams may be arbitrarily long; they are processed in chunks of
        ``chunk_size`` pairs (default: the evaluator's configured chunk
        size).  An empty batch returns an empty list.
        """
        if len(a_words) != len(b_words):
            raise ValueError(
                f"operand streams differ in length: {len(a_words)} vs {len(b_words)}"
            )
        chunk = chunk_size if chunk_size is not None else self.chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be at least 1")
        mask = (1 << self.m) - 1
        results: List[int] = []
        for start in range(0, len(a_words), chunk):
            a_chunk = [word & mask for word in a_words[start:start + chunk]]
            b_chunk = [word & mask for word in b_words[start:start + chunk]]
            results.extend(self._evaluate_chunk(a_chunk, b_chunk))
        return results


class Engine(NetlistMultiplier):
    """Compiled batch-multiplication engine for one multiplier circuit.

    Parameters
    ----------
    multiplier:
        A :class:`~repro.multipliers.base.GeneratedMultiplier`.  Mutually
        exclusive with ``netlist``/``m``.
    netlist, m:
        A raw multiplier netlist following the ``a<i>``/``b<j>`` → ``c<k>``
        I/O convention, and its field degree.
    chunk_size:
        Operand pairs per compiled call.  Larger chunks amortize per-call
        overhead against bigger intermediate words; 4096 is a good default.
    """

    def __init__(
        self,
        multiplier=None,
        *,
        netlist: Optional[Netlist] = None,
        m: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        if multiplier is not None:
            if netlist is not None or m is not None:
                raise ValueError("pass either a multiplier or netlist+m, not both")
            netlist = multiplier.netlist
            m = multiplier.m
            self.method: Optional[str] = multiplier.method
            self.modulus: Optional[int] = multiplier.modulus
        else:
            if netlist is None or m is None:
                raise ValueError("an Engine needs a multiplier or a netlist with its degree m")
            self.method = netlist.attributes.get("method")
            self.modulus = netlist.attributes.get("modulus")
        self._wire(netlist, m, chunk_size)
        self.compiled: CompiledNetlist = compile_netlist(netlist)

    def _evaluate_chunk(self, a_chunk: List[int], b_chunk: List[int]) -> List[int]:
        m = self.m
        planes = (pack_rows(a_chunk, m), pack_rows(b_chunk, m))
        outputs = self.compiled.evaluate(
            [planes[operand][bit] for operand, bit in self.input_sources]
        )
        return unpack_planes([outputs[index] for index in self.output_index], m, len(a_chunk))

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        compiled = self.compiled
        label = self.method or compiled.name or "netlist"
        return (
            f"engine[exec] {label} GF(2^{self.m}): "
            f"{compiled.and_count} AND, {compiled.xor_count} XOR, "
            f"{compiled.level_count} levels, chunk {self.chunk_size}"
        )


#: Engines keyed by (method, modulus) — the hot path of `engine_for`.
_ENGINE_CACHE = LRUCache(maxsize=16, name="engine.compiled")

#: Engines for caller-owned netlists, dropped when the netlist is collected.
_NETLIST_ENGINES: "weakref.WeakKeyDictionary[Netlist, Dict[int, Engine]]" = (
    weakref.WeakKeyDictionary()
)
_NETLIST_LOCK = threading.RLock()


def engine_for(method: str, modulus: int, *, verify: bool = True) -> Engine:
    """A cached :class:`Engine` for the given construction and modulus.

    The multiplier circuit is obtained through the process-wide
    :func:`repro.multipliers.cache.cached_multiplier`, so neither the SiTi
    splitting derivation nor the formal verification nor the compilation is
    repeated for the same ``(method, modulus)`` pair.
    """
    # Resolve the multiplier before consulting the engine cache: a cached
    # engine must not short-circuit the verify upgrade a verify=True caller
    # is entitled to when the circuit was first generated unverified.
    multiplier = cached_multiplier(method, modulus, verify=verify)
    return _ENGINE_CACHE.get_or_create((method, modulus), lambda: Engine(multiplier))


def engine_for_netlist(netlist: Netlist, m: int) -> Engine:
    """A cached :class:`Engine` wrapping an existing netlist object.

    Entries are held weakly: once the caller drops the netlist, the engine
    is collected with it.  Used by the simulation convenience helpers and
    :func:`repro.netlist.verify.verify_by_simulation`.
    """
    with _NETLIST_LOCK:
        per_netlist = _NETLIST_ENGINES.get(netlist)
        if per_netlist is None:
            per_netlist = {}
            _NETLIST_ENGINES[netlist] = per_netlist
        engine = per_netlist.get(m)
        if engine is None:
            engine = Engine(netlist=netlist, m=m)
            per_netlist[m] = engine
        return engine
