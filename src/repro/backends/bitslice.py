"""Bitsliced netlist evaluation over numpy ``uint64`` plane arrays.

The compiled big-integer engine (:mod:`repro.engine`) evaluates one Python
bytecode operation per gate on arbitrary-precision integers.  This backend
trades that for numpy: every netlist node owns one row of a
``(node_count, lane_words)`` ``uint64`` array, where bit ``p`` of a row is
the node's value for operand pair ``p`` — 64 batch lanes per machine word,
``lane_words`` words per numpy op.

The circuit is compiled to **level segments** by the substrate's one
segment compiler, :class:`~repro.backends.planes.LevelSegments`: every run
of same-op gates in one logic level is a contiguous slice of the value
array and evaluates as two ``np.take`` fanin gathers plus one vectorized
``bitwise_and`` / ``bitwise_xor``.  On top of that this module adds only
the multiplier's own structure: the ``a``/``b`` input scatter, and the full
``a_i x b_j`` partial-product plane, which skips the gathers and evaluates
as one broadcast outer product of the input plane arrays.  A 55k-gate
GF(2^163) multiplier collapses to ~45 numpy calls per chunk.

Packing reuses the word-level bit-matrix transposes of
:mod:`repro.engine.bitpack` (rows → plane big-ints) with a zero-copy
``int.to_bytes``/``np.frombuffer`` hop between big-int planes and ``uint64``
lane words.  :meth:`BitslicedNetlist.multiply_planes` skips the transposes
altogether for callers that already hold plane arrays — the entry point of
the plane-resident compute layer (:mod:`repro.backends.planes`).

numpy is an *optional* dependency: the module imports without it and every
entry point raises a clear ``ImportError`` (install ``numpy`` or the
``gf2m-repro[bitslice]`` extra) only when bitsliced evaluation is actually
requested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..engine.bitpack import pack_rows, unpack_planes
from ..engine.engine import NetlistMultiplier
from ..netlist.netlist import OP_AND
from ..pipeline.store import LRUCache
from .base import FieldBackend, default_method_for, product_tree_inverse_batch
from .ir import lane_words_for
from .planes import (
    LevelSegments,
    PlaneIRExecutor,
    _np,
    _planes_to_array,
    _require_numpy,
    numpy_available,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2mField
    from ..netlist.netlist import Netlist

__all__ = ["BitslicedNetlist", "BitsliceBackend", "bitsliced_netlist", "numpy_available"]

#: Default batch lanes evaluated per numpy pass (64 pairs per uint64 word).
DEFAULT_LANES = 4096


class BitslicedNetlist(NetlistMultiplier):
    """A multiplier netlist compiled for level-segmented numpy evaluation.

    Follows the standard multiplier I/O convention (inputs ``a<i>``/``b<j>``,
    outputs ``c0..c(m-1)``) and raises ``ValueError`` for netlists outside
    it, through the wiring and chunked batch loop it shares with
    :class:`repro.engine.engine.Engine`.  The gates are lowered by
    :class:`~repro.backends.planes.LevelSegments`; value buffers are cached
    per lane width, so repeated batches of the same chunk size reuse their
    memory.
    """

    def __init__(self, netlist: Netlist, m: int, chunk_size: int = DEFAULT_LANES) -> None:
        np = _require_numpy()
        self._wire(netlist, m, chunk_size)
        self.name = netlist.name

        # Raster rank of input-fed AND gates: a partial-product plane whose
        # gates cover the full a_i x b_j grid evaluates as ONE broadcast
        # outer product instead of two 26k-row gathers.  Ordering those
        # gates in (i, j) raster inside their segment makes the plane one
        # contiguous (m, m) block of rows.
        input_bit = {
            netlist.input_node(name): source
            for name, source in zip(netlist.inputs, self.input_sources)
        }
        raster: Dict[int, int] = {}
        for node in netlist.live_nodes():
            if netlist.op(node) != OP_AND:
                continue
            pair = dict(input_bit[fanin] for fanin in netlist.fanins(node) if fanin in input_bit)
            if len(pair) == 2:
                raster[node] = pair[0] * m + pair[1]
        self._segments = segments = LevelSegments(
            netlist, key=lambda node: (0, raster[node]) if node in raster else (1, node)
        )
        self._outer: Optional[slice] = None
        if len(raster) == m * m:
            raster_rows = segments.rows[list(raster)]
            start = int(raster_rows.min())
            in_raster_order = (raster_rows - start == list(raster.values())).all()
            if in_raster_order and segments.detach(start, start + m * m):
                self._outer = slice(start, start + m * m)

        # One fancy-indexed scatter per operand loads the input rows
        # (input i is row i).
        operands, bits = np.asarray(self.input_sources, dtype=np.intp).reshape(-1, 2).T
        self._a_rows, self._b_rows = np.flatnonzero(operands == 0), np.flatnonzero(operands == 1)
        self._a_bits, self._b_bits = bits[self._a_rows], bits[self._b_rows]
        outputs = netlist.outputs
        self._output_rows = segments.rows[[outputs[index][1] for index in self.output_index]]

    # --------------------------------------------------------------- evaluate
    def multiply_planes(self, a_planes, b_planes):
        """Products of two ``(m, lane_words)`` uint64 plane arrays, as planes.

        The plane-resident entry point: no packing, no unpacking — inputs
        scatter into the value buffer with two fancy-indexed writes, the
        partial-product plane (when the netlist has the full raster) is one
        broadcast outer product, the other segments run through
        :meth:`~repro.backends.planes.LevelSegments.evaluate`, and the
        output rows gather into a fresh array (never aliasing the reused
        buffer).  Lane stacking is transparent: any common ``lane_words``
        width works.
        """
        m = self.m
        if a_planes.shape != b_planes.shape or a_planes.shape[0] != m:
            raise ValueError(
                f"expected two ({m}, lane_words) plane arrays, got "
                f"{a_planes.shape} and {b_planes.shape}"
            )
        segments = self._segments
        values = segments.buffer(a_planes.shape[1])
        values[self._a_rows] = a_planes[self._a_bits]
        values[self._b_rows] = b_planes[self._b_bits]
        if self._outer is not None:
            _np.bitwise_and(
                a_planes[:, None, :], b_planes[None, :, :],
                out=values[self._outer].reshape(m, m, -1),
            )
        segments.evaluate(values)
        return values[self._output_rows]

    def _evaluate_chunk(self, a_chunk: List[int], b_chunk: List[int]) -> List[int]:
        lanes = len(a_chunk)
        lane_words = lane_words_for(lanes)
        product = self.multiply_planes(
            _planes_to_array(pack_rows(a_chunk, self.m), lane_words),
            _planes_to_array(pack_rows(b_chunk, self.m), lane_words),
        )
        product_planes = [int.from_bytes(product[k].tobytes(), "little") for k in range(self.m)]
        return unpack_planes(product_planes, self.m, lanes)

    def describe(self) -> str:
        """One-line structural summary."""
        segments = self._segments
        count = len(segments.segments) + (self._outer is not None)
        return (
            f"bitslice[numpy] {self.name or 'netlist'} GF(2^{self.m}): "
            f"{segments.and_count} AND, {segments.xor_count} XOR in {count} "
            f"segments ({segments.level_count} levels), {self.chunk_size} lanes/chunk"
        )


#: Memoized lowerings keyed by ``(netlist name, modulus, m, chunk)`` — the
#: modulus disambiguates same-degree pentanomials that share a netlist name.
#: Repeated ``GF2mField``/backend constructions for one field reuse the
#: segment build instead of re-lowering a 55k-gate netlist.
_SLICED_CACHE = LRUCache(maxsize=16, name="bitslice.netlists")


def bitsliced_netlist(
    netlist: Netlist, m: int, chunk_size: int = DEFAULT_LANES, modulus: Optional[int] = None
) -> BitslicedNetlist:
    """The memoized :class:`BitslicedNetlist` lowering of a multiplier netlist.

    ``modulus`` qualifies the cache key (netlist names encode method and
    degree but not the defining polynomial); pass it whenever the netlist
    came from a field so equal fields share one lowering.  Without a
    modulus the lowering is built uncached.
    """
    if modulus is None:
        return BitslicedNetlist(netlist, m, chunk_size=chunk_size)
    key = (netlist.name, modulus, m, chunk_size)
    return _SLICED_CACHE.get_or_create(
        key, lambda: BitslicedNetlist(netlist, m, chunk_size=chunk_size)
    )


class BitsliceBackend(FieldBackend):
    """Field backend evaluating the generated multiplier netlist bitsliced.

    The circuit comes from the same process-wide multiplier cache as the
    engine backend (formally verified per ``(method, modulus)`` unless
    ``verify=False``), then is compiled once into a
    :class:`BitslicedNetlist`.  Byte-identical to the scalar reference by
    construction and asserted by the parity harness.
    """

    name = "bitslice"

    def __init__(
        self,
        field: "GF2mField",
        method: Optional[str] = None,
        chunk_size: int = DEFAULT_LANES,
        verify: bool = True,
    ) -> None:
        _require_numpy()
        super().__init__(field)
        self.method = method if method is not None else default_method_for(field.modulus)
        self.chunk_size = chunk_size
        self.verify = verify
        self._sliced: Optional[BitslicedNetlist] = None
        self._executor: Optional[PlaneIRExecutor] = None

    @property
    def sliced(self) -> BitslicedNetlist:
        """The compiled bitsliced circuit (memoized process-wide)."""
        if self._sliced is None:
            from ..multipliers.cache import cached_multiplier

            multiplier = cached_multiplier(self.method, self.field.modulus, verify=self.verify)
            self._sliced = bitsliced_netlist(
                multiplier.netlist,
                multiplier.m,
                chunk_size=self.chunk_size,
                modulus=self.field.modulus,
            )
        return self._sliced

    def ir_executor(self) -> PlaneIRExecutor:
        """The FieldIR plane executor (see :mod:`repro.backends.planes`)."""
        if self._executor is None:
            self._executor = PlaneIRExecutor(self.field, self.sliced)
        return self._executor

    def multiply(self, a: int, b: int) -> int:
        return self.sliced.multiply_batch([a], [b])[0]

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        self._count_batch("multiply_batch", len(a_values))
        return self.sliced.multiply_batch(a_values, b_values)

    inverse_batch = product_tree_inverse_batch

    def describe(self) -> str:
        return self.sliced.describe()
