"""Plane-resident GF(2^m) compute: values that *live* in uint64 bit planes.

The bitsliced backend (:mod:`repro.backends.bitslice`) made one batched
multiplication fast, but a consumer like the Montgomery ladder calls it
``~m`` times per scalar multiplication — and every call pays two full
bit-matrix transposes (rows → planes, planes → rows) plus per-element
scalar Python for everything between the multiplications.  This module
removes the round trips: a batch of field elements is packed into an
``(m, lane_words)`` ``uint64`` plane array **once**, every operation of the
consuming algorithm runs directly on that plane representation, and rows
are unpacked **once** at the end.

Three kinds of operation cover a whole López-Dahab ladder step:

* full products — the bitsliced multiplier netlist evaluated plane-to-plane
  (:meth:`repro.backends.bitslice.BitslicedNetlist.multiply_planes`), with
  several independent products lane-stacked into one netlist pass;
* GF(2)-**linear** maps (squaring, multiplication by a fixed curve
  constant) — :class:`PlaneProgram` turns a
  :class:`~repro.galois.field.GF2LinearMap` into XOR trees;
* data movement — XOR of plane vectors and scalar-bit-dependent *selects*
  driven by a broadcast lane mask, so mixed control bits across one batch
  never leave the plane domain.

:class:`PlaneIRExecutor` compiles a whole scheduled FieldIR formula
(:mod:`repro.backends.ir`) into these passes; it is the executor the
bitslice backend returns from
:meth:`repro.backends.base.FieldBackend.ir_executor`, so the batched
curve ladders (:meth:`repro.curves.point.BinaryCurve.multiply_batch`)
keep all ``~m`` steps plane-resident.

Both netlists — the multiplier and every linear map's XOR trees — are
lowered by the one segment compiler, :class:`LevelSegments`.  This module
also holds the substrate's one numpy gate: numpy is optional, and every
entry point raises a clear ``ImportError`` only when plane evaluation is
requested.

Compiled :class:`PlaneProgram` s are memoized process-wide (keyed by the
map's basis images), mirroring the multiplier cache, so repeated field or
curve constructions never re-lower a linear map.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..engine.bitpack import pack_rows, unpack_planes
from ..engine.compiler import _levelize
from ..netlist.netlist import OP_AND, OP_XOR, Netlist
from ..pipeline.store import LRUCache
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .ir import K_LINEAR, K_MUL, FieldProgram, lane_words_for, pack_lane_bits

try:  # pragma: no cover - exercised via monkeypatching in the tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2LinearMap, GF2mField
    from .bitslice import BitslicedNetlist

__all__ = [
    "LevelSegments",
    "PlaneProgram",
    "PlaneIRExecutor",
    "CompiledPlaneIR",
    "numpy_available",
    "plane_program",
]


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable."""
    return _np is not None


def _require_numpy():
    if _np is None:
        raise ImportError(
            "the bitslice backend needs numpy, which is not installed; "
            "run 'pip install numpy' (or install the gf2m-repro[bitslice] extra), "
            "or select the 'engine' or 'python' backend instead"
        )
    return _np


def _planes_to_array(planes: Sequence[int], lane_words: int):
    """Big-integer planes → a ``(len(planes), lane_words)`` uint64 array."""
    lane_bytes = lane_words * 8
    buffer = b"".join(plane.to_bytes(lane_bytes, "little") for plane in planes)
    return _np.frombuffer(buffer, dtype="<u8").reshape(len(planes), lane_words)


def _array_to_planes(array) -> List[int]:
    """The inverse of :func:`_planes_to_array` (rows back to big integers)."""
    return [int.from_bytes(_np.ascontiguousarray(row).tobytes(), "little") for row in array]


class _LaneBufferCache:
    """Thread-local per-lane-width buffer pool, bounded to four widths.

    Compiled evaluators are cached process-wide and used from multiple
    threads, so each thread gets its own buffers, keyed by lane width and
    evicted wholesale once odd tail widths would accumulate.
    """

    __slots__ = ("_factory", "_local")

    def __init__(self, factory) -> None:
        self._factory = factory
        self._local = threading.local()

    def get(self, lane_words: int):
        buffers = getattr(self._local, "buffers", None)
        if buffers is None:
            buffers = self._local.buffers = {}
        entry = buffers.get(lane_words)
        if entry is None:
            if len(buffers) >= 4:
                buffers.clear()
            entry = self._factory(lane_words)
            buffers[lane_words] = entry
        return entry


class LevelSegments:
    """A netlist compiled to level segments over one uint64 value array.

    The one segment compiler of the numpy substrate, shared by
    :class:`~repro.backends.bitslice.BitslicedNetlist` (the multiplier) and
    :class:`PlaneProgram` (GF(2)-linear maps).  Every node owns one row of a
    ``(row_count, lane_words)`` array.  Rows hold every declared input
    first, in ``netlist.inputs`` order (live or not, so callers may load
    input blocks as slices), then the other live nodes in
    ``(logic level, op, key)`` order, levels from
    :func:`repro.engine.compiler._levelize`.  Every same-op run of one level
    is then a contiguous row range — a *segment* — and :meth:`evaluate`
    runs it as two ``np.take`` fanin gathers into reused scratch plus one
    vectorized ``bitwise_and``/``bitwise_xor`` into the segment's slice.
    Evaluating gate-by-gate would drown in numpy dispatch overhead.

    Input ``i`` is row ``i``; :attr:`rows` maps every node id to its row.
    ``key`` orders the gates inside a segment (node id by default).
    :meth:`detach` hands a segment back to a caller that computes its rows
    itself.  Value buffers are zeroed once and thread-local per lane width;
    the constant row stays zero because only input and gate rows are ever
    written.
    """

    def __init__(self, netlist: Netlist, key=None) -> None:
        np = _require_numpy()
        level = _levelize(netlist)
        inputs = [netlist.input_node(name) for name in netlist.inputs]
        input_set = set(inputs)
        gates = sorted(
            (node for node in level if node not in input_set),
            key=lambda node: (
                level[node], netlist.op(node) == OP_AND, node if key is None else key(node)
            ),
        )
        ordered = inputs + gates
        rows = [-1] * netlist.node_count
        for row, node in enumerate(ordered):
            rows[node] = row
        #: Row of every node id (-1 for nodes outside the live cone).
        self.rows = np.asarray(rows, dtype=np.intp)
        self.row_count = len(ordered)
        self.level_count = (max(level.values()) + 1) if level else 0
        self.and_count = self.xor_count = 0
        segments: List[List] = []  # [start, end, fanin0 rows, fanin1 rows, op]
        current = None
        for row, node in enumerate(ordered):
            op = netlist.op(node)
            if op not in (OP_AND, OP_XOR):
                continue
            if op == OP_AND:
                self.and_count += 1
            else:
                self.xor_count += 1
            if (level[node], op) != current:
                current = (level[node], op)
                ufunc = np.bitwise_and if op == OP_AND else np.bitwise_xor
                segments.append([row, row, [], [], ufunc])
            fanin0, fanin1 = netlist.fanins(node)
            segments[-1][1] = row + 1
            segments[-1][2].append(rows[fanin0])
            segments[-1][3].append(rows[fanin1])
        self.segments = [
            (start, end, np.asarray(f0, dtype=np.intp), np.asarray(f1, dtype=np.intp), ufunc)
            for start, end, f0, f1, ufunc in segments
        ]
        # Gather scratch lets segments run through np.take(..., out=...):
        # measurably faster than fancy indexing and allocation-free.
        self._buffers = _LaneBufferCache(self._allocate)

    def detach(self, start: int, end: int) -> bool:
        """Drop the segment spanning rows ``[start, end)``, if there is one.

        :meth:`evaluate` then leaves those rows to the caller, who must
        fill them from input rows only (they sit at level 1).
        """
        for index, segment in enumerate(self.segments):
            if segment[0] == start and segment[1] == end:
                del self.segments[index]
                return True
        return False

    def _allocate(self, lane_words: int):
        widest = max((end - start for start, end, *_ in self.segments), default=0)
        return (
            _np.zeros((self.row_count, lane_words), dtype=_np.uint64),
            _np.empty((widest, lane_words), dtype=_np.uint64),
            _np.empty((widest, lane_words), dtype=_np.uint64),
        )

    def buffer(self, lane_words: int):
        """This thread's value array for ``lane_words``-wide rows (reused)."""
        return self._buffers.get(lane_words)[0]

    def evaluate(self, values) -> None:
        """Run every segment in place over a :meth:`buffer` with inputs loaded."""
        np = _np
        _, gather0, gather1 = self._buffers.get(values.shape[1])
        for start, end, fanin0, fanin1, ufunc in self.segments:
            count = end - start
            np.take(values, fanin0, axis=0, out=gather0[:count], mode="clip")
            np.take(values, fanin1, axis=0, out=gather1[:count], mode="clip")
            ufunc(gather0[:count], gather1[:count], out=values[start:end])


class PlaneProgram:
    """A GF(2)-linear map compiled to level-segmented plane gather/XOR passes.

    The map sends basis vector ``y^i`` to ``masks[i]``; on plane arrays that
    means output row ``j`` is the XOR of every input row ``i`` whose mask has
    bit ``j`` set.  Each output becomes a balanced XOR tree in a
    :class:`~repro.netlist.netlist.Netlist` (structural hashing shares
    common subtrees), lowered by :class:`LevelSegments`.  Outputs that copy
    a single input row or are identically zero cost nothing beyond the
    final output gather.
    """

    def __init__(self, masks: Sequence[int], out_bits: Optional[int] = None) -> None:
        self.input_bits = len(masks)
        self.out_bits = self.input_bits if out_bits is None else out_bits
        if any(mask >> self.out_bits for mask in masks):
            raise ValueError(f"a basis image exceeds the {self.out_bits}-bit output space")
        netlist = Netlist(name="plane-program")
        inputs = [netlist.add_input(f"x{i}") for i in range(self.input_bits)]
        for j in range(self.out_bits):
            terms = [node for node, mask in zip(inputs, masks) if (mask >> j) & 1]
            netlist.add_output(f"y{j}", netlist.xor_reduce(terms))
        self._segments = LevelSegments(netlist)
        self._output_rows = self._segments.rows[[node for _, node in netlist.outputs]]
        self.xor_count = self._segments.xor_count

    def apply(self, planes):
        """Apply the map to an ``(input_bits, lane_words)`` plane array.

        Returns a fresh ``(out_bits, lane_words)`` array (the final output
        gather never aliases the reused work buffer).
        """
        if planes.shape[0] != self.input_bits:
            raise ValueError(
                f"expected {self.input_bits} input planes, got {planes.shape[0]}"
            )
        return self.apply_parts((planes,))

    def apply_parts(self, parts: Sequence) -> "object":
        """:meth:`apply` over an input space given as stacked row blocks.

        The fused-IR executor keeps each register as its own ``(m,
        lane_words)`` array; a multi-input program writes the blocks
        straight into consecutive input rows of the work buffer, so no
        concatenated temporary is ever allocated on the hot path.  The
        blocks' row counts must sum to :attr:`input_bits`.
        """
        work = self._segments.buffer(parts[0].shape[1])
        offset = 0
        for part in parts:
            rows = part.shape[0]
            work[offset:offset + rows] = part
            offset += rows
        if offset != self.input_bits:
            raise ValueError(f"expected {self.input_bits} input planes, got {offset}")
        self._segments.evaluate(work)
        return work[self._output_rows]

    def describe(self) -> str:
        """One-line structural summary."""
        return (
            f"plane program {self.input_bits}->{self.out_bits} bits: "
            f"{self.xor_count} XOR in {len(self._segments.segments)} levels"
        )


#: Compiled plane programs keyed by the map's basis images — repeated field
#: or curve constructions for the same modulus share one lowering.
_PROGRAM_CACHE = LRUCache(maxsize=64, name="planes.programs")


def plane_program(linear_map: "GF2LinearMap") -> PlaneProgram:
    """The memoized :class:`PlaneProgram` lowering of a ``GF2LinearMap``."""
    key = (linear_map.input_bits, linear_map.masks)
    return _PROGRAM_CACHE.get_or_create(key, lambda: PlaneProgram(linear_map.masks))


def _fused_plane_program(masks: Sequence[int], out_bits: int) -> PlaneProgram:
    """Memoized lowering of a fused LinearPass (multi-input, multi-output)."""
    key = (len(masks), tuple(masks), out_bits)
    return _PROGRAM_CACHE.get_or_create(key, lambda: PlaneProgram(masks, out_bits=out_bits))


class CompiledPlaneIR:
    """One :class:`~repro.backends.ir.FieldProgram` lowered to plane passes.

    Built by :meth:`PlaneIRExecutor.compile`; holds the per-pass plane
    lowering so executing a step costs only the numpy work:

    * a ``MulPass`` lane-stacks all its products into **one**
      :meth:`~repro.backends.bitslice.BitslicedNetlist.multiply_planes`
      evaluation over the lane-concatenated operand arrays;
    * a ``LinearPass`` becomes **one** multi-input multi-output
      :class:`PlaneProgram` (its fused basis-image masks over the stacked
      register space), applied without concatenation via
      :meth:`PlaneProgram.apply_parts`;
    * a ``SelectPass`` applies each broadcast lane mask with three
      bitwise ops per swapped register, the inverted mask computed once.

    ``run_arrays`` is the only entry point: plain arrays in declared
    input order, driven by :func:`~repro.backends.ir.run_chunked`.
    """

    def __init__(self, executor: "PlaneIRExecutor", program: FieldProgram) -> None:
        np = _require_numpy()
        self.executor = executor
        self.program = program
        self.m = program.m
        ir = program.ir
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self._input_vids = [vid for _, vid in ir.inputs]
        self._output_vids = [vid for _, vid in ir.outputs]
        lowered: List[tuple] = []
        labels: List[str] = []
        for pass_index, item in enumerate(program.passes):
            if item.kind == K_MUL:
                lowered.append((K_MUL, tuple(item.pairs)))
            elif item.kind == K_LINEAR:
                fused = _fused_plane_program(
                    item.fused_masks(self.m), len(item.outputs) * self.m
                )
                lowered.append((K_LINEAR, tuple(item.inputs), tuple(item.outputs), fused))
            else:
                lowered.append(("select", tuple(item.triples)))
            labels.append(f"ir.pass.{pass_index:02d}.{lowered[-1][0]}")
        self._passes = lowered
        # Span names are built once here so the traced hot loop never
        # formats strings; with the NullTracer installed each pass costs
        # one no-op context manager next to its numpy work.
        self._pass_labels = labels
        self._np = np

    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List:
        """Execute over ``(m, lane_words)`` arrays in declared input order.

        ``mask_arrays`` are broadcast lane-word masks (one per declared
        mask input, as built by :meth:`PlaneIRExecutor.broadcast_bits`).
        Returns fresh output arrays in declared output order — the caller
        may feed them back in as the next step's inputs.
        """
        np = self._np
        sliced = self.executor.sliced
        m = self.m
        regs: Dict[int, object] = dict(zip(self._input_vids, input_arrays))
        masks: Dict[str, object] = dict(zip(self.mask_names, mask_arrays))
        if self.program.consts:
            lane_words = input_arrays[0].shape[1]
            live = self.executor._live_lane_words(lane_words)
            for vid, value in self.program.consts:
                const = np.zeros((m, lane_words), dtype=np.uint64)
                for i in range(m):
                    if (value >> i) & 1:
                        const[i] = live
                regs[vid] = const
        inverted: Dict[str, object] = {}
        tracer = _trace.TRACER
        for label, lowering in zip(self._pass_labels, self._passes):
            with tracer.span(label):
                if lowering[0] == K_MUL:
                    pairs = lowering[1]
                    if len(pairs) == 1:
                        a, b, out = pairs[0]
                        regs[out] = sliced.multiply_planes(regs[a], regs[b])
                        continue
                    stacked = sliced.multiply_planes(
                        np.concatenate([regs[a] for a, _, _ in pairs], axis=1),
                        np.concatenate([regs[b] for _, b, _ in pairs], axis=1),
                    )
                    width = stacked.shape[1] // len(pairs)
                    for index, (_, _, out) in enumerate(pairs):
                        regs[out] = stacked[:, index * width:(index + 1) * width]
                elif lowering[0] == K_LINEAR:
                    _, in_vids, out_vids, fused = lowering
                    result = fused.apply_parts([regs[vid] for vid in in_vids])
                    for position, vid in enumerate(out_vids):
                        regs[vid] = result[position * m:(position + 1) * m]
                else:
                    for mask_name, set_vid, clear_vid, out in lowering[1]:
                        mask = masks[mask_name]
                        inv = inverted.get(mask_name)
                        if inv is None:
                            inv = inverted[mask_name] = np.bitwise_not(mask)
                        regs[out] = np.bitwise_or(
                            np.bitwise_and(regs[set_vid], mask),
                            np.bitwise_and(regs[clear_vid], inv),
                        )
        return [regs[vid] for vid in self._output_vids]

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} on {self.executor.sliced.describe()}"


class PlaneIRExecutor:
    """The plane-resident *IR executor* capability of a bitsliced backend.

    A consumer expresses its whole formula as a :class:`~repro.backends.ir.FieldIR`, schedules it once
    (:func:`~repro.backends.ir.schedule_program`), and hands it to the
    shared driver (:func:`~repro.backends.ir.run_chunked`), which calls
    :meth:`compile` and runs the returned :class:`CompiledPlaneIR` per
    step.  Only the batch boundary stays explicit: :meth:`pack` /
    :meth:`unpack` for values, :meth:`broadcast_bits` for per-lane control
    masks.

    Compiled lowerings are memoized per executor, keyed by the program's
    fingerprint (``FieldProgram.key``), so repeated ladder calls never
    re-lower.
    """

    def __init__(self, field: "GF2mField", sliced: "BitslicedNetlist") -> None:
        _require_numpy()
        self.field = field
        self.sliced = sliced
        self.m = sliced.m
        self._compiled: dict = {}
        self._live_masks: dict = {}

    @property
    def chunk_size(self) -> int:
        """Preferred batch lanes per execution (the netlist's chunk size)."""
        return self.sliced.chunk_size

    # ------------------------------------------------------------- boundary
    def pack(self, values: Sequence[int]):
        """Pack field elements into an ``(m, lane_words)`` plane array (once).

        Bit ``p`` of row ``i`` is coordinate ``a_i`` of element ``p``; lane
        bits at positions ``len(values)`` and above stay zero.
        """
        mask = (1 << self.m) - 1
        planes = pack_rows([value & mask for value in values], self.m)
        return _planes_to_array(planes, lane_words_for(len(values)))

    def unpack(self, array, lanes: int) -> List[int]:
        """The first ``lanes`` field elements of a plane array (once)."""
        return unpack_planes(_array_to_planes(array), self.m, lanes)

    def broadcast_bits(self, bits: Sequence[int]):
        """Pack one control bit per lane into a broadcastable lane-word mask.

        Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.
        The returned ``(lane_words,)`` array broadcasts over the ``m`` rows
        of a plane array, driving a whole select pass with one mask.
        """
        return _np.frombuffer(pack_lane_bits(bits), dtype="<u8")

    def _live_lane_words(self, lane_words: int):
        """An all-live lane mask of ``lane_words`` words (consts prologue)."""
        mask = self._live_masks.get(lane_words)
        if mask is None:
            full = (1 << (lane_words * 64)) - 1
            mask = _np.frombuffer(full.to_bytes(lane_words * 8, "little"), dtype="<u8")
            self._live_masks[lane_words] = mask
        return mask

    # ------------------------------------------------------------- programs
    def compile(self, program: FieldProgram) -> CompiledPlaneIR:
        """The memoized plane lowering of a scheduled ``FieldProgram``."""
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        key = program.key if program.key is not None else id(program)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not program:
            with _trace.span(
                "ir.compile", backend="bitslice", program=program.ir.name
            ), _metrics.timed("ir.compile.bitslice"):
                entry = (program, CompiledPlaneIR(self, program))
            self._compiled[key] = entry
        return entry[1]

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR plane executor on {self.sliced.describe()}"
