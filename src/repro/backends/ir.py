"""FieldIR: one straight-line formula compiler for batched GF(2^m) compute.

A curve formula (the entire López-Dahab step, the y-recovery, the
curve-equation residual) is a short straight-line program over batched
field ops.  This module is its **IR**: the formula is expressed *once*,
scheduled *once* into fused passes, and handed to the backend's executor:

* :class:`IRBuilder` traces a formula into a :class:`FieldIR` — SSA ops
  ``mul`` / ``square`` / ``apply_linear`` / ``xor`` / ``select`` /
  ``const`` over named inputs and per-lane select masks.  Linear maps are
  referenced **by name** so the same traced formula serves every field and
  curve; concrete :class:`~repro.galois.field.GF2LinearMap` s bind later.
* :func:`schedule_program` is the level-scheduling **fusion pass**: it
  collapses fan-out-1 linear chains into composed maps
  (:meth:`GF2LinearMap.compose` — ``square∘square`` becomes one quartic
  map, ``mul_b∘square∘square`` one dense map), hoists constants into a
  prologue, and packs the ops into the fewest alternating passes — every
  :class:`MulPass` lane-stacks all its independent products into **one**
  netlist evaluation, every :class:`LinearPass` merges all its linear/XOR
  work into **one** gather/XOR schedule, every :class:`SelectPass` applies
  one broadcast lane mask to all its register swaps.
* The scheduled :class:`FieldProgram` is backend-neutral.  Every backend
  runs it through one executor, returned by
  :meth:`~repro.backends.base.FieldBackend.ir_executor`: bitslice lowers
  it into fused uint64 plane passes
  (:class:`~repro.backends.planes.PlaneIRExecutor`), native into one C
  instruction stream (:class:`~repro.backends.native.NativeIRExecutor`),
  and the python/engine backends get :class:`InterpretingIRExecutor`,
  which runs :func:`execute_program` over the backend's batch ops
  (gathering each MulPass into a single ``multiply_batch`` call).  All
  three share one surface: ``pack`` / ``unpack(array, lanes)`` /
  ``broadcast_bits`` / ``compile`` / ``chunk_size`` / ``describe``, with
  ``pack`` returning exactly what ``compile(program).run_arrays`` takes.
  :func:`execute_program` is also the reference the parity harness
  compares the compiled executors against.
* :func:`run_chunked` is the one driver over that surface — the batch
  loop of the binary, τ-adic and comb ladders (pack once per chunk, one
  ``run_arrays`` per step, unpack once) — and :func:`run_program` its
  one-shot form for straight-line formulas.

Scheduled programs are memoized process-wide by their ``key`` (see
:func:`cached_program`), mirroring the multiplier and netlist caches, so
repeated curve or backend constructions never re-schedule a formula.
"""

from __future__ import annotations

import sys
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from ..pipeline.store import LRUCache
from ..telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..galois.field import GF2LinearMap

__all__ = [
    "Var",
    "FieldIR",
    "IRBuilder",
    "MulPass",
    "LinearPass",
    "SelectPass",
    "FieldProgram",
    "schedule_program",
    "cached_program",
    "execute_program",
    "InterpretingIRExecutor",
    "lane_words_for",
    "pack_lane_bits",
    "run_chunked",
    "run_program",
]

# Op kinds.  input/mask/const feed the program; mul is the only op that
# needs a full product circuit; linear covers square and every fixed-map
# multiplication; xor is field addition; select is the per-lane masked mux.
K_INPUT = "input"
K_MASK = "mask"
K_CONST = "const"
K_MUL = "mul"
K_LINEAR = "linear"
K_XOR = "xor"
K_SELECT = "select"

#: Op kinds a LinearPass can absorb (and chain within one pass).
_LINEAR_KINDS = (K_LINEAR, K_XOR)


class Var:
    """An opaque SSA value handle returned by :class:`IRBuilder` ops.

    Deliberately *not* an int so formula code cannot accidentally mix
    field values, mask values and Python integers.
    """

    __slots__ = ("vid", "ir_id")

    def __init__(self, vid: int, ir_id: int) -> None:
        self.vid = vid
        self.ir_id = ir_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Var({self.vid})"


class FieldIR:
    """A traced straight-line formula: SSA ops over named inputs and masks.

    Immutable once built (:meth:`IRBuilder.build`).  ``ops[vid]`` is a
    tuple ``(kind, *args)`` where args are operand vids, a linear-map name,
    or a constant value; ``inputs`` / ``mask_inputs`` give the declared
    order; ``outputs`` name the result vids.
    """

    def __init__(
        self,
        name: str,
        ops: Sequence[tuple],
        inputs: Sequence[Tuple[str, int]],
        mask_inputs: Sequence[Tuple[str, int]],
        outputs: Sequence[Tuple[str, int]],
    ) -> None:
        self.name = name
        self.ops = tuple(ops)
        self.inputs = tuple(inputs)
        self.mask_inputs = tuple(mask_inputs)
        self.outputs = tuple(outputs)

    @property
    def linear_names(self) -> Tuple[str, ...]:
        """The distinct linear-map names the formula references, in order."""
        seen: List[str] = []
        for op in self.ops:
            if op[0] == K_LINEAR and op[1] not in seen:
                seen.append(op[1])
        return tuple(seen)

    def op_counts(self) -> Dict[str, int]:
        """Ops per kind (inputs/masks excluded) — the raw formula size."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            if op[0] in (K_INPUT, K_MASK):
                continue
            counts[op[0]] = counts.get(op[0], 0) + 1
        return counts

    def describe(self) -> str:
        """One-line structural summary of the traced (unscheduled) formula."""
        counts = self.op_counts()
        body = ", ".join(f"{counts[kind]} {kind}" for kind in sorted(counts))
        return (
            f"FieldIR {self.name}: {len(self.inputs)} inputs, "
            f"{len(self.mask_inputs)} masks -> {len(self.outputs)} outputs; {body}"
        )


class IRBuilder:
    """Traces a formula into a :class:`FieldIR` one SSA op at a time.

    Usage::

        b = IRBuilder("example")
        x, y = b.input("x"), b.input("y")
        bit = b.mask_input("bit")
        b.output("r", b.select(bit, b.mul(x, y), b.square(b.xor(x, y))))
        ir = b.build()

    Linear maps are referenced by *name* (``b.square`` uses the reserved
    name ``"square"``); :func:`schedule_program` binds the names to
    concrete :class:`~repro.galois.field.GF2LinearMap` s, so one trace
    serves every field.
    """

    _next_ir_id = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self._ops: List[tuple] = []
        self._inputs: List[Tuple[str, int]] = []
        self._masks: List[Tuple[str, int]] = []
        self._outputs: List[Tuple[str, int]] = []
        self._built = False
        IRBuilder._next_ir_id += 1
        self._ir_id = IRBuilder._next_ir_id

    # ----------------------------------------------------------------- plumbing
    def _emit(self, op: tuple) -> Var:
        if self._built:
            raise RuntimeError(f"IRBuilder {self.name!r} is already built")
        self._ops.append(op)
        return Var(len(self._ops) - 1, self._ir_id)

    def _vid(self, var: Var, *, mask: bool = False) -> int:
        if not isinstance(var, Var):
            raise TypeError(f"expected a Var from this builder, got {type(var).__name__}")
        if var.ir_id != self._ir_id:
            raise ValueError("a Var from a different IRBuilder cannot be used here")
        kind = self._ops[var.vid][0]
        if mask != (kind == K_MASK):
            expected = "a mask input" if mask else "a field value"
            raise TypeError(f"expected {expected}, got a {kind} op")
        return var.vid

    # ---------------------------------------------------------------------- ops
    def input(self, name: str) -> Var:
        """Declare a named batch input (one field element per lane)."""
        if any(existing == name for existing, _ in self._inputs):
            raise ValueError(f"duplicate input name {name!r}")
        var = self._emit((K_INPUT, name))
        self._inputs.append((name, var.vid))
        return var

    def mask_input(self, name: str) -> Var:
        """Declare a named per-lane select-control input (one bit per lane)."""
        if any(existing == name for existing, _ in self._masks):
            raise ValueError(f"duplicate mask name {name!r}")
        var = self._emit((K_MASK, name))
        self._masks.append((name, var.vid))
        return var

    def const(self, value: int) -> Var:
        """A constant field element broadcast to every live lane."""
        if value < 0:
            raise ValueError("field constants are non-negative integers")
        return self._emit((K_CONST, value))

    def mul(self, a: Var, b: Var) -> Var:
        """Full field product (the only op that needs a multiplier circuit)."""
        return self._emit((K_MUL, self._vid(a), self._vid(b)))

    def apply_linear(self, map_name: str, x: Var) -> Var:
        """Apply the named GF(2)-linear map (bound at schedule time)."""
        if not map_name:
            raise ValueError("linear maps need a non-empty name")
        return self._emit((K_LINEAR, map_name, self._vid(x)))

    def square(self, x: Var) -> Var:
        """Field squaring — sugar for ``apply_linear("square", x)``."""
        return self.apply_linear("square", x)

    def xor(self, first: Var, *rest: Var) -> Var:
        """Field addition; ``xor(a, b, c, ...)`` folds left."""
        result = first
        for other in rest:
            result = self._emit((K_XOR, self._vid(result), self._vid(other)))
        if not rest:
            raise TypeError("xor needs at least two operands")
        return result

    def select(self, mask: Var, when_set: Var, when_clear: Var) -> Var:
        """Per-lane mux: ``when_set`` where the mask bit is 1, else ``when_clear``."""
        return self._emit(
            (K_SELECT, self._vid(mask, mask=True), self._vid(when_set), self._vid(when_clear))
        )

    def output(self, name: str, var: Var) -> None:
        """Name a result of the formula."""
        if any(existing == name for existing, _ in self._outputs):
            raise ValueError(f"duplicate output name {name!r}")
        self._outputs.append((name, self._vid(var)))

    def build(self) -> FieldIR:
        """Freeze the trace into a :class:`FieldIR` (at least one output)."""
        if not self._outputs:
            raise ValueError(f"formula {self.name!r} declares no outputs")
        self._built = True
        return FieldIR(self.name, self._ops, self._inputs, self._masks, self._outputs)


# --------------------------------------------------------------------- passes
class MulPass:
    """One lane-stackable batch of independent full products.

    The plane executor evaluates all pairs with a single netlist pass over
    the lane-concatenated operand planes; the batch interpreter gathers
    them into a single ``multiply_batch`` call.
    """

    kind = K_MUL
    __slots__ = ("pairs",)

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, int, int]] = []  # (a_vid, b_vid, out_vid)


class LinearPass:
    """All linear/XOR work between two barrier passes, fused into one stage.

    ``ops`` keep the (chain-collapsed) op list for the batch interpreter;
    the plane executor instead calls :meth:`fused_masks` once to merge the
    whole stage into a single multi-input multi-output gather/XOR program.
    ``inputs`` are the external registers the stage reads, ``outputs`` the
    values consumed outside the stage — intra-stage temporaries never
    materialize on the plane path.
    """

    kind = K_LINEAR
    __slots__ = ("ops", "inputs", "outputs")

    def __init__(self) -> None:
        # (out_vid, K_XOR, a_vid, b_vid) or (out_vid, K_LINEAR, map_obj, x_vid)
        self.ops: List[tuple] = []
        self.inputs: List[int] = []
        self.outputs: List[int] = []

    def fused_masks(self, m: int) -> List[int]:
        """The whole stage as basis-image masks over the stacked input space.

        Input bit ``p*m + j`` is coordinate ``j`` of ``inputs[p]``; output
        bit ``q*m + j`` is coordinate ``j`` of ``outputs[q]``.  Computed by
        symbolic GF(2) propagation through the op list, so chains of maps
        and XORs collapse into one level-scheduled gather/XOR program
        (:class:`~repro.backends.planes.PlaneProgram` consumes exactly this
        mask form).
        """
        # rep[vid][j] = XOR-set of stacked input bits equal to coordinate j.
        rep: Dict[int, List[int]] = {}
        for position, vid in enumerate(self.inputs):
            base = position * m
            rep[vid] = [1 << (base + j) for j in range(m)]
        for op in self.ops:
            if op[1] == K_XOR:
                _, _, a, b = op
                rep[op[0]] = [x ^ y for x, y in zip(rep[a], rep[b])]
            else:
                _, _, linear_map, x = op
                source = rep[x]
                out = [0] * m
                for i, image in enumerate(linear_map.masks):
                    if not image:
                        continue
                    source_i = source[i]
                    while image:
                        low = image & -image
                        out[low.bit_length() - 1] ^= source_i
                        image ^= low
                rep[op[0]] = out
        masks = [0] * (len(self.inputs) * m)
        for position, vid in enumerate(self.outputs):
            base = position * m
            for j, bits in enumerate(rep[vid]):
                target = 1 << (base + j)
                while bits:
                    low = bits & -bits
                    masks[low.bit_length() - 1] |= target
                    bits ^= low
        return masks


class SelectPass:
    """All register swaps driven by broadcast lane masks at one level."""

    kind = K_SELECT
    __slots__ = ("triples",)

    def __init__(self) -> None:
        # (mask_name, set_vid, clear_vid, out_vid)
        self.triples: List[Tuple[str, int, int, int]] = []


class FieldProgram:
    """A :class:`FieldIR` scheduled into fused passes and bound to maps.

    Produced by :func:`schedule_program`; consumed by the batch interpreter
    (:func:`execute_program`) and by plane executors
    (:meth:`~repro.backends.base.FieldBackend.ir_executor`).  ``key`` is
    the process-wide memoization identity (curve/field fingerprint chosen
    by the caller); executors additionally key their lowerings by it.
    """

    def __init__(
        self,
        ir: FieldIR,
        m: int,
        passes: Sequence[object],
        consts: Sequence[Tuple[int, int]],
        key: Optional[tuple],
    ) -> None:
        self.ir = ir
        self.m = m
        self.passes = tuple(passes)
        self.consts = tuple(consts)  # (vid, value) prologue registers
        self.key = key
        self.op_count = len(ir.ops)

    # ------------------------------------------------------------ introspection
    def pass_counts(self) -> Dict[str, int]:
        """Fused passes per kind — the dispatch-level cost of one execution."""
        counts: Dict[str, int] = {}
        for item in self.passes:
            counts[item.kind] = counts.get(item.kind, 0) + 1
        return counts

    def mul_pass_widths(self) -> List[int]:
        """Lane-stacked products per MulPass, in schedule order."""
        return [len(item.pairs) for item in self.passes if item.kind == K_MUL]

    def describe(self) -> str:
        """Structural summary: op counts, fused-pass schedule, stage shapes.

        The introspection surface the CLI exposes (``repro bench
        --describe``).
        """
        counts = self.ir.op_counts()
        ops = ", ".join(f"{counts[kind]} {kind}" for kind in sorted(counts))
        stages = []
        for item in self.passes:
            if item.kind == K_MUL:
                stages.append(f"mul x{len(item.pairs)}")
            elif item.kind == K_LINEAR:
                stages.append(f"linear {len(item.inputs)}->{len(item.outputs)}")
            else:
                stages.append(f"select x{len(item.triples)}")
        return (
            f"FieldIR program {self.ir.name} (m={self.m}): {ops}; "
            f"{len(self.passes)} fused passes [{', '.join(stages)}]"
        )


def schedule_program(
    ir: FieldIR,
    m: int,
    linear_maps: Mapping[str, "GF2LinearMap"],
    *,
    key: Optional[tuple] = None,
) -> FieldProgram:
    """The level-scheduling fusion pass: trace -> :class:`FieldProgram`.

    Three rewrites happen here, all exact (GF(2^m) arithmetic has no
    rounding, so any correct schedule is byte-identical to the trace):

    1. **chain collapsing** — a linear op whose only consumer-feeding
       operand is another fan-out-1 linear op composes into a single
       :class:`~repro.galois.field.GF2LinearMap`
       (``square∘square``, ``mul_b∘square∘square``), halving both table
       applications on the interpreter path and symbolic work on the plane
       path;
    2. **const hoisting** — ``const`` ops become prologue registers,
       materialized once per execution;
    3. **ASAP pass packing** — each remaining op joins the earliest
       compatible pass that all its operands strictly precede (linear ops
       may *chain within* one LinearPass; mul and select are barriers), so
       independent multiplies lane-stack and all inter-multiply linear
       work fuses into one stage.
    """
    for name in ir.linear_names:
        if name not in linear_maps:
            raise KeyError(f"formula {ir.name!r} needs a linear map named {name!r}")
        if linear_maps[name].input_bits != m:
            raise ValueError(
                f"linear map {name!r} acts on {linear_maps[name].input_bits} bits, "
                f"but the program is scheduled for m={m}"
            )

    ops = list(ir.ops)
    fanout = [0] * len(ops)
    for op in ops:
        if op[0] in (K_MUL, K_XOR):
            fanout[op[1]] += 1
            fanout[op[2]] += 1
        elif op[0] == K_LINEAR:
            fanout[op[2]] += 1
        elif op[0] == K_SELECT:
            fanout[op[2]] += 1
            fanout[op[3]] += 1
    for _, vid in ir.outputs:
        fanout[vid] += 1

    # Chain collapsing: resolve every linear op to (map_obj, source_vid),
    # composing through fan-out-1 linear predecessors.  A predecessor that
    # gets composed through is dead afterwards — its single consumer reads
    # the composed map directly — so it drops out of the schedule entirely.
    resolved: Dict[int, Tuple["GF2LinearMap", int]] = {}
    collapsed: set = set()
    for vid, op in enumerate(ops):
        if op[0] != K_LINEAR:
            continue
        outer = linear_maps[op[1]]
        source = op[2]
        while ops[source][0] == K_LINEAR and fanout[source] == 1:
            inner_map, inner_source = resolved[source]
            outer = outer.compose(inner_map)
            collapsed.add(source)
            source = inner_source
        resolved[vid] = (outer, source)

    mask_name = {vid: name for name, vid in ir.mask_inputs}
    consts = [(vid, op[1]) for vid, op in enumerate(ops) if op[0] == K_CONST]

    passes: List[object] = []
    position: Dict[int, int] = {}  # producing pass index; inputs/consts = -1
    for _, vid in ir.inputs:
        position[vid] = -1
    for vid, _ in consts:
        position[vid] = -1

    def earliest_for(deps: Sequence[int], chainable: Sequence[int] = ()) -> int:
        earliest = 0
        for dep in deps:
            earliest = max(earliest, position[dep] + 1)
        for dep in chainable:
            earliest = max(earliest, position[dep])
        return earliest

    def place(kind: str, earliest: int):
        for index in range(earliest, len(passes)):
            if passes[index].kind == kind:
                return index, passes[index]
        if kind == K_MUL:
            passes.append(MulPass())
        elif kind == K_LINEAR:
            passes.append(LinearPass())
        else:
            passes.append(SelectPass())
        return len(passes) - 1, passes[-1]

    for vid, op in enumerate(ops):
        kind = op[0]
        if kind in (K_INPUT, K_MASK, K_CONST) or vid in collapsed:
            continue
        if kind == K_MUL:
            index, target = place(K_MUL, earliest_for(op[1:3]))
            target.pairs.append((op[1], op[2], vid))
        elif kind == K_SELECT:
            index, target = place(K_SELECT, earliest_for(op[2:4]))
            target.triples.append((mask_name[op[1]], op[2], op[3], vid))
        else:  # linear or xor: may chain onto same-pass linear producers
            if kind == K_LINEAR:
                linear_map, source = resolved[vid]
                deps = [source]
            else:
                deps = [op[1], op[2]]
            hard, soft = [], []
            for dep in deps:
                producer = passes[position[dep]] if position[dep] >= 0 else None
                (soft if isinstance(producer, LinearPass) else hard).append(dep)
            index, target = place(K_LINEAR, earliest_for(hard, soft))
            if kind == K_LINEAR:
                target.ops.append((vid, K_LINEAR, linear_map, source))
            else:
                target.ops.append((vid, K_XOR, op[1], op[2]))
        position[vid] = index

    # External reads of each LinearPass: inputs from outside, outputs read
    # outside (or named program outputs).
    output_vids = {vid for _, vid in ir.outputs}
    for index, item in enumerate(passes):
        if not isinstance(item, LinearPass):
            continue
        produced = {op[0] for op in item.ops}
        reads: List[int] = []
        for op in item.ops:
            for dep in (op[2:] if op[1] == K_XOR else (op[3],)):
                if dep not in produced and dep not in reads:
                    reads.append(dep)
        item.inputs = reads
        consumed_later: set = set(output_vids)
        for later in passes[index + 1:]:
            if isinstance(later, MulPass):
                for a, b, _ in later.pairs:
                    consumed_later.update((a, b))
            elif isinstance(later, SelectPass):
                for _, set_vid, clear_vid, _ in later.triples:
                    consumed_later.update((set_vid, clear_vid))
            else:
                for op in later.ops:
                    consumed_later.update(op[2:] if op[1] == K_XOR else (op[3],))
        item.outputs = [vid for vid in produced if vid in consumed_later]
        item.outputs.sort(key=lambda vid: [op[0] for op in item.ops].index(vid))

    return FieldProgram(ir, m, passes, consts, key)


#: Scheduled programs keyed by caller-chosen fingerprints (curve, modulus,
#: constants) — repeated field/curve constructions share one fusion pass.
_PROGRAM_CACHE = LRUCache(maxsize=64, name="ir.programs")


def cached_program(key: tuple, factory) -> FieldProgram:
    """The memoized :class:`FieldProgram` for ``key`` (built by ``factory``).

    The process-wide analogue of :func:`repro.backends.bitslice
    .bitsliced_netlist`: formulas are scheduled once per (formula, field,
    constants) fingerprint and shared by every consumer.
    """
    return _PROGRAM_CACHE.get_or_create(key, factory)


# ---------------------------------------------------------------- interpreter
def execute_program(
    program: FieldProgram,
    backend,
    inputs: Mapping[str, Sequence[int]],
    masks: Optional[Mapping[str, Sequence[int]]] = None,
) -> Dict[str, List[int]]:
    """Run a scheduled program over plain ``int`` batches through a backend.

    The pass schedule is reused as the batching plan: each
    :class:`MulPass` gathers all its products into **one**
    ``backend.multiply_batch`` call (this is what the hand-written per-step
    ladder gather used to do, now derived from the formula), linear ops
    apply their (chain-collapsed) byte-table maps per element, and selects
    pick per lane from the 0/1 mask streams.  Works on *every* registered
    backend — :class:`InterpretingIRExecutor` wraps it for the python and
    engine backends, and the parity harness compares the compiled
    executors against it.
    """
    ir = program.ir
    values: List[Optional[List[int]]] = [None] * program.op_count
    lanes: Optional[int] = None
    for name, vid in ir.inputs:
        if name not in inputs:
            raise KeyError(f"program {ir.name!r} needs input {name!r}")
        stream = list(inputs[name])
        if lanes is None:
            lanes = len(stream)
        elif len(stream) != lanes:
            raise ValueError(
                f"input {name!r} has {len(stream)} lanes, expected {lanes}"
            )
        values[vid] = stream
    if lanes is None:
        raise ValueError(f"program {ir.name!r} has no inputs")
    mask_streams: Dict[str, Sequence[int]] = {}
    for name, _ in ir.mask_inputs:
        if masks is None or name not in masks:
            raise KeyError(f"program {ir.name!r} needs mask {name!r}")
        stream = masks[name]
        if len(stream) != lanes:
            raise ValueError(f"mask {name!r} has {len(stream)} lanes, expected {lanes}")
        mask_streams[name] = stream
    for vid, value in program.consts:
        values[vid] = [value] * lanes

    for item in program.passes:
        if item.kind == K_MUL:
            lhs: List[int] = []
            rhs: List[int] = []
            for a, b, _ in item.pairs:
                lhs.extend(values[a])
                rhs.extend(values[b])
            products = backend.multiply_batch(lhs, rhs)
            for index, (_, _, out) in enumerate(item.pairs):
                values[out] = products[index * lanes:(index + 1) * lanes]
        elif item.kind == K_LINEAR:
            for op in item.ops:
                if op[1] == K_XOR:
                    values[op[0]] = [x ^ y for x, y in zip(values[op[2]], values[op[3]])]
                else:
                    linear_map = op[2]
                    values[op[0]] = [linear_map(value) for value in values[op[3]]]
        else:
            for mask_name, set_vid, clear_vid, out in item.triples:
                bits = mask_streams[mask_name]
                values[out] = [
                    s if bit & 1 else c
                    for s, c, bit in zip(values[set_vid], values[clear_vid], bits)
                ]
    return {name: values[vid] for name, vid in ir.outputs}


class InterpretingIRExecutor:
    """The FieldIR executor of backends without a compiled lowering.

    Same surface as :class:`~repro.backends.planes.PlaneIRExecutor` and
    :class:`~repro.backends.native.NativeIRExecutor`, over plain ``int``
    lists: :meth:`pack` / :meth:`unpack` copy lists, :meth:`broadcast_bits`
    passes the bit list through, and ``compile(program).run_arrays`` calls
    :func:`execute_program` on the backend.  There is no lane buffer to
    bound, so a batch is one chunk.
    """

    chunk_size = sys.maxsize

    def __init__(self, backend) -> None:
        self.backend = backend
        self.m = backend.field.m

    def pack(self, values: Sequence[int]) -> List[int]:
        return list(values)

    def unpack(self, array: Sequence[int], lanes: int) -> List[int]:
        return list(array[:lanes])

    def broadcast_bits(self, bits: Sequence[int]) -> Sequence[int]:
        return bits

    def compile(self, program: FieldProgram) -> "InterpretedProgram":
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        return InterpretedProgram(self.backend, program)

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR interpreting executor on {self.backend.describe()}"


class InterpretedProgram:
    """A scheduled program bound to a backend for :func:`execute_program`."""

    def __init__(self, backend, program: FieldProgram) -> None:
        self.backend = backend
        self.program = program
        ir = program.ir
        self.input_names = [name for name, _ in ir.inputs]
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self.output_names = [name for name, _ in ir.outputs]

    def run_arrays(self, input_arrays: Sequence, mask_arrays: Sequence) -> List[List[int]]:
        """Execute over int lists in declared input / mask / output order."""
        outputs = execute_program(
            self.program,
            self.backend,
            dict(zip(self.input_names, input_arrays)),
            dict(zip(self.mask_names, mask_arrays)),
        )
        return [outputs[name] for name in self.output_names]

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} interpreted on {self.backend.describe()}"


# --------------------------------------------------------------------- driver
def lane_words_for(lanes: int) -> int:
    """uint64 words per lane stripe for a batch of ``lanes`` elements (min 1)."""
    return max(1, (lanes + 63) // 64)


def pack_lane_bits(bits: Sequence[int]) -> bytes:
    """One control bit per lane as little-endian ``lane_words_for`` words.

    Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.  The
    shared body of the compiled executors' ``broadcast_bits``.
    """
    packed = 0
    for position, bit in enumerate(bits):
        if bit & 1:
            packed |= 1 << position
    return packed.to_bytes(lane_words_for(len(bits)) * 8, "little")


def run_chunked(
    executor,
    state: Sequence[Sequence[int]],
    steps: Callable[[int, int], Iterable[Tuple[FieldProgram, Sequence, Sequence]]],
    *,
    constants: Sequence[Sequence[int]] = (),
    span: Optional[str] = None,
) -> List[List[int]]:
    """Drive a batch through a schedule of FieldIR steps on one executor.

    The one batch loop of every curve evaluator.  The batch is cut into
    chunks of ``executor.chunk_size`` lanes; per chunk the ``state`` and
    ``constants`` columns (equal-length int lists) are packed **once**,
    then ``steps(start, stop)`` yields one ``(program, columns, masks)``
    per step for the lanes ``[start, stop)`` and each runs as
    ``compiled.run_arrays(state + constants + packed columns, broadcast
    masks)`` — its outputs become the next state — and the final state is
    unpacked **once**.  ``columns`` are per-step gathered int lists and
    ``masks`` 0/1 bit lists, both one entry per chunk lane.  ``span``
    names the ``<span>.pack`` / ``.step`` / ``.unpack`` trace spans (none
    when ``None``).  Returns the final state columns over the whole batch.
    """
    lanes = len(state[0])
    if any(len(column) != lanes for column in (*state, *constants)):
        raise ValueError("state and constant columns differ in length")
    if not lanes:
        raise ValueError("a batch needs at least one lane")
    tracer = _trace.TRACER if span else _trace.NullTracer()
    pack_span, step_span, unpack_span = (f"{span}.{part}" for part in ("pack", "step", "unpack"))
    pack, broadcast = executor.pack, executor.broadcast_bits
    compiled: Dict[FieldProgram, object] = {}
    result: List[List[int]] = []
    for start in range(0, lanes, executor.chunk_size):
        stop = min(start + executor.chunk_size, lanes)
        width = stop - start
        with tracer.span(pack_span, lanes=width):
            arrays = [pack(column[start:stop]) for column in state]
            fixed = [pack(column[start:stop]) for column in constants]
        for program, columns, masks in steps(start, stop):
            for column in (*columns, *masks):
                if len(column) != width:
                    raise ValueError(f"a step column covers {len(column)} lanes of the {width}-lane chunk")
            with tracer.span(step_span):
                run = compiled.get(program)
                if run is None:
                    run = compiled[program] = executor.compile(program)
                arrays = run.run_arrays(
                    arrays + fixed + [pack(column) for column in columns],
                    [broadcast(bits) for bits in masks],
                )
        with tracer.span(unpack_span, lanes=width):
            unpacked = [executor.unpack(array, width) for array in arrays]
        if not result:
            result = unpacked
        else:
            for column, part in zip(result, unpacked):
                column += part
    return result


def run_program(
    executor,
    program: FieldProgram,
    inputs: Mapping[str, Sequence[int]],
    masks: Optional[Mapping[str, Sequence[int]]] = None,
) -> Dict[str, List[int]]:
    """One-shot execution of ``program`` over named int columns.

    :func:`run_chunked` with the inputs as the state and a single step;
    returns the outputs by name.
    """
    ir = program.ir
    columns = []
    for name, _ in ir.inputs:
        if name not in inputs:
            raise KeyError(f"program {ir.name!r} needs input {name!r}")
        columns.append(inputs[name])
    bits = []
    for name, _ in ir.mask_inputs:
        if masks is None or name not in masks:
            raise KeyError(f"program {ir.name!r} needs mask {name!r}")
        bits.append(masks[name])
    outputs = run_chunked(
        executor,
        columns,
        lambda start, stop: [(program, (), [mask[start:stop] for mask in bits])],
    )
    return {name: column for (name, _), column in zip(ir.outputs, outputs)}
