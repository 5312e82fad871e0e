"""The native word-level backend: C carry-less multiply + sparse reduction.

This package is the compiled tier ROADMAP item 2 calls for — the
word-level analogue of :mod:`repro.engine.bitpack`: field elements live as
little-endian ``uint64`` word arrays, products are 64x64 carry-less
multiplications (PCLMULQDQ when the CPU has it, a portable 4-bit window
otherwise) and the modulus tail folds the product back below degree ``m``
with one shifted XOR per term — exactly the sparse structure the paper's
type II pentanomials exploit.

Three layers:

* :mod:`._kernel.c` / :mod:`._build` — the C kernel, compiled through
  :mod:`cffi` at install time (``pip install .[native]``) or on first use
  into the shared artifact cache;
* :class:`NativeBackend` — the full :class:`~repro.backends.base.FieldBackend`
  surface over contiguous word buffers, one C call per batch;
* :class:`NativeIRExecutor` / :class:`CompiledNativeIR` — the
  :meth:`~repro.backends.base.FieldBackend.ir_executor` capability:
  a scheduled :class:`~repro.backends.ir.FieldProgram` lowers once to a
  flat instruction stream (mul / xor / linear-map / lane-masked select)
  that ``gf2m_run_program`` drives over a C register file, so the fused
  López-Dahab ladder step costs one Python call per scalar bit.

Everything degrades cleanly: without cffi or a C compiler the backend
raises a clear :class:`ImportError` and the registry default falls back to
the interpreted tiers (:func:`native_available` is the predicate).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ...telemetry import metrics as _metrics
from ...telemetry import trace as _trace
from ..base import FieldBackend, product_tree_inverse_batch
from ..ir import K_LINEAR, K_MUL, K_XOR, FieldProgram, lane_words_for, pack_lane_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...galois.field import GF2mField

__all__ = [
    "CompiledNativeIR",
    "NativeBackend",
    "NativeIRExecutor",
    "native_available",
]

#: Preferred lanes per compiled-program execution; bounds the C register
#: file (~1 MiB at GF(2^233)) while keeping per-step Python overhead small.
DEFAULT_CHUNK = 2048

_OP_MUL, _OP_XOR, _OP_LINEAR, _OP_SELECT = 1, 2, 3, 4

_EXT = None
_EXT_ERROR: Optional[ImportError] = None
_EXT_LOCK = threading.Lock()


def _load_extension():
    """The compiled kernel module (memoized), or a clear ImportError."""
    global _EXT, _EXT_ERROR
    if _EXT is not None:
        return _EXT
    if _EXT_ERROR is not None:
        raise _EXT_ERROR
    with _EXT_LOCK:
        if _EXT is None and _EXT_ERROR is None:
            try:
                from . import _build

                _EXT = _build.extension_module()
            except ImportError as error:
                _EXT_ERROR = ImportError(
                    f"the native backend is unavailable: {error}"
                )
        if _EXT is not None:
            return _EXT
        raise _EXT_ERROR


def native_available() -> bool:
    """True when the C extension is importable (or buildable) here."""
    try:
        _load_extension()
    except ImportError:
        return False
    return True


class NativeBackend(FieldBackend):
    """Word-level C arithmetic for one field through the cffi kernel."""

    name = "native"

    def __init__(
        self,
        field: "GF2mField",
        method: Optional[str] = None,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        if method is not None:
            raise ValueError(
                "the native backend evaluates no circuit: it computes "
                "word-level clmul+reduction directly, so method= applies "
                "only to the engine and bitslice backends"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        super().__init__(field)
        self.m = field.m
        self.chunk_size = chunk_size
        self._nw = max(1, (field.m + 63) // 64)
        if self._nw > 16:
            raise ValueError("the native kernel supports m <= 1024")
        self._ext = _load_extension()
        self._ffi = self._ext.ffi
        terms = [i for i in range(field.m) if (field.modulus >> i) & 1]
        self._terms = self._ffi.new("int32_t[]", terms)
        self._nterms = len(terms)
        self._mask = (1 << field.m) - 1
        self._executor: Optional[NativeIRExecutor] = None

    # ------------------------------------------------------------- boundary
    def _pack(self, values: Sequence[int]) -> bytes:
        nb = self._nw * 8
        mask = self._mask
        return b"".join((value & mask).to_bytes(nb, "little") for value in values)

    def _unpack(self, buf: bytearray, count: int) -> List[int]:
        nb = self._nw * 8
        return [
            int.from_bytes(buf[i * nb:(i + 1) * nb], "little") for i in range(count)
        ]

    # ------------------------------------------------------------- interface
    def multiply(self, a: int, b: int) -> int:
        return self.multiply_batch([a], [b])[0]

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        if len(a_values) != len(b_values):
            raise ValueError(
                f"operand streams differ in length: {len(a_values)} vs {len(b_values)}"
            )
        count = len(a_values)
        if not count:
            return []
        self._count_batch("multiply_batch", count)
        ffi = self._ffi
        out = bytearray(count * self._nw * 8)
        self._ext.lib.gf2m_mul_batch(
            ffi.from_buffer("uint64_t[]", self._pack(a_values)),
            ffi.from_buffer("uint64_t[]", self._pack(b_values)),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            count, self.m, self._nw, self._terms, self._nterms,
        )
        return self._unpack(out, count)

    def square_batch(self, values: Sequence[int]) -> List[int]:
        count = len(values)
        if not count:
            return []
        ffi = self._ffi
        out = bytearray(count * self._nw * 8)
        self._ext.lib.gf2m_square_batch(
            ffi.from_buffer("uint64_t[]", self._pack(values)),
            ffi.from_buffer("uint64_t[]", out, require_writable=True),
            count, self.m, self._nw, self._terms, self._nterms,
        )
        return self._unpack(out, count)

    inverse_batch = product_tree_inverse_batch

    # ------------------------------------------------------------- executor
    def ir_executor(self) -> "NativeIRExecutor":
        """The FieldIR native executor (compiled instruction streams)."""
        if self._executor is None:
            self._executor = NativeIRExecutor(self)
        return self._executor

    # ----------------------------------------------------------- introspection
    def describe(self) -> str:
        clmul = "PCLMULQDQ" if self._ext.lib.gf2m_has_clmul() else "portable clmul"
        return (
            f"native[C] GF(2^{self.m}): {self._nw}x64-bit words, {clmul}, "
            f"{self._nterms}-term reduction, {self.chunk_size} lanes/chunk"
        )


class CompiledNativeIR:
    """One :class:`~repro.backends.ir.FieldProgram` as a C instruction stream.

    Built by :meth:`NativeIRExecutor.compile`.  The lowering walks the
    scheduled passes once and emits flat ``[op, dst, x, y, z]`` int32
    instructions over a vid-indexed register file; every
    :class:`~repro.galois.field.GF2LinearMap` the program references is
    rebuilt as a flat per-byte table buffer the C side indexes directly.
    ``run_arrays`` then costs a handful of ``memmove`` s plus **one** C
    call, whatever the program size — the fused ladder step runs its five
    products, all linear chains and four selects without returning to
    Python.
    """

    def __init__(self, executor: "NativeIRExecutor", program: FieldProgram) -> None:
        backend = executor.backend
        ffi = backend._ffi
        self.executor = executor
        self.program = program
        self.m = program.m
        ir = program.ir
        self.mask_names = [name for name, _ in ir.mask_inputs]
        self._input_vids = [vid for _, vid in ir.inputs]
        self._output_vids = [vid for _, vid in ir.outputs]
        self._nreg = program.op_count

        code: List[int] = []
        map_index: Dict[tuple, int] = {}
        map_objects: List[object] = []
        # (label, first instruction, one-past-last) per scheduled pass: when a
        # tracer is live, run_arrays executes each range as its own C call so
        # the trace shows real per-fused-pass timings; disabled runs keep the
        # single whole-program call.
        pass_ranges: List[tuple] = []
        for pass_index, item in enumerate(program.passes):
            pass_start = len(code) // 5
            if item.kind == K_MUL:
                for a_vid, b_vid, out_vid in item.pairs:
                    code += [_OP_MUL, out_vid, a_vid, b_vid, 0]
            elif item.kind == K_LINEAR:
                for op in item.ops:
                    if op[1] == K_XOR:
                        code += [_OP_XOR, op[0], op[2], op[3], 0]
                    else:
                        linear_map = op[2]
                        key = (linear_map.input_bits, linear_map.masks)
                        index = map_index.get(key)
                        if index is None:
                            if linear_map.input_bits != self.m:
                                raise ValueError(
                                    f"linear map acts on {linear_map.input_bits} bits, "
                                    f"program is scheduled for m={self.m}"
                                )
                            index = map_index[key] = len(map_objects)
                            map_objects.append(linear_map)
                        code += [_OP_LINEAR, op[0], op[3], 0, index]
            else:
                for mask_name, set_vid, clear_vid, out_vid in item.triples:
                    code += [
                        _OP_SELECT, out_vid, set_vid, clear_vid,
                        self.mask_names.index(mask_name),
                    ]
            pass_ranges.append(
                (f"ir.pass.{pass_index:02d}.{item.kind}", pass_start, len(code) // 5)
            )
        self._pass_ranges = pass_ranges
        self._ninstr = len(code) // 5
        self._code = ffi.new("int32_t[]", code)

        nb = backend._nw * 8
        nbytes = (self.m + 7) // 8
        parts: List[bytes] = []
        for linear_map in map_objects:
            for tables in linear_map.tables:
                parts.extend(value.to_bytes(nb, "little") for value in tables)
            if len(linear_map.tables) != nbytes:
                raise ValueError(
                    f"linear map has {len(linear_map.tables)} byte tables, "
                    f"expected {nbytes}"
                )
        self._tables_buf = b"".join(parts) if parts else bytes(8)
        self._tables = ffi.from_buffer("uint64_t[]", self._tables_buf)
        self._consts = [
            (vid, value.to_bytes(nb, "little")) for vid, value in program.consts
        ]
        self._empty_masks = bytes(8)
        self._regs: Dict[int, object] = {}
        self._lock = threading.Lock()

    def _regs_for(self, count: int):
        regs = self._regs.get(count)
        if regs is None:
            if len(self._regs) >= 4:
                self._regs.clear()
            regs = self.executor.backend._ffi.new(
                "uint64_t[]", self._nreg * count * self.executor.nw
            )
            self._regs[count] = regs
        return regs

    def run_arrays(self, input_arrays: Sequence[bytearray],
                   mask_arrays: Sequence[bytes]) -> List[bytearray]:
        """Execute over packed word buffers in declared input order.

        ``input_arrays`` are element-major buffers of ``nw`` little-endian
        words per lane (as built by :meth:`NativeIRExecutor.pack`);
        ``mask_arrays`` are packed lane masks (one per declared mask input,
        as built by :meth:`NativeIRExecutor.broadcast_bits`).  Returns
        fresh output buffers in declared output order — the caller may
        feed them back in as the next step's inputs.
        """
        backend = self.executor.backend
        ffi = backend._ffi
        nw = self.executor.nw
        stride_bytes = len(input_arrays[0])
        stride = stride_bytes // 8
        count = stride // nw
        lane_words = lane_words_for(count)
        if len(self.mask_names) == 0:
            masks_buf = self._empty_masks
        elif len(self.mask_names) == 1:
            masks_buf = mask_arrays[0]
        else:
            masks_buf = b"".join(mask_arrays)
        with self._lock:
            regs = self._regs_for(count)
            for vid, vector in zip(self._input_vids, input_arrays):
                ffi.memmove(regs + vid * stride, vector, stride_bytes)
            for vid, const_bytes in self._consts:
                ffi.memmove(regs + vid * stride, const_bytes * count, stride_bytes)
            run = backend._ext.lib.gf2m_run_program
            masks_c = ffi.from_buffer("uint64_t[]", masks_buf)
            tracer = _trace.TRACER
            if tracer.enabled:
                # The interpreter keeps no state between instructions, so a
                # pass range executes identically as its own call.
                for label, start, end in self._pass_ranges:
                    if start == end:
                        continue
                    with tracer.span(label, lanes=count):
                        run(
                            self._code + start * 5, end - start, regs, count,
                            self.m, nw, backend._terms, backend._nterms,
                            self._tables, masks_c, lane_words,
                        )
            else:
                run(
                    self._code, self._ninstr, regs, count, self.m, nw,
                    backend._terms, backend._nterms, self._tables,
                    masks_c, lane_words,
                )
            outputs = []
            for vid in self._output_vids:
                buf = bytearray(stride_bytes)
                ffi.memmove(buf, regs + vid * stride, stride_bytes)
                outputs.append(buf)
        return outputs

    def describe(self) -> str:
        """Structural summary of the scheduled program plus the substrate."""
        return f"{self.program.describe()} on {self.executor.backend.describe()}"


class NativeIRExecutor:
    """The native *IR executor* capability of a :class:`NativeBackend`.

    Same surface as :class:`~repro.backends.planes.PlaneIRExecutor`, so
    the shared driver (:func:`~repro.backends.ir.run_chunked`) runs either
    interchangeably: :meth:`pack` / :meth:`unpack` at the batch boundary,
    :meth:`broadcast_bits` for per-lane control masks, :meth:`compile` for
    the memoized lowering.
    """

    def __init__(self, backend: NativeBackend) -> None:
        self.backend = backend
        self.field = backend.field
        self.m = backend.m
        self.nw = backend._nw
        self._compiled: Dict[object, tuple] = {}

    @property
    def chunk_size(self) -> int:
        """Preferred batch lanes per execution (bounds the register file)."""
        return self.backend.chunk_size

    # ------------------------------------------------------------- boundary
    def pack(self, values: Sequence[int]) -> bytearray:
        """Pack field elements into one element-major word buffer (once)."""
        return bytearray(self.backend._pack(values))

    def unpack(self, array: bytearray, lanes: int) -> List[int]:
        """The first ``lanes`` field elements of a word buffer (once)."""
        return self.backend._unpack(array, lanes)

    def broadcast_bits(self, bits: Sequence[int]) -> bytes:
        """Pack one control bit per lane into ``lane_words`` little-endian words.

        Bit ``p`` of the result is ``bits[p] & 1``; dead lanes stay zero.
        """
        return pack_lane_bits(bits)

    # ------------------------------------------------------------- programs
    def compile(self, program: FieldProgram) -> CompiledNativeIR:
        """The memoized native lowering of a scheduled ``FieldProgram``."""
        if program.m != self.m:
            raise ValueError(
                f"program is scheduled for m={program.m}, executor is m={self.m}"
            )
        key = program.key if program.key is not None else id(program)
        entry = self._compiled.get(key)
        if entry is None or entry[0] is not program:
            with _trace.span(
                "ir.compile", backend=self.backend.name, program=program.ir.name
            ), _metrics.timed("ir.compile.native"):
                entry = (program, CompiledNativeIR(self, program))
            self._compiled[key] = entry
        return entry[1]

    def describe(self) -> str:
        """One-line summary used by the CLI and benchmarks."""
        return f"FieldIR native executor on {self.backend.describe()}"
