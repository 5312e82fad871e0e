"""Pluggable execution backends for GF(2^m) batch arithmetic.

One abstraction (:class:`FieldBackend`) behind which every way of
physically evaluating field arithmetic lives, so the layers above — the
field, the curve ladders, the protocol batch APIs, the sweep pipeline and
the CLI — select a substrate by name instead of hard-coding a call path:

* ``python`` (:class:`PythonIntBackend`) — the scalar big-integer
  reference: carry-less multiply + reduce per pair.  No one-time costs;
  wins for tiny batches and is the arbiter every other backend must match
  byte for byte.
* ``engine`` (:class:`EngineBackend`) — the compiled netlist engine of
  :mod:`repro.engine`: one straight-line Python function evaluating the
  multiplier circuit on big-integer bit planes.  The default for
  circuit-capable fields.
* ``bitslice`` (:class:`BitsliceBackend`) — the same generated circuit
  lowered to numpy ``uint64`` plane arrays with level-segmented
  gather/scatter evaluation (:class:`BitslicedNetlist`): 64+ batch lanes
  per word op, ~9× the scalar reference at GF(2^163)/batch-2048.
  Requires the optional numpy dependency (``gf2m-repro[bitslice]``).
  Its :class:`PlaneIRExecutor` compiles whole formulas traced as
  :class:`FieldIR` (:mod:`repro.backends.ir`) into fused plane passes —
  lane-stacked netlist products, merged gather/XOR linear stages, masked
  selects — so a batch is packed into uint64 planes once, runs the
  compiled formula per step, and is unpacked once.
* ``native`` (:class:`NativeBackend`) — the compiled word-level tier
  (:mod:`repro.backends.native`): a C kernel doing 64-bit carry-less
  multiplication (PCLMULQDQ when the CPU has it) plus sparse tail
  reduction over contiguous ``uint64`` word arrays, built through cffi at
  install or first-import time.  Its :class:`NativeIRExecutor` lowers
  scheduled :class:`FieldIR` programs to a flat C instruction stream, so
  the whole fused ladder step runs as one C call per scalar bit.  The
  per-field default whenever the extension is importable; degrades to a
  clear :class:`ImportError` (and the registry falls back to ``engine``)
  when no C compiler is available.

Every backend has a FieldIR executor
(:meth:`FieldBackend.ir_executor`): python and engine get the
:class:`InterpretingIRExecutor`, which runs :func:`execute_program` over
their batch ops.  All three executors share one surface (``pack``,
``unpack``, ``broadcast_bits``, ``compile``, ``chunk_size``,
``describe``), and one driver runs them: :func:`run_chunked` is the batch
loop of every curve evaluator (pack once per chunk, one ``run_arrays``
per step, unpack once) and :func:`run_program` its one-shot form.

Selection: explicit ``backend=`` arguments (a name or an instance)
anywhere batch APIs are exposed, the ``--backend`` CLI flag, or the
``GF2M_REPRO_BACKEND`` environment variable for a process-wide default;
otherwise :func:`default_backend_name` resolves per field.  Parity of all
backends against the scalar reference is asserted uniformly by
:func:`assert_backend_parity` and the backend-parameterized
:func:`repro.netlist.verify.verify_by_simulation`.

>>> from repro.backends import get_backend
>>> from repro.galois import GF2mField, type_ii_pentanomial
>>> field = GF2mField(type_ii_pentanomial(8, 2))
>>> get_backend("python", field).multiply(0x57, 0x83) == field.multiply(0x57, 0x83)
True
"""

from .base import FieldBackend, default_method_for
from .bitslice import BitsliceBackend, BitslicedNetlist, bitsliced_netlist, numpy_available
from .engine_backend import EngineBackend
from .native import (
    CompiledNativeIR,
    NativeBackend,
    NativeIRExecutor,
    native_available,
)
from .ir import (
    FieldIR,
    FieldProgram,
    InterpretingIRExecutor,
    IRBuilder,
    cached_program,
    execute_program,
    run_chunked,
    run_program,
    schedule_program,
)
from .planes import (
    CompiledPlaneIR,
    PlaneIRExecutor,
    PlaneProgram,
    plane_program,
)
from .python_int import PythonIntBackend
from .registry import (
    BACKEND_ENV_VAR,
    assert_backend_parity,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)

__all__ = [
    "FieldBackend",
    "default_method_for",
    "BitsliceBackend",
    "BitslicedNetlist",
    "bitsliced_netlist",
    "numpy_available",
    "EngineBackend",
    "CompiledNativeIR",
    "NativeBackend",
    "NativeIRExecutor",
    "native_available",
    "FieldIR",
    "FieldProgram",
    "InterpretingIRExecutor",
    "IRBuilder",
    "cached_program",
    "execute_program",
    "run_chunked",
    "run_program",
    "schedule_program",
    "CompiledPlaneIR",
    "PlaneIRExecutor",
    "PlaneProgram",
    "plane_program",
    "PythonIntBackend",
    "BACKEND_ENV_VAR",
    "assert_backend_parity",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
