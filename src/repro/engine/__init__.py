"""Compiled batch-multiplication engine with multiplier caching.

This package is the production execution layer on top of the paper
reproduction: where :mod:`repro.netlist.simulate` interprets a netlist node
by node (the readable reference), :mod:`repro.engine` compiles the circuit
once and pushes bit-packed operand batches through it at word speed.

Layers, bottom up:

* :mod:`repro.engine.bitpack` — word-level bit-matrix transposition between
  operand row words and per-input-bit plane words;
* :mod:`repro.engine.compiler` — levelization of a netlist and the
  generated straight-line Python evaluator (the engine's one evaluator);
* :mod:`repro.engine.engine` — the :class:`Engine` batch API
  (``multiply_batch``), the multiplier I/O wiring and chunk loop it shares
  with the bitsliced evaluator, and the cached :func:`engine_for` /
  :func:`engine_for_netlist` factories.

Multiplier caching lives in :mod:`repro.multipliers.cache` and the generic
LRU in :mod:`repro.pipeline.store`; both are re-exported here for
convenience.

Quick start
-----------
>>> from repro.engine import engine_for
>>> from repro.galois import type_ii_pentanomial
>>> engine = engine_for("thiswork", type_ii_pentanomial(8, 2))
>>> engine.multiply_batch([0x57, 0x01], [0x83, 0x2a])
[49, 42]
"""

from ..multipliers.cache import (
    MultiplierCache,
    cached_multiplier,
    default_multiplier_cache,
)
from ..pipeline.store import CacheInfo, LRUCache
from .bitpack import block_size_for, pack_rows, transpose_square, unpack_planes
from .compiler import CompiledNetlist, compile_netlist
from .engine import Engine, engine_for, engine_for_netlist

__all__ = [
    "block_size_for",
    "pack_rows",
    "transpose_square",
    "unpack_planes",
    "CacheInfo",
    "LRUCache",
    "MultiplierCache",
    "cached_multiplier",
    "default_multiplier_cache",
    "CompiledNetlist",
    "compile_netlist",
    "Engine",
    "engine_for",
    "engine_for_netlist",
]
