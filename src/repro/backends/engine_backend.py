"""The compiled big-integer netlist engine as a :class:`FieldBackend`.

Wraps :mod:`repro.engine`: the multiplier circuit for ``(method, modulus)``
is generated, formally verified and compiled to a straight-line Python
function once (all cached process-wide), and operand batches stream through
it in bit-packed big-integer planes.  That compiled function is the
engine's only evaluator, and the one
``verify_by_simulation(backend="engine")`` checks.  This was the path
``GF2mField.multiply_batch`` hard-coded before the backend abstraction; the
default-method selection it used to duplicate now lives in
:func:`repro.backends.base.default_method_for`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from .base import FieldBackend, default_method_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.engine import Engine
    from ..galois.field import GF2mField

__all__ = ["EngineBackend"]


class EngineBackend(FieldBackend):
    """Batch multiplication through the compiled big-integer circuit engine.

    Parameters
    ----------
    field:
        The bound field.
    method:
        Multiplier construction; defaults to the paper's ``thiswork``
        circuit for type II pentanomials and ``schoolbook`` otherwise.
    chunk_size:
        Operand pairs per compiled call; ``None`` keeps the engine default.
    verify:
        Whether the circuit must be formally verified against its product
        specification (default).  ``verify=False`` skips the check — worth
        it for very large fields where symbolic verification grows
        quadratically; the multiplier cache upgrades the same circuit in
        place if a verified instance is requested later.
    """

    name = "engine"

    def __init__(
        self,
        field: "GF2mField",
        method: Optional[str] = None,
        chunk_size: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        super().__init__(field)
        self.method = method if method is not None else default_method_for(field.modulus)
        self.chunk_size = chunk_size
        self.verify = verify
        self._engine: Optional["Engine"] = None

    @property
    def engine(self) -> "Engine":
        """The cached :class:`~repro.engine.engine.Engine` (compiled on first use)."""
        if self._engine is None:
            from ..engine.engine import engine_for

            self._engine = engine_for(self.method, self.field.modulus, verify=self.verify)
        return self._engine

    def multiply(self, a: int, b: int) -> int:
        return self.engine.multiply(a, b)

    def multiply_batch(self, a_values: Sequence[int], b_values: Sequence[int]) -> List[int]:
        self._count_batch("multiply_batch", len(a_values))
        return self.engine.multiply_batch(a_values, b_values, chunk_size=self.chunk_size)

    def describe(self) -> str:
        return self.engine.describe()
