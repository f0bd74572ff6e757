"""Engine configuration: scalar backend and caps."""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import RATIONALS


@dataclass(frozen=True)
class EngineConfig:
    """Backend and cap settings threaded through every structure.

    max_degree caps the |DG degree| any carrier will materialize; queries that
    need more raise CapExceeded rather than silently truncating.  max_tensor
    caps the tensor degree n of the diagonal tensor algebra's pieces T^n
    (Diagonal.T refuses any n past it), and is the battery's bound: it reads
    the powers n <= max_tensor.
    """

    field: object = RATIONALS
    max_degree: int = 16
    max_tensor: int = 4

    def with_limits(self, max_degree=None, max_tensor=None):
        return EngineConfig(
            field=self.field,
            max_degree=self.max_degree if max_degree is None else max_degree,
            max_tensor=self.max_tensor if max_tensor is None else max_tensor,
        )


DEFAULT_CONFIG = EngineConfig()
