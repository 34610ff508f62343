"""Power-law memory kernel a(t) = t^(alpha-1) / Gamma(alpha).

The order alpha interpolates between a constant kernel at alpha=1
(heat conduction) and a linear kernel at alpha=2 (wave propagation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MemoryOrder"]


@dataclass(frozen=True)
class MemoryOrder:
    """Interpolation order alpha, restricted to the closed interval [1, 2]."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or not 1.0 <= a <= 2.0:
            raise ValueError(f"alpha must lie in [1, 2], got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)
