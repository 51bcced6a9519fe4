"""Periodic finite-difference grid on the unit 2-torus.

Fields are plain numpy arrays of shape (n1, n2); index i runs along x1 and
index j along x2, with spacings h1 = 1/n1, h2 = 1/n2 and node weight
w = h1 * h2.  A map state keeps its two fields u and v as one (2, n1, n2)
array.  gradient() takes central differences, O(h^2), for pointwise
derivative quantities (Jacobians, chain-rule terms), of one field or of
such a stack at once.  laplacian() is the periodic 5-point stencil; it
pairs with the staggered forward differences (f[i+1] - f[i]) / h that the
flow builds its energy from: integrate(f * laplacian(g)) ==
-integrate(<Df, Dg>) holds to rounding, which is what makes discrete
energy decay structural rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class DomainGrid:
    """Uniform periodic grid with n1 x n2 nodes (at least 4 per axis)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 4 or self.n2 < 4:
            raise ValueError(f"grid must be at least 4 x 4, got {self.n1} x {self.n2}")

    @cached_property
    def h1(self) -> float:
        return 1.0 / self.n1

    @cached_property
    def h2(self) -> float:
        return 1.0 / self.n2

    @cached_property
    def w(self) -> float:
        """Quadrature weight of one node, h1 * h2."""
        return self.h1 * self.h2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    @cached_property
    def x1(self) -> np.ndarray:
        """Node coordinates along axis 0, shaped (n1, 1) for broadcasting."""
        return (np.arange(self.n1) * self.h1).reshape(self.n1, 1)

    @cached_property
    def x2(self) -> np.ndarray:
        """Node coordinates along axis 1, shaped (1, n2)."""
        return (np.arange(self.n2) * self.h2).reshape(1, self.n2)

    def check_field(self, f: np.ndarray, name: str = "field") -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != self.shape:
            raise ValueError(f"{name} has shape {f.shape}, expected {self.shape}")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{name} contains non-finite values")
        return f

    def gradient(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference gradient (df/dx1, df/dx2), O(h^2), per axis
        (f[k+1] - f[k-1]) / (2 h); f may have leading batch axes, as a map
        state's (2, n1, n2) fields do."""
        return tuple((np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)
                     for axis, h in ((-2, self.h1), (-1, self.h2)))

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Periodic 5-point Laplacian, summed per axis as
        ((f[k+1] - 2 f[k]) + f[k-1]) / h^2."""
        term0, term1 = (((np.roll(f, -1, axis) - 2.0 * f) + np.roll(f, 1, axis)) / h**2
                        for axis, h in ((-2, self.h1), (-1, self.h2)))
        return term0 + term1

    def integrate(self, f: np.ndarray) -> float:
        """Node-weight quadrature w * sum(f); exact for the flat volume form."""
        return float(self.w * np.sum(f))

