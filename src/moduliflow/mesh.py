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
gradient() and the flow's edge pass combine periodic neighbours of one
array with the ufunc calls periodic_calls binds: views that shift by
slicing the flat buffer instead of copying, over fields of one grid shape
or stacks of them (leading batch axes, such as a map state's (2, n1, n2)
fields).  run_calls runs them.  The edge pass binds its whole pass once,
as one table of such calls on its workspace, whose backward flat calls
start one node earlier (flow._EdgeWorkspace), and runs it on every pass.
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
        """Central-difference gradient (df/dx1, df/dx2), O(h^2); f may have
        leading batch axes, as a map state's (2, n1, n2) fields do."""
        grads = []
        for axis, h in ((0, self.h1), (1, self.h2)):
            g = np.empty(f.shape)
            run_calls(periodic_calls(np.subtract, f, g, axis, a_shift=1, b_shift=-1))
            g /= 2.0 * h
            grads.append(g)
        return tuple(grads)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Periodic 5-point Laplacian, summed per axis as
        ((f[k+1] - 2 f[k]) + f[k-1]) / h^2."""
        term0, term1 = (((np.roll(f, -1, axis) - 2.0 * f) + np.roll(f, 1, axis)) / h**2
                        for axis, h in ((-2, self.h1), (-1, self.h2)))
        return term0 + term1

    def integrate(self, f: np.ndarray) -> float:
        """Node-weight quadrature w * sum(f); exact for the flat volume form."""
        return float(self.w * np.sum(f))


def periodic_calls(op, a, out, axis, a_shift=0, b_shift=0) -> list[tuple]:
    """The ufunc calls (op, x, y, out), bound to views, that together set
    out[..., k] = op(a[..., k + a_shift], a[..., k + b_shift]) at every node
    k, the index along grid axis axis (0 or 1 of the last two axes) taken
    periodically; shifts are -1, 0 or 1.  Any leading axes are batch axes.

    a and out are arrays of one shape, out C-contiguous.  In the flattened
    (row-major) buffers a shift by one node along axis 0 is an offset of
    one row and along axis 1 an offset of one element, so the first call
    covers every node whose neighbours are not across the periodic seam.
    One more call per seam row (axis 0) or seam column (axis 1), across
    every batch entry at once, then overwrites those nodes; the first call
    read a neighbouring row or batch entry there, which is why out must not
    overlap a.  The calls view a C-contiguous a in place, so calls bound
    once see every later write to it; a non-contiguous a is copied by the
    flat view, and such calls are for running at once.
    """
    if not out.flags.c_contiguous:
        raise ValueError("periodic_calls writes into a C-contiguous array only")
    n = out.shape[axis - 2]
    stride = out.shape[-1] if axis == 0 else 1
    lo = a_shift < 0 or b_shift < 0  # the first row/column crosses the seam
    hi = a_shift > 0 or b_shift > 0  # the last one does
    start, stop = lo * stride, out.size - hi * stride
    flat = a.ravel()
    calls = [(op, flat[start + a_shift * stride:stop + a_shift * stride],
              flat[start + b_shift * stride:stop + b_shift * stride],
              out.ravel()[start:stop])]
    for k in (0,) * lo + (n - 1,) * hi:
        ka, kb = (k + a_shift) % n, (k + b_shift) % n
        if axis == 0:
            calls.append((op, a[..., ka, :], a[..., kb, :], out[..., k, :]))
        else:
            calls.append((op, a[..., ka], a[..., kb], out[..., k]))
    return calls


def run_calls(calls) -> None:
    """Run ufunc calls (op, a, b, out) in order."""
    for op, a, b, out in calls:
        op(a, b, out)
