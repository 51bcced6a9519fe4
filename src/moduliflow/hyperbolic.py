"""Target geometry: the hyperbolic upper half-plane and its modular quotient.

Points are z = x + i*y with y > 0, carrying the metric (dx^2 + dy^2)/y^2,
volume element dx dy / y^2, and the positive-spectrum Laplacian
-y^2 (f_xx + f_yy).  The integer Moebius group acts by
z -> (a z + b)/(c z + d); the standard fundamental domain is
F = { |Re z| <= 1/2, |z| >= 1 }, with hyperbolic area pi/3.

This module provides the Moebius action, reduction into F with an exact
integer witness matrix, a pointwise finite-difference hyperbolic Laplacian,
and a rectangular histogram binning of the truncated domain
F_trunc = F intersect { y <= y_max } plus a single cusp overflow bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Lowest point of the fundamental domain: the corners at (+-1/2, sqrt(3)/2).
FUNDAMENTAL_DOMAIN_Y_MIN = math.sqrt(3.0) / 2.0

FUNDAMENTAL_DOMAIN_AREA = math.pi / 3.0

# Default floor used to call a Moebius denominator numerically degenerate.
_DENOM_TINY = 2.2250738585072014e-308  # smallest normal double

_REDUCTION_MAX_ITER = 200


class DegenerateInputError(ValueError):
    """Moebius denominator underflowed: the image is numerically meaningless."""


class ReductionError(RuntimeError):
    """Fundamental-domain reduction did not converge within the iteration cap."""

    def __init__(self, message: str, last_x: float, last_y: float, iterations: int):
        super().__init__(message)
        self.last_x = last_x
        self.last_y = last_y
        self.iterations = iterations


@dataclass(frozen=True)
class UpperHalfPoint:
    """A point x + i*y of the open upper half-plane (y strictly positive)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")
        if not self.y > 0.0:
            raise ValueError(f"point must have y > 0, got y = {self.y}")

    def __repr__(self):
        return f"UpperHalfPoint({self.x!r}, {self.y!r})"


@dataclass(frozen=True)
class ModularMatrix:
    """Integer matrix [[a, b], [c, d]] with det = ad - bc = +1 (checked exactly)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise TypeError(f"entry {name} must be an integer, got {val!r}")
            object.__setattr__(self, name, int(val))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant must be exactly 1, got "
                f"{self.a * self.d - self.b * self.c}"
            )


def mobius_apply_xy(a, b, c, d, x, y):
    """Moebius action on raw coordinates; works on scalars or numpy arrays.

    Uses the real form
        x' = ((a x + b)(c x + d) + a c y^2) / q,   y' = y / q,
        q  = (c x + d)^2 + (c y)^2,
    which keeps y' > 0 structurally (q > 0, y > 0) instead of trusting a
    complex division to stay in the upper half-plane.
    """
    q = (c * x + d) ** 2 + (c * y) ** 2
    xp = ((a * x + b) * (c * x + d) + a * c * y * y) / q
    yp = y / q
    return xp, yp


def mobius_apply(gamma: ModularMatrix, z: UpperHalfPoint) -> UpperHalfPoint:
    """Apply z -> (a z + b)/(c z + d).  Raises DegenerateInputError when the
    denominator modulus underflows and the image cannot be represented."""
    a, b, c, d = float(gamma.a), float(gamma.b), float(gamma.c), float(gamma.d)
    q = (c * z.x + d) ** 2 + (c * z.y) ** 2
    if not (q > _DENOM_TINY) or not math.isfinite(q):
        raise DegenerateInputError(
            f"|c z + d|^2 = {q} is degenerate for gamma = {gamma}, z = {z}"
        )
    xp, yp = mobius_apply_xy(a, b, c, d, z.x, z.y)
    if not (math.isfinite(xp) and math.isfinite(yp) and yp > 0.0):
        raise DegenerateInputError(f"Moebius image overflowed for z = {z}")
    return UpperHalfPoint(xp, yp)


def _is_canonical(x: float, y: float) -> bool:
    # Canonical form: Re in [-1/2, 1/2), |z| >= 1, and on |z| = 1 only Re <= 0.
    if not (-0.5 <= x < 0.5):
        return False
    r2 = x * x + y * y
    if r2 < 1.0:
        return False
    if r2 == 1.0 and x > 0.0:
        return False
    return True


def _reduce_scalar(x: float, y: float):
    """Core reduction loop on raw floats.  Returns (x, y, a, b, c, d, iters)
    with gamma = [[a,b],[c,d]] such that gamma * z_input = z_output."""
    a, b, c, d = 1, 0, 0, 1
    for it in range(_REDUCTION_MAX_ITER):
        # Translate Re into [-1/2, 1/2); floor(x + 0.5) rounds halves up so
        # x = +1/2 lands on -1/2, matching the canonical half-open interval.
        n = math.floor(x + 0.5)
        if n:
            x -= n
            a -= n * c
            b -= n * d
        r2 = x * x + y * y
        if r2 < 1.0:
            if r2 < _DENOM_TINY:
                raise DegenerateInputError(
                    f"|z|^2 = {r2} underflowed at {x} + {y}i; -1/z is not representable"
                )
            # z -> -1/z, i.e. left-multiply the witness by [[0,-1],[1,0]].
            x = -x / r2
            y = y / r2
            a, b, c, d = -c, -d, a, b
            continue
        if -0.5 <= x < 0.5:
            break
    else:
        raise ReductionError(
            f"no convergence after {_REDUCTION_MAX_ITER} iterations "
            f"(last iterate {x} + {y}i)",
            x, y, _REDUCTION_MAX_ITER,
        )
    # Boundary tie-break: an exact hit of |z| = 1 with Re > 0 maps to the
    # preferred Re <= 0 representative.  Since r2 == 1 the inversion is exact.
    if x * x + y * y == 1.0 and x > 0.0:
        x = -x
        a, b, c, d = -c, -d, a, b
    return x, y, a, b, c, d, it + 1


def reduce_to_fundamental_domain(
    z: UpperHalfPoint,
) -> tuple[UpperHalfPoint, ModularMatrix]:
    """Reduce z into the fundamental domain.

    Returns (z_F, gamma) with gamma • z = z_F exactly in the group sense and
    within float reconstruction error numerically.  Points already in
    canonical form are returned unchanged (bit-identical) with the identity
    witness, so the reduction is exactly idempotent.  Raises
    DegenerateInputError when |z|^2 underflows on the way.
    """
    if _is_canonical(z.x, z.y):
        return z, ModularMatrix(1, 0, 0, 1)
    x, y, a, b, c, d, _ = _reduce_scalar(z.x, z.y)
    return UpperHalfPoint(x, y), ModularMatrix(a, b, c, d)


def reduce_points(x, y, max_iter: int = _REDUCTION_MAX_ITER):
    """Vectorised reduction of arrays of points (no witnesses).

    Performs the float operations and raises the errors of the scalar loop,
    so results agree bitwise with reduce_to_fundamental_domain pointwise.
    """
    x = np.array(x, dtype=float, copy=True)
    y = np.array(y, dtype=float, copy=True)
    if x.shape != y.shape:
        raise ValueError("coordinate arrays must share a shape")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)) or np.any(y <= 0):
        raise ValueError("points must be finite with y > 0")
    flat_x = x.reshape(-1)
    flat_y = y.reshape(-1)
    active = ~(
        ((-0.5 <= flat_x) & (flat_x < 0.5))
        & (flat_x * flat_x + flat_y * flat_y >= 1.0)
    )
    for _ in range(max_iter):
        if not active.any():
            break
        n = np.floor(flat_x + 0.5)
        np.subtract(flat_x, n, out=flat_x, where=active)
        r2 = flat_x * flat_x + flat_y * flat_y
        inv = active & (r2 < 1.0)
        if inv.any():
            if (tiny := inv & (r2 < _DENOM_TINY)).any():
                raise DegenerateInputError(f"|z|^2 = {r2[tiny][0]} underflowed at "
                                           f"{flat_x[tiny][0]} + {flat_y[tiny][0]}i")
            np.divide(-flat_x, r2, out=flat_x, where=inv)
            np.divide(flat_y, r2, out=flat_y, where=inv)
        done = active & ~inv & (-0.5 <= flat_x) & (flat_x < 0.5)
        active &= ~done
    if active.any():
        raise ReductionError(
            f"{int(active.sum())} points failed to reduce in {max_iter} iterations",
            float(flat_x[active][0]), float(flat_y[active][0]), max_iter,
        )
    tie = (flat_x * flat_x + flat_y * flat_y == 1.0) & (flat_x > 0.0)
    if tie.any():
        flat_x[tie] = -flat_x[tie]
    return flat_x.reshape(x.shape), flat_y.reshape(y.shape)


def hyperbolic_laplacian_fd(f, z: UpperHalfPoint, h: float) -> float:
    """Positive-spectrum Laplacian -y^2 (f_xx + f_yy) by a 5-point stencil.

    f is called as f(x, y) on floats.  The stencil must stay inside the
    upper half-plane, so h < y is required.
    """
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h}")
    if not z.y - h > 0.0:
        raise ValueError(f"stencil leaves the upper half-plane: y = {z.y}, h = {h}")
    x, y = z.x, z.y
    second = (
        f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h) - 4.0 * f(x, y)
    ) / (h * h)
    return -y * y * second


def _arc_height(x: float) -> float:
    # Height of the unit circle |z| = 1 above the real axis, 0 outside [-1, 1].
    t = 1.0 - x * x
    return math.sqrt(t) if t > 0.0 else 0.0


def _cell_mass_centroid(x_lo, x_hi, y_lo, y_hi, panels=16):
    """Mass of dx dy / y^2 over rect ∩ {|z| >= 1}, plus the mass centroid.

    The y-integral is done in closed form per column; the x-integral uses a
    composite midpoint rule split at the points where the circle arc crosses
    the levels y_lo / y_hi, so every panel sees a smooth integrand and the
    composite rule is O(panel^2)-accurate.  Bins that do not meet the arc
    come out exact.  Returns (mass, cx, cy); (0, nan, nan) for empty cells.
    """
    if not (x_hi > x_lo and y_hi > y_lo and y_hi > 0.0):
        return 0.0, math.nan, math.nan
    y_lo = max(y_lo, 0.0)
    if y_lo >= 1.0:
        # Entirely above the arc: exact closed form.
        width = x_hi - x_lo
        mass = (1.0 / y_lo - 1.0 / y_hi) * width
        cx = 0.5 * (x_lo + x_hi)
        cy = math.log(y_hi / y_lo) * width / mass
        return mass, cx, cy
    # Split the x-range where the arc crosses the horizontal cell edges.
    cuts = {x_lo, x_hi}
    for level in (y_lo, y_hi):
        if 0.0 <= level < 1.0:
            xc = math.sqrt(1.0 - level * level)
            for s in (-xc, xc):
                if x_lo < s < x_hi:
                    cuts.add(s)
    xs = sorted(cuts)
    width = x_hi - x_lo
    mass = 0.0
    x_num = 0.0
    y_num = 0.0
    for a, b in zip(xs, xs[1:]):
        seg = b - a
        if seg <= 0.0:
            continue
        arc_mid = _arc_height(0.5 * (a + b))
        if arc_mid >= y_hi:
            continue  # column segment entirely below the arc
        if arc_mid <= y_lo:
            if y_lo <= 0.0:
                raise ValueError(
                    "unbounded column: rectangle reaches y = 0 outside |z| < 1"
                )
            g = 1.0 / y_lo - 1.0 / y_hi
            mass += g * seg
            x_num += g * 0.5 * (a + b) * seg
            y_num += math.log(y_hi / y_lo) * seg
            continue
        n = max(1, round(panels * seg / width))
        pw = seg / n
        for i in range(n):
            xm = a + (i + 0.5) * pw
            lower = math.sqrt(1.0 - xm * xm)
            g = 1.0 / lower - 1.0 / y_hi
            mass += g * pw
            x_num += g * xm * pw
            y_num += math.log(y_hi / lower) * pw
    if mass <= 0.0:
        return 0.0, math.nan, math.nan
    return mass, x_num / mass, y_num / mass


class FundamentalDomainBinning:
    """Histogram bins over F_trunc = F ∩ {y <= y_max} plus a cusp overflow bin.

    A rectangular n_x-by-n_y grid covers [-1/2, 1/2] x [y_min, y_max] with
    y_min = sqrt(3)/2.  Cells whose intersection with F has zero hyperbolic
    mass (entirely under the unit-circle arc) are dead; lookups falling in a
    dead cell are redirected to the lowest live cell of the same column, so
    every reduced point with y <= y_max maps to exactly one live bin.  Points
    with y > y_max map to the overflow bin, whose exact mass is 1/y_max.

    Live bins are indexed 0..n_bins-1 in (ix, iy) lexicographic order; the
    overflow bin has index n_bins.  Bin centers are hyperbolic-mass centroids
    of the clipped cells.
    """

    def __init__(self, n_x: int, n_y: int, y_max: float):
        if n_x < 2 or n_y < 2:
            raise ValueError(f"need at least 2 bins per axis, got {n_x} x {n_y}")
        if not (math.isfinite(y_max) and y_max > 1.0):
            raise ValueError(f"y_max must be finite and > 1, got {y_max}")
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self.y_max = float(y_max)
        self.y_min = FUNDAMENTAL_DOMAIN_Y_MIN
        self.dx = 1.0 / self.n_x
        self.dy = (self.y_max - self.y_min) / self.n_y

        lookup = np.full((self.n_x, self.n_y), -1, dtype=np.int64)
        x_lo_list, y_lo_list = [], []
        mass_list, cx_list, cy_list = [], [], []
        for ix in range(self.n_x):
            x_lo = -0.5 + ix * self.dx
            x_hi = -0.5 + (ix + 1) * self.dx
            first_live = None
            for iy in range(self.n_y):
                y_lo = self.y_min + iy * self.dy
                y_hi = self.y_min + (iy + 1) * self.dy
                mass, cx, cy = _cell_mass_centroid(x_lo, x_hi, y_lo, y_hi)
                if mass > 0.0:
                    idx = len(mass_list)
                    lookup[ix, iy] = idx
                    if first_live is None:
                        first_live = idx
                    x_lo_list.append(x_lo)
                    y_lo_list.append(y_lo)
                    mass_list.append(mass)
                    cx_list.append(cx)
                    cy_list.append(cy)
            if first_live is None:
                raise ValueError("column with no live bins; y_max too small")
            # Dead cells sit under the arc, below every live cell: redirect.
            for iy in range(self.n_y):
                if lookup[ix, iy] < 0:
                    lookup[ix, iy] = first_live
        self._lookup = lookup
        self.x_lo = np.array(x_lo_list)
        self.y_lo = np.array(y_lo_list)
        self.raw_mass = np.array(mass_list)
        self.center_x = np.array(cx_list)
        self.center_y = np.array(cy_list)
        self.n_bins = len(mass_list)

    @property
    def overflow_mass(self) -> float:
        # Exact: integral of dx dy / y^2 over |x| <= 1/2, y > y_max.
        return 1.0 / self.y_max

    def total_raw_mass(self) -> float:
        """Unnormalised mass of F_trunc plus the cusp overflow (-> pi/3)."""
        return float(self.raw_mass.sum()) + self.overflow_mass

    def matches(self, other: "FundamentalDomainBinning") -> bool:
        return (
            self.n_x == other.n_x
            and self.n_y == other.n_y
            and self.y_max == other.y_max
        )

    def bin_index_array(self, x, y):
        """Bin index of each reduced point; n_bins, the overflow bin, where
        y > y_max."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ix = np.clip(np.floor((x + 0.5) / self.dx).astype(np.int64), 0, self.n_x - 1)
        iy = np.clip(
            np.floor((y - self.y_min) / self.dy).astype(np.int64), 0, self.n_y - 1
        )
        out = self._lookup[ix, iy]
        return np.where(y > self.y_max, self.n_bins, out)
