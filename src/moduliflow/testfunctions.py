"""The smooth observable on the target used for weak-* diagnostics.

It is a tensor-product polynomial bump: compactly supported, C^4 across the
support boundary, with analytic gradient and Hessian so that
finite-difference convergence studies are not polluted by the observable's
own differentiation error.  All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

# One-dimensional profile (1 - s^2)^5 on |s| < 1.  The first four derivatives
# vanish at |s| = 1, so value/gradient/hessian are C^2-smooth globally and
# O(h^2) stencils applied to the bump converge cleanly.
_P = 5


def _core(s):
    """s as a float array, and 1 - s^2 inside |s| < 1, 0 outside."""
    s = np.asarray(s, dtype=float)
    return s, np.where(np.abs(s) < 1.0, 1.0 - s * s, 0.0)


def _profile(s):
    s, core = _core(s)
    return core**_P


def _profile_d1(s):
    s, core = _core(s)
    return -2.0 * _P * s * core ** (_P - 1)


def _profile_d2(s):
    s, core = _core(s)
    return (-2.0 * _P) * core ** (_P - 2) * (core - 2.0 * (_P - 1) * s * s)


class BumpFunction:
    """amplitude * B((x-cx)/rx) * B((y-cy)/ry) with B the polynomial profile.

    Supported on the open box |x-cx| < rx, |y-cy| < ry; identically zero
    outside, in particular on the cusp overflow bin.
    """

    overflow_value = 0.0

    def __init__(self, center, radii, amplitude: float = 1.0):
        cx, cy = (float(c) for c in center)
        rx, ry = (float(r) for r in radii)
        if not (rx > 0.0 and ry > 0.0):
            raise ValueError(f"radii must be positive, got ({rx}, {ry})")
        self.cx, self.cy = cx, cy
        self.rx, self.ry = rx, ry
        self.amplitude = float(amplitude)

    def _s(self, x, y):
        return (np.asarray(x, float) - self.cx) / self.rx, (
            np.asarray(y, float) - self.cy
        ) / self.ry

    def value(self, x, y):
        sx, sy = self._s(x, y)
        return self.amplitude * _profile(sx) * _profile(sy)

    def gradient(self, x, y):
        sx, sy = self._s(x, y)
        fx = self.amplitude * _profile_d1(sx) * _profile(sy) / self.rx
        fy = self.amplitude * _profile(sx) * _profile_d1(sy) / self.ry
        return fx, fy

    def hessian(self, x, y):
        sx, sy = self._s(x, y)
        fxx = self.amplitude * _profile_d2(sx) * _profile(sy) / self.rx**2
        fxy = self.amplitude * _profile_d1(sx) * _profile_d1(sy) / (self.rx * self.ry)
        fyy = self.amplitude * _profile(sx) * _profile_d2(sy) / self.ry**2
        return fxx, fxy, fyy
