import numpy as np
import pytest

from moduliflow.testfunctions import BumpFunction
from oracles import AffineFunction, ConstantOne, WindowedHarmonic


def _fd_gradient(f, x, y, h=1e-5):
    gx = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
    gy = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
    return gx, gy


def _fd_hessian(f, x, y, h=1e-4):
    hxx = (f.value(x + h, y) - 2 * f.value(x, y) + f.value(x - h, y)) / h**2
    hyy = (f.value(x, y + h) - 2 * f.value(x, y) + f.value(x, y - h)) / h**2
    hxy = (
        f.value(x + h, y + h) - f.value(x + h, y - h)
        - f.value(x - h, y + h) + f.value(x - h, y - h)
    ) / (4 * h**2)
    return hxx, hxy, hyy


class TestBumpFunction:
    def test_center_and_outside(self):
        # Dyadic center/radii so the support edge is exactly representable.
        f = BumpFunction([0.125, 1.5], [0.25, 0.5], amplitude=2.0)
        assert f.value(0.125, 1.5) == 2.0
        assert f.value(0.375, 1.5) == 0.0
        assert f.value(0.125, 2.0) == 0.0
        assert f.value(5.0, 9.0) == 0.0
        assert f.overflow_value == 0.0

    def test_support_box(self):
        f = BumpFunction([0.1, 1.5], [0.3, 0.4])
        assert f.support_box == (0.1 - 0.3, 0.1 + 0.3, 1.5 - 0.4, 1.5 + 0.4)

    def test_gradient_matches_finite_differences(self, rng):
        f = BumpFunction([-0.2, 2.0], [0.35, 0.6], amplitude=1.3)
        for _ in range(20):
            x = -0.2 + 0.3 * (2 * rng.random() - 1)
            y = 2.0 + 0.5 * (2 * rng.random() - 1)
            gx, gy = f.gradient(x, y)
            ex, ey = _fd_gradient(f, x, y)
            assert abs(gx - ex) <= 1e-6 and abs(gy - ey) <= 1e-6

    def test_hessian_matches_finite_differences(self, rng):
        f = BumpFunction([-0.2, 2.0], [0.35, 0.6], amplitude=1.3)
        for _ in range(20):
            x = -0.2 + 0.3 * (2 * rng.random() - 1)
            y = 2.0 + 0.5 * (2 * rng.random() - 1)
            hxx, hxy, hyy = f.hessian(x, y)
            exx, exy, eyy = _fd_hessian(f, x, y)
            for got, want in ((hxx, exx), (hxy, exy), (hyy, eyy)):
                assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_smooth_vanishing_at_edge(self):
        # The profile (1 - s^2)^5 is C^2 at the support boundary: value,
        # gradient, and Hessian all go to zero there.
        f = BumpFunction([0.0, 2.0], [0.5, 0.5])
        eps = 1e-5
        x = 0.5 - eps
        assert abs(f.value(x, 2.0)) <= 1e-20
        gx, gy = f.gradient(x, 2.0)
        assert abs(gx) <= 1e-15 and abs(gy) <= 1e-15
        hxx, hxy, hyy = f.hessian(x, 2.0)
        assert abs(hxx) <= 1e-10 and abs(hxy) <= 1e-10 and abs(hyy) <= 1e-10

    def test_array_evaluation_matches_scalar(self, rng):
        f = BumpFunction([0.0, 1.5], [0.4, 0.5])
        xs = 0.8 * (2 * rng.random(50) - 1)
        ys = 1.0 + rng.random(50)
        vals = f.value(xs, ys)
        for k in range(50):
            assert vals[k] == f.value(float(xs[k]), float(ys[k]))

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            BumpFunction([0.0, 1.5], [0.0, 0.5])
        with pytest.raises(ValueError):
            BumpFunction([0.0, 1.5], [0.4, -0.1])


class TestConstantOne:
    def test_everywhere_one(self, rng):
        f = ConstantOne()
        assert f.value(0.0, 1.0) == 1.0
        assert f.overflow_value == 1.0
        xs, ys = rng.random(10), 1.0 + rng.random(10)
        assert np.all(f.value(xs, ys) == 1.0)

    def test_derivatives_vanish(self):
        f = ConstantOne()
        assert f.gradient(0.2, 3.0) == (0.0, 0.0)
        assert f.hessian(0.2, 3.0) == (0.0, 0.0, 0.0)


class TestAffineFunction:
    def test_exact_values_and_derivatives(self):
        f = AffineFunction(2.0, -1.5, 0.25)
        assert f.value(0.3, 2.0) == 2.0 - 1.5 * 0.3 + 0.25 * 2.0
        assert f.gradient(9.0, 9.0) == (-1.5, 0.25)
        assert f.hessian(9.0, 9.0) == (0.0, 0.0, 0.0)


class TestWindowedHarmonic:
    def test_equals_y_on_plateau(self):
        f = WindowedHarmonic([0.0, 2.0], [0.4, 1.0], flat=0.5)
        x_lo, x_hi, y_lo, y_hi = f.plateau_box
        assert x_lo < x_hi and y_lo < y_hi
        for x in np.linspace(x_lo, x_hi, 7):
            for y in np.linspace(y_lo, y_hi, 7):
                assert f.value(float(x), float(y)) == float(y)

    def test_zero_outside_support(self):
        f = WindowedHarmonic([0.0, 2.0], [0.4, 1.0])
        x_lo, x_hi, y_lo, y_hi = f.support_box
        assert f.value(x_hi + 1e-9, 2.0) == 0.0
        assert f.value(0.0, y_hi + 1e-9) == 0.0
        assert f.value(x_lo - 0.1, y_lo - 0.1) == 0.0
        assert f.overflow_value == 0.0

    def test_boxes_nest(self):
        f = WindowedHarmonic([0.0, 2.0], [0.4, 1.0], flat=0.5)
        px_lo, px_hi, py_lo, py_hi = f.plateau_box
        sx_lo, sx_hi, sy_lo, sy_hi = f.support_box
        assert sx_lo < px_lo < px_hi < sx_hi
        assert sy_lo < py_lo < py_hi < sy_hi

    def test_flat_fraction_validation(self):
        with pytest.raises(ValueError):
            WindowedHarmonic([0.0, 2.0], [0.4, 1.0], flat=0.0)
        with pytest.raises(ValueError):
            WindowedHarmonic([0.0, 2.0], [0.4, 1.0], flat=1.0)
