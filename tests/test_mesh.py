import numpy as np
import pytest

from moduliflow.mesh import DomainGrid, periodic_calls, run_calls

TWO_PI = 2.0 * np.pi


class TestGridBasics:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            DomainGrid(3, 8)
        with pytest.raises(ValueError):
            DomainGrid(8, 3)

    def test_spacings_and_weight(self):
        g = DomainGrid(10, 20)
        assert g.h1 == 0.1 and g.h2 == 0.05
        assert g.w == pytest.approx(0.005, rel=1e-15)
        assert g.shape == (10, 20)

    def test_coordinates_broadcast(self):
        g = DomainGrid(8, 16)
        assert g.x1.shape == (8, 1) and g.x2.shape == (1, 16)
        assert g.x1[0, 0] == 0.0 and g.x1[-1, 0] == pytest.approx(7 / 8)

    def test_check_field(self):
        g = DomainGrid(4, 4)
        with pytest.raises(ValueError):
            g.check_field(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            g.check_field(np.full((4, 4), np.nan))


class TestDifferences:
    def test_summation_by_parts(self, rng):
        # integrate(f * lap g) == -sum of forward-difference products: this
        # exact pairing is what makes the discrete energy dissipate.
        g = DomainGrid(32, 24)
        f = rng.standard_normal(g.shape)
        u = rng.standard_normal(g.shape)

        def forward_diff(a, axis, h):
            return (np.roll(a, -1, axis) - a) / h

        lhs = g.integrate(f * g.laplacian(u))
        rhs = -sum(
            g.integrate(forward_diff(f, ax, h) * forward_diff(u, ax, h))
            for ax, h in ((0, g.h1), (1, g.h2))
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestPeriodicShifts:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 4), (16, 16)])
    def test_bit_identical_to_roll_formulas(self, rng, shape):
        g = DomainGrid(*shape)
        f = rng.standard_normal(shape)
        ahead = [np.roll(f, -1, axis) for axis in (0, 1)]
        behind = [np.roll(f, 1, axis) for axis in (0, 1)]
        g1, g2 = g.gradient(np.asfortranarray(f))
        assert np.array_equal(g1, (ahead[0] - behind[0]) / (2.0 * g.h1))
        assert np.array_equal(g2, (ahead[1] - behind[1]) / (2.0 * g.h2))
        lap = ((ahead[0] - 2.0 * f + behind[0]) / g.h1**2
               + (ahead[1] - 2.0 * f + behind[1]) / g.h2**2)
        assert np.array_equal(g.laplacian(f), lap)

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 4), (16, 16)])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("op, a_shift, b_shift", [
        (np.subtract, 1, 0),   # the flow's forward differences
        (np.add, 0, 1),        # its edge weights
        (np.subtract, 0, -1),  # its backward divergence
        (np.add, 0, -1),       # its edge sums, and the Laplacian
        (np.subtract, 1, -1),  # the central gradient
    ])
    def test_bound_calls_on_stacks_match_roll(self, rng, shape, axis, op, a_shift, b_shift):
        # Calls bound once see later writes to their operands, and fix up
        # the seam of every entry of a leading batch axis.
        a, b, out = (np.empty((2, *shape)) for _ in range(3))
        calls = periodic_calls(op, a, b, out, axis, a_shift, b_shift)
        for _ in range(2):
            a[...] = rng.standard_normal(a.shape)
            b[...] = rng.standard_normal(b.shape)
            run_calls(calls)
            grid_axis = axis + 1
            want = op(np.roll(a, -a_shift, grid_axis), np.roll(b, -b_shift, grid_axis))
            assert np.array_equal(out, want)

    def test_output_must_be_c_contiguous(self):
        a = np.zeros((4, 4))
        with pytest.raises(ValueError):
            periodic_calls(np.add, a, a, np.zeros((4, 4), order="F"), 0, a_shift=1)


class TestGradient:
    def test_constant_field(self):
        g = DomainGrid(8, 8)
        g1, g2 = g.gradient(np.full(g.shape, 3.7))
        assert np.all(g1 == 0.0) and np.all(g2 == 0.0)

    def test_second_order_on_sine(self):
        errs = []
        for n in (64, 128):
            g = DomainGrid(n, n)
            f = np.sin(TWO_PI * g.x1) * np.ones(g.shape)
            g1, _ = g.gradient(f)
            exact = TWO_PI * np.cos(TWO_PI * g.x1) * np.ones(g.shape)
            errs.append(float(np.abs(g1 - exact).max()))
        assert errs[0] <= 0.02
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_linearity(self, rng):
        g = DomainGrid(12, 12)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        ga = g.gradient(a)
        gb = g.gradient(b)
        gs = g.gradient(a + b)
        assert np.allclose(gs[0], ga[0] + gb[0], atol=1e-13)
        assert np.allclose(gs[1], ga[1] + gb[1], atol=1e-13)


class TestLaplacian:
    def test_constant_field(self):
        g = DomainGrid(8, 8)
        assert np.all(g.laplacian(np.full(g.shape, 2.0)) == 0.0)

    def test_fourier_eigenfield(self):
        g = DomainGrid(32, 32)
        f = np.sin(TWO_PI * g.x1) * np.ones(g.shape)
        lam = -(2.0 / g.h1**2) * (1.0 - np.cos(TWO_PI * g.h1))
        assert np.allclose(g.laplacian(f), lam * f, atol=1e-10 * abs(lam))

    def test_spike_stencil_weights(self):
        g = DomainGrid(8, 8)
        f = np.zeros(g.shape)
        f[3, 4] = 1.0
        lap = g.laplacian(f)
        assert lap[3, 4] == -2.0 / g.h1**2 - 2.0 / g.h2**2
        assert lap[2, 4] == lap[4, 4] == 1.0 / g.h1**2
        assert lap[3, 3] == lap[3, 5] == 1.0 / g.h2**2
        assert np.count_nonzero(lap) == 5


class TestIntegrate:
    def test_unit_normalisation(self):
        g = DomainGrid(64, 64)
        assert g.integrate(np.ones(g.shape)) == 1.0

    def test_sine_vanishes_by_symmetry(self):
        g = DomainGrid(64, 64)
        f = np.sin(TWO_PI * g.x1) * np.ones(g.shape)
        assert abs(g.integrate(f)) <= 1e-13

    def test_cos_squared(self):
        g = DomainGrid(64, 64)
        f = np.cos(TWO_PI * g.x1) ** 2 * np.ones(g.shape)
        assert abs(g.integrate(f) - 0.5) <= 1e-13
