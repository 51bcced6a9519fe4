import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from moduliflow.hyperbolic import (
    FUNDAMENTAL_DOMAIN_AREA,
    FUNDAMENTAL_DOMAIN_Y_MIN,
    DegenerateInputError,
    FundamentalDomainBinning,
    ModularMatrix,
    ReductionError,
    UpperHalfPoint,
    _cell_mass_centroid,
    hyperbolic_laplacian_fd,
    mobius_apply,
    mobius_apply_xy,
    reduce_points,
    reduce_to_fundamental_domain,
)
from oracles import (
    hyperbolic_distance,
    inverse,
    inversion,
    is_identity,
    product,
    translation,
)


class TestUpperHalfPoint:
    def test_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            UpperHalfPoint(math.nan, 1.0)
        with pytest.raises(ValueError):
            UpperHalfPoint(0.0, math.inf)


class TestModularMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            ModularMatrix(1, 0, 0, 2)
        with pytest.raises(ValueError):
            ModularMatrix(2, 0, 0, 2)

    def test_entries_must_be_integers(self):
        with pytest.raises(TypeError):
            ModularMatrix(1.0, 0, 0, 1)

    def test_generators(self):
        assert is_identity(product())
        t = translation(3)
        assert (t.a, t.b, t.c, t.d) == (1, 3, 0, 1)
        s = inversion()
        assert (s.a, s.b, s.c, s.d) == (0, -1, 1, 0)

    def test_product_and_inverse_are_exact_integer_arithmetic(self, rng):
        mats = [product()]
        for _ in range(40):
            n = int(rng.integers(-6, 7))
            g = product(mats[-1], translation(n), inversion())
            assert g.a * g.d - g.b * g.c == 1
            assert is_identity(product(g, inverse(g)))
            mats.append(g)

    def test_minus_identity_counts_as_identity(self):
        assert is_identity(ModularMatrix(-1, 0, 0, -1))


class TestMobius:
    def test_inversion_fixes_i(self):
        z = mobius_apply(inversion(), UpperHalfPoint(0.0, 1.0))
        assert z.x == 0.0 and z.y == 1.0

    def test_unit_translation(self):
        z = mobius_apply(translation(1), UpperHalfPoint(0.3, 2.0))
        assert z.x == 1.3 and z.y == 2.0

    def test_known_image_of_i(self):
        # (2i + 1)/(i + 1) = (3 + i)/2, exact in float arithmetic.
        z = mobius_apply(ModularMatrix(2, 1, 1, 1), UpperHalfPoint(0.0, 1.0))
        assert z.x == 1.5 and z.y == 0.5

    def test_against_complex_division_oracle(self, rng):
        for _ in range(200):
            g = product()
            for _ in range(int(rng.integers(1, 6))):
                g = product(g, translation(int(rng.integers(-4, 5))), inversion())
            x = float(rng.uniform(-4, 4))
            y = float(np.exp(rng.uniform(-2, 2)))
            w = (g.a * complex(x, y) + g.b) / (g.c * complex(x, y) + g.d)
            img = mobius_apply(g, UpperHalfPoint(x, y))
            scale = max(1.0, abs(w))
            assert abs(img.x - w.real) <= 1e-13 * scale
            assert abs(img.y - w.imag) <= 1e-13 * scale

    def test_array_form_broadcasts(self, rng):
        x = rng.uniform(-2, 2, (5, 7))
        y = np.exp(rng.uniform(-1, 1, (5, 7)))
        xp, yp = mobius_apply_xy(2, 1, 1, 1, x, y)
        assert xp.shape == (5, 7) and yp.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                w = (2 * complex(x[i, j], y[i, j]) + 1) / (complex(x[i, j], y[i, j]) + 1)
                assert abs(xp[i, j] - w.real) <= 1e-13
                assert abs(yp[i, j] - w.imag) <= 1e-13


def _in_domain(x, y, tol=0.0):
    return (-0.5 - tol <= x <= 0.5 + tol) and (x * x + y * y >= 1.0 - tol)


class TestReduction:
    def test_interior_point_is_returned_unchanged(self):
        z = UpperHalfPoint(0.1, 1.5)
        red, g = reduce_to_fundamental_domain(z)
        assert red is z
        assert is_identity(g)

    def test_known_reduction(self):
        # 2.7 + 0.5i reduces to -2/17 + (25/17)i (via T^-3 then S then T).
        red, g = reduce_to_fundamental_domain(UpperHalfPoint(2.7, 0.5))
        assert abs(red.x - (-2.0 / 17.0)) <= 1e-12
        assert abs(red.y - 25.0 / 17.0) <= 1e-12
        img = mobius_apply(g, UpperHalfPoint(2.7, 0.5))
        assert abs(img.x - red.x) <= 1e-10
        assert abs(img.y - red.y) <= 1e-10

    def test_half_boundary_maps_to_negative_side(self):
        red, g = reduce_to_fundamental_domain(UpperHalfPoint(0.5, 2.0))
        assert red.x == -0.5 and red.y == 2.0
        assert (g.a, g.b, g.c, g.d) == (1, -1, 0, 1)

    def test_unit_circle_tie_prefers_nonpositive_real_part(self):
        # Hunt for float pairs landing exactly on |z|^2 == 1 with 0 < x < 1/2
        # (the genuine tie: no translation applies, only the circle rule).
        found = 0
        for x in np.linspace(0.05, 0.4999, 4001):
            x = float(x)
            y = math.sqrt(1.0 - x * x)
            if x * x + y * y == 1.0:
                found += 1
                red, g = reduce_to_fundamental_domain(UpperHalfPoint(x, y))
                assert red.x == -x and red.y == y
                assert red.x * red.x + red.y * red.y == 1.0
        assert found > 100  # the manifold of exact hits is easy to sample

    def test_membership_witness_idempotence_random(self, rng):
        for _ in range(500):
            x = float(rng.uniform(-8, 8))
            y = float(np.exp(rng.uniform(-4, 3)))
            z = UpperHalfPoint(x, y)
            red, g = reduce_to_fundamental_domain(z)
            assert _in_domain(red.x, red.y, tol=1e-12)
            assert g.a * g.d - g.b * g.c == 1
            img = mobius_apply(g, z)
            assert abs(img.x - red.x) <= 1e-10 and abs(img.y - red.y) <= 1e-10
            again, g2 = reduce_to_fundamental_domain(red)
            assert again.x == red.x and again.y == red.y  # bitwise
            assert is_identity(g2)

    def test_batch_agrees_bitwise_with_scalar(self, rng):
        x = rng.uniform(-8, 8, 2000)
        y = np.exp(rng.uniform(-4, 3, 2000))
        bx, by = reduce_points(x, y)
        for i in range(2000):
            red, _ = reduce_to_fundamental_domain(UpperHalfPoint(x[i], y[i]))
            assert bx[i] == red.x and by[i] == red.y

    def test_batch_preserves_shape_and_validates(self, rng):
        x = rng.uniform(-2, 2, (3, 4))
        y = np.exp(rng.uniform(-1, 1, (3, 4)))
        bx, by = reduce_points(x, y)
        assert bx.shape == (3, 4) and by.shape == (3, 4)
        with pytest.raises(ValueError):
            reduce_points(x, y[:2])
        with pytest.raises(ValueError):
            reduce_points(np.array([0.0]), np.array([-1.0]))

    def test_iteration_cap_raises(self):
        with pytest.raises(ReductionError) as info:
            reduce_points(np.array([3.7]), np.array([0.2]), max_iter=1)
        assert info.value.iterations == 1

    def test_underflowing_modulus_is_degenerate(self):
        # The iterates of 0.1 + 1e-300i reach x = 0 with y near 1e-269, where
        # |z|^2 underflows to 0 and -1/z cannot be formed.
        with pytest.raises(DegenerateInputError):
            reduce_to_fundamental_domain(UpperHalfPoint(0.1, 1e-300))

    def test_underflowing_modulus_is_degenerate_in_the_batch_path_too(self):
        # Raised before the inversion, so no division by zero warns on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError):
                reduce_points(np.array([0.1, 0.3]), np.array([1e-300, 2.0]))


_points = st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(1e-6, 1e6, allow_nan=False),
)


class TestReductionProperties:
    @settings(max_examples=200, deadline=None)
    @given(point=_points)
    def test_batch_equals_scalar_bit_for_bit(self, point):
        red, _ = reduce_to_fundamental_domain(UpperHalfPoint(*point))
        bx, by = reduce_points([point[0]], [point[1]])
        assert bx[0] == red.x and by[0] == red.y

    @settings(max_examples=200, deadline=None)
    @given(point=_points)
    def test_result_is_canonical(self, point):
        red, _ = reduce_to_fundamental_domain(UpperHalfPoint(*point))
        assert -0.5 <= red.x < 0.5
        assert red.x * red.x + red.y * red.y >= 1.0

    @settings(max_examples=200, deadline=None)
    @given(point=_points)
    def test_reduction_is_idempotent_bit_for_bit(self, point):
        red, _ = reduce_to_fundamental_domain(UpperHalfPoint(*point))
        again, g = reduce_to_fundamental_domain(red)
        assert again.x == red.x and again.y == red.y
        assert is_identity(g)


_MARGIN = 1e-6


@st.composite
def _inside_points(draw):
    """Points at least _MARGIN inside the fundamental domain, with y up to
    2e3, spread evenly in log y."""
    x = draw(st.floats(-0.5 + _MARGIN, 0.5 - _MARGIN))
    y_min = math.sqrt((1.0 + _MARGIN) ** 2 - x * x)
    return x, max(y_min, draw(st.floats(math.log(y_min), math.log(2e3)).map(math.exp)))


_words = st.lists(
    st.one_of(st.integers(-3, 3).map(translation), st.just(inversion())),
    max_size=6,
).map(lambda word: product(*word))


def _assert_reduces_to(image, point):
    rx, ry = reduce_points([image.x], [image.y])
    scale = 1e-9 * math.hypot(*point)
    assert abs(rx[0] - point[0]) <= scale and abs(ry[0] - point[1]) <= scale


class TestModularInvariance:
    @settings(max_examples=300, deadline=None)
    @given(point=_inside_points(), g=_words)
    # Images within 1e-3 of the real axis: -1/z and 3 - 1/z of a tall z.
    @example(point=(0.1, 1.5e3), g=inversion())
    @example(point=(-0.499999, 1.9e3), g=product(translation(3), inversion()))
    def test_image_under_a_word_reduces_to_the_point(self, point, g):
        _assert_reduces_to(mobius_apply(g, UpperHalfPoint(*point)), point)

    # Words of six factors with |n| <= 3 keep |x| below 20 on the domain, so
    # far images are drawn as translates.
    @settings(max_examples=100, deadline=None)
    @given(point=_inside_points(),
           n=st.integers(1000, 10**6).flatmap(lambda n: st.sampled_from([n, -n])))
    def test_far_translate_reduces_to_the_point(self, point, n):
        _assert_reduces_to(mobius_apply(translation(n), UpperHalfPoint(*point)), point)


class TestDistance:
    def test_identity_of_indiscernibles(self):
        p = UpperHalfPoint(0.2, 3.0)
        assert hyperbolic_distance(p, p) == 0.0

    def test_vertical_geodesic(self):
        d = hyperbolic_distance(UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.0, math.e))
        assert abs(d - 1.0) <= 1e-14

    def test_symmetry_and_isometry_invariance(self, rng):
        p = UpperHalfPoint(0.0, 1.0)
        q = UpperHalfPoint(1.0, 1.0)
        assert hyperbolic_distance(p, q) == hyperbolic_distance(q, p)
        for _ in range(50):
            g = product()
            for _ in range(int(rng.integers(1, 5))):
                g = product(g, translation(int(rng.integers(-3, 4))), inversion())
            d0 = hyperbolic_distance(p, q)
            d1 = hyperbolic_distance(mobius_apply(g, p), mobius_apply(g, q))
            assert abs(d0 - d1) <= 1e-12 * max(1.0, d0)


class TestLaplacianFD:
    def test_harmonic_coordinate(self):
        # y is harmonic: the quadratic growth of the metric kills log-type
        # terms and leaves -y^2 * y'' = 0.
        val = hyperbolic_laplacian_fd(lambda x, y: y, UpperHalfPoint(0.3, 2.0), 0.01)
        assert abs(val) <= 1e-8

    def test_sqrt_y_eigenfunction(self):
        # Delta sqrt(y) = sqrt(y)/4, the bottom of the spectrum.
        val = hyperbolic_laplacian_fd(
            lambda x, y: math.sqrt(y), UpperHalfPoint(0.0, 1.0), 0.01
        )
        assert abs(val - 0.25) <= 1e-4

    def test_log_y(self):
        val = hyperbolic_laplacian_fd(
            lambda x, y: math.log(y), UpperHalfPoint(0.3, 2.0), 0.01
        )
        assert abs(val - 1.0) <= 1e-4

    def test_stencil_stays_in_half_plane(self):
        with pytest.raises(ValueError):
            hyperbolic_laplacian_fd(lambda x, y: y, UpperHalfPoint(0.0, 0.05), 0.1)
        with pytest.raises(ValueError):
            hyperbolic_laplacian_fd(lambda x, y: y, UpperHalfPoint(0.0, 1.0), 0.0)


class TestCellMass:
    def test_degenerate_cells_have_zero_mass(self):
        assert _cell_mass_centroid(0.2, 0.2, 1.0, 2.0)[0] == 0.0
        assert _cell_mass_centroid(0.0, 0.1, 1.5, 1.5)[0] == 0.0

    def test_closed_form_above_the_arc(self):
        # For y_lo >= 1 the inner integral is exact: (1/y_lo - 1/y_hi) * dx.
        got = _cell_mass_centroid(-0.25, 0.25, 1.5, 4.0)[0]
        assert abs(got - 0.5 * (1 / 1.5 - 1 / 4.0)) <= 1e-15

    def test_arc_crossing_cell_against_adaptive_quadrature(self):
        scipy = pytest.importorskip("scipy")
        from scipy.integrate import quad

        x_lo, x_hi, y_lo, y_hi = 0.3, 0.4, 0.9, 1.1

        def column(x):
            lower = max(y_lo, math.sqrt(1.0 - x * x))
            return max(0.0, 1.0 / lower - 1.0 / y_hi)

        oracle, aerr = quad(column, x_lo, x_hi, epsabs=1e-13, limit=200)
        got = _cell_mass_centroid(x_lo, x_hi, y_lo, y_hi)[0]
        assert abs(got - oracle) <= 1e-6

    def test_total_mass_and_overflow(self, binning60):
        total = binning60.total_raw_mass()
        assert abs(total - FUNDAMENTAL_DOMAIN_AREA) <= 1e-5 * FUNDAMENTAL_DOMAIN_AREA
        assert abs(binning60.overflow_mass - 0.1) <= 1e-12
        # The split is independent of where the cusp truncation sits.
        low = FundamentalDomainBinning(40, 40, 3.0)
        assert abs(low.total_raw_mass() - FUNDAMENTAL_DOMAIN_AREA) <= 1e-5

    def test_refinement_converges_at_second_order(self):
        errs = []
        for n in (15, 30, 60):
            b = FundamentalDomainBinning(n, n, 10.0)
            errs.append(abs(b.total_raw_mass() - FUNDAMENTAL_DOMAIN_AREA))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0


class TestBinning:
    def test_validation(self):
        with pytest.raises(ValueError):
            FundamentalDomainBinning(1, 10, 10.0)
        with pytest.raises(ValueError):
            FundamentalDomainBinning(10, 10, 0.9)

    def test_every_reduced_point_lands_in_a_live_bin(self, binning60, rng):
        x = rng.uniform(-8, 8, 3000)
        y = np.exp(rng.uniform(-3, 3, 3000))
        rx, ry = reduce_points(x, y)
        idx = binning60.bin_index_array(rx, ry)
        assert np.all(idx >= 0)
        assert np.all(idx <= binning60.n_bins)
        live = idx[idx < binning60.n_bins]
        assert np.all(binning60.raw_mass[live] > 0.0)

    def test_lookup_follows_the_cell_bounds(self, rng):
        # Bins fine enough in y that cells lie wholly under the arc near x = 0.
        b = FundamentalDomainBinning(12, 40, 2.0)
        x = rng.uniform(-0.5, 0.5, 2000)
        y = rng.uniform(b.y_min, 1.2 * b.y_max, 2000)
        idx = b.bin_index_array(x, y)
        # [point, live bin]: the point is in the bin's column, and in the bin.
        column = (b.x_lo <= x[:, None]) & (x[:, None] < b.x_lo + b.dx)
        inside = column & (b.y_lo <= y[:, None]) & (y[:, None] < b.y_lo + b.dy)
        over = y > b.y_max
        live = inside.any(axis=1)
        dead = ~live & ~over
        assert over.any() and live.any() and dead.any()
        assert np.all(idx[over] == b.n_bins)
        assert np.array_equal(idx[live], inside[live].argmax(axis=1))
        lowest = np.where(column, b.y_lo, np.inf).argmin(axis=1)
        assert np.array_equal(idx[dead], lowest[dead])
        assert np.all(y[dead] < b.y_lo[lowest[dead]])

    def test_dead_cells_redirect_downward(self):
        # Fine vertical bins leave whole cells under the arc; lookups there
        # must still resolve to the lowest live cell of the column.
        b = FundamentalDomainBinning(60, 200, 2.0)
        idx = int(b.bin_index_array(0.0, 0.9))  # under the arc at x = 0
        assert 0 <= idx < b.n_bins
        assert b.raw_mass[idx] > 0.0
        assert b.x_lo[idx] == -0.5 + 30 * b.dx  # same column as the query

    def test_centers_are_inside_their_cells(self, binning60):
        b = binning60
        assert np.all(b.center_x >= b.x_lo - 1e-12)
        assert np.all(b.center_x <= b.x_lo + b.dx + 1e-12)
        assert np.all(b.center_y >= b.y_lo - 1e-12)
        assert np.all(b.center_y <= b.y_lo + b.dy + 1e-12)
        r2 = b.center_x**2 + b.center_y**2
        assert np.all(r2 >= 1.0 - 1e-3)  # centroids hug the clipped region

    def test_matches(self, binning60, small_binning):
        assert binning60.matches(FundamentalDomainBinning(60, 60, 10.0))
        assert not binning60.matches(small_binning)
