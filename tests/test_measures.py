import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import dblquad

from moduliflow.cli import _audit_rows
from moduliflow.flow import FlowParams, MapState, run_flow
from moduliflow.hyperbolic import (
    FundamentalDomainBinning,
    ModularMatrix,
    mobius_apply_xy,
)
from moduliflow.initial import build_initial_state
from moduliflow.measures import (
    BinningMismatchError,
    PushforwardMeasure,
    entropy_from_masses,
    entropy_report,
    ergodic_error_from_measures,
    pushforward,
    measure_rows,
    prefix_averages,
    reference_measure,
    time_average,
    write_measure,
)
from moduliflow.mesh import DomainGrid
from moduliflow.testfunctions import BumpFunction
from oracles import (
    ConstantOne,
    Recorded,
    WindowedHarmonic,
    laplacian_invariance_diagnostic,
    support_box,
    weak_star_pairing,
    weak_star_pairing_exact,
)


def _constant_state(grid, x0, y0, t=0.0):
    return MapState(grid, np.full(grid.shape, x0), np.full(grid.shape, y0), t)


def _errors(mus, fs, nu):
    """ergodic_error_from_measures of the measures mus, their masses drawn
    one at a time."""
    return ergodic_error_from_measures([m.t for m in mus], (m.masses for m in mus), fs, nu)


def _rows(measures):
    return measure_rows(np.array([m.masses for m in measures]))


class _Combined:
    """a*f + b*g with the union support box, for linearity checks."""

    def __init__(self, a, f, b, g):
        self.a, self.f, self.b, self.g = a, f, b, g
        fx_lo, fx_hi, fy_lo, fy_hi = support_box(f)
        gx_lo, gx_hi, gy_lo, gy_hi = support_box(g)
        self.support_box = (min(fx_lo, gx_lo), max(fx_hi, gx_hi),
                            min(fy_lo, gy_lo), max(fy_hi, gy_hi))
        self.overflow_value = 0.0

    def value(self, x, y):
        return self.a * self.f.value(x, y) + self.b * self.g.value(x, y)


class TestPushforward:
    def test_constant_map_is_a_dirac(self, grid64, binning60):
        mu = pushforward(_constant_state(grid64, 0.1, 1.3), binning60)
        b = int(binning60.bin_index_array(0.1, 1.3))
        assert mu.masses[b] == 1.0
        assert mu.masses.sum() == 1.0
        assert mu.masses[-1] == 0.0

    def test_two_level_split_is_exact(self, grid64, binning60):
        u = np.full(grid64.shape, 0.1)
        v = np.full(grid64.shape, 1.3)
        v[: grid64.n1 // 2, :] = 2.4
        mu = pushforward(MapState(grid64, u, v), binning60)
        assert mu.masses[int(binning60.bin_index_array(0.1, 1.3))] == 0.5
        assert mu.masses[int(binning60.bin_index_array(0.1, 2.4))] == 0.5

    def test_overflow_routing(self, grid64, binning60):
        mu = pushforward(_constant_state(grid64, 0.0, 25.0), binning60)
        assert mu.masses[-1] == 1.0

    def test_unreduced_input_lands_in_the_domain(self, grid64, binning60):
        # The image is reduced before binning, so translates of an interior
        # point give the identical histogram.
        mu0 = pushforward(_constant_state(grid64, 0.13, 1.3), binning60)
        mu7 = pushforward(_constant_state(grid64, 7.13, 1.3), binning60)
        assert np.array_equal(mu0.masses, mu7.masses)

    def test_modular_composition_is_bit_identical(self, binning60, rng):
        gammas = [ModularMatrix(1, 1, 0, 1), ModularMatrix(0, -1, 1, 0),
                  ModularMatrix(2, 1, 1, 1)]
        for trial in range(2):
            grid = DomainGrid(32, 32)
            state = build_initial_state(
                grid,
                {"kind": "random", "v0": 1.45, "amp_u": 0.37, "amp_v": 0.33},
                rng=rng,
            )
            base = pushforward(state, binning60)
            for gamma in gammas:
                gu, gv = mobius_apply_xy(
                    gamma.a, gamma.b, gamma.c, gamma.d, state.u, state.v
                )
                moved = pushforward(MapState(grid, gu, gv), binning60)
                assert np.array_equal(moved.masses, base.masses)

    def test_measure_validation(self, binning60):
        bad = np.zeros(binning60.n_bins + 1)
        with pytest.raises(ValueError):
            PushforwardMeasure(binning60, bad)  # total mass 0
        bad2 = np.full(binning60.n_bins + 1, 1.0 / (binning60.n_bins + 1))
        bad2[0] = -bad2[0]
        with pytest.raises(ValueError):
            PushforwardMeasure(binning60, np.abs(bad2)[:-1])  # wrong length
        with pytest.raises(ValueError):
            PushforwardMeasure(binning60, bad2 / bad2.sum())  # negative entry


class TestReferenceMeasure:
    def test_full_support_and_unit_mass(self, binning60):
        nu = reference_measure(binning60)
        assert np.all(nu.masses > 0.0)
        assert abs(nu.masses.sum() - 1.0) <= 1e-12

    def test_overflow_fraction(self, binning60):
        # Mass above y_max is 1/y_max of the raw total pi/3.
        nu = reference_measure(binning60)
        expected = (1.0 / binning60.y_max) / (math.pi / 3.0)
        assert abs(nu.masses[-1] - expected) <= 1e-6
        assert abs(expected - 0.09549296585513721) <= 1e-15

    def test_consistent_across_binnings(self, binning60, small_binning):
        nu_small = reference_measure(small_binning)
        assert abs(nu_small.masses.sum() - 1.0) <= 1e-12
        # Raw totals both approximate pi/3.
        nu60 = reference_measure(binning60)
        assert abs(nu60.raw_total - math.pi / 3.0) <= 1e-3 * (math.pi / 3.0)
        assert abs(nu_small.raw_total - math.pi / 3.0) <= 2e-2 * (math.pi / 3.0)


class TestRadonNikodym:
    def test_identity_density(self, binning60):
        nu = reference_measure(binning60)
        mu = PushforwardMeasure(binning60, nu.masses.copy())
        assert np.all(mu.masses / nu.masses == 1.0)

    def test_concentrated_density(self, grid64, binning60):
        nu = reference_measure(binning60)
        mu = pushforward(_constant_state(grid64, 0.1, 1.3), binning60)
        rho = mu.masses / nu.masses
        b = int(binning60.bin_index_array(0.1, 1.3))
        assert rho[b] == 1.0 / nu.masses[b]
        assert float(np.dot(rho, nu.masses)) == pytest.approx(1.0, rel=1e-13)

    def test_binning_mismatch_raises(self, grid64, binning60, small_binning):
        state = _constant_state(grid64, 0.1, 1.3)
        with pytest.raises(BinningMismatchError):
            entropy_report(state, pushforward(state, small_binning),
                           reference_measure(binning60), 10.0, 1e-8)


class TestEntropy:
    def test_equal_measures_have_zero_entropy(self, binning60):
        nu = reference_measure(binning60)
        assert entropy_from_masses(nu.masses.copy(), nu.masses) == 0.0

    def test_two_bin_value(self):
        h = entropy_from_masses([0.5, 0.5], [0.25, 0.75])
        assert abs(h - 0.5 * math.log(4.0 / 3.0)) <= 1e-15

    def test_nonnegative_on_random_histograms(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 12))
            nu = rng.random(n) + 1e-3
            nu /= nu.sum()
            mu = rng.random(n)
            mu[rng.random(n) < 0.2] = 0.0  # exercise the 0 log 0 branch
            if mu.sum() == 0.0:
                continue
            mu /= mu.sum()
            assert entropy_from_masses(mu, nu) >= -1e-12

    def test_merging_bins_never_increases_entropy(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 16))
            nu = rng.random(n) + 1e-3
            nu /= nu.sum()
            mu = rng.random(n)
            mu /= mu.sum()
            h_fine = entropy_from_masses(mu, nu)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            mu_c = np.delete(mu, j)
            nu_c = np.delete(nu, j)
            mu_c[i] += mu[j]
            nu_c[i] += nu[j]
            assert entropy_from_masses(mu_c, nu_c) <= h_fine + 1e-12

    def test_quantized_self_reference_is_exactly_zero(self, grid64, binning60):
        # A state whose image sits at bin centroids gives a mu with rational
        # masses; measured against itself the entropy is exactly 0.
        k = np.arange(grid64.n1 * grid64.n2) % 7
        cx = binning60.center_x[100 + 13 * k]
        cy = binning60.center_y[100 + 13 * k]
        u = cx.reshape(grid64.shape).copy()
        v = cy.reshape(grid64.shape).copy()
        mu = pushforward(MapState(grid64, u, v), binning60)
        assert entropy_from_masses(mu.masses, mu.masses) == 0.0

    def test_mass_off_support_raises(self):
        with pytest.raises(ValueError):
            entropy_from_masses([0.5, 0.5], [1.0, 0.0])


class TestWeakStarPairing:
    def test_constant_one_gives_total_mass(self, grid64, binning60):
        state = build_initial_state(grid64, {"kind": "sinusoidal"})
        mu = pushforward(state, binning60)
        assert abs(weak_star_pairing(mu, ConstantOne()) - 1.0) <= 1e-12
        nu = reference_measure(binning60)
        assert abs(weak_star_pairing(nu, ConstantOne()) - 1.0) <= 1e-12

    def test_dirac_at_a_centroid_is_sharp(self, grid64, binning60):
        b = 1830
        cx, cy = float(binning60.center_x[b]), float(binning60.center_y[b])
        f = BumpFunction([0.0, 1.5], [0.45, 0.6])
        mu = pushforward(_constant_state(grid64, cx, cy), binning60)
        assert weak_star_pairing(mu, f) == f.value(cx, cy)

    def test_exact_pairing_of_a_dirac(self, grid64, binning60):
        f = BumpFunction([0.0, 1.5], [0.45, 0.6])
        state = _constant_state(grid64, 0.07, 1.42)
        got = weak_star_pairing_exact(state, f)
        assert abs(got - f.value(0.07, 1.42)) <= 1e-12

    def test_binned_pairing_converges_to_the_exact_one(self, binning60):
        # The centroid rule is second order in the bin width; refining the
        # binning 4x in each direction shrinks the gap ~16x.
        state = build_initial_state(
            DomainGrid(64, 64),
            {"kind": "sinusoidal", "v0": 1.5, "amp_u": 0.15, "amp_v": 0.1},
        )
        f = BumpFunction([0.0, 1.5], [0.35, 0.45])
        exact = weak_star_pairing_exact(state, f)
        coarse = abs(weak_star_pairing(pushforward(state, binning60), f) - exact)
        fine_binning = FundamentalDomainBinning(240, 240, 10.0)
        fine = abs(weak_star_pairing(pushforward(state, fine_binning), f) - exact)
        assert fine <= 2e-3
        assert coarse / fine >= 8.0

    def test_reference_pairing_against_quadrature(self, binning60):
        # Continuum pairing of the hyperbolic measure with a bump whose
        # support stays above the unit-circle arc, by adaptive quadrature.
        f = BumpFunction([0.0, 1.5], [0.35, 0.45])
        val, quad_err = dblquad(
            lambda y, x: f.value(x, y) / y**2, -0.35, 0.35, 1.05, 1.95,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert quad_err <= 1e-9
        target = val / (math.pi / 3.0)
        nu60 = reference_measure(binning60)
        assert abs(weak_star_pairing(nu60, f) - target) <= 1e-4
        fine = FundamentalDomainBinning(60, 200, 10.0)
        assert abs(weak_star_pairing(reference_measure(fine), f) - target) <= 2e-5


class TestTimeAverage:
    def _dirac(self, grid, binning, x0, y0, t):
        return pushforward(_constant_state(grid, x0, y0, t), binning)

    def test_two_equal_gaps_give_the_mean(self, grid64, binning60):
        mu0 = self._dirac(grid64, binning60, 0.1, 1.3, 0.0)
        mu1 = self._dirac(grid64, binning60, -0.2, 2.4, 1.0)
        avg = time_average([mu0, mu1])
        b0 = int(binning60.bin_index_array(0.1, 1.3))
        b1 = int(binning60.bin_index_array(-0.2, 2.4))
        assert avg.masses[b0] == 0.5 and avg.masses[b1] == 0.5

    def test_identical_times_degrade_to_plain_mean(self, grid64, binning60):
        mu0 = self._dirac(grid64, binning60, 0.1, 1.3, 0.5)
        mu1 = self._dirac(grid64, binning60, -0.2, 2.4, 0.5)
        avg = time_average([mu0, mu1])
        assert avg.masses[int(binning60.bin_index_array(0.1, 1.3))] == 0.5

    def test_matches_dense_resampling_oracle(self, grid64, binning60):
        # Trapezoid weights on uneven stamps == dense trapezoid quadrature of
        # the piecewise-constant-in-snapshot masses interpolated linearly.
        times = [0.0, 0.3, 1.0]
        mus = [self._dirac(grid64, binning60, 0.1, 1.3, times[0]),
               self._dirac(grid64, binning60, -0.2, 2.4, times[1]),
               self._dirac(grid64, binning60, 0.05, 4.1, times[2])]
        avg = time_average(mus)
        t_dense = np.linspace(0.0, 1.0, 100001)
        stack = np.stack([m.masses for m in mus])
        live = np.where(stack.any(axis=0))[0]  # only a few bins carry mass
        dense = np.empty((len(t_dense), len(live)))
        for k, col in enumerate(live):
            dense[:, k] = np.interp(t_dense, times, stack[:, col])
        oracle_live = np.trapezoid(dense, t_dense, axis=0)
        oracle_live /= oracle_live.sum()
        assert float(np.abs(avg.masses[live] - oracle_live).max()) <= 1e-12
        dead = np.setdiff1d(np.arange(stack.shape[1]), live)
        assert np.all(avg.masses[dead] == 0.0)

    def test_validation(self, grid64, binning60, small_binning):
        mu0 = self._dirac(grid64, binning60, 0.1, 1.3, 0.0)
        mu1 = self._dirac(grid64, binning60, -0.2, 2.4, 1.0)
        with pytest.raises(ValueError):
            time_average([mu0])
        with pytest.raises(ValueError):
            time_average([mu1, mu0])  # unsorted
        with pytest.raises(ValueError):
            time_average([mu0, mu1], t_end=0.5)  # beyond t_end
        other = self._dirac(grid64, small_binning, 0.1, 1.3, 2.0)
        with pytest.raises(BinningMismatchError):
            time_average([mu0, other])


class TestPrefixAverages:
    @staticmethod
    def _measures(binning, rng, times):
        mus = []
        for t in times:
            masses = rng.random(binning.n_bins + 1) * (rng.random(binning.n_bins + 1) < 0.3)
            mus.append(PushforwardMeasure(binning, masses / masses.sum(), t))
        return mus

    def test_each_prefix_is_time_average_of_that_prefix_bit_for_bit(self, binning60, rng):
        # The first two measures share a time, so the two-measure prefix
        # spans none; the later ones advance unevenly.
        mus = self._measures(binning60, rng, [0.25, 0.25, 0.5, 0.625, 1.1, 1.1, 2.0])
        averages = list(prefix_averages([m.t for m in mus], (m.masses for m in mus)))
        assert len(averages) == len(mus)
        assert averages[0] is mus[0].masses
        plain = mus[0].masses + mus[1].masses
        assert averages[1].tobytes() == (plain / plain.sum()).tobytes()
        for k in range(1, len(mus)):
            assert averages[k].tobytes() == time_average(mus[: k + 1]).masses.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_rejected(self, binning60, rng, bad):
        mus = self._measures(binning60, rng, [0.0, 1.0])
        mus[1].t = bad
        with pytest.raises(ValueError, match="finite"):
            time_average(mus)
        with pytest.raises(ValueError, match="finite"):
            _errors(mus[1:], [ConstantOne()], reference_measure(binning60))

    def test_ergodic_series_needs_memory_of_a_few_measures(self, binning60, rng):
        # 1000 measures share four mass vectors, so the inputs cost little;
        # a (K, bins) stack alone would be 1000 vectors.
        shared = self._measures(binning60, rng, [0.0] * 4)
        mus = [PushforwardMeasure(binning60, shared[k % 4].masses, 0.01 * k)
               for k in range(1000)]
        f = BumpFunction([0.0, 1.5], [0.45, 0.6])
        nu = reference_measure(binning60)
        tracemalloc.start()
        try:
            errs = _errors(mus, [f], nu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert errs.shape == (1000, 1)
        assert peak < 20 * (binning60.n_bins + 1) * 8


def _snapshots(initial, params) -> list:
    """Every snapshot's state of run_flow from initial, from a Recorded
    record."""
    recorded = Recorded()
    traj = run_flow(initial, params, recorded)
    return recorded.snapshots(traj, params.stall_threshold)


class TestErgodicError:
    def test_constant_observable_has_no_error(self, grid64, binning60):
        snaps = _snapshots(_constant_state(grid64, 0.1, 1.3), FlowParams(t_final=0.2))
        mus = [pushforward(s, binning60) for s in snaps]
        errs = _errors(mus, [ConstantOne()],
                                           reference_measure(binning60))[:, 0]
        assert float(np.abs(errs).max()) <= 1e-12

    def test_stationary_trajectory_has_constant_error(self, grid64, binning60):
        snaps = _snapshots(_constant_state(grid64, 0.1, 1.3), FlowParams(t_final=0.2))
        f = BumpFunction([0.0, 1.5], [0.45, 0.6])
        nu = reference_measure(binning60)
        mus = [pushforward(s, binning60) for s in snaps]
        errs = _errors(mus, [f], nu)[:, 0]
        mu0 = pushforward(snaps[0], binning60)
        expected = abs(weak_star_pairing(mu0, f) - weak_star_pairing(nu, f))
        assert np.all(np.abs(errs - expected) <= 1e-12)

    def test_matches_one_pass_reimplementation(self, binning60, rng):
        grid = DomainGrid(16, 16)
        state = build_initial_state(
            grid, {"kind": "random", "v0": 1.4, "amp_u": 0.3, "amp_v": 0.3},
            rng=rng,
        )
        snaps = _snapshots(state, FlowParams(t_final=0.15, snapshot_interval=0.03))
        f = BumpFunction([0.0, 1.4], [0.4, 0.5])
        nu = reference_measure(binning60)
        mus = [pushforward(s, binning60) for s in snaps]
        errs = _errors(mus, [f], nu)[:, 0]
        target = weak_star_pairing(nu, f)
        pairings = np.array([weak_star_pairing(m, f) for m in mus])
        times = np.array([m.t for m in mus])
        manual = [abs(pairings[0] - target)]
        for k in range(1, len(mus)):
            dt = np.diff(times[: k + 1])
            avg = float(np.sum(0.5 * dt * (pairings[:k] + pairings[1 : k + 1])))
            avg /= times[k] - times[0]
            manual.append(abs(avg - target))
        # The library averages measures then pairs; pairing is linear, so
        # averaging pairings must agree to rounding (the measure-side
        # renormalisation is exact for these unit-mass inputs).
        assert float(np.abs(errs - np.array(manual)).max()) <= 1e-12

    def test_equals_time_average_of_each_prefix_bit_for_bit(self, binning60, rng):
        grid = DomainGrid(16, 16)
        state = build_initial_state(
            grid, {"kind": "random", "v0": 1.4, "amp_u": 0.3, "amp_v": 0.3},
            rng=rng,
        )
        snaps = _snapshots(state, FlowParams(t_final=0.15, snapshot_interval=0.01))
        f = BumpFunction([0.0, 1.4], [0.4, 0.5])
        nu = reference_measure(binning60)
        mus = [pushforward(s, binning60) for s in snaps]
        target = weak_star_pairing(nu, f)
        oracle = [abs(weak_star_pairing(mus[0], f) - target)] + [
            abs(weak_star_pairing(time_average(mus[: k + 1]), f) - target)
            for k in range(1, len(mus))
        ]
        errs = _errors(mus, [f], nu)[:, 0]
        assert len(mus) > 10
        assert errs.tolist() == oracle

    def test_observable_is_evaluated_once_per_series(self, grid64, binning60):
        snaps = _snapshots(_constant_state(grid64, 0.1, 1.3), FlowParams(t_final=0.2))
        mus = [pushforward(s, binning60) for s in snaps]
        f = BumpFunction([0.0, 1.5], [0.45, 0.6])
        calls = []

        class Counted:
            def value(self, x, y):
                calls.append(np.shape(x))
                return f.value(x, y)

        errs = _errors(mus, [Counted()], reference_measure(binning60))[:, 0]
        assert errs.tolist() == _errors(mus, [f], reference_measure(binning60))[:, 0].tolist()
        assert calls == [(binning60.n_bins,)]

    def test_reference_on_another_binning_is_rejected(self, grid64, binning60,
                                                      small_binning):
        mu = pushforward(_constant_state(grid64, 0.1, 1.3), binning60)
        with pytest.raises(BinningMismatchError):
            _errors([mu], [ConstantOne()],
                                        reference_measure(small_binning))

    def test_unsorted_measures_are_rejected(self, grid64, binning60):
        mu0 = pushforward(_constant_state(grid64, 0.1, 1.3, 0.0), binning60)
        mu1 = pushforward(_constant_state(grid64, -0.2, 2.4, 1.0), binning60)
        with pytest.raises(ValueError):
            _errors([mu1, mu0], [ConstantOne()],
                                        reference_measure(binning60))


class TestLaplacianInvarianceDiagnostic:
    def test_dirac_matches_analytic_laplacian(self, binning60):
        b = 1830
        cx, cy = float(binning60.center_x[b]), float(binning60.center_y[b])
        masses = np.zeros(binning60.n_bins + 1)
        masses[b] = 1.0
        dirac = PushforwardMeasure(binning60, masses)
        f = BumpFunction([cx, cy], [0.3, 0.4])
        got = laplacian_invariance_diagnostic(dirac, f)
        hxx, _, hyy = f.hessian(cx, cy)
        exact = -(cy**2) * (hxx + hyy)
        assert abs(got - exact) <= 1e-5 * abs(exact)

    def test_linearity(self, grid64, binning60):
        state = build_initial_state(grid64, {"kind": "sinusoidal", "v0": 1.45})
        mu = pushforward(state, binning60)
        f = BumpFunction([0.0, 1.4], [0.3, 0.3])
        g = BumpFunction([0.1, 1.5], [0.25, 0.2])
        combined = _Combined(2.0, f, -0.5, g)
        lhs = laplacian_invariance_diagnostic(mu, combined)
        rhs = (2.0 * laplacian_invariance_diagnostic(mu, f)
               - 0.5 * laplacian_invariance_diagnostic(mu, g))
        assert abs(rhs) > 1.0  # the pairing is genuinely nonzero here
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale

    def test_harmonic_observable_on_its_plateau(self, binning60):
        # y is annihilated by the hyperbolic Laplacian, so any mass wholly
        # inside the plateau (where the window is identically 1) pairs to ~0.
        wh = WindowedHarmonic([0.0, 2.5], [0.45, 1.2], flat=0.5)
        px_lo, px_hi, py_lo, py_hi = wh.plateau_box
        inside = ((binning60.center_x > px_lo + 0.02)
                  & (binning60.center_x < px_hi - 0.02)
                  & (binning60.center_y > py_lo + 0.02)
                  & (binning60.center_y < py_hi - 0.02))
        masses = np.zeros(binning60.n_bins + 1)
        picks = np.where(inside)[0][:40]
        masses[picks] = 1.0 / len(picks)
        mu = PushforwardMeasure(binning60, masses)
        assert abs(laplacian_invariance_diagnostic(mu, wh)) <= 1e-6

    def test_boundary_support_warns(self, grid64, binning60):
        mu = pushforward(_constant_state(grid64, 0.1, 1.3), binning60)
        f = BumpFunction([0.45, 2.0], [0.2, 0.3])  # pokes past x = 1/2
        with pytest.warns(UserWarning):
            laplacian_invariance_diagnostic(mu, f)


class TestEntropyReport:
    def test_constant_map_report(self, grid64, binning60):
        nu = reference_measure(binning60)
        state = _constant_state(grid64, 0.1, 1.3, t=0.75)
        rep = entropy_report(state, pushforward(state, binning60), nu, 10.0, 1e-6)
        b = int(binning60.bin_index_array(0.1, 1.3))
        assert rep.t == 0.75
        assert rep.rho_max == 1.0 / nu.masses[b]
        assert rep.entropy == pytest.approx(math.log(rep.rho_max), rel=1e-14)
        assert rep.tail_mass == 1.0  # the single spike exceeds the threshold
        assert rep.degenerate_fraction == 1.0

    def test_matches_plain_loop_recompute(self, binning60, rng):
        from moduliflow.flow import jacobian_det

        grid = DomainGrid(32, 32)
        state = build_initial_state(
            grid, {"kind": "random", "v0": 1.4, "amp_u": 0.3, "amp_v": 0.3},
            rng=rng,
        )
        nu = reference_measure(binning60)
        mu = pushforward(state, binning60)
        rep = entropy_report(state, mu, nu, density_threshold=10.0,
                             jacobian_threshold=1e-6)
        h = rho_max = tail = 0.0
        for m, n in zip(mu.masses.tolist(), nu.masses.tolist()):
            if m > 0.0:
                h += m * math.log(m / n)
            rho_max = max(rho_max, m / n)
            if m / n > 10.0:
                tail += m
        jac = jacobian_det(state.fields, state.grid)
        degenerate = float(np.count_nonzero(np.abs(jac) < 1e-6)) / jac.size
        assert abs(rep.entropy - h) <= 1e-12 * max(1.0, abs(h))
        assert abs(rep.rho_max - rho_max) <= 1e-12 * rho_max
        assert abs(rep.tail_mass - tail) <= 1e-12
        assert rep.degenerate_fraction == degenerate

    def test_threshold_validation(self, grid64, binning60):
        nu = reference_measure(binning60)
        state = _constant_state(grid64, 0.1, 1.3)
        with pytest.raises(ValueError):
            entropy_report(state, pushforward(state, binning60), nu,
                           density_threshold=1.0, jacobian_threshold=1e-6)


# A measure on FundamentalDomainBinning(2, 2, 2.0) and its (bin, mass) rows.
GOLDEN_MASSES = [0.5, 0.0, 0.1, 0.30000000000000004, 0.1]
GOLDEN_ROWS = [[0, 0.5], [2, 0.1], [3, 0.30000000000000004], [4, 0.1]]


@st.composite
def _measures(draw):
    binning = FundamentalDomainBinning(
        draw(st.integers(4, 12)), draw(st.integers(4, 12)), 4.0
    )
    weights = draw(arrays(float, binning.n_bins + 1,
                          elements=st.floats(min_value=-0.0, max_value=1.0)))
    weights[draw(st.integers(0, binning.n_bins))] = 1.0
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return PushforwardMeasure(binning, weights / weights.sum(), t=draw(finite))


@st.composite
def _count_measures(draw):
    """Measures whose masses are node counts over their total, as pushforward
    makes them, so that every nonzero mass is far above MASS_TOL."""
    binning = FundamentalDomainBinning(draw(st.integers(2, 6)), draw(st.integers(2, 6)), 4.0)
    counts = draw(arrays(np.int64, binning.n_bins + 1, elements=st.integers(0, 5)))
    counts[draw(st.integers(0, binning.n_bins))] += 1
    return PushforwardMeasure(binning, counts / counts.sum(), t=0.5)


def _masses(path, binning, count):
    """The masses of the count measures whose rows the .npy file at path holds."""
    rows = np.load(path)
    masses = np.zeros((count, binning.n_bins + 1))
    masses[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    return masses


def _rejected(path, measures):
    """The ValueError message with which analyze's audit refuses the rows
    at path as those of measures; it names the file."""
    with pytest.raises(ValueError) as exc:
        _audit_rows(path, _rows(measures))
    assert str(path) in str(exc.value)
    return str(exc.value)


class TestMeasureIO:
    """write_measure saves measure_rows of some measures' masses, the one sparse
    format of a run's pushforwards; analyze accepts such a file only when it
    holds, byte for byte, the rows of the measures it recomputes."""

    @settings(max_examples=60, deadline=None)
    @given(mu=_measures())
    def test_round_trip_property(self, mu, tmp_path_factory):
        # A zero of either sign has no row, so it reads back as +0.0.
        path = tmp_path_factory.mktemp("measure") / "pushforwards.npy"
        write_measure(_rows([mu, mu]), path)
        for back in _masses(path, mu.binning, 2):
            assert back.tobytes() == (mu.masses + 0.0).tobytes()
        _audit_rows(path, _rows([mu, mu]))

    @pytest.mark.parametrize("edit", ["missing", "duplicated", "not_last"])
    def test_rows_are_the_bins_then_one_overflow_row(self, edit, small_binning, tmp_path):
        n = small_binning.n_bins
        mu = PushforwardMeasure(small_binning, np.full(n + 1, 1.0 / (n + 1)))
        path = tmp_path / "pushforwards.npy"
        write_measure(_rows([mu]), path)
        rows = np.load(path)
        assert rows[:, 1].tolist() == list(range(n + 1))
        if edit == "missing":
            rows = rows[:-1]
        elif edit == "duplicated":
            rows = np.vstack([rows, rows[-1:]])
        else:
            rows = np.vstack([rows[-1:], rows[:-1]])
        np.save(path, rows)
        _rejected(path, [mu])

    @pytest.mark.parametrize("edit, rows", [
        ("dropped_row", [[0, 0.5], [3, 0.30000000000000004], [4, 0.1]]),
        ("duplicated_bin", [[0, 0.5], [2, 0.1], [2, 0.1], [3, 0.30000000000000004], [4, 0.1]]),
        ("bins_out_of_order", [[2, 0.1], [0, 0.5], [3, 0.30000000000000004], [4, 0.1]]),
        ("bin_past_overflow", [[0, 0.5], [2, 0.1], [3, 0.30000000000000004], [5, 0.1]]),
        ("negative_bin", [[-1, 0.5], [2, 0.1], [3, 0.30000000000000004], [4, 0.1]]),
        ("fractional_bin", [[0, 0.5], [2, 0.1], [3.5, 0.30000000000000004], [4, 0.1]]),
        ("zero_mass", [[0, 0.5], [1, 0.0], [2, 0.1], [3, 0.30000000000000004], [4, 0.1]]),
        ("negative_mass", [[0, 0.501], [1, -1e-3], [2, 0.1], [3, 0.30000000000000004],
                           [4, 0.1]]),
        ("nan_mass", [[0, 0.5], [2, np.nan], [3, 0.30000000000000004], [4, 0.1]]),
        ("flipped_digit", [[0, 0.5], [2, 0.1], [3, 0.40000000000000004], [4, 0.1]]),
    ])
    def test_rows_that_are_not_a_sparse_measure_are_rejected(self, edit, rows, tmp_path):
        mu = PushforwardMeasure(FundamentalDomainBinning(2, 2, 2.0), GOLDEN_MASSES, t=0.25)
        assert _rows([mu]).tolist() == [[0, *row] for row in GOLDEN_ROWS]
        path = tmp_path / f"{edit}.npy"
        np.save(path, np.column_stack((np.zeros(len(rows)), rows)))
        assert "differs from the recomputed pushforward of state 0" in _rejected(path, [mu])

    @settings(max_examples=60, deadline=None)
    @given(mu=_count_measures(), data=st.data())
    def test_a_dropped_or_repeated_row_is_rejected(self, mu, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("measure") / "pushforwards.npy"
        write_measure(_rows([mu]), path)
        rows = np.load(path)
        row = data.draw(st.integers(0, len(rows) - 1))
        np.save(path, np.delete(rows, row, axis=0) if data.draw(st.booleans())
                else np.insert(rows, row, rows[row], axis=0))
        _rejected(path, [mu])

    def test_round_trip_is_bit_exact(self, grid64, binning60, tmp_path):
        state = build_initial_state(grid64, {"kind": "sinusoidal"})
        mu = pushforward(state, binning60)
        path = tmp_path / "pushforwards.npy"
        write_measure(_rows([mu]), path)
        assert _masses(path, binning60, 1)[0].tobytes() == mu.masses.tobytes()
        _audit_rows(path, _rows([mu]))

    def test_schema_and_shape_errors(self, grid64, binning60, tmp_path):
        mu = pushforward(_constant_state(grid64, 0.1, 1.3), binning60)
        bad = tmp_path / "bad.npy"
        bad.write_text("nope\n")
        _rejected(bad, [mu])
        np.save(bad, _rows([mu])[:, 1:])
        assert "shape" in _rejected(bad, [mu])
