import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from moduliflow import cli, flow as flow_module, table
from moduliflow.flow import (
    ENERGY_STEP_TOL,
    AbortedRunError,
    FlowParams,
    MapState,
    StepRejectedError,
    TangentField,
    cfl_dt_max,
    chain_rule_residual,
    dissipation_rate,
    energy,
    jacobian_det,
    read_snapshot,
    run_flow,
    step,
    tension_field,
    write_snapshot,
    _EdgeWorkspace,
    _divide_by,
    _edge_pass,
)
from moduliflow.initial import build_initial_state
from moduliflow.mesh import DomainGrid
from moduliflow.testfunctions import BumpFunction
from oracles import AffineFunction, reference_steps

TWO_PI = 2.0 * np.pi


def _constant_state(grid, u0=0.3, v0=1.7):
    return MapState(grid, np.full(grid.shape, u0), np.full(grid.shape, v0))


def _tension_oracle(state):
    """Plain-loop reimplementation of the discrete energy gradient.

    Deliberately index-by-index and roll-free so a vectorisation slip in the
    library cannot also hide here.
    """
    grid = state.grid
    n1, n2 = grid.shape
    u, v = state.u, state.v
    tau_u = np.zeros((n1, n2))
    tau_v = np.zeros((n1, n2))
    for i in range(n1):
        for j in range(n2):
            sig = lambda a, b: 1.0 / v[a % n1, b % n2] ** 2
            acc_u = acc_v = acc_s = 0.0
            for (di, dj, h) in ((1, 0, grid.h1), (0, 1, grid.h2)):
                ip, jp = (i + di) % n1, (j + dj) % n2
                im, jm = (i - di) % n1, (j - dj) % n2
                rho_f = 0.5 * (sig(i, j) + sig(ip, jp))
                rho_b = 0.5 * (sig(im, jm) + sig(i, j))
                du_f = (u[ip, jp] - u[i, j]) / h
                du_b = (u[i, j] - u[im, jm]) / h
                dv_f = (v[ip, jp] - v[i, j]) / h
                dv_b = (v[i, j] - v[im, jm]) / h
                acc_u += (rho_f * du_f - rho_b * du_b) / h
                acc_v += (rho_f * dv_f - rho_b * dv_b) / h
                acc_s += du_f**2 + dv_f**2 + du_b**2 + dv_b**2
            tau_u[i, j] = v[i, j] ** 2 * acc_u
            tau_v[i, j] = v[i, j] ** 2 * acc_v + acc_s / (2.0 * v[i, j])
    return tau_u, tau_v


def _roll_oracle(state):
    """E, tau and D, each from its own roll-based sweep over the edges.

    These are the three separate formulas the fused edge pass replaced; the
    pass must reproduce them bit for bit.
    """
    grid = state.grid
    u, v = state.u, state.v
    sigma = 1.0 / (v * v)
    total = 0.0
    div_u = np.zeros(grid.shape)
    div_v = np.zeros(grid.shape)
    edge_sq = np.zeros(grid.shape)
    for axis in (0, 1):
        h = grid.h1 if axis == 0 else grid.h2
        du = (np.roll(u, -1, axis=axis) - u) / h
        dv = (np.roll(v, -1, axis=axis) - v) / h
        rho = 0.5 * (sigma + np.roll(sigma, -1, axis=axis))
        total += float(np.sum((du * du + dv * dv) * rho))
    e = 0.5 * grid.w * total
    for axis in (0, 1):
        h = grid.h1 if axis == 0 else grid.h2
        du = (np.roll(u, -1, axis=axis) - u) / h
        dv = (np.roll(v, -1, axis=axis) - v) / h
        rho = 0.5 * (sigma + np.roll(sigma, -1, axis=axis))
        flux_u = rho * du
        flux_v = rho * dv
        div_u += (flux_u - np.roll(flux_u, 1, axis=axis)) / h
        div_v += (flux_v - np.roll(flux_v, 1, axis=axis)) / h
        sq = du * du + dv * dv
        edge_sq += sq + np.roll(sq, 1, axis=axis)
    tau_u = v * v * div_u
    tau_v = v * v * div_v + edge_sq / (2.0 * v)
    d = float(grid.w * np.sum(sigma * (tau_u**2 + tau_v**2)))
    return e, tau_u, tau_v, d


def _assert_one_stack(whole, halves, shape):
    """whole is a C-contiguous float64 (2, *shape) array, and halves are
    its two halves in order."""
    assert whole.shape == (2, *shape) and whole.dtype == np.dtype(float)
    assert whole.flags.c_contiguous
    for k, half in enumerate(halves):
        assert half.__array_interface__ == whole[k].__array_interface__


class TestMapState:
    def test_positivity_and_shape(self, grid64):
        with pytest.raises(ValueError):
            MapState(grid64, np.zeros(grid64.shape), np.zeros(grid64.shape))
        with pytest.raises(ValueError):
            MapState(grid64, np.zeros((4, 4)), np.ones((4, 4)))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_is_refused(self, grid64, t):
        # run_flow would otherwise fail on t / snapshot_interval with an
        # error that names neither t nor the state.
        with pytest.raises(ValueError, match="^t must be finite"):
            MapState(grid64, np.zeros(grid64.shape), np.full(grid64.shape, 1.0), t=t)

    def test_copy_is_deep(self, grid64):
        s = _constant_state(grid64)
        c = s.copy()
        assert not np.shares_memory(c.fields, s.fields)
        c.u[0, 0] = 99.0
        assert s.u[0, 0] == 0.3

    def test_the_callers_arrays_stay_the_callers(self):
        # The state copies u and v, so changing them afterwards changes
        # neither its fields nor the v_min its CFL cap is taken from.
        grid = DomainGrid(16, 16)
        u, v = np.zeros(grid.shape), np.full(grid.shape, 1.0)
        s = MapState(grid, u, v)
        cap = cfl_dt_max(s)
        v[3, 5], u[0, 0] = 1e-3, np.nan
        assert np.all(s.u == 0.0) and np.all(s.v == 1.0)
        assert s.v_min == 1.0 and cfl_dt_max(s) == cap == 0.5 * grid.h1**2 / 4.0

    @pytest.mark.parametrize("source", ["constructor", "step", "read_snapshot",
                                        "frozen_step", "copy"])
    def test_every_state_holds_one_stack(self, rng, tmp_path, source):
        grid = DomainGrid(6, 10)
        # Fortran-ordered inputs: the state's stack is C-ordered all the same.
        s = MapState(grid, np.asfortranarray(0.3 * rng.standard_normal(grid.shape)),
                     np.asfortranarray(np.exp(0.3 * rng.standard_normal(grid.shape))))
        if source == "step":
            s = step(s, cfl_dt_max(s, 0.5))
        elif source == "read_snapshot":
            write_snapshot([s, s], tmp_path / "states.npy")
            s = read_snapshot(tmp_path / "states.npy", grid)[1]
        elif source == "frozen_step":
            first = _constant_state(grid)
            s = run_flow(first, FlowParams(t_final=0.1)).snapshots[-1]
            assert s.t == pytest.approx(0.1)
        elif source == "copy":
            s = s.copy()
        _assert_one_stack(s.fields, (s.u, s.v), grid.shape)
        tau = tension_field(s)
        _assert_one_stack(tau.tau, (tau.tau_u, tau.tau_v), grid.shape)


class TestTensionField:
    def test_constant_map_is_stationary(self, grid64):
        tau = tension_field(_constant_state(grid64))
        assert np.all(tau.tau_u == 0.0) and np.all(tau.tau_v == 0.0)

    def test_flat_u_keeps_tau_u_zero(self):
        grid = DomainGrid(16, 16)
        v = 1.0 + 0.1 * np.sin(TWO_PI * grid.x2) * np.ones(grid.shape)
        tau = tension_field(MapState(grid, np.zeros(grid.shape), v))
        assert np.all(tau.tau_u == 0.0)
        assert float(np.abs(tau.tau_v).max()) > 0.1

    def test_matches_plain_loop_oracle(self, rng):
        grid = DomainGrid(8, 6)
        u = 0.2 * rng.standard_normal(grid.shape)
        v = np.exp(0.3 * rng.standard_normal(grid.shape))
        state = MapState(grid, u, v)
        tau = tension_field(state)
        ou, ov = _tension_oracle(state)
        scale = float(np.abs(ov).max())
        assert np.abs(tau.tau_u - ou).max() <= 1e-12 * scale
        assert np.abs(tau.tau_v - ov).max() <= 1e-12 * scale

    def test_continuum_limit_second_order(self):
        # tau_u = Lap u - (2/v) <Du, Dv>, tau_v = Lap v + (|Du|^2 - |Dv|^2)/v
        # for the smooth sinusoidal family; the discrete operator must
        # converge at O(h^2) to the analytic field.
        def analytic(grid):
            x1, x2 = grid.x1, grid.x2
            s1, c1 = np.sin(TWO_PI * x1), np.cos(TWO_PI * x1)
            s2, c2 = np.sin(TWO_PI * x2), np.cos(TWO_PI * x2)
            one = np.ones(grid.shape)
            u = 0.15 * s1 * c2 * one
            v = 1.0 + 0.1 * c1 * s2 * one
            ux = 0.15 * TWO_PI * c1 * c2
            uy = -0.15 * TWO_PI * s1 * s2
            vx = -0.1 * TWO_PI * s1 * s2
            vy = 0.1 * TWO_PI * c1 * c2
            lap_u = -2.0 * TWO_PI**2 * u
            lap_v = -2.0 * TWO_PI**2 * (v - 1.0)
            tau_u = lap_u - 2.0 / v * (ux * vx + uy * vy)
            tau_v = lap_v + (ux**2 + uy**2 - vx**2 - vy**2) / v
            return MapState(grid, u, v), tau_u * one, tau_v * one

        errs = []
        for n in (32, 64, 128):
            grid = DomainGrid(n, n)
            state, tu, tv = analytic(grid)
            tau = tension_field(state)
            errs.append(max(float(np.abs(tau.tau_u - tu).max()),
                            float(np.abs(tau.tau_v - tv).max())))
        assert 3.4 <= errs[0] / errs[1] <= 4.6
        assert 3.4 <= errs[1] / errs[2] <= 4.6


def _random_state(rng, shape):
    grid = DomainGrid(*shape)
    return MapState(grid, 0.3 * rng.standard_normal(grid.shape),
                    np.exp(0.3 * rng.standard_normal(grid.shape)))


def _signed_zero_state(shape):
    """u is +0.0 and -0.0 in a checkerboard and v constant, so every
    difference and sum of squares is exactly zero, and the backward
    differences of the fluxes are -0.0 at half the nodes."""
    i, j = np.indices(shape)
    u = np.where((i + j) % 2 == 1, -0.0, 0.0)
    return MapState(DomainGrid(*shape), u, np.full(shape, 1.7))


def _arrays(x):
    """The arrays in x, an array or a list, tuple or dict of them, nested."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (list, tuple, dict)):
        for item in x.values() if isinstance(x, dict) else x:
            yield from _arrays(item)


def _special_values(rng):
    """Floats over the whole exponent range, and the special ones."""
    tiny = np.finfo(float).tiny
    return np.concatenate([
        rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, tiny / 3, -5e-324,
         np.finfo(float).max, -np.finfo(float).max / 7],
    ])


class TestEdgePass:
    @pytest.mark.parametrize("shape", [
        (16, 16), (8, 12), (64, 64), (4, 4), (5, 7), (9, 4), (128, 128),
    ])
    def test_bit_identical_to_separate_roll_formulas(self, rng, shape):
        state = _random_state(rng, shape)
        e, tau_u, tau_v, d = _roll_oracle(state)
        tau = tension_field(state)
        assert energy(state) == e
        assert np.array_equal(tau.tau_u, tau_u)
        assert np.array_equal(tau.tau_v, tau_v)
        assert dissipation_rate(state) == d

    @pytest.mark.parametrize("shape", [(5, 7), (12, 20), (48, 32)])
    @pytest.mark.parametrize("layout", ["stacked", "separate", "swapped_halves"])
    def test_stacked_and_separate_fields_match_the_roll_formulas(self, rng, shape, layout):
        # Whether u and v are the halves of one array, in either order, or
        # two arrays, the state's constructor copies them into a stack of its
        # own, and the pass on it gives the roll formulas' values.
        state = _random_state(rng, shape)
        if layout == "stacked":
            fields = np.stack((state.u, state.v))
            u, v = fields
        elif layout == "swapped_halves":
            fields = np.stack((state.v, state.u))
            v, u = fields
        else:
            u, v = state.u, state.v
        e, tau_u, tau_v, d = _roll_oracle(state)
        built = MapState(state.grid, u, v)
        assert not np.shares_memory(built.fields, u) and not np.shares_memory(built.fields, v)
        got_e, tau, got_d = _edge_pass(built, _EdgeWorkspace(shape))
        assert got_e == e and got_d == d
        assert np.array_equal(tau.tau_u, tau_u) and np.array_equal(tau.tau_v, tau_v)

    @pytest.mark.parametrize("shape", [(32, 32), (48, 48), (64, 64), (64, 32)])
    def test_bit_identical_to_the_roll_formulas_over_the_exponent_range(self, rng, shape):
        # The pass scales by powers of two where the formulas do not (at 32^2
        # and 64^2 by 1/h^2 as well as 1/2), which is exact while every value
        # stays a normal float.  Over u scaled by 2^-600 to 2^300 and v by
        # 2^-150 to 2^300 one corner leaves that range: with u ~ 2^-450
        # against v ~ 2^300 the fluxes are near 2^-1050, subnormal, and the
        # two scales round tau_u differently; E, tau_v and D agree there.
        base = _random_state(rng, shape)
        differ = []
        for a in range(-600, 301, 75):
            for b in (-150, 75, 300):
                state = MapState(base.grid, np.ldexp(base.u, a), np.ldexp(base.v, b))
                with np.errstate(all="ignore"):
                    e, tau_u, tau_v, d = _roll_oracle(state)
                    got_e, tau, got_d = _edge_pass(state, _EdgeWorkspace(shape))
                same = (got_e.hex() == e.hex(), tau.tau_u.tobytes() == tau_u.tobytes(),
                        tau.tau_v.tobytes() == tau_v.tobytes(), got_d.hex() == d.hex())
                if not all(same):
                    differ.append((a, b, same))
        assert differ == [(-450, 300, (True, False, True, True))]

    def test_an_energy_the_formulas_overflow_can_stay_finite(self, rng):
        # With u ~ 2^501 at 64^2 the formulas' energy terms, scaled by 1/h^2
        # before they are summed, overflow the sum to inf; the pass sums them
        # unscaled and scales the sum once, by w / (4 h^2) = 1/4.  tau and
        # D (inf) are the formulas' all the same.
        base = _random_state(rng, (64, 64))
        state = MapState(base.grid, np.ldexp(base.u, 501), base.v)
        with np.errstate(over="ignore", invalid="ignore"):
            e, tau_u, tau_v, d = _roll_oracle(state)
            got_e, tau, got_d = _edge_pass(state, _EdgeWorkspace((64, 64)))
        assert e == math.inf and 1e304 < got_e < math.inf
        assert tau.tau_u.tobytes() == tau_u.tobytes()
        assert tau.tau_v.tobytes() == tau_v.tobytes()
        assert got_d == d == math.inf

    @pytest.mark.parametrize("shape, scale_calls, k", [
        ((64, 64), 0, 2.0**11), ((32, 32), 0, 2.0**9), ((64, 32), 2, 0.5),
        ((48, 48), 1, 0.5), ((12, 20), 2, 0.5),
    ])
    def test_powers_of_two_are_folded_into_one_scale(self, shape, scale_calls, k):
        # x / h is a call per axis part of diff and of work, none when
        # h1 == h2 is a power of two, whose 1/h^2 joins tau's 1/2.
        ws = _EdgeWorkspace(shape)
        assert len(ws.scale_diff) == len(ws.scale_back) == scale_calls
        assert ws.tau_scale == k and ws.e_scale == 0.5 * ws.w * k

    @pytest.mark.parametrize("n", [4, 5, 12, 48, 64, 1024])
    def test_divide_by_is_the_division_bit_for_bit(self, rng, n):
        h = DomainGrid(n, n).h1
        x = _special_values(rng)
        op, c = _divide_by(h)
        assert (op is np.multiply) == (n & (n - 1) == 0)
        with np.errstate(over="ignore"):
            assert op(x, c).tobytes() == (x / h).tobytes()

    def test_square_is_the_product_bit_for_bit(self, rng):
        # The pass squares with np.square where the formulas multiply.
        x = _special_values(rng)
        with np.errstate(over="ignore", under="ignore"):
            assert np.square(x).tobytes() == (x * x).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (8, 6)])
    def test_signed_zeros_match_the_roll_formulas(self, shape):
        # The zeroed sums of the formulas turn the -0.0 of the backward
        # differences into +0.0 in tau_u.
        state = _signed_zero_state(shape)
        e, tau_u, tau_v, d = _roll_oracle(state)
        got_e, tau, got_d = _edge_pass(state, _EdgeWorkspace(shape))
        assert np.signbit(tau_u).sum() == 0 and e == 0.0
        assert tau.tau_u.tobytes() == tau_u.tobytes()
        assert tau.tau_v.tobytes() == tau_v.tobytes()
        assert (got_e, got_d) == (e, d)

    @pytest.mark.parametrize("shape", [(4, 4), (64, 64), (12, 20)])
    def test_workspace_holds_thirteen_scratch_fields_and_the_ring(self, shape):
        # Every array the workspace holds or binds a call on, but its 0-d
        # constants, is a view of 13 scratch fields and the ring's 8.
        ws = _EdgeWorkspace(shape)
        field = shape[0] * shape[1] * 8
        owners = {id(o): o for o in (a if a.base is None else a.base
                                     for a in _arrays(vars(ws))) if o.ndim}
        assert sum(o.nbytes for o in owners.values()) <= (13 + 8) * field
        ring = ws.ring + ws.taus
        assert len(ring) == 4 and all(a.shape == (2, *shape) and a.flags.c_contiguous
                                      for a in ring)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(ring) for b in ring[:k])

    @pytest.mark.parametrize("shape, signed_zeros", [
        ((5, 7), False), ((12, 20), False), ((48, 32), False), ((4, 4), True), ((8, 6), True),
    ])
    def test_a_pass_in_the_ring_is_the_fresh_pass(self, rng, shape, signed_zeros):
        # On fields in either ring buffer, with tau written into a tau
        # buffer, the pass gives the bytes of a pass on new arrays, pass
        # after pass on one workspace.
        state = _signed_zero_state(shape) if signed_zeros else _random_state(rng, shape)
        fresh_e, fresh, fresh_d = _edge_pass(state, _EdgeWorkspace(shape))
        ws = _EdgeWorkspace(shape)
        for slot in (0, 1, 0):
            ws.ring[slot][...] = state.fields
            ringed = MapState._checked(state.grid, ws.ring[slot], state.t, state.v_min)
            e, tangent, d = _edge_pass(ringed, ws, ws.taus[1 - slot])
            assert tangent.tau is ws.taus[1 - slot]
            assert (e.hex(), d.hex()) == (fresh_e.hex(), fresh_d.hex())
            assert tangent.tau.tobytes() == fresh.tau.tobytes()
            ws.ring[slot].fill(np.nan)

    @pytest.mark.parametrize("layout", ["fortran", "strided_view"])
    def test_non_contiguous_fields_give_the_contiguous_result(self, rng, layout):
        # The oracle runs on the C-ordered fields: on Fortran-ordered ones its
        # np.sum visits the nodes in another order and can round differently.
        state = _random_state(rng, (16, 12))
        if layout == "fortran":
            u, v = np.asfortranarray(state.u), np.asfortranarray(state.v)
        else:
            u, v = np.ones((32, 24)), np.ones((32, 24))
            u[::2, ::2], v[::2, ::2] = state.u, state.v
            u, v = u[::2, ::2], v[::2, ::2]
        assert not u.flags.c_contiguous and not v.flags.c_contiguous
        odd = MapState(state.grid, u, v)
        assert odd.fields.flags.c_contiguous
        e, tau_u, tau_v, d = _roll_oracle(state)
        got_e, tau, got_d = _edge_pass(odd, _EdgeWorkspace(state.grid.shape))
        assert got_e == e and got_d == d
        assert np.array_equal(tau.tau_u, tau_u) and np.array_equal(tau.tau_v, tau_v)

    def test_passes_share_no_arrays(self, rng):
        # tau survives later passes, on the same workspace or on another
        # grid, and never aliases the workspace.
        first, second = _random_state(rng, (16, 16)), _random_state(rng, (16, 16))
        ws = _EdgeWorkspace(first.grid.shape)
        tau = _edge_pass(first, ws)[1]
        other = tension_field(_random_state(rng, (8, 12)))
        taus = (tau.tau_u, tau.tau_v, other.tau_u, other.tau_v)
        kept = [a.copy() for a in taus]
        _edge_pass(second, ws)
        tension_field(first)
        for a, b in zip(taus, kept):
            assert np.array_equal(a, b)
        scratch = [w for w in vars(ws).values() if isinstance(w, np.ndarray)]
        assert not any(np.shares_memory(a, w) for a in taus[:2] for w in scratch)

    def test_workspace_of_another_shape_is_refused(self, rng):
        with pytest.raises(ValueError):
            _edge_pass(_random_state(rng, (16, 16)), _EdgeWorkspace((16, 12)))


class TestEnergy:
    def test_constant_map(self, grid64):
        assert energy(_constant_state(grid64)) == 0.0

    def test_single_mode_closed_form(self):
        # u = eps sin(2 pi x1), v = 1: the staggered discretisation sums to
        # exactly eps^2 sin(pi h)^2 / h^2 (continuum limit pi^2 eps^2).
        eps = 1e-3
        for n in (32, 64):
            grid = DomainGrid(n, n)
            u = eps * np.sin(TWO_PI * grid.x1) * np.ones(grid.shape)
            e = energy(MapState(grid, u, np.full(grid.shape, 1.0)))
            exact = eps**2 * math.sin(math.pi * grid.h1) ** 2 / grid.h1**2
            assert abs(e - exact) <= 1e-12 * exact
            if n == 64:
                assert abs(e - math.pi**2 * eps**2) <= 1e-3 * math.pi**2 * eps**2

    def test_dilation_invariance(self, rng):
        # z -> 2z is a hyperbolic isometry; with the power-of-two factor the
        # discrete energy is reproduced bit for bit.
        grid = DomainGrid(16, 16)
        u = rng.standard_normal(grid.shape)
        v = np.exp(0.4 * rng.standard_normal(grid.shape))
        assert energy(MapState(grid, 2.0 * u, 2.0 * v)) == energy(MapState(grid, u, v))


class TestStep:
    def test_constant_map_unchanged(self, grid64):
        s = _constant_state(grid64)
        dt = cfl_dt_max(s)
        s2 = step(s, dt)
        assert np.array_equal(s2.u, s.u) and np.array_equal(s2.v, s.v)
        assert s2.t == dt

    def test_definition(self, rng):
        grid = DomainGrid(16, 16)
        u = 0.1 * rng.standard_normal(grid.shape)
        v = np.exp(0.2 * rng.standard_normal(grid.shape))
        s = MapState(grid, u, v)
        dt = cfl_dt_max(s, 0.5)
        tau = tension_field(s)
        s2 = step(s, dt)
        assert np.array_equal(s2.u, s.u + dt * tau.tau_u)
        assert np.array_equal(s2.v, s.v + dt * tau.tau_v)

    def test_dt_validation(self, grid64):
        s = _constant_state(grid64)
        with pytest.raises(ValueError):
            step(s, 0.0)
        with pytest.raises(ValueError):
            step(s, 10.0 * cfl_dt_max(s, 1.0))

    def test_rejects_target_escape(self, grid64):
        s = _constant_state(grid64, v0=1.0)
        dt = cfl_dt_max(s, 0.5)
        sink = TangentField(np.array((np.zeros(grid64.shape),
                                      np.full(grid64.shape, -2.0 / dt))))
        with pytest.raises(StepRejectedError):
            step(s, dt, sink)

    @pytest.mark.parametrize("component, value", [
        ("v", np.inf), ("v", np.nan), ("u", np.inf), ("u", np.nan), ("v", -2.0),
    ])
    def test_rejects_non_finite_values(self, component, value):
        # A +inf in v_new leaves min(v_new) finite; it must still be a
        # rejection (so run_flow halves dt), not a ValueError from MapState.
        # The error names the bad node, also when only u is bad.
        grid = DomainGrid(16, 16)
        s = _constant_state(grid)
        tau = np.zeros((2, *grid.shape))
        tau["uv".index(component), 3, 5] = value / 1e-4
        tangent = TangentField(tau)
        with pytest.raises(StepRejectedError) as exc:
            step(s, 1e-4, tangent)
        assert exc.value.node == (3, 5)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_the_new_fields_are_one_stack(self, rng, stacked):
        # stacked: tau as the pass returns it; else a Fortran-ordered copy.
        # Either way the new fields are one C-ordered stack.
        s = _random_state(rng, (12, 20))
        dt = cfl_dt_max(s, 0.5)
        tau = tension_field(s)
        if not stacked:
            tau = TangentField(np.asfortranarray(tau.tau))
        s2 = step(s, dt, tau)
        assert np.array_equal(s2.u, s.u + dt * tau.tau_u)
        assert np.array_equal(s2.v, s.v + dt * tau.tau_v)
        _assert_one_stack(s2.fields, (s2.u, s2.v), (12, 20))
        s3 = step(s2, dt)  # a stepped state steps as a rebuilt one does
        s4 = step(MapState(s2.grid, s2.u, s2.v, s2.t), dt)
        assert s3.fields.tobytes() == s4.fields.tobytes()

    def test_new_state_records_its_v_min(self, rng):
        s = _random_state(rng, (16, 16))
        s2 = step(s, cfl_dt_max(s, 0.5))
        assert s2.v_min == float(s2.v.min())
        assert cfl_dt_max(s2, 0.5) == cfl_dt_max(MapState(s2.grid, s2.u, s2.v), 0.5)


class TestCfl:
    def test_small_v_sharpens_the_cap(self):
        grid = DomainGrid(10, 10)
        base = cfl_dt_max(_constant_state(grid, v0=1.0), 1.0)
        assert base == grid.h1**2 / 4.0
        assert cfl_dt_max(_constant_state(grid, v0=0.5), 1.0) == 0.25 * base

    def test_large_v_does_not_loosen_it(self):
        grid = DomainGrid(10, 10)
        assert cfl_dt_max(_constant_state(grid, v0=5.0), 1.0) == grid.h1**2 / 4.0

    def test_safety_validation(self, grid64):
        with pytest.raises(ValueError):
            cfl_dt_max(_constant_state(grid64), 0.0)
        with pytest.raises(ValueError):
            cfl_dt_max(_constant_state(grid64), 1.5)


class TestDissipation:
    def test_constant_map(self, grid64):
        assert dissipation_rate(_constant_state(grid64)) == 0.0

    def test_first_order_energy_balance(self):
        grid = DomainGrid(32, 32)
        state = build_initial_state(grid, {"kind": "sinusoidal"})
        d = dissipation_rate(state)
        mismatches = []
        for frac in (0.2, 0.1):
            dt = frac * cfl_dt_max(state, 1.0)
            drop = (energy(state) - energy(step(state, dt))) / dt
            mismatches.append(abs(drop - d))
        # Explicit Euler: the defect in dE/dt = -D is O(dt).
        assert 1.6 <= mismatches[0] / mismatches[1] <= 2.4

    def test_translation_invariance(self, rng):
        grid = DomainGrid(16, 16)
        u = 0.3 * rng.standard_normal(grid.shape)
        v = np.exp(0.2 * rng.standard_normal(grid.shape))
        d0 = dissipation_rate(MapState(grid, u, v))
        d1 = dissipation_rate(MapState(grid, u + 1.0, v))
        assert abs(d0 - d1) <= 1e-12 * d0


class TestRichardson:
    def test_halving_ratio(self):
        grid = DomainGrid(32, 32)
        state = build_initial_state(grid, {"kind": "sinusoidal"})

        def gap(dt):
            full = step(state, dt)
            half = step(step(state, 0.5 * dt), 0.5 * dt)
            return max(float(np.abs(full.u - half.u).max()),
                       float(np.abs(full.v - half.v).max()))

        dt = 0.5 * cfl_dt_max(state, 1.0)
        assert 3.5 <= gap(dt) / gap(0.5 * dt) <= 4.5

    def test_two_half_steps_beat_one_full_step(self):
        grid = DomainGrid(32, 32)
        state = build_initial_state(grid, {"kind": "sinusoidal"})
        dt = 0.5 * cfl_dt_max(state, 1.0)
        ref = state
        for _ in range(16):
            ref = step(ref, dt / 16.0)
        full = step(state, dt)
        half = step(step(state, 0.5 * dt), 0.5 * dt)
        err_full = float(np.abs(full.v - ref.v).max())
        err_half = float(np.abs(half.v - ref.v).max())
        assert err_half < err_full


def _step_fields(traj, params):
    return flow_module.step_fields(traj.steps, params.t_final, params.stall_threshold)


class TestRunFlow:
    def test_constant_map_runs_to_final_time(self, grid64):
        initial = _constant_state(grid64)
        traj = run_flow(initial, params := FlowParams(t_final=1.0))
        assert traj.times[-1] == 1.0
        assert np.all(traj.energy == 0.0) and np.all(traj.dissipation == 0.0)
        fields = _step_fields(traj, params)
        assert fields["termination"] == "stalled"
        assert fields["accepted_steps"] == 0
        assert len(traj.snapshots) == 21  # cadence 0.05 inclusive of both ends
        assert [round(s.t, 10) for s in traj.snapshots] == [
            round(0.05 * k, 10) for k in range(21)
        ]
        # Stalled from the start: one frozen row per snapshot time.
        assert traj.snapshot_rows == list(range(21))
        assert traj.dt_used[1:] == pytest.approx(np.full(20, 0.05), abs=1e-14)
        # The initial state is copied once; the frozen snapshots share it.
        first = traj.snapshots[0]
        assert first.fields is not initial.fields
        assert all(s.fields is first.fields for s in traj.snapshots)

    def test_duration_semantics_with_offset_start(self, grid64):
        s = _constant_state(grid64)
        s.t = 0.30
        traj = run_flow(s, FlowParams(t_final=0.2, snapshot_interval=0.05))
        assert traj.times[-1] == pytest.approx(0.5, abs=1e-14)
        # Snapshot times are absolute multiples of the interval.
        assert [round(t, 10) for t in traj.times[traj.snapshot_rows]] == [
            0.3, 0.35, 0.4, 0.45, 0.5
        ]

    def test_default_run_dissipates_monotonically(self, grid64):
        state = build_initial_state(grid64, {"kind": "sinusoidal"})
        traj = run_flow(state, FlowParams(t_final=0.05))
        assert float(np.diff(traj.energy).max()) <= ENERGY_STEP_TOL
        assert traj.energy[-1] < traj.energy[0]
        gap = abs(traj.energy[0] - traj.energy[-1] - traj.cumulative_dissipation[-1])
        assert gap <= 0.02 * traj.energy[0]

    def test_dt_floor_aborts_with_partial_trajectory(self, grid64):
        state = build_initial_state(grid64, {"kind": "sinusoidal"})
        with pytest.raises(AbortedRunError) as info:
            run_flow(state, params := FlowParams(t_final=1.0, dt_floor=1.0))
        traj = info.value.trajectory
        assert _step_fields(traj, params)["termination"] == "aborted"
        assert len(traj.snapshots) >= 1
        assert traj.times[-1] == 0.0

    def test_pinned_16x16_run(self):
        # accepted_steps, termination and the final energy's bits as the
        # np.roll edge pass produced them.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(0),
        )
        traj = run_flow(state, params := FlowParams(t_final=1.0))
        fields = _step_fields(traj, params)
        assert fields["accepted_steps"] == 1013
        assert fields["termination"] == "stalled"
        assert traj.energy[-1].hex() == "0x1.1efe5a6fe02ebp-53"

    @pytest.mark.parametrize("t0", [0.15, 0.3, 0.7])
    def test_start_at_a_snapshot_time(self, t0):
        # A run continued from one of its own snapshots starts at a
        # snapshot time; the next snapshot is the following multiple.
        grid = DomainGrid(16, 16)
        s = build_initial_state(
            grid, {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(0),
        )
        traj = run_flow(MapState(grid, s.u, s.v, t0),
                        params := FlowParams(t_final=0.1, snapshot_interval=0.05))
        fields = _step_fields(traj, params)
        assert fields["termination"] == "t_final"
        assert fields["accepted_steps"] > 0
        assert traj.times[-1] == pytest.approx(t0 + 0.1, abs=1e-14)
        assert traj.times[traj.snapshot_rows] == pytest.approx([t0, t0 + 0.05, t0 + 0.1],
                                                               abs=1e-14)

    @pytest.mark.parametrize("name", ["t_final", "snapshot_interval", "cfl_safety",
                                      "dt_floor", "stall_threshold"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_params_are_refused_by_name(self, name, value):
        # t_final = inf used to end the run at once (inf - inf is nan), and a
        # nan stall_threshold kept it from ever stalling.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FlowParams(**{"t_final": 1.0, name: value})

    @pytest.mark.parametrize("t0, interval", [(0.0, 1e-300), (0.0, 1e-14), (1e3, 1e-11)])
    def test_an_interval_within_the_snapshot_tolerance_is_refused(self, t0, interval):
        # A snapshot time is met within 1e-14 * max(1, t), and the snapshot
        # count moves past the times met one interval at a time: 1e286
        # moves at t = 0 for an interval of 1e-300.  At t0 = 1e3 the
        # tolerance at the run's end is 1.0005e-11.
        state = _constant_state(DomainGrid(4, 4))
        state.t = t0
        with pytest.raises(ValueError, match=rf"^snapshot_interval {interval!r} is at or below"):
            run_flow(state, FlowParams(t_final=0.5, snapshot_interval=interval))
        # At twice the tolerance the run goes ahead.
        above = 2e-14 * max(1.0, t0)
        traj = run_flow(state, FlowParams(t_final=5 * above, snapshot_interval=above))
        assert len(traj.snapshots) > 1

    def test_snapshots_keep_their_values(self):
        # Each snapshot of a 16x16 run that steps in the ring, then stalls,
        # still holds its state when the run is over: its energy is its
        # row's E, bit for bit.  Frozen snapshots share the stalled state.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(0),
        )
        traj = run_flow(state, params := FlowParams(t_final=1.0, snapshot_interval=0.005))
        assert _step_fields(traj, params)["termination"] == "stalled"
        assert len(traj.snapshots) == 201
        assert [energy(s).hex() for s in traj.snapshots] == [
            e.hex() for e in traj.energy[traj.snapshot_rows].tolist()]
        frozen = traj.dissipation[traj.snapshot_rows] < FlowParams.stall_threshold
        assert 0 < frozen.sum() < len(frozen) - 1
        shared = [b.fields is a.fields for a, b in zip(traj.snapshots, traj.snapshots[1:])]
        assert shared == frozen[:-1].tolist()

    @pytest.mark.parametrize("reject", [(), (0,), (7,), (30, 31, 32), (100,)])
    def test_a_rejected_candidate_leaves_the_state_and_tau_intact(self, monkeypatch, reject):
        # Candidates are rejected after their pass has written them into the
        # ring; the run's rows are those of a loop that makes every state
        # and tau a new array.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(1),
        )
        params = FlowParams(t_final=0.05, snapshot_interval=0.01)
        edge_pass, passes = flow_module._edge_pass, []

        def rejecting(state, ws, tau=None):
            result = edge_pass(state, ws, tau)
            passes.append(state.t)
            if len(passes) - 2 in reject:  # pass 0 is the initial state's
                raise StepRejectedError("rejected by the test")
            return result

        monkeypatch.setattr(flow_module, "_edge_pass", rejecting)
        traj = run_flow(state, params)
        reference = reference_steps(state, params, reject)
        assert max(reject, default=0) < len(passes) - 1
        assert traj.steps.tobytes() == reference["rows"].tobytes()
        assert traj.rejected_steps == reference["rejected"] >= len(reject)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FlowParams(t_final=0.0)
        with pytest.raises(ValueError):
            FlowParams(t_final=1.0, cfl_safety=2.0)
        with pytest.raises(ValueError):
            FlowParams(t_final=1.0, dt_floor=0.0)


class TestJacobian:
    def test_constant_map(self, grid64):
        assert np.all(jacobian_det(_constant_state(grid64)) == 0.0)

    def test_product_mode_value_at_origin(self):
        grid = DomainGrid(64, 64)
        u = 0.1 * np.sin(TWO_PI * grid.x1) * np.ones(grid.shape)
        v = 1.0 + 0.1 * np.sin(TWO_PI * grid.x2) * np.ones(grid.shape)
        jac = jacobian_det(MapState(grid, u, v))
        # Central differences of the two sines at the origin node.
        central = 0.1 * math.sin(TWO_PI * grid.h1) / grid.h1
        assert abs(jac[0, 0] - central**2) <= 1e-14
        assert abs(jac[0, 0] - 0.04 * math.pi**2) <= 5e-3

    def test_axis_swap_antisymmetry(self, rng):
        grid = DomainGrid(12, 12)
        u = rng.standard_normal(grid.shape)
        v = np.exp(0.1 * rng.standard_normal(grid.shape))
        j = jacobian_det(MapState(grid, u, v))
        j_swapped = jacobian_det(MapState(grid, u.T.copy(), v.T.copy()))
        assert np.array_equal(j_swapped, -j.T)


class TestChainRule:
    def test_constant_map_residual_vanishes(self, grid64):
        f = BumpFunction([0.3, 1.7], [0.5, 0.5])
        assert chain_rule_residual(_constant_state(grid64), f) == 0.0

    def test_second_order_for_smooth_pair(self):
        f = BumpFunction([0.0, 1.1], [0.3, 0.25])
        res = []
        for n in (64, 128):
            state = build_initial_state(DomainGrid(n, n), {"kind": "sinusoidal"})
            res.append(chain_rule_residual(state, f))
        assert 3.5 <= res[0] / res[1] <= 4.5

    def test_affine_observable_still_second_order(self):
        # Affine f has zero flat Hessian but a nonzero covariant one; the
        # identity must still close at O(h^2).
        f = AffineFunction(0.5, 1.0, -0.7)
        res = []
        for n in (64, 128):
            state = build_initial_state(DomainGrid(n, n), {"kind": "sinusoidal"})
            res.append(chain_rule_residual(state, f))
        assert res[1] > 0.0
        assert 3.5 <= res[0] / res[1] <= 4.5


# The .npy header of a 4 x 4 state: a text dict padded to 128 bytes in all.
SNAPSHOT_HEADER = (
    b"\x93NUMPY\x01\x00v\x00"
    + f"{{'descr': '{np.dtype(float).str}', 'fortran_order': False, "
      f"'shape': (1, 2, 4, 4), }}".ljust(117).encode() + b"\n"
)


@st.composite
def _states(draw):
    grid = DomainGrid(draw(st.integers(4, 12)), draw(st.integers(4, 12)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    u = draw(arrays(float, grid.shape, elements=finite))
    v = draw(arrays(float, grid.shape, elements=st.floats(
        min_value=5e-324, allow_infinity=False)))
    return MapState(grid, u, v, t=draw(finite))


class TestSnapshotIO:
    def test_golden_text(self, tmp_path):
        u = np.arange(16.0).reshape(4, 4) / 8 - 1
        u[0, 1], u[0, 2] = -0.0, 5e-324
        v = 1.0 + np.arange(16.0).reshape(4, 4) / 10
        path = tmp_path / "states.npy"
        write_snapshot([MapState(DomainGrid(4, 4), u, v, t=0.375)], path)
        assert path.read_bytes() == SNAPSHOT_HEADER + u.tobytes() + v.tobytes()
        back, = read_snapshot(path, DomainGrid(4, 4))
        assert back.u.tobytes() == u.tobytes() and back.v.tobytes() == v.tobytes()
        assert back.t == 0.0

    @settings(max_examples=60, deadline=None)
    @given(state=_states())
    def test_round_trip_property(self, state, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "states.npy"
        write_snapshot([state], path)
        back, = read_snapshot(path, state.grid)
        assert back.grid == state.grid and back.t == 0.0
        assert back.u.tobytes() == state.u.tobytes()
        assert back.v.tobytes() == state.v.tobytes()

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        # Several states are np.save's file of their stack, and read back
        # as views of one array, with the v_min each would have alone.
        grid = DomainGrid(8, 12)
        states = [MapState(grid, rng.standard_normal(grid.shape),
                           np.exp(rng.standard_normal(grid.shape)), t=0.375 * j)
                  for j in range(3)]
        path, alone = tmp_path / "states.npy", tmp_path / "alone.npy"
        write_snapshot(states, path)
        np.save(alone, np.stack([s.fields for s in states]))
        assert path.read_bytes() == alone.read_bytes()
        back = read_snapshot(path, grid, 3)
        assert len(back) == 3 and back[0].fields.base is back[2].fields.base
        for b, s in zip(back, states):
            assert b.grid == grid and b.t == 0.0
            assert np.array_equal(b.u, s.u) and np.array_equal(b.v, s.v)
            assert b.v_min == MapState(grid, b.u, b.v).v_min == s.v_min
            _assert_one_stack(b.fields, (b.u, b.v), grid.shape)

    def test_one_state_alone_reads_as_a_stack_of_one(self, rng, tmp_path):
        grid = DomainGrid(4, 6)
        state = MapState(grid, rng.standard_normal(grid.shape), np.full(grid.shape, 2.0))
        path = tmp_path / "state.npy"
        np.save(path, state.fields)
        back, = read_snapshot(path, grid)
        assert back.fields.tobytes() == state.fields.tobytes()
        with pytest.raises(ValueError, match=r"state.npy: shape \(2, 4, 6\), expected "
                                             r"\(1, 2, 4, 6\)"):
            read_snapshot(path, grid, 1)

    @pytest.mark.parametrize("count, stack, message", [
        (2, (3, 2, 4, 4), r"shape \(3, 2, 4, 4\), expected \(2, 2, 4, 4\)"),
        (None, (0, 2, 4, 4), r"shape \(0, 2, 4, 4\), expected \(S, 2, 4, 4\)"),
        (None, (2, 2, 4, 5), r"shape \(2, 2, 4, 5\), expected \(S, 2, 4, 4\)"),
        (None, (2, 2, 16), r"shape \(2, 2, 16\), expected \(S, 2, 4, 4\)"),
    ])
    def test_the_shape_is_enforced(self, tmp_path, count, stack, message):
        path = tmp_path / "states.npy"
        np.save(path, np.ones(stack))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            read_snapshot(path, DomainGrid(4, 4), count)

    @pytest.mark.parametrize("j, value, problem", [
        (1, np.nan, "the values are not all finite"),
        (2, -np.inf, "the values are not all finite"),
        (1, 0.0, "v must be positive, its minimum is 0.0"),
        (2, -1.5, "v must be positive, its minimum is -1.5"),
    ])
    def test_the_first_state_at_fault_is_named(self, tmp_path, j, value, problem):
        stack = np.ones((4, 2, 4, 4))
        stack[j, 1, 2, 3] = stack[3, 0, 0, 0] = value
        path = tmp_path / "states.npy"
        np.save(path, stack)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: state {j}: "
                                             rf"{re.escape(problem)}$"):
            read_snapshot(path, DomainGrid(4, 4))

    def test_schema_line_is_enforced(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_text("not a snapshot\n")
        with pytest.raises(ValueError, match="bad.npy"):
            read_snapshot(path, DomainGrid(4, 4))

    def test_a_row_starting_with_hash_is_not_skipped(self, tmp_path):
        # The snapshots' times, the t column of a run's series.csv, are the
        # text part of its snapshots.
        path = tmp_path / "series.csv"
        table.write_table(path, cli.SERIES_SCHEMA, {"t": [0.0, 0.05]})
        assert table.read_table(path, cli.SERIES_SCHEMA, ["t"]).tolist() == [[0.0], [0.05]]
        lines = path.read_text().splitlines()
        lines.insert(3, "# a note")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="series.csv"):
            table.read_table(path, cli.SERIES_SCHEMA, ["t"])

    def test_row_count_is_enforced(self, grid64, tmp_path):
        path = tmp_path / "short.npy"
        write_snapshot([_constant_state(grid64)], path)
        path.write_bytes(path.read_bytes()[:-80])
        with pytest.raises(ValueError, match="short.npy"):
            read_snapshot(path, grid64)

    # np.load parses a flipped header with ast, which may warn about it.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_truncated_or_flipped_file_fails_closed(self, data, tmp_path_factory):
        # A flip that leaves a valid state, as in a low mantissa bit, is
        # caught only by analyze's audit of the series.
        grid = DomainGrid(4, 5)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        path = tmp_path_factory.mktemp("snap") / "states.npy"
        write_snapshot([MapState(grid, rng.standard_normal(grid.shape),
                                 np.exp(rng.standard_normal(grid.shape))) for _ in range(2)],
                       path)
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        path.write_bytes(raw)
        try:
            states = read_snapshot(path, grid)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            # A flip in the header's shape may leave a stack of one state.
            assert len(states) in (1, 2)
            for back in states:
                again = MapState(grid, back.u, back.v)
                assert back.u.dtype == back.v.dtype == np.dtype(float)
                assert again.v_min == back.v_min > 0.0
