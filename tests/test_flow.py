import math
import re
import tracemalloc
import warnings

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
    TangentField,
    TargetEscapeError,
    V_FLOOR,
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
    _cap,
    _divide_by,
    _edge_pass,
    _neighbour_calls,
    _state_pass,
)
from moduliflow.initial import build_initial_state
from moduliflow.mesh import DomainGrid
from moduliflow.testfunctions import BumpFunction
from oracles import AffineFunction, Recorded, reference_steps

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
        cap = _cap(s.grid, s.v_min, 0.5)
        v[3, 5], u[0, 0] = 1e-3, np.nan
        assert np.all(s.u == 0.0) and np.all(s.v == 1.0)
        assert s.v_min == 1.0 and _cap(s.grid, s.v_min, 0.5) == cap == 0.5 * grid.h1**2 / 4.0

    @pytest.mark.parametrize("source", ["constructor", "step", "read_snapshot",
                                        "frozen_step", "copy"])
    def test_every_state_holds_one_stack(self, rng, tmp_path, source):
        grid = DomainGrid(6, 10)
        # Fortran-ordered inputs: the state's stack is C-ordered all the same.
        s = MapState(grid, np.asfortranarray(0.3 * rng.standard_normal(grid.shape)),
                     np.asfortranarray(np.exp(0.3 * rng.standard_normal(grid.shape))))
        if source == "step":
            s = step(s, _cap(s.grid, s.v_min, 0.5))
        elif source == "read_snapshot":  # a file start, the last state of a stack
            with write_snapshot(tmp_path / "states.npy", grid) as record:
                record(s)
                record(step(s, _cap(s.grid, s.v_min, 0.5)))
            s = build_initial_state(grid, {"kind": "file", "path": str(tmp_path / "states.npy")})
        elif source == "frozen_step":
            # The last state handed on by a run that stalls between its two
            # snapshot times: a frozen step's state, in the ring.
            handed = []
            traj = run_flow(s, params := FlowParams(t_final=1.0, snapshot_interval=1.0),
                            handed.append)
            assert _step_fields(traj, params)["termination"] == "stalled"
            s = handed[-1]
            assert len(handed) == 2 and s.t == 1.0
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


def _fresh_pass(state):
    """E, the tau buffer, which holds tau / k, and D of a pass on state's
    fields in slot 0 of a new workspace."""
    ws = _EdgeWorkspace(state.grid.shape)
    np.copyto(ws.ring[0], state.fields)
    e, d = _edge_pass(ws, 0)
    return e, ws.taus[0], d


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
        got_e, tau, got_d = _state_pass(built)
        assert got_e == e and got_d == d
        assert np.array_equal(tau[0], tau_u) and np.array_equal(tau[1], tau_v)

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
                    got_e, tau, got_d = _state_pass(state)
                same = (got_e.hex() == e.hex(), tau[0].tobytes() == tau_u.tobytes(),
                        tau[1].tobytes() == tau_v.tobytes(), got_d.hex() == d.hex())
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
            got_e, tau, got_d = _state_pass(state)
        assert e == math.inf and 1e304 < got_e < math.inf
        assert tau[0].tobytes() == tau_u.tobytes()
        assert tau[1].tobytes() == tau_v.tobytes()
        assert got_d == d == math.inf

    @pytest.mark.parametrize("shape, scale_calls, k", [
        ((64, 64), 0, 2.0**11), ((32, 32), 0, 2.0**9), ((64, 32), 2, 0.5),
        ((48, 48), 1, 0.5), ((12, 20), 2, 0.5),
    ])
    def test_powers_of_two_are_folded_into_one_scale(self, shape, scale_calls, k):
        # x / h is a call per axis part of diff and of work, none when
        # h1 == h2 is a power of two, whose 1/h^2 joins tau's 1/2: each
        # slot's table is 37 calls and the scale calls.  No call multiplies
        # by k: the tau buffer is written by the two products v^2 * div and
        # the sum with S / v, so it holds tau / k, and k goes into the
        # energy's and the dissipation's scales and run_flow's dt.
        ws = _EdgeWorkspace(shape)
        w = DomainGrid(*shape).w
        for calls, tau in zip(ws.calls, ws.taus):
            assert len(calls) == 37 + 2 * scale_calls
            into_tau = [(op, a.ndim, b.ndim) for op, a, b, out in calls
                        if np.shares_memory(out, tau)]
            assert into_tau == [(np.multiply, 2, 2)] * 2 + [(np.add, 2, 2)]
            assert k not in [x.item() for _, a, b, _ in calls for x in (a, b) if x.ndim == 0]
        assert (ws.k, ws.e_scale, ws.d_scale) == (k, 0.5 * w * k, w * k * k)

    @pytest.mark.parametrize("n", [4, 5, 12, 48, 64, 1024])
    def test_divide_by_is_the_division_bit_for_bit(self, rng, n):
        h = DomainGrid(n, n).h1
        x = _special_values(rng)
        op, c = _divide_by(h)
        assert (op is np.multiply) == (n & (n - 1) == 0)
        with np.errstate(over="ignore"):
            assert op(x, c).tobytes() == (x / h).tobytes()

    def test_square_is_the_product_bit_for_bit(self, rng):
        # A square may be taken either way: np.square(x) is x * x.
        x = _special_values(rng)
        with np.errstate(over="ignore", under="ignore"):
            assert np.square(x).tobytes() == (x * x).tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (8, 6)])
    def test_signed_zeros_match_the_roll_formulas(self, shape):
        # The zeroed sums of the formulas turn the -0.0 of the backward
        # differences into +0.0 in tau_u.
        state = _signed_zero_state(shape)
        e, tau_u, tau_v, d = _roll_oracle(state)
        got_e, tau, got_d = _state_pass(state)
        assert np.signbit(tau_u).sum() == 0 and e == 0.0
        assert tau[0].tobytes() == tau_u.tobytes()
        assert tau[1].tobytes() == tau_v.tobytes()
        assert (got_e, got_d) == (e, d)

    @pytest.mark.parametrize("shape", [(4, 4), (64, 64), (12, 20)])
    def test_workspace_holds_thirteen_scratch_fields_and_the_ring(self, shape):
        # Every array the workspace holds or binds a call on, but its 0-d
        # constants, is a view of 13 scratch fields and the ring's 8, in
        # one allocation with 64 bytes of slack for the alignment.
        ws = _EdgeWorkspace(shape)
        field = shape[0] * shape[1] * 8
        owners = {id(o): o for o in (a if a.base is None else a.base
                                     for a in _arrays(vars(ws))) if o.ndim}
        assert sum(o.nbytes for o in owners.values()) <= (13 + 8) * field + 64
        ring = ws.ring + ws.taus
        assert len(ring) == 4 and all(a.shape == (2, *shape) and a.flags.c_contiguous
                                      for a in ring)
        assert not any(np.shares_memory(a, b) for k, a in enumerate(ring) for b in ring[:k])

    @pytest.mark.parametrize("shape", [(4, 4), (32, 32), (64, 64), (12, 20), (5, 7)])
    def test_every_field_starts_on_a_64_byte_boundary(self, shape):
        # The buffer starts on a 64-byte boundary, where np.empty gives 16,
        # wherever it lands: in an mmap or on the heap, whose next address
        # the held allocations of odd sizes move.  Each field does too when
        # n1 * n2 is a multiple of 8.
        held = []
        for floats in (0, 1, 3, 5, 7):
            held.append(np.empty(floats))
            ws = _EdgeWorkspace(shape)
            fields = list(ws.buffer)
            assert len(fields) == 21
            if shape[0] * shape[1] % 8:
                fields = fields[:1]
            assert [f.ctypes.data % 64 for f in fields] == [0] * len(fields)

    @pytest.mark.parametrize("shape", [(4, 4), (32, 32), (64, 64), (12, 20)])
    def test_every_call_writes_a_whole_aligned_field_from_its_shape(self, shape):
        # numpy 2.4 runs a call that broadcasts or reads a strided view, or
        # writes from one float past a 64-byte boundary, at about half the
        # speed.  So each call of the table writes a C-contiguous out from
        # C-contiguous operands of out's shape or 0-d constants, from a
        # 64-byte boundary where n1 * n2 is a multiple of 8 and every field
        # starts on one; the exceptions are the 8 seam calls, each on one row
        # or column of one or two fields.
        n1, n2 = shape
        ws = _EdgeWorkspace(shape)
        for calls in ws.calls:
            whole = [call for call in calls if call[3].size > 2 * max(shape)]
            assert len(calls) - len(whole) == 8  # the seam calls
            for op, a, b, out in whole:
                assert out.flags.c_contiguous
                for x in (a, b):
                    assert x.ndim == 0 or (x.shape == out.shape and x.flags.c_contiguous)
                if n1 * n2 % 8 == 0:
                    assert out.ctypes.data % 64 == 0

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (12, 20), (32, 32)])
    def test_every_call_reads_only_what_the_pass_has_written(self, shape):
        # Following the table call by call, each float a call reads is in
        # the slot's fields or was written by an earlier call of the table:
        # so the row or float before its field that a backward call reads.
        ws = _EdgeWorkspace(shape)
        index = np.arange(ws.buffer.size)

        def floats(x):
            # The buffer indices of x's elements.
            offset = (x.ctypes.data - ws.buffer.ctypes.data) // 8
            assert 0 <= offset < index.size
            return np.lib.stride_tricks.as_strided(index[offset:], x.shape, x.strides)

        for calls, fields in zip(ws.calls, ws.ring):
            written = np.zeros(index.size, bool)
            written[floats(fields)] = True
            for op, a, b, out in calls:
                for x in (a, b):
                    assert x.ndim == 0 or written[floats(x)].all()
                written[floats(out)] = True

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (12, 20), (32, 32)])
    def test_no_value_left_in_the_buffer_reaches_a_pass(self, rng, shape):
        # A backward call's flat view reads a row or a float before its
        # field, which the same pass has written.  With every other float of
        # the buffer nan, +inf or -inf before a pass on a finite state in
        # either slot, the pass raises no floating-point error and gives the
        # bytes of a pass on a new workspace.
        state = _random_state(rng, shape)
        fresh_e, fresh, fresh_d = _fresh_pass(state)
        for slot in (0, 1):
            for stale in (math.nan, math.inf, -math.inf):
                ws = _EdgeWorkspace(shape)
                ws.buffer.fill(stale)
                ws.ring[slot][...] = state.fields
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    e, d = _edge_pass(ws, slot)
                assert (e.hex(), d.hex()) == (fresh_e.hex(), fresh_d.hex())
                assert ws.taus[slot].tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("shape, signed_zeros", [
        ((5, 7), False), ((12, 20), False), ((48, 32), False), ((4, 4), True), ((8, 6), True),
    ])
    def test_a_pass_in_the_ring_is_the_fresh_pass(self, rng, shape, signed_zeros):
        # On fields in either slot of the ring, with tau / k written into
        # that slot's tau buffer, the pass gives the bytes of a pass on a new
        # workspace, pass after pass on one workspace.
        state = _signed_zero_state(shape) if signed_zeros else _random_state(rng, shape)
        fresh_e, fresh, fresh_d = _fresh_pass(state)
        ws = _EdgeWorkspace(shape)
        for slot in (0, 1, 0):
            ws.ring[slot][...] = state.fields
            ws.taus[slot].fill(np.nan)
            e, d = _edge_pass(ws, slot)
            assert (e.hex(), d.hex()) == (fresh_e.hex(), fresh_d.hex())
            assert ws.taus[slot].tobytes() == fresh.tobytes()
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
        tau = tension_field(odd)
        assert energy(odd) == e and dissipation_rate(odd) == d
        assert np.array_equal(tau.tau_u, tau_u) and np.array_equal(tau.tau_v, tau_v)

    def test_passes_share_no_arrays(self, rng):
        # tension_field's tau is an array of its own, two fields and no
        # more, which survives later passes, on a state of the same grid or
        # of another, and a pass in one slot leaves the other slot's tau / k.
        first, second = _random_state(rng, (16, 16)), _random_state(rng, (16, 16))
        tau = tension_field(first)
        other = tension_field(_random_state(rng, (8, 12)))
        for tangent, shape in ((tau, (16, 16)), (other, (8, 12))):
            assert tangent.tau.base is None and tangent.tau.shape == (2, *shape)
        taus = (tau.tau_u, tau.tau_v, other.tau_u, other.tau_v)
        kept = [a.copy() for a in taus]
        energy(second)
        tension_field(second)
        for a, b in zip(taus, kept):
            assert np.array_equal(a, b)
        ws = _EdgeWorkspace((16, 16))
        ws.ring[0][...], ws.ring[1][...] = first.fields, second.fields
        _edge_pass(ws, 0)
        kept = ws.taus[0].copy()
        _edge_pass(ws, 1)
        assert ws.taus[0].tobytes() == kept.tobytes()
        assert (ws.k * kept).tobytes() == tau.tau.tobytes()

    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (12, 20)])
    @pytest.mark.parametrize("field, value", [
        (0, math.inf), (0, -math.inf), (0, math.nan), (1, math.inf)])
    def test_a_value_not_finite_makes_the_energy_not_finite(self, rng, shape, field, value):
        # run_flow looks for a value that is not finite only when E is not
        # finite.  v stays positive, as run_flow's minimum over v requires.
        state = _random_state(rng, shape)
        ws = _EdgeWorkspace(shape)
        for node in [(0, 0), (shape[0] - 1, shape[1] - 1), (2, 3)]:
            ws.ring[0][...] = state.fields
            ws.ring[0][(field, *node)] = value
            with np.errstate(over="ignore", invalid="ignore"):
                e = _edge_pass(ws, 0)[0]
            assert not math.isfinite(e)


class TestNeighbourCalls:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 4), (16, 16)])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("op, a_shift, b_shift", [
        (np.subtract, 1, 0),   # the pass's forward differences
        (np.add, 0, 1),        # its edge weights
        (np.subtract, 0, -1),  # its backward divergence
        (np.add, 0, -1),       # its edge sums
    ])
    def test_bound_calls_on_stacks_match_roll(self, rng, shape, axis, op, a_shift, b_shift):
        # Calls bound once see later writes to their operand, and fix up
        # the seam of every entry of a leading batch axis.  a and out are
        # stacks in one buffer, after a field of nan, which the flat call
        # of a -1 shift reads from node 0 and its seam call overwrites.
        buffer = np.full((3, 2, *shape), np.nan)
        a, out = buffer[1], buffer[2]
        calls = _neighbour_calls(buffer.ravel(), op, a, out, axis, a_shift, b_shift)
        for _ in range(2):
            a[...] = rng.standard_normal(a.shape)
            out.fill(np.nan)
            for call_op, x, y, call_out in calls:
                call_op(x, y, call_out)
            grid_axis = axis + 1
            want = op(np.roll(a, -a_shift, grid_axis), np.roll(a, -b_shift, grid_axis))
            assert np.array_equal(out, want)


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
        dt = _cap(s.grid, s.v_min, 0.5)
        s2 = step(s, dt)
        assert np.array_equal(s2.u, s.u) and np.array_equal(s2.v, s.v)
        assert s2.t == dt

    def test_definition(self, rng):
        grid = DomainGrid(16, 16)
        u = 0.1 * rng.standard_normal(grid.shape)
        v = np.exp(0.2 * rng.standard_normal(grid.shape))
        s = MapState(grid, u, v)
        dt = _cap(s.grid, s.v_min, 0.5)
        tau = tension_field(s)
        s2 = step(s, dt)
        assert np.array_equal(s2.u, s.u + dt * tau.tau_u)
        assert np.array_equal(s2.v, s.v + dt * tau.tau_v)

    def test_dt_validation(self, grid64):
        s = _constant_state(grid64)
        with pytest.raises(ValueError):
            step(s, 0.0)
        with pytest.raises(ValueError):
            step(s, 10.0 * _cap(s.grid, s.v_min, 1.0))

    def test_rejects_target_escape(self, grid64):
        s = _constant_state(grid64, v0=1.0)
        dt = _cap(s.grid, s.v_min, 0.5)
        sink = TangentField(np.array((np.zeros(grid64.shape),
                                      np.full(grid64.shape, -2.0 / dt))))
        with pytest.raises(TargetEscapeError):
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
        with pytest.raises(TargetEscapeError) as exc:
            step(s, 1e-4, tangent)
        assert exc.value.node == (3, 5)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_the_new_fields_are_one_stack(self, rng, stacked):
        # stacked: tau as the pass returns it; else a Fortran-ordered copy.
        # Either way the new fields are one C-ordered stack.
        s = _random_state(rng, (12, 20))
        dt = _cap(s.grid, s.v_min, 0.5)
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
        s2 = step(s, _cap(s.grid, s.v_min, 0.5))
        assert s2.v_min == float(s2.v.min())
        assert s2.v_min == MapState(s2.grid, s2.u, s2.v).v_min


class TestCfl:
    def test_small_v_sharpens_the_cap(self):
        grid = DomainGrid(10, 10)
        base = _cap(grid, 1.0, 1.0)
        assert base == grid.h1**2 / 4.0
        assert _cap(grid, 0.5, 1.0) == 0.25 * base

    def test_large_v_does_not_loosen_it(self):
        grid = DomainGrid(10, 10)
        assert _cap(grid, 5.0, 1.0) == grid.h1**2 / 4.0


class TestDissipation:
    def test_constant_map(self, grid64):
        assert dissipation_rate(_constant_state(grid64)) == 0.0

    def test_first_order_energy_balance(self):
        grid = DomainGrid(32, 32)
        state = build_initial_state(grid, {"kind": "sinusoidal"})
        d = dissipation_rate(state)
        mismatches = []
        for frac in (0.2, 0.1):
            dt = frac * _cap(state.grid, state.v_min, 1.0)
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

        dt = 0.5 * _cap(state.grid, state.v_min, 1.0)
        assert 3.5 <= gap(dt) / gap(0.5 * dt) <= 4.5

    def test_two_half_steps_beat_one_full_step(self):
        grid = DomainGrid(32, 32)
        state = build_initial_state(grid, {"kind": "sinusoidal"})
        dt = 0.5 * _cap(state.grid, state.v_min, 1.0)
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
        handed = []
        traj = run_flow(initial, params := FlowParams(t_final=1.0), handed.append)
        assert traj.times[-1] == 1.0
        assert np.all(traj.energy == 0.0) and np.all(traj.dissipation == 0.0)
        fields = _step_fields(traj, params)
        assert fields["termination"] == "stalled"
        assert fields["accepted_steps"] == 0
        # Stalled from the start: one frozen row per snapshot time, at a
        # cadence of 0.05 inclusive of both ends.
        assert traj.snapshot_rows == list(range(21))
        assert [round(t, 10) for t in traj.times.tolist()] == [
            round(0.05 * k, 10) for k in range(21)
        ]
        assert traj.dt_used[1:] == pytest.approx(np.full(20, 0.05), abs=1e-14)
        # The initial state is handed on as it is; the frozen snapshots
        # hand on nothing.
        assert len(handed) == 1 and handed[0] is initial

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

    def test_the_initial_fields_are_left_as_they_are(self):
        # run_flow copies the start into its ring and steps there: record is
        # handed the initial state itself first, with its bytes, and every
        # later state in the ring; the initial fields keep their bytes.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(3),
        )
        before, handed = state.fields.tobytes(), []
        traj = run_flow(state, FlowParams(t_final=0.05, snapshot_interval=0.01),
                        lambda s: handed.append((s, s.fields.tobytes())))
        assert state.fields.tobytes() == before
        assert handed[0] == (state, before)
        assert len(handed) == len(traj.snapshot_rows) == 6
        assert not any(np.shares_memory(s.fields, state.fields) for s, _ in handed[1:])

    def test_dt_floor_aborts_with_partial_trajectory(self, grid64):
        state = build_initial_state(grid64, {"kind": "sinusoidal"})
        handed = []
        with pytest.raises(AbortedRunError) as info:
            run_flow(state, params := FlowParams(t_final=1.0, dt_floor=1.0), handed.append)
        traj = info.value.trajectory
        assert _step_fields(traj, params)["termination"] == "aborted"
        assert traj.snapshot_rows == [0] and handed == [state]
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
        assert len(traj.snapshot_rows) > 1

    def test_snapshots_keep_their_values(self):
        # Each state that a 16x16 run, stepping in the ring and then
        # stalling, hands on holds its snapshot's state when it is handed
        # on: its energy is its row's E, bit for bit.  A frozen snapshot
        # hands on nothing.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(0),
        )
        recorded = Recorded()
        traj = run_flow(state, params := FlowParams(t_final=1.0, snapshot_interval=0.005),
                        recorded)
        assert _step_fields(traj, params)["termination"] == "stalled"
        snaps = recorded.snapshots(traj, params.stall_threshold)
        assert len(snaps) == 201
        assert [energy(s).hex() for s in snaps] == [
            e.hex() for e in traj.energy[traj.snapshot_rows].tolist()]
        frozen = traj.dissipation[traj.snapshot_rows] < FlowParams.stall_threshold
        assert 0 < frozen.sum() < len(frozen) - 1
        assert len(recorded) == len(snaps) - frozen[:-1].sum()
        assert [s.t for s in recorded] == [s.t for s, f in zip(snaps, [False, *frozen]) if not f]

    @pytest.mark.parametrize("reject", [(), (0,), (7,), (30, 31, 32), (100,)])
    def test_a_rejected_candidate_leaves_the_state_and_tau_intact(self, monkeypatch, reject):
        # Candidates are rejected after their pass has written them into the
        # ring, by an energy that rose to inf; the run's rows are those of a
        # loop that makes every state and tau a new array.
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(1),
        )
        params = FlowParams(t_final=0.05, snapshot_interval=0.01)
        edge_pass, passes = flow_module._edge_pass, []

        def rejecting(ws, slot):
            e, d = edge_pass(ws, slot)
            passes.append(slot)
            if len(passes) - 2 in reject:  # pass 0 is the initial state's
                e = math.inf
            return e, d

        monkeypatch.setattr(flow_module, "_edge_pass", rejecting)
        traj = run_flow(state, params)
        reference = reference_steps(state, params, reject)
        assert max(reject, default=0) < len(passes) - 1
        assert traj.steps.tobytes() == reference["rows"].tobytes()
        assert traj.rejected_steps == reference["rejected"] >= len(reject)

    @pytest.mark.parametrize("start, k", [
        ((16, 16), 2.0**7), ((12, 12), 0.5), ((12, 10), 0.5), ("signed_zeros", 8.0)])
    def test_each_scale_steps_by_dt_k_on_tau_over_k(self, monkeypatch, start, k):
        # The pass leaves tau / k in the slot's tau buffer and run_flow steps
        # by dt * k, which is exact, so its rows are the reference loop's,
        # which steps by dt on tension_field's tau: at 16^2 k is 1/(2 h^2) and
        # no difference is divided by h; at 12^2 k is 1/2 and they are; at
        # 12 x 10 h1 != h2; and on the signed zeros only tau_u takes +0.0
        # from a sum, tau_v from its S / v.  In each slot k times the buffer
        # is tension_field's tau on the slot's fields, byte for byte.
        if start == "signed_zeros":
            state = _signed_zero_state((4, 4))
        else:
            state = build_initial_state(
                DomainGrid(*start), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
                np.random.default_rng(5))
        params = FlowParams(t_final=0.02, snapshot_interval=0.01)
        edge_pass, passes = flow_module._edge_pass, []

        def kept(ws, slot):
            e, d = edge_pass(ws, slot)
            if len(passes) < 6:
                passes.append((slot, ws.k, ws.ring[slot].copy(), ws.taus[slot].copy()))
            return e, d

        monkeypatch.setattr(flow_module, "_edge_pass", kept)
        traj = run_flow(state, params)
        monkeypatch.undo()
        assert traj.steps.tobytes() == reference_steps(state, params)["rows"].tobytes()
        assert {slot for slot, *_ in passes} == ({0} if start == "signed_zeros" else {0, 1})
        for slot, ws_k, fields, buffer in passes:
            tau = tension_field(MapState(state.grid, *fields)).tau
            assert ws_k == k and (k * buffer).tobytes() == tau.tobytes()

    @staticmethod
    def _edit_candidate(monkeypatch, at, edit):
        """Patch the forward-Euler update that run_flow and step share, so
        that edit changes the candidate it forms at call number at (from 0);
        returns the list of calls, to be cleared between runs."""
        euler, calls = flow_module._euler, []

        def edited(fields, dt, tau, out):
            out = euler(fields, dt, tau, out)
            if len(calls) == at:
                edit(out)
            calls.append(dt)
            return out

        monkeypatch.setattr(flow_module, "_euler", edited)
        return calls

    @pytest.mark.parametrize("field, value", [
        (0, math.inf), (0, -math.inf), (0, math.nan),
        (1, math.inf), (1, -math.inf), (1, math.nan), (1, V_FLOOR),
    ])
    def test_a_candidate_step_refuses_is_rejected_and_counted(self, monkeypatch, field, value):
        # run_flow checks the minimum of the candidate's v before its pass,
        # and looks for a value that is not finite only when E is not
        # finite; it rejects the candidates step refuses, and no warning
        # leaves it.
        state = build_initial_state(
            DomainGrid(12, 10), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(2),
        )
        params = FlowParams(t_final=0.01, snapshot_interval=0.005)

        def edit(fields):
            fields[field, 3, 4] = value

        calls = self._edit_candidate(monkeypatch, 7, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_flow(state, params)
        calls.clear()
        reference = reference_steps(state, params)
        assert len(calls) > 8
        assert traj.steps.tobytes() == reference["rows"].tobytes()
        assert traj.rejected_steps == reference["rejected"] == 1

    def test_a_finite_candidate_whose_energy_is_nan_is_accepted(self, monkeypatch):
        # v at two neighbouring nodes so large that v^2 overflows, and the
        # square of their difference too: the edge between them has weight
        # 0 and an infinite square, so E is nan.  Every value is finite and
        # the energy rule does not reject a nan, so the candidate is accepted
        # as step and that rule accept it; its tau is not finite, so every
        # later candidate leaves the target and the run aborts.
        state = build_initial_state(
            DomainGrid(12, 10), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(2),
        )
        params = FlowParams(t_final=0.01, snapshot_interval=0.005, dt_floor=1e-7)

        def edit(fields):
            fields[1, 3, 4:6] = 1e200, 3e200

        calls = self._edit_candidate(monkeypatch, 7, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AbortedRunError) as info:
                run_flow(state, params)
        traj = info.value.trajectory
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            reference = reference_steps(state, params)
        assert reference["termination"] == "aborted"
        assert traj.steps.tobytes() == reference["rows"].tobytes()
        assert traj.rejected_steps == reference["rejected"] > 0
        assert len(traj.steps) == 9 and math.isnan(traj.energy[-1])

    def test_the_stepping_record_takes_32_bytes_a_row(self):
        # The record is one packed row per step, and the steps a view of it:
        # a run's traced heap peak grows by about 26 bytes a row with its
        # steps here (a list of tuples copied into an array took 226).
        state = build_initial_state(
            DomainGrid(16, 16), {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            np.random.default_rng(0),
        )
        peaks, rows = [], []
        for t_final in (0.05, 1.0):
            tracemalloc.start()
            try:
                traj = run_flow(state, FlowParams(t_final=t_final, snapshot_interval=t_final))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            rows.append(len(traj.steps))
            assert traj.steps.dtype == float and traj.steps.flags.c_contiguous
        assert rows[1] - rows[0] > 500
        assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) < 48

    def test_scaling_the_map_by_two_keeps_every_bit(self):
        # z -> 2z is an isometry, and multiplying by a power of two is exact:
        # the differences double and the weights 1/v^2 quarter, so E, D and,
        # while v_min >= 1 keeps the cap's min(1, v_min^2) at 1, every dt
        # are the same bits, and each state is exactly twice the original.
        state = build_initial_state(DomainGrid(16, 16), {"kind": "random", "v0": 1.8},
                                    np.random.default_rng(0))
        runs = []
        for scale in (1.0, 2.0):
            states = []
            scaled = MapState(state.grid, scale * state.u, scale * state.v)
            traj = run_flow(scaled, FlowParams(t_final=0.2),
                            lambda s: states.append(s.fields.copy()))
            runs.append((traj, states))
        (traj, states), (traj2, states2) = runs
        assert len(traj.steps) == 415 and min(s[1].min() for s in states) >= 1.0
        assert traj2.steps.tobytes() == traj.steps.tobytes()
        assert (traj2.snapshot_rows, traj2.rejected_steps) == (traj.snapshot_rows,
                                                               traj.rejected_steps)
        assert len(states2) == len(states) == 5
        assert all((2.0 * a).tobytes() == b.tobytes() for a, b in zip(states, states2))

    def test_a_vertical_geodesic_is_solved_at_second_order(self):
        # With u constant, tau_u = 0 and tau_v = v Delta(log v), so
        # s = log v solves the heat equation: s = b exp(-4 pi^2 m^2 t)
        # cos(2 pi m x2), with E(t) = pi^2 m^2 b^2 exp(-8 pi^2 m^2 t).  The
        # discrete flow keeps u at zero, and the state's and E's errors
        # fall about 4x per halving of h at a fixed cfl_safety.
        b, m, t_final = 0.3, 1, 0.02
        errors = []
        for n in (16, 32, 64):
            initial = build_initial_state(DomainGrid(n, n),
                                          {"kind": "winding", "amp": 0, "b": b, "m": m})
            states = []
            traj = run_flow(initial, FlowParams(t_final=t_final),
                            lambda s: states.append((s.t, s.fields.copy())))
            # The initial u is 0 * sin, -0.0 where sin < 0; the first step's
            # tau_u is +0.0, which makes every zero +0.0.
            assert [t for t, _ in states] == [0.0, t_final]
            assert np.all(states[0][1][0] == 0.0)
            t, fields = states[-1]
            assert fields[0].tobytes() == np.zeros((n, n)).tobytes()
            decay = math.exp(-4 * math.pi**2 * m**2 * t)
            exact_s = b * decay * np.cos(TWO_PI * m * initial.grid.x2)
            exact_e = math.pi**2 * m**2 * b**2 * decay**2
            errors.append((float(np.abs(np.log(fields[1]) - exact_s).max()),
                           abs(traj.energy[-1] - exact_e) / exact_e))
        assert errors[0][0] < 3e-4 and errors[0][1] < 1.2e-2
        for coarse, fine in zip(errors, errors[1:]):
            for c, f in zip(coarse, fine):
                assert 3.5 < c / f < 4.5

    def test_a_semicircle_geodesic_is_solved_at_second_order(self, tmp_path):
        # The isometry gamma = (1/sqrt 2)[[1, -1], [1, 1]], z -> (z - 1)/(z + 1),
        # maps the vertical solution i exp(s) onto the unit semicircle,
        # u = tanh s and v = sech s, and keeps E(t).  Both fields move, so
        # the u fluxes and the cross terms of tau enter.  Started from a file,
        # the state's max-norm error and E's relative error fall about 4x per
        # halving of h at a fixed cfl_safety.
        b, m, t_final = 0.3, 1, 0.02
        errors = []
        for n in (16, 32, 64):
            grid = DomainGrid(n, n)

            def semicircle(t):
                s = (b * math.exp(-4 * math.pi**2 * m**2 * t)
                     * np.cos(TWO_PI * m * grid.x2) * np.ones(grid.shape))
                return np.stack((np.tanh(s), 1.0 / np.cosh(s)))

            path = tmp_path / f"semicircle{n}.npy"
            np.save(path, semicircle(0.0))
            initial = build_initial_state(grid, {"kind": "file", "path": str(path)})
            states = []
            traj = run_flow(initial, FlowParams(t_final=t_final),
                            lambda s: states.append((s.t, s.fields.copy())))
            assert [t for t, _ in states] == [0.0, t_final]
            exact_e = math.pi**2 * m**2 * b**2 * math.exp(-8 * math.pi**2 * m**2 * t_final)
            errors.append((float(np.abs(states[-1][1] - semicircle(t_final)).max()),
                           abs(traj.energy[-1] - exact_e) / exact_e))
        assert errors[0][0] < 4e-4 and errors[0][1] < 8.5e-3
        for coarse, fine in zip(errors, errors[1:]):
            for c, f in zip(coarse, fine):
                assert 3.5 < c / f < 4.5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FlowParams(t_final=0.0)
        with pytest.raises(ValueError):
            FlowParams(t_final=1.0, cfl_safety=2.0)
        with pytest.raises(ValueError):
            FlowParams(t_final=1.0, dt_floor=0.0)


class TestJacobian:
    def test_constant_map(self, grid64):
        assert np.all(jacobian_det(_constant_state(grid64).fields, grid64) == 0.0)

    def test_product_mode_value_at_origin(self):
        grid = DomainGrid(64, 64)
        u = 0.1 * np.sin(TWO_PI * grid.x1) * np.ones(grid.shape)
        v = 1.0 + 0.1 * np.sin(TWO_PI * grid.x2) * np.ones(grid.shape)
        jac = jacobian_det(np.stack((u, v)), grid)
        # Central differences of the two sines at the origin node.
        central = 0.1 * math.sin(TWO_PI * grid.h1) / grid.h1
        assert abs(jac[0, 0] - central**2) <= 1e-14
        assert abs(jac[0, 0] - 0.04 * math.pi**2) <= 5e-3

    def test_axis_swap_antisymmetry(self, rng):
        grid = DomainGrid(12, 12)
        u = rng.standard_normal(grid.shape)
        v = np.exp(0.1 * rng.standard_normal(grid.shape))
        j = jacobian_det(np.stack((u, v)), grid)
        j_swapped = jacobian_det(np.stack((u.T, v.T)), grid)
        assert np.array_equal(j_swapped, -j.T)

    def test_a_stack_gives_each_state_its_own_bits(self, rng):
        grid = DomainGrid(12, 8)
        stack = rng.standard_normal((3, 2, *grid.shape))
        assert np.array_equal(jacobian_det(stack, grid),
                              [jacobian_det(fields, grid) for fields in stack])


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
        min_value=V_FLOOR, exclude_min=True, allow_infinity=False)))
    return MapState(grid, u, v, t=draw(finite))


def _write(path, states):
    """Write states with write_snapshot, on the first state's grid."""
    with write_snapshot(path, states[0].grid) as record:
        for state in states:
            record(state)


class TestSnapshotIO:
    def test_golden_text(self, tmp_path):
        u = np.arange(16.0).reshape(4, 4) / 8 - 1
        u[0, 1], u[0, 2] = -0.0, 5e-324
        v = 1.0 + np.arange(16.0).reshape(4, 4) / 10
        path = tmp_path / "states.npy"
        _write(path, [MapState(DomainGrid(4, 4), u, v, t=0.375)])
        assert path.read_bytes() == SNAPSHOT_HEADER + u.tobytes() + v.tobytes()
        chunk, = read_snapshot(path, DomainGrid(4, 4))
        assert chunk.shape == (1, 2, 4, 4) and chunk.tobytes() == u.tobytes() + v.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(state=_states())
    def test_round_trip_property(self, state, tmp_path_factory):
        path = tmp_path_factory.mktemp("snap") / "states.npy"
        _write(path, [state])
        chunk, = read_snapshot(path, state.grid)
        assert chunk.shape == (1, *state.fields.shape)
        assert chunk.tobytes() == state.fields.tobytes()

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        # Several states are np.save's file of their stack, read back in
        # chunks of CHUNK_NODES grid nodes, 16 states at 16x16, each chunk
        # an array of its own.
        grid = DomainGrid(16, 16)
        states = [MapState(grid, rng.standard_normal(grid.shape),
                           np.exp(rng.standard_normal(grid.shape)), t=0.375 * j)
                  for j in range(40)]
        path, alone = tmp_path / "states.npy", tmp_path / "alone.npy"
        _write(path, states)
        np.save(alone, np.stack([s.fields for s in states]))
        assert path.read_bytes() == alone.read_bytes()
        chunks = list(read_snapshot(path, grid, 40))
        assert [len(c) for c in chunks] == [16, 16, 8]
        assert all(c.flags.c_contiguous for c in chunks)
        assert not any(np.shares_memory(a, b) for a, b in zip(chunks, chunks[1:]))
        assert np.concatenate(chunks).tobytes() == np.load(alone).tobytes()

    def test_the_header_is_rewritten_when_the_block_is_left(self, rng, tmp_path):
        # A block left by an exception, as by an aborted run, leaves np.save's
        # file of the states recorded so far; the header keeps its length.
        grid = DomainGrid(4, 6)
        state = MapState(grid, rng.standard_normal(grid.shape), np.full(grid.shape, 2.0))
        path = tmp_path / "states.npy"
        with pytest.raises(RuntimeError, match="stopped"):
            with write_snapshot(path, grid) as record:
                record(state)
                record(state)
                raise RuntimeError("stopped")
        np.save(tmp_path / "alone.npy", np.stack([state.fields] * 2))
        assert path.read_bytes() == (tmp_path / "alone.npy").read_bytes()
        with pytest.raises(ValueError, match=r"a state of shape \(2, 4, 4\) among states "
                                             r"of shape \(2, 4, 6\)"):
            with write_snapshot(path, grid) as record:
                record(_constant_state(DomainGrid(4, 4)))
        assert np.load(path).shape == (0, 2, 4, 6)

    def test_one_state_alone_reads_as_a_stack_of_one(self, rng, tmp_path):
        grid = DomainGrid(4, 6)
        state = MapState(grid, rng.standard_normal(grid.shape), np.full(grid.shape, 2.0))
        path = tmp_path / "state.npy"
        np.save(path, state.fields)
        chunk, = read_snapshot(path, grid)
        assert chunk.shape == (1, 2, 4, 6) and chunk.tobytes() == state.fields.tobytes()
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
        (1, V_FLOOR, f"v_min {V_FLOOR} is at or below {V_FLOOR}"),
    ])
    def test_the_first_state_at_fault_is_named(self, tmp_path, j, value, problem):
        stack = np.ones((4, 2, 4, 4))
        stack[j, 1, 2, 3] = stack[3, 0, 0, 0] = value
        path = tmp_path / "states.npy"
        np.save(path, stack)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: state {j}: "
                                             rf"{re.escape(problem)}$"):
            list(read_snapshot(path, DomainGrid(4, 4)))

    def test_a_state_at_fault_is_named_by_its_index_in_the_stack(self, tmp_path):
        # Four states to a chunk at 32x32: state 6 is the third of chunk 1,
        # which is read after chunk 0 has been handed on.
        stack = np.ones((9, 2, 32, 32))
        stack[6, 0, 5, 5] = np.nan
        path = tmp_path / "states.npy"
        np.save(path, stack)
        chunks = read_snapshot(path, DomainGrid(32, 32))
        assert next(chunks).shape == (4, 2, 32, 32)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: state 6: the values"):
            next(chunks)

    def test_bytes_after_the_array_are_refused(self, tmp_path):
        # np.load ignores them; a reader that did would pass a damaged file.
        path = tmp_path / "states.npy"
        np.save(path, np.ones((2, 2, 4, 4)))
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: the array of shape "
                                             r"\(2, 2, 4, 4\) takes 512 bytes, the file holds "
                                             r"528 after its header$"):
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
        _write(path, [_constant_state(grid64)])
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
        _write(path, [MapState(grid, rng.standard_normal(grid.shape),
                               np.exp(rng.standard_normal(grid.shape))) for _ in range(2)])
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        path.write_bytes(raw)
        try:
            stack = np.concatenate(list(read_snapshot(path, grid)))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            # The file's length holds the header's shape to two states.
            assert stack.shape == (2, 2, 4, 5) and stack.dtype == np.dtype(float)
            assert np.isfinite(stack).all() and stack[:, 1].min() > V_FLOOR
