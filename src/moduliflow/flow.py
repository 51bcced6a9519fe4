"""Gradient flow of the harmonic-map energy into the upper half-plane.

A map state holds two periodic scalar fields (u, v) on a DomainGrid, read as
the coordinates of a map from the flat torus into the hyperbolic plane
(v > 0).  The energy is

    E = 1/2 * integral of (|Du|^2 + |Dv|^2) / v^2,

discretised with the staggered forward differences of the grid and the
metric weight 1/v^2 averaged onto cell edges.  One pass over those edges
yields the energy, the tension field tau and the dissipation rate D together;
energy(), tension_field() and dissipation_rate() each return one of the
three, and run_flow() makes one pass per candidate state.  tau is the exact
negative gradient of the discrete energy in the hyperbolic L^2 inner product
<a, b> = integral of (a_u b_u + a_v b_v)/v^2, and D = ||tau||^2, so
forward-Euler stepping dissipates the discrete energy structurally (up to
O(dt) per step), and the energy identity E(0) - E(T) = integral of D holds at
first order.

The continuum limit of the two components is

    tau_u = Lap u - (2/v) <Du, Dv>,
    tau_v = Lap v + (|Du|^2 - |Dv|^2) / v,

which is certified against the energy by the gradient-consistency tests
rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import DomainGrid, periodic_op

# Hard positivity floor for the second coordinate; states at or below the
# floor are treated as having escaped the target.
V_FLOOR = 1e-8

# run_flow rejects a step that raises the energy by more than this.
ENERGY_STEP_TOL = 1e-10


class TargetEscapeError(ValueError):
    """A state's v field is at or below the positivity floor."""

    def __init__(self, message: str, node: tuple[int, int]):
        super().__init__(message)
        self.node = node


class StepRejectedError(RuntimeError):
    """A proposed explicit step left the target or increased the energy."""

    def __init__(self, message: str, node: tuple[int, int] | None = None):
        super().__init__(message)
        self.node = node


class AbortedRunError(RuntimeError):
    """Adaptive stepping drove dt under the floor; carries the partial run."""

    def __init__(self, message: str, trajectory: "FlowTrajectory"):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass
class MapState:
    """Map into the upper half-plane: fields u, v on a grid at time t.

    The fields are checked on construction and are not to be changed in
    place afterwards: v_min, the minimum of v, is recorded then.
    """

    grid: DomainGrid
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0
    v_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.u = self.grid.check_field(self.u, "u")
        self.v = self.grid.check_field(self.v, "v")
        self.v_min = float(self.v.min())
        if self.v_min <= 0.0:
            node = np.unravel_index(int(self.v.argmin()), self.v.shape)
            raise ValueError(f"v must be positive everywhere; v{tuple(node)} = {self.v[node]}")
        self.t = float(self.t)

    @classmethod
    def _checked(cls, grid, u, v, t, v_min) -> "MapState":
        """A state from fields the caller has already checked: finite float
        arrays of the grid's shape, with v_min = min(v) > 0."""
        state = object.__new__(cls)
        state.grid, state.u, state.v, state.t, state.v_min = grid, u, v, float(t), v_min
        return state

    def copy(self) -> "MapState":
        return MapState(self.grid, self.u.copy(), self.v.copy(), self.t)


@dataclass
class TangentField:
    """Tangent vector along a map: components (tau_u, tau_v) at each node."""

    tau_u: np.ndarray
    tau_v: np.ndarray


def _check_above_floor(state: MapState):
    vmin = state.v_min
    if vmin <= V_FLOOR:
        node = tuple(int(k) for k in np.unravel_index(int(state.v.argmin()), state.v.shape))
        raise TargetEscapeError(
            f"v at node {node} is {vmin}, at or below the floor {V_FLOOR}", node
        )


class _EdgeWorkspace:
    """Scratch arrays of _edge_pass for one grid shape.

    The caller that makes many passes on one grid owns one workspace and
    hands it to every pass, so the passes allocate nothing but the tau they
    return.  The arrays hold no result between passes.
    """

    def __init__(self, shape: tuple[int, int]):
        self.shape = tuple(shape)
        (self.sigma, self.v2, self.div_u, self.div_v, self.edge_sq, self.du,
         self.dv, self.rho, self.flux, self.sq, self.tmp) = np.empty((11, *shape))


def _edge_pass(state: MapState, ws: _EdgeWorkspace) -> tuple[float, TangentField, float]:
    """Energy E, tension field tau and dissipation rate D of one state.

    For each axis the metric weight sigma = 1/v^2 is averaged onto the
    staggered edge where the forward difference lives, and E sums the
    weighted squared differences over the edges.  Differentiating E exactly
    gives

        tau_u = v^2 * div(rho * Du)
        tau_v = v^2 * div(rho * Dv) + S / (2 v)

    where rho is the edge weight, div the matching backward divergence, and
    S collects the squared forward differences on the four edges touching
    the node (the derivative of rho with respect to v).  Constant maps give
    exactly zero.  D = ||tau||^2 in the hyperbolic inner product.

    Every intermediate lives in ws, which must be for the state's grid
    shape; the returned tau arrays are fresh.  Each value is formed by the
    same floating-point operations in the same order as when every
    neighbour is first copied into a shifted array (u[k+1] - u[k],
    sigma[k] + sigma[k+1], flux[k] - flux[k-1], sq[k] + sq[k-1], ...), so
    the results agree with that formulation bit for bit.
    """
    grid = state.grid
    if ws.shape != grid.shape:
        raise ValueError(f"workspace is for shape {ws.shape}, the state has {grid.shape}")
    u, v = state.u, state.v
    sigma, v2, tmp, flux, sq = ws.sigma, ws.v2, ws.tmp, ws.flux, ws.sq
    du, dv, rho = ws.du, ws.dv, ws.rho
    np.multiply(v, v, out=v2)
    np.divide(1.0, v2, out=sigma)
    for acc in (ws.div_u, ws.div_v, ws.edge_sq):
        acc.fill(0.0)
    total = 0.0
    for axis, h in ((0, grid.h1), (1, grid.h2)):
        periodic_op(np.subtract, u, u, du, axis, a_shift=1)
        du /= h
        periodic_op(np.subtract, v, v, dv, axis, a_shift=1)
        dv /= h
        periodic_op(np.add, sigma, sigma, rho, axis, b_shift=1)
        rho *= 0.5
        for diff, div in ((du, ws.div_u), (dv, ws.div_v)):
            np.multiply(rho, diff, out=flux)
            periodic_op(np.subtract, flux, flux, tmp, axis, b_shift=-1)
            tmp /= h
            div += tmp
        np.multiply(du, du, out=sq)
        np.multiply(dv, dv, out=tmp)
        sq += tmp
        periodic_op(np.add, sq, sq, tmp, axis, b_shift=-1)
        ws.edge_sq += tmp
        np.multiply(sq, rho, out=tmp)
        total += float(tmp.sum())
    tau_u = v2 * ws.div_u
    tau_v = v2 * ws.div_v
    np.multiply(2.0, v, out=tmp)
    np.divide(ws.edge_sq, tmp, out=tmp)
    tau_v += tmp
    np.square(tau_u, out=tmp)
    np.square(tau_v, out=flux)
    tmp += flux
    tmp *= sigma
    dissipation = float(grid.w * tmp.sum())
    return 0.5 * grid.w * total, TangentField(tau_u, tau_v), dissipation


def tension_field(state: MapState) -> TangentField:
    """Exact negative discrete-energy gradient in the hyperbolic inner product;
    raises TargetEscapeError at or below the v floor."""
    _check_above_floor(state)
    return _edge_pass(state, _EdgeWorkspace(state.grid.shape))[1]


def energy(state: MapState) -> float:
    """Harmonic-map energy of the state (staggered discretisation)."""
    return _edge_pass(state, _EdgeWorkspace(state.grid.shape))[0]


def dissipation_rate(state: MapState) -> float:
    """Squared hyperbolic L^2 norm of the tension field: D = ||tau||^2."""
    return _edge_pass(state, _EdgeWorkspace(state.grid.shape))[2]


def cfl_dt_max(state: MapState, safety: float = 0.5) -> float:
    """Stability cap for explicit stepping.

    The heat-kernel part of the flow has unit diffusivity, so dt must stay
    under min(h)^2 / 4 regardless of the metric; near the real axis the
    nonlinear terms grow like 1/v, so the cap is sharpened by min(v)^2 when
    that is below 1 (and only then -- letting small-v states loosen the flat
    bound would destabilise the linear part).
    """
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must be in (0, 1], got {safety}")
    h = min(state.grid.h1, state.grid.h2)
    vmin = state.v_min
    return safety * h * h * min(1.0, vmin * vmin) / 4.0


def step(state: MapState, dt: float, tangent: TangentField | None = None) -> MapState:
    """One forward-Euler step.  Raises StepRejectedError when the step lands
    at or below the v floor or produces non-finite values.

    Those checks cover everything MapState checks, so the new state is built
    without checking its fields a second time."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    cap = cfl_dt_max(state, safety=1.0)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds the stability cap {cap}")
    if tangent is None:
        tangent = tension_field(state)
    u_new = dt * tangent.tau_u
    u_new += state.u
    v_new = dt * tangent.tau_v
    v_new += state.v
    v_min = float(v_new.min())
    if not (v_min > V_FLOOR and np.isfinite(v_new).all() and np.isfinite(u_new).all()):
        bad = int(np.argmin(np.where(np.isfinite(v_new), v_new, -np.inf)))
        node = tuple(int(k) for k in np.unravel_index(bad, v_new.shape))
        raise StepRejectedError(
            f"step of dt = {dt} leaves the target at node {node}", node
        )
    return MapState._checked(state.grid, u_new, v_new, state.t + dt, v_min)


@dataclass
class FlowParams:
    """Solver controls for run_flow."""

    t_final: float
    snapshot_interval: float = 0.05
    cfl_safety: float = 0.5
    dt_floor: float = 1e-12
    stall_threshold: float = 1e-14

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not self.snapshot_interval > 0.0:
            raise ValueError("snapshot_interval must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if not self.dt_floor > 0.0:
            raise ValueError("dt_floor must be positive")
        if self.stall_threshold < 0.0:
            raise ValueError("stall_threshold must be nonnegative")


@dataclass
class FlowTrajectory:
    """Recorded run: per-accepted-step scalars plus snapshot states.

    Row 0 of the scalar series describes the initial state (dt_used = 0).
    snapshot_rows[k] is the row index of snapshot k in the scalar series.
    """

    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    cumulative_dissipation: np.ndarray
    dt_used: np.ndarray
    snapshots: list[MapState]
    snapshot_rows: list[int]
    monotonicity_violations: int
    rejected_steps: int
    termination: str
    accepted_steps: int = 0

    @property
    def snapshot_times(self) -> np.ndarray:
        return self.times[self.snapshot_rows]


def _trajectory_from_lists(rows, snapshots, snapshot_rows, violations, rejected,
                           reason, accepted):
    arr = np.array(rows)
    return FlowTrajectory(
        times=arr[:, 0],
        energy=arr[:, 1],
        dissipation=arr[:, 2],
        cumulative_dissipation=arr[:, 3],
        dt_used=arr[:, 4],
        snapshots=snapshots,
        snapshot_rows=snapshot_rows,
        monotonicity_violations=violations,
        rejected_steps=rejected,
        termination=reason,
        accepted_steps=accepted,
    )


def run_flow(initial: MapState, params: FlowParams) -> FlowTrajectory:
    """Integrate the flow to t_final with adaptive explicit stepping.

    dt starts at the stability cap, is halved whenever a step is rejected
    (target escape or an energy increase beyond ENERGY_STEP_TOL), and
    regrows by 1.2x per step once 10 consecutive steps have been accepted,
    never exceeding the cap.  Steps are clipped so the run lands exactly on
    snapshot times and on the final time.  Once the dissipation is below the
    stall threshold the state is declared numerically harmonic: every later
    step is a frozen step, which keeps the fields and moves on to the next
    snapshot time or t_final (a stationary point does not change, so this
    continuation is exact rather than a giant unstable step).  If dt falls
    under dt_floor the partial trajectory is attached to the raised
    AbortedRunError.

    t_final is a duration measured from the initial state's time, which may
    be any time, a snapshot time included; snapshot times are the absolute
    multiples of snapshot_interval.  States are immutable, so the snapshots
    are the states of the run themselves: only the initial state is copied,
    and frozen snapshots share the stalled state's arrays.
    """
    state = initial.copy()
    _check_above_floor(state)
    ws = _EdgeWorkspace(state.grid.shape)
    e_cur, tangent, d_cur = _edge_pass(state, ws)
    interval = params.snapshot_interval

    rows = [(state.t, e_cur, d_cur, 0.0, 0.0)]
    snapshots, snapshot_rows = [state], [0]
    violations = rejected = accepted = streak = 0
    cumulative = 0.0
    snap_k = int(math.floor(state.t / interval)) + 1

    t_final = state.t + params.t_final
    end = t_final - 1e-14 * max(1.0, t_final)
    dt = cfl_dt_max(state, params.cfl_safety)
    reason = "t_final"
    while state.t < end:
        # Record the last row's state for each snapshot time it has reached
        # (once); on the first pass this only moves snap_k past a start that
        # is itself a snapshot time.
        while snap_k * interval <= state.t + 1e-14 * max(1.0, state.t):
            if snapshot_rows[-1] != len(rows) - 1:
                snapshots.append(state)
                snapshot_rows.append(len(rows) - 1)
            snap_k += 1
        next_snap = snap_k * interval
        if d_cur < params.stall_threshold:
            # Frozen step; it is not an accepted step and leaves dt alone.
            reason = "stalled"
            t_here = min(next_snap, t_final)
            dt_used, d_new = t_here - state.t, d_cur
            state = MapState._checked(state.grid, state.u, state.v, t_here, state.v_min)
        else:
            cap = cfl_dt_max(state, params.cfl_safety)
            dt_used = min(dt, cap, t_final - state.t, next_snap - state.t)
            if dt_used < params.dt_floor:
                raise AbortedRunError(
                    f"dt = {dt_used} fell below the floor {params.dt_floor} at t = {state.t}",
                    _trajectory_from_lists(
                        rows, snapshots, snapshot_rows, violations, rejected,
                        "aborted", accepted,
                    ),
                )
            try:
                new_state = step(state, dt_used, tangent)
                e_new, tangent_new, d_new = _edge_pass(new_state, ws)
                if e_new - e_cur > ENERGY_STEP_TOL:
                    raise StepRejectedError(
                        f"energy increased by {e_new - e_cur} at t = {state.t}"
                    )
            except StepRejectedError:
                dt = 0.5 * dt_used
                rejected += 1
                streak = 0
                continue
            if e_new > e_cur + ENERGY_STEP_TOL:
                violations += 1  # unreachable under the rejection rule; audited anyway
            state, tangent, e_cur = new_state, tangent_new, e_new
            accepted += 1
            streak += 1
            dt = dt_used
            if streak >= 10:
                dt = min(dt * 1.2, cap)
        # The dissipation integral uses the pre-step rate, matching the
        # explicit quadrature of dE/dt = -D (and, frozen, the stalled rate).
        cumulative += dt_used * d_cur
        d_cur = d_new
        rows.append((state.t, e_cur, d_cur, cumulative, dt_used))
    if snapshot_rows[-1] != len(rows) - 1:
        snapshots.append(state)
        snapshot_rows.append(len(rows) - 1)
    return _trajectory_from_lists(
        rows, snapshots, snapshot_rows, violations, rejected, reason, accepted
    )


def jacobian_det(state: MapState) -> np.ndarray:
    """Pointwise Jacobian determinant du/dx1 * dv/dx2 - du/dx2 * dv/dx1,
    by central differences."""
    u1, u2 = state.grid.gradient(state.u)
    v1, v2 = state.grid.gradient(state.v)
    return u1 * v2 - u2 * v1


def chain_rule_residual(state: MapState, f) -> float:
    """L^2 norm of the defect of the composition identity

        Lap(f o phi) = df(tau(phi)) + sum_k Hess f(d_k phi, d_k phi),

    where Hess is the hyperbolic Hessian of f (Christoffel terms included)
    and all map derivatives are grid finite differences.  For smooth f and a
    state sampled from a smooth map the residual is O(h^2).

    f must expose value / gradient / hessian taking coordinate arrays.
    """
    grid = state.grid
    u, v = state.u, state.v
    tangent = tension_field(state)
    lhs = grid.laplacian(f.value(u, v))
    fx, fy = f.gradient(u, v)
    fxx, fxy, fyy = f.hessian(u, v)
    # Hyperbolic Hessian: H = D^2 f - Gamma * df with the half-plane symbols
    # Gamma^x_xy = -1/y, Gamma^y_xx = 1/y, Gamma^y_yy = -1/y (y = v here).
    h_xx = fxx - fy / v
    h_xy = fxy + fx / v
    h_yy = fyy + fy / v
    u1, u2 = grid.gradient(u)
    v1, v2 = grid.gradient(v)
    quad = (
        h_xx * (u1 * u1 + u2 * u2)
        + 2.0 * h_xy * (u1 * v1 + u2 * v2)
        + h_yy * (v1 * v1 + v2 * v2)
    )
    residual = lhs - (fx * tangent.tau_u + fy * tangent.tau_v + quad)
    return float(np.sqrt(grid.integrate(residual * residual)))


def write_snapshot(state: MapState, path) -> None:
    """Write a state's fields as one .npy array of shape (2, n1, n2), u then
    v, native float64 in C order; its time is not stored."""
    with open(path, "wb") as fh:
        np.save(fh, np.stack((state.u, state.v)))


def read_snapshot(path, grid: DomainGrid) -> MapState:
    """Read the fields written by write_snapshot as a state on grid at t = 0;
    u and v are views of the one array read.  The file must hold a native
    float64 C-order array of shape (2, n1, n2), read without unpickling, and
    the fields must pass MapState's checks.  Any failure but an OSError
    raises ValueError naming the file: on a damaged header np.load also
    raises EOFError, SyntaxError, TypeError and tokenize's errors."""
    try:
        with open(path, "rb") as fh:
            fields = np.load(fh, allow_pickle=False)
        if not isinstance(fields, np.ndarray) or fields.dtype != np.dtype(float):
            raise ValueError(f"expected a native float64 array, found "
                             f"{getattr(fields, 'dtype', type(fields).__name__)}")
        if fields.shape != (2, *grid.shape):
            raise ValueError(f"shape {fields.shape}, expected {(2, *grid.shape)}")
        if not fields.flags.c_contiguous:
            raise ValueError("the array is not in C order")
        return MapState(grid, fields[0], fields[1])
    except OSError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: {exc}") from exc
