"""Gradient flow of the harmonic-map energy into the upper half-plane.

A map state holds two periodic scalar fields (u, v) on a DomainGrid, read as
the coordinates of a map from the flat torus into the hyperbolic plane
(v > 0), as one (2, n1, n2) array; a tangent field is one such array too.  The energy is

    E = 1/2 * integral of (|Du|^2 + |Dv|^2) / v^2,

discretised with the staggered forward differences of the grid and the
metric weight 1/v^2 averaged onto cell edges.  One pass over those edges
yields the energy, the tension field tau and the dissipation rate D together;
energy(), tension_field() and dissipation_rate() each return one of the
three, and run_flow() makes one pass per candidate state.  run_flow steps in
a ring of two field and two tau buffers that the pass's workspace owns, so
it allocates no array of the grid's size per step, and it copies a state
out of the ring once when it records it.  tau is the exact negative
gradient of the discrete energy in the hyperbolic L^2 inner product
<a, b> = integral of (a_u b_u + a_v b_v)/v^2, and D = ||tau||^2, so
forward-Euler stepping dissipates the discrete energy structurally (up to
O(dt) per step), and the energy identity E(0) - E(T) = integral of D holds at
first order.

The continuum limit of the two components is

    tau_u = Lap u - (2/v) <Du, Dv>,
    tau_v = Lap v + (|Du|^2 - |Dv|^2) / v,

which is certified against the energy by the gradient-consistency tests
rather than assumed.

run_flow's stepping record holds each row's t, E, D and dt alone; the
integral of D (dissipation_integral), termination and step counts
(step_fields), state numbers (state_numbers) and a stored record's rules
(read_steps) are derived from the rows once, here, for run and analyze.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import DomainGrid, periodic_calls, run_calls

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


class MapState:
    """Map into the upper half-plane at time t: the fields u and v on a grid,
    the two halves of fields, one C-contiguous float64 (2, n1, n2) array.

    MapState(grid, u, v, t) checks u, v and t and copies u and v into a
    new stack, so the caller's arrays stay the caller's.  A state's arrays are
    not to be changed in place: v_min, the minimum of v, is recorded when
    the state is built.
    """

    def __init__(self, grid: DomainGrid, u, v, t: float = 0.0):
        u, v = grid.check_field(u, "u"), grid.check_field(v, "v")
        v_min = float(v.min())
        if v_min <= 0.0:
            node = np.unravel_index(int(v.argmin()), v.shape)
            raise ValueError(f"v must be positive everywhere; v{tuple(node)} = {v[node]}")
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        self.grid, self.fields, self.t, self.v_min = grid, np.array((u, v)), float(t), v_min
        self.u, self.v = self.fields

    @classmethod
    def _checked(cls, grid, fields, t, v_min) -> "MapState":
        """A state holding fields, which the caller has already checked: a
        finite C-contiguous float64 array of shape (2, *grid.shape), with
        v_min = min(fields[1]) > 0."""
        state = object.__new__(cls)
        state.grid, state.fields, state.t, state.v_min = grid, fields, float(t), v_min
        state.u, state.v = fields
        return state

    def copy(self) -> "MapState":
        """A new state with a copy of fields, checked afresh."""
        return MapState(self.grid, self.u, self.v, self.t)


class TangentField:
    """Tangent vector along a map: tau, one (2, n1, n2) array whose halves
    tau_u and tau_v are its components at each node."""

    def __init__(self, tau: np.ndarray):
        self.tau = tau
        self.tau_u, self.tau_v = tau


def _check_above_floor(state: MapState):
    vmin = state.v_min
    if vmin <= V_FLOOR:
        node = tuple(int(k) for k in np.unravel_index(int(state.v.argmin()), state.v.shape))
        raise TargetEscapeError(
            f"v at node {node} is {vmin}, at or below the floor {V_FLOOR}", node
        )


def _divide_by(h: float) -> tuple:
    """(op, c) with op(x, c) == x / h bit for bit for every float x: the
    product x * (1/h) when h is a power of two, so that 1/h is exact and
    both are the rounding of one real number, and else the quotient, which
    costs several times as much."""
    return (np.multiply, 1.0 / h) if math.frexp(h)[0] == 0.5 else (np.divide, h)


class _EdgeWorkspace:
    """Scratch arrays of _edge_pass for one grid shape, the ring run_flow
    steps in, and the ufunc calls on them, bound once.

    The caller that makes many passes on one grid owns one workspace and
    hands it to every pass, so that a pass builds no views but those of a
    state outside the ring.  The arrays are views of one buffer.  Scratch,
    which holds no result between passes, is 13 fields of the grid shape:
    v2 = v^2, sigma, edge_sq, rho (a field per axis), and diff and work,
    each a (2 axes, 2 fields, n1, n2) stack whose axis parts are laid out
    as the state's fields are, u's part first.  diff holds the forward
    differences, then the fluxes, then tau's squares.  work holds the
    differences' squares, written field by field through squares, so that
    work[0] holds each axis's du^2, then sq = du^2 + dv^2, and work[1] its
    dv^2, then the edge sums of sq; then work holds the fluxes' backward
    differences.  rho holds twice the edge weights, then the energy's
    terms, scaled as below; sums is rho and the field after it, diff[0, 0],
    which takes the dissipation's terms, so that one reduction sums all
    three.  The ring is 8 fields: two (2, n1, n2) field buffers, for the
    current state and a candidate, with the forward-difference calls bound
    on each, and two tau buffers.

    The pass's powers of two are scalars: scale_diff and scale_back divide
    diff's differences and work's by h, and are empty when h1 == h2 is a
    power of two; tau_scale, k = 1/(2 h^2) then and 1/2 otherwise, scales
    tau once, and e_scale = w k / 2 the energy's sum.
    """

    def __init__(self, shape: tuple[int, int]):
        self.shape = tuple(shape)
        grid = DomainGrid(*self.shape)
        # The pass's constants as 0-d arrays, which a ufunc call takes
        # faster than Python floats.
        self.one, self.zero = map(np.array, (1.0, 0.0))
        buffer = np.empty((21, *self.shape))
        self.v2, self.sigma, self.edge_sq = buffer[:3]
        self.rho, self.sums = buffer[3:5], buffer[3:6]
        self.diff, self.work = buffer[5:13].reshape(2, 2, 2, *self.shape)
        self.ring = tuple(buffer[13:17].reshape(2, 2, *self.shape))
        self.taus = tuple(buffer[17:21].reshape(2, 2, *self.shape))
        self.squares = self.work.transpose(1, 0, 2, 3)
        self.sq, self.edge = self.work
        self.rho_by_axis = self.rho[:, None]
        self.edge_parts = tuple(self.edge)
        self.scratch, self.tau_sq = self.edge[0], self.diff[0]
        self.tau_sq_parts = tuple(self.tau_sq)
        self.rho_calls = self._bind(np.add, (self.sigma, self.sigma), self.rho, b_shift=1)
        self.back_calls = self._bind(np.subtract, self.diff, self.work, b_shift=-1)
        self.edge_calls = self._bind(np.add, self.sq, self.edge, b_shift=-1)
        # x / h in place on each axis part of diff and of work: in one call
        # for both axes when h1 == h2, in none when h is also a power of two.
        h = grid.h1
        folded = grid.h2 == h and math.frexp(h)[0] == 0.5
        parts = ([] if folded else [(slice(None), h)] if grid.h2 == h
                 else [(0, h), (1, grid.h2)])
        self.scale_diff, self.scale_back = (
            [(op, stack[axis], np.array(c), stack[axis]) for axis, h_axis in parts
             for op, c in [_divide_by(h_axis)]]
            for stack in (self.diff, self.work))
        k = 0.5 / (h * h) if folded else 0.5
        self.tau_scale, self.e_scale, self.w = np.array(k), 0.5 * grid.w * k, grid.w
        self.ring_calls = {id(fields): self.diff_calls(fields) for fields in self.ring}
        self.tangents = {id(tau): TangentField(tau) for tau in self.taus}

    @staticmethod
    def _bind(op, a, out, **shift) -> list:
        """The calls periodic_calls binds on a[axis] and out[axis] along each
        axis."""
        return [call for axis in (0, 1)
                for call in periodic_calls(op, a[axis], a[axis], out[axis], axis, **shift)]

    def diff_calls(self, fields: np.ndarray) -> list:
        """The calls that set diff to the forward differences of fields."""
        return self._bind(np.subtract, (fields, fields), self.diff, a_shift=1)

    def out_of_ring(self, state: MapState) -> MapState:
        """state, or a copy of it when its fields are a buffer of the ring."""
        if any(state.fields is fields for fields in self.ring):
            return MapState._checked(state.grid, state.fields.copy(), state.t, state.v_min)
        return state


def _edge_pass(state: MapState, ws: _EdgeWorkspace,
               tau: np.ndarray | None = None) -> tuple[float, TangentField, float]:
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

    The pass works on the state's fields, the (2, n1, n2) stack of u and
    v, and on ws, which must be for the state's grid shape; each
    elementwise step runs once on the stacks of both axes.  tau is written
    into the given C-contiguous (2, n1, n2) array, which must share no
    memory with the fields or with ws's scratch, or else into a new one.
    Each value is formed by the same floating-point operations in the same
    order as when every neighbour is first copied into a shifted array
    (u[k+1] - u[k], sigma[k] + sigma[k+1], flux[k] - flux[k-1], du*du +
    dv*dv, sq[k] + sq[k-1], ...), but for factors that are powers of two:
    the edge weight is sigma[k] + sigma[k+1] without its 1/2, the S term is
    S / v, and when h1 == h2 is a power of two the differences and the
    divergence are not divided by h; tau is multiplied by ws's k once, at
    the end, and the energy's sum by w k / 2.  x / h is x * (1/h) only
    where _divide_by finds them equal, x*x is np.square(x), the axes'
    divergences, whose terms can be -0.0, are summed and then added to
    +0.0, as the formulas' zeroed sum is, and one reduction over the three
    fields of sums adds each field's terms as a sum of that field alone
    does.  A product by a power of two is exact and commutes with rounding
    while both values are normal floats, so E, tau and D are the
    formulas' bit for bit wherever no value either forms is subnormal or
    overflows.  Beyond that they can differ: with u ~ 2^-450 against
    v ~ 2^300 the fluxes are subnormal and round tau_u otherwise, and with
    u ~ 2^501 at 64^2 the formulas' energy sum overflows to inf where E
    stays finite.
    """
    grid = state.grid
    if ws.shape != grid.shape:
        raise ValueError(f"workspace is for shape {ws.shape}, the state has {grid.shape}")
    fields, v = state.fields, state.v
    v2, sigma, edge_sq, rho, diff, work, sq, scratch = (
        ws.v2, ws.sigma, ws.edge_sq, ws.rho, ws.diff, ws.work, ws.sq, ws.scratch)
    np.square(v, out=v2)
    np.divide(ws.one, v2, out=sigma)
    run_calls(ws.ring_calls.get(id(fields)) or ws.diff_calls(fields))
    run_calls(ws.scale_diff)
    run_calls(ws.rho_calls)
    np.square(diff, out=ws.squares)
    np.add(sq, ws.edge, out=sq)  # du^2 + dv^2, per axis
    np.multiply(diff, ws.rho_by_axis, out=diff)  # the fluxes
    np.multiply(sq, rho, out=rho)  # the energy's terms
    run_calls(ws.edge_calls)
    np.add(*ws.edge_parts, out=edge_sq)
    run_calls(ws.back_calls)
    run_calls(ws.scale_back)
    div = work[0]
    np.add(div, work[1], out=div)
    np.add(div, ws.zero, out=div)
    tau = np.multiply(v2, div, out=tau)
    tangent = ws.tangents.get(id(tau)) or TangentField(tau)
    np.divide(edge_sq, v, out=scratch)
    tangent.tau_v += scratch
    tau *= ws.tau_scale
    tau_sq_u, tau_sq_v = ws.tau_sq_parts
    np.square(tangent.tau, out=ws.tau_sq)
    np.add(tau_sq_u, tau_sq_v, out=tau_sq_u)
    tau_sq_u *= sigma  # the dissipation's terms, the last field of sums
    along_0, along_1, dissipation = np.add.reduce(ws.sums, axis=(1, 2)).tolist()
    return ws.e_scale * (along_0 + along_1), tangent, ws.w * dissipation


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


def step(state: MapState, dt: float, tangent: TangentField | None = None,
         out: np.ndarray | None = None) -> MapState:
    """One forward-Euler step.  Raises StepRejectedError when the step lands
    at or below the v floor or produces non-finite values.

    The new fields are formed as one (2, n1, n2) array: out, which must be
    a C-contiguous float64 array of that shape sharing no memory with the
    state's fields or with tau, or else a new one.  The checks cover
    everything MapState checks, so the new state is built without checking
    its fields a second time."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    cap = cfl_dt_max(state, safety=1.0)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds the stability cap {cap}")
    if tangent is None:
        tangent = tension_field(state)
    if out is None:
        out = np.empty(state.fields.shape)
    fields = np.multiply(dt, tangent.tau, out=out)
    fields += state.fields
    # Every value finite and v above the floor, without a temporary array:
    # the minima catch a nan or -inf in their field, the maximum a nan or
    # +inf anywhere.
    u_min, v_min = np.minimum.reduce(fields, axis=(1, 2)).tolist()
    if not (v_min > V_FLOOR and u_min > -math.inf
            and np.maximum.reduce(fields, axis=None) < math.inf):
        u_new, v_new = fields
        key = np.where(np.isfinite(v_new), v_new, -np.inf)
        if key.min() > V_FLOOR:  # v is fine, so u is not finite
            bad = int(np.argmin(np.isfinite(u_new)))
        else:
            bad = int(np.argmin(key))
        node = tuple(int(k) for k in np.unravel_index(bad, v_new.shape))
        raise StepRejectedError(
            f"step of dt = {dt} leaves the target at node {node}", node
        )
    return MapState._checked(state.grid, fields, state.t + dt, v_min)


@dataclass
class FlowParams:
    """Solver controls for run_flow; each must be finite."""

    t_final: float
    snapshot_interval: float = 0.05
    cfl_safety: float = 0.5
    dt_floor: float = 1e-12
    stall_threshold: float = 1e-14

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


# The columns of a trajectory's steps: each row's t, E, D and the dt of the
# step that led to it.
STEP_COLUMNS = ("t", "E", "D", "dt")


@dataclass
class FlowTrajectory:
    """Recorded run: the stepping record plus snapshot states.

    steps is a C-order float64 array with one row per step and the columns
    STEP_COLUMNS.  Row 0 describes the initial state (dt = 0); each later
    row an accepted or a frozen step.  snapshot_rows[k] is the row of
    snapshot k.
    """

    steps: np.ndarray
    snapshots: list[MapState]
    snapshot_rows: list[int]
    rejected_steps: int

    times = property(lambda self: self.steps[:, 0])
    energy = property(lambda self: self.steps[:, 1])
    dissipation = property(lambda self: self.steps[:, 2])
    dt_used = property(lambda self: self.steps[:, 3])
    cumulative_dissipation = property(lambda self: dissipation_integral(self.steps))


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
    multiples of snapshot_interval, which must exceed the tolerance of
    _check_interval.

    The run steps in the ring of one _EdgeWorkspace and allocates no array
    of the grid's size per step: each candidate state is written into the
    ring's field buffer that does not hold the current state, and its tau
    into the tau buffer that does not hold the current tau, so a rejected
    candidate leaves both intact.  States are immutable, and a state that
    is recorded, as a snapshot or as the stalled state, is copied out of the
    ring once, before a later step can overwrite it: the snapshots are the
    initial state's copy, such copies, and frozen states that share the
    stalled state's arrays.
    """
    _check_interval(initial.t, params.t_final, params.snapshot_interval)
    state = initial.copy()
    _check_above_floor(state)
    ws = _EdgeWorkspace(state.grid.shape)
    spare = 0  # the ring slot of the next candidate and of its tau
    e_cur, tangent, d_cur = _edge_pass(state, ws, ws.taus[1])
    interval = params.snapshot_interval

    rows = [(state.t, e_cur, d_cur, 0.0)]
    snapshots, snapshot_rows = [state], [0]
    rejected = streak = 0
    snap_k = int(math.floor(state.t / interval)) + 1

    t_final = state.t + params.t_final
    end = _end(t_final)
    dt = cfl_dt_max(state, params.cfl_safety)
    while state.t < end:
        # Record the last row's state for each snapshot time it has reached
        # (once); on the first pass this only moves snap_k past a start that
        # is itself a snapshot time.
        while snap_k * interval <= state.t + 1e-14 * max(1.0, state.t):
            if snapshot_rows[-1] != len(rows) - 1:
                state = ws.out_of_ring(state)
                snapshots.append(state)
                snapshot_rows.append(len(rows) - 1)
            snap_k += 1
        next_snap = snap_k * interval
        if d_cur < params.stall_threshold:
            # Frozen step; it is not an accepted step and leaves dt alone.
            t_here = min(next_snap, t_final)
            dt_used, d_new = t_here - state.t, d_cur
            state = ws.out_of_ring(state)
            state = MapState._checked(state.grid, state.fields, t_here, state.v_min)
        else:
            cap = cfl_dt_max(state, params.cfl_safety)
            dt_used = min(dt, cap, t_final - state.t, next_snap - state.t)
            if dt_used < params.dt_floor:
                raise AbortedRunError(
                    f"dt = {dt_used} fell below the floor {params.dt_floor} at t = {state.t}",
                    FlowTrajectory(np.array(rows), snapshots, snapshot_rows, rejected),
                )
            try:
                new_state = step(state, dt_used, tangent, ws.ring[spare])
                e_new, tangent_new, d_new = _edge_pass(new_state, ws, ws.taus[spare])
                if e_new - e_cur > ENERGY_STEP_TOL:
                    raise StepRejectedError(
                        f"energy increased by {e_new - e_cur} at t = {state.t}"
                    )
            except StepRejectedError:
                dt = 0.5 * dt_used
                rejected += 1
                streak = 0
                continue
            state, tangent, e_cur = new_state, tangent_new, e_new
            spare = 1 - spare
            streak += 1
            dt = dt_used
            if streak >= 10:
                dt = min(dt * 1.2, cap)
        d_cur = d_new
        rows.append((state.t, e_cur, d_cur, dt_used))
    if snapshot_rows[-1] != len(rows) - 1:
        snapshots.append(ws.out_of_ring(state))
        snapshot_rows.append(len(rows) - 1)
    return FlowTrajectory(np.array(rows), snapshots, snapshot_rows, rejected)


def _end(t_final: float) -> float:
    """run_flow's end test: a run to t_final is over at or past this time."""
    return t_final - 1e-14 * max(1.0, t_final)


def _check_interval(t0: float, t_final: float, interval: float) -> None:
    """run_flow meets a snapshot time within 1e-14 * max(1, t), as _end
    meets t_final, and moves its snapshot count past the times it has met
    one interval at a time.  An interval at or below that tolerance at the
    run's end, t0 + t_final, would take about tolerance / interval moves
    (1e286 at t = 0 for an interval of 1e-300); ValueError refuses it."""
    tolerance = 1e-14 * max(1.0, t0 + t_final)
    if not interval > tolerance:
        raise ValueError(f"snapshot_interval {interval!r} is at or below {tolerance!r}, "
                         "the tolerance on a snapshot time of this run")


def dissipation_integral(steps: np.ndarray) -> np.ndarray:
    """cumulative_D at each row of steps: 0 at row 0, then the previous one
    plus dt times the previous D, the explicit quadrature of dE/dt = -D
    (frozen, of the stalled rate), summed in row order as run_flow would."""
    d, dt = steps[:, 2], steps[:, 3]
    return np.add.accumulate(np.concatenate(([0.0], dt[1:] * d[:-1])))


def step_fields(steps: np.ndarray, t_final: float, stall_threshold: float) -> dict:
    """The summary fields that the steps of a run of duration t_final
    determine, as run writes them and analyze checks them.  A row after row
    0 is a frozen step if the previous D is under stall_threshold, else an
    accepted one; t_stall is the first t whose D is under it.  termination
    is stalled if a step froze (no later step can abort), else t_final if
    the last t passes run_flow's end test, else aborted."""
    t, e, d, _ = steps.T
    frozen = d[:-1] < stall_threshold
    stall = np.flatnonzero(d < stall_threshold)
    e0, e_end, total = e[0].item(), e[-1].item(), dissipation_integral(steps)[-1].item()
    return {
        "termination": "stalled" if frozen.any() else
                       "t_final" if t[-1] >= _end(t[0].item() + t_final) else "aborted",
        "t_end": t[-1].item(),
        "t_stall": t[stall[0]].item() if len(stall) else None,
        "accepted_steps": int(np.count_nonzero(~frozen)),
        "monotonicity_violations": int(np.count_nonzero(e[1:] > e[:-1] + ENERGY_STEP_TOL)),
        "energy_final": e_end,
        "dissipation_integral": total,
        "energy_identity_rel_gap": abs(e0 - e_end - total) / e0 if e0 > 0 else 0.0,
    }


def state_numbers(d: np.ndarray, stall_threshold: float) -> np.ndarray:
    """Each snapshot's state number, given D at each snapshot's row of the
    steps: 0 for snapshot 0, then the number of the snapshot before, plus
    one unless D there is under stall_threshold.  run_flow freezes every
    step after such a row, so the snapshot shares its predecessor's fields;
    after any other row it steps, and the snapshot has fields of its own."""
    return np.concatenate(([0], np.cumsum(d[:-1] >= stall_threshold)))


def read_steps(path, stall_threshold: float) -> np.ndarray:
    """The steps np.save wrote at path: an array as _read_npy requires, of
    one or more rows of a finite value per name of STEP_COLUMNS, which keep
    run_flow's rules bit for bit: row 0 has dt = 0; t rises; a frozen step
    (its previous D under stall_threshold) repeats E and D and has dt = t
    less the previous t, and every other step t = the previous t + dt.
    Else ValueError names the file, and for a broken rule the row."""
    def steps(rows):
        if rows.shape[1:] == (5,):
            raise ValueError("the older layout of steps.npy, with a cumulative_D column, "
                             "which this version does not read")
        if rows.ndim != 2 or rows.shape[1] != len(STEP_COLUMNS) or not len(rows):
            raise ValueError(f"shape {rows.shape}, expected (rows, {len(STEP_COLUMNS)}) "
                             "with at least one row")
        if not np.isfinite(rows).all():
            raise ValueError("the values are not all finite")
        t, e, d, dt = rows.T
        if dt[0] != 0.0:
            raise ValueError("row 0: dt is not 0")
        frozen = d[:-1] < stall_threshold
        rules = {
            "t does not rise": t[1:] > t[:-1],
            "dt is not the step in t": np.where(frozen, dt[1:] == t[1:] - t[:-1],
                                                t[1:] == t[:-1] + dt[1:]),
            "a frozen step changes E or D": ~frozen | (e[1:] == e[:-1]) & (d[1:] == d[:-1]),
        }
        for problem, holds in rules.items():
            if not holds.all():
                raise ValueError(f"row {int(np.argmin(holds)) + 1}: {problem}")
        return rows
    return _read_npy(path, steps)


def jacobian_det(state: MapState) -> np.ndarray:
    """Pointwise Jacobian determinant du/dx1 * dv/dx2 - du/dx2 * dv/dx1,
    by central differences."""
    (u1, v1), (u2, v2) = state.grid.gradient(state.fields)
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
    (u1, v1), (u2, v2) = grid.gradient(state.fields)
    quad = (
        h_xx * (u1 * u1 + u2 * u2)
        + 2.0 * h_xy * (u1 * v1 + u2 * v2)
        + h_yy * (v1 * v1 + v2 * v2)
    )
    residual = lhs - (fx * tangent.tau_u + fy * tangent.tau_v + quad)
    return float(np.sqrt(grid.integrate(residual * residual)))


def write_snapshot(states, path) -> None:
    """Write the fields of states, one or more states on one grid, as one
    .npy array of shape (S, 2, n1, n2), native float64 in C order, state j
    at [j] with u then v; their times are not stored.  The file is np.save's
    of that array, written state by state after its header, so that no
    stack of the states is built."""
    shape = states[0].fields.shape
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)),
              "fortran_order": False, "shape": (len(states), *shape)}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for state in states:
            if state.fields.shape != shape:
                raise ValueError(f"a state of shape {state.fields.shape} among states "
                                 f"of shape {shape}")
            fh.write(state.fields)


def _read_npy(path, check):
    """check(array) for the array in the .npy file at path, which must hold
    a native float64 C-order array, read without unpickling.  Any failure
    but an OSError raises ValueError naming the file: on a damaged header
    np.load also raises EOFError, SyntaxError, TypeError and tokenize's
    errors, and check raises ValueError."""
    try:
        with open(path, "rb") as fh:
            array = np.load(fh, allow_pickle=False)
        if not isinstance(array, np.ndarray) or array.dtype != np.dtype(float):
            raise ValueError(f"expected a native float64 array, found "
                             f"{getattr(array, 'dtype', type(array).__name__)}")
        if not array.flags.c_contiguous:
            raise ValueError("the array is not in C order")
        return check(array)
    except OSError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_snapshot(path, grid: DomainGrid, count: int | None = None) -> list:
    """The states written by write_snapshot, in order and at t = 0: views of
    the one array of the .npy file at path, read as _read_npy requires.  Its
    shape must be (count, 2, n1, n2) on grid, or with count None (S, 2, n1,
    n2) for any S >= 1 or (2, n1, n2), one state.  Every value must be
    finite and every v positive, as MapState requires; else ValueError names
    the file and the first state at fault."""
    state_shape = (2, *grid.shape)

    def states(stack):
        if count is None and stack.shape == state_shape:
            stack = stack[np.newaxis]
        if (stack.ndim != 4 or stack.shape[1:] != state_shape or not len(stack)
                or count not in (None, len(stack))):
            n = "S" if count is None else count
            raise ValueError(f"shape {stack.shape}, expected ({n}, 2, {grid.n1}, {grid.n2})")
        finite = np.isfinite(stack).all(axis=(1, 2, 3))
        v_min = stack[:, 1].min(axis=(1, 2))
        bad = np.flatnonzero(~finite | ~(v_min > 0.0))
        if len(bad):
            j = bad[0]
            raise ValueError(f"state {j}: the values are not all finite" if not finite[j]
                             else f"state {j}: v must be positive, its minimum is {v_min[j]}")
        return [MapState._checked(grid, fields, 0.0, v)
                for fields, v in zip(stack, v_min.tolist())]
    return _read_npy(path, states)
