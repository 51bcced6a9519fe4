"""Gradient flow of the harmonic-map energy into the upper half-plane.

A map state holds two periodic scalar fields (u, v) on a DomainGrid, read as
the coordinates of a map from the flat torus into the hyperbolic plane
(v > 0), as one (2, n1, n2) array; a tangent field is one such array too.  The energy is

    E = 1/2 * integral of (|Du|^2 + |Dv|^2) / v^2,

discretised with the staggered forward differences of the grid and the
metric weight 1/v^2 averaged onto cell edges.  One pass over those edges
yields the energy, the tension field tau and the dissipation rate D together;
energy(), tension_field() and dissipation_rate() each return one of the
three, and run_flow() makes one pass per candidate state.  The pass's
workspace owns every array it touches: the pass reads the fields in one
slot of the workspace's ring and writes tau / k into that slot's tau
buffer, k the power of two that the pass takes out of tau.  step() and
run_flow share one forward-Euler update; step adds the checks a caller
needs, and run_flow, which steps by dt * k on tau / k, checks its
candidates itself.  run_flow steps in the ring's two slots, so it
allocates no array of the grid's size per step, and it hands each new
distinct state to a callback, write_snapshot's for a run, which writes
its bytes out before the ring moves on.  tau is the exact negative
gradient of the discrete energy in the hyperbolic L^2 inner product
<a, b> = integral of (a_u b_u + a_v b_v)/v^2, and D = ||tau||^2, so
forward-Euler stepping dissipates the discrete energy structurally (up to
O(dt) per step), and the energy identity E(0) - E(T) = integral of D
holds at first order.

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
import os
from struct import Struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .mesh import DomainGrid

# Hard positivity floor for the second coordinate; states at or below the
# floor are treated as having escaped the target.
V_FLOOR = 1e-8

# run_flow rejects a step that raises the energy by more than this.
ENERGY_STEP_TOL = 1e-10


class TargetEscapeError(ValueError):
    """A state leaves the half-plane: its v is at or below the positivity
    floor, or a value is not finite, at node."""

    def __init__(self, message: str, node: tuple[int, int]):
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
    """Every array _edge_pass touches for one grid shape, the ring run_flow
    steps in among them, and the pass on each slot of the ring bound once,
    as one table of ufunc calls, so that a pass builds no views.

    The arrays are the 21 fields of one buffer, which starts at the first
    64-byte boundary of an allocation 8 floats longer (np.empty aligns to
    16 bytes).  Scratch is 13 fields: v2 = v^2, sigma = 1/v^2, edge_sq,
    rho (one per axis), and diff and work, each a (2 axes, 2 fields, n1, n2)
    stack.  diff[a, f] holds field f's forward differences along axis a,
    then its fluxes; diff[0] then tau's squares.  work[a, f] holds the
    squares of diff[a, f]; then work[a, 0] sq = du^2 + dv^2 along a and
    work[a, 1] its edge sums, whose sum S goes into work[0, 1] and S / v
    into edge_sq; then work[a] the fluxes' backward differences, and
    work[0], div, their sum.  rho holds twice the edge weights, then the
    energy's terms.  flat_sums, the (3, n1 * n2) view of rho and diff[0, 0],
    which ends with the dissipation's terms, is for one reduction.  The ring
    is two slots, each a (2, n1, n2) field buffer ring[k], whose v has the
    flat view flat_v[k], and a tau buffer taus[k], which the pass leaves
    holding tau / k.

    calls[k], the pass on slot k, is a list of (op, a, b, out) calls that
    _edge_pass runs in order, laid out for numpy 2.4, which runs a call at
    about half the speed when it broadcasts or reads a strided view, or
    when it writes from one float past a 64-byte boundary.  Every call but
    the seam calls of _neighbour_calls, each on a row or column per field,
    writes a C-contiguous out from C-contiguous operands of its shape or
    0-d constants, from its first field's first float: on a 64-byte
    boundary when n1 * n2 is a multiple of 8.  So a backward (k - 1) flat
    call writes from node 0: its b view starts a row (axis 0) or a float
    (axis 1) before a, at the end of a field that the pass has written by
    then, and the seam call then rewrites node 0.

    x / h is one call in place on diff and one on work when h1 == h2, one
    per axis part of each when h1 != h2, and none when h1 == h2 is a power
    of two: tau's scale k is 1/(2 h^2) then, else 1/2.  e_scale = w k / 2
    scales the energy's sum and d_scale = w k^2 the dissipation's.
    """

    def __init__(self, shape: tuple[int, int]):
        grid = DomainGrid(*shape)
        # The pass's constants as 0-d arrays, which a ufunc call takes
        # faster than Python floats.
        one, zero = map(np.array, (1.0, 0.0))
        raw = np.empty(21 * grid.n1 * grid.n2 + 8)
        start = (-raw.ctypes.data % 64) // 8
        flat = raw[start:start + raw.size - 8]
        self.buffer = buffer = flat.reshape(21, *shape)
        v2, sigma, edge_sq = buffer[:3]
        rho, self.flat_sums = buffer[3:5], buffer[3:6].reshape(3, -1)
        diff, work = buffer[5:13].reshape(2, 2, 2, *shape)
        self.ring = tuple(buffer[13:17].reshape(2, 2, *shape))
        self.flat_v = tuple(fields[1].ravel() for fields in self.ring)
        self.taus = tuple(buffer[17:21].reshape(2, 2, *shape))

        def forward(op, a, out, **shift) -> list:
            # out[axis] = op of a's nodes k and k + 1 along each axis.
            return [call for axis in (0, 1)
                    for call in _neighbour_calls(flat, op, a, out[axis], axis, **shift)]

        def backward(op, a, out, axis) -> list:
            # out = op(a[k], a[k - 1]) along axis.
            return _neighbour_calls(flat, op, a, out, axis, b_shift=-1)

        h = grid.h1
        folded = grid.h2 == h and math.frexp(h)[0] == 0.5
        parts = ([] if folded else [(slice(None), h)] if grid.h2 == h
                 else [(0, h), (1, grid.h2)])
        scale_diff, scale_back = (
            [(op, stack[axis], np.array(c), stack[axis]) for axis, h_axis in parts
             for op, c in [_divide_by(h_axis)]]
            for stack in (diff, work))
        self.k = k = 0.5 / (h * h) if folded else 0.5
        self.e_scale, self.d_scale = 0.5 * grid.w * k, grid.w * k * k
        sq, edge, div = work[:, 0], work[:, 1], work[0]
        self.calls = tuple([
            (np.multiply, fields[1], fields[1], v2),
            (np.divide, one, v2, sigma),
            *forward(np.subtract, fields, diff, a_shift=1),
            *scale_diff,
            *forward(np.add, sigma, rho, b_shift=1),
            (np.multiply, diff, diff, work),
            *[(np.add, sq[a], edge[a], sq[a]) for a in (0, 1)],  # du^2 + dv^2
            *[(np.multiply, diff[a, f], rho[a], diff[a, f])  # the fluxes
              for a in (0, 1) for f in (0, 1)],
            *[(np.multiply, sq[a], rho[a], rho[a]) for a in (0, 1)],  # the energy's terms
            *backward(np.add, sq[0], edge[0], 0), *backward(np.add, sq[1], edge[1], 1),
            (np.add, edge[0], edge[1], edge[0]),  # S
            (np.divide, edge[0], fields[1], edge_sq),  # S / v, before work is reused
            *backward(np.subtract, diff[0], work[0], 0),
            *backward(np.subtract, diff[1], work[1], 1),
            *scale_back,
            (np.add, div, work[1], div),
            (np.add, div[0], zero, div[0]),
            *[(np.multiply, div[f], v2, tau[f]) for f in (0, 1)],  # tau / k
            (np.add, tau[1], edge_sq, tau[1]),
            (np.multiply, tau, tau, diff[0]),
            (np.add, diff[0, 0], diff[0, 1], diff[0, 0]),
            (np.multiply, diff[0, 0], sigma, diff[0, 0]),  # the dissipation's terms
        ] for fields, tau in zip(self.ring, self.taus))


def _neighbour_calls(flat, op, a, out, axis, a_shift=0, b_shift=0) -> list:
    """The ufunc calls (op, x, y, out), bound to views, that together set
    out[..., k] = op(a[..., k + a_shift], a[..., k + b_shift]) at every node
    k, the index along grid axis axis (0 or 1 of the last two axes) taken
    periodically; one shift is 1 or -1, the other 0.  Any leading axes are
    batch axes.

    a and out are C-contiguous arrays of one shape that do not overlap, and
    a is a view of flat, a 1-D buffer.  A shift by one node is an offset
    of one row (axis 0) or one float (axis 1) in flat, so the first call
    writes out from node 0 on views of flat: a -1 shift reads the row or
    float before a there.  A second call, on the seam row or column of
    every batch entry at once, then writes the nodes whose neighbour is
    across the periodic seam, where the first read a neighbouring row,
    batch entry or field, or left the last row or float of out unwritten.
    The calls view a in place, so calls bound once see every later write
    to it.
    """
    n = out.shape[axis - 2]
    stride = out.shape[-1] if axis == 0 else 1
    start = (a.ctypes.data - flat.ctypes.data) // 8
    ahead = a_shift + b_shift > 0  # the last row or column crosses the seam
    size = out.size - ahead * stride
    k = n - 1 if ahead else 0  # the seam row or column
    ka, kb = (k + a_shift) % n, (k + b_shift) % n
    seam = ((a[..., ka, :], a[..., kb, :], out[..., k, :]) if axis == 0
            else (a[..., ka], a[..., kb], out[..., k]))
    return [(op, *(flat[start + s * stride:start + s * stride + size]
                   for s in (a_shift, b_shift)), out.ravel()[:size]), (op, *seam)]


def _edge_pass(ws: _EdgeWorkspace, slot: int) -> tuple[float, float]:
    """Energy E and dissipation rate D of the fields in ws.ring[slot], the
    (2, n1, n2) stack of u and v, with their tension field tau / ws.k
    written into ws.taus[slot]: the calls ws binds for the slot, then one
    reduction.

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

    With v > 0 at every node, E is finite only if every value of the
    fields is: a value that is not makes the squared differences on its
    edges inf or nan, and E sums them with weights 1/v^2 >= 0; run_flow
    relies on it.  Each value is formed by the same floating-point
    operations in the same order as when every neighbour is first copied
    into a shifted array (u[k+1] - u[k], sigma[k] + sigma[k+1],
    flux[k] - flux[k-1], du*du + dv*dv, sq[k] + sq[k-1], ...), but for
    factors that are powers of two: the edge weight is sigma[k] +
    sigma[k+1] without its 1/2, the S term is S / v, and when h1 == h2 is
    a power of two the differences and the divergence are not divided by
    h; tau is left divided by ws's k, the energy's sum is multiplied by
    w k / 2 and the dissipation's, of (tau / k)^2 / v^2, by w k^2.  x / h
    is x * (1/h) only where _divide_by finds them equal, the axes'
    divergences, whose terms can be -0.0, are summed, and tau_u's sum is
    then added to +0.0, as the formulas' zeroed sum is; tau_v's takes +0.0
    from adding S / v >= +0.0.  One reduction over the three fields of
    flat_sums adds each field's terms as a sum of that field alone does.
    A product by a power of two is exact and commutes with rounding while
    both values are normal floats, so E, tau and D are the formulas' bit
    for bit wherever no value either forms is subnormal or overflows.
    Beyond that they can differ: with u ~ 2^-450 against v ~ 2^300 the
    fluxes are subnormal and round tau_u otherwise, and with u ~ 2^501 at
    64^2 the formulas' energy sum overflows to inf where E stays finite.
    """
    for op, a, b, out in ws.calls[slot]:
        op(a, b, out)
    along_0, along_1, dissipation = np.add.reduce(ws.flat_sums, axis=1).tolist()
    return ws.e_scale * (along_0 + along_1), ws.d_scale * dissipation


def _state_pass(state: MapState) -> tuple[float, np.ndarray, float]:
    """E, tau and D of state, by a pass on its fields copied into slot 0 of
    a new workspace; tau is that workspace's buffer, multiplied by k."""
    ws = _EdgeWorkspace(state.grid.shape)
    np.copyto(ws.ring[0], state.fields)
    e, d = _edge_pass(ws, 0)
    return e, np.multiply(ws.taus[0], ws.k, out=ws.taus[0]), d


def tension_field(state: MapState) -> TangentField:
    """Exact negative discrete-energy gradient in the hyperbolic inner product;
    raises TargetEscapeError at or below the v floor.  tau is an array of
    its own, not the pass's workspace."""
    _check_above_floor(state)
    return TangentField(_state_pass(state)[1].copy())


def energy(state: MapState) -> float:
    """Harmonic-map energy of the state (staggered discretisation)."""
    return _state_pass(state)[0]


def dissipation_rate(state: MapState) -> float:
    """Squared hyperbolic L^2 norm of the tension field: D = ||tau||^2."""
    return _state_pass(state)[2]


def _cap(grid: DomainGrid, v_min: float, safety: float) -> float:
    """Stability cap for explicit stepping of fields on grid whose v has the
    minimum v_min, times safety, in (0, 1].

    The heat-kernel part of the flow has unit diffusivity, so dt must stay
    under min(h)^2 / 4 regardless of the metric; near the real axis the
    nonlinear terms grow like 1/v, so the cap is sharpened by min(v)^2 when
    that is below 1 (and only then -- letting small-v states loosen the flat
    bound would destabilise the linear part).
    """
    h = min(grid.h1, grid.h2)
    return safety * h * h * min(1.0, v_min * v_min) / 4.0


def _euler(fields: np.ndarray, dt: float, tau: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The forward-Euler update fields + dt * tau, formed in out: dt * tau,
    then the fields added in place."""
    np.multiply(dt, tau, out=out)
    out += fields
    return out


def step(state: MapState, dt: float, tangent: TangentField | None = None) -> MapState:
    """One forward-Euler step, by the update run_flow makes (_euler), with
    the checks a caller needs: dt must be positive and within the stability
    cap, _cap with safety 1 (run_flow's is cfl_safety times it), and
    TargetEscapeError, naming a node, is raised when the step lands at or
    below the v floor or produces non-finite values.

    The new fields are formed as one new (2, n1, n2) array.  The checks
    cover everything MapState checks, so the new state is built without
    checking its fields a second time."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    cap = _cap(state.grid, state.v_min, 1.0)
    if dt > cap * (1.0 + 1e-12):
        raise ValueError(f"dt = {dt} exceeds the stability cap {cap}")
    if tangent is None:
        tangent = tension_field(state)
    fields = _euler(state.fields, dt, tangent.tau, np.empty(state.fields.shape))
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
        raise TargetEscapeError(
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
# One row of run_flow's stepping record, packed as native float64s.
_ROW = Struct(f"{len(STEP_COLUMNS)}d")


@dataclass
class FlowTrajectory:
    """Recorded run: the stepping record and the rows of its snapshots.

    steps is a C-order float64 array with one row per step and the columns
    STEP_COLUMNS.  Row 0 describes the initial state (dt = 0); each later
    row an accepted or a frozen step.  snapshot_rows[k] is the row of
    snapshot k.
    """

    steps: np.ndarray
    snapshot_rows: list[int]
    rejected_steps: int

    times = property(lambda self: self.steps[:, 0])
    energy = property(lambda self: self.steps[:, 1])
    dissipation = property(lambda self: self.steps[:, 2])
    dt_used = property(lambda self: self.steps[:, 3])
    cumulative_dissipation = property(lambda self: dissipation_integral(self.steps))


def run_flow(initial: MapState, params: FlowParams,
             record=lambda state: None) -> FlowTrajectory:
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
    _check_interval.  The final state is a snapshot too.

    record(state) is called once per distinct snapshot state, in order:
    the initial state, then each snapshot's state unless the snapshot
    before it had D under the stall threshold, when it is that snapshot's
    state frozen (state_numbers).  The run steps in the ring of one
    _EdgeWorkspace and allocates no array of the grid's size per step:
    the initial fields are copied into one slot, so the initial state's own
    are never written, and each candidate is formed by step's forward-Euler
    update (_euler) in the other slot, where its pass writes its tau / k,
    so a rejected candidate leaves the current slot intact.  The update is
    _euler(fields, dt * k, tau / k), which is fields + dt * tau bit for
    bit: dt * k is exact, and both products round one real number.  A
    MapState is built only for a state handed to record after the initial
    one; its fields are a buffer of the ring, which a later step
    overwrites, so record must copy or write out what it keeps.

    A candidate is rejected exactly when step would refuse it or its E
    rises by more than ENERGY_STEP_TOL.  Before its pass only the minimum
    of its v is checked, over the flat view ws.flat_v; a value that is
    not finite makes E inf or nan (_edge_pass), so the candidate is
    searched for one only when E is not finite.  A finite candidate whose
    E is nan (v^2 overflows) is accepted, as the energy rule rejects no
    nan.  The arithmetic runs under one np.errstate that ignores overflow
    and invalid values, so no RuntimeWarning leaves the run.  The stepping record is one packed
    32-byte row a step, and the trajectory's steps are a view of it.
    """
    _check_interval(initial.t, params.t_final, params.snapshot_interval)
    _check_above_floor(initial)
    grid, t, v_min = initial.grid, initial.t, initial.v_min
    ws = _EdgeWorkspace(grid.shape)
    k = ws.k
    now = 0  # the ring slot of the current fields and their tau / k
    np.copyto(ws.ring[now], initial.fields)
    safety, interval = params.cfl_safety, params.snapshot_interval
    rows, row = bytearray(), _ROW.pack
    snapshot_rows = [0]
    rejected = streak = 0
    snap_k = int(math.floor(t / interval)) + 1

    def trajectory() -> FlowTrajectory:
        steps = np.frombuffer(rows, float).reshape(-1, len(STEP_COLUMNS))
        return FlowTrajectory(steps, snapshot_rows, rejected)

    def last_row() -> int:
        return len(rows) // _ROW.size - 1

    def snapshot():
        # The last row's state is new unless the previous snapshot stalled.
        if _ROW.unpack_from(rows, _ROW.size * snapshot_rows[-1])[2] >= params.stall_threshold:
            record(MapState._checked(grid, ws.ring[now], t, v_min))
        snapshot_rows.append(last_row())

    t_final = t + params.t_final
    end = _end(t_final)
    with np.errstate(over="ignore", invalid="ignore"):
        e_cur, d_cur = _edge_pass(ws, now)
        rows += row(t, e_cur, d_cur, 0.0)
        record(initial)
        dt = _cap(grid, v_min, safety)
        while t < end:
            # Record the last row's state for each snapshot time it has
            # reached (once); on the first pass this only moves snap_k past a
            # start that is itself a snapshot time.
            while snap_k * interval <= t + 1e-14 * max(1.0, t):
                if snapshot_rows[-1] != last_row():
                    snapshot()
                snap_k += 1
            next_snap = snap_k * interval
            if d_cur < params.stall_threshold:
                # Frozen step; it is not an accepted step and leaves dt
                # alone.  No step follows, so the ring keeps the fields.
                t_here = min(next_snap, t_final)
                dt_used, t = t_here - t, t_here
            else:
                cap = _cap(grid, v_min, safety)
                dt_used = min(dt, cap, t_final - t, next_snap - t)
                if dt_used < params.dt_floor:
                    raise AbortedRunError(
                        f"dt = {dt_used} fell below the floor {params.dt_floor} at t = {t}",
                        trajectory())
                spare = 1 - now
                candidate = _euler(ws.ring[now], dt_used * k, ws.taus[now], ws.ring[spare])
                v_min_new = np.minimum.reduce(ws.flat_v[spare]).item()
                accepted = v_min_new > V_FLOOR
                if accepted:
                    e_new, d_new = _edge_pass(ws, spare)
                    # Only a candidate whose E is not finite can hold a value
                    # that is not.
                    finite = math.isfinite(e_new) or np.isfinite(candidate).all()
                    accepted = finite and not e_new - e_cur > ENERGY_STEP_TOL
                if not accepted:
                    dt = 0.5 * dt_used
                    rejected += 1
                    streak = 0
                    continue
                now, t, v_min = spare, t + dt_used, v_min_new
                e_cur, d_cur = e_new, d_new
                streak += 1
                dt = dt_used
                if streak >= 10:
                    dt = min(dt * 1.2, cap)
            rows += row(t, e_cur, d_cur, dt_used)
        if snapshot_rows[-1] != last_row():
            snapshot()
    return trajectory()


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


def jacobian_det(fields: np.ndarray, grid: DomainGrid) -> np.ndarray:
    """Pointwise Jacobian determinant du/dx1 * dv/dx2 - du/dx2 * dv/dx1 of
    a (..., 2, n1, n2) stack of fields on grid, by central differences."""
    d1, d2 = grid.gradient(fields)
    return d1[..., 0, :, :] * d2[..., 1, :, :] - d2[..., 0, :, :] * d1[..., 1, :, :]


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


# Grid nodes of the states that read_snapshot reads and checks at once, and
# that run and analyze then measure at once: one state at 64², four at 32².
# Larger chunks raise run's peak memory; smaller ones add calls per state.
CHUNK_NODES = 4096


@contextmanager
def write_snapshot(path, grid: DomainGrid):
    """Stream states on grid to the .npy file at path: a context manager
    that gives record(state), which writes the state's fields, u then v, as
    the next state of one (S, 2, n1, n2) array of native float64 in C order;
    their times are not stored.  The header is written first with S = 0
    and rewritten with the count of states recorded when the block is left,
    also by an exception, so the file is np.save's of the stack of those
    states, byte for byte, and no state is kept."""
    shape = (2, *grid.shape)
    with open(path, "wb") as fh:
        count = 0

        def header() -> int:
            fh.seek(0)
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(float)),
                "fortran_order": False, "shape": (count, *shape)})
            return fh.tell()

        def record(state: MapState):
            nonlocal count
            if state.fields.shape != shape:
                raise ValueError(f"a state of shape {state.fields.shape} among states "
                                 f"of shape {shape}")
            fh.write(state.fields)
            count += 1

        offset = header()
        try:
            yield record
        finally:
            # np.save pads the header so that the count's digits fit.
            assert header() == offset, "the .npy header changed its length"


def _named(path, read, *args):
    """read(*args), with any failure but an OSError raised as a ValueError
    that names the file at path: on a damaged header numpy also raises
    EOFError, SyntaxError, TypeError and tokenize's errors."""
    try:
        return read(*args)
    except OSError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _npy_layout(path) -> tuple:
    """(shape, offset) of the array of the .npy file at path, which must
    hold a native float64 C-order array from offset on, and nothing after
    it, under a version 1.0 header, np.save's.  Nothing is unpickled."""
    with open(path, "rb") as fh:
        version = np.lib.format.read_magic(fh)
        if version != (1, 0):
            raise ValueError(f"unsupported .npy format version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        offset = fh.tell()
        length = os.fstat(fh.fileno()).st_size - offset
    if dtype != np.dtype(float):
        raise ValueError(f"expected a native float64 array, found {dtype}")
    if fortran_order:
        raise ValueError("the array is not in C order")
    if length != 8 * math.prod(shape):
        raise ValueError(f"the array of shape {shape} takes {8 * math.prod(shape)} bytes, "
                         f"the file holds {length} after its header")
    return shape, offset


def _read_npy(path, check):
    """check(array) for the array of the .npy file at path, as _npy_layout
    requires it; any failure but an OSError raises ValueError naming the
    file, and check raises ValueError."""
    def read():
        shape, offset = _npy_layout(path)
        return check(np.fromfile(path, float, math.prod(shape), offset=offset).reshape(shape))
    return _named(path, read)


def read_snapshot(path, grid: DomainGrid, count: int | None = None):
    """The states written by write_snapshot to the .npy file at path, as an
    iterator of (C, 2, n1, n2) chunks of the stack in order, each of
    CHUNK_NODES grid nodes or one state, the last perhaps fewer; no more
    than one chunk is read at a time, and the chunks share no memory.
    Before any chunk is read, the file must hold what _npy_layout requires,
    of shape (count, 2, n1, n2) on grid, or with count None (S, 2, n1, n2)
    for any S >= 1 or (2, n1, n2), one state.  Each chunk must have every
    value finite and every v above V_FLOOR.  Else ValueError names the file,
    and for a chunk the first state at fault by its index in the stack."""
    state_shape = (2, *grid.shape)

    def states():
        shape, offset = _npy_layout(path)
        if count is None and shape == state_shape:
            shape = (1, *shape)
        if (len(shape) != 4 or shape[1:] != state_shape or not shape[0]
                or count not in (None, shape[0])):
            n = "S" if count is None else count
            raise ValueError(f"shape {shape}, expected ({n}, 2, {grid.n1}, {grid.n2})")
        return shape[0], offset

    def chunk(a, size, offset):
        stack = np.fromfile(path, float, size * math.prod(state_shape),
                            offset=offset).reshape(size, *state_shape)
        finite = np.isfinite(stack).all(axis=(1, 2, 3))
        v_min = stack[:, 1].min(axis=(1, 2))
        bad = np.flatnonzero(~finite | ~(v_min > V_FLOOR))
        if len(bad):
            j, v = bad[0], v_min[bad[0]].item()
            problem = ("the values are not all finite" if not finite[j]
                       else f"v must be positive, its minimum is {v}" if not v > 0.0
                       else f"v_min {v} is at or below {V_FLOOR}")
            raise ValueError(f"state {a + j}: {problem}")
        return stack

    total, offset = _named(path, states)
    size = max(1, CHUNK_NODES // (grid.n1 * grid.n2))
    state_bytes = 8 * math.prod(state_shape)

    def chunks():
        for a in range(0, total, size):
            yield _named(path, chunk, a, min(size, total - a), offset + a * state_bytes)
    return chunks()
