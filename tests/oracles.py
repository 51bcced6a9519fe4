"""Test oracles: reference computations and observables that only the tests use.

They check the product code in src/ from outside it:

* ConstantOne, AffineFunction, WindowedHarmonic -- observables with known
  gradients, Hessians or hyperbolic Laplacians;
* support_box -- the box bounding an observable's support, a
  BumpFunction's included;
* translation, inversion, product, inverse, is_identity -- the group
  algebra of ModularMatrix, for building and checking witness words;
* weak_star_pairing -- the binned pairing of a measure with an observable,
  which ergodic_error_from_measures computes on its own;
* weak_star_pairing_exact -- the node-exact pairing the binned one
  approximates;
* laplacian_invariance_diagnostic -- the pairing of a measure with the
  finite-difference hyperbolic Laplacian of an observable;
* hyperbolic_distance -- the geodesic distance of the upper half-plane;
* stepping_record_problem -- the rules a run's stepping record keeps, row
  by row, which analyze checks on whole arrays;
* reference_steps -- run_flow's stepping record, with its step counts,
  termination and dissipation integral counted as the loop goes, by a
  plain loop that makes every candidate state and tau a new array;
* Recorded -- a record for run_flow that keeps a copy of each state it
  hands on, and gives every snapshot's state from them;
* run_recorded -- the trajectory of a config's run and its Recorded
  record.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import fields

import numpy as np

from moduliflow import cli
from moduliflow.flow import (
    ENERGY_STEP_TOL,
    AbortedRunError,
    FlowParams,
    MapState,
    TangentField,
    TargetEscapeError,
    _cap,
    _state_pass,
    run_flow,
    state_numbers,
    step,
)
from moduliflow.hyperbolic import (
    ModularMatrix,
    UpperHalfPoint,
    hyperbolic_laplacian_fd,
    reduce_points,
)


class ConstantOne:
    """f = 1 everywhere, including the overflow bin.  Not compactly
    supported; used to audit total mass through the pairing machinery."""

    overflow_value = 1.0

    def value(self, x, y):
        return np.ones_like(np.asarray(x, dtype=float))

    def gradient(self, x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z.copy()

    def hessian(self, x, y):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z.copy(), z.copy()


class AffineFunction:
    """f = a + bx + cy; zero Euclidean Hessian (the hyperbolic one is not)."""

    overflow_value = 0.0  # only meaningful for pairings that never see it

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = float(a), float(b), float(c)

    def value(self, x, y):
        return self.a + self.b * np.asarray(x, float) + self.c * np.asarray(y, float)

    def gradient(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.full(shape, self.b), np.full(shape, self.c)

    def hessian(self, x, y):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        z = np.zeros(shape)
        return z, z.copy(), z.copy()


def _plateau(s, flat: float):
    """1 on |s| <= flat, smoothstep taper to 0 at |s| = 1, C^2 throughout."""
    s = np.abs(np.asarray(s, dtype=float))
    p = np.clip((s - flat) / (1.0 - flat), 0.0, 1.0)
    return 1.0 - p**3 * (10.0 - 15.0 * p + 6.0 * p * p)


class WindowedHarmonic:
    """f(x, y) = y * W(x, y) with W a plateau window that is exactly 1 on an
    inner box.  y is harmonic for the hyperbolic Laplacian, so the Laplacian
    of f vanishes identically on the plateau; any measure supported there
    pairs to zero with it up to stencil rounding."""

    overflow_value = 0.0

    def __init__(self, center, radii, flat: float = 0.5):
        cx, cy = (float(c) for c in center)
        rx, ry = (float(r) for r in radii)
        if not (rx > 0.0 and ry > 0.0 and 0.0 < flat < 1.0):
            raise ValueError("need positive radii and flat fraction in (0, 1)")
        self.cx, self.cy, self.rx, self.ry, self.flat = cx, cy, rx, ry, flat

    @property
    def plateau_box(self) -> tuple[float, float, float, float]:
        return (self.cx - self.flat * self.rx, self.cx + self.flat * self.rx,
                self.cy - self.flat * self.ry, self.cy + self.flat * self.ry)

    def value(self, x, y):
        sx = (np.asarray(x, float) - self.cx) / self.rx
        sy = (np.asarray(y, float) - self.cy) / self.ry
        return np.asarray(y, float) * _plateau(sx, self.flat) * _plateau(sy, self.flat)


def support_box(f) -> tuple[float, float, float, float] | None:
    """(x_lo, x_hi, y_lo, y_hi) bounding the support of the observable f:
    the box f declares as support_box, else, for a BumpFunction or a
    WindowedHarmonic, its centre plus and minus its radii; None for an f
    with neither, which is not compactly supported."""
    if hasattr(f, "support_box"):
        return f.support_box
    if hasattr(f, "rx"):
        return (f.cx - f.rx, f.cx + f.rx, f.cy - f.ry, f.cy + f.ry)
    return None


def translation(n: int) -> ModularMatrix:
    """z -> z + n."""
    return ModularMatrix(1, n, 0, 1)


def inversion() -> ModularMatrix:
    """z -> -1/z."""
    return ModularMatrix(0, -1, 1, 0)


def product(*gs: ModularMatrix) -> ModularMatrix:
    """Exact integer product of the matrices, left to right; the identity
    for none.  Python ints never overflow."""
    a, b, c, d = 1, 0, 0, 1
    for g in gs:
        a, b, c, d = (a * g.a + b * g.c, a * g.b + b * g.d,
                      c * g.a + d * g.c, c * g.b + d * g.d)
    return ModularMatrix(a, b, c, d)


def inverse(g: ModularMatrix) -> ModularMatrix:
    return ModularMatrix(g.d, -g.b, -g.c, g.a)


def is_identity(g: ModularMatrix) -> bool:
    """True for the identity and its negative, which acts the same."""
    return (g.a, g.b, g.c, g.d) in ((1, 0, 0, 1), (-1, 0, 0, -1))


def weak_star_pairing(mu, f) -> float:
    """Binned pairing: bin masses times f at the bin mass centroids, plus the
    overflow mass times f's declared overflow_value (0 if none)."""
    live = np.asarray(f.value(mu.binning.center_x, mu.binning.center_y), dtype=float)
    return (float(np.dot(mu.masses[:-1], live))
            + float(mu.masses[-1]) * getattr(f, "overflow_value", 0.0))


def weak_star_pairing_exact(state: MapState, f) -> float:
    """Node-exact pairing of the pushforward with f: w * sum f(reduced image).
    Preferred over the binned pairing when the state is available."""
    xf, yf = reduce_points(state.u, state.v)
    return float(state.grid.w * np.sum(f.value(xf, yf)))


def laplacian_invariance_diagnostic(mu, f, fd_step: float = 1e-4) -> float:
    """Pairing of mu with the hyperbolic Laplacian of f, the Laplacian taken
    by the pointwise finite-difference stencil at each bin centroid.

    For an exactly invariant measure this vanishes for every smooth f; the
    value is reported, never asserted.  A support box reaching outside the
    truncated fundamental domain triggers a warning since mass near the
    boundary is then attributed incorrectly.
    """
    binning = mu.binning
    box = support_box(f)
    if box is not None:
        x_lo, x_hi, y_lo, y_hi = box
        inner = min(1.0, binning.y_min + binning.dy)
        if (x_lo <= -0.5 or x_hi >= 0.5 or y_lo <= inner or y_hi >= binning.y_max):
            warnings.warn(
                "observable support touches the fundamental-domain boundary; "
                "the invariance pairing is unreliable there",
                stacklevel=2,
            )
    total = 0.0
    for mass, cx, cy in zip(mu.masses[:-1], binning.center_x, binning.center_y):
        if mass > 0.0:
            point = UpperHalfPoint(float(cx), float(cy))
            total += float(mass) * hyperbolic_laplacian_fd(
                lambda x, y: float(f.value(x, y)), point, fd_step
            )
    return total


def hyperbolic_distance(p: UpperHalfPoint, q: UpperHalfPoint) -> float:
    """Geodesic distance arccosh(1 + |p - q|^2 / (2 y_p y_q))."""
    dx = p.x - q.x
    dy = p.y - q.y
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * p.y * q.y))


def stepping_record_problem(steps, stall_threshold: float, t_final: float, summary: dict,
                            series, tolerance: float) -> str | None:
    """The first rule of run_flow's stepping record that steps breaks, or
    None.  steps is a float64 array of rows t, E, D, dt; t_final the run's
    duration; summary the run's summary.json; series its series.csv rows,
    whose first five columns are t, E, D, cumulative_D and dt at each
    snapshot.  Row 0 holds dt = 0 and is the first snapshot's.  A row whose
    previous D is under stall_threshold is frozen: it repeats E and D, and
    its dt is its t less the previous t; every other row's t is the
    previous t plus its dt.  t rises.  cumulative_D, 0 at row 0, adds dt
    times the previous D at each row.  The summary's stepping fields are
    functions of the rows: termination is stalled when a row is frozen,
    else t_final when the last t is within 1e-14 * max(1, end) of the end,
    row 0's t plus t_final, or past it, and else aborted.  Each series row
    is a row: t, E and D equal, cumulative_D and dt within tolerance."""
    if not (isinstance(steps, np.ndarray) and steps.dtype == np.float64
            and steps.ndim == 2 and steps.shape[1] == 4 and len(steps)
            and np.isfinite(steps).all()):
        return "not a finite float64 array of rows of 4"
    rows = [tuple(row) for row in steps.tolist()]
    if rows[0][3] != 0.0:
        return "row 0"
    totals = [0.0]
    accepted = frozen = violations = 0
    for k in range(1, len(rows)):
        (t, e, d, _), (t_k, e_k, d_k, dt_k) = rows[k - 1], rows[k]
        if not t_k > t:
            return f"row {k}: t"
        totals.append(totals[-1] + dt_k * d)
        if d < stall_threshold:
            frozen += 1
            if (e_k, d_k) != (e, d) or dt_k != t_k - t:
                return f"row {k}: frozen step"
        else:
            accepted += 1
            if t_k != t + dt_k:
                return f"row {k}: t + dt"
        violations += e_k > e + ENERGY_STEP_TOL
    e0, (t_end, e_end, _, _), total = rows[0][1], rows[-1], totals[-1]
    want = {
        "t_end": t_end, "energy_final": e_end, "dissipation_integral": total,
        "energy_identity_rel_gap": abs(e0 - e_end - total) / e0 if e0 > 0 else 0.0,
        "accepted_steps": accepted, "monotonicity_violations": violations,
        "t_stall": next((row[0] for row in rows if row[2] < stall_threshold), None),
    }
    for name, value in want.items():
        if summary[name] != value:
            return f"summary {name}"
    end = rows[0][0] + t_final
    reached = t_end >= end - 1e-14 * max(1.0, end)
    if summary["termination"] != ("stalled" if frozen else "t_final" if reached else "aborted"):
        return "summary termination"
    by_t = {row[0]: (row, total) for row, total in zip(rows, totals)}
    for k, snapshot in enumerate(series):
        row, total = by_t.get(snapshot[0], (None, None))
        if (row is None or (k == 0 and row != rows[0]) or row[1:3] != tuple(snapshot[1:3])
                or max(abs(total - snapshot[3]), abs(row[3] - snapshot[4])) > tolerance):
            return f"series row {k}"
    return None


class _Rejected(Exception):
    """reference_steps' rejection of a candidate by its energy."""


def reference_steps(initial: MapState, params, reject=()) -> dict:
    """run_flow's stepping record by a plain loop on new arrays, with what
    the loop counts on its own: "rows", the record's rows t, E, D, dt;
    "rejected" and "accepted", the step counts; "cumulative", the running
    sum of dt times the previous D at each row; and "termination", stalled
    once a frozen step is taken, aborted when dt falls under dt_floor (the
    loop then stops), and else t_final.  Every candidate is a new state
    from step, and every pass runs on a new workspace and returns a new
    tau.  Candidates are numbered from 0 in the order their passes run, and
    those in reject are rejected as if their energy had risen."""
    state = initial.copy()
    e_cur, tau, d_cur = _state_pass(state)
    tangent = TangentField(tau)
    rows, totals = [(state.t, e_cur, d_cur, 0.0)], [0.0]
    interval, t_final = params.snapshot_interval, state.t + params.t_final
    snap_k = math.floor(state.t / interval) + 1
    dt = _cap(state.grid, state.v_min, params.cfl_safety)
    cumulative, streak, candidates, rejected, accepted = 0.0, 0, 0, 0, 0
    termination = "t_final"
    while state.t < t_final - 1e-14 * max(1.0, t_final):
        while snap_k * interval <= state.t + 1e-14 * max(1.0, state.t):
            snap_k += 1
        if d_cur < params.stall_threshold:
            termination = "stalled"
            t_here = min(snap_k * interval, t_final)
            dt_used, d_new = t_here - state.t, d_cur
            state = MapState(state.grid, state.u, state.v, t_here)
        else:
            cap = _cap(state.grid, state.v_min, params.cfl_safety)
            dt_used = min(dt, cap, t_final - state.t, snap_k * interval - state.t)
            if dt_used < params.dt_floor:
                termination = "aborted"
                break
            try:
                new_state = step(state, dt_used, tangent)
                e_new, tau_new, d_new = _state_pass(new_state)
                candidates += 1
                if candidates - 1 in reject or e_new - e_cur > ENERGY_STEP_TOL:
                    raise _Rejected
            except (TargetEscapeError, _Rejected):
                dt, streak, rejected = 0.5 * dt_used, 0, rejected + 1
                continue
            state, tangent, e_cur = new_state, TangentField(tau_new), e_new
            streak, accepted = streak + 1, accepted + 1
            dt = min(dt_used * 1.2, cap) if streak >= 10 else dt_used
        cumulative += dt_used * d_cur
        d_cur = d_new
        rows.append((state.t, e_cur, d_cur, dt_used))
        totals.append(cumulative)
    return {"rows": np.array(rows), "rejected": rejected, "accepted": accepted,
            "cumulative": np.array(totals), "termination": termination}


class Recorded(list):
    """A record for run_flow: a copy of each state it hands on, in order,
    since a state's fields may be a buffer that a later step overwrites."""

    def __call__(self, state: MapState):
        self.append(state.copy())

    def snapshots(self, traj, stall_threshold: float) -> list:
        """Each snapshot's state at its time: the recorded state of its
        number (state_numbers), so a frozen snapshot shares the fields of
        the snapshot before it."""
        at = traj.snapshot_rows
        numbers = state_numbers(traj.dissipation[at], stall_threshold)
        return [MapState._checked(self[j].grid, self[j].fields, t, self[j].v_min)
                for j, t in zip(numbers.tolist(), traj.times[at].tolist())]


def run_recorded(config) -> tuple:
    """(trajectory, recorded) of the flow that run_experiment runs for
    config, run again with recorded, a Recorded record."""
    params = FlowParams(**{f.name: getattr(config, f.name) for f in fields(FlowParams)})
    recorded = Recorded()
    try:
        traj = run_flow(cli._initial_state(config), params, recorded)
    except AbortedRunError as exc:
        traj = exc.trajectory
    return traj, recorded
