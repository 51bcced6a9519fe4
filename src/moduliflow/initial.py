"""Initial-condition library for map states.

Each builder samples an analytic map on the grid nodes, so the same
condition can be instantiated at several resolutions for convergence
studies.  Kinds:

* constant    -- u = u0, v = v0
* sinusoidal  -- single-mode trigonometric perturbation of a constant
* winding     -- u = amp * sin(2 pi k x1), v = exp(b * cos(2 pi m x2))
* random      -- band-limited random trigonometric fields (seeded)
* file        -- a stored state: a .npy file of one (2, n1, n2) state, or of
                 a stack of states as write_snapshot writes it, such as a
                 run's snapshots/states.npy, whose last state it takes (to
                 continue that run); t starts at 0
"""

from __future__ import annotations

import numpy as np

from .flow import MapState, read_snapshot
from .mesh import DomainGrid

TWO_PI = 2.0 * np.pi

# Allowed fields and defaults per initial-condition kind.  resolve_spec checks
# specs against it, for the config parser too, so unknown fields and values
# of the wrong type (see _check_value) are rejected before a run starts.
KIND_DEFAULTS: dict[str, dict] = {
    "constant": {"u0": 0.0, "v0": 1.0},
    "sinusoidal": {"u0": 0.0, "v0": 1.0, "amp_u": 0.15, "amp_v": 0.1,
                   "mode_u": [1, 1], "mode_v": [1, 1]},
    "winding": {"amp": 0.2, "k": 1, "b": 0.3, "m": 1},
    "random": {"u0": 0.0, "v0": 1.0, "amp_u": 0.2, "amp_v": 0.2, "max_mode": 3},
    "file": {"path": None},
}


def _check_value(key: str, value, default) -> None:
    """A value has its default's type: an integer, a pair of integers, a
    string (the file path) or else any number; a bool is none of these."""
    if isinstance(default, list):
        ok, want = (isinstance(value, list) and len(value) == len(default)
                    and all(type(m) is int for m in value)), "a pair of integers"
    elif default is None:
        ok, want = isinstance(value, str), "a string"
    elif type(default) is int:
        ok, want = type(value) is int, "an integer"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        want = "a number"
    if not ok:
        raise SpecError(f"expected {want}, got {value!r}", key)


def smooth_random_field(
    grid: DomainGrid, rng: np.random.Generator, max_mode: int = 3, amplitude: float = 0.1
) -> np.ndarray:
    """Band-limited random field with 1/(1 + |k|^2) coefficient decay,
    rescaled to the requested max-norm amplitude."""
    if max_mode < 1:
        raise ValueError("max_mode must be at least 1")
    x1, x2 = grid.x1, grid.x2
    f = np.zeros(grid.shape)
    for k in range(-max_mode, max_mode + 1):
        for l in range(0, max_mode + 1):
            if l == 0 and k <= 0:
                continue  # one representative per conjugate mode pair
            decay = 1.0 / (1.0 + k * k + l * l)
            phase = TWO_PI * (k * x1 + l * x2)
            f = f + decay * (rng.standard_normal() * np.cos(phase)
                             + rng.standard_normal() * np.sin(phase))
    peak = float(np.abs(f).max())
    if peak == 0.0:
        return f
    return f * (amplitude / peak)


class SpecError(ValueError):
    """An initial spec has an unknown kind or field or a bad value; .key names it."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


def resolve_spec(spec: dict) -> tuple[str, dict]:
    """The kind of an initial spec, and the spec with the kind's defaults
    filled in.  The one check of a spec against KIND_DEFAULTS."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KIND_DEFAULTS:
        raise SpecError(
            f"unknown kind {kind!r}; expected one of {sorted(KIND_DEFAULTS)}", "kind"
        )
    for key in (k for k in spec if k != "kind"):
        if key not in KIND_DEFAULTS[kind]:
            raise SpecError(f"unknown field {key!r} for initial kind {kind!r}", key)
        _check_value(key, spec[key], KIND_DEFAULTS[kind][key])
    return kind, {**KIND_DEFAULTS[kind], **spec}


def build_initial_state(
    grid: DomainGrid, spec: dict, rng: np.random.Generator | None = None
) -> MapState:
    """Build the t = 0 state described by a config dictionary."""
    kind, p = resolve_spec(spec)
    x1, x2 = grid.x1, grid.x2
    ones = np.ones(grid.shape)
    if kind == "constant":
        if not p["v0"] > 0.0:
            raise ValueError(f"constant map needs v0 > 0, got {p['v0']}")
        return MapState(grid, p["u0"] * ones, p["v0"] * ones)
    if kind == "sinusoidal":
        ku, lu = p["mode_u"]
        kv, lv = p["mode_v"]
        if abs(p["amp_v"]) >= p["v0"]:
            raise ValueError(
                f"|amp_v| = {abs(p['amp_v'])} must stay below v0 = {p['v0']}"
            )
        u = p["u0"] + p["amp_u"] * np.sin(TWO_PI * ku * x1) * np.cos(TWO_PI * lu * x2)
        v = p["v0"] + p["amp_v"] * np.cos(TWO_PI * kv * x1) * np.sin(TWO_PI * lv * x2)
        return MapState(grid, u * ones, v * ones)
    if kind == "winding":
        u = p["amp"] * np.sin(TWO_PI * p["k"] * x1) * ones
        v = np.exp(p["b"] * np.cos(TWO_PI * p["m"] * x2)) * ones
        return MapState(grid, u, v)
    if kind == "random":
        if rng is None:
            raise ValueError("random initial data needs a seeded generator")
        # Higher modes alias on the grid, and every mode costs a pass over it.
        if p["max_mode"] > min(grid.shape) // 2:
            raise ValueError(f"max_mode {p['max_mode']} exceeds half the grid's "
                             f"smaller side, {min(grid.shape) // 2}")
        u = p["u0"] + smooth_random_field(grid, rng, p["max_mode"], p["amp_u"])
        # Multiplicative exponential keeps v positive for any draw.
        v = p["v0"] * np.exp(smooth_random_field(grid, rng, p["max_mode"], p["amp_v"]))
        return MapState(grid, u, v)
    # kind == "file"
    if not p["path"]:
        raise ValueError("file initial data needs a 'path'")
    # Every state is checked, one chunk at a time; the last is copied, so
    # that the state does not keep its chunk alive.
    for chunk in read_snapshot(p["path"], grid):
        last = chunk[-1]
    return MapState(grid, *last)
