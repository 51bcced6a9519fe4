"""Command-line front end and experiment orchestration.

Subcommands:

* run      -- integrate a configured flow and write the full diagnostic set
* reduce   -- reduce one point into the fundamental domain
* analyze  -- recompute the diagnostics of a stored run from its snapshots
              and its stepping record, and audit the stored files against them
* sweep    -- run a list of config variants, optionally in parallel

Configs are strict JSON: unknown keys anywhere are rejected, every value is
type-checked, and the resolved config (defaults filled in) is echoed into
the run directory so analyze can rebuild the exact measurement setup.  The
schema lives on the fields of FlowConfig, GridSpec and BinningSpec: each
field gives one key, its default and its bounds, and config_from_dict reads
the fields instead of restating them.  Runs
are deterministic: the same config and seed produce bit-identical output
files.

Exit codes: 0 success, 1 aborted run or failed sweep variant, 2 input error
(config, initial state, run directory, a point to reduce) or failed audit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

# flow, initial and measures are called through their modules, so that a
# wrapper installed on a module attribute also sees the calls made here.
from . import flow, initial, measures as ms, table
from .hyperbolic import (
    FundamentalDomainBinning,
    ReductionError,
    UpperHalfPoint,
    reduce_to_fundamental_domain,
)
from .mesh import DomainGrid
from .testfunctions import BumpFunction

SERIES_SCHEMA = "moduliflow-series-v1"
SUMMARY_SCHEMA = "moduliflow-summary-v1"

# The steps' t, E, D, cumulative_D and dt at each snapshot, then its measures.
SERIES_BASE_COLUMNS = ["t", "E", "D", "cumulative_D", "dt",
                       "H", "rho_max", "tail_mass", "degenerate_fraction"]

class ConfigError(ValueError):
    """A config failed validation; .path names the offending key."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _key(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expect(raw: dict, allowed, path: str):
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", _key(path, key))


def _number(raw, path, *, positive=False, nonnegative=False, at_most=None,
            above=None) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"expected a number, got {raw!r}", path)
    val = float(raw)
    if not math.isfinite(val):
        raise ConfigError("must be finite", path)
    if positive and not val > 0.0:
        raise ConfigError(f"must be positive, got {val}", path)
    if nonnegative and val < 0.0:
        raise ConfigError(f"must be nonnegative, got {val}", path)
    if at_most is not None and val > at_most:
        raise ConfigError(f"must be at most {at_most}, got {val}", path)
    if above is not None and not val > above:
        raise ConfigError(f"must exceed {above}, got {val}", path)
    return val


def _integer(raw, path, *, minimum=None) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"expected an integer, got {raw!r}", path)
    if minimum is not None and raw < minimum:
        raise ConfigError(f"must be at least {minimum}, got {raw}", path)
    return raw


def _validate_initial(raw: dict, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("must be an object", path)
    try:
        initial.resolve_spec(raw)
    except initial.SpecError as exc:
        raise ConfigError(str(exc), f"{path}.{exc.key}") from exc
    return dict(raw)


def _validate_test_function(raw, path) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("must be an object", path)
    _expect(raw, {"center", "radii", "amplitude"}, path)
    out = {}
    for key in ("center", "radii"):
        pair = raw.get(key)
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError("expected a pair [x, y]", f"{path}.{key}")
        out[key] = [_number(x, f"{path}.{key}[{i}]", positive=(key == "radii"))
                    for i, x in enumerate(pair)]
    out["amplitude"] = _number(raw.get("amplitude", 1.0), f"{path}.amplitude")
    return out


def _validate_test_functions(raw, path) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("must be a non-empty list", path)
    return [_validate_test_function(tf, f"{path}[{i}]") for i, tf in enumerate(raw)]


def _validate_output_dir(raw, path):
    if raw is not None and not isinstance(raw, str):
        raise ConfigError("must be a string or null", path)
    return raw


def _read_fields(cls, raw, path: str = ""):
    """An instance of the config dataclass cls read from the JSON object raw.
    Each key must name a field and goes through the field's reader; a
    missing key keeps the field's default.  path is raw's key in the config."""
    if not isinstance(raw, dict):
        raise (ConfigError("must be an object", path) if path
               else ConfigError("config must be a JSON object"))
    readers = {f.name: f.metadata["read"] for f in fields(cls)}
    _expect(raw, readers, path)
    return cls(**{key: readers[key](value, _key(path, key)) for key, value in raw.items()})


def _field(read, **default):
    """A config field: its default (default= or default_factory=), and
    read(value, key), which checks a given value and returns what is stored."""
    return field(**default, metadata={"read": read})


def _bound(default, **bounds):
    """A numeric config field: its default, and the bounds a given value is
    checked against, by _integer for an int default and _number otherwise."""
    check = _integer if isinstance(default, int) else _number
    return _field(partial(check, **bounds), default=default)


@dataclass(frozen=True)
class GridSpec:
    n1: int = _bound(64, minimum=4)
    n2: int = _bound(64, minimum=4)


@dataclass(frozen=True)
class BinningSpec:
    n_x: int = _bound(60, minimum=2)
    n_y: int = _bound(60, minimum=2)
    y_max: float = _bound(10.0, positive=True, above=1)


@dataclass
class FlowConfig:
    """Fully resolved experiment configuration; its fields are the config
    schema, each giving its key, default and bounds."""

    grid: GridSpec = _field(partial(_read_fields, GridSpec), default=GridSpec())
    initial: dict = _field(_validate_initial, default_factory=lambda: {"kind": "sinusoidal"})
    t_final: float = _bound(1.0, positive=True)
    snapshot_interval: float = _bound(flow.FlowParams.snapshot_interval, positive=True)
    cfl_safety: float = _bound(flow.FlowParams.cfl_safety, positive=True, at_most=1.0)
    dt_floor: float = _bound(flow.FlowParams.dt_floor, positive=True)
    stall_threshold: float = _bound(flow.FlowParams.stall_threshold, nonnegative=True)
    binning: BinningSpec = _field(partial(_read_fields, BinningSpec), default=BinningSpec())
    test_functions: list = _field(_validate_test_functions, default_factory=lambda: [
        {"center": [0.0, 1.5], "radii": [0.35, 0.45], "amplitude": 1.0},
        {"center": [-0.2, 2.5], "radii": [0.25, 1.0], "amplitude": 1.0},
    ])
    density_threshold: float = _bound(10.0, above=1)
    jacobian_threshold: float = _bound(1e-6, positive=True)
    seed: int = _bound(0, minimum=0)
    output_dir: str | None = _field(_validate_output_dir, default=None)

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(raw: dict) -> FlowConfig:
    """Validate a JSON-compatible dictionary into a FlowConfig (fail-closed)."""
    return _read_fields(FlowConfig, raw)


def _read_text(path) -> str:
    """The text of a UTF-8 input file; a file that cannot be read or decoded
    is a ConfigError that names it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _parse_int(text: str):
    # An integer too large for a float reads as inf, so that it fails its
    # check as inf instead of being written out digit by digit.
    value = float(text)
    return int(text) if math.isfinite(value) else value


def _parse_json(text: str):
    try:
        return json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def parse_config(text: str) -> FlowConfig:
    """Parse strict-JSON config text; malformed JSON reports line/column."""
    return config_from_dict(_parse_json(text))


def emit_config(config: FlowConfig) -> str:
    """Canonical JSON emission; parse(emit(c)) == c."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def _initial_state(config: FlowConfig) -> flow.MapState:
    """The config's initial state; one that cannot be built, or that the flow
    would refuse at its v floor, is a ConfigError, and so is a snapshot
    interval that run_flow would refuse from the state's time."""
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    try:
        # Only random data draws; loading numpy.random costs others time and memory.
        rng = (np.random.default_rng(config.seed) if config.initial.get("kind") == "random"
               else None)
        state = initial.build_initial_state(grid, config.initial, rng)
        flow._check_above_floor(state)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), "initial") from exc
    try:
        flow._check_interval(state.t, config.t_final, config.snapshot_interval)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return state


@dataclass
class ExperimentResult:
    config: FlowConfig
    out_dir: Path
    trajectory: object
    series_columns: list
    series_rows: np.ndarray
    summary: dict
    aborted = property(lambda self: self.summary["termination"] == "aborted")


def _series_columns(config: FlowConfig) -> list:
    return SERIES_BASE_COLUMNS + [
        f"ergodic_err_{j}" for j in range(len(config.test_functions))
    ]


def compute_snapshot_diagnostics(config: FlowConfig, chunks, times, state):
    """Measure the snapshots as the config directs; shared by run and analyze.

    chunks yields the distinct states' fields in order, as (C, 2, n1, n2)
    stacks, the chunks of flow.read_snapshot; times gives the snapshots'
    times, state each snapshot's state number (flow.state_numbers).  Each
    state is measured once, by ms.state_masses and ms.state_reports of its
    chunk; each snapshot's masses, its state's, then go to the one walk of
    the prefix averages, which serves every observable, and the chunk is
    dropped.  Memory holds at most two chunks of dense masses besides the
    sparse rows.

    Returns (measured, pushforwards): measured holds the series columns
    that follow the steps' (H, rho_max, tail_mass, degenerate_fraction and
    the ergodic errors), one row per snapshot; pushforwards is
    ms.measure_rows of the distinct states' masses.
    """
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    binning = FundamentalDomainBinning(
        config.binning.n_x, config.binning.n_y, config.binning.y_max
    )
    reference = ms.reference_measure(binning)
    repeats = np.bincount(state)  # the snapshots of each state
    reports, pushforwards = [], []

    def snapshot_masses():
        for chunk in chunks:
            a = len(reports)  # the chunk's first state
            masses = ms.state_masses(chunk, grid, binning)
            reports.extend(ms.state_reports(chunk, grid, masses, reference,
                                            config.density_threshold, config.jacobian_threshold))
            rows = ms.measure_rows(masses)
            rows[:, 0] += a
            pushforwards.append(rows)
            for mu, n in zip(masses, repeats[a:a + len(chunk)]):
                for _ in range(n):
                    yield mu

    bumps = [BumpFunction(**tf) for tf in config.test_functions]
    ergodic = ms.ergodic_error_from_measures(times, snapshot_masses(), bumps, reference)
    return np.column_stack([np.array(reports)[state], ergodic]), np.concatenate(pushforwards)


# Every path of a run directory, in the order run_experiment and analyze_run
# unpack them: run writes exactly these (and their directories), and analyze
# requires exactly these, besides the ANALYSIS_PATHS it writes itself.
RUN_PATHS = ("config.json", "series.csv", "steps.npy", "snapshots/states.npy",
             "measures/pushforwards.npy", "summary.json")
ANALYSIS_PATHS = ("analysis.json", "series_recomputed.csv")


def _check_paths(run: Path):
    """run must hold exactly RUN_PATHS, their directories and any of
    ANALYSIS_PATHS, looking at its top level and into those directories;
    else ValueError names the first other path, or else the first missing."""
    dirs = {path.split("/")[0] for path in RUN_PATHS if "/" in path}
    found = set()
    for path in run.iterdir():
        found.add(path.name)
        if path.name in dirs and path.is_dir():
            found.update(f"{path.name}/{p.name}" for p in path.iterdir())
    other = sorted(found.difference(RUN_PATHS, dirs, ANALYSIS_PATHS))
    if other:
        raise ValueError(f"{run / other[0]}: not a path of a run directory")
    missing = sorted(set(RUN_PATHS) - found)
    if missing:
        raise ValueError(f"{run / missing[0]}: missing from a run directory")


def _summary_text(config: FlowConfig, steps: np.ndarray, columns: list, rows: np.ndarray,
                  rejected) -> str:
    """The text of summary.json, as run writes it and analyze rebuilds it:
    the config's grid, flow.step_fields of the steps, the fields that the
    series rows determine (row 0's E, the last row's measures and ergodic
    errors, the row count) and rejected_steps, which the steps do not
    record."""
    last = dict(zip(columns, rows[-1].tolist()))
    summary = {"schema": SUMMARY_SCHEMA, "grid": [config.grid.n1, config.grid.n2],
               **flow.step_fields(steps, config.t_final, config.stall_threshold),
               "final_entropy": last["H"],
               **{f"final_{name}": last[name]
                  for name in ("rho_max", "tail_mass", "degenerate_fraction")},
               "snapshot_count": len(rows), "energy_initial": rows[0, columns.index("E")].item(),
               "final_ergodic_errors": rows[-1, len(SERIES_BASE_COLUMNS):].tolist(),
               "rejected_steps": rejected}
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


def run_experiment(config: FlowConfig, out_dir=None) -> ExperimentResult:
    """Run the configured flow and write the diagnostic files.

    Layout of the run directory, RUN_PATHS: config.json (resolved echo),
    series.csv (snapshot-aligned diagnostics, the snapshots' times among
    them), steps.npy (the trajectory's steps: row 0 and one row per
    accepted or frozen step, float64 columns flow.STEP_COLUMNS),
    snapshots/states.npy (the distinct states as one (S, 2, n1, n2) array,
    written by flow.write_snapshot as run_flow makes them), measures/
    pushforwards.npy (each distinct state's pushforward as the rows of
    ms.measure_rows), summary.json.  A frozen snapshot shares its state and
    its pushforward with the snapshot before it, and the steps give each
    snapshot's state number (flow.state_numbers).  The diagnostics are
    measured from states.npy, read back one chunk at a time, as analyze
    reads it, so no more than a chunk of states is held at once.
    summary.json is _summary_text of the steps, the series and the count of
    rejected steps; an aborted run (dt underflow) still writes everything
    computed so far, with termination aborted.  A config that
    _initial_state refuses raises ConfigError before the run directory is
    created, and a run directory that holds any file raises
    FileExistsError before anything is written.
    """
    state0 = _initial_state(config)

    out = Path(out_dir) if out_dir is not None else Path(config.output_dir or "run")
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise FileExistsError(f"{out}: not empty; run writes only into a new or empty directory")

    params = flow.FlowParams(**{f.name: getattr(config, f.name)
                                for f in fields(flow.FlowParams)})
    config_path, series_path, steps_path, states_path, rows_path, summary_path = (
        out / path for path in RUN_PATHS)
    states_path.parent.mkdir()
    rows_path.parent.mkdir()
    try:
        with flow.write_snapshot(states_path, state0.grid) as record:
            traj = flow.run_flow(state0, params, record)
    except flow.AbortedRunError as exc:
        traj = exc.trajectory
    config_path.write_text(emit_config(config))

    at = traj.snapshot_rows
    times = traj.times[at]
    state = flow.state_numbers(traj.dissipation[at], config.stall_threshold)
    chunks = flow.read_snapshot(states_path, state0.grid, int(state[-1]) + 1)
    measured, pushforwards = compute_snapshot_diagnostics(config, chunks, times, state)
    series = np.column_stack([times, traj.energy[at], traj.dissipation[at],
                              traj.cumulative_dissipation[at], traj.dt_used[at], measured])
    columns = _series_columns(config)
    table.write_table(series_path, SERIES_SCHEMA, dict(zip(columns, series.T)))
    np.save(steps_path, traj.steps)
    ms.write_measure(pushforwards, rows_path)

    text = _summary_text(config, traj.steps, columns, series, int(traj.rejected_steps))
    summary_path.write_text(text)
    return ExperimentResult(config, out, traj, columns, series, json.loads(text))


def analyze_run(run_dir, tolerance: float = 1e-12) -> dict:
    """Recompute the series of a stored run from its snapshots and steps,
    and audit the run's files.

    The tolerance must be finite and at least 0, and the run directory
    must hold exactly its paths (_check_paths) before anything is read.
    A config.json that _read_text, parse_config or _initial_state refuses
    is a ConfigError that names the file.
    The series must carry its config's columns.  Its t column gives the
    snapshots' times, which must rise strictly.  Each series column is
    recomputed: t and the measures from the snapshots, cumulative_D
    (flow.dissipation_integral) and dt from the steps, and E and D by one
    edge pass per distinct state, with the series' E and D equal to the
    steps' bit for bit (run takes them from the steps); each must match the
    series within the tolerance.  summary.json must be the file that run
    would write from the stored series and steps (_audit_summary), checked
    before anything is recomputed.  steps.npy must keep run_flow's rules
    exactly (flow.read_steps) and hold a row at each snapshot time
    (_step_rows).  states.npy must hold as many states as the steps give
    (flow.state_numbers), on the config's grid; it is read one chunk at a
    time (flow.read_snapshot), each state finite and above the v floor, and
    unless the initial kind is file, whose source may be gone, its state 0
    must be _initial_state of the config byte for byte.  pushforwards.npy
    must be the rows of the recomputed pushforwards byte for byte, or ValueError
    names the file (and for a state, or rows that differ, the first state).
    Values so large that the recomputation overflows give inf or nan in its
    columns, without a warning.  Returns the audit report dictionary (also
    written to analysis.json).
    """
    tolerance = _number(tolerance, "tolerance", nonnegative=True)
    run = Path(run_dir)
    _check_paths(run)
    config_path, series_path, steps_path, states_path, rows_path, summary_path = (
        run / path for path in RUN_PATHS)
    text = _read_text(config_path)
    try:
        config = parse_config(text)
        start = None if config.initial["kind"] == "file" else _initial_state(config)
    except ConfigError as exc:
        raise ConfigError(str(exc), str(config_path)) from exc
    steps = flow.read_steps(steps_path, config.stall_threshold)
    columns = _series_columns(config)
    stored = table.read_table(series_path, SERIES_SCHEMA, columns)
    times = stored[:, 0].tolist()
    if not (np.diff(times) > 0).all():
        raise ValueError(f"{series_path}: t does not rise strictly from row to row")
    at = _step_rows(steps_path, steps, times, stored)
    _audit_summary(summary_path, config, steps, columns, stored)
    state = flow.state_numbers(steps[at, 2], config.stall_threshold)
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    chunks = flow.read_snapshot(states_path, grid, int(state[-1]) + 1)
    ws = flow._EdgeWorkspace(grid.shape)
    passes = []  # each distinct state's E and D

    def passed():
        for chunk in chunks:
            if not passes and start is not None and chunk[0].tobytes() != start.fields.tobytes():
                raise ValueError(f"{states_path}: state 0 is not the initial state of "
                                 f"{config_path}")
            for f in chunk:
                np.copyto(ws.ring[0], f)  # each state is passed in slot 0
                passes.append(flow._edge_pass(ws, 0))
            yield chunk

    with np.errstate(over="ignore", invalid="ignore"):
        measured, pushforwards = compute_snapshot_diagnostics(config, passed(), times, state)
    e, d = np.array(passes).T[:, state]
    recomputed = np.column_stack([times, e, d, flow.dissipation_integral(steps)[at],
                                  steps[at, 3], measured])
    _audit_rows(rows_path, pushforwards)
    report_path, recomputed_path = (run / path for path in ANALYSIS_PATHS)
    table.write_table(recomputed_path, SERIES_SCHEMA, dict(zip(columns, recomputed.T)))
    worst = np.abs(stored - recomputed).max(axis=0)
    report = {"schema": "moduliflow-analysis-v1", "tolerance": tolerance,
              # max propagates NaN, so a NaN in any column fails.
              "max_abs_diff": float(worst.max()),
              "columns": {name: {"max_abs_diff": diff, "within_tolerance": diff <= tolerance}
                          for name, diff in zip(columns, worst.tolist())}}
    report["pass"] = report["max_abs_diff"] <= tolerance
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _step_rows(path: Path, steps: np.ndarray, times, stored: np.ndarray) -> np.ndarray:
    """The row of steps at each snapshot time of times: row 0 is snapshot
    0's, each snapshot time is a row's t, and there the stored series' E
    and D are the row's, bit for bit.  Errors name the file."""
    t = steps[:, 0]
    if t[0] != times[0]:
        raise ValueError(f"{path}: row 0 is not snapshot 0's, at t = {times[0]!r}")
    at = np.minimum(np.searchsorted(t, times), len(t) - 1)
    missing = np.flatnonzero(t[at] != times)
    if len(missing):
        k = missing[0]
        raise ValueError(f"{path}: no row at t = {times[k]!r}, the time of snapshot {k}")
    # E and D are the series' columns 1 and 2, as they are the steps'.
    differ = np.argwhere(stored[:, 1:3] != steps[at, 1:3])
    if len(differ):
        k, j = differ[0] + (0, 1)
        raise ValueError(f"{path}: row {at[k]} {flow.STEP_COLUMNS[j]} is "
                         f"{steps[at[k], j].item()!r}, series.csv gives {stored[k, j].item()!r}")
    return at


def _audit_rows(path: Path, rows: np.ndarray):
    """The .npy file at path must hold rows, the pushforwards' (state, bin,
    mass) table, byte for byte; else ValueError names the file and the state
    of the first row that differs."""
    stored = flow._read_npy(path, lambda array: array)
    if stored.ndim != 2 or stored.shape[1] != rows.shape[1]:
        raise ValueError(f"{path}: shape {stored.shape}, expected (rows, {rows.shape[1]})")
    n = min(len(stored), len(rows))
    differ = (stored[:n].view(np.uint64) != rows[:n].view(np.uint64)).any(axis=1)
    first = int(np.argmax(differ)) if differ.any() else n
    if first < max(len(stored), len(rows)):
        state = int(rows[min(first, len(rows) - 1), 0])
        raise ValueError(f"{path}: row {first} differs from the recomputed "
                         f"pushforward of state {state}")


def _audit_summary(path: Path, config: FlowConfig, steps: np.ndarray, columns: list,
                   rows: np.ndarray):
    """The summary.json at path must be _summary_text of the steps and the
    series rows, given its own rejected_steps, which must be a count, an
    int of at least 0: the same keys, and for each the same json.dumps
    text, so that a float keeps its bits and a count is no float that
    equals it.  Else ValueError names the file and the first field."""
    try:
        stored = json.loads(path.read_text(encoding="utf-8"), parse_int=_parse_int)
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(stored, dict) or stored.get("schema") != SUMMARY_SCHEMA:
        raise ValueError(f"{path}: not a {SUMMARY_SCHEMA} object")
    rejected = stored.get("rejected_steps")
    expected = json.loads(_summary_text(config, steps, columns, rows, rejected))
    odd = sorted(set(stored).symmetric_difference(expected))
    if odd:
        where = "not a field of" if odd[0] in stored else "missing from"
        raise ValueError(f"{path}: {odd[0]} is {where} the summary")
    if type(rejected) is not int or rejected < 0:
        raise ValueError(f"{path}: rejected_steps is {rejected!r}, expected a count")
    for name, value in expected.items():
        if json.dumps(stored[name]) != json.dumps(value):
            raise ValueError(f"{path}: {name} is {stored[name]!r}, expected {value!r}")


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _sweep_worker(payload):
    """Run one variant: (name, failed, status), status being the run's
    termination, or "failed: <reason>" when it raised OSError or ValueError."""
    name, config_dict, out_dir = payload
    try:
        result = run_experiment(config_from_dict(config_dict), out_dir)
    except (OSError, ValueError) as exc:
        return name, True, f"failed: {exc}"
    return name, result.aborted, result.summary["termination"]


def run_sweep(sweep_path, out_root, jobs: int = 1) -> list:
    """Run every variant of a sweep config under out_root/<variant name>.

    Every variant's config and initial state are checked before any variant
    runs, so a bad variant raises ConfigError before any output is written.
    A variant that fails later, as when its directory cannot be made, is
    reported as failed by _sweep_worker, and the other variants still run.
    """
    jobs = _integer(jobs, "jobs", minimum=1)
    raw = _parse_json(_read_text(sweep_path))
    if not isinstance(raw, dict):
        raise ConfigError("sweep config must be a JSON object")
    _expect(raw, {"base", "variants"}, "")
    base = raw.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("must be a JSON object", "base")
    variants = raw.get("variants")
    if not isinstance(variants, list) or not variants:
        raise ConfigError("must be a non-empty list", "variants")
    payloads = []
    seen = set()
    for i, var in enumerate(variants):
        if not isinstance(var, dict) or "name" not in var:
            raise ConfigError("each variant needs a 'name'", f"variants[{i}]")
        name = var["name"]
        if (not isinstance(name, str) or name in ("", ".", "..") or "/" in name
                or "\0" in name or name in seen):
            raise ConfigError(f"bad or duplicate name {name!r}", f"variants[{i}].name")
        seen.add(name)
        overrides = {k: v for k, v in var.items() if k != "name"}
        merged = _deep_merge(base, overrides)
        try:
            _initial_state(config_from_dict(merged))
        except ConfigError as exc:
            raise ConfigError(str(exc), f"variants[{i}] ({name})") from exc
        payloads.append((name, merged, str(Path(out_root) / name)))
    # The pool starts all its workers at once, so no more than the variants
    # and the CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, len(payloads), cpus or 1)
    if workers > 1:
        # Only parallel sweeps load the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_worker, payloads))
    return [_sweep_worker(p) for p in payloads]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moduliflow",
        description="Harmonic-map gradient flow into the modular surface "
                    "with measure and entropy diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured flow")
    p_run.add_argument("--config", type=Path, help="JSON config file (defaults apply)")
    p_run.add_argument("--out", type=Path, help="output directory")
    p_run.add_argument("--seed", type=int, help="override the config seed")

    p_red = sub.add_parser("reduce", help="reduce a point to the fundamental domain")
    p_red.add_argument("x", type=float)
    p_red.add_argument("y", type=float)

    p_an = sub.add_parser("analyze", help="audit a stored run directory")
    p_an.add_argument("--run", type=Path, required=True)
    p_an.add_argument("--tolerance", type=float, default=1e-12)

    p_sw = sub.add_parser("sweep", help="run a grid of config variants")
    p_sw.add_argument("--config", type=Path, required=True, help="sweep JSON")
    p_sw.add_argument("--out", type=Path, required=True, help="output root")
    p_sw.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        try:
            config = (parse_config(_read_text(args.config))
                      if args.config else FlowConfig())
            if args.seed is not None:
                # As a config's integer: one too large for a float is inf.
                seed = _parse_int(str(args.seed))
                config = config_from_dict({**config.to_dict(), "seed": seed})
            if args.out is None and config.output_dir is None:
                print("run: no output directory (--out or config output_dir)",
                      file=sys.stderr)
                return 2
            result = run_experiment(config, args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"run: {exc}", file=sys.stderr)
            return 2
        print(f"run written to {result.out_dir} "
              f"(termination: {result.summary['termination']}, "
              f"steps: {result.summary['accepted_steps']})")
        return 1 if result.aborted else 0
    if args.command == "reduce":
        try:
            point = UpperHalfPoint(args.x, args.y)
            reduced, gamma = reduce_to_fundamental_domain(point)
        except (ValueError, ReductionError) as exc:
            print(f"reduce: {exc}", file=sys.stderr)
            return 2
        print(f"z   = {point.x!r} + {point.y!r}i")
        print(f"z_F = {reduced.x!r} + {reduced.y!r}i")
        print(f"gamma = [[{gamma.a}, {gamma.b}], [{gamma.c}, {gamma.d}]]")
        return 0
    if args.command == "analyze":
        try:
            report = analyze_run(args.run, args.tolerance)
        except (OSError, ValueError) as exc:
            print(f"analyze: cannot audit {args.run}: {exc}", file=sys.stderr)
            return 2
        for name, info in report["columns"].items():
            status = "ok" if info["within_tolerance"] else "MISMATCH"
            print(f"{name}: max |diff| = {info['max_abs_diff']:.3e} [{status}]")
        print(f"analysis {'PASS' if report['pass'] else 'FAIL'} "
              f"(tolerance {report['tolerance']:g})")
        return 0 if report["pass"] else 2
    if args.command == "sweep":
        try:
            results = run_sweep(args.config, args.out, args.jobs)
        except ConfigError as exc:
            print(f"sweep config error: {exc}", file=sys.stderr)
            return 2
        for name, _, status in results:
            print(f"{name}: {status}")
        return 1 if any(failed for _, failed, _ in results) else 0
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
