"""Command-line front end and experiment orchestration.

Subcommands:

* run      -- integrate a configured flow and write the full diagnostic set
* reduce   -- reduce one point into the fundamental domain
* analyze  -- recompute the diagnostics of a stored run from its snapshots
              and audit them against the stored series
* sweep    -- run a list of config variants, optionally in parallel

Configs are strict JSON: unknown keys anywhere are rejected, every value is
type-checked, and the resolved config (defaults filled in) is echoed into
the run directory so analyze can rebuild the exact measurement setup.  Runs
are deterministic: the same config and seed produce bit-identical output
files.  MODFLOW_THREADS caps kernel threads; the package applies it on
import, before numpy loads, and sweep subprocesses inherit it.

Exit codes: 0 success, 1 aborted run or failed sweep variant, 2 input error
(config, initial state, run directory, a point to reduce) or failed audit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
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
STEPS_SCHEMA = "moduliflow-steps-v1"
SUMMARY_SCHEMA = "moduliflow-summary-v1"
INDEX_SCHEMA = "moduliflow-snapshot-index-v1"

SERIES_BASE_COLUMNS = [
    "t", "E", "D", "cumulative_D", "dt",
    "H", "rho_max", "tail_mass", "degenerate_fraction",
]
# Stepping history, which analyze echoes; it recomputes every other column
# from the snapshots alone.
ECHOED = {"cumulative_D", "dt"}

DEFAULT_TEST_FUNCTIONS = [
    {"center": [0.0, 1.5], "radii": [0.35, 0.45], "amplitude": 1.0},
    {"center": [-0.2, 2.5], "radii": [0.25, 1.0], "amplitude": 1.0},
]


class ConfigError(ValueError):
    """A config failed validation; .path names the offending key."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


@dataclass(frozen=True)
class GridSpec:
    n1: int = 64
    n2: int = 64


@dataclass(frozen=True)
class BinningSpec:
    n_x: int = 60
    n_y: int = 60
    y_max: float = 10.0


@dataclass
class FlowConfig:
    """Fully resolved experiment configuration."""

    grid: GridSpec = GridSpec()
    initial: dict = field(default_factory=lambda: {"kind": "sinusoidal"})
    t_final: float = 1.0
    snapshot_interval: float = 0.05
    cfl_safety: float = 0.5
    dt_floor: float = 1e-12
    stall_threshold: float = 1e-14
    binning: BinningSpec = BinningSpec()
    test_functions: list = field(
        default_factory=lambda: [dict(tf) for tf in DEFAULT_TEST_FUNCTIONS]
    )
    density_threshold: float = 10.0
    jacobian_threshold: float = 1e-6
    seed: int = 0
    output_dir: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _expect(raw: dict, allowed: set, path: str):
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)


def _number(raw, path, *, positive=False, nonnegative=False, at_most=None) -> float:
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
        out[key] = [
            _number(pair[0], f"{path}.{key}[0]"),
            _number(pair[1], f"{path}.{key}[1]", positive=(key == "radii")),
        ]
        if key == "radii" and not out[key][0] > 0:
            raise ConfigError("radii must be positive", f"{path}.{key}")
    out["amplitude"] = _number(raw.get("amplitude", 1.0), f"{path}.amplitude")
    return out


def config_from_dict(raw: dict) -> FlowConfig:
    """Validate a JSON-compatible dictionary into a FlowConfig (fail-closed)."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _expect(raw, {
        "grid", "initial", "t_final", "snapshot_interval", "cfl_safety",
        "dt_floor", "stall_threshold", "binning", "test_functions",
        "density_threshold", "jacobian_threshold", "seed", "output_dir",
    }, "")
    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        raise ConfigError("must be an object", "grid")
    _expect(grid_raw, {"n1", "n2"}, "grid")
    grid = GridSpec(
        _integer(grid_raw.get("n1", 64), "grid.n1", minimum=4),
        _integer(grid_raw.get("n2", 64), "grid.n2", minimum=4),
    )
    bin_raw = raw.get("binning", {})
    if not isinstance(bin_raw, dict):
        raise ConfigError("must be an object", "binning")
    _expect(bin_raw, {"n_x", "n_y", "y_max"}, "binning")
    y_max = _number(bin_raw.get("y_max", 10.0), "binning.y_max", positive=True)
    if y_max <= 1.0:
        raise ConfigError(f"must exceed 1, got {y_max}", "binning.y_max")
    binning = BinningSpec(
        _integer(bin_raw.get("n_x", 60), "binning.n_x", minimum=2),
        _integer(bin_raw.get("n_y", 60), "binning.n_y", minimum=2),
        y_max,
    )
    tf_raw = raw.get("test_functions", DEFAULT_TEST_FUNCTIONS)
    if not isinstance(tf_raw, list) or not tf_raw:
        raise ConfigError("must be a non-empty list", "test_functions")
    test_functions = [
        _validate_test_function(tf, f"test_functions[{i}]")
        for i, tf in enumerate(tf_raw)
    ]
    density = _number(raw.get("density_threshold", 10.0), "density_threshold")
    if density <= 1.0:
        raise ConfigError(f"must exceed 1, got {density}", "density_threshold")
    out_dir = raw.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("must be a string or null", "output_dir")
    return FlowConfig(
        grid=grid,
        initial=_validate_initial(raw.get("initial", {"kind": "sinusoidal"}), "initial"),
        t_final=_number(raw.get("t_final", 1.0), "t_final", positive=True),
        snapshot_interval=_number(
            raw.get("snapshot_interval", 0.05), "snapshot_interval", positive=True
        ),
        cfl_safety=_number(
            raw.get("cfl_safety", 0.5), "cfl_safety", positive=True, at_most=1.0
        ),
        dt_floor=_number(raw.get("dt_floor", 1e-12), "dt_floor", positive=True),
        stall_threshold=_number(
            raw.get("stall_threshold", 1e-14), "stall_threshold", nonnegative=True
        ),
        binning=binning,
        test_functions=test_functions,
        density_threshold=density,
        jacobian_threshold=_number(
            raw.get("jacobian_threshold", 1e-6), "jacobian_threshold", positive=True
        ),
        seed=_integer(raw.get("seed", 0), "seed", minimum=0),
        output_dir=out_dir,
    )


def _read_text(path) -> str:
    """The text of an input file; a file that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_config(text: str) -> FlowConfig:
    """Parse strict-JSON config text; malformed JSON reports line/column."""
    return config_from_dict(_parse_json(text))


def emit_config(config: FlowConfig) -> str:
    """Canonical JSON emission; parse(emit(c)) == c."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def _initial_state(config: FlowConfig) -> flow.MapState:
    """The config's initial state; one that cannot be built, or that the flow
    would refuse at its v floor, is a ConfigError."""
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    try:
        state = initial.build_initial_state(
            grid, config.initial, np.random.default_rng(config.seed)
        )
        flow._check_above_floor(state)
        return state
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), "initial") from exc


@dataclass
class ExperimentResult:
    config: FlowConfig
    out_dir: Path
    trajectory: object
    series_columns: list
    series_rows: np.ndarray
    summary: dict
    aborted: bool


def _series_columns(config: FlowConfig) -> list:
    return SERIES_BASE_COLUMNS + [
        f"ergodic_err_{j}" for j in range(len(config.test_functions))
    ]


def _same_fields(a: flow.MapState, b: flow.MapState) -> bool:
    """Whether two states share their arrays, as run_flow's frozen snapshots do."""
    return a.u is b.u and a.v is b.v


def compute_snapshot_diagnostics(config: FlowConfig, snapshots, cumulative_d, dt):
    """Measure the snapshots as the config directs; shared by run and analyze.

    Returns (rows, series): rows is the series table, one row per snapshot in
    _series_columns order, with the stepping history cumulative_d and dt
    echoed; series is the MeasureSeries of the snapshots' pushforwards.  A
    snapshot with its predecessor's fields reuses its measure and row
    values; each prefix average of the ergodic series serves every
    observable.
    """
    binning = FundamentalDomainBinning(
        config.binning.n_x, config.binning.n_y, config.binning.y_max
    )
    reference = ms.reference_measure(binning)
    ws = flow._EdgeWorkspace((config.grid.n1, config.grid.n2))
    mus, values = [], []  # values: each snapshot's E, D and entropy report
    for k, s in enumerate(snapshots):
        if k and _same_fields(s, snapshots[k - 1]):
            mus.append(replace(mus[-1], t=s.t))
        else:
            mus.append(ms.pushforward(s, binning))
            e, _, d = flow._edge_pass(s, ws)
            r = ms.entropy_report(s, mus[-1], reference, config.density_threshold,
                                  config.jacobian_threshold)
            row = (e, d, r.entropy, r.rho_max, r.tail_mass, r.degenerate_fraction)
        values.append(row)
    series = ms.MeasureSeries(mus)
    ergodic = ms.ergodic_error_from_measures(series, [
        BumpFunction(tf["center"], tf["radii"], tf.get("amplitude", 1.0))
        for tf in config.test_functions
    ], reference)
    e, d, *report = np.array(values).T
    rows = np.column_stack(
        [[s.t for s in snapshots], e, d, cumulative_d, dt, *report, ergodic]
    )
    return rows, series


def _run_files(run: Path, state) -> dict:
    """Each per-snapshot directory of a run, mapped to its file names in
    order, given each snapshot's state number (the index's state column):
    index.csv and state_{j:04d}.npy for each state j in snapshots/, and
    measure_{k:04d}.csv for each snapshot k, then time_average.csv for two
    or more, in measures/.  run writes exactly these files; analyze requires them."""
    count, states = len(state), int(state[-1]) + 1
    return {run / "snapshots": ["index.csv"] + [f"state_{j:04d}.npy" for j in range(states)],
            run / "measures": [f"measure_{k:04d}.csv" for k in range(count)]
            + ["time_average.csv"] * (count >= 2)}


def _read_index(path: Path, count: int, grid: DomainGrid):
    """The t and state columns of a run's snapshot index, for a series of
    count snapshots on grid.  Its rows must be k = 0..count-1 in order, t
    finite and non-decreasing, and state 0 first, then each the last one or
    one more; its metadata must name the grid.  Errors name the file."""
    if not path.exists() and (path.parent / "snapshot_0000.csv").exists():
        raise ValueError(f"{path.parent}: the run uses the text snapshot format "
                         "moduliflow-snapshot-v1, which this version does not read")
    meta, body = table.read_table(path, INDEX_SCHEMA, ("k", "t", "state"), ("n1", "n2"))
    k, t, state = body.T
    try:
        if (int(meta["n1"]), int(meta["n2"])) != grid.shape:
            raise ValueError(f"grid {meta['n1']} x {meta['n2']}, the config has {grid.shape}")
        if not np.array_equal(k, np.arange(count)):
            raise ValueError(f"expected rows k = 0..{count - 1} in order, one per snapshot")
        if state[0] != 0 or not np.isin(np.diff(state), (0, 1)).all():
            raise ValueError("state must start at 0 and grow by 0 or 1 per row")
        if not (np.isfinite(t).all() and (np.diff(t) >= 0).all()):
            raise ValueError("t must be finite and non-decreasing")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return t.tolist(), state.astype(int).tolist()


def _records(columns: list, rows: np.ndarray) -> tuple[list, dict]:
    """The entropy.jsonl reports, one per row, and the summary.json fields
    that the series rows determine, as run writes them and analyze checks
    them.  mirrors maps each report field to its series column."""
    col = dict(zip(columns, rows.T.tolist()))
    mirrors = {"t": "t", "entropy": "H", "rho_max": "rho_max",
               "tail_mass": "tail_mass", "degenerate_fraction": "degenerate_fraction"}
    reports = [dict(zip(mirrors, v)) for v in zip(*map(col.get, mirrors.values()))]
    fields = {f"final_{name}": reports[-1][name] for name in mirrors if name != "t"}
    fields.update(snapshot_count=len(rows), energy_initial=col["E"][0],
                  final_ergodic_errors=rows[-1, len(SERIES_BASE_COLUMNS):].tolist())
    return reports, fields


def run_experiment(config: FlowConfig, out_dir=None) -> ExperimentResult:
    """Run the configured flow and write the diagnostic files.

    Layout of the run directory: config.json (resolved echo), series.csv
    (snapshot-aligned diagnostics), steps.csv (per-step scalars),
    snapshots/ (the index and one .npy per distinct state), measures/
    (per-snapshot pushforwards plus the run's trapezoid time average),
    entropy.jsonl, summary.json.  An aborted run (dt underflow) still writes
    everything computed so far and is marked in summary.json.  An initial
    state that cannot be built raises ConfigError before the run directory
    is created.
    """
    state0 = _initial_state(config)

    out = Path(out_dir) if out_dir is not None else Path(config.output_dir or "run")
    out.mkdir(parents=True, exist_ok=True)

    params = flow.FlowParams(
        t_final=config.t_final,
        snapshot_interval=config.snapshot_interval,
        cfl_safety=config.cfl_safety,
        dt_floor=config.dt_floor,
        stall_threshold=config.stall_threshold,
    )
    aborted = False
    try:
        traj = flow.run_flow(state0, params)
    except flow.AbortedRunError as exc:
        traj = exc.trajectory
        aborted = True

    (out / "config.json").write_text(emit_config(config))

    snaps = traj.snapshots
    series, mu_series = compute_snapshot_diagnostics(
        config, snaps, traj.cumulative_dissipation[traj.snapshot_rows],
        traj.dt_used[traj.snapshot_rows],
    )
    columns = _series_columns(config)
    table.write_table(out / "series.csv", SERIES_SCHEMA, dict(zip(columns, series.T)))
    table.write_table(out / "steps.csv", STEPS_SCHEMA, {
        "t": traj.times, "E": traj.energy, "D": traj.dissipation,
        "cumulative_D": traj.cumulative_dissipation, "dt": traj.dt_used,
    })

    # One state file per run of consecutive snapshots that share their arrays.
    new = [not (k and _same_fields(s, snaps[k - 1])) for k, s in enumerate(snaps)]
    state = np.cumsum(new) - 1
    files = _run_files(out, state)
    for directory in files:
        directory.mkdir(exist_ok=True)
    (snap_dir, snap_names), (measure_dir, measure_names) = files.items()
    table.write_table(snap_dir / snap_names[0], INDEX_SCHEMA,
                      {"k": np.arange(len(snaps)), "t": [s.t for s in snaps], "state": state},
                      meta={"n1": config.grid.n1, "n2": config.grid.n2})
    for snap, name in zip([s for s, n in zip(snaps, new) if n], snap_names[1:]):
        flow.write_snapshot(snap, snap_dir / name)
    # zip drops the average when the file list has no time_average.csv.
    for mu, name in zip([*mu_series.measures, mu_series.average()], measure_names):
        ms.write_measure(mu, measure_dir / name)

    reports, fields = _records(columns, series)
    entropy_lines = [json.dumps({"schema": ms.ENTROPY_SCHEMA})]
    entropy_lines += [json.dumps(report, sort_keys=True) for report in reports]
    (out / "entropy.jsonl").write_text("\n".join(entropy_lines) + "\n")

    e0, e_end = float(traj.energy[0]), float(traj.energy[-1])
    cum = float(traj.cumulative_dissipation[-1])
    summary = {
        "schema": SUMMARY_SCHEMA,
        "grid": [config.grid.n1, config.grid.n2],
        "termination": "aborted" if aborted else traj.termination,
        "t_end": float(traj.times[-1]),
        "accepted_steps": int(traj.accepted_steps),
        "rejected_steps": int(traj.rejected_steps),
        "monotonicity_violations": int(traj.monotonicity_violations),
        "energy_final": e_end,
        "dissipation_integral": cum,
        "energy_identity_rel_gap": abs(e0 - e_end - cum) / e0 if e0 > 0 else 0.0,
        **fields,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(config, out, traj, columns, series, summary, aborted)


def analyze_run(run_dir, tolerance: float = 1e-12) -> dict:
    """Recompute snapshot diagnostics of a stored run and audit the series.

    The series must carry its config's columns, and the tolerance must be
    finite and at least 0.  Recomputed columns must match the series within
    it; dt and cumulative_D are echoed.  snapshots/ and measures/ must hold
    exactly _run_files of the index, each state must lie on the config's
    grid above the v floor, and summary.json, entropy.jsonl and each measure
    file agree with the recomputation, or ValueError names the file.
    Returns the audit report dictionary (also written to analysis.json).
    """
    tolerance = _number(tolerance, "tolerance", nonnegative=True)
    run = Path(run_dir)
    config = parse_config((run / "config.json").read_text())
    columns = _series_columns(config)
    _, stored = table.read_table(run / "series.csv", SERIES_SCHEMA, columns)
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    times, state = _read_index(run / "snapshots" / "index.csv", len(stored), grid)
    files = _run_files(run, state)
    for directory, names in files.items():
        found = {p.name for p in directory.iterdir()}
        odd = sorted(found.symmetric_difference(names))
        if odd:
            where = "not a file of" if odd[0] in found else "missing from"
            raise ValueError(f"{directory / odd[0]}: {where} a run of {len(stored)} snapshots")
    (snap_dir, snap_names), (measure_dir, measure_names) = files.items()
    states = []
    for path in [snap_dir / name for name in snap_names[1:]]:
        states.append(flow.read_snapshot(path, grid))
        # run_flow records no state at or below the floor; reduction fails on one.
        if states[-1].v_min <= flow.V_FLOOR:
            raise ValueError(f"{path}: v_min {states[-1].v_min} is at or below {flow.V_FLOOR}")
    # The snapshots of one state share its arrays, so it is measured once.
    snapshots = [flow.MapState._checked(grid, s.u, s.v, t, s.v_min)
                 for t, s in zip(times, [states[j] for j in state])]
    recomputed, series = compute_snapshot_diagnostics(
        config, snapshots,
        stored[:, columns.index("cumulative_D")], stored[:, columns.index("dt")],
    )
    _audit_records(run, columns, recomputed, tolerance)
    # zip drops the average when the file list has no time_average.csv.
    for mu, name in zip([*series.measures, series.average()], measure_names):
        stored_mu = ms.read_measure(path := measure_dir / name, series.binning)
        if stored_mu.t != mu.t or stored_mu.masses.tobytes() != mu.masses.tobytes():
            raise ValueError(f"{path}: differs from the recomputed measure")
    table.write_table(run / "series_recomputed.csv", SERIES_SCHEMA,
                      dict(zip(columns, recomputed.T)))
    worst = np.abs(stored - recomputed).max(axis=0)
    audited = np.array([name not in ECHOED for name in columns])
    report = {"schema": "moduliflow-analysis-v1", "tolerance": tolerance,
              # max propagates NaN, so a NaN in an audited column fails.
              "max_abs_diff": float(worst[audited].max()), "columns": {}}
    for name, diff, aud in zip(columns, worst.tolist(), audited.tolist()):
        report["columns"][name] = {
            "max_abs_diff": diff,
            "audited": aud,
            "within_tolerance": (diff <= tolerance) if aud else None,
        }
    report["pass"] = report["max_abs_diff"] <= tolerance
    (run / "analysis.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _parse_record(path, text):
    # Integers are read as floats, so that one too large for a float reads
    # as inf and fails its check instead of overflowing in it.
    try:
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _check_value(path, name, stored, value, tolerance, line=None):
    if (isinstance(stored, bool) or not isinstance(stored, (int, float))
            or not abs(stored - value) <= tolerance):
        where = name if line is None else f"line {line} {name}"
        raise ValueError(f"{path}: {where} is {stored!r}, the snapshots give {value!r}")


def _audit_records(run: Path, columns: list, rows: np.ndarray, tolerance: float):
    """Check summary.json and entropy.jsonl against _records of the
    recomputed series rows, field by field; a count is checked exactly.

    steps.csv is not read: it costs more to read than the rest of the audit
    on long or finely sampled runs.
    """
    reports, fields = _records(columns, rows)
    path = run / "summary.json"
    summary = _parse_record(path, path.read_text())
    if not isinstance(summary, dict) or summary.get("schema") != SUMMARY_SCHEMA:
        raise ValueError(f"{path}: not a {SUMMARY_SCHEMA} object")
    # An aborted run's last step need not be a snapshot.
    if summary.get("termination") != "aborted":
        fields["energy_final"] = rows[-1, columns.index("E")].item()
    for name, value in fields.items():
        stored, tol = summary.get(name), 0.0 if isinstance(value, int) else tolerance
        if not isinstance(value, list):
            _check_value(path, name, stored, value, tol)
        elif not (isinstance(stored, list) and len(stored) == len(value)):
            raise ValueError(f"{path}: {name} needs {len(value)} entries")
        else:
            for j, (s, v) in enumerate(zip(stored, value)):
                _check_value(path, f"{name}[{j}]", s, v, tolerance)

    path = run / "entropy.jsonl"
    lines = path.read_text().splitlines()
    if not lines or _parse_record(path, lines[0]) != {"schema": ms.ENTROPY_SCHEMA}:
        raise ValueError(f"{path}: the first line must be the {ms.ENTROPY_SCHEMA} header")
    if len(lines) - 1 != len(reports):
        raise ValueError(f"{path}: {len(lines) - 1} reports for {len(rows)} snapshots")
    for k, (line, want) in enumerate(zip(lines[1:], reports)):
        report = _parse_record(path, line)
        if not isinstance(report, dict) or report.keys() != want.keys():
            raise ValueError(f"{path}: line {k + 2} must hold exactly {sorted(want)}")
        for name, value in want.items():
            _check_value(path, name, report[name], value, tolerance, line=k + 2)


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
    variants = raw.get("variants")
    if not isinstance(variants, list) or not variants:
        raise ConfigError("must be a non-empty list", "variants")
    payloads = []
    seen = set()
    for i, var in enumerate(variants):
        if not isinstance(var, dict) or "name" not in var:
            raise ConfigError("each variant needs a 'name'", f"variants[{i}]")
        name = var["name"]
        if not isinstance(name, str) or not name or "/" in name or name in seen:
            raise ConfigError(f"bad or duplicate name {name!r}", f"variants[{i}].name")
        seen.add(name)
        overrides = {k: v for k, v in var.items() if k != "name"}
        merged = _deep_merge(base, overrides)
        try:
            _initial_state(config_from_dict(merged))
        except ConfigError as exc:
            raise ConfigError(str(exc), f"variants[{i}] ({name})") from exc
        payloads.append((name, merged, str(Path(out_root) / name)))
    if jobs > 1:
        # Only parallel sweeps load the process pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
                config.seed = _integer(args.seed, "seed", minimum=0)
            if args.out is None and config.output_dir is None:
                print("run: no output directory (--out or config output_dir)",
                      file=sys.stderr)
                return 2
            result = run_experiment(config, args.out)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
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
            status = ("ok" if info["within_tolerance"]
                      else "MISMATCH") if info["audited"] else "echoed"
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
