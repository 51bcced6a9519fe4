import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moduliflow import cli as cli_module, flow as flow_module, measures as measures_module, table
from moduliflow.cli import (
    ConfigError,
    FlowConfig,
    analyze_run,
    compute_snapshot_diagnostics,
    config_from_dict,
    emit_config,
    main,
    parse_config,
    run_experiment,
    run_sweep,
)
from moduliflow.flow import V_FLOOR, MapState, write_snapshot
from moduliflow.hyperbolic import FundamentalDomainBinning
from moduliflow.measures import measure_rows, pushforward, reference_measure, time_average
from moduliflow.mesh import DomainGrid
from moduliflow.testfunctions import BumpFunction
from oracles import reference_steps, stepping_record_problem, weak_star_pairing

FAST_OVERRIDES = {
    "grid": {"n1": 16, "n2": 16},
    "t_final": 0.1,
    "snapshot_interval": 0.05,
    "binning": {"n_x": 12, "n_y": 12, "y_max": 4.0},
}


def _fast_config(**extra) -> FlowConfig:
    raw = dict(FAST_OVERRIDES)
    raw.update(extra)
    return config_from_dict(raw)


def _save(path, fields, **kwargs):
    with open(path, "wb") as fh:
        np.save(fh, fields, **kwargs)


def _resaved(edit):
    """Rewrite a state file with its array edited: a (2, n1, n2) state or an
    (S, 2, n1, n2) stack of states."""
    def apply(path):
        fields = np.load(path)
        _save(path, edit(fields.copy()))
    return apply


def _cut(stop):
    def apply(path):
        path.write_bytes(path.read_bytes()[:stop])
    return apply


def _set(index, value):
    def edit(fields):
        fields[index] = value
        return fields
    return _resaved(edit)


# Ways to damage a state file that its reader must reject, naming the file.
# The edits index from the last axis, so that they damage a state and every
# state of a stack alike.
DAMAGED_STATES = {
    "empty": _cut(0),
    "truncated_header": _cut(64),
    "truncated_data": _cut(-8),
    "pickled": lambda path: _save(path, np.array([np.load(path), "x"], dtype=object),
                                  allow_pickle=True),
    "float32": _resaved(lambda f: f.astype(np.float32)),
    "big_endian": _resaved(lambda f: f.astype(">f8")),
    "fortran_order": _resaved(np.asfortranarray),
    "wrong_shape": _resaved(lambda f: f[..., :-1]),
    "nan": _set((..., 0, 1, 2), np.nan),
    "inf": _set((..., 1, 2, 3), np.inf),
    "v_at_floor": _set((..., 1, 0, 0), V_FLOOR),
}


GOOD_TF = {"center": [0.0, 1.5], "radii": [0.3, 0.3]}


def _tf(**fields):
    return {"test_functions": [dict(GOOD_TF, **fields)]}


# Each bad config, one fault apiece, and the exact ConfigError line it gives.
CONFIG_ERRORS = [
    ([], 'config must be a JSON object'),
    ({"viscosity": 1.0}, "viscosity: unknown key 'viscosity'"),
    ({"grid": 8}, 'grid: must be an object'),
    ({"grid": {"n1": 8, "n3": 8}}, "grid.n3: unknown key 'n3'"),
    ({"grid": {"n1": 3}}, 'grid.n1: must be at least 4, got 3'),
    ({"grid": {"n2": 3}}, 'grid.n2: must be at least 4, got 3'),
    ({"grid": {"n1": 8.0}}, 'grid.n1: expected an integer, got 8.0'),
    ({"grid": {"n2": True}}, 'grid.n2: expected an integer, got True'),
    ({"binning": []}, 'binning: must be an object'),
    ({"binning": {"bins": 3}}, "binning.bins: unknown key 'bins'"),
    ({"binning": {"n_x": 1}}, 'binning.n_x: must be at least 2, got 1'),
    ({"binning": {"n_y": 1}}, 'binning.n_y: must be at least 2, got 1'),
    ({"binning": {"n_x": False}}, 'binning.n_x: expected an integer, got False'),
    ({"binning": {"y_max": 1.0}}, 'binning.y_max: must exceed 1, got 1.0'),
    ({"binning": {"y_max": 0.0}}, 'binning.y_max: must be positive, got 0.0'),
    ({"binning": {"y_max": "10"}}, "binning.y_max: expected a number, got '10'"),
    ({"binning": {"y_max": math.inf}}, 'binning.y_max: must be finite'),
    ({"t_final": 0.0}, 't_final: must be positive, got 0.0'),
    ({"t_final": True}, 't_final: expected a number, got True'),
    ({"t_final": math.nan}, 't_final: must be finite'),
    ({"snapshot_interval": 0}, 'snapshot_interval: must be positive, got 0.0'),
    ({"cfl_safety": 0.0}, 'cfl_safety: must be positive, got 0.0'),
    ({"cfl_safety": 1.0000000000000002},
     'cfl_safety: must be at most 1.0, got 1.0000000000000002'),
    ({"cfl_safety": [0.5]}, 'cfl_safety: expected a number, got [0.5]'),
    ({"dt_floor": 0.0}, 'dt_floor: must be positive, got 0.0'),
    ({"stall_threshold": -5e-324}, 'stall_threshold: must be nonnegative, got -5e-324'),
    ({"stall_threshold": "0"}, "stall_threshold: expected a number, got '0'"),
    ({"density_threshold": 1.0}, 'density_threshold: must exceed 1, got 1.0'),
    ({"density_threshold": -3}, 'density_threshold: must exceed 1, got -3.0'),
    ({"density_threshold": None}, 'density_threshold: expected a number, got None'),
    ({"jacobian_threshold": 0.0}, 'jacobian_threshold: must be positive, got 0.0'),
    ({"seed": -1}, 'seed: must be at least 0, got -1'),
    ({"seed": 1.5}, 'seed: expected an integer, got 1.5'),
    ({"seed": True}, 'seed: expected an integer, got True'),
    ({"output_dir": 3}, 'output_dir: must be a string or null'),
    ({"initial": "sinusoidal"}, 'initial: must be an object'),
    ({"initial": {"kind": "mystery"}},
     "initial.kind: unknown kind 'mystery'; expected one of "
     "['constant', 'file', 'random', 'sinusoidal', 'winding']"),
    ({"initial": {"kind": "constant", "amp_u": 1.0}},
     "initial.amp_u: unknown field 'amp_u' for initial kind 'constant'"),
    ({"initial": {"kind": "winding", "k": 1.5}}, 'initial.k: expected an integer, got 1.5'),
    ({"test_functions": []}, 'test_functions: must be a non-empty list'),
    ({"test_functions": GOOD_TF}, 'test_functions: must be a non-empty list'),
    ({"test_functions": [3]}, 'test_functions[0]: must be an object'),
    (_tf(width=1.0), "test_functions[0].width: unknown key 'width'"),
    ({"test_functions": [{"radii": [0.3, 0.3]}]},
     'test_functions[0].center: expected a pair [x, y]'),
    (_tf(center=[0.0, 1.5, 2.0]), 'test_functions[0].center: expected a pair [x, y]'),
    (_tf(center=["0", 1.5]), "test_functions[0].center[0]: expected a number, got '0'"),
    (_tf(center=[0.0, True]), 'test_functions[0].center[1]: expected a number, got True'),
    (_tf(radii=0.3), 'test_functions[0].radii: expected a pair [x, y]'),
    (_tf(radii=[0.0, 0.3]), 'test_functions[0].radii[0]: must be positive, got 0.0'),
    (_tf(radii=[0.3, -0.1]), 'test_functions[0].radii[1]: must be positive, got -0.1'),
    (_tf(radii=[0.3, math.nan]), 'test_functions[0].radii[1]: must be finite'),
    (_tf(amplitude="1"), "test_functions[0].amplitude: expected a number, got '1'"),
    (_tf(amplitude=-math.inf), 'test_functions[0].amplitude: must be finite'),
    ({"test_functions": [GOOD_TF, dict(GOOD_TF, radii=[0.3])]},
     'test_functions[1].radii: expected a pair [x, y]'),
]


class TestConfigParsing:
    def test_empty_object_gives_defaults(self):
        cfg = parse_config("{}")
        assert cfg.grid.n1 == 64 and cfg.grid.n2 == 64
        assert cfg.t_final == 1.0 and cfg.snapshot_interval == 0.05
        assert cfg.cfl_safety == 0.5
        assert cfg.initial == {"kind": "sinusoidal"}
        assert cfg.binning.n_x == 60 and cfg.binning.y_max == 10.0
        assert len(cfg.test_functions) == 2
        assert cfg.seed == 0 and cfg.output_dir is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="viscosity"):
            config_from_dict({"viscosity": 1.0})

    def test_unknown_nested_key_reports_dotted_path(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"grid": {"n1": 8, "n3": 8}})
        assert "grid.n3" in str(info.value)

    def test_shallow_y_max_is_rejected_by_name(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"binning": {"y_max": 0.5}})
        assert "binning.y_max" in str(info.value)

    def test_cfl_safety_cap(self):
        with pytest.raises(ConfigError, match="cfl_safety"):
            config_from_dict({"cfl_safety": 1.5})

    def test_density_threshold_must_exceed_one(self):
        with pytest.raises(ConfigError, match="density_threshold"):
            config_from_dict({"density_threshold": 1.0})

    def test_initial_kind_and_fields(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"initial": {"kind": "mystery"}})
        assert "initial.kind" in str(info.value)
        with pytest.raises(ConfigError) as info:
            config_from_dict({"initial": {"kind": "constant", "amp_u": 1.0}})
        assert "initial" in str(info.value)

    def test_unhashable_initial_kind_is_rejected_by_name(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"initial": {"kind": ["constant"]}})
        assert "initial.kind" in str(info.value)

    def test_test_function_validation(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"test_functions": [{"center": [0, 1.5]}]})
        assert "test_functions[0]" in str(info.value)
        with pytest.raises(ConfigError):
            config_from_dict(
                {"test_functions": [{"center": [0, 1.5], "radii": [0.3]}]}
            )
        with pytest.raises(ConfigError):
            config_from_dict(
                {"test_functions": [{"center": [0, 1.5], "radii": [0.3, -0.1]}]}
            )
        with pytest.raises(ConfigError):
            config_from_dict({"test_functions": []})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match="t_final"):
            config_from_dict({"t_final": True})

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 2"):
            parse_config('{\n  "t_final": ,\n}')

    @pytest.mark.parametrize("raw, line", CONFIG_ERRORS)
    def test_each_bad_config_gives_its_error_line(self, raw, line):
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value) == line
        # The line is "<path>: <message>", or the message alone at the top.
        assert info.value.path == (line.split(": ", 1)[0] if ": " in line else "")

    def test_emit_parse_round_trip(self):
        cfg = _fast_config(seed=11, initial={"kind": "winding", "k": 2})
        again = parse_config(emit_config(cfg))
        assert again.to_dict() == cfg.to_dict()
        assert emit_config(again) == emit_config(cfg)


class TestRunExperiment:
    def test_layout_and_summary(self, tmp_path):
        result = run_experiment(_fast_config(), tmp_path / "run")
        out = result.out_dir
        assert sorted(p.name for p in out.iterdir()) == [
            "config.json", "measures", "series.csv", "snapshots", "steps.npy", "summary.json"]
        snaps = result.trajectory.snapshots
        states = sum(k == 0 or s.fields is not snaps[k - 1].fields for k, s in enumerate(snaps))
        assert sorted(p.name for p in (out / "snapshots").iterdir()) == ["states.npy"]
        assert np.load(out / "snapshots" / "states.npy").shape == (states, 2, 16, 16)
        assert sorted(p.name for p in (out / "measures").iterdir()) == ["pushforwards.npy"]
        rows = np.load(out / "measures" / "pushforwards.npy")
        assert rows.shape[1] == 3 and np.array_equal(np.unique(rows[:, 0]), np.arange(states))
        assert result.summary["termination"] in ("t_final", "stalled")
        assert result.summary["monotonicity_violations"] == 0
        assert not result.aborted
        # Echoed config re-parses to the same object.
        again = parse_config((out / "config.json").read_text())
        assert again.to_dict() == result.config.to_dict()

    def test_series_is_deterministic_bytes(self, tmp_path):
        cfg = _fast_config(initial={"kind": "random", "v0": 1.4}, seed=5)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(config_from_dict(json.loads(
            json.dumps(cfg.to_dict()))), tmp_path / "b")
        assert ((tmp_path / "a" / "series.csv").read_bytes()
                == (tmp_path / "b" / "series.csv").read_bytes())
        for name in ("snapshots/states.npy", "measures/pushforwards.npy"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert a.summary["energy_final"] == b.summary["energy_final"]

    def test_constant_map_run(self, tmp_path):
        cfg = _fast_config(initial={"kind": "constant", "u0": 0.1, "v0": 1.3})
        result = run_experiment(cfg, tmp_path / "run")
        cols = result.series_columns
        e_col = cols.index("E")
        h_col = cols.index("H")
        erg_col = cols.index("ergodic_err_0")
        rows = result.series_rows
        assert len(rows) == 3  # t = 0, 0.05, 0.1
        assert all(r[e_col] == 0.0 for r in rows)
        # Stationary trajectory: entropy and ergodic error are frozen too.
        assert len({r[h_col] for r in rows}) == 1
        spread = max(r[erg_col] for r in rows) - min(r[erg_col] for r in rows)
        assert spread <= 1e-14
        assert result.summary["termination"] == "stalled"
        assert result.summary["t_end"] == pytest.approx(0.1, abs=1e-14)
        assert result.summary["accepted_steps"] == 0
        assert result.summary["energy_identity_rel_gap"] == 0.0

    def test_energy_identity_on_default_physics(self, tmp_path):
        cfg = _fast_config(t_final=0.3)
        result = run_experiment(cfg, tmp_path / "run")
        assert result.summary["energy_identity_rel_gap"] <= 0.02

    def test_measures_and_ergodic_columns_follow_the_snapshots(self, tmp_path):
        cfg = _fast_config(snapshot_interval=0.02)
        result = run_experiment(cfg, tmp_path / "run")
        binning = FundamentalDomainBinning(12, 12, 4.0)
        snaps = result.trajectory.snapshots
        mus = [pushforward(s, binning) for s in snaps]
        assert len(mus) >= 3
        measures = tmp_path / "run" / "measures"
        # Each snapshot's pushforward is stored as its state's rows.
        rows = np.load(measures / "pushforwards.npy")
        state = np.cumsum([k == 0 or s.fields is not snaps[k - 1].fields
                           for k, s in enumerate(snaps)]) - 1
        for k, mu in enumerate(mus):
            bins, masses = rows[rows[:, 0] == state[k], 1:].T
            stored = np.zeros_like(mu.masses)
            stored[bins.astype(int)] = masses
            assert stored.tobytes() == mu.masses.tobytes()
        nu = reference_measure(mus[0].binning)
        for j, tf in enumerate(cfg.test_functions):
            f = BumpFunction(tf["center"], tf["radii"], tf["amplitude"])
            target = weak_star_pairing(nu, f)
            want = [abs(weak_star_pairing(mus[0], f) - target)] + [
                abs(weak_star_pairing(time_average(mus[: k + 1]), f) - target)
                for k in range(1, len(mus))
            ]
            assert result.series_rows[:, result.series_columns.index(
                f"ergodic_err_{j}")].tolist() == want

    def test_run_and_analyze_each_walk_the_time_average_once(self, tmp_path, monkeypatch):
        # The ergodic columns walk every prefix average, and nothing else
        # walks the series: no time average is stored or audited apart.
        walks = []
        inner = measures_module.MeasureSeries.prefix_averages

        def counted(series):
            walks.append(len(series))
            return inner(series)

        monkeypatch.setattr(measures_module.MeasureSeries, "prefix_averages", counted)
        result = run_experiment(_fast_config(snapshot_interval=0.02), tmp_path / "run")
        count = result.summary["snapshot_count"]
        assert count > 2 and walks == [count]
        walks.clear()
        assert analyze_run(tmp_path / "run")["pass"] is True
        assert walks == [count]

    def test_aborted_run_keeps_partial_output(self, tmp_path):
        cfg = _fast_config(dt_floor=1.0)
        result = run_experiment(cfg, tmp_path / "run")
        assert result.aborted
        assert result.summary["termination"] == "aborted"
        assert (result.out_dir / "series.csv").is_file()
        assert result.summary["snapshot_count"] >= 1


class TestAnalyzeRun:
    def test_recompute_matches_stored_series(self, tmp_path):
        run_experiment(_fast_config(seed=3), tmp_path / "run")
        report = analyze_run(tmp_path / "run")
        assert report["pass"] is True
        assert report["max_abs_diff"] <= 1e-12
        # Every column is recomputed, the stepping columns from steps.npy.
        assert list(report["columns"]) == cli_module._series_columns(_fast_config())
        assert all(c["within_tolerance"] for c in report["columns"].values())
        assert (tmp_path / "run" / "series_recomputed.csv").is_file()
        assert (tmp_path / "run" / "analysis.json").is_file()

    def test_nan_in_an_audited_column_fails(self, tmp_path):
        run_experiment(_fast_config(), tmp_path / "run")
        series = tmp_path / "run" / "series.csv"
        lines = series.read_text().splitlines()
        h_col = lines[1].split(",").index("H")
        last = lines[-1].split(",")
        last[h_col] = "nan"
        lines[-1] = ",".join(last)
        series.write_text("\n".join(lines) + "\n")
        report = analyze_run(tmp_path / "run")
        assert report["pass"] is False
        assert report["columns"]["H"]["within_tolerance"] is False

    def test_aborted_run_whose_last_step_is_no_snapshot_passes(self, tmp_path):
        # energy_final belongs to the last step, which no snapshot records.
        result = run_experiment(_fast_config(dt_floor=1e-4), tmp_path / "run")
        assert result.aborted and result.summary["accepted_steps"] > 0
        assert result.summary["snapshot_count"] == 1
        assert result.summary["energy_final"] != result.summary["energy_initial"]
        assert analyze_run(tmp_path / "run")["pass"] is True

    def test_an_edited_state_is_a_mismatch_of_its_snapshots(self, tmp_path, capsys):
        # State 1 is snapshot 1's alone; the records name no row but the first
        # and the last, so the series audit is what catches the edit.
        run_experiment(_fast_config(), tmp_path / "run")
        path = tmp_path / "run" / "snapshots" / "states.npy"
        states = np.load(path)
        states[1, 0, 0, 1] += 1e-3  # too little to move the node to another bin
        _save(path, states)
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert err == "" and "analysis FAIL" in out
        assert any(line.startswith("E: ") and line.endswith("[MISMATCH]")
                   for line in out.splitlines())

    def test_tampered_series_fails(self, tmp_path):
        run_experiment(_fast_config(), tmp_path / "run")
        series = tmp_path / "run" / "series.csv"
        lines = series.read_text().splitlines()
        head, cols, first = lines[0], lines[1], lines[2].split(",")
        first[cols.split(",").index("H")] = repr(float(first[1]) + 1.0)
        lines[2] = ",".join(first)
        series.write_text("\n".join(lines) + "\n")
        report = analyze_run(tmp_path / "run")
        assert report["pass"] is False
        assert report["columns"]["H"]["within_tolerance"] is False


class TestMeasureAudit:
    """analyze reads pushforwards.npy and compares it bit for bit with the
    pushforwards it recomputes from the snapshots; it refuses a stored
    time average, which the older layout kept beside it."""

    @pytest.mark.parametrize("edit", ["mass", "time_average", "deleted", "added"])
    def test_a_measure_file_that_is_not_the_recomputed_one_exits_2(
            self, tmp_path, capsys, edit):
        run = tmp_path / "run"
        run_experiment(_fast_config(snapshot_interval=0.02), run)
        path = run / "measures" / "pushforwards.npy"
        if edit == "deleted":
            path.unlink()
        elif edit == "time_average":  # the seventh file of the older layout
            path = run / "measures" / "time_average.csv"
            path.write_text("# schema: moduliflow-measure-v2\nn_x,n_y,y_max,t\n"
                            "12,12,4.0,0.1\nbin,mass\n0,1.0\n")
        else:
            rows = np.load(path)
            if edit == "mass":  # the largest mass of state 1
                of_1 = np.flatnonzero(rows[:, 0] == 1)
                k = of_1[np.argmax(rows[of_1, 2])]
                rows[k, 2] *= 1.0 + 1e-15
            else:  # a state more than the run has
                rows = np.vstack([rows, [rows[-1, 0] + 1, 0.0, 1.0]])
            _save(path, rows)
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert str(path) in err and len(err.splitlines()) == 1
        if edit == "time_average":
            assert err == (f"analyze: cannot audit {run}: {path}: the run uses the stored "
                           "time average moduliflow-measure-v2, which this version does not "
                           "read\n")
        elif edit != "deleted":
            state = 1 if edit == "mass" else int(rows[-2, 0])
            assert f"the recomputed pushforward of state {state}\n" in err

    def test_the_audit_reads_every_measure_file_on_one_binning(self, tmp_path, monkeypatch):
        run_experiment(_fast_config(snapshot_interval=0.02), tmp_path / "run")
        built = []

        def counted(*args):
            built.append(args)
            return FundamentalDomainBinning(*args)

        for module in (cli_module, measures_module):
            monkeypatch.setattr(module, "FundamentalDomainBinning", counted)
        assert analyze_run(tmp_path / "run")["pass"] is True
        assert built == [(12, 12, 4.0)]


class TestFrozenSnapshots:
    """A stalled run: its frozen snapshots share the stalled state's fields,
    so run and analyze measure, write and read each distinct state once."""

    @staticmethod
    def _stalled_run(tmp_path):
        result = run_experiment(_fast_config(t_final=0.4), tmp_path / "run")
        snaps = result.trajectory.snapshots
        firsts = [k for k, s in enumerate(snaps)
                  if k == 0 or s.fields is not snaps[k - 1].fields]
        assert result.summary["termination"] == "stalled"
        assert 1 < len(firsts) < len(snaps) - 1  # at least two frozen repeats
        return result, firsts

    @staticmethod
    def _count_calls(monkeypatch, module, name, calls):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def test_each_distinct_state_is_measured_once(self, tmp_path, monkeypatch):
        calls = {}
        self._count_calls(monkeypatch, measures_module, "pushforward", calls)
        result, firsts = self._stalled_run(tmp_path)
        # run_flow makes edge passes of its own, so edge passes are counted on
        # one more diagnostic pass alone, which takes E and D as given and
        # makes none; pushforwards on the run and that pass.  analyze makes
        # one edge pass per distinct state.
        self._count_calls(monkeypatch, flow_module, "_edge_pass", calls)
        traj = result.trajectory
        rows = traj.snapshot_rows
        state = flow_module.state_numbers(traj.dissipation[rows], result.config.stall_threshold)
        compute_snapshot_diagnostics(result.config, traj.snapshots, state,
                                     traj.energy[rows], traj.dissipation[rows],
                                     traj.cumulative_dissipation[rows], traj.dt_used[rows])
        assert calls == {"pushforward": 2 * len(firsts)}
        calls.clear()
        assert analyze_run(tmp_path / "run")["pass"] is True
        assert calls == {"pushforward": len(firsts), "_edge_pass": len(firsts)}

    @pytest.mark.parametrize("reject", [(), (5, 6, 40)])
    def test_run_makes_an_edge_pass_per_candidate_state_alone(self, tmp_path, monkeypatch,
                                                               reject):
        # A run that neither stalls nor has a step leave the target makes one
        # pass for its initial state and one per accepted or rejected
        # candidate (here the candidates of the passes in reject, rejected
        # after their pass), and none for the series, whose E and D are the
        # steps'.
        edge_pass, passes = flow_module._edge_pass, []

        def counted(state, ws, tau=None):
            result = edge_pass(state, ws, tau)
            passes.append(state.t)
            if len(passes) - 1 in reject:
                raise flow_module.StepRejectedError("rejected by the test")
            return result

        monkeypatch.setattr(flow_module, "_edge_pass", counted)
        result = run_experiment(_fast_config(), tmp_path / "run")
        traj = result.trajectory
        assert result.summary["termination"] == "t_final"
        assert traj.rejected_steps == len(reject)
        assert len(passes) == len(traj.steps) + traj.rejected_steps
        assert np.array_equal(result.series_rows[:, 1:3], traj.steps[traj.snapshot_rows, 1:3])

    # A stalled, a finished, an aborted and a constant-map run.
    RUNS = [
        ({"t_final": 0.4}, "stalled"), ({}, "t_final"),
        ({"snapshot_interval": 0.003, "dt_floor": 1e-4}, "aborted"),
        ({"initial": {"kind": "constant"}}, "stalled"),
    ]

    @pytest.mark.parametrize("extra, termination", RUNS)
    def test_the_state_rule_follows_run_flows_sharing(self, tmp_path, extra, termination):
        # A snapshot shares its predecessor's fields exactly where the steps'
        # D at the predecessor is under the stall threshold.
        result = run_experiment(_fast_config(**extra), tmp_path / "run")
        traj = result.trajectory
        snaps = traj.snapshots
        state = flow_module.state_numbers(traj.dissipation[traj.snapshot_rows],
                                          result.config.stall_threshold)
        assert result.summary["termination"] == termination and len(snaps) > 2
        assert state[0] == 0 and [state[k] == state[k - 1] for k in range(1, len(snaps))] == [
            snaps[k].fields is snaps[k - 1].fields for k in range(1, len(snaps))]

    @pytest.mark.parametrize("extra, termination", RUNS)
    def test_the_stepping_fields_follow_run_flow(self, extra, termination):
        # What flow derives from the rows is what run_flow did: it aborts
        # exactly when it raised, stalls exactly when the oracle's loop took
        # a frozen step, and counts and sums as that loop does, bit for bit.
        config = _fast_config(**extra)
        params = flow_module.FlowParams(**{f.name: getattr(config, f.name)
                                           for f in dataclasses.fields(flow_module.FlowParams)})
        state = cli_module._initial_state(config)
        try:
            traj, raised = flow_module.run_flow(state, params), False
        except flow_module.AbortedRunError as exc:
            traj, raised = exc.trajectory, True
        reference = reference_steps(state, params)
        fields = flow_module.step_fields(traj.steps, params.t_final, params.stall_threshold)
        assert traj.steps.tobytes() == reference["rows"].tobytes()
        assert fields["termination"] == termination
        assert (fields["termination"] == "aborted") == raised
        assert (fields["termination"] == "stalled") == (reference["termination"] == "stalled")
        assert fields["accepted_steps"] == reference["accepted"]
        assert traj.cumulative_dissipation.tobytes() == reference["cumulative"].tobytes()
        assert fields["dissipation_integral"] == reference["cumulative"][-1]

    def test_files_equal_those_written_one_by_one(self, tmp_path):
        # states.npy holds each distinct state once, as np.save writes the
        # stack of their fields; pushforwards.npy holds, for each state, the
        # bin and mass rows of the pushforward of each of its snapshots alone.
        result, firsts = self._stalled_run(tmp_path)
        out, stack = tmp_path / "run", tmp_path / "stack.npy"
        snaps = result.trajectory.snapshots
        np.save(stack, np.stack([snaps[k].fields for k in firsts]))
        assert (out / "snapshots" / "states.npy").read_bytes() == stack.read_bytes()
        binning = FundamentalDomainBinning(12, 12, 4.0)
        rows = np.load(out / "measures" / "pushforwards.npy")
        assert np.array_equal(np.unique(rows[:, 0]), np.arange(len(firsts)))
        for k, snap in enumerate(snaps):
            alone = measure_rows([pushforward(snap, binning)])[:, 1:]
            state = sum(f <= k for f in firsts) - 1
            assert rows[rows[:, 0] == state, 1:].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("edit", ["u", "t"])
    def test_an_edited_frozen_snapshot_fails_the_audit(self, tmp_path, capsys, edit):
        _, firsts = self._stalled_run(tmp_path)
        # A frozen snapshot followed by another copy of the same state.
        k = firsts[-1] + 1
        snapshots = tmp_path / "run" / "snapshots"
        if edit == "u":
            # The stalled state, which this snapshot and the ones after it share.
            path = snapshots / "states.npy"
            states = np.load(path)
            states[len(firsts) - 1, 0, 0, 1] += 1e-3
            _save(path, states)
        else:  # its time, the t column of series.csv
            series = tmp_path / "run" / "series.csv"
            lines = series.read_text().splitlines()
            row = lines[2 + k].split(",")
            row[0] = repr(float(row[0]) + 1e-9)
            lines[2 + k] = ",".join(row)
            series.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        if edit == "u":
            # The snapshots of the stalled state no longer have the energy
            # that the series and the steps record.
            assert err == "" and "analysis FAIL" in out
            assert any(line.startswith("E: ") and line.endswith("[MISMATCH]")
                       for line in out.splitlines())
        else:
            # The steps were recorded at the snapshot's true time.
            assert f"steps.npy: no row at t = {float(row[0])!r}, the time of snapshot {k}" in err
            assert len(err.splitlines()) == 1


class TestRunFiles:
    """run writes exactly the files of its run directory's file list, and
    analyze requires exactly those."""

    def test_a_run_of_more_than_9999_snapshots_passes_analyze(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(
            FAST_OVERRIDES, grid={"n1": 4, "n2": 4}, t_final=1.0,
            snapshot_interval=1e-4, initial={"kind": "constant"},
        )))
        run = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 0
        # A constant map is one state, frozen for all 10 001 snapshots: one
        # state and one group of pushforward rows.
        series = (run / "series.csv").read_text().splitlines()
        assert len(series) == 2 + 10001 and series[-1].startswith("1.0,")
        assert np.load(run / "snapshots" / "states.npy").shape == (1, 2, 4, 4)
        assert (np.load(run / "measures" / "pushforwards.npy")[:, 0] == 0).all()
        assert main(["analyze", "--run", str(run)]) == 0
        assert "analysis PASS" in capsys.readouterr().out

    def test_the_file_list_is_fixed(self, tmp_path):
        assert cli_module._run_files(tmp_path) == {tmp_path / "snapshots": ["states.npy"],
                                                   tmp_path / "measures": ["pushforwards.npy"]}

    @pytest.mark.parametrize("edit", ["extra", "deleted"])
    def test_a_file_off_the_list_exits_2_naming_it(self, tmp_path, capsys, edit):
        run_experiment(_fast_config(), tmp_path / "run")
        snapshots = tmp_path / "run" / "snapshots"
        if edit == "extra":
            path = snapshots / "notes.txt"
            path.write_text("kept by hand\n")
        else:
            path = snapshots / "states.npy"
            path.unlink()
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert str(path) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "run" / "analysis.json").exists()


def _damaged(data, raw: bytes, edit: str, head: int = 4) -> bytes:
    """raw truncated at a drawn byte, with a drawn byte XOR-ed, or with a
    drawn data row (a line after the first head lines) dropped."""
    if edit == "drop":
        lines = raw.splitlines(keepends=True)
        del lines[data.draw(st.integers(head, len(lines) - 1))]
        return b"".join(lines)
    at = data.draw(st.integers(0, len(raw) - 1))
    if edit == "truncate":
        return raw[:at]
    return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]


@pytest.fixture(scope="module")
def stalled_run(tmp_path_factory):
    """A small stalled run directory and its ExperimentResult.  A test that
    damages one of its files restores it."""
    run = tmp_path_factory.mktemp("stalled") / "run"
    return run, run_experiment(_fast_config(t_final=0.4), run)


class TestDamagedTables:
    """A damaged series, steps, states or pushforwards file fails closed:
    its reader raises a ValueError that starts with the path, or returns a
    value that passes the reader's checks, as when a flip lands in a digit
    of t.  A dropped row or state always raises: the rows no longer count
    the snapshots or states, keep the stepping rules or equal the
    recomputed pushforwards."""

    EDITS = st.sampled_from(["truncate", "flip", "drop"])

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_damaged_series_fails_the_audit(self, data, stalled_run):
        # The audit passes a damaged series only where every value stays
        # within the tolerance: each column is recomputed, cumulative_D and
        # dt from steps.npy.
        run, result = stalled_run
        path = run / "series.csv"
        raw = path.read_bytes()
        edit = data.draw(self.EDITS)
        path.write_bytes(_damaged(data, raw, edit, head=2))
        try:
            report = analyze_run(run)
            assert edit != "drop"
            if report["pass"]:
                stored = table.read_table(path, cli_module.SERIES_SCHEMA,
                                             list(report["columns"]))
                moved = np.abs(stored - result.series_rows).max(axis=0)
                assert (moved <= report["tolerance"]).all()
        except ValueError as exc:
            assert str(exc).startswith(f"{run}{os.sep}")
        finally:
            path.write_bytes(raw)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_damaged_steps_file_fails_the_audit(self, data, stalled_run):
        # A damaged steps.npy passes only where its array still keeps every
        # rule of the stepping record, as a flip in an E off the snapshots may.
        run, result = stalled_run
        path = run / "steps.npy"
        raw = path.read_bytes()
        steps = result.trajectory.steps
        edit = data.draw(self.EDITS)
        if edit == "drop":
            _save(path, np.delete(steps, data.draw(st.integers(0, len(steps) - 1)), axis=0))
        else:
            path.write_bytes(_damaged(data, raw, edit))
        try:
            report = analyze_run(run)
            assert edit != "drop"
            if report["pass"]:
                with open(path, "rb") as fh:
                    damaged = np.load(fh, allow_pickle=False)
                summary = json.loads((run / "summary.json").read_text())
                assert stepping_record_problem(
                    damaged, result.config.stall_threshold, result.config.t_final, summary,
                    result.series_rows.tolist(), report["tolerance"]) is None
        except ValueError as exc:
            assert str(exc).startswith(f"{run}{os.sep}")
        finally:
            path.write_bytes(raw)

    # np.load parses a flipped header with ast, which may warn about it; a
    # flip in an exponent may leave finite values whose diagnostics overflow.
    @pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_damaged_states_file_fails_the_audit(self, data, stalled_run):
        # A damaged states.npy passes only where the series recomputed from
        # it stays within the tolerance of the stored one, as a flip in a
        # low mantissa bit of a state may.
        run, result = stalled_run
        path = run / "snapshots" / "states.npy"
        raw = path.read_bytes()
        edit = data.draw(self.EDITS)
        if edit == "drop":
            states = np.load(path)
            _save(path, np.delete(states, data.draw(st.integers(0, len(states) - 1)), axis=0))
        else:
            path.write_bytes(_damaged(data, raw, edit))
        try:
            report = analyze_run(run)
            assert edit != "drop"
            if report["pass"]:
                recomputed = table.read_table(run / "series_recomputed.csv",
                                                 cli_module.SERIES_SCHEMA,
                                                 list(report["columns"]))
                moved = np.abs(recomputed - result.series_rows).max(axis=0)
                assert (moved <= report["tolerance"]).all()
        except ValueError as exc:
            assert str(exc).startswith(f"{run}{os.sep}")
        finally:
            path.write_bytes(raw)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_damaged_pushforwards_file_fails_the_audit(self, data, stalled_run):
        # pushforwards.npy is compared byte for byte, so a damaged one passes
        # only where its array is unchanged, as after a flip in the header's
        # padding.
        run, _ = stalled_run
        path = run / "measures" / "pushforwards.npy"
        raw = path.read_bytes()
        rows = np.load(path)
        edit = data.draw(self.EDITS)
        if edit == "drop":
            _save(path, np.delete(rows, data.draw(st.integers(0, len(rows) - 1)), axis=0))
        else:
            path.write_bytes(_damaged(data, raw, edit))
        try:
            report = analyze_run(run)
            assert edit != "drop" and report["pass"]
            assert np.load(path).tobytes() == rows.tobytes()
        except ValueError as exc:
            assert str(exc).startswith(f"{run}{os.sep}")
        finally:
            path.write_bytes(raw)


@pytest.fixture(scope="module")
def tamper_runs(tmp_path_factory):
    """A stalled run, one that reaches t_final without stalling and an
    aborted one, for tests to copy and edit."""
    root = tmp_path_factory.mktemp("tamper")
    for name, extra in (("stalled", {"t_final": 0.4}), ("finished", {}),
                        ("aborted", {"dt_floor": 1e-4})):
        run_experiment(_fast_config(**extra), root / name)
    return root


class TestSteppingRecordAudit:
    """analyze checks steps.npy bit for bit against run_flow's rules, the
    stepping fields of summary.json against steps.npy, and the series'
    cumulative_D and dt against the steps at the snapshot times."""

    @staticmethod
    def _exits_2_naming(run, path, capsys):
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"analyze: cannot audit {run}: {path}: ")

    @staticmethod
    def _copies(tamper_runs, name, tmp_path):
        shutil.copytree(tamper_runs / name, tmp_path / "run")
        return tmp_path / "run"

    @pytest.mark.parametrize("name, field", [
        ("stalled", "t_end"), ("stalled", "accepted_steps"),
        ("stalled", "dissipation_integral"), ("stalled", "energy_identity_rel_gap"),
        ("stalled", "t_stall"),
        # The last step of this aborted run is no snapshot, so only the steps
        # give its energy.
        ("aborted", "energy_final"),
    ])
    def test_a_stepping_field_set_to_3x_plus_7_exits_2(self, tamper_runs, tmp_path, capsys,
                                                        name, field):
        run = self._copies(tamper_runs, name, tmp_path)
        path = run / "summary.json"
        summary = json.loads(path.read_text())
        summary[field] = 3 * summary[field] + 7
        path.write_text(json.dumps(summary))
        self._exits_2_naming(run, path, capsys)

    def test_a_stalled_run_said_to_reach_t_final_exits_2(self, tamper_runs, tmp_path, capsys):
        run = self._copies(tamper_runs, "stalled", tmp_path)
        path = run / "summary.json"
        summary = json.loads(path.read_text())
        assert summary["termination"] == "stalled"
        summary["termination"] = "t_final"
        path.write_text(json.dumps(summary))
        self._exits_2_naming(run, path, capsys)

    @pytest.mark.parametrize("name, said, expected", [
        ("finished", "aborted", "t_final"), ("aborted", "t_final", "aborted"),
        ("finished", "stalled", "t_final"), ("aborted", "stalled", "aborted"),
    ])
    def test_a_relabelled_termination_exits_2(self, tamper_runs, tmp_path, capsys, name,
                                              said, expected):
        # With no frozen step, the last row's t tells t_final from aborted.
        run = self._copies(tamper_runs, name, tmp_path)
        path = run / "summary.json"
        summary = json.loads(path.read_text())
        assert summary["termination"] == expected
        summary["termination"] = said
        path.write_text(json.dumps(summary))
        assert main(["analyze", "--run", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"analyze: cannot audit {run}: {path}: termination is {said!r}, "
            f"expected {expected!r}\n")

    @pytest.mark.parametrize("count, shown", [(22771, "22771"), (10**400, "inf")])
    def test_a_wrong_count_is_shown_as_an_integer(self, tamper_runs, tmp_path, capsys, count,
                                                   shown):
        # A count too large for a float reads as inf and fails as one.
        run = self._copies(tamper_runs, "stalled", tmp_path)
        path = run / "summary.json"
        summary = json.loads(path.read_text())
        want = summary["accepted_steps"]
        summary["accepted_steps"] = count
        path.write_text(json.dumps(summary))
        assert main(["analyze", "--run", str(run)]) == 2
        assert capsys.readouterr().err == (
            f"analyze: cannot audit {run}: {path}: accepted_steps is {shown}, "
            f"expected {want}\n")

    @pytest.mark.parametrize("edit", ["last_50_rows_dropped", "D", "dt"])
    def test_an_edited_steps_file_exits_2(self, tamper_runs, tmp_path, capsys, edit):
        run = self._copies(tamper_runs, "stalled", tmp_path)
        path = run / "steps.npy"
        steps = np.load(path)
        if edit == "last_50_rows_dropped":
            steps = steps[:-50]
        else:  # by one part in 1e9, in a row of an accepted step off the snapshots
            steps[len(steps) // 3, flow_module.STEP_COLUMNS.index(edit)] *= 1 + 1e-9
        _save(path, steps)
        # An edited D keeps every rule of the rows and moves the dissipation
        # integral, which summary.json holds.
        self._exits_2_naming(run, run / "summary.json" if edit == "D" else path, capsys)

    @pytest.mark.parametrize("column", ["E", "D"])
    def test_a_series_value_one_ulp_off_the_steps_exits_2(self, tamper_runs, tmp_path, capsys,
                                                          column):
        # Well within the tolerance of the recomputation from the snapshots.
        run = self._copies(tamper_runs, "stalled", tmp_path)
        path = run / "series.csv"
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        j = lines[1].split(",").index(column)
        row[j] = repr(float(np.nextafter(float(row[j]), np.inf)))
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        self._exits_2_naming(run, run / "steps.npy", capsys)

    def test_a_changed_series_dt_cell_is_a_mismatch(self, tamper_runs, tmp_path, capsys):
        run = self._copies(tamper_runs, "stalled", tmp_path)
        path = run / "series.csv"
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        j = lines[1].split(",").index("dt")
        row[j] = repr(3 * float(row[j]) + 7)
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert err == "" and "analysis FAIL" in out
        assert [line.split(":")[0] for line in out.splitlines()
                if line.endswith("[MISMATCH]")] == ["dt"]

    def test_the_intact_runs_pass_and_keep_the_oracles_rules(self, tamper_runs):
        for name in ("stalled", "finished", "aborted"):
            run = tamper_runs / name
            assert analyze_run(run)["pass"] is True
            config = parse_config((run / "config.json").read_text())
            series = table.read_table(run / "series.csv", cli_module.SERIES_SCHEMA,
                                         cli_module._series_columns(config))
            assert stepping_record_problem(
                np.load(run / "steps.npy"), config.stall_threshold, config.t_final,
                json.loads((run / "summary.json").read_text()), series.tolist(), 0.0) is None


class TestRecordsMirrorTheSeries:
    """The series-determined summary.json fields hold the series.csv values
    themselves, bit for bit."""

    FINAL_COLUMNS = {"entropy": "H", "rho_max": "rho_max", "tail_mass": "tail_mass",
                     "degenerate_fraction": "degenerate_fraction"}

    @pytest.mark.parametrize("extra, termination", [
        ({"t_final": 0.4}, "stalled"), ({"dt_floor": 1e-4}, "aborted"),
    ])
    def test_every_record_equals_its_series_value(self, tmp_path, extra, termination):
        cfg = _fast_config(**extra)
        run_experiment(cfg, tmp_path / "run")
        run = tmp_path / "run"
        columns = cli_module._series_columns(cfg)
        body = table.read_table(run / "series.csv", cli_module.SERIES_SCHEMA, columns)
        col = {name: [float.hex(v) for v in body[:, j].tolist()]
               for j, name in enumerate(columns)}
        summary = json.loads((run / "summary.json").read_text())
        assert summary["termination"] == termination
        assert summary["snapshot_count"] == len(body)
        assert float.hex(summary["energy_initial"]) == col["E"][0]
        for name, column in self.FINAL_COLUMNS.items():
            assert float.hex(summary[f"final_{name}"]) == col[column][-1]
        ergodic = [n for n in columns if n.startswith("ergodic_err_")]
        assert [float.hex(v) for v in summary["final_ergodic_errors"]] \
            == [col[n][-1] for n in ergodic]


class TestNumericFlags:
    """Numeric flags are checked before anything is read or written."""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf"])
    def test_a_bad_tolerance_exits_2(self, tmp_path, capsys, value):
        run_experiment(_fast_config(), tmp_path / "run")
        assert main(["analyze", "--run", str(tmp_path / "run"),
                     f"--tolerance={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "tolerance: must be " in err
        assert not (tmp_path / "run" / "analysis.json").exists()
        assert not (tmp_path / "run" / "series_recomputed.csv").exists()
        # Checked before the run directory is read.
        assert main(["analyze", "--run", str(tmp_path / "missing"),
                     f"--tolerance={value}"]) == 2
        assert "tolerance: must be " in capsys.readouterr().err

    def test_a_zero_tolerance_is_accepted(self, tmp_path):
        run_experiment(_fast_config(), tmp_path / "run")
        assert main(["analyze", "--run", str(tmp_path / "run"), "--tolerance", "0"]) == 0

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_job_exits_2(self, tmp_path, capsys, jobs):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(
            {"base": dict(FAST_OVERRIDES), "variants": [{"name": "a"}]}))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert f"jobs: must be at least 1, got {jobs}" in err
        assert not (tmp_path / "out").exists()
        # Checked before the sweep config is read.
        assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        assert "jobs: must be at least 1" in capsys.readouterr().err


class TestSweep:
    def _write_sweep(self, path, names=("a", "b", "c")):
        sizes = {"a": 8, "b": 12, "c": 16}
        sweep = {
            "base": dict(FAST_OVERRIDES),
            "variants": [
                {"name": n, "grid": {"n1": sizes.get(n, 8), "n2": sizes.get(n, 8)}}
                for n in names
            ],
        }
        path.write_text(json.dumps(sweep))

    def test_variants_run_independently(self, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        self._write_sweep(sweep_path)
        results = run_sweep(sweep_path, tmp_path / "out")
        assert [name for name, _, _ in results] == ["a", "b", "c"]
        assert all(not aborted for _, aborted, _ in results)
        for name, n in (("a", 8), ("b", 12), ("c", 16)):
            summary = json.loads(
                (tmp_path / "out" / name / "summary.json").read_text()
            )
            assert summary["grid"] == [n, n]
            cfg = parse_config(
                (tmp_path / "out" / name / "config.json").read_text()
            )
            assert cfg.grid.n1 == n
            # Base fields survive the merge untouched.
            assert cfg.binning.y_max == 4.0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failed_variant_does_not_stop_the_others(self, tmp_path, capsys, jobs):
        sweep_path = tmp_path / "sweep.json"
        self._write_sweep(sweep_path)
        out_root = tmp_path / "out"
        out_root.mkdir()
        (out_root / "b").write_text("in the way of variant b's directory\n")
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out_root),
                     "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert [line.split(":", 1)[0] for line in lines] == ["a", "b", "c"]
        assert lines[1].startswith("b: failed: ") and str(out_root / "b") in lines[1]
        assert err == ""
        for name in ("a", "c"):
            assert (out_root / name / "summary.json").is_file()

    def test_a_variant_whose_directory_is_not_empty_fails_alone(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        self._write_sweep(sweep_path)
        out_root = tmp_path / "out"
        (out_root / "b").mkdir(parents=True)
        (out_root / "b" / "notes.txt").write_text("kept by hand\n")
        assert main(["sweep", "--config", str(sweep_path), "--out", str(out_root)]) == 1
        out, err = capsys.readouterr()
        assert out.splitlines()[1] == (f"b: failed: {out_root / 'b'}: not empty; "
                                       "run writes only into a new or empty directory")
        assert err == "" and [p.name for p in (out_root / "b").iterdir()] == ["notes.txt"]
        for name in ("a", "c"):
            assert (out_root / name / "summary.json").is_file()

    # "." would put a variant's files in the sweep root, ".." outside it,
    # and no directory name holds a NUL.
    @pytest.mark.parametrize("names", [("a", "a"), (".",), ("..",), ("ok", "a\0b")],
                             ids=["duplicate", "dot", "dotdot", "nul"])
    def test_duplicate_names_rejected(self, tmp_path, capsys, names):
        sweep_path = tmp_path / "sweep.json"
        self._write_sweep(sweep_path, names=names)
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        i = len(names) - 1  # the last name is the bad one
        assert capsys.readouterr().err == (f"sweep config error: variants[{i}].name: "
                                           f"bad or duplicate name {names[i]!r}\n")
        assert not (tmp_path / "out").exists()

    def test_bad_variant_stops_the_sweep_before_any_output(self, tmp_path,
                                                            capsys):
        sweep = {
            "base": dict(FAST_OVERRIDES),
            "variants": [
                {"name": "a"},
                {"name": "b", "initial": {"kind": "sinusoidal", "amp_v": 2.0}},
                {"name": "c"},
            ],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "variants[1] (b): initial" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_variant_at_the_v_floor_stops_the_sweep_before_any_output(self, tmp_path,
                                                                      capsys):
        grid = DomainGrid(16, 16)
        snap = tmp_path / "low.npy"
        write_snapshot([MapState(grid, np.zeros(grid.shape), np.full(grid.shape, 1e-9))],
                       snap)
        sweep = {
            "base": dict(FAST_OVERRIDES),
            "variants": [
                {"name": "a"},
                {"name": "low", "initial": {"kind": "file", "path": str(snap)}},
            ],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "variants[1] (low): initial" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_variant_with_too_high_a_mode_stops_the_sweep_before_any_output(
            self, tmp_path, capsys):
        sweep = {
            "base": dict(FAST_OVERRIDES, initial={"kind": "random"}),
            "variants": [{"name": "a"},
                         {"name": "fine", "initial": {"kind": "random", "max_mode": 9}}],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "variants[1] (fine): initial: max_mode 9" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_a_base_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps({"base": 3, "variants": [{"name": "a"}]}))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "base: must be a JSON object" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [None, '{"base": {}, "variants": ['],
                             ids=["missing", "malformed_json"])
    def test_unreadable_sweep_config_exits_2(self, tmp_path, capsys, text):
        sweep_path = tmp_path / "sweep.json"
        if text is not None:
            sweep_path.write_text(text)
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "sweep config error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs, variants, cpus, workers", [
        (100000, 2, 64, 2), (3, 5, 4, 3), (8, 5, 4, 4), (2, 1, 4, None), (4, 3, 1, None)])
    def test_the_pool_has_no_more_workers_than_variants_or_cpus(
            self, tmp_path, monkeypatch, jobs, variants, cpus, workers):
        # The pool is a fake that records its size and runs the variants
        # here, so that no process is started; None: no pool, a serial sweep.
        made = []

        class Pool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        import concurrent.futures
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        names = "abcde"[:variants]
        self._write_sweep(tmp_path / "sweep.json", names=names)
        results = run_sweep(tmp_path / "sweep.json", tmp_path / "out", jobs=jobs)
        assert made == ([] if workers is None else [workers])
        assert [(name, failed) for name, failed, _ in results] == [(n, False) for n in names]

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        sweep_path = tmp_path / "sweep.json"
        self._write_sweep(sweep_path, names=("a", "b"))
        run_sweep(sweep_path, tmp_path / "serial", jobs=1)
        run_sweep(sweep_path, tmp_path / "par", jobs=2)
        for name in ("a", "b"):
            assert ((tmp_path / "serial" / name / "series.csv").read_bytes()
                    == (tmp_path / "par" / name / "series.csv").read_bytes())


class TestMain:
    def test_reduce_prints_canonical_point(self, capsys):
        assert main(["reduce", "2.7", "0.5"]) == 0
        out = capsys.readouterr().out
        lines = dict(
            part.split("=", 1) for part in
            (line.replace(" ", "") for line in out.splitlines()) if "=" in part
        )
        xf, yf = lines["z_F"].rstrip("i").split("+")
        x, y = float(xf), float(yf)
        assert -0.5 <= x < 0.5 and x * x + y * y >= 1.0 - 1e-12
        assert "gamma" in lines

    @pytest.mark.parametrize("x, y", [("0.3", "0"), ("nan", "1"), ("inf", "1"),
                                      ("0.1", "1e-300")])
    def test_reduce_of_a_bad_point_exits_2(self, capsys, x, y):
        assert main(["reduce", x, y]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("reduce:") and len(err.splitlines()) == 1

    def test_run_requires_an_output_dir(self, capsys):
        assert main(["run"]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_run_and_analyze_round_trip(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(FAST_OVERRIDES))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 0
        assert "termination" in capsys.readouterr().out
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "analysis PASS" in out
        assert "E: max |diff|" in out

    def test_a_used_output_directory_is_refused_and_left_as_it_was(self, tmp_path, capsys):
        # A shorter run written over a longer one would keep the longer run's
        # extra state and measure files and fail its own audit.
        cfg_path, run = tmp_path / "config.json", tmp_path / "run"
        cfg_path.write_text(json.dumps(dict(FAST_OVERRIDES, t_final=0.4)))
        assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 0
        first = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        capsys.readouterr()
        cfg_path.write_text(json.dumps(dict(FAST_OVERRIDES, t_final=0.2)))
        assert main(["run", "--config", str(cfg_path), "--out", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"run: {run}: not empty; run writes only into a new or empty directory\n"
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == first
        assert main(["analyze", "--run", str(run)]) == 0
        # An empty directory is as good as a new one.
        (tmp_path / "empty").mkdir()
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "empty")]) == 0

    def test_an_output_directory_that_cannot_be_made_exits_2(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("a regular file\n")
        out = tmp_path / "afile" / "sub"
        assert main(["run", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("run: ") and len(captured.err.splitlines()) == 1
        assert str(out) in captured.err

    def test_seed_override_changes_the_run(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        raw = dict(FAST_OVERRIDES)
        raw["initial"] = {"kind": "random", "v0": 1.4}
        cfg_path.write_text(json.dumps(raw))
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s0"),
              "--seed", "0"])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "s1"),
              "--seed", "1"])
        a = json.loads((tmp_path / "s0" / "summary.json").read_text())
        b = json.loads((tmp_path / "s1" / "summary.json").read_text())
        assert a["energy_initial"] != b["energy_initial"]

    def test_negative_seed_override_exits_2_before_any_output(self, tmp_path, capsys):
        assert main(["run", "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed:") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"binning": {"y_max": 0.5}}')
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "binning.y_max" in capsys.readouterr().err

    @pytest.mark.parametrize("initial", [
        {"kind": "sinusoidal", "amp_v": 2.0},
        {"kind": "sinusoidal", "amp_v": "0.1"},
        {"kind": "file"},
        {"kind": "file", "path": "no/such/state.npy"},
    ])
    def test_bad_initial_state_exits_2_before_any_output(self, tmp_path, capsys,
                                                         initial):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(FAST_OVERRIDES, initial=initial)))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "initial" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("initial, field", [
        ({"kind": "winding", "k": 1.5}, "k"),
        ({"kind": "random", "max_mode": 2.9}, "max_mode"),
        ({"kind": "constant", "v0": True}, "v0"),
        ({"kind": "sinusoidal", "mode_u": [1.5, 1]}, "mode_u"),
        ({"kind": "sinusoidal", "mode_v": [1, 1, 1]}, "mode_v"),
        ({"kind": "file", "path": ["state.npy"]}, "path"),
    ])
    def test_initial_value_of_the_wrong_type_exits_2_before_any_output(
            self, tmp_path, capsys, initial, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(FAST_OVERRIDES, initial=initial)))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: initial.{field}: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("grid, max_mode", [
        ({"n1": 16, "n2": 16}, 9), ({"n1": 16, "n2": 8}, 5), ({"n1": 4, "n2": 4}, None),
        ({"n1": 5, "n2": 5}, None), ({"n1": 64, "n2": 64}, 1000),
    ])
    def test_random_max_mode_above_half_the_grid_exits_2_before_any_output(
            self, tmp_path, capsys, grid, max_mode):
        initial = {"kind": "random"} if max_mode is None else {
            "kind": "random", "max_mode": max_mode}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(FAST_OVERRIDES, grid=grid, initial=initial)))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial: max_mode ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("interval", [1e-300, 1e-14])
    def test_an_interval_within_the_snapshot_tolerance_exits_2_before_any_output(
            self, tmp_path, capsys, interval):
        # run_flow would step its snapshot count 1e-14 / interval times at
        # t = 0; the config is refused before the run directory is made.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n1": 8, "n2": 8}, "snapshot_interval": interval,
                                   "t_final": 0.01}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == (f"config error: snapshot_interval {interval!r} is at or below 1e-14, "
                       "the tolerance on a snapshot time of this run\n")
        assert not (tmp_path / "run").exists()

    def test_initial_state_at_the_v_floor_exits_2_before_any_output(self, tmp_path,
                                                                    capsys):
        grid = DomainGrid(16, 16)
        snap = tmp_path / "low.npy"
        write_snapshot([MapState(grid, np.zeros(grid.shape), np.full(grid.shape, 1e-9))],
                       snap)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            dict(FAST_OVERRIDES, initial={"kind": "file", "path": str(snap)})
        ))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial:") and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nope.json" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit", [
        "short_row", "dt_renamed", "header_only", "steps_schema",
    ])
    def test_corrupt_series_exits_2(self, tmp_path, capsys, edit):
        run_experiment(_fast_config(), tmp_path / "run")
        series = tmp_path / "run" / "series.csv"
        lines = series.read_text().splitlines()
        if edit == "short_row":
            lines[3] = lines[3].rsplit(",", 1)[0]
        elif edit == "dt_renamed":
            lines[1] = lines[1].replace(",dt,", ",step,")
        elif edit == "header_only":
            del lines[2:]
        else:
            lines[0] = "# schema: moduliflow-steps-v1"
        series.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert "series.csv" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, edit", [
        ("summary.json", "missing"),
        ("summary.json", "empty_object"),
        ("summary.json", "garbage"),
        ("summary.json", "energy_final"),
        ("summary.json", "snapshot_count"),
        ("summary.json", "huge_integer"),
        ("summary.json", "final_entropy"),
        ("summary.json", "final_ergodic_errors"),
        ("summary.json", "grid"),
        ("summary.json", "bogus"),
        ("summary.json", "rejected_steps"),
        ("summary.json", "accepted_steps"),
    ])
    def test_records_that_disagree_with_the_snapshots_exit_2(
            self, tmp_path, capsys, name, edit):
        run_experiment(_fast_config(), tmp_path / "run")
        path = tmp_path / "run" / name
        if edit == "missing":
            path.unlink()
        elif edit == "garbage":
            path.write_text("garbage\n")
        else:
            summary = json.loads(path.read_text())
            if edit == "empty_object":
                summary = {}
            elif edit == "snapshot_count":
                summary["snapshot_count"] += 1
            elif edit == "huge_integer":
                summary["energy_initial"] = 10**400
            elif edit == "final_ergodic_errors":
                summary["final_ergodic_errors"][-1] += 1e-9
            elif edit == "grid":
                summary["grid"] = [8, 8]
            elif edit == "bogus":
                summary["bogus"] = 1
            elif edit == "rejected_steps":
                summary["rejected_steps"] = -5
            elif edit == "accepted_steps":  # the count, as a float that equals it
                summary["accepted_steps"] = float(summary["accepted_steps"])
            else:
                summary[edit] += 1e-9
            path.write_text(json.dumps(summary))
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert name in err and len(err.splitlines()) == 1
        if edit in ("grid", "bogus", "rejected_steps", "accepted_steps"):
            assert f"summary.json: {edit}" in err

    def test_snapshot_on_another_grid_exits_2(self, tmp_path, capsys):
        run_experiment(_fast_config(), tmp_path / "run")
        path = tmp_path / "run" / "snapshots" / "states.npy"
        count = len(np.load(path))
        grid = DomainGrid(8, 8)
        write_snapshot([MapState(grid, np.zeros(grid.shape), np.full(grid.shape, 1.0))] * count,
                       path)
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"states.npy: shape ({count}, 2, 8, 8), expected ({count}, 2, 16, 16)" in err
        assert len(err.splitlines()) == 1

    def test_snapshot_below_the_v_floor_exits_2(self, tmp_path, capsys):
        run_experiment(_fast_config(), tmp_path / "run")
        path = tmp_path / "run" / "snapshots" / "states.npy"
        states = np.load(path)
        states[1, 1] = 1e-300
        _save(path, states)
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: state 1: v_min 1e-300 is at or below {V_FLOOR}" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("damage", DAMAGED_STATES)
    def test_a_damaged_state_file_exits_2_naming_it(self, tmp_path, capsys, damage):
        run_experiment(_fast_config(), tmp_path / "run")
        path = tmp_path / "run" / "snapshots" / "states.npy"
        DAMAGED_STATES[damage](path)
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert "PASS" not in out and not (tmp_path / "run" / "analysis.json").exists()
        assert f"{path}: " in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [("n1", "x16"), ("t", "nan"), ("t", "inf")])
    def test_snapshot_with_bad_metadata_exits_2_naming_the_file(self, tmp_path, capsys,
                                                                field, value):
        # A snapshot's grid is the shape in the header of states.npy, and its
        # time a cell of the t column of series.csv.
        run_experiment(_fast_config(), tmp_path / "run")
        if field == "n1":
            path = tmp_path / "run" / "snapshots" / "states.npy"
            raw = path.read_bytes()
            # The header keeps its length: one space of its padding goes.
            raw = raw.replace(b"16, 16)", b"x16, 16)", 1).replace(b" \n", b"\n", 1)
            path.write_bytes(raw)
            named = [path]
        else:  # snapshot 1's time
            path = tmp_path / "run" / "series.csv"
            lines = path.read_text().splitlines()
            lines[3] = ",".join([value] + lines[3].split(",")[1:])
            path.write_text("\n".join(lines) + "\n")
            named = [path, tmp_path / "run" / "steps.npy"]
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert any(f"{p}: " in err for p in named)

    @pytest.mark.parametrize("edit", ["t_falls", "t_repeats", "one_state_too_many"])
    def test_snapshot_times_or_states_that_do_not_fit_exit_2(
            self, tmp_path, capsys, edit):
        run = tmp_path / "run"
        run_experiment(_fast_config(t_final=0.4), run)
        if edit == "one_state_too_many":  # the initial state again, after the last
            path = run / "snapshots" / "states.npy"
            states = np.load(path)
            _save(path, np.concatenate([states, states[:1]]))
            problem = f"shape ({len(states) + 1}, 2, 16, 16), expected ({len(states)}, "
        else:
            path = run / "series.csv"
            lines = path.read_text().splitlines()
            rows = [line.split(",") for line in lines[2:]]
            if edit == "t_falls":
                rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
            else:
                rows[2][0] = rows[1][0]
            path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
            problem = "t does not rise strictly from row to row"
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"analyze: cannot audit {run}: {path}: {problem}")

    def test_a_run_in_the_text_snapshot_format_exits_2_naming_it(self, tmp_path, capsys):
        run_experiment(_fast_config(), tmp_path / "run")
        snapshots = tmp_path / "run" / "snapshots"
        for path in snapshots.iterdir():
            path.unlink()
        (snapshots / "snapshot_0000.csv").write_text(
            "# schema: moduliflow-snapshot-v1\nn1,n2,t\n16,16,0.0\ni,j,u,v\n")
        assert main(["analyze", "--run", str(tmp_path / "run")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert (f"{snapshots / 'snapshot_0000.csv'}: the run uses the text snapshot format "
                "moduliflow-snapshot-v1, which this version does not read") in err

    @pytest.mark.parametrize("name, layout", [
        ("snapshots/state_0000.npy", "one state file per distinct state"),
        ("measures/measure_0000.csv", "one measure file per snapshot")])
    def test_a_run_with_a_file_per_state_or_measure_exits_2_naming_it(
            self, tmp_path, capsys, name, layout):
        # The layout of one state file per distinct state and one measure
        # file per snapshot, which states.npy and pushforwards.npy replace.
        run = tmp_path / "run"
        run_experiment(_fast_config(), run)
        for path in (run / "snapshots" / "states.npy", run / "measures" / "pushforwards.npy"):
            path.unlink()
        (run / name).write_bytes(b"")
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"analyze: cannot audit {run}: {run / name}: the run uses "
                                     f"{layout}, which this version does not read\n")

    def test_a_run_with_a_snapshot_index_exits_2_naming_it(self, tmp_path, capsys):
        # The index held each snapshot's time and state number, which the t
        # column of series.csv and the steps' D give.
        run = tmp_path / "run"
        run_experiment(_fast_config(), run)
        path = run / "snapshots" / "index.csv"
        path.write_text("# schema: moduliflow-snapshot-index-v1\nn1,n2\n16,16\nk,t,state\n"
                        "0,0.0,0\n")
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"analyze: cannot audit {run}: {path}: the run uses the snapshot index "
            "moduliflow-snapshot-index-v1, which this version does not read\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_state_whose_diagnostics_overflow_fails_without_warnings(self, tmp_path, capsys):
        # u = 1e300 is finite, but its squares overflow in the reduction and
        # in the edge pass: E and D recompute as inf.
        run = tmp_path / "run"
        run_experiment(_fast_config(), run)
        path = run / "snapshots" / "states.npy"
        states = np.load(path)
        states[1, 0, 0, 1] = 1e300
        _save(path, states)
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[-1].startswith("analysis FAIL")
        assert {line.split(":")[0] for line in out.splitlines()
                if line.endswith("[MISMATCH]")} == {"E", "D"}

    @pytest.mark.parametrize("steps", ["text", "missing"])
    def test_a_run_without_binary_steps_exits_2_naming_them(self, tmp_path, capsys, steps):
        run = tmp_path / "run"
        run_experiment(_fast_config(), run)
        (run / "steps.npy").unlink()
        if steps == "text":
            (run / "steps.csv").write_text("# schema: moduliflow-steps-v1\n"
                                           "t,E,D,cumulative_D,dt\n0.0,1.0,1.0,0.0,0.0\n")
        assert main(["analyze", "--run", str(run)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        if steps == "text":
            assert (f"{run / 'steps.csv'}: the run uses the text steps format "
                    "moduliflow-steps-v1, which this version does not read") in err
        else:
            assert str(run / "steps.npy") in err

    def test_steps_with_a_cumulative_d_column_exit_2_naming_them(self, tmp_path, capsys):
        # The layout of earlier versions: t, E, D, cumulative_D, dt.
        run = tmp_path / "run"
        run_experiment(_fast_config(), run)
        path = run / "steps.npy"
        steps = np.load(path)
        _save(path, np.insert(steps, 3, flow_module.dissipation_integral(steps), axis=1))
        assert main(["analyze", "--run", str(run)]) == 2
        assert capsys.readouterr() == ("", (
            f"analyze: cannot audit {run}: {path}: the older layout of steps.npy, "
            "with a cumulative_D column, which this version does not read\n"))

    # A state at the v floor is refused without naming the file (see
    # test_initial_state_at_the_v_floor_exits_2_before_any_output).
    @pytest.mark.parametrize("damage", [d for d in DAMAGED_STATES if d != "v_at_floor"])
    def test_initial_file_that_is_no_state_exits_2_before_any_output(
            self, tmp_path, capsys, damage):
        grid = DomainGrid(16, 16)
        snap = tmp_path / "state_0001.npy"
        write_snapshot([MapState(grid, np.zeros(grid.shape), np.full(grid.shape, 1.5))],
                       snap)
        DAMAGED_STATES[damage](snap)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            dict(FAST_OVERRIDES, initial={"kind": "file", "path": str(snap)})
        ))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: initial:")
        assert "state_0001.npy" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_analyze_of_a_missing_run_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--run", str(tmp_path / "missing")]) == 2
        assert "missing" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()

    def test_aborted_run_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        raw = dict(FAST_OVERRIDES)
        raw["dt_floor"] = 1.0
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 1
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["termination"] == "aborted"

    def test_sweep_subcommand(self, tmp_path, capsys):
        sweep = {
            "base": dict(FAST_OVERRIDES),
            "variants": [{"name": "small"}, {"name": "seeded", "seed": 9}],
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(sweep_path),
                     "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "small:" in out and "seeded:" in out


def test_thread_cap_is_exported_before_numpy_loads():
    # Record OPENBLAS_NUM_THREADS at the moment numpy is first imported, the
    # moment its BLAS pool reads it.
    probe = textwrap.dedent("""
        import os, sys

        class Probe:
            seen = None

            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and Probe.seen is None:
                    Probe.seen = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
                return None

        sys.meta_path.insert(0, Probe())
        import moduliflow.cli
        print(Probe.seen)
    """)
    env = {k: v for k, v in os.environ.items() if k not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["MODFLOW_THREADS"] = "3"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "3"
