"""Tooling and docs that name the code must follow it: the per-layer trace
of perfbench/traced.py wraps functions by name, so a renamed or removed
function must fail here rather than break a traced run, the README's
config defaults must be FlowConfig's, the names its library example imports
must be exported, its run directory layout must name what run writes and
the columns of steps.npy, its recipe must rebuild a run's time average,
its list of older layouts must name each that analyze refuses, and the
tools in tools/ must run."""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import moduliflow
from moduliflow import cli, flow
from moduliflow.cli import FlowConfig, config_from_dict, run_experiment
from moduliflow.hyperbolic import FundamentalDomainBinning
from moduliflow.measures import pushforward, time_average

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def _targets():
    # traced.py imports from its own directory, so its TARGETS list is read
    # from the source instead of importing the module.
    for node in ast.parse(TRACED.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACED} defines no TARGETS list")


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for owner_path, attribute, _ in targets:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"moduliflow.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attribute, None)):
            missing.append(f"{owner_path}.{attribute}")
    assert missing == []


def test_the_readme_config_defaults_are_flowconfigs():
    section = (ROOT / "README.md").read_text().split("\n## Configuration\n", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == FlowConfig().to_dict()


def test_the_readme_library_example_imports_only_exported_names():
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = [alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "moduliflow"
                for alias in node.names]
    assert imported and set(imported) <= set(moduliflow.__all__)
    assert [n for n in moduliflow.__all__ if not hasattr(moduliflow, n)] == []


def _layout_block() -> str:
    section = (ROOT / "README.md").read_text().split("\n## Run directory layout\n", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


def test_the_readme_run_directory_layout_names_what_run_writes(tmp_path):
    block = _layout_block()
    named = [line.split()[0] for line in block.splitlines() if line[:1].strip()]
    files = re.findall(r"[\w.]+\.(?:csv|npy|json|jsonl)\b", block)
    run = tmp_path / "run"
    run_experiment(config_from_dict({"grid": {"n1": 8, "n2": 8}, "t_final": 0.1}), run)
    assert sorted(named) == sorted(p.name + "/" * p.is_dir() for p in run.iterdir())
    # Every file name in the block, at any depth, and nothing else.
    assert sorted(files) == sorted(p.name for p in run.rglob("*") if p.is_file())


def test_the_readme_steps_entry_names_the_step_columns():
    entry = re.search(r"^steps\.npy\s(.*?)\n(?=\S)", _layout_block(), re.S | re.M).group(1)
    columns = re.search(r"array of\s+(.*?);", entry, re.S).group(1)
    assert re.split(r",\s+", columns) == list(flow.STEP_COLUMNS)


def _layout_section() -> str:
    return (ROOT / "README.md").read_text().split(
        "\n## Run directory layout\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("t_final, termination", [(0.4, "stalled"), (0.1, "t_final")])
def test_the_readme_recipe_rebuilds_the_time_average(tmp_path, t_final, termination):
    # The recipe reads pushforwards.npy, series.csv's t and the steps' D;
    # its average is time_average of the run's pushforwards, bit for bit.
    run = tmp_path / "run"
    result = run_experiment(config_from_dict({
        "grid": {"n1": 16, "n2": 16}, "t_final": t_final, "snapshot_interval": 0.05,
        "binning": {"n_x": 12, "n_y": 12, "y_max": 4.0}}), run)
    snaps = result.trajectory.snapshots
    assert result.summary["termination"] == termination and len(snaps) >= 3
    recipe = re.search(r"```python\n(.*?)```", _layout_section(), re.S).group(1)
    namespace = {"run": run}
    exec(recipe, namespace)
    binning = FundamentalDomainBinning(12, 12, 4.0)
    want = time_average([pushforward(s, binning) for s in snaps])
    got = namespace["average"]
    assert got.t == want.t and got.masses.tobytes() == want.masses.tobytes()


def test_the_readme_names_every_old_layout():
    paragraph = _layout_section().split("Runs of older layouts", 1)[1].split("\n\n", 1)[0]
    assert [name for name in cli.OLD_LAYOUTS if f"`{name}`" not in paragraph] == []


def test_compare_outputs_loads_and_refuses_an_unknown_revision():
    # tools/compare_outputs.py imports names from perfbench/run.py at start.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "no-such-revision"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "no-such-revision" in done.stderr


def test_time_kernel_times_the_tree_and_refuses_an_unknown_revision():
    # One 6x6 grid, 3 calls and 2 rounds instead of the tool's sizes, 100
    # calls and 21 rounds: each round starts a worker process.
    tools = str(ROOT / "tools")
    code = (f"import sys; sys.path.insert(0, {tools!r}); import time_kernel as tk; "
            "tk.ROUNDS, tk.SIZES, tk.CALLS = 2, (6,), 3; sys.exit(tk.main())")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    title, header, row = done.stdout.splitlines()
    assert "of 6 calls" in title and header.split()[:2] == ["size", "side"]
    size, side, *numbers = row.split()
    assert (size, side, len(numbers)) == ("6²", "tree", 6)
    assert all(float(x) > 0 for x in numbers)
    refused = subprocess.run([sys.executable, str(ROOT / "tools" / "time_kernel.py"),
                              "no-such-revision"], capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2 and "no-such-revision" in refused.stderr
