"""Tooling and docs that name the code must follow it: the per-layer trace
of perfbench/traced.py wraps functions by name, so a renamed or removed
function must fail here rather than break a traced run, the README's
config defaults must be FlowConfig's, its imports must name the modules
that define each name, its run directory layout must name what run writes
and the columns of steps.npy, its recipe must rebuild a run's time
average, and the tools in tools/ must run.  The package itself is only a
docstring: importing it loads neither numpy nor a submodule.  Every
function of src/ that no command enters is on a fixed list, each with its
reason, so that src/ does not regrow code that only tests reach."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from moduliflow import flow
from moduliflow.cli import FlowConfig, config_from_dict, run_experiment
from moduliflow.hyperbolic import FundamentalDomainBinning
from moduliflow.measures import pushforward, time_average
from oracles import run_recorded

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


def test_the_readme_imports_each_name_from_its_module():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imports = [node for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    ours = [node for node in imports if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "moduliflow"]
    assert len(ours) >= 5
    # None from the bare package, and none of the package by a plain import.
    assert [node.module for node in ours if node.module == "moduliflow"] == []
    assert [alias.name for node in imports if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] == "moduliflow"] == []
    for node in ours:
        exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), {})


def test_importing_the_package_loads_nothing_else():
    probe = ("import os, sys; env = dict(os.environ); import moduliflow; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'moduliflow'))); "
             "print(dict(os.environ) == env)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['moduliflow']", "True"]


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
    # its average is the masses of time_average of the run's pushforwards,
    # bit for bit.
    run = tmp_path / "run"
    result = run_experiment(config_from_dict({
        "grid": {"n1": 16, "n2": 16}, "t_final": t_final, "snapshot_interval": 0.05,
        "binning": {"n_x": 12, "n_y": 12, "y_max": 4.0}}), run)
    traj, recorded = run_recorded(result.config)
    snaps = recorded.snapshots(traj, result.config.stall_threshold)
    assert result.summary["termination"] == termination and len(snaps) >= 3
    recipe = re.search(r"```python\n(.*?)```", _layout_section(), re.S).group(1)
    namespace = {"run": run}
    exec(recipe, namespace)
    binning = FundamentalDomainBinning(12, 12, 4.0)
    want = time_average([pushforward(s, binning) for s in snaps])
    assert namespace["average"].tobytes() == want.masses.tobytes()


def test_compare_outputs_loads_and_refuses_an_unknown_revision():
    # tools/compare_outputs.py imports names from perfbench/run.py at start.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "no-such-revision"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert "no-such-revision" in done.stderr


def test_compare_outputs_runs_a_case_and_reads_its_peak_rss(tmp_path):
    # run_case in a process of its own: compare_outputs turns off bytecode
    # writing when it loads.
    tools, src = str(ROOT / "tools"), str(ROOT / "src")
    small = {"grid": {"n1": 8, "n2": 8}, "t_final": 0.05}
    code = (f"import sys; sys.path.insert(0, {tools!r}); import compare_outputs as co; "
            "from pathlib import Path; "
            f"print(co.run_case(Path({src!r}), Path({str(tmp_path / 'ok')!r}), {small!r}, 3)); "
            f"print(co.run_case(Path({src!r}), Path({str(tmp_path / 'bad')!r}), "
            "{'t_final': -1.0}, None))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    (ok, ok_peak), (bad, bad_peak) = map(ast.literal_eval, done.stdout.splitlines())
    assert ok is None and bad.startswith("run exited 2: config error: t_final")
    # Each is a Python process that imported numpy: tens of MiB.
    assert 10 < ok_peak < 1000 and 10 < bad_peak < 1000
    assert json.loads((tmp_path / "ok" / "config.json").read_text())["seed"] == 3


def test_time_kernel_times_the_tree_and_refuses_an_unknown_revision():
    # One 8x8 grid, 3 calls and 2 rounds instead of the tool's sizes, 100
    # calls and 21 rounds: each round starts a worker process.  n1 * n2 is
    # a multiple of 8, so the ring starts on a 64-byte boundary too, and
    # h = 1/8 is a power of two, so the pass's table is 37 calls.  After
    # the timings the process prints the layout digest of the tree's table
    # on an 8x8 workspace of its own.
    tools, src = str(ROOT / "tools"), str(ROOT / "src")
    code = (f"import sys; sys.path[:0] = [{tools!r}, {src!r}]; import time_kernel as tk; "
            "tk.ROUNDS, tk.SIZES, tk.CALLS = 2, (8,), 3; status = tk.main(); "
            "from moduliflow import flow; print(tk.layout(flow._EdgeWorkspace((8, 8)))); "
            "sys.exit(status)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    title, header, row, layout = done.stdout.splitlines()
    assert "of 6 calls" in title
    assert header.split()[:5] == ["size", "side", "offset", "calls", "table"]
    size, side, offset, calls, digest, *numbers = row.split()
    assert (size, side, offset, calls, len(numbers)) == ("8²", "tree", "0", "37", 6)
    assert all(float(x) > 0 for x in numbers)
    assert digest == layout and re.fullmatch("[0-9a-f]{8}", digest)
    refused = subprocess.run([sys.executable, str(ROOT / "tools" / "time_kernel.py"),
                              "no-such-revision"], capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2 and "no-such-revision" in refused.stderr


# Runs every command under sys.setprofile, set before moduliflow loads, and
# prints the src/ functions (module.qualified.name) that none entered:
# run and analyze on 8x8 grids of every initial kind and on a 12x10 grid,
# reduce, and a serial two-variant sweep, in the directory given.
CENSUS = """
import ast, contextlib, io, json, sys
from pathlib import Path

work, entered = Path(sys.argv[1]), set()


def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
from moduliflow import cli


def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0, argv


def config(name, **raw):
    path = work / f"{name}.json"
    path.write_text(json.dumps({"t_final": 0.02, "snapshot_interval": 0.01,
                                "grid": {"n1": 8, "n2": 8}, **raw}))
    return path


starts = [{"kind": k} for k in ("constant", "sinusoidal", "winding", "random")]
starts.append({"kind": "file", "path": str(work / "sinusoidal" / "snapshots" / "states.npy")})
runs = [(s["kind"], config(s["kind"], initial=s)) for s in starts]
runs.append(("12x10", config("12x10", grid={"n1": 12, "n2": 10})))
for name, path in runs:
    call("run", "--config", path, "--out", work / name)
    call("analyze", "--run", work / name)
call("reduce", 3.7, 0.2)
sweep = work / "sweep.json"
sweep.write_text(json.dumps({"base": json.loads(config("base").read_text()),
                             "variants": [{"name": "a"}, {"name": "b", "seed": 2}]}))
call("sweep", "--config", sweep, "--out", work / "sweep", "--jobs", 1)
sys.setprofile(None)

never = []


def walk(path, body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A decorated function's code starts at its first decorator.
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if (str(path), first) not in entered:
                never.append(f"{path.stem}.{prefix}{node.name}")
            walk(path, node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            walk(path, node.body, f"{prefix}{node.name}.")
        else:
            for block in ("body", "orelse", "handlers", "finalbody"):
                if isinstance(getattr(node, block, None), list):
                    walk(path, getattr(node, block), prefix)


for path in sorted(Path(cli.__file__).parent.glob("*.py")):
    walk(path, ast.parse(path.read_text()).body, "")
print(json.dumps(never))
"""

ACCEPTANCE = "acceptance import: tests/test_acceptance.py calls it"
CHAIN_RULE = "acceptance import: flow.chain_rule_residual calls it"
# Every src/ function that no command enters, with the reason it stays.
NEVER_ENTERED = {
    "cli.ConfigError.__init__": "error path: a config that fails validation",
    "flow.TargetEscapeError.__init__": "error path: a state or a step that leaves the "
                                       "half-plane",
    "flow.AbortedRunError.__init__": "error path: an aborted run",
    "flow.TangentField.__init__": "library call: tension_field returns one and step takes "
                                  "one; run_flow and analyze keep tau in their workspaces",
    "flow.MapState.copy": "library call: no command keeps a state; the README's library "
                          "example and tests/oracles.py's Recorded copy each state that "
                          "run_flow hands on",
    "flow.step": "perfbench target; tests/oracles.py's reference_steps steps with it: "
                 "run_flow forms each candidate by step's update, flow._euler, and "
                 "checks it itself",
    "flow.tension_field": f"{ACCEPTANCE}; perfbench target",
    "flow.energy": f"{ACCEPTANCE}; perfbench target",
    "flow.dissipation_rate": "perfbench target",
    "flow._state_pass": "library call: tension_field, energy and dissipation_rate pass "
                        "a state by it; run and analyze pass in their own workspaces",
    "flow.chain_rule_residual": ACCEPTANCE,
    "hyperbolic.ReductionError.__init__": "error path: a reduction that does not converge",
    "hyperbolic.UpperHalfPoint.__repr__": "error path: mobius_apply's DegenerateInputError "
                                          "names the point",
    "hyperbolic.mobius_apply_xy": ACCEPTANCE,
    "hyperbolic.mobius_apply": ACCEPTANCE,
    "hyperbolic.hyperbolic_laplacian_fd": ACCEPTANCE,
    "hyperbolic.FundamentalDomainBinning.total_raw_mass": ACCEPTANCE,
    "hyperbolic.FundamentalDomainBinning.matches": "perfbench target: time_average and "
                                                   "entropy_report check their binnings",
    "initial.SpecError.__init__": "error path: a bad initial spec",
    "measures.PushforwardMeasure.__post_init__": "acceptance import: pushforward builds one",
    "measures._check_match": "perfbench target: time_average and entropy_report call it",
    "measures.pushforward": f"{ACCEPTANCE}; perfbench target",
    "measures.time_average": "perfbench target",
    "measures.entropy_report": "perfbench target",
    "mesh.DomainGrid.laplacian": CHAIN_RULE,
    "mesh.DomainGrid.integrate": CHAIN_RULE,
    "testfunctions._profile_d1": CHAIN_RULE,
    "testfunctions._profile_d2": CHAIN_RULE,
    "testfunctions.BumpFunction.gradient": CHAIN_RULE,
    "testfunctions.BumpFunction.hessian": CHAIN_RULE,
}


def test_every_function_no_command_enters_is_on_the_list(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", CENSUS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(json.loads(done.stdout)) == sorted(NEVER_ENTERED)
