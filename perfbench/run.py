"""moduliflow benchmark: time to solution of `run` and `analyze` per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow64 --seed 0 --seconds 60 --trace 0

--trace 0 repeats the workload until --seconds is spent and prints the
end-to-end metrics, each the median over its samples; times are scaled to a
nominal machine speed (see REF_NOMINAL_S).  --trace 1 runs one
untraced and one traced repeat and prints the per-layer metrics.  Each
workload is a closed loop with one client: every command starts after the
previous one exits.  The last line of standard output is one JSON object.
perfbench/README.md says why each workload exists and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from spans import METRIC_NAME, Layer, percentile, spans_from_json, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
PYTHON = sys.executable
OP_TIMEOUT_S = 150.0
# Set-up is timed this many times per repeat, so that its samples span the
# same stretch of the run as the repeats' own.
SETUP_PROBES_PER_REPEAT = 2
# analyze is short and its time jumps from one process to the next, so each
# repeat runs it until this much of it has been timed (at most 4 passes).
ANALYZE_MIN_S = 2.0
ANALYZE_MAX_PASSES = 4

# The machine's speed drifts: on a shared virtual machine the same command
# can take up to twice as long from one minute to the next.  So every timed
# command is bracketed by a fixed reference kernel run on the same CPU, and a
# time metric is the command's wall time scaled by REF_NOMINAL_S over the
# reference's time: the time the command would take on a machine that runs
# the reference in REF_NOMINAL_S.
REF_NOMINAL_S = 0.03
REF_ITERATIONS = 400
_REF_FIELD = np.random.default_rng(0).random((64, 64))

# --seed is folded onto the seeds whose outcomes are recorded in EXPECTED, so
# that every run can check termination and step count.
RECORDED_SEEDS = 4

# Every workload process runs single-threaded, so that no process tree starts
# more threads than there are CPUs.  MODFLOW_THREADS is the program's own cap;
# the BLAS variables are set here as well because `python -m moduliflow.cli`
# imports numpy (through the package) before the cap is applied.
THREAD_ENV = {
    "MODFLOW_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    config: dict = field(default_factory=dict)
    seeded: bool = True

    def run_config(self, wseed: int) -> dict:
        """The config of the workload's run, seed included."""
        return dict(self.config, seed=wseed if self.seeded else 0)


WORKLOADS = {
    w.name: w for w in [
        # The default config: ROADMAP's end-to-end target, flow-bound.
        Workload("flow64", 64 * 64, seeded=False),
        # 401 snapshots of a small grid: diagnostics and CSV I/O dominate.
        Workload("snap400", 32 * 32, {
            "grid": {"n1": 32, "n2": 32},
            "initial": {"kind": "random", "amp_u": 0.6, "amp_v": 0.6},
            "t_final": 1.0,
            "snapshot_interval": 0.0025,
        }),
    ]
}

# (termination, accepted_steps) of the run, per workload and workload seed.
EXPECTED = {
    "flow64": {s: ("stalled", 7588) for s in range(RECORDED_SEEDS)},
    "snap400": {
        0: ("stalled", 4702),
        1: ("stalled", 4798),
        2: ("stalled", 4753),
        3: ("stalled", 4678),
    },
}


@dataclass
class Op:
    """One finished command: wall time, peak RSS and what it printed."""

    wall_s: float
    ref_s: float  # the reference kernel's time, mean of before and after
    rss_mib: float
    returncode: int
    stdout: str

    def scaled(self, seconds: float) -> float:
        """seconds, measured during this command, at the nominal speed."""
        return seconds * REF_NOMINAL_S / self.ref_s


@dataclass
class Repeat:
    """What one repeat of a workload measured."""

    sample: dict[str, float]  # one value of each end-to-end metric but analyze_s
    analyze_s: list[float]  # one value per analyze pass
    summary: dict | None
    snapshot_bytes: int


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_s() -> float:
    """Time a fixed mix of small numpy stencils and Python arithmetic, the
    two kinds of work the program does."""
    start = time.perf_counter()
    u = _REF_FIELD
    total = 0.0
    for _ in range(REF_ITERATIONS):
        lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
               + np.roll(u, -1, 1) - 4.0 * u)
        total += float(np.sum(lap * lap))
        for i in range(200):
            total += i * 1e-9
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Run this process and every command it starts on one CPU, so that the
    reference kernel and the command it brackets see the same CPU.  Returns
    the number of CPUs it could use before."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return len(cpus)


def run_command(argv: list[str], log: Path) -> Op:
    """Run argv from the checkout root and wait for its whole process group,
    with the reference kernel timed just before and just after.

    The child is reaped with wait4 so that its own rusage is read: ru_maxrss
    is the largest peak among the child and the children it waited for.
    """
    ref_before = reference_s()
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            _empty_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _empty_group(proc.pid)  # children can outlive a parent killed on timeout
    ref = (ref_before + reference_s()) / 2
    return Op(wall, ref, usage.ru_maxrss / 1024.0, proc.returncode,
              log.read_text())


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _empty_group(pgid: int) -> None:
    """Kill what is left of a process group whose leader was reaped, and
    wait until the group is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def moduliflow(*args: str) -> list[str]:
    return [PYTHON, "-m", "moduliflow.cli", *args]


def traced(spans_path: Path, run_id: str, *args: str) -> list[str]:
    return [PYTHON, str(HERE / "traced.py"), str(spans_path), run_id, "--", *args]


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """Runs one workload at one seed in a private temporary directory."""

    def __init__(self, workload: Workload, wseed: int, tmp: Path):
        self.w = workload
        self.wseed = wseed
        self.tmp = tmp
        self.expected = EXPECTED[workload.name][wseed]
        self.attempted = 0
        self.failed = 0
        self.series_hash: str | None = None
        self.repeats = 0
        self.unscaled: dict[str, list[float]] = {}
        self.ref_s: list[float] = []
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(workload.config))
        self.probe_path = tmp / "setup_config.json"
        self.probe_path.write_text(json.dumps(workload.run_config(wseed)))

    # -- checks ---------------------------------------------------------------

    def _record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.w.name} {what}: {problem}", file=sys.stderr)

    def _check_run_dir(self, run_dir: Path) -> list[str]:
        try:
            summary = json.loads((run_dir / "summary.json").read_text())
            series = sha256(run_dir / "series.csv")
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        problems = []
        if summary["monotonicity_violations"] != 0:
            problems.append(f"{summary['monotonicity_violations']} "
                            "monotonicity violations")
        got = (summary["termination"], summary["accepted_steps"])
        if got != self.expected:
            problems.append(f"termination, accepted_steps = {got}, "
                            f"recorded {self.expected}")
        if self.series_hash is None:
            self.series_hash = series
        elif series != self.series_hash:
            problems.append("series.csv differs from the first repeat")
        return problems

    def _analyze(self, run_dir: Path, spans_dir: Path | None) -> float:
        args = ("analyze", "--run", str(run_dir))
        argv = (moduliflow(*args) if spans_dir is None
                else traced(spans_dir / "analyze.json", "analyze", *args))
        op = self._run("analyze_s", argv, self.tmp / "analyze.log")
        problems = [] if op.returncode == 0 else [f"exit code {op.returncode}"]
        if "analysis PASS" not in op.stdout:
            problems.append("analyze did not print PASS")
        self._record("analyze", problems)
        return op.scaled(op.wall_s)

    # -- one repeat -----------------------------------------------------------

    def repeat(self, spans_dir: Path | None = None) -> Repeat:
        """Run the workload's commands once in a fresh output directory.

        With spans_dir, each command runs under traced.py and writes its
        spans there, and analyze runs once.
        """
        out = self.tmp / f"out{self.repeats}"
        self.repeats += 1
        args = ("run", "--out", str(out))
        if self.w.config:
            args += ("--config", str(self.config_path))
        if self.w.seeded:
            args += ("--seed", str(self.wseed))
        argv = (moduliflow(*args) if spans_dir is None
                else traced(spans_dir / "run.json", "run", *args))
        op = self._run("run_s", argv, self.tmp / "run.log")
        problems = [] if op.returncode == 0 else [f"exit code {op.returncode}"]
        problems += self._check_run_dir(out)
        self._record("run", problems)

        try:
            summary = json.loads((out / "summary.json").read_text())
        except (OSError, ValueError):
            summary = None
        sample = {
            "run_s": op.scaled(op.wall_s),
            "peak_rss_mb": op.rss_mib,
            "run_dir_mb": dir_bytes(out) / 2**20,
        }
        if summary is not None:
            sample["energy_gap"] = summary["energy_identity_rel_gap"]
        snapshots = out / "snapshots"
        snapshot_bytes = dir_bytes(snapshots) if snapshots.is_dir() else 0

        passes = []
        while True:
            passes.append(self._analyze(out, spans_dir))
            if (spans_dir is not None or len(passes) == ANALYZE_MAX_PASSES
                    or sum(passes) >= ANALYZE_MIN_S):
                break
        shutil.rmtree(out, ignore_errors=True)
        return Repeat(sample, passes, summary, snapshot_bytes)

    def setup_seconds(self) -> float:
        op = run_command([PYTHON, str(HERE / "setup_probe.py"), str(self.probe_path)],
                         self.tmp / "setup.log")
        if op.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{op.stdout}")
        seconds = float(op.stdout.split()[-1])
        self._note("setup_s", seconds, op.ref_s)
        return op.scaled(seconds)

    def _run(self, metric: str, argv: list[str], log: Path) -> Op:
        op = run_command(argv, log)
        self._note(metric, op.wall_s, op.ref_s)
        return op

    def _note(self, metric: str, seconds: float, ref_s: float) -> None:
        """Keep the unscaled time and the reference's, to print with the
        result."""
        self.unscaled.setdefault(metric, []).append(seconds)
        self.ref_s.append(ref_s)

    # -- the two modes --------------------------------------------------------

    def timed(self, seconds: float) -> dict[str, list[float]]:
        """Untraced repeats until `seconds` is spent; samples per metric.

        Each repeat times the set-up first.  A repeat starts only if it should
        end in time, judged by the longest repeat so far with a fifth to spare.
        """
        start = time.perf_counter()
        samples: dict[str, list[float]] = {"setup_s": [], "analyze_s": []}
        longest = 0.0
        while True:
            begun = time.perf_counter()
            for _ in range(SETUP_PROBES_PER_REPEAT):
                samples["setup_s"].append(self.setup_seconds())
            rep = self.repeat()
            for name, value in rep.sample.items():
                samples.setdefault(name, []).append(value)
            samples["analyze_s"] += rep.analyze_s
            now = time.perf_counter()
            longest = max(longest, now - begun)
            if now - start + 1.2 * longest > seconds:
                return samples

    def traced(self) -> dict[str, float]:
        """One untraced and one traced repeat; per-layer metrics."""
        plain = self.repeat()
        spans_dir = self.tmp / "spans"
        spans_dir.mkdir()
        traced_rep = self.repeat(spans_dir=spans_dir)
        runs = [spans_from_json(json.loads(p.read_text()))
                for p in sorted(spans_dir.glob("*.json"))]
        return layer_metrics(self.w, runs, traced_rep, plain)


# Snapshot and measure files: their self time is reported as io.self_s rather
# than in their modules' totals.
IO_SPANS = {"flow.write_snapshot", "flow.read_snapshot", "measures.write_measure"}


def layer_metrics(w: Workload, runs, traced_rep: Repeat,
                  plain: Repeat) -> dict[str, float]:
    layers = summarize(runs)
    summary = traced_rep.summary or dict.fromkeys(
        ("snapshot_count", "accepted_steps", "rejected_steps"), 0)

    def layer(name):
        return layers.get(name) or Layer([])

    def p50_us(name):
        return _p50(layer(name).durations) * 1e6

    def wall(rep):
        return rep.sample["run_s"] + rep.analyze_s[0]

    snapshots = summary["snapshot_count"]
    accepted = summary["accepted_steps"]
    tension = layer("flow.tension_field")
    reduce = layer("hyperbolic.reduce_points")
    points = reduce.calls * w.nodes
    snap_mib = traced_rep.snapshot_bytes / 2**20
    write, read = layer("flow.write_snapshot"), layer("flow.read_snapshot")
    group_self = {}
    for name, lay in layers.items():
        group = "io" if name in IO_SPANS else name.split(".")[0]
        group_self[group] = group_self.get(group, 0.0) + lay.self_s

    return {
        "flow.tension_field.us_p50": _p50(tension.durations) * 1e6,
        "flow.tension_field.us_p99": _pct(tension.durations, 99) * 1e6,
        "flow.tension_field.calls": tension.calls,
        "flow.tension_field.ns_per_node": _p50(tension.durations) * 1e9 / w.nodes,
        "flow.energy.us_p50": p50_us("flow.energy"),
        "flow.energy.calls": layer("flow.energy").calls,
        "flow.dissipation_rate.us_p50": p50_us("flow.dissipation_rate"),
        "flow.dissipation_rate.calls": layer("flow.dissipation_rate").calls,
        "flow.step.us_p50": p50_us("flow.step"),
        "flow.step.calls": layer("flow.step").calls,
        "flow.run_flow.self_s": layer("flow.run_flow").self_s,
        "flow.steps_accepted": accepted,
        "flow.steps_rejected": summary["rejected_steps"],
        "flow.steps_per_s": _ratio(accepted, layer("flow.run_flow").total_s),
        "flow.write_snapshot.ms_per_call": _ratio(write.total_s * 1e3, write.calls),
        "flow.write_snapshot.mb_per_s": _ratio(snap_mib, write.total_s),
        "flow.read_snapshot.ms_per_call": _ratio(read.total_s * 1e3, read.calls),
        "flow.read_snapshot.mb_per_s": _ratio(snap_mib, read.total_s),
        "flow.self_s": group_self.get("flow", 0.0),
        "io.self_s": group_self.get("io", 0.0),
        "measures.time_average.calls": layer("measures.time_average").calls,
        "measures.time_average.self_s": layer("measures.time_average").self_s,
        "measures.ergodic_error_from_measures.self_s":
            layer("measures.ergodic_error_from_measures").self_s,
        "measures.pushforward.us_p50": p50_us("measures.pushforward"),
        # run and analyze each take one diagnostic pass over every snapshot.
        "measures.pushforward.calls_per_snapshot":
            _ratio(layer("measures.pushforward").calls, 2 * snapshots),
        "measures.entropy_report.us_p50": p50_us("measures.entropy_report"),
        "measures.jacobian_det.us_p50": p50_us("flow.jacobian_det"),
        "measures.write_measure.ms_per_call":
            _ratio(layer("measures.write_measure").total_s * 1e3,
                   layer("measures.write_measure").calls),
        "measures.self_s": group_self.get("measures", 0.0),
        "hyperbolic.reduce_points.ns_per_point": _ratio(reduce.total_s * 1e9, points),
        "hyperbolic.reduce_points.points": points,
        "hyperbolic.binning_init.ms": _p50(layer("hyperbolic.binning_init").durations) * 1e3,
        "hyperbolic.self_s": group_self.get("hyperbolic", 0.0),
        "initial.build_initial_state.ms":
            _p50(layer("initial.build_initial_state").durations) * 1e3,
        "cli.run_experiment.self_s": layer("cli.run_experiment").self_s,
        "cli.compute_snapshot_diagnostics.self_s":
            layer("cli.compute_snapshot_diagnostics").self_s,
        "cli.analyze_run.self_s": layer("cli.analyze_run").self_s,
        "cli.self_s": group_self.get("cli", 0.0),
        "trace.overhead_s": wall(traced_rep) - wall(plain),
        "trace.spans": sum(len(r) for r in runs),
    }


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values, q) -> float:
    return percentile(values, q) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def environment(cpus: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "cpus": cpus,
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "MODFLOW_THREADS": THREAD_ENV["MODFLOW_THREADS"],
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; folded onto the recorded seeds")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "moduliflow" / "cli.py").is_file():
        print(f"no moduliflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    # A terminated benchmark still stops its command and removes its files.
    signal.signal(signal.SIGTERM, _terminate)
    cpus = pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    wseed = args.seed % RECORDED_SEEDS
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_ROOT))
    try:
        bench = Bench(workload, wseed, tmp)
        if args.trace:
            samples = {name: [v] for name, v in bench.traced().items()}
        else:
            samples = bench.timed(args.seconds)
        values = {name: statistics.median(v) for name, v in samples.items() if v}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    declared = declared_metrics(bool(args.trace))
    missing = set(declared) - set(values)
    if missing:
        print(f"no samples of {sorted(missing)}: every run failed", file=sys.stderr)
        return 1
    if set(values) != set(declared) or not all(
            METRIC_NAME.fullmatch(name) for name in values):
        print(f"metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(declared)}", file=sys.stderr)
        return 2

    env = environment(cpus)
    print(f"workload {workload.name}  seed {args.seed} (workload seed {wseed})  "
          f"repeats {bench.repeats}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'metric':<46} {'unit':<6} {'median':>12} {'min':>12} {'max':>12} {'n':>3}")
    for name, unit in declared.items():
        v = samples[name]
        print(f"{name:<46} {unit:<6} {values[name]:>12.6g} {min(v):>12.6g} "
              f"{max(v):>12.6g} {len(v):>3}")
    print("unscaled times (s, median of n): " + "  ".join(
        f"{name} {statistics.median(v):.6g} ({len(v)})"
        for name, v in bench.unscaled.items()))
    print(f"reference kernel (s): median {statistics.median(bench.ref_s):.6g}  "
          f"min {min(bench.ref_s):.6g}  max {max(bench.ref_s):.6g}  "
          f"nominal {REF_NOMINAL_S}")
    fail_frac = bench.failed / bench.attempted
    print(f"{'fail_frac':<46} {'1':<6} {fail_frac:>12.6g} {'':>12} {'':>12} "
          f"{bench.attempted:>3}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
