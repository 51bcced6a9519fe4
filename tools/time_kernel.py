"""Time the flow's kernel, one edge pass and one step, per call at several
grid sizes, on the working tree and optionally on another revision.

    python3 tools/time_kernel.py [REV]

Each side, the working tree's src/ and, when REV is given, REV's src/
(extracted with `git archive` as tools/compare_outputs.py does), is timed
in 21 rounds that alternate which side goes first.  In a round each side
runs one fresh worker process with the benchmark's single-thread
environment, pinned to one CPU, the same one for both.  At each size, 32²,
64², 128² and 256², the worker makes 100 pairs of calls on the default
config's initial state, stepped once into the workspace's ring: one
`flow._edge_pass` on it with tau written into a tau buffer, then one
`flow.step` with the stability cap's dt written into a field buffer, as
run_flow makes them, each timed on its own.  A revision whose workspace
has no ring is timed as its run_flow makes them: the pass and the step
on new arrays.  A fresh process per round matters at 128² and up, where
the same code's pass time moves by 20-30% from one process to the next as
well as over time within one.  Printed per size and side: µs per call of
each, min and median over every call of every round, and ns per node of
the medians.  Exit code 0 when every worker answered, 1 when one failed, 2
when REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import ROOT, THREAD_ENV, extract_src  # noqa: E402

KERNELS = ("pass", "step")
ROUNDS, SIZES, CALLS = 21, (32, 64, 128, 256), 100


def worker(cpu: int, calls: int, *sizes: int) -> int:
    """Print one JSON line of per-call nanoseconds,
    {"n": {"pass": [...], "step": [...]}, ...}, for each n x n grid."""
    os.sched_setaffinity(0, {cpu})
    from moduliflow import flow
    from moduliflow.initial import build_initial_state
    from moduliflow.mesh import DomainGrid

    out = {}
    for n in sizes:
        state = build_initial_state(DomainGrid(n, n), {"kind": "sinusoidal"})
        ws = flow._EdgeWorkspace(state.grid.shape)
        if hasattr(ws, "ring"):
            # The state and its tau in one slot of the ring, the pass's tau
            # and the step's fields written into the other.
            tangent = flow._edge_pass(state, ws, ws.taus[1])[1]
            state = flow.step(state, flow.cfl_dt_max(state), tangent, ws.ring[1])
            tangent = flow._edge_pass(state, ws, ws.taus[1])[1]
            ring = {"tau": ws.taus[0]}, {"out": ws.ring[0]}
        else:
            tangent, ring = flow._edge_pass(state, ws)[1], ({}, {})
        dt = flow.cfl_dt_max(state)
        times = out[n] = {kernel: [] for kernel in KERNELS}
        for _ in range(calls):
            start = time.perf_counter_ns()
            flow._edge_pass(state, ws, **ring[0])
            middle = time.perf_counter_ns()
            flow.step(state, dt, tangent, **ring[1])
            end = time.perf_counter_ns()
            times["pass"].append(middle - start)
            times["step"].append(end - middle)
    print(json.dumps(out))
    return 0


def measure(sources: dict, cpu: int) -> dict:
    """{(side, n, kernel): nanoseconds of every call}; RuntimeError with
    the worker's stderr when one fails."""
    samples = {(side, n, kernel): [] for side in sources for n in SIZES for kernel in KERNELS}
    order = list(sources)
    command = [sys.executable, __file__, "--worker", str(cpu), str(CALLS), *map(str, SIZES)]
    for r in range(ROUNDS):
        for side in order if r % 2 == 0 else order[::-1]:
            env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(sources[side]))
            done = subprocess.run(command, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"the worker for {side} failed:\n{done.stderr}")
            for n, times in json.loads(done.stdout).items():
                for kernel, ns in times.items():
                    samples[side, int(n), kernel] += ns
    return samples


def report(samples: dict, sides: list[str]) -> None:
    print(f"µs per call, min and median of {ROUNDS * CALLS} calls; ns per node of the median")
    print(f"{'size':>6} {'side':>12} {'pass min':>9} {'pass p50':>9} {'ns/node':>8}"
          f" {'step min':>9} {'step p50':>9} {'ns/node':>8}")
    for n in SIZES:
        for side in sides:
            cells = []
            for kernel in KERNELS:
                ns = samples[side, n, kernel]
                median = statistics.median(ns)
                cells += [f"{min(ns) / 1e3:9.1f}", f"{median / 1e3:9.1f}",
                          f"{median / (n * n):8.2f}"]
            print(f"{f'{n}²':>6} {side:>12} " + " ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to time beside the working tree")
    # --worker CPU CALLS N...: the worker that measure() starts.
    parser.add_argument("--worker", type=int, nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(*args.worker)
    cpu = min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="time-kernel-") as tmp:
        sources = {"tree": ROOT / "src"}
        if args.rev:
            try:
                sources = {args.rev: extract_src(args.rev, Path(tmp)), **sources}
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
        try:
            samples = measure(sources, cpu)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    report(samples, list(sources))
    return 0


if __name__ == "__main__":
    sys.exit(main())
