"""Time the flow's kernel, one edge pass and one step, per call at several
grid sizes, on the working tree and optionally on another revision.

    python3 tools/time_kernel.py [REV]

Each side, the working tree's src/ and, when REV is given, REV's src/
(extracted with `git archive` as tools/compare_outputs.py does), is timed
in 21 rounds that alternate which side goes first.  In a round each side
runs one fresh worker process with the benchmark's single-thread
environment, pinned to one CPU, the same one for both.  At each size, 32²,
64², 128² and 256², the worker makes 100 pairs of calls on the default
config's initial state, stepped once from one slot of the workspace's
ring into the other: one `flow._edge_pass` on the stepped slot, which
writes tau / k into that slot's tau buffer, then one step as run_flow
makes it, `flow._euler` with the stability cap's dt (`flow._cap`, at the
default safety 0.5) times k on that buffer into the first slot and the
minimum over the flat view of its v, each timed on its own.  k is the
power of two the pass takes out of tau, the workspace's `k`; a revision
whose workspace has no `k` writes tau itself, and is stepped with k = 1.
A revision is timed only if its workspace binds the pass on each slot
as a table of calls, `calls`, and its pass takes the workspace and the
slot.
A fresh process per round spreads the rounds over processes and over
time: on a 2-CPU VM, blocks of 200 passes at 128² still moved by up to
30% over a second, within one process as between processes, while three
runs of the tool gave pass medians within 2% of each other at 128² and
256².  The workspace's offset from a 64-byte boundary moves the pass by
about 20% at 64², so it is printed with each time.  Printed per size and
side: the ring's offset from a 64-byte boundary in bytes, one per
distinct value over the rounds; the number of calls in the pass's table
and a digest of its layout (see `layout`), so that two revisions can be
seen to bind the same table; µs per call of each kernel, min and median
over every call of every round; and ns per node of the medians.
Exit code 0 when every worker answered, 1 when one failed, 2 when REV
cannot be extracted.
"""

from __future__ import annotations

import argparse
import hashlib
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


def layout(ws) -> str:
    """The first 8 hex digits of a SHA-256 of the layout of ws's pass on
    slot 1: for each call in order its ufunc's name and, for each operand,
    its offset from ws.buffer in floats, its shape and its strides, or a
    0-d constant's value; "-" when the workspace has no buffer."""
    buffer = getattr(ws, "buffer", None)
    if buffer is None:
        return "-"

    def operand(x):
        if x.ndim == 0:
            return x.item()
        return (x.ctypes.data - buffer.ctypes.data) // 8, x.shape, x.strides

    text = repr([(op.__name__, *map(operand, call)) for op, *call in ws.calls[1]])
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def worker(cpu: int, calls: int, *sizes: int) -> int:
    """Print one JSON line of per-call nanoseconds, the ring's offset from
    a 64-byte boundary, the pass table's length and its layout, {"n":
    {"pass": [...], "step": [...], "offset": bytes, "calls": count,
    "table": digest}, ...}, for each n x n grid."""
    os.sched_setaffinity(0, {cpu})
    import numpy as np
    from moduliflow import flow
    from moduliflow.initial import build_initial_state
    from moduliflow.mesh import DomainGrid

    out = {}
    for n in sizes:
        state = build_initial_state(DomainGrid(n, n), {"kind": "sinusoidal"})
        ws = flow._EdgeWorkspace(state.grid.shape)
        k = getattr(ws, "k", 1.0)
        np.copyto(ws.ring[0], state.fields)
        flow._edge_pass(ws, 0)
        flow._euler(ws.ring[0], flow._cap(state.grid, state.v_min, 0.5) * k, ws.taus[0],
                    ws.ring[1])
        flow._edge_pass(ws, 1)
        dt = flow._cap(state.grid, float(ws.ring[1][1].min()), 0.5) * k

        def step(fields=ws.ring[1], dt=dt, tau=ws.taus[1], candidate=ws.ring[0],
                 v=ws.ring[0][1].ravel()):
            flow._euler(fields, dt, tau, candidate)
            np.minimum.reduce(v).item()

        times = out[n] = {kernel: [] for kernel in KERNELS}
        times["offset"], times["calls"] = ws.ring[0].ctypes.data % 64, len(ws.calls[1])
        times["table"] = layout(ws)
        for _ in range(calls):
            start = time.perf_counter_ns()
            flow._edge_pass(ws, 1)
            middle = time.perf_counter_ns()
            step()
            end = time.perf_counter_ns()
            times["pass"].append(middle - start)
            times["step"].append(end - middle)
    print(json.dumps(out))
    return 0


def measure(sources: dict, cpu: int) -> dict:
    """{(side, n, kernel): nanoseconds of every call, (side, n): the set of
    the ring's offsets from a 64-byte boundary, (side, n, "calls") and
    (side, n, "table"): the sets of the pass table's lengths and layout
    digests}; RuntimeError with the worker's stderr when one fails."""
    samples = {(side, n, kernel): [] for side in sources for n in SIZES for kernel in KERNELS}
    samples.update({key: set() for side in sources for n in SIZES
                    for key in ((side, n), (side, n, "calls"), (side, n, "table"))})
    order = list(sources)
    command = [sys.executable, __file__, "--worker", str(cpu), str(CALLS), *map(str, SIZES)]
    for r in range(ROUNDS):
        for side in order if r % 2 == 0 else order[::-1]:
            env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(sources[side]))
            done = subprocess.run(command, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise RuntimeError(f"the worker for {side} failed:\n{done.stderr}")
            for n, times in json.loads(done.stdout).items():
                samples[side, int(n)].add(times.pop("offset"))
                samples[side, int(n), "calls"].add(times.pop("calls"))
                samples[side, int(n), "table"].add(times.pop("table"))
                for kernel, ns in times.items():
                    samples[side, int(n), kernel] += ns
    return samples


def report(samples: dict, sides: list[str]) -> None:
    print(f"µs per call, min and median of {ROUNDS * CALLS} calls; ns per node of the median;"
          " the ring's offset from a 64-byte boundary, bytes; the pass table's calls and"
          " layout digest")
    print(f"{'size':>6} {'side':>12} {'offset':>7} {'calls':>5} {'table':>8}"
          f" {'pass min':>9} {'pass p50':>9}"
          f" {'ns/node':>8} {'step min':>9} {'step p50':>9} {'ns/node':>8}")
    for n in SIZES:
        for side in sides:
            cells = []
            for kernel in KERNELS:
                ns = samples[side, n, kernel]
                median = statistics.median(ns)
                cells += [f"{min(ns) / 1e3:9.1f}", f"{median / 1e3:9.1f}",
                          f"{median / (n * n):8.2f}"]
            offsets, calls, tables = (
                ",".join(map(str, sorted(samples[key])))
                for key in ((side, n), (side, n, "calls"), (side, n, "table")))
            print(f"{f'{n}²':>6} {side:>12} {offsets:>7} {calls:>5} {tables:>8} "
                  + " ".join(cells))


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
