"""Check that the working tree's run directories are byte-identical to those
of another revision.

    python3 tools/compare_outputs.py REV

REV (any git revision, such as HEAD~) is extracted with `git archive` into a
temporary directory, so the repository itself is left as it is.  From that
copy and from the working tree's src/, each case below is run with the
benchmark's single-thread environment: the default config, the snap400
workload of perfbench/run.py at seeds 0 to 3, and two short random runs on
grids whose h is not a power of two, 48² and 24×20, where the edge pass
divides by h and scales tau by 1/2 (the others are on 64² and 32², where
h is a power of two).  The two run directories of a case are compared
with `diff -r`, then `analyze` audits each; each side's `run` and
`analyze` peak RSS are printed beside them.  Exit code 0 when every case
is identical and every audit prints PASS, 1 otherwise, 2 when REV cannot
be extracted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/run.py is read, not changed: no bytecode is cached beside it.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import THREAD_ENV, WORKLOADS  # noqa: E402  (perfbench/run.py)


def extract_src(rev: str, dest: Path) -> Path:
    """Extract rev's src/ into dest with `git archive` and return the copy
    of src/; ValueError with git's message when rev cannot be read."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        raise ValueError(archive.stderr.decode().strip())
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def cases() -> list[tuple[str, dict | None, int | None]]:
    """(name, config or None for the defaults, seed or None) of each run."""
    snap = WORKLOADS["snap400"]
    random = {"kind": "random", "amp_u": 0.6, "amp_v": 0.6}
    return [("default", None, None)] + [
        (f"snap400-seed{s}", snap.config, s) for s in range(4)] + [
        (f"random{n1}x{n2}", {"grid": {"n1": n1, "n2": n2}, "initial": random,
                              "t_final": 0.05}, 0) for n1, n2 in ((48, 48), (24, 20))]


# Runs argv, then writes its ru_maxrss in KiB, read with os.wait4 as
# perfbench/run.py reads peak_rss_mb, to the file named first.  On Linux a
# child's ru_maxrss starts from the RSS of the process that spawned it, so
# this small process spawns the command, not this one, which loaded numpy.
LAUNCHER = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[2:]); "
            "_, status, usage = os.wait4(p.pid, 0); "
            "p.returncode = os.waitstatus_to_exitcode(status); "
            "open(sys.argv[1], 'w').write(str(usage.ru_maxrss)); sys.exit(p.returncode)")


def moduliflow(src: Path, *args: str) -> tuple[subprocess.CompletedProcess, float]:
    """Run moduliflow from src with args: the finished process and its peak
    RSS in MiB."""
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(prefix="compare-outputs-rss-") as tmp:
        maxrss = Path(tmp) / "maxrss"
        done = subprocess.run([sys.executable, "-c", LAUNCHER, str(maxrss), sys.executable,
                               "-m", "moduliflow.cli", *args],
                              env=env, capture_output=True, text=True)
        return done, int(maxrss.read_text()) / 1024.0


def run_case(src: Path, out: Path, config: dict | None,
             seed: int | None) -> tuple[str | None, float]:
    """Run one case into out: the problem as text, or None, and the run's
    peak RSS in MiB."""
    args = ["run", "--out", str(out)]
    if config is not None:
        path = out.with_suffix(".json")
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    if seed is not None:
        args += ["--seed", str(seed)]
    done, peak = moduliflow(src, *args)
    problem = f"run exited {done.returncode}: {done.stderr.strip()}" if done.returncode else None
    return problem, peak


def compare(name: str, outs: dict) -> bool:
    """diff -r the two run directories of a case and audit each; print one
    line, with each side's run and analyze peak RSS, and return whether all
    was well.  outs maps each side's label to (run directory, src, run peak
    RSS)."""
    (old, *_), (new, *_) = outs.values()
    diff = subprocess.run(["diff", "-r", str(old), str(new)], capture_output=True, text=True)
    summary = json.loads((new / "summary.json").read_text())
    line = [f"{name}: {summary['termination']}, {summary['accepted_steps']} accepted steps",
            f"diff -r {'empty' if diff.returncode == 0 else 'NOT empty'}"]
    ok = diff.returncode == 0
    peaks = {"run": {label: peak for label, (*_, peak) in outs.items()}, "analyze": {}}
    for label, (out, src, _) in outs.items():
        audit, peaks["analyze"][label] = moduliflow(src, "analyze", "--run", str(out))
        passed = audit.returncode == 0 and "analysis PASS" in audit.stdout
        line.append(f"analyze ({label}) {'PASS' if passed else 'FAILED'}")
        ok &= passed
    line += [f"{command} peak RSS " + ", ".join(f"{label} {peak:.2f} MiB"
                                               for label, peak in by_side.items())
             for command, by_side in peaks.items()]
    print(", ".join(line))
    if diff.returncode != 0:
        print(*diff.stdout.splitlines()[:10], diff.stderr, sep="\n", end="")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        try:
            sources = {args.rev: extract_src(args.rev, tmp / "rev"), "tree": ROOT / "src"}
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        for name, config, seed in cases():
            outs = {}
            for k, (label, src) in enumerate(sources.items()):
                out = tmp / f"{name}-{k}"
                problem, peak = run_case(src, out, config, seed)
                if problem:
                    print(f"{name} ({label}): {problem}")
                    ok = False
                else:
                    outs[label] = (out, src, peak)
            if len(outs) == len(sources):
                ok &= compare(name, outs)
    print("identical, every analysis PASS" if ok else "DIFFERENT or FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
