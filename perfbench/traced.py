"""Run one moduliflow command with spans around each layer's public functions.

usage: python perfbench/traced.py SPANS_JSON RUN_ID -- <moduliflow arguments>

The wrappers replace module attributes in this process only, and the command
runs in-process through moduliflow.cli.main.  The spans are written to
SPANS_JSON when the command returns.
"""

import importlib
import json
import sys
from pathlib import Path

from spans import Recorder

# (module, attribute, span name).  A span is named after the function's home
# module whichever binding was called; measures binds reduce_points and
# jacobian_det at import, so those bindings are wrapped as well.
# flow.cfl_dt_max is left unwrapped: it stays in the self time of whichever of
# run_flow and step calls it.
TARGETS = [
    ("flow", "tension_field", "flow.tension_field"),
    ("flow", "energy", "flow.energy"),
    ("flow", "dissipation_rate", "flow.dissipation_rate"),
    ("flow", "step", "flow.step"),
    ("flow", "run_flow", "flow.run_flow"),
    ("flow", "write_snapshot", "flow.write_snapshot"),
    ("flow", "read_snapshot", "flow.read_snapshot"),
    ("flow", "jacobian_det", "flow.jacobian_det"),
    ("hyperbolic", "reduce_points", "hyperbolic.reduce_points"),
    ("hyperbolic.FundamentalDomainBinning", "__init__", "hyperbolic.binning_init"),
    ("measures", "reduce_points", "hyperbolic.reduce_points"),
    ("measures", "jacobian_det", "flow.jacobian_det"),
    ("measures", "pushforward", "measures.pushforward"),
    ("measures", "entropy_report", "measures.entropy_report"),
    ("measures", "time_average", "measures.time_average"),
    ("measures", "ergodic_error_from_measures", "measures.ergodic_error_from_measures"),
    ("measures", "reference_measure", "measures.reference_measure"),
    ("measures", "write_measure", "measures.write_measure"),
    ("initial", "build_initial_state", "initial.build_initial_state"),
    ("initial", "read_snapshot", "flow.read_snapshot"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "compute_snapshot_diagnostics", "cli.compute_snapshot_diagnostics"),
    ("cli", "analyze_run", "cli.analyze_run"),
]


def install(recorder: Recorder) -> None:
    for owner_path, attribute, name in TARGETS:
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"moduliflow.{module}")
        if cls:
            owner = getattr(owner, cls)
        recorder.patch(owner, attribute, name)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, args = argv[0], argv[1], argv[3:]
    recorder = Recorder(run_id)
    install(recorder)
    from moduliflow import cli

    code = cli.main(args)
    Path(spans_path).write_text(json.dumps(recorder.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
