"""Time everything a run does before its first step, in a fresh interpreter.

usage: python perfbench/setup_probe.py CONFIG_JSON

CONFIG_JSON holds the moduliflow config of the workload's run, with its seed
as a config value.  The probe imports numpy and moduliflow, then does what
run_experiment does before stepping: parse_config, the binning, the
reference measure and the initial state.  It prints the elapsed seconds.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402

import numpy as np  # noqa: E402

import moduliflow  # noqa: E402,F401
from moduliflow.cli import parse_config  # noqa: E402
from moduliflow.hyperbolic import FundamentalDomainBinning  # noqa: E402
from moduliflow.initial import build_initial_state  # noqa: E402
from moduliflow.measures import reference_measure  # noqa: E402
from moduliflow.mesh import DomainGrid  # noqa: E402


def main(path: str) -> None:
    with open(path) as fh:
        config = parse_config(fh.read())
    grid = DomainGrid(config.grid.n1, config.grid.n2)
    binning = FundamentalDomainBinning(
        config.binning.n_x, config.binning.n_y, config.binning.y_max
    )
    reference_measure(binning)
    build_initial_state(grid, config.initial, np.random.default_rng(config.seed))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
