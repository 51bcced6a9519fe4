"""Gradient flow of torus maps into the modular surface.

Maps from the flat unit 2-torus into the moduli space of unit-area flat
tori (the modular surface, i.e. the hyperbolic plane modulo SL(2, Z)) are
evolved by the harmonic-map heat flow.  The package tracks the Dirichlet
energy and its dissipation, reduces map values into the standard
fundamental domain, bins the pushforward of Lebesgue measure against the
hyperbolic area measure, and reports relative entropy and weak-*
equidistribution diagnostics.

MODFLOW_THREADS=<n> caps the BLAS/OpenMP thread pools.  The pools read their
variables when numpy loads, so the cap is exported here, before any
submodule imports numpy; variables already set are left alone.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("MODFLOW_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

# Submodules import numpy, so they come after the thread cap.
from .flow import (
    AbortedRunError,
    FlowParams,
    FlowTrajectory,
    MapState,
    StepRejectedError,
    TangentField,
    TargetEscapeError,
    cfl_dt_max,
    chain_rule_residual,
    dissipation_rate,
    energy,
    jacobian_det,
    read_snapshot,
    run_flow,
    step,
    tension_field,
    write_snapshot,
)
from .hyperbolic import (
    FUNDAMENTAL_DOMAIN_AREA,
    FUNDAMENTAL_DOMAIN_Y_MIN,
    DegenerateInputError,
    FundamentalDomainBinning,
    ModularMatrix,
    ReductionError,
    UpperHalfPoint,
    hyperbolic_laplacian_fd,
    mobius_apply,
    mobius_apply_xy,
    reduce_points,
    reduce_to_fundamental_domain,
)
from .initial import build_initial_state, smooth_random_field
from .measures import (
    BinningMismatchError,
    EntropyReport,
    PushforwardMeasure,
    ReferenceMeasure,
    entropy_report,
    pushforward,
    radon_nikodym,
    reference_measure,
    relative_entropy,
    time_average,
    write_measure,
)
from .mesh import DomainGrid
from .testfunctions import BumpFunction

__version__ = "0.1.0"

__all__ = [
    "AbortedRunError",
    "BinningMismatchError",
    "BumpFunction",
    "DegenerateInputError",
    "DomainGrid",
    "EntropyReport",
    "FUNDAMENTAL_DOMAIN_AREA",
    "FUNDAMENTAL_DOMAIN_Y_MIN",
    "FlowParams",
    "FlowTrajectory",
    "FundamentalDomainBinning",
    "MapState",
    "ModularMatrix",
    "PushforwardMeasure",
    "ReductionError",
    "ReferenceMeasure",
    "StepRejectedError",
    "TangentField",
    "TargetEscapeError",
    "UpperHalfPoint",
    "build_initial_state",
    "cfl_dt_max",
    "chain_rule_residual",
    "dissipation_rate",
    "energy",
    "entropy_report",
    "hyperbolic_laplacian_fd",
    "jacobian_det",
    "mobius_apply",
    "mobius_apply_xy",
    "pushforward",
    "radon_nikodym",
    "read_snapshot",
    "reduce_points",
    "reduce_to_fundamental_domain",
    "reference_measure",
    "relative_entropy",
    "run_flow",
    "smooth_random_field",
    "step",
    "tension_field",
    "time_average",
    "write_measure",
    "write_snapshot",
]
