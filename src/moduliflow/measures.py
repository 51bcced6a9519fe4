"""Pushforward measures on the modular surface and entropy diagnostics.

A map state pushes the uniform node measure of its grid forward to the
fundamental domain: every node's image is reduced and its weight w = h1*h2
is deposited in the containing histogram bin.  Against those histograms
this module computes the normalised hyperbolic reference measure, densities
(Radon-Nikodym ratios), relative entropy sum(mu log(mu/nu)), weak-* pairings
with smooth observables, trapezoid time averages, equidistribution error
series, and the degenerate-set / tail diagnostics bundled in EntropyReport,
for a stack of states at once (state_masses, state_reports) or for one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import MapState, jacobian_det
from .hyperbolic import FundamentalDomainBinning, reduce_points
from .mesh import DomainGrid

MASS_TOL = 1e-12


class BinningMismatchError(ValueError):
    """Two measures were combined across incompatible binnings."""


def _check_masses(masses: np.ndarray):
    """A mass vector must be finite, nonnegative and of total 1 within MASS_TOL."""
    if np.any(masses < 0.0) or not np.all(np.isfinite(masses)):
        raise ValueError("masses must be finite and nonnegative")
    total = float(masses.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"total mass {total} deviates from 1 beyond {MASS_TOL}")


@dataclass
class PushforwardMeasure:
    """Probability histogram over a binning; masses[-1] is the overflow bin."""

    binning: FundamentalDomainBinning
    masses: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.binning.n_bins + 1,):
            raise ValueError(
                f"mass vector has shape {self.masses.shape}, expected "
                f"({self.binning.n_bins + 1},)"
            )
        _check_masses(self.masses)


@dataclass
class ReferenceMeasure:
    """Normalised hyperbolic area measure on the binning (full support)."""

    binning: FundamentalDomainBinning
    masses: np.ndarray
    raw_total: float

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if np.any(self.masses <= 0.0):
            raise ValueError("reference measure must have full support")


def reference_measure(binning: FundamentalDomainBinning) -> ReferenceMeasure:
    """Hyperbolic area of each bin, normalised to a probability measure.
    The raw total approximates the fundamental-domain area pi/3."""
    raw = np.concatenate([binning.raw_mass, [binning.overflow_mass]])
    total = float(raw.sum())
    return ReferenceMeasure(binning, raw / total, total)


def _check_match(a, b):
    if not a.binning.matches(b.binning):
        raise BinningMismatchError(
            f"binnings differ: {a.binning.n_x}x{a.binning.n_y}/y_max="
            f"{a.binning.y_max} vs {b.binning.n_x}x{b.binning.n_y}/y_max="
            f"{b.binning.y_max}"
        )


def state_masses(fields: np.ndarray, grid: DomainGrid,
                 binning: FundamentalDomainBinning) -> np.ndarray:
    """The pushforward masses of each state of fields, a (C, 2, n1, n2) stack
    on grid, as a (C, n_bins + 1) array, each row checked as
    PushforwardMeasure checks it.  Every step is elementwise or a count, so
    a row has the same bits whatever the stack."""
    xf, yf = reduce_points(fields[:, 0], fields[:, 1])
    n = binning.n_bins + 1
    # State c's bins are offset by c * n, so that one bincount counts all.
    idx = binning.bin_index_array(xf, yf) + n * np.arange(len(fields)).reshape(-1, 1, 1)
    counts = np.bincount(idx.ravel(), minlength=n * len(fields)).astype(float)
    masses = counts.reshape(-1, n) * grid.w
    for row in masses:
        _check_masses(row)
    return masses


def pushforward(state: MapState, binning: FundamentalDomainBinning) -> PushforwardMeasure:
    """Histogram of the reduced node images, each node carrying weight w:
    the one-state case of state_masses."""
    masses = state_masses(state.fields[np.newaxis], state.grid, binning)
    return PushforwardMeasure(binning, masses[0], state.t)


def entropy_from_masses(mu_masses, nu_masses) -> float:
    """Relative entropy H(mu | nu): the sum over bins of mu * log(mu / nu),
    with 0 log 0 = 0; requires nu > 0 wherever mu > 0."""
    mu = np.asarray(mu_masses, dtype=float)
    nu = np.asarray(nu_masses, dtype=float)
    pos = mu > 0.0
    if np.any(nu[pos] <= 0.0):
        raise ValueError("mu puts mass where nu vanishes; entropy is infinite")
    return float(np.sum(mu[pos] * np.log(mu[pos] / nu[pos])))


def _pairing(masses, live, overflow_value) -> float:
    return float(np.dot(masses[:-1], live)) + float(masses[-1]) * overflow_value


def _times(times, t_end: float | None = None) -> np.ndarray:
    """times as an array: at least one, finite, nondecreasing, none beyond t_end."""
    times = np.array(times, dtype=float)
    if not len(times):
        raise ValueError("a measure series needs at least one measure")
    if not np.all(np.isfinite(times)):
        raise ValueError("measure times must be finite")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("measures must be sorted by time")
    if t_end is not None and times[-1] > t_end + 1e-9 * max(1.0, abs(t_end)):
        raise ValueError(f"measure at t = {times[-1]} lies beyond t_end = {t_end}")
    return times


def prefix_averages(times, masses):
    """The one walk of the time averages: yield the masses of the trapezoid
    average of the first k measures, k = 1 .. len(times), measure k at
    times[k] with the k-th vector that the iterable masses yields, drawn
    when the walk reaches it.  The first is the first measure's own masses;
    later ones renormalise one running integral to total mass exactly 1
    (while the prefix spans no time, the plain mean).  O(bins) memory."""
    masses = iter(masses)
    cur = average = next(masses)
    yield average
    integral, plain = np.zeros_like(cur), cur.copy()
    for k in range(1, len(times)):
        prev, cur = cur, next(masses)
        integral += 0.5 * (times[k] - times[k - 1]) * (prev + cur)
        if times[k] > times[0]:
            average = integral / integral.sum()
        else:
            plain += cur
            average = plain / plain.sum()
        yield average


def time_average(measures, t_end: float | None = None) -> PushforwardMeasure:
    """Trapezoid-in-time average of a sorted list of measures of one
    binning, renormalised to total mass exactly 1, at the last measure's
    time: the last of their prefix_averages.  At least two measures are
    required, at finite times, none beyond a given t_end; identical
    timestamps degrade gracefully to the plain mean."""
    if len(measures) < 2:
        raise ValueError("time averaging needs at least two measures")
    times = _times([m.t for m in measures], t_end)
    for m in measures[1:]:
        _check_match(measures[0], m)
    *_, average = prefix_averages(times, (m.masses for m in measures))
    return PushforwardMeasure(measures[0].binning, average, float(times[-1]))


def ergodic_error_from_measures(times, masses, fs,
                                reference: ReferenceMeasure) -> np.ndarray:
    """|time-average pairing - reference pairing| per prefix of a series of
    measures, as a (len(times), len(fs)) array with one column per
    observable: measures at times, finite and nondecreasing, with the mass
    vectors that the iterable masses yields, on the reference's binning.

    Entry [k, j] compares the trapezoid average of the measures 0..k (row 0
    is the bare first measure) against the hyperbolic reference through
    observable fs[j].  Reported as a diagnostic series; no decay is
    asserted.  Each observable is evaluated at the bin mass centroids once,
    and takes its declared overflow_value (0 if none) on the overflow bin.
    The averages are prefix_averages', so every pairing is bit-identical to
    the binned pairing of time_average of the prefix.
    """
    times = _times(times)
    b = reference.binning
    on_bins = [(np.asarray(f.value(b.center_x, b.center_y), dtype=float),
                getattr(f, "overflow_value", 0.0)) for f in fs]
    targets = [_pairing(reference.masses, *f_bins) for f_bins in on_bins]
    errors = np.empty((len(times), len(on_bins)))
    for k, average in enumerate(prefix_averages(times, masses)):
        if average.shape != reference.masses.shape:
            raise BinningMismatchError(f"masses of shape {average.shape} against the reference")
        errors[k] = [abs(_pairing(average, *f_bins) - target)
                     for f_bins, target in zip(on_bins, targets)]
    return errors


@dataclass
class EntropyReport:
    """Snapshot diagnostics: relative entropy, density sup, the mass carried
    by bins with density above the threshold, and the fraction of nodes with
    a numerically degenerate Jacobian."""

    t: float
    entropy: float
    rho_max: float
    tail_mass: float
    degenerate_fraction: float


def state_reports(fields: np.ndarray, grid: DomainGrid, masses: np.ndarray,
                  nu: ReferenceMeasure, density_threshold: float,
                  jacobian_threshold: float) -> list:
    """EntropyReport's entropy, rho_max, tail_mass and degenerate_fraction,
    one tuple per state of fields, a (C, 2, n1, n2) stack on grid, whose
    state_masses on nu's binning are masses.  The density rho = mu / nu and
    its maxima are formed for the stack at once; each state's sums reduce
    its own row, so a tuple has the same bits whatever the stack."""
    if not density_threshold > 1.0:
        raise ValueError(f"density threshold must exceed 1, got {density_threshold}")
    jac = jacobian_det(fields, grid)
    degenerate = np.mean(np.abs(jac) < jacobian_threshold, axis=(1, 2))
    rho = masses / nu.masses
    return [(entropy_from_masses(mu, nu.masses), rho_max,
             float(mu[rho_mu > density_threshold].sum()), fraction)
            for mu, rho_mu, rho_max, fraction
            in zip(masses, rho, rho.max(axis=1).tolist(), degenerate.tolist())]


def entropy_report(
    state: MapState,
    mu: PushforwardMeasure,
    nu: ReferenceMeasure,
    density_threshold: float,
    jacobian_threshold: float,
) -> EntropyReport:
    """Assemble the entropy/degeneracy diagnostics for one state, given its
    pushforward mu: the one-state case of state_reports."""
    _check_match(mu, nu)
    (report,) = state_reports(state.fields[np.newaxis], state.grid, mu.masses[np.newaxis],
                              nu, density_threshold, jacobian_threshold)
    return EntropyReport(state.t, *report)


def measure_rows(masses: np.ndarray) -> np.ndarray:
    """The one sparse format of measures on one binning: float64 rows
    (j, bin, mass) of an (S, n_bins + 1) array of mass vectors, for each
    vector j in order one row per bin of nonzero mass, in increasing bin
    order, the overflow bin being n_bins.  A zero of either sign has no
    row."""
    j, bins = np.nonzero(masses)
    return np.column_stack((j, bins, masses[j, bins]))


def write_measure(rows: np.ndarray, path) -> None:
    """Save rows, the measure_rows of some measures, as the .npy file at path."""
    np.save(path, rows)
