"""Pushforward measures on the modular surface and entropy diagnostics.

A map state pushes the uniform node measure of its grid forward to the
fundamental domain: every node's image is reduced and its weight w = h1*h2
is deposited in the containing histogram bin.  Against those histograms
this module computes the normalised hyperbolic reference measure, densities
(Radon-Nikodym ratios), relative entropy sum(mu log(mu/nu)), weak-* pairings
with smooth observables, trapezoid time averages, equidistribution error
series, and the degenerate-set / tail diagnostics bundled in EntropyReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import MapState, jacobian_det
from .hyperbolic import FundamentalDomainBinning, reduce_points

MASS_TOL = 1e-12


class BinningMismatchError(ValueError):
    """Two measures were combined across incompatible binnings."""


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
        if np.any(self.masses < 0.0) or not np.all(np.isfinite(self.masses)):
            raise ValueError("masses must be finite and nonnegative")
        total = float(self.masses.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total} deviates from 1 beyond {MASS_TOL}")


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


def pushforward(state: MapState, binning: FundamentalDomainBinning) -> PushforwardMeasure:
    """Histogram of the reduced node images, each node carrying weight w."""
    xf, yf = reduce_points(state.u, state.v)
    idx = binning.bin_index_array(xf.ravel(), yf.ravel())
    counts = np.bincount(idx, minlength=binning.n_bins + 1).astype(float)
    return PushforwardMeasure(binning, counts * state.grid.w, state.t)


def radon_nikodym(mu: PushforwardMeasure, nu: ReferenceMeasure) -> np.ndarray:
    """Density of mu against nu, bin by bin (nu has full support)."""
    _check_match(mu, nu)
    return mu.masses / nu.masses


def entropy_from_masses(mu_masses, nu_masses) -> float:
    """sum over bins of mu * log(mu / nu), with 0 log 0 = 0.

    Raw-array core shared by relative_entropy and the analytic test cases;
    requires nu > 0 wherever mu > 0.
    """
    mu = np.asarray(mu_masses, dtype=float)
    nu = np.asarray(nu_masses, dtype=float)
    pos = mu > 0.0
    if np.any(nu[pos] <= 0.0):
        raise ValueError("mu puts mass where nu vanishes; entropy is infinite")
    return float(np.sum(mu[pos] * np.log(mu[pos] / nu[pos])))


def relative_entropy(mu: PushforwardMeasure, nu: ReferenceMeasure) -> float:
    """Relative entropy H(mu | nu) >= 0 (up to rounding of the mass totals)."""
    _check_match(mu, nu)
    return entropy_from_masses(mu.masses, nu.masses)


def _pairing(masses, live, overflow_value) -> float:
    return float(np.dot(masses[:-1], live)) + float(masses[-1]) * overflow_value


class MeasureSeries:
    """Measures of one binning at finite, nondecreasing times.  Every
    average is read from one running trapezoid integral over the series,
    so the averages of all its prefixes cost O(len * bins) time and
    O(bins) memory together.

    measures keeps the measures themselves, in order.  A t_end, when given,
    bounds the last time.
    """

    def __init__(self, measures, t_end: float | None = None):
        if not measures:
            raise ValueError("a measure series needs at least one measure")
        times = np.array([m.t for m in measures], dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("measure times must be finite")
        if np.any(np.diff(times) < 0.0):
            raise ValueError("measures must be sorted by time")
        if t_end is not None and times[-1] > t_end + 1e-9 * max(1.0, abs(t_end)):
            raise ValueError(f"measure at t = {times[-1]} lies beyond t_end = {t_end}")
        for m in measures[1:]:
            _check_match(measures[0], m)
        self.measures = list(measures)
        self.binning = measures[0].binning
        self.times = times

    def __len__(self) -> int:
        return len(self.times)

    def prefix_averages(self):
        """Yield the masses of the trapezoid-in-time average of the first k
        measures, for k = 1 .. len: the first measure's own masses, then the
        running integral renormalised to total mass exactly 1.  A prefix
        spanning no time yields the plain mean."""
        masses, times = self.measures[0].masses, self.times
        average = masses
        yield average
        integral, plain = np.zeros_like(masses), masses.copy()
        for k in range(1, len(self)):
            prev, masses = masses, self.measures[k].masses
            integral += 0.5 * (times[k] - times[k - 1]) * (prev + masses)
            if times[k] > times[0]:
                average = integral / integral.sum()
            else:
                plain += masses
                average = plain / plain.sum()
            yield average


def time_average(measures, t_end: float | None = None) -> PushforwardMeasure:
    """Trapezoid-in-time average of a sorted list of measures, renormalised
    to total mass exactly 1, at the last measure's time: the last prefix
    average of their MeasureSeries.  At least two measures are required;
    identical timestamps degrade gracefully to the plain mean."""
    if len(measures) < 2:
        raise ValueError("time averaging needs at least two measures")
    series = MeasureSeries(measures, t_end)
    *_, average = series.prefix_averages()
    return PushforwardMeasure(series.binning, average, float(series.times[-1]))


def ergodic_error_from_measures(series: MeasureSeries, fs,
                                reference: ReferenceMeasure) -> np.ndarray:
    """|time-average pairing - reference pairing| per prefix of the series,
    as a (len(series), len(fs)) array with one column per observable.

    Entry [k, j] compares the trapezoid average of the measures 0..k (row 0
    is the bare first measure) against the hyperbolic reference, which must
    be on the series' binning, through observable fs[j].  Reported as a
    diagnostic series; no decay is asserted.  Each observable is evaluated at
    the bin mass centroids once, and takes its declared overflow_value (0 if
    none) on the overflow bin.  The prefix averages come from the series' one
    running integral, O(len * bins) in all; every pairing is bit-identical to
    the binned pairing of time_average of the prefix.
    """
    _check_match(series, reference)
    b = series.binning
    on_bins = [(np.asarray(f.value(b.center_x, b.center_y), dtype=float),
                getattr(f, "overflow_value", 0.0)) for f in fs]
    targets = [_pairing(reference.masses, *f_bins) for f_bins in on_bins]
    errors = np.empty((len(series), len(on_bins)))
    for k, masses in enumerate(series.prefix_averages()):
        errors[k] = [abs(_pairing(masses, *f_bins) - target)
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


def entropy_report(
    state: MapState,
    mu: PushforwardMeasure,
    nu: ReferenceMeasure,
    density_threshold: float,
    jacobian_threshold: float,
) -> EntropyReport:
    """Assemble the entropy/degeneracy diagnostics for one state, given its
    pushforward mu."""
    if not density_threshold > 1.0:
        raise ValueError(f"density threshold must exceed 1, got {density_threshold}")
    rho = radon_nikodym(mu, nu)
    tail = float(mu.masses[rho > density_threshold].sum())
    jac = jacobian_det(state)
    degenerate = float(np.mean(np.abs(jac) < jacobian_threshold))
    return EntropyReport(
        t=state.t,
        entropy=relative_entropy(mu, nu),
        rho_max=float(rho.max()),
        tail_mass=tail,
        degenerate_fraction=degenerate,
    )


def measure_rows(measures) -> np.ndarray:
    """The one sparse format of measures on one binning: float64 rows
    (j, bin, mass), for each measure j in order one row per bin of nonzero
    mass, in increasing bin order, the overflow bin being n_bins.  A zero
    of either sign has no row."""
    rows = []
    for j, mu in enumerate(measures):
        bins = np.flatnonzero(mu.masses)
        rows.append(np.column_stack((np.full(len(bins), j), bins, mu.masses[bins])))
    return np.concatenate(rows)


def write_measure(measures, path) -> None:
    """Save measure_rows of measures as the .npy file at path."""
    np.save(path, measure_rows(measures))
