"""Signal analysis for force/torque recordings.

Covers the pipeline used on 100 Hz recordings: peak picking with a
prominence filter, a shape-preserving envelope through the peaks, regrasp
frequency from inter-peak intervals, force/torque ratio estimation by
least squares, and nonparametric comparison of ratio distributions.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateFitError, UndefinedFrequencyError
from .sim import SimParams

# scipy is imported inside the functions that use it, so that importing
# the package (and running `simulate` or `compare`) does not load it.
if TYPE_CHECKING:
    from scipy.interpolate import PchipInterpolator

# Sensor noise amplitudes used for default peak prominences (3x std).
DEFAULT_NOISE_STD = {"fz": SimParams.force_noise_std,
                     "mz": SimParams.torque_noise_std}


@dataclass
class FtSeries:
    """A force/torque recording sampled every `SimParams.dt`, with an
    optional condition label. `samples` are (t, fz, mz) triples, such as
    `FtSample`s, converted once into the columns `times()` and `channel()`
    return (read-only)."""

    samples: InitVar[list]
    condition: str | None = None
    _columns: dict = field(init=False, repr=False)

    def __post_init__(self, samples):
        if len(samples) == 0:
            raise ValueError("empty series")
        columns = np.array(samples, dtype=float).T.copy()
        columns.flags.writeable = False
        self._columns = dict(zip(("t", "fz", "mz"), columns))
        dts = np.diff(columns[0])
        if np.any(dts <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(np.abs(dts - SimParams.dt) > 0.01 * SimParams.dt):
            raise ValueError("sampling must be uniform 100 Hz within 1%")

    def times(self) -> np.ndarray:
        return self._columns["t"]

    def channel(self, name: str) -> np.ndarray:
        if name not in ("fz", "mz"):
            raise ValueError(f"unknown channel {name!r}")
        return self._columns[name]


@dataclass
class PeakSet:
    indices: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.indices)


@dataclass
class EnvelopeFit:
    """Monotonicity-preserving piecewise cubic through peak points.

    Never overshoots beyond adjacent knot values, so the curve is usable
    directly as a force/torque reference. Evaluable on [t_min, t_max].
    """

    knot_times: np.ndarray
    knot_values: np.ndarray
    _interp: PchipInterpolator = field(repr=False, default=None)

    def __post_init__(self):
        if self._interp is None:
            from scipy.interpolate import PchipInterpolator

            # Subnormal knot values overflow scipy's slope harmonic mean
            # to inf; its reciprocal is 0, a flat slope, which is the
            # correct monotone choice there.
            with np.errstate(over="ignore"):
                self._interp = PchipInterpolator(self.knot_times,
                                                 self.knot_values)

    @property
    def t_min(self) -> float:
        return float(self.knot_times[0])

    @property
    def t_max(self) -> float:
        return float(self.knot_times[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t_min) or np.any(t > self.t_max):
            raise ValueError("evaluation outside the peak time range")
        return self._interp(t)


@dataclass
class NuEstimate:
    nu: float  # 1/m, slope of |F| on |tau|
    intercept: float  # N
    r: float  # Pearson correlation
    n: int


class UTestMethod(str, Enum):
    EXACT = "exact"
    NORMAL_APPROX = "normal_approx"


@dataclass
class UTestResult:
    u: float
    p: float
    method: UTestMethod


@dataclass
class ConditionSummary:
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: list


def _plateau_maxima(x: np.ndarray) -> list[int]:
    """Strict local maxima; a flat top counts once, at its start index."""
    n = len(x)
    out = []
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[i]:
                j += 1
            if j < n - 1 and x[j + 1] < x[i]:
                out.append(i)
            i = j + 1
        else:
            i += 1
    return out


def local_maxima(series: FtSeries, channel: str, min_prominence: float = 0.0,
                 min_separation: float = 0.0) -> PeakSet:
    """Prominence-filtered local maxima with a minimum time separation.

    Separation conflicts are resolved highest-peak-first; ties go to the
    earliest index.
    """
    x = series.channel(channel)
    t = series.times()
    cand = _plateau_maxima(x)
    if cand:
        from scipy.signal import peak_prominences

        prom = peak_prominences(x, cand)[0]
        cand = [c for c, p in zip(cand, prom) if p >= min_prominence]
    if cand and min_separation > 0.0:
        order = sorted(cand, key=lambda i: (-x[i], i))
        kept: list[int] = []
        for i in order:
            if all(abs(t[i] - t[k]) >= min_separation for k in kept):
                kept.append(i)
        cand = sorted(kept)
    idx = np.asarray(cand, dtype=int)
    return PeakSet(indices=idx, times=t[idx], values=x[idx])


def fit_envelope(peaks: PeakSet) -> EnvelopeFit:
    """Shape-preserving interpolant through the peak points."""
    if len(peaks) < 2:
        raise ValueError("need at least 2 peaks to fit an envelope")
    return EnvelopeFit(knot_times=np.asarray(peaks.times, dtype=float),
                       knot_values=np.asarray(peaks.values, dtype=float))


def regrasp_frequency(series: FtSeries, channel: str,
                      min_prominence: float | None = None,
                      min_separation: float = 0.2) -> float:
    """Oscillation frequency as the reciprocal median inter-peak interval."""
    if min_prominence is None:
        min_prominence = 3.0 * DEFAULT_NOISE_STD[channel]
    peaks = local_maxima(series, channel, min_prominence=min_prominence,
                         min_separation=min_separation)
    if len(peaks) < 3:
        raise UndefinedFrequencyError(
            f"found {len(peaks)} peaks; need >= 3 to define a frequency")
    return float(1.0 / np.median(np.diff(peaks.times)))


def estimate_nu(series: FtSeries) -> NuEstimate:
    """OLS of |F| on |tau| with intercept; slope is the force/torque ratio."""
    f = series.channel("fz")
    tau = series.channel("mz")
    n = len(f)
    if n < 3:
        raise DegenerateFitError("need at least 3 samples")
    if np.ptp(tau) == 0.0:
        raise DegenerateFitError("torque has zero variance")
    slope, intercept = np.polyfit(tau, f, 1)
    if np.ptp(f) == 0.0:
        r = 0.0
    else:
        r = float(np.corrcoef(tau, f)[0, 1])
    return NuEstimate(nu=float(slope), intercept=float(intercept), r=r, n=n)


def _u_count_polynomial(n: int, m: int) -> list[int]:
    """Exact null distribution of the tie-free U statistic.

    coef[u] = number of rank splits of n+m values giving U = u; computed as
    the Gaussian binomial coefficient [n+m choose n]_q with integer
    arithmetic (no overflow for any sample sizes).
    """
    size = n * m + 1
    coef = [0] * size
    coef[0] = 1
    for i in range(1, n + 1):
        a = m + i
        for u in range(size - 1, a - 1, -1):  # multiply by (1 - q^a)
            coef[u] -= coef[u - a]
        for u in range(i, size):  # divide by (1 - q^i)
            coef[u] += coef[u - i]
    return coef


def _midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of `x`, tied values sharing the mean of their ranks,
    and the size of each group of equal values in ascending order."""
    _, inverse, counts = np.unique(x, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def mann_whitney_u(a, b) -> UTestResult:
    """Two-sided Mann-Whitney U test.

    U is computed from midrank sums. The p-value is exact (full enumeration
    of rank splits) for tie-free data with min(n, m) <= 8, otherwise a
    normal approximation with tie and continuity corrections.
    """
    a = np.asarray(list(a), dtype=float)
    b = np.asarray(list(b), dtype=float)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise ValueError("samples must not contain NaN")
    ranks, tie_counts = _midranks(pooled)
    r_a = float(np.sum(ranks[:n]))
    u1 = r_a - n * (n + 1) / 2.0  # pairs where a beats b (ties half)
    u2 = n * m - u1

    has_ties = len(tie_counts) < n + m
    if not has_ties and min(n, m) <= 8:
        counts = _u_count_polynomial(n, m)
        total = sum(counts)
        u_min = int(round(min(u1, u2)))
        p_num = sum(counts[:u_min + 1]) + sum(counts[n * m - u_min:])
        p = min(1.0, p_num / total)
        return UTestResult(u=u1, p=p, method=UTestMethod.EXACT)

    big_n = n + m
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts))
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0.0:  # all values identical
        return UTestResult(u=u1, p=1.0, method=UTestMethod.NORMAL_APPROX)
    z = max(0.0, abs(u1 - n * m / 2.0) - 0.5) / math.sqrt(var)
    p = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return UTestResult(u=u1, p=p, method=UTestMethod.NORMAL_APPROX)


def summarize_conditions(groups: dict) -> dict:
    """Box-plot statistics per condition: linear-interpolated quartiles,
    Tukey 1.5*IQR whiskers clipped to the data, outliers beyond."""
    out = {}
    for label, values in groups.items():
        v = np.asarray(list(values), dtype=float)
        if len(v) == 0:
            raise ValueError(f"group {label!r} is empty")
        q1, med, q3 = np.percentile(v, [25, 50, 75], method="linear")
        iqr = q3 - q1
        lo_fence = q1 - 1.5 * iqr
        hi_fence = q3 + 1.5 * iqr
        inside = v[(v >= lo_fence) & (v <= hi_fence)]
        outliers = sorted(v[(v < lo_fence) | (v > hi_fence)].tolist())
        # interpolated quartiles may fall between data points; keep the
        # whiskers at least as wide as the box
        out[label] = ConditionSummary(
            median=float(med), q1=float(q1), q3=float(q3),
            whisker_low=float(min(inside.min(), q1)),
            whisker_high=float(max(inside.max(), q3)),
            outliers=outliers)
    return out
