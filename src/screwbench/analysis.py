"""Signal analysis for force/torque recordings.

Covers the pipeline used on 100 Hz recordings: peak picking with a
prominence filter, a shape-preserving envelope through the peaks, regrasp
frequency from inter-peak intervals, cam-out flags, force/torque ratio
estimation by least squares, and nonparametric comparison of ratio
distributions. The force sensor's calibration line is the same kind of
least-squares fit, so it lives here too.

Needs numpy alone. Peak picking and the envelope give the same bits as
scipy's `find_peaks` and `PchipInterpolator`, which the tests use as
references.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import sensor
from .errors import ScrewbenchError

# Default peak filter of `analyze` and `regrasp_frequency`: a prominence
# of 3x the channel's sensor noise std and a 0.2 s separation.
DEFAULT_PROMINENCE = {"fz": 3.0 * sensor.FORCE_NOISE_STD,
                      "mz": 3.0 * sensor.TORQUE_NOISE_STD}
DEFAULT_SEPARATION = 0.2  # s


class FtSeries:
    """A force/torque recording sampled every `sensor.DT` (100 Hz, within
    1%). `samples` are finite (t, fz, mz) triples, such as `FtSample`s or
    the rows of an (n, 3) array, copied once into the columns `times()` and
    `channel()` return (read-only). Compares by identity."""

    def __init__(self, samples):
        if len(samples) == 0:
            raise ValueError("empty series")
        rows = np.asarray(samples, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("samples must be (t, fz, mz) triples")
        if not np.isfinite(rows).all():
            raise ValueError("samples must be finite")
        columns = rows.T.copy()
        columns.flags.writeable = False
        self._columns = dict(zip(("t", "fz", "mz"), columns))
        dts = np.diff(columns[0])
        if np.any(dts <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if np.any(np.abs(dts - sensor.DT) > 0.01 * sensor.DT):
            raise ValueError(f"sampling must be uniform {sensor.SAMPLE_HZ} Hz"
                             " within 1%")

    def times(self) -> np.ndarray:
        return self._columns["t"]

    def channel(self, name: str) -> np.ndarray:
        if name not in ("fz", "mz"):
            raise ValueError(f"unknown channel {name!r}")
        return self._columns[name]


@dataclass(eq=False)
class PeakSet:
    indices: np.ndarray
    times: np.ndarray
    values: np.ndarray

    def __len__(self):
        return len(self.indices)

    def frequency(self) -> float | None:
        """Oscillation frequency as the reciprocal median inter-peak
        interval, or None when fewer than 3 peaks define none."""
        if len(self) < 3:
            return None
        return float(1.0 / np.median(np.diff(self.times)))


@dataclass(eq=False)
class EnvelopeFit:
    """Monotonicity-preserving piecewise cubic (PCHIP) through peak points.

    Never overshoots beyond adjacent knot values, so the curve is usable
    directly as a force/torque reference. Evaluable on [t_min, t_max].
    """

    knot_times: np.ndarray
    knot_values: np.ndarray
    _coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x, y = self.knot_times, self.knot_values
        h = np.diff(x)
        if np.any(h <= 0):
            raise ValueError("knot times must be strictly increasing")
        # Subnormal knot values overflow the slope harmonic mean to inf;
        # its reciprocal is 0, a flat slope, which is the correct monotone
        # choice there.
        with np.errstate(over="ignore"):
            m = (y[1:] - y[:-1]) / h
            d = _pchip_slopes(h, m)
            # cubic Hermite coefficients of each interval, highest power
            # of s = t - x[i] first
            c = (d[:-1] + d[1:] - 2 * m) / h
            self._coeffs = np.stack((c / h, (m - d[:-1]) / h - c, d[:-1],
                                     y[:-1]))

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
        x = self.knot_times
        i = np.clip(np.searchsorted(x, t, "right") - 1, 0, len(x) - 2)
        s = t - x[i]
        c3, c2, c1, c0 = self._coeffs[:, i]
        # a power sum from the constant term up, in the order of scipy's
        # PPoly (not Horner's rule), so that the bits match
        z = s
        v = 0.0 + c0 + c1 * z
        z = z * s
        v = v + c2 * z
        z = z * s
        return v + c3 * z


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot slopes of scipy's `PchipInterpolator` from the interval widths
    `h` and secant slopes `m`: the weighted harmonic mean of the two
    adjacent secants, 0 where they differ in sign or one is flat, and
    one-sided three-point estimates at the ends (Moler, Numerical
    Computing with MATLAB, 3.6). Two knots give the straight line."""
    if len(m) == 1:
        return np.array([m[0], m[0]])
    d = np.zeros(len(m) + 1)
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    # both ends at once: the end interval, then its neighbour
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(end) != np.sign(m0)
    overshoot = ~wrong_sign & (np.sign(m0) != np.sign(m1)) & (
        np.abs(end) > 3. * np.abs(m0))
    end[wrong_sign] = 0.
    end[overshoot] = 3. * m0[overshoot]
    d[[0, -1]] = end
    return d


@dataclass
class CalibrationResult:
    """Fitted force calibration line and its residual."""

    gain: float  # N per potentiometer unit
    offset: float  # N
    residual_rms: float  # N


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


def local_maxima(series: FtSeries, channel: str, min_prominence: float = 0.0,
                 min_separation: float = 0.0) -> PeakSet:
    """Prominence-filtered local maxima with a minimum time separation.

    A flat top counts once, at its first sample. Separation conflicts are
    resolved highest-peak-first; ties go to the earliest index.
    """
    x = series.channel(channel)
    t = series.times()
    cand = _peak_candidates(x, min_prominence).tolist()
    if cand and min_separation > 0.0:
        # `kept` stays sorted and times increase, so only the nearest kept
        # peak on each side can be too close
        xs, ts = x.tolist(), t.tolist()
        kept: list[int] = []
        for i in sorted(cand, key=lambda i: (-xs[i], i)):
            j = bisect_left(kept, i)
            if ((j == len(kept) or ts[kept[j]] - ts[i] >= min_separation)
                    and (j == 0 or ts[i] - ts[kept[j - 1]] >= min_separation)):
                kept.insert(j, i)
        cand = kept
    idx = np.asarray(cand, dtype=int)
    return PeakSet(indices=idx, times=t[idx], values=x[idx])


def _peak_candidates(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """First sample of each local maximum of `x` whose prominence is at
    least `min_prominence`: the `left_edges` of scipy's
    `find_peaks(x, prominence=min_prominence, plateau_size=1)`."""
    # runs of equal samples; a run is a peak when both neighbouring runs
    # are lower, so the first and last runs never are
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    v = x[starts]
    padded = np.r_[-np.inf, v, -np.inf]
    tops = np.flatnonzero((padded[1:-1] > padded[:-2])
                          & (padded[1:-1] > padded[2:]))
    is_peak = (tops > 0) & (tops < len(v) - 1)
    if not is_peak.any():
        return np.empty(0, dtype=int)
    # Prominence as scipy defines it: the peak's height above the higher
    # of its two side minima, each running up to the nearest strictly
    # higher sample or to the end. The nearest strictly higher top gives
    # the same minimum: anything lower in between would sit in a valley
    # whose far wall is a nearer higher top.
    vt = v[tops].tolist()
    before = np.array(_previous_higher(vt), dtype=int)
    after = len(vt) - 1 - np.array(_previous_higher(vt[::-1])[::-1],
                                   dtype=int)
    # "no higher top" is -1 before and len(vt) after; both index `edge`
    edge = np.r_[tops, len(v), -1]
    k = tops[is_peak]
    lo = edge[before[is_peak]] + 1
    hi = edge[after[is_peak]]
    # one reduceat over [lo, k] and [k, hi) per peak; the appended 0 keeps
    # hi == len(v) a valid index
    bounds = np.stack((lo, k + 1, k, hi), axis=1).ravel()
    mins = np.minimum.reduceat(np.append(v, 0.0), bounds)
    prominence = v[k] - np.maximum(mins[0::4], mins[2::4])
    return starts[k[prominence >= min_prominence]]


def _previous_higher(values: list) -> list:
    """Index of the nearest earlier strictly greater item, or -1."""
    out, stack = [], []
    for i, v in enumerate(values):
        while stack and values[stack[-1]] <= v:
            stack.pop()
        out.append(stack[-1] if stack else -1)
        stack.append(i)
    return out


def fit_envelope(peaks: PeakSet) -> EnvelopeFit:
    """Shape-preserving interpolant through the peak points."""
    if len(peaks) < 2:
        raise ValueError("need at least 2 peaks to fit an envelope")
    return EnvelopeFit(knot_times=np.asarray(peaks.times, dtype=float),
                       knot_values=np.asarray(peaks.values, dtype=float))


def regrasp_frequency(series: FtSeries, channel: str,
                      min_prominence: float | None = None,
                      min_separation: float = DEFAULT_SEPARATION
                      ) -> float | None:
    """`PeakSet.frequency` of the channel's peaks under the filter, or None."""
    if min_prominence is None:
        min_prominence = DEFAULT_PROMINENCE[channel]
    return local_maxima(series, channel, min_prominence=min_prominence,
                        min_separation=min_separation).frequency()


def camout_flags(mz, *, window: int = sensor.CAMOUT_WINDOW,
                 noise_floor: float = sensor.NOISE_FLOOR,
                 theta_slip: float = sensor.THETA_SLIP) -> np.ndarray:
    """`sensor.camout` at every sample i of a torque record, over the
    trailing window mz[max(0, i - window + 1):i + 1] the controller holds."""
    mz = np.asarray(mz, dtype=float)
    padded = np.concatenate([np.full(window - 1, -np.inf), mz])
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    return sensor.camout(windows.max(axis=1), mz, noise_floor, theta_slip)


def _fit_line(x: np.ndarray, y: np.ndarray, what: str,
              constant: str) -> tuple[float, float, float]:
    """Least-squares line y ~ slope * x + intercept and the correlation r.

    All three come from centred sums of elementwise products, with no BLAS
    or LAPACK call, so the bits do not depend on the CPU's kernels. An x
    with no spread raises `constant`; a fit the floats cannot hold raises
    `<what> is degenerate` or `<what> is not finite`."""
    with np.errstate(all="ignore"):
        if np.ptp(x) == 0.0:
            raise ScrewbenchError(constant)
        dx, dy = x - x.mean(), y - y.mean()
        sxx, sxy, syy = np.sum(dx * dx), np.sum(dx * dy), np.sum(dy * dy)
        # numpy polyfit's rank test (rcond = n * eps) to first order: a spread
        # lost to rounding is no spread
        lost = (2 * len(x) * np.finfo(float).eps) ** 2 * np.sum(x * x)
        if not (np.isfinite(sxx) and np.isfinite(sxy)) or sxx <= lost:
            raise ScrewbenchError(f"{what} is degenerate")
        slope = sxy / sxx
        intercept = y.mean() - slope * x.mean()
        # the product may overflow or underflow where the two roots do not
        root = np.sqrt(sxx * syy)
        if not 0.0 < root < np.inf:
            root = np.sqrt(sxx) * np.sqrt(syy)
        r = 0.0 if syy == 0.0 else np.clip(sxy / root, -1.0, 1.0)
    fit = float(slope), float(intercept), float(r)
    # with an overflowed y spread, r would read 0
    if not all(map(math.isfinite, (*fit, syy))):
        raise ScrewbenchError(f"{what} is not finite")
    return fit


def estimate_nu(series: FtSeries) -> NuEstimate:
    """OLS of |F| on |tau| with intercept; slope is the force/torque ratio."""
    f = series.channel("fz")
    if len(f) < 3:
        raise ScrewbenchError("need at least 3 samples")
    nu, intercept, r = _fit_line(series.channel("mz"), f, "force/torque fit",
                                 "torque has zero variance")
    return NuEstimate(nu=nu, intercept=intercept, r=r, n=len(f))


def calibrate_force(pairs) -> CalibrationResult:
    """Least-squares line ref_force ~ gain * pot_reading + offset."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ScrewbenchError("need at least 2 calibration pairs")
    x = np.asarray([p[0] for p in pairs], dtype=float)
    y = np.asarray([p[1] for p in pairs], dtype=float)
    gain, offset, _ = _fit_line(x, y, "calibration fit",
                                "potentiometer readings are constant")
    with np.errstate(all="ignore"):
        rms = float(np.sqrt(np.mean((y - (gain * x + offset)) ** 2)))
    if not math.isfinite(rms):
        raise ScrewbenchError("calibration fit is not finite")
    return CalibrationResult(gain=gain, offset=offset, residual_rms=rms)


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
        if not np.isfinite(v).all():
            raise ValueError(f"group {label!r} has a non-finite value")
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
