import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

from screwbench import analysis, logio, runner, scenario, sensor
from screwbench.analysis import FtSeries, UTestMethod
from screwbench.errors import ScrewbenchError
from screwbench.scenario import SimParams


def series_from(values, channel="mz"):
    values = np.asarray(values, dtype=float)
    zeros = np.zeros_like(values)
    fz, mz = (values, zeros) if channel == "fz" else (zeros, values)
    return FtSeries(np.arange(len(values)) * 0.01, fz, mz)


def fz_mz_series(fz, mz):
    return FtSeries(np.arange(len(fz)) * 0.01, fz, mz)


_RAGGED = "^t, fz and mz must be 1-D and of one length$"


class TestFtSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FtSeries([], [], [])

    @pytest.mark.parametrize("columns, match", [
        (([0.0, 0.01, 0.02], [1.0, 2.0], [0.1, 0.2, 0.3]), _RAGGED),
        (([0.0, 0.01, 0.02], 1.0, [0.1, 0.2, 0.3]), _RAGGED),
        (([0.0, math.nan, 0.02], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]), None),
        (([0.0, 0.01, 0.02], [1.0, 2.0, 3.0], [0.1, math.nan, 0.3]), None),
        ((0.0, 1.0, 0.1), _RAGGED),
        (([[0.0, 0.01]], [[1.0, 2.0]], [[0.1, 0.2]]), _RAGGED),
    ], ids=["unequal_lengths", "scalar_column", "nan_time", "nan_torque",
            "scalars", "2d_columns"])
    def test_rejects_rows_that_are_not_finite_triples(self, columns, match):
        """The series' rows are (t, fz, mz) triples: the three columns are
        1-D, of one length and finite; columns of unequal shapes are
        refused in those words, not numpy's."""
        with pytest.raises(ValueError, match=match):
            FtSeries(*columns)

    def test_rejects_non_monotone_time(self):
        with pytest.raises(ValueError):
            FtSeries([0.0, 0.02, 0.01], [0, 0, 0], [0, 0, 0])

    def test_rejects_non_uniform_spacing(self):
        with pytest.raises(ValueError) as excinfo:
            FtSeries([0.0, 0.01, 0.05], [0, 0, 0], [0, 0, 0])
        assert str(excinfo.value) == \
            "sampling must be uniform 100 Hz within 1%"

    def test_sample_period_and_noise_defaults_have_one_home(self):
        """`sensor` holds the sample period and the noise defaults that the
        model's settings and the default peak filter both use; the run
        settings keep no second name for the period."""
        assert sensor.DT == 1 / sensor.SAMPLE_HZ == 0.01
        assert not hasattr(SimParams, "dt")
        params = SimParams()
        assert params.force_noise_std == sensor.FORCE_NOISE_STD
        assert params.torque_noise_std == sensor.TORQUE_NOISE_STD
        assert analysis.DEFAULT_PROMINENCE == {
            "fz": 3.0 * sensor.FORCE_NOISE_STD,
            "mz": 3.0 * sensor.TORQUE_NOISE_STD}


@pytest.mark.parametrize("build", [
    lambda: series_from([0.0, 0.2, 0.1]),
    lambda: analysis.PeakSet(indices=np.array([1, 3]),
                             times=np.array([0.01, 0.03]),
                             values=np.array([0.2, 0.3])),
    lambda: analysis.EnvelopeFit(knot_times=np.array([0.0, 1.0, 2.0]),
                                 knot_values=np.array([1.0, 2.0, 1.0])),
], ids=["FtSeries", "PeakSet", "EnvelopeFit"])
def test_equality_is_a_bool(build):
    """The array-holding analysis types compare by identity: an array
    field has no single truth value, so a field-wise `==` would raise."""
    a, b = build(), build()
    assert (a == a) is True
    assert isinstance(a == b, bool)


class TestLocalMaxima:
    def test_monotone_has_no_peaks(self):
        s = series_from(np.linspace(0, 1, 100))
        assert len(analysis.local_maxima(s, "mz")) == 0

    def test_half_rectified_sinusoid_peak_count(self):
        t = np.arange(0, 10, 0.01)
        x = np.maximum(0.0, np.sin(2 * np.pi * 1.3 * t))
        s = series_from(x)
        peaks = analysis.local_maxima(s, "mz", min_prominence=0.1,
                                      min_separation=0.3)
        assert abs(len(peaks) - 13) <= 1

    def test_plateau_counts_once_at_start(self):
        s = series_from([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0])
        peaks = analysis.local_maxima(s, "mz")
        assert list(peaks.indices) == [2]

    def test_min_separation_keeps_highest(self):
        x = np.zeros(100)
        x[20], x[25], x[80] = 1.0, 2.0, 1.5
        peaks = analysis.local_maxima(series_from(x), "mz",
                                      min_separation=0.3)
        assert list(peaks.indices) == [25, 80]

    def test_every_peak_is_a_local_maximum(self):
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(0, 1, 500))
        peaks = analysis.local_maxima(series_from(x), "mz",
                                      min_prominence=0.5,
                                      min_separation=0.1)
        for i in peaks.indices:
            assert x[i] > x[i - 1]
            j = i
            while x[j + 1] == x[i]:
                j += 1
            assert x[j + 1] < x[i]


class TestFitEnvelope:
    def peaks_at(self, times, values):
        return analysis.PeakSet(indices=np.arange(len(times)),
                                times=np.asarray(times, float),
                                values=np.asarray(values, float))

    def test_two_peaks_is_linear(self):
        env = analysis.fit_envelope(self.peaks_at([0.0, 1.0], [2.0, 4.0]))
        ts = np.linspace(0, 1, 11)
        assert np.allclose(env(ts), 2.0 + 2.0 * ts)

    def test_non_increasing_peaks_give_non_increasing_envelope(self):
        env = analysis.fit_envelope(
            self.peaks_at([0, 1, 2, 3, 4], [5.0, 4.0, 2.5, 2.5, 0.5]))
        v = env(np.linspace(0, 4, 400))
        assert np.all(np.diff(v) <= 1e-12)

    @pytest.mark.parametrize("build, message", [
        (lambda self: analysis.fit_envelope(self.peaks_at([0.0], [1.0])),
         "need at least 2 peaks to fit an envelope"),
        (lambda self: analysis.EnvelopeFit(knot_times=np.array([]),
                                           knot_values=np.array([])),
         "need at least 2 peaks to fit an envelope"),
        (lambda self: analysis.EnvelopeFit(knot_times=np.array([0.0]),
                                           knot_values=np.array([1.0])),
         "need at least 2 peaks to fit an envelope"),
        (lambda self: analysis.EnvelopeFit(
            knot_times=np.array([0.0, 1.0, 2.0]),
            knot_values=np.array([1.0, 2.0])),
         "knot times and values must be 1-D and of one length"),
        (lambda self: analysis.EnvelopeFit(
            knot_times=np.array([[0.0, 1.0]]),
            knot_values=np.array([[1.0, 2.0]])),
         "knot times and values must be 1-D and of one length"),
    ], ids=["fit_envelope_one_peak", "no_knots", "one_knot",
            "unequal_knot_arrays", "2d_knots"])
    def test_single_peak_rejected(self, build, message):
        """`EnvelopeFit` checks its own knots, however it is built: fewer
        than 2, or arrays that are not 1-D and of one length, raise
        `ValueError` in those words, not an `IndexError` or numpy's."""
        with pytest.raises(ValueError) as excinfo:
            build(self)
        assert str(excinfo.value) == message

    def test_evaluation_outside_range_rejected(self):
        env = analysis.fit_envelope(self.peaks_at([0.0, 1.0], [1.0, 2.0]))
        with pytest.raises(ValueError):
            env(1.5)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12))
    def test_bounded_by_knot_values(self, values):
        times = np.arange(len(values), dtype=float)
        env = analysis.fit_envelope(self.peaks_at(times, values))
        v = env(np.linspace(0, len(values) - 1, 500))
        assert np.all(v <= max(values) + 1e-9)
        assert np.all(v >= min(values) - 1e-9)

    @pytest.mark.parametrize("values", [[0.0, 5e-324, 0.0],
                                        [0.0, 1e-310, 2e-310, 0.0]])
    def test_subnormal_knots_fit_without_warning(self, values):
        times = np.arange(len(values), dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            env = analysis.fit_envelope(self.peaks_at(times, values))
            v = env(np.linspace(0, len(values) - 1, 500))
        assert np.all((v >= min(values)) & (v <= max(values)))


class TestEnvelopeOracle:
    """`EnvelopeFit` gives the same bits as scipy's `PchipInterpolator`."""

    @staticmethod
    def assert_matches_pchip(times, values, grid=None):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid is None:  # every knot, both ends and points in between
            grid = np.union1d(times, np.linspace(times[0], times[-1], 201))
        env = analysis.fit_envelope(analysis.PeakSet(
            indices=np.arange(len(times)), times=times, values=values))
        with np.errstate(over="ignore"):
            expected = PchipInterpolator(times, values)(grid)
        assert env(grid).tobytes() == expected.tobytes()

    # small integers give flat runs and sign changes of the secant slopes
    knot_value = st.one_of(st.integers(-3, 3).map(float),
                           st.floats(-1e3, 1e3))
    knot_gap = st.one_of(st.sampled_from([0.01, 0.2, 1.0]),
                         st.floats(0.01, 10.0))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(knot_gap, knot_value), min_size=2,
                    max_size=20))
    def test_matches_pchip(self, knots):
        gaps, values = zip(*knots)
        self.assert_matches_pchip(np.cumsum(gaps), values)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(knot_gap, knot_gap), st.tuples(knot_value, knot_value))
    def test_two_knots_match_pchip(self, gaps, values):
        self.assert_matches_pchip(np.cumsum(gaps), values)

    @pytest.mark.parametrize("values", [[0.0, 5e-324, 0.0],
                                        [0.0, 1e-310, 2e-310, 0.0]])
    def test_subnormal_knots_match_pchip(self, values):
        self.assert_matches_pchip(np.arange(len(values), dtype=float),
                                  values)

    def test_scalar_and_empty_grids(self):
        times, values = [0.0, 1.0, 3.0], [1.0, 2.0, 0.5]
        for grid in (np.float64(2.5), np.array([])):
            self.assert_matches_pchip(times, values, grid)


class TestPeakCandidatesOracle:
    """Without a separation filter `local_maxima` keeps what scipy's
    `find_peaks` keeps: each local maximum of at least the prominence,
    a flat top at its first sample."""

    @staticmethod
    def find_peaks_left_edges(x, prominence):
        _, props = scipy.signal.find_peaks(x, prominence=prominence,
                                           plateau_size=1)
        return props["left_edges"].tolist()

    # small integers, so plateaus and prominences equal to the minimum
    # are common
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60),
           st.integers(0, 3))
    def test_matches_find_peaks(self, values, prominence):
        s = series_from(np.asarray(values, dtype=float))
        peaks = analysis.local_maxima(s, "mz", min_prominence=prominence)
        assert peaks.indices.tolist() == self.find_peaks_left_edges(
            s.channel("mz"), prominence)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_find_peaks_on_long_plateau_heavy_arrays(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, 5000).astype(float)
        s = series_from(x)
        for prominence in (0.0, 1.0, 2.5, 5.0):
            peaks = analysis.local_maxima(s, "mz", min_prominence=prominence)
            assert peaks.indices.tolist() == self.find_peaks_left_edges(
                x, prominence)


def reference_local_maxima(x, t, min_prominence=0.0, min_separation=0.0):
    """`local_maxima` written plainly: a scan for strict maxima (a flat
    top counts once, at its first sample), scipy's `peak_prominences`
    filter and the highest-first separation filter checked against every
    kept peak."""
    n = len(x)
    cand = []
    i = 1
    while i < n - 1:
        if x[i] > x[i - 1]:
            j = i
            while j + 1 < n and x[j + 1] == x[i]:
                j += 1
            if j < n - 1 and x[j + 1] < x[i]:
                cand.append(i)
            i = j + 1
        else:
            i += 1
    if cand:
        prom = scipy.signal.peak_prominences(x, cand)[0]
        cand = [c for c, p in zip(cand, prom) if p >= min_prominence]
    if cand and min_separation > 0.0:
        order = sorted(cand, key=lambda i: (-x[i], i))
        kept = []
        for i in order:
            if all(abs(t[i] - t[k]) >= min_separation for k in kept):
                kept.append(i)
        cand = sorted(kept)
    return cand


class TestLocalMaximaOracle:
    # small integers, so plateaus and prominences equal to the minimum
    # are common
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60),
           st.integers(0, 3),
           st.one_of(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3,
                                      0.5]),
                     st.floats(0.0, 0.5)))
    def test_matches_reference_scan(self, values, prominence, separation):
        s = series_from(np.asarray(values, dtype=float))
        peaks = analysis.local_maxima(s, "mz", min_prominence=prominence,
                                      min_separation=separation)
        assert peaks.indices.tolist() == reference_local_maxima(
            s.channel("mz"), s.times(), prominence, separation)

    def test_matches_reference_scan_on_benchmark_session(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import fixtures
        path = tmp_path / "session.csv"
        path.write_text(fixtures.session_log(0))
        s = logio.read_log(path)
        prominence = analysis.DEFAULT_PROMINENCE["mz"]
        for separation in (0.0, analysis.DEFAULT_SEPARATION):
            peaks = analysis.local_maxima(s, "mz", min_prominence=prominence,
                                          min_separation=separation)
            assert len(peaks) > 0
            assert peaks.indices.tolist() == reference_local_maxima(
                s.channel("mz"), s.times(), prominence, separation)


class TestRegraspFrequency:
    def rectified(self, freq, duration=10.0):
        t = np.arange(0, duration, 0.01)
        return series_from(np.maximum(0.0, np.sin(2 * np.pi * freq * t)))

    def test_recovers_1p3_hz(self):
        f = analysis.regrasp_frequency(self.rectified(1.3), "mz")
        assert f == pytest.approx(1.3, abs=0.05)

    def test_recovers_2_hz_sawtooth(self):
        t = np.arange(0, 10, 0.01)
        x = (t * 2.0) % 1.0
        f = analysis.regrasp_frequency(series_from(x), "mz",
                                       min_prominence=0.1)
        assert f == pytest.approx(2.0, abs=0.05)

    def test_constant_series_has_no_frequency(self):
        assert analysis.regrasp_frequency(series_from(np.ones(500)),
                                          "mz") is None

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_three_peaks_define_a_frequency(self, n):
        times = np.arange(n) * 0.5
        peaks = analysis.PeakSet(indices=np.arange(n), times=times,
                                 values=np.ones(n))
        assert peaks.frequency() == (2.0 if n == 3 else None)


class TestEstimateNu:
    def test_exact_line(self):
        tau = np.linspace(0.01, 0.3, 100)
        est = analysis.estimate_nu(fz_mz_series(106.0 * tau, tau))
        assert est.nu == pytest.approx(106.0)
        assert est.intercept == pytest.approx(0.0, abs=1e-9)
        assert est.r == pytest.approx(1.0)

    def test_noisy_recovery_matches_normal_equations(self):
        rng = np.random.default_rng(9)
        tau = np.linspace(0.01, 0.3, 1000)
        f = 57.0 * tau + rng.normal(0, 0.1, 1000)
        est = analysis.estimate_nu(fz_mz_series(f, tau))
        assert est.nu == pytest.approx(57.0, rel=0.05)
        # independent oracle: closed-form normal equations
        n = len(tau)
        sx, sy = tau.sum(), f.sum()
        slope = (n * (tau * f).sum() - sx * sy) / (n * (tau ** 2).sum()
                                                   - sx * sx)
        assert est.nu == pytest.approx(slope, rel=1e-10)

    def test_human_like_batches_stay_in_reported_band(self):
        # regrasp-modulated traces at the phillips ratio: per-run nu must
        # land in the 106 +/- 37 band
        rng = np.random.default_rng(4)
        nus = []
        for _ in range(10):
            t = np.arange(0, 12, 0.01)
            envelope = np.linspace(0.19, 0.05, len(t))
            grip = np.maximum(0.0, np.sin(2 * np.pi * 1.3 * t)) ** 0.5
            tau = np.abs(envelope * grip + rng.normal(0, 0.003, len(t)))
            f = np.abs(106.0 * envelope * grip + rng.normal(0, 0.1, len(t)))
            nus.append(analysis.estimate_nu(fz_mz_series(f, tau)).nu)
        assert 106 - 37 <= np.mean(nus) <= 106 + 37

    def test_degenerate_torque_rejected(self):
        with pytest.raises(ScrewbenchError,
                           match="^torque has zero variance$"):
            analysis.estimate_nu(fz_mz_series(np.ones(10), np.ones(10)))

    def test_constant_force_gives_flat_line(self):
        tau = np.linspace(0.01, 0.3, 50)
        est = analysis.estimate_nu(fz_mz_series(np.full(50, 12.5), tau))
        assert est.nu == 0.0 and est.r == 0.0
        assert est.intercept == 12.5

    def test_too_short_rejected(self):
        with pytest.raises(ScrewbenchError,
                           match="^need at least 3 samples$"):
            analysis.estimate_nu(fz_mz_series([1, 2], [0.1, 0.2]))

    @pytest.mark.parametrize("fz, mz", [
        ([1e308, -1e308, 0.0], [1e308, -1e308, 0.0]),
        ([1.0, 2.0, 3.0, 1.0], [0.0, 1e-300, 2e-300, 0.0]),
    ], ids=["overflow", "underflow"])
    def test_fit_near_float_limit_rejected_without_warning(self, fz, mz):
        series = fz_mz_series(fz, mz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScrewbenchError,
                               match="^force/torque fit is degenerate$"):
                analysis.estimate_nu(series)

    @given(c=st.floats(0.1, 50), shift=st.floats(-5, 5))
    def test_affine_invariance_of_r(self, c, shift):
        rng = np.random.default_rng(1)
        tau = np.linspace(0.01, 0.3, 50)
        f = 80.0 * tau + rng.normal(0, 0.05, 50)
        base = analysis.estimate_nu(fz_mz_series(f, tau))
        scaled = analysis.estimate_nu(fz_mz_series(c * f + abs(shift), tau))
        assert scaled.r == pytest.approx(base.r, rel=1e-9)
        assert scaled.nu == pytest.approx(c * base.nu, rel=1e-9)


class TestCalibrateForce:
    def test_two_point_exact(self):
        result = analysis.calibrate_force([(0.0, 0.0), (1.0, 5.0)])
        assert result.gain == pytest.approx(5.0)
        assert result.offset == pytest.approx(0.0, abs=1e-12)
        assert result.residual_rms == pytest.approx(0.0, abs=1e-12)

    def test_noisy_fit_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, 50)
        y = 4.2 * x + 0.3 + rng.normal(0, 0.2, 50)
        result = analysis.calibrate_force(list(zip(x, y)))
        # independent oracle: closed-form normal equations
        sx, sy = x.sum(), y.sum()
        sxx, sxy = (x * x).sum(), (x * y).sum()
        n = len(x)
        gain = (n * sxy - sx * sy) / (n * sxx - sx * sx)
        offset = (sy - gain * sx) / n
        assert result.gain == pytest.approx(gain, rel=1e-10)
        assert result.offset == pytest.approx(offset, rel=1e-10)

    def test_constant_readings_rejected(self):
        with pytest.raises(ScrewbenchError,
                           match="^potentiometer readings are constant$"):
            analysis.calibrate_force([(1.0, 0.0), (1.0, 5.0), (1.0, 7.0)])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ScrewbenchError,
                           match="^need at least 2 calibration pairs$"):
            analysis.calibrate_force([(1.0, 2.0)])

    @pytest.mark.parametrize("pairs, message", [
        ([(1e308, 1e308), (-1e308, -1e308), (0.0, 0.0)], "degenerate"),
        ([(0.0, 1e308), (1.0, -1e308)], "not finite"),
        ([(1.0, 0.0), (1.0 + 1e-15, 1.0), (1.0 + 2e-15, 2.0)], "degenerate"),
    ], ids=["overflow", "slope_overflow", "lost_rank"])
    def test_fit_near_float_limits_rejected_without_warning(self, pairs,
                                                             message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScrewbenchError,
                               match=f"^calibration fit is {message}$"):
                analysis.calibrate_force(pairs)

    def test_non_finite_fit_rejected_when_numpy_does_not_warn(self):
        with np.errstate(all="ignore"), pytest.raises(
                ScrewbenchError, match="not finite"):
            analysis.calibrate_force([(0.0, 1e308), (1.0, -1e308)])


def fit_or_reject(fit, x, y):
    """True if `fit(x, y)` rejects the line, with every warning an error;
    for `np.polyfit`, a `RankWarning` is its rejection."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fit(x, y)
        except (ScrewbenchError, np.exceptions.RankWarning):
            return True
    return False


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestFitLine:
    """The closed-form line against `np.polyfit`."""

    @staticmethod
    def fit(x, y):
        return analysis._fit_line(np.asarray(x), np.asarray(y), "fit",
                                  "constant")

    def test_well_posed_line_matches_polyfit(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 10, 50)
        y = 4.2 * x + 0.3 + rng.normal(0, 0.2, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope, intercept, _ = self.fit(x, y)
            ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert slope == pytest.approx(ref_slope, rel=1e-10)
        assert intercept == pytest.approx(ref_intercept, rel=1e-10)

    @pytest.mark.parametrize("base", [1.0, -3.7, 1e3, 2.5e-7, -6.02e23])
    def test_rank_test_agrees_with_polyfit(self, base):
        """A spread of k ulps-of-base per step is rejected exactly when
        polyfit's rank test (rcond = n * eps) warns."""
        eps = np.finfo(float).eps
        for k, n in itertools.product((0.5, 1, 2, 4, 16, 64, 1e3, 1e6),
                                      (2, 3, 5, 10, 50)):
            x = base + k * eps * abs(base) * np.arange(n)
            y = np.arange(n, dtype=float)
            assert fit_or_reject(self.fit, x, y) == fit_or_reject(
                lambda x, y: np.polyfit(x, y, 1), x, y), (k, n)

    @pytest.mark.parametrize("scale", [1e-100, 1e100],
                             ids=["product_underflows", "product_overflows"])
    def test_r_survives_scaling_both_axes(self, scale):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 1.0, 20)
        y = 2.0 * x + rng.normal(0, 0.3, 20)
        slope, _, r = self.fit(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled_slope, _, scaled_r = self.fit(scale * x, scale * y)
        assert 0.5 < r < 0.99
        assert scaled_r == pytest.approx(r, rel=1e-12)
        assert scaled_slope == pytest.approx(slope, rel=1e-12)

    def test_overflowing_y_spread_is_not_finite(self):
        """The slope 1e100 fits, but r would read 0."""
        with pytest.raises(ScrewbenchError, match="^fit is not finite$"):
            self.fit([0.0, 1e100], [0.0, 1e200])

    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.lists(finite_floats, min_size=n, max_size=n),
        st.lists(finite_floats, min_size=n, max_size=n))))
    def test_finite_input_fits_or_is_degenerate(self, xy):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = self.fit(*xy)
            except ScrewbenchError:
                return
        assert all(map(math.isfinite, fit))
        assert -1.0 <= fit[2] <= 1.0


def brute_force_two_sided_p(a, b):
    """Oracle: enumerate all rank splits of the pooled sample."""
    pooled = list(a) + list(b)
    n, m = len(a), len(b)
    ranks = scipy.stats.rankdata(pooled)
    u_obs = sum(ranks[:n]) - n * (n + 1) / 2.0
    u_min = min(u_obs, n * m - u_obs)
    us = [sum(ranks[i] for i in comb) - n * (n + 1) / 2.0
          for comb in itertools.combinations(range(n + m), n)]
    hits = sum(1 for u in us if u <= u_min or u >= n * m - u_min)
    return min(1.0, hits / len(us))


class TestMannWhitneyU:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=60))
    def test_midranks_match_rankdata(self, values):
        x = np.asarray(values, dtype=float)
        ranks, counts = analysis._midranks(x)
        expected = scipy.stats.rankdata(x)
        assert ranks.dtype == expected.dtype
        assert np.array_equal(ranks, expected)
        assert np.array_equal(counts, np.unique(x, return_counts=True)[1])

    @pytest.mark.parametrize("n", [3, 20])
    def test_nan_rejected(self, n):
        with pytest.raises(ValueError, match="NaN"):
            analysis.mann_whitney_u([float("nan")] + [1.0] * (n - 1),
                                    [2.0] * n)

    def test_identical_multisets(self):
        a = [1.0, 2.0, 2.0, 3.0]
        result = analysis.mann_whitney_u(a, list(a))
        assert result.u == len(a) ** 2 / 2.0
        assert result.p == pytest.approx(1.0)

    def test_fully_separated_small_samples(self):
        result = analysis.mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert result.u == 0.0
        assert result.method == UTestMethod.EXACT
        assert result.p == pytest.approx(0.1, abs=1e-12)

    def test_exact_matches_brute_force_n7(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=7)
        b = rng.normal(size=7) + 0.4
        result = analysis.mann_whitney_u(a, b)
        assert result.method == UTestMethod.EXACT
        assert result.p == pytest.approx(brute_force_two_sided_p(a, b),
                                         abs=1e-12)

    def test_large_or_tied_samples_use_normal_approx(self):
        rng = np.random.default_rng(5)
        big = analysis.mann_whitney_u(rng.normal(size=20),
                                      rng.normal(size=20))
        assert big.method == UTestMethod.NORMAL_APPROX
        tied = analysis.mann_whitney_u([1, 1, 2], [2, 3, 4])
        assert tied.method == UTestMethod.NORMAL_APPROX

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            analysis.mann_whitney_u([], [1.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=10),
           st.lists(st.floats(-10, 10), min_size=1, max_size=10))
    def test_u_identity_and_p_symmetry(self, a, b):
        ab = analysis.mann_whitney_u(a, b)
        ba = analysis.mann_whitney_u(b, a)
        assert ab.u + ba.u == pytest.approx(len(a) * len(b))
        assert ab.p == pytest.approx(ba.p, abs=1e-12)

    def test_exact_and_approx_agree_loosely(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            a = rng.normal(size=int(rng.integers(3, 9)))
            b = rng.normal(size=int(rng.integers(3, 9))) + rng.normal()
            exact = analysis.mann_whitney_u(a, b)
            assert exact.method == UTestMethod.EXACT
            # recompute forcing the approximation path via one tie
            n, m = len(a), len(b)
            pooled = np.concatenate([a, b])
            ranks = scipy.stats.rankdata(pooled)
            u1 = float(np.sum(ranks[:n])) - n * (n + 1) / 2.0
            var = n * m * (n + m + 1) / 12.0
            z = max(0.0, abs(u1 - n * m / 2.0) - 0.5) / np.sqrt(var)
            p_approx = min(1.0, float(scipy.special.erfc(z / np.sqrt(2))))
            assert abs(exact.p - p_approx) < 0.05


class TestSummarizeConditions:
    def test_single_value_group(self):
        s = analysis.summarize_conditions({"only": [3.5]})["only"]
        assert (s.median == s.q1 == s.q3 == s.whisker_low
                == s.whisker_high == 3.5)
        assert s.outliers == []

    def test_hand_computed_quartiles(self):
        s = analysis.summarize_conditions({"g": [1, 2, 3, 4, 5]})["g"]
        assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)

    def test_outliers_beyond_tukey_fences(self):
        values = [1, 2, 3, 4, 5, 100]
        s = analysis.summarize_conditions({"g": values})["g"]
        assert s.outliers == [100]
        assert s.whisker_high == 5.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            analysis.summarize_conditions({"g": []})

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="group 'a' has a non-finite"):
            analysis.summarize_conditions({"ok": [1.0, 2.0],
                                           "a": [1.0, bad, 2.0]})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_ordering_invariant(self, values):
        s = analysis.summarize_conditions({"g": values})["g"]
        assert (s.whisker_low <= s.q1 <= s.median
                <= s.q3 <= s.whisker_high)


def test_analysis_recovers_the_applied_force_law(tmp_path):
    """End to end: the force/torque ratio that `estimate_nu` fits to a
    screwing run's written and re-read log is the law `margin * nu` the
    controller applied, and the U test tells the two head types apart."""
    estimates = {}
    for head in ("phillips", "internal_hex"):
        runs = []
        for seed in range(10):
            sc = scenario.default_scenario("screwing", seed=seed,
                                           screw={"head_type": head})
            path = tmp_path / f"{head}{seed}.csv"
            result = runner.run_scenario(sc)
            logio.write_log(path, result.t, result.fz, result.mz)
            runs.append(analysis.estimate_nu(logio.read_log(path)))
        applied = sc.controller.margin * sc.controller.nu
        assert all(est.r > 0.9 for est in runs), head
        median = np.median([est.nu for est in runs])
        assert median == pytest.approx(applied, rel=0.05), head
        estimates[head] = [est.nu for est in runs]
    test = analysis.mann_whitney_u(estimates["phillips"],
                                   estimates["internal_hex"])
    assert test.p < 0.01


def test_phillips_at_the_hex_ratio_slips_more():
    """The head-type claim without its circle: a Phillips screw driven with
    the internal hex head's lower ratio (57/m) still really finishes, but
    slips more than at its own ratio (106/m), seed by seed. Screwing seats
    with more than three times the onsets (8/4/8/5 against 54/53/52/37);
    unscrewing ends with no thread engaged and more than 1.5 times the
    onsets (17/15/17/17 against 35/34/34/31)."""
    for direction, factor in (("screwing", 3), ("unscrewing", 1.5)):
        for seed in range(4):
            onsets = {}
            for nu in (106.0, 57.0):
                sc = scenario.default_scenario(
                    direction, seed=seed, screw={"head_type": "phillips"},
                    substrate={"kind": "plastic_hole"},
                    controller={"nu": nu})
                result = runner.run_scenario(sc)
                run = (direction, seed, nu)
                assert result.outcome == runner.Outcome.DONE, run
                if direction == "screwing":
                    assert result.world.seated, run
                else:
                    assert result.world.engaged_depth == 0.0, run
                onsets[nu] = len(result.slip_times)
            assert onsets[57.0] > factor * onsets[106.0], (
                direction, seed, onsets)


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_seated_screwing_log_ends_without_a_camout(seed):
    """A screwing run ends on the step that detects the seat, so its log's
    last samples are the seating rise, not the drop of a stopped spindle
    that the cam-out rule would flag."""
    result = runner.run_scenario(
        scenario.default_scenario("screwing", seed=seed))
    assert result.outcome == runner.Outcome.DONE and result.world.seated
    flags = analysis.camout_flags(result.mz)
    rising = flags[1:] & ~flags[:-1]  # rising[i] is at sample i + 1
    assert not rising[-3:].any()
