"""Serviceability metrics, outage-hour integrals, and batch statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from lifelinesim.metrics import (
    DEFAULT_EOH_WEIGHTS,
    LINEAR,
    STEP,
    MetricsError,
    NetworkSeries,
    benjamini_hochberg,
    consumer_eoh,
    curve_eoh,
    ecs_curve,
    paired_comparison,
    pcs_curve,
    repeated_measures_anova,
    system_eoh,
    weighted_eoh,
)

# Hand-worked 3x3 repeated-measures matrix. Grand mean 10.611..., the
# spreadsheet decomposition gives F = SSstrategy/2 / (SSerror/4).
ANOVA_MATRIX = [[10.0, 12.0, 9.0], [11.0, 14.0, 10.0], [9.0, 11.0, 9.5]]
ANOVA_F = 15.437499999999993

# Five paired observations; t = dbar / (sd/sqrt(5)) worked by hand.
PAIRED_A = [3.0, 4.0, 5.0, 6.0, 7.0]
PAIRED_B = [2.5, 4.5, 4.0, 5.0, 6.0]
PAIRED_T = 2.057983021710106

BH_INPUT = [0.01, 0.04, 0.03, 0.005]
BH_EXPECTED = [0.02, 0.04, 0.04, 0.02]


def make_series(times, supplied, baseline, interpolation=LINEAR, consumers=None, network="water"):
    supplied = np.asarray(supplied, dtype=float)
    baseline = np.asarray(baseline, dtype=float)
    if consumers is None:
        consumers = tuple(f"c{i}" for i in range(supplied.shape[1]))
    return NetworkSeries(
        network=network,
        times=np.asarray(times, dtype=float),
        consumers=tuple(consumers),
        supplied=supplied,
        baseline=baseline,
        interpolation=interpolation,
    )


class TestEcsPcs:
    def test_ecs_mixed_ratios(self):
        s = make_series([0.0], [[1.0, 0.5]], [[1.0, 1.0]])
        assert ecs_curve(s)[0] == pytest.approx(0.75, abs=1e-12)

    def test_ecs_full_and_zero(self):
        full = make_series([0.0], [[2.0, 3.0]], [[2.0, 3.0]])
        assert ecs_curve(full)[0] == 1.0
        dark = make_series([0.0], [[0.0, 0.0]], [[2.0, 3.0]])
        assert ecs_curve(dark)[0] == 0.0

    def test_pcs_equal_demands(self):
        s = make_series([0.0], [[5.0, 10.0]], [[10.0, 10.0]])
        assert pcs_curve(s)[0] == pytest.approx(0.75, abs=1e-12)

    def test_pcs_weighted_by_size_vs_ecs(self):
        s = make_series([0.0], [[30.0, 0.0]], [[30.0, 10.0]])
        assert pcs_curve(s)[0] == pytest.approx(0.75, abs=1e-12)
        assert ecs_curve(s)[0] == pytest.approx(0.5, abs=1e-12)

    def test_oversupply_clamped(self):
        s = make_series([0.0], [[12.0]], [[10.0]])
        assert pcs_curve(s)[0] == 1.0
        assert ecs_curve(s)[0] == 1.0

    def test_zero_demand_consumer_excluded(self):
        s = make_series([0.0], [[0.0, 5.0]], [[0.0, 10.0]])
        assert ecs_curve(s)[0] == pytest.approx(0.5)
        assert pcs_curve(s)[0] == pytest.approx(0.5)

    def test_all_zero_demand_is_nan(self):
        s = make_series([0.0], [[0.0]], [[0.0]])
        assert math.isnan(ecs_curve(s)[0])
        assert math.isnan(pcs_curve(s)[0])

    def test_curves_match_pointwise(self):
        times = [0.0, 60.0, 120.0]
        s = make_series(times, [[1.0], [0.5], [1.0]], [[1.0]] * 3)
        np.testing.assert_allclose(ecs_curve(s), [1.0, 0.5, 1.0])
        np.testing.assert_allclose(pcs_curve(s), [1.0, 0.5, 1.0])
        assert ecs_curve(s).tolist() == [1.0, 0.5, 1.0]

    def test_ecs_equals_pcs_for_equal_demands(self):
        rng = np.random.default_rng(5)
        base = np.full((10, 4), 3.0)
        served = np.clip(rng.uniform(0.0, 3.5, size=(10, 4)), 0.0, 3.0)
        s = make_series(np.arange(10.0), served, base)
        np.testing.assert_allclose(ecs_curve(s), pcs_curve(s), atol=1e-12)


def _ecs_rows(series):
    """Oracle: ``ecs_curve`` as a loop over rows, each the mean of
    min(s/S, 1) over the consumers with S > 0, NaN when there are none."""
    out = np.full(len(series.times), math.nan)
    for j, (s_row, b_row) in enumerate(zip(series.supplied, series.baseline)):
        mask = b_row > 0
        if mask.any():
            out[j] = np.minimum(s_row[mask] / b_row[mask], 1.0).mean()
    return out


@st.composite
def _varied_series(draw):
    # 1 to 40 consumers crosses numpy's 8- and 16-element summation
    # blocks; rows repeat a few baseline patterns, runs of one mask and
    # masks that change between rows, and a pattern may be all zero
    m = draw(st.integers(1, 40))
    baseline = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    patterns = draw(st.lists(arrays(float, m, elements=baseline), min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=1, max_size=40))
    b = np.array([patterns[k] for k in order])
    s = draw(arrays(float, b.shape, elements=st.floats(0.0, 20.0)))
    return make_series(np.arange(len(order), dtype=float), s, b)


class TestEcsCurve:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(series=_varied_series())
    def test_equals_the_row_loop(self, series):
        assert np.array_equal(ecs_curve(series), _ecs_rows(series), equal_nan=True)

    def test_long_series_with_changing_masks(self):
        rng = np.random.default_rng(7)
        b = rng.random((3666, 9)) * (rng.random((3666, 9)) < 0.8)
        b[100:2000] = b[100]  # one long run of a single mask
        b[2500:2600] = 0.0  # undefined for a stretch
        s = b * rng.random((3666, 9)) * 1.3
        series = make_series(np.arange(3666.0), s, b)
        got = ecs_curve(series)
        assert np.isnan(got[2500:2600]).all()
        assert np.array_equal(got, _ecs_rows(series), equal_nan=True)


class TestSeriesValidation:
    def test_times_strictly_increasing(self):
        with pytest.raises(MetricsError):
            make_series([0.0, 0.0], [[1.0], [1.0]], [[1.0], [1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(MetricsError):
            NetworkSeries(
                network="water",
                times=np.array([0.0, 1.0]),
                consumers=("a",),
                supplied=np.array([[1.0]]),
                baseline=np.array([[1.0], [1.0]]),
            )

    def test_negative_values_rejected(self):
        with pytest.raises(MetricsError):
            make_series([0.0], [[-0.1]], [[1.0]])

    def test_unknown_interpolation(self):
        with pytest.raises(MetricsError):
            make_series([0.0], [[1.0]], [[1.0]], interpolation="cubic")


class TestCurveEoh:
    def test_constant_one_is_zero(self):
        t = np.array([0.0, 3600.0])
        assert curve_eoh(t, np.ones(2), 0.0, 3600.0, LINEAR) == 0.0

    def test_half_service_two_hours_is_one(self):
        t = np.array([0.0, 7200.0])
        v = np.array([0.5, 0.5])
        assert curve_eoh(t, v, 0.0, 7200.0, LINEAR) == pytest.approx(1.0, abs=1e-12)
        assert curve_eoh(t, v, 0.0, 7200.0, STEP) == pytest.approx(1.0, abs=1e-12)

    def test_total_outage_hour(self):
        t = np.array([0.0, 3600.0])
        assert curve_eoh(t, np.zeros(2), 0.0, 3600.0, LINEAR) == pytest.approx(1.0, abs=1e-12)

    def test_linear_ramp(self):
        # MOP falls linearly 1 -> 0 over an hour: shortfall area = 1800 s
        t = np.array([0.0, 3600.0])
        v = np.array([1.0, 0.0])
        assert curve_eoh(t, v, 0.0, 3600.0, LINEAR) == pytest.approx(0.5, abs=1e-12)

    def test_step_curve_exact_rectangles(self):
        # piecewise-constant: 1 until 600, 0.25 until 1800, then 1
        t = np.array([0.0, 600.0, 1800.0, 3600.0])
        v = np.array([1.0, 0.25, 1.0, 1.0])
        expected = (0.75 * 1200.0) / 3600.0
        assert curve_eoh(t, v, 0.0, 3600.0, STEP) == pytest.approx(expected, abs=1e-12)

    def test_window_clipping_interpolates_endpoints(self):
        t = np.array([0.0, 3600.0])
        v = np.array([1.0, 0.0])
        # window covers only the second half: shortfall goes 0.5 -> 1.0,
        # mean 0.75 over the 1800 s window
        got = curve_eoh(t, v, 1800.0, 3600.0, LINEAR)
        assert got == pytest.approx(0.75 * 1800.0 / 3600.0, abs=1e-12)

    def test_nan_samples_excluded(self):
        t = np.array([0.0, 600.0, 1200.0])
        v = np.array([0.0, math.nan, 0.0])
        got = curve_eoh(t, v, 0.0, 1200.0, STEP)
        assert got == pytest.approx(1200.0 / 3600.0, abs=1e-9)

    def test_empty_window_raises(self):
        t = np.array([0.0, 60.0])
        with pytest.raises(MetricsError):
            curve_eoh(t, np.ones(2), 60.0, 60.0, LINEAR)

    def test_values_clipped_to_unit_interval(self):
        t = np.array([0.0, 3600.0])
        v = np.array([1.4, 1.4])  # clipped to 1: no negative outage
        assert curve_eoh(t, v, 0.0, 3600.0, LINEAR) == 0.0

    def test_bounded_by_window(self):
        rng = np.random.default_rng(17)
        t = np.sort(rng.uniform(0.0, 7200.0, 40))
        t[0], t[-1] = 0.0, 7200.0
        v = rng.uniform(0.0, 1.0, 40)
        got = curve_eoh(t, v, 0.0, 7200.0, LINEAR)
        assert 0.0 <= got <= 2.0 + 1e-12


class TestSystemAndConsumerEoh:
    def test_system_eoh_measures(self):
        times = [0.0, 3600.0, 7200.0]
        # consumer 0 fully served; consumer 1 out for the first hour
        s = make_series(times, [[1.0, 0.0], [1.0, 0.0], [1.0, 2.0]],
                        [[1.0, 2.0]] * 3, interpolation=STEP)
        assert system_eoh(s, 0.0, 7200.0, "pcs") == pytest.approx(
            (2.0 / 3.0) * 2.0, abs=1e-12
        )
        assert system_eoh(s, 0.0, 7200.0, "ecs") == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(MetricsError):
            system_eoh(s, 0.0, 7200.0, "median")

    def test_consumer_eoh_examples(self):
        times = [0.0, 7200.0, 14400.0]
        # c1 dark for the first two hours, restored at t=7200
        s = make_series(times, [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]],
                        [[1.0, 1.0]] * 3, interpolation=STEP)
        assert consumer_eoh(s, "c0", 0.0, 14400.0) == 0.0
        assert consumer_eoh(s, "c1", 0.0, 14400.0) == pytest.approx(2.0, abs=1e-12)

    def test_consumer_half_served_four_hours(self):
        times = [0.0, 14400.0]
        s = make_series(times, [[0.5], [0.5]], [[1.0], [1.0]])
        assert consumer_eoh(s, "c0", 0.0, 14400.0) == pytest.approx(2.0, abs=1e-12)

    def test_consumer_zero_demand_is_nan(self):
        s = make_series([0.0, 3600.0], [[0.0], [0.0]], [[0.0], [0.0]])
        assert math.isnan(consumer_eoh(s, "c0", 0.0, 3600.0))

    def test_unknown_consumer(self):
        s = make_series([0.0, 60.0], [[1.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(MetricsError):
            consumer_eoh(s, "ghost", 0.0, 60.0)


class TestWeightedEoh:
    def test_default_weights(self):
        assert DEFAULT_EOH_WEIGHTS == {"water": 0.5, "power": 0.5}
        assert weighted_eoh({"water": 2.0, "power": 4.0}) == pytest.approx(3.0, abs=1e-15)

    def test_single_weight(self):
        assert weighted_eoh({"water": 2.0, "power": 4.0}, {"water": 1.0, "power": 0.0}) == 2.0

    def test_zeros(self):
        assert weighted_eoh({"water": 0.0, "power": 0.0}) == 0.0

    def test_linearity(self):
        w = {"water": 0.3, "power": 0.7}
        a = {"water": 1.0, "power": 2.0}
        b = {"water": 4.0, "power": 0.5}
        lhs = weighted_eoh({k: a[k] + b[k] for k in a}, w)
        rhs = weighted_eoh(a, w) + weighted_eoh(b, w)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(MetricsError):
            weighted_eoh({"water": 1.0}, {"water": -0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(MetricsError, match="nonnegative"):
            weighted_eoh({"water": 1.0, "power": 2.0}, {"water": bad, "power": 0.5})


@st.composite
def _anova_matrices(draw):
    # subject offsets plus strategy effects 1e-6 to 1e4 times the unit
    # noise: F runs from about 1e-12 to past where the p-value underflows
    n, k = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    effect = 10.0 ** draw(st.floats(-6.0, 4.0))
    return 5.0 * rng.normal(size=(n, 1)) + effect * rng.normal(size=k) + rng.normal(size=(n, k))


@st.composite
def _paired_samples(draw):
    # mean shifts 1e-8 to 1e3 times the unit noise: |t| from about 1e-8 to 1e4
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.0, 3.0))
    b = rng.normal(10.0, 3.0, size=n)
    return b + shift + rng.normal(size=n), b


class TestAnova:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(matrix=_anova_matrices())
    def test_p_value_is_scipy_stats_f_sf(self, matrix):
        res = repeated_measures_anova(matrix)
        assert res.p_value == float(stats.f.sf(res.f_statistic, res.df_strategy, res.df_error))

    def test_hand_worked_matrix(self):
        res = repeated_measures_anova(ANOVA_MATRIX)
        assert res.f_statistic == pytest.approx(ANOVA_F, abs=1e-9)
        assert (res.df_strategy, res.df_error) == (2, 4)
        # spreadsheet-style recomputation from scratch
        m = np.asarray(ANOVA_MATRIX)
        grand = m.mean()
        ss_total = ((m - grand) ** 2).sum()
        ss_strategy = m.shape[0] * ((m.mean(axis=0) - grand) ** 2).sum()
        ss_subject = m.shape[1] * ((m.mean(axis=1) - grand) ** 2).sum()
        ss_error = ss_total - ss_strategy - ss_subject
        f = (ss_strategy / 2.0) / (ss_error / 4.0)
        assert res.f_statistic == pytest.approx(f, abs=1e-9)
        assert 0.0 <= res.p_value <= 1.0

    def test_identical_columns_give_zero_f(self):
        col = [1.0, 2.0, 3.0, 4.0]
        res = repeated_measures_anova(np.column_stack([col, col, col]))
        assert res.f_statistic == 0.0
        assert res.p_value == 1.0

    def test_df_for_165_by_3(self):
        rng = np.random.default_rng(0)
        m = rng.normal(10.0, 1.0, size=(165, 3))
        res = repeated_measures_anova(m)
        assert (res.df_strategy, res.df_error) == (2, 328)

    def test_degenerate_zero_error_variance(self):
        # pure column shifts: subject and strategy explain everything
        base = np.array([1.0, 2.0, 3.0])
        m = np.column_stack([base, base + 1.0, base + 2.0])
        res = repeated_measures_anova(m)
        assert math.isinf(res.f_statistic)
        assert res.p_value == 0.0
        assert res.degenerate

    def test_incomplete_matrix_rejected(self):
        with pytest.raises(MetricsError):
            repeated_measures_anova(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(MetricsError):
            repeated_measures_anova(np.array([[1.0, 2.0]]))  # one scenario


class TestPairedComparison:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(samples=_paired_samples())
    def test_p_value_is_twice_scipy_stats_t_sf(self, samples):
        res = paired_comparison(*samples)
        assert res.p_value == 2.0 * float(stats.t.sf(abs(res.t_statistic), res.n - 1))

    def test_hand_worked_pairs(self):
        res = paired_comparison(PAIRED_A, PAIRED_B)
        assert res.t_statistic == pytest.approx(PAIRED_T, abs=1e-9)
        # manual recomputation
        d = np.asarray(PAIRED_A) - np.asarray(PAIRED_B)
        t = d.mean() / (d.std(ddof=1) / math.sqrt(len(d)))
        assert res.t_statistic == pytest.approx(t, abs=1e-12)
        assert res.mean_difference == pytest.approx(d.mean(), abs=1e-15)
        assert res.n == 5
        assert 0.0 < res.p_value < 1.0
        assert res.p_value == pytest.approx(
            2.0 * stats.t.sf(abs(t), len(d) - 1), abs=1e-12
        )

    def test_identical_samples(self):
        res = paired_comparison([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.mean_difference == 0.0
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0
        assert not res.degenerate

    def test_constant_shift_degenerate(self):
        res = paired_comparison([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert res.degenerate
        assert math.isinf(res.t_statistic)
        assert res.t_statistic > 0
        assert res.p_value == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            paired_comparison([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(MetricsError):
            paired_comparison([1.0], [2.0])


class TestBenjaminiHochberg:
    def test_worked_example(self):
        got = benjamini_hochberg(BH_INPUT)
        np.testing.assert_allclose(got, BH_EXPECTED, atol=1e-12)

    def test_preserves_order_positions(self):
        ps = [0.9, 0.001, 0.5]
        adj = benjamini_hochberg(ps)
        assert adj[1] < adj[2] <= adj[0]

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        ps = rng.uniform(0.0, 1.0, 20)
        adj = benjamini_hochberg(ps)
        assert np.all(adj >= ps - 1e-15)
        assert np.all(adj <= 1.0 + 1e-15)
        order = np.argsort(ps)
        assert np.all(np.diff(adj[order]) >= -1e-15)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            benjamini_hochberg([])
