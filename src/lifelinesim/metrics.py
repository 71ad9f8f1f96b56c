"""Resilience metrics over consumer service time series.

Two instantaneous measures of performance: ECS averages each consumer's
served fraction (equal consumer importance) and PCS divides total
supplied by total normal demand (volume-weighted). Integrating their
shortfall over the disruption window yields equivalent outage hours
(EOH), the scalar used to compare restoration strategies; batch
comparisons run through a repeated-measures ANOVA and paired t tests
with Benjamini-Hochberg correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

LINEAR, STEP = "linear", "step"

DEFAULT_EOH_WEIGHTS = {"water": 0.5, "power": 0.5}


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class NetworkSeries:
    """Per-consumer supplied vs. normal service for one network.

    ``supplied[j, i]`` is consumer ``i``'s delivery at ``times[j]`` and
    ``baseline[j, i]`` what an undisrupted system would deliver. With
    ``interpolation == "step"`` each sample holds until the next one
    (dispatch output between events); ``"linear"`` joins samples
    (minute-sampled hydraulics).
    """

    network: str
    times: np.ndarray
    consumers: tuple[str, ...]
    supplied: np.ndarray
    baseline: np.ndarray
    interpolation: str = LINEAR

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.supplied, dtype=float)
        b = np.asarray(self.baseline, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "supplied", s)
        object.__setattr__(self, "baseline", b)
        if self.interpolation not in (LINEAR, STEP):
            raise MetricsError(f"unknown interpolation {self.interpolation!r}")
        if t.ndim != 1 or len(t) < 1:
            raise MetricsError("series needs at least one sample time")
        if np.any(np.diff(t) <= 0):
            raise MetricsError("sample times must be strictly increasing")
        want = (len(t), len(self.consumers))
        if s.shape != want or b.shape != want:
            raise MetricsError(f"supplied/baseline must have shape {want}")
        if np.any(s < -1e-12) or np.any(b < -1e-12):
            raise MetricsError("negative service values")

    def sample_index(self, t: float) -> int:
        j = int(np.searchsorted(self.times, t))
        if j >= len(self.times) or self.times[j] != t:
            raise MetricsError(f"no sample at t={t}")
        return j


def _served_fractions(series: NetworkSeries, j: int) -> np.ndarray | None:
    """Per-consumer min(s/S, 1) at sample j, or None when no S_i > 0."""
    s_row = series.supplied[j]
    b_row = series.baseline[j]
    mask = b_row > 0
    if not mask.any():
        return None
    return np.minimum(s_row[mask] / b_row[mask], 1.0)


def ecs(series: NetworkSeries, t: float) -> float:
    """Equal-importance served fraction at time t; NaN when undefined."""
    frac = _served_fractions(series, series.sample_index(t))
    return float(frac.mean()) if frac is not None else math.nan


def pcs(series: NetworkSeries, t: float) -> float:
    """Volume-weighted served fraction at time t; NaN when undefined."""
    j = series.sample_index(t)
    s_row, b_row = series.supplied[j], series.baseline[j]
    mask = b_row > 0
    total = b_row[mask].sum()
    if total <= 0:
        return math.nan
    return float(np.minimum(s_row[mask], b_row[mask]).sum() / total)


def ecs_curve(series: NetworkSeries) -> np.ndarray:
    out = np.empty(len(series.times))
    for j in range(len(series.times)):
        frac = _served_fractions(series, j)
        out[j] = frac.mean() if frac is not None else math.nan
    return out


def pcs_curve(series: NetworkSeries) -> np.ndarray:
    s, b = series.supplied, series.baseline
    capped = np.minimum(s, b)
    num = np.where(b > 0, capped, 0.0).sum(axis=1)
    den = np.where(b > 0, b, 0.0).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / den, math.nan)
    return out


# ---------------------------------------------------------------------------
# equivalent outage hours


def _curve_value(times, values, t, interpolation):
    if interpolation == STEP:
        j = int(np.searchsorted(times, t, side="right")) - 1
        return values[max(j, 0)]
    return float(np.interp(t, times, values))


def curve_eoh(
    times: np.ndarray,
    values: np.ndarray,
    t0: float,
    horizon: float,
    interpolation: str = LINEAR,
) -> float:
    """(1/3600) integral of (1 - curve) over [t0, horizon], in hours.

    Step curves integrate exactly (rectangles); linear curves use the
    trapezoidal rule on the sample grid. NaN samples (instants where the
    measure is undefined) are excluded from the integration window.
    """
    if horizon <= t0:
        raise MetricsError(f"horizon {horizon} must exceed start {t0}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)

    # clip the window to the sampled range, then splice in exact endpoint values
    lo, hi = max(t0, times[0]), min(horizon, times[-1])
    if hi <= lo:
        return 0.0
    inside = (times > lo) & (times < hi)
    grid = np.concatenate(([lo], times[inside], [hi]))
    vals = np.concatenate(
        (
            [_curve_value(times, values, lo, interpolation)],
            values[inside],
            [_curve_value(times, values, hi, interpolation)],
        )
    )

    ok = ~np.isnan(vals)
    grid, vals = grid[ok], vals[ok]
    if len(grid) < 2:
        return 0.0
    shortfall = 1.0 - np.clip(vals, 0.0, 1.0)
    if interpolation == STEP:
        total = float(np.sum(shortfall[:-1] * np.diff(grid)))
    else:
        total = float(np.trapezoid(shortfall, grid))
    return total / 3600.0


def system_eoh(
    series: NetworkSeries,
    t0: float,
    horizon: float,
    measure: str = "pcs",
) -> float:
    """Outage hours of the system measure (PCS by default, or ECS)."""
    if measure == "pcs":
        values = pcs_curve(series)
    elif measure == "ecs":
        values = ecs_curve(series)
    else:
        raise MetricsError(f"unknown measure {measure!r}; expected 'pcs' or 'ecs'")
    return curve_eoh(series.times, values, t0, horizon, series.interpolation)


def consumer_eoh(series: NetworkSeries, consumer_id: str, t0: float, horizon: float) -> float:
    """Outage hours for one consumer; NaN if it never has normal demand."""
    try:
        i = series.consumers.index(consumer_id)
    except ValueError:
        raise MetricsError(f"no consumer {consumer_id!r} in {series.network} series") from None
    s_col = series.supplied[:, i]
    b_col = series.baseline[:, i]
    if not np.any(b_col > 0):
        return math.nan
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(b_col > 0, np.minimum(s_col / b_col, 1.0), math.nan)
    return curve_eoh(series.times, ratio, t0, horizon, series.interpolation)


def weighted_eoh(eoh_by_network: dict[str, float], weights: dict[str, float] | None = None) -> float:
    """Weighted sum of per-network outage hours (equal water/power default)."""
    weights = weights if weights is not None else DEFAULT_EOH_WEIGHTS
    total = 0.0
    for network, value in sorted(eoh_by_network.items()):
        try:
            w = weights[network]
        except KeyError:
            raise MetricsError(f"no weight for network {network!r}") from None
        if w < 0:
            raise MetricsError("weights must be nonnegative")
        total += w * value
    return total


# ---------------------------------------------------------------------------
# batch statistics


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    df_strategy: int
    df_error: int
    p_value: float
    ss_strategy: float
    ss_subject: float
    ss_error: float
    ms_strategy: float
    ms_error: float
    degenerate: bool = False


def repeated_measures_anova(matrix) -> AnovaResult:
    """One-way repeated-measures ANOVA on a scenarios x strategies matrix.

    Scenarios are the repeated subjects; the F statistic compares
    strategy variance against the subject-by-strategy residual.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2:
        raise MetricsError("expected a 2-D scenarios x strategies matrix")
    n, k = x.shape
    if n < 2 or k < 2:
        raise MetricsError("need at least 2 scenarios and 2 strategies")
    if np.any(np.isnan(x)):
        raise MetricsError("matrix has missing entries")

    grand = x.mean()
    ss_strategy = n * float(np.sum((x.mean(axis=0) - grand) ** 2))
    ss_subject = k * float(np.sum((x.mean(axis=1) - grand) ** 2))
    ss_total = float(np.sum((x - grand) ** 2))
    ss_error = max(ss_total - ss_strategy - ss_subject, 0.0)
    df1, df2 = k - 1, (k - 1) * (n - 1)
    ms_strategy = ss_strategy / df1
    ms_error = ss_error / df2

    scale = max(ss_total, 1.0)
    if ss_strategy <= 1e-12 * scale:
        f_stat, p, degenerate = 0.0, 1.0, False
    elif ms_error <= 1e-15 * scale:
        f_stat, p, degenerate = math.inf, 0.0, True
    else:
        f_stat = ms_strategy / ms_error
        p = float(stats.f.sf(f_stat, df1, df2))
        degenerate = False
    return AnovaResult(
        f_statistic=f_stat,
        df_strategy=df1,
        df_error=df2,
        p_value=p,
        ss_strategy=ss_strategy,
        ss_subject=ss_subject,
        ss_error=ss_error,
        ms_strategy=ms_strategy,
        ms_error=ms_error,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class PairedResult:
    mean_difference: float
    t_statistic: float
    p_value: float
    n: int
    degenerate: bool = False


def paired_comparison(sample_a, sample_b) -> PairedResult:
    """Two-sided paired t test on matched samples (a - b differences)."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise MetricsError("paired samples must be equal-length 1-D arrays")
    n = len(a)
    if n < 2:
        raise MetricsError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return PairedResult(0.0, 0.0, 1.0, n)
        return PairedResult(mean, math.copysign(math.inf, mean), 0.0, n, degenerate=True)
    t_stat = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t_stat), n - 1))
    return PairedResult(mean, t_stat, p, n)


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up adjusted p-values controlling the false discovery rate."""
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise MetricsError("expected a non-empty 1-D array of p-values")
    m = len(p)
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, p[idx] * m / rank)
        adjusted[idx] = running
    return adjusted
