"""Hazard model: exposure geometry, failure sampling, event validation."""

import math

import pytest

from lifelinesim.hazard import (
    CONDITIONAL_FAILURE,
    INTENSITIES,
    HazardError,
    HazardEvent,
    conditional_failure_probability,
    exposure_probability,
    failure_probability,
    sample_scenario,
    track_distance,
)
from lifelinesim.network import Component, IntegratedNetwork, WATER

# Frozen draw on the built-in testbed: point event at (1000,1000),
# radius 1500 m, extreme intensity, seed 7.
SEED7_FAILURES = [
    "PL4",
    "TL-T2-T1",
    "TL-T4-T5",
    "TL-T5-T2",
    "TL-T5-T4",
    "TL-T6-T9",
    "TL-T7-T4",
    "TL-T8-T5",
    "TL-T8-T7",
    "WP-W2-W5",
    "WP-W4-W5",
    "WP-W4-W7",
    "WP-W8-W9",
]


def _grid_net():
    """Three pipes whose midpoints sit 0, 500, and 750 m from the origin."""
    comps = []
    for i, x in enumerate((0.0, 500.0, 750.0)):
        a, b = f"N{i}a", f"N{i}b"
        comps.append(Component(a, WATER, "demand_node", (x, -5.0),
                               {"base_demand": 0.01, "elevation": 0.0}))
        comps.append(Component(b, WATER, "demand_node", (x, 5.0),
                               {"base_demand": 0.01, "elevation": 0.0}))
        comps.append(Component(f"P{i}", WATER, "pipe", (0, 0),
                               {"length": 10.0, "diameter": 0.2, "roughness": 100.0},
                               ends=(a, b)))
    return IntegratedNetwork(comps, [])


class TestExposure:
    def test_point_linear_decay(self):
        event = HazardEvent(kind="point", intensity="high", center=(0.0, 0.0), radius=1000.0)
        assert exposure_probability(event, (0.0, 0.0)) == 1.0
        assert exposure_probability(event, (500.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
        assert exposure_probability(event, (0.0, 750.0)) == pytest.approx(0.25, abs=1e-12)
        assert exposure_probability(event, (1000.0, 0.0)) == 0.0
        assert exposure_probability(event, (2000.0, 0.0)) == 0.0

    def test_track_corridor_decay(self):
        track = ((0.0, 0.0), (1000.0, 0.0))
        event = HazardEvent(kind="track", intensity="high", track=track, offset=200.0)
        assert exposure_probability(event, (500.0, 0.0)) == 1.0
        assert exposure_probability(event, (500.0, 100.0)) == pytest.approx(0.5, abs=1e-12)
        assert exposure_probability(event, (500.0, 300.0)) == 0.0
        # beyond the endpoint the distance is to the endpoint itself
        assert exposure_probability(event, (1100.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_random_kind_has_no_geometry(self):
        event = HazardEvent(kind="random", intensity="high", count=2)
        with pytest.raises(HazardError):
            exposure_probability(event, (0.0, 0.0))

    def test_track_distance(self):
        track = ((0.0, 0.0), (100.0, 0.0), (100.0, 100.0))
        assert track_distance(track, (50.0, 10.0)) == pytest.approx(10.0)
        assert track_distance(track, (110.0, 50.0)) == pytest.approx(10.0)
        assert track_distance(track, (0.0, 0.0)) == 0.0


class TestFailureProbability:
    def test_conditional_table(self):
        assert CONDITIONAL_FAILURE == {
            "low": 0.1, "moderate": 0.3, "high": 0.6, "extreme": 0.9,
        }
        for name, p in CONDITIONAL_FAILURE.items():
            assert conditional_failure_probability(name) == p
        with pytest.raises(HazardError):
            conditional_failure_probability("apocalyptic")

    def test_product_form(self):
        net = _grid_net()
        event = HazardEvent(kind="point", intensity="moderate", center=(0.0, 0.0), radius=1000.0)
        # P1 midpoint at 500 m -> exposure 0.5; moderate -> 0.3
        assert failure_probability(event, net, "P1", p_hazard=0.8) == pytest.approx(
            0.8 * 0.5 * 0.3, abs=1e-12
        )
        assert failure_probability(event, net, "P0", p_hazard=1.0) == pytest.approx(0.3)
        # intensity override
        assert failure_probability(event, net, "P0", intensity="extreme") == pytest.approx(0.9)

    def test_sampler_only_fails_eligible_kinds(self, net):
        # nodes never appear in sampled failures, only pipes/lines/roads
        event = HazardEvent(kind="point", intensity="extreme", center=(1000.0, 1000.0), radius=2500.0)
        for seed in range(5):
            scen = sample_scenario(net, event, seed=seed)
            for f in scen.failures:
                assert net.component(f.component_id).kind in {"pipe", "line", "road_link"}

    def test_monotone_in_each_factor(self):
        net = _grid_net()
        event = HazardEvent(kind="point", intensity="low", center=(0.0, 0.0), radius=1000.0)
        # p_hazard
        assert failure_probability(event, net, "P1", 0.2) <= failure_probability(event, net, "P1", 0.9)
        # exposure (P0 nearer than P1 nearer than P2)
        ps = [failure_probability(event, net, c) for c in ("P0", "P1", "P2")]
        assert ps[0] >= ps[1] >= ps[2]
        # intensity ladder
        ladder = [failure_probability(event, net, "P1", intensity=i) for i in INTENSITIES]
        assert all(a <= b for a, b in zip(ladder, ladder[1:]))
        assert all(0.0 <= p <= 1.0 for p in ladder + ps)


class TestSampling:
    def test_frozen_testbed_draw(self, net):
        event = HazardEvent(kind="point", intensity="extreme", center=(1000.0, 1000.0), radius=1500.0)
        scen = sample_scenario(net, event, p_hazard=1.0, seed=7)
        assert [f.component_id for f in scen.failures] == SEED7_FAILURES
        assert scen.intensity == "extreme"
        assert all(f.time == 3600.0 for f in scen.failures)

    def test_severity_by_kind(self, net):
        event = HazardEvent(kind="point", intensity="extreme", center=(1000.0, 1000.0), radius=1500.0)
        scen = sample_scenario(net, event, p_hazard=1.0, seed=7)
        for f in scen.failures:
            kind = net.component(f.component_id).kind
            assert f.severity == ("leak" if kind == "pipe" else "full")

    def test_deterministic_per_seed(self, net):
        event = HazardEvent(kind="point", intensity="high", center=(1000.0, 1000.0), radius=1500.0)
        a = sample_scenario(net, event, seed=123)
        b = sample_scenario(net, event, seed=123)
        assert a.failures == b.failures
        # different seeds differ somewhere over a handful of draws
        draws = {tuple(f.component_id for f in sample_scenario(net, event, seed=s).failures)
                 for s in range(8)}
        assert len(draws) > 1

    def test_p_hazard_zero_fails_nothing(self, net):
        event = HazardEvent(kind="point", intensity="extreme", center=(1000.0, 1000.0), radius=1500.0)
        scen = sample_scenario(net, event, p_hazard=0.0, seed=1)
        assert scen.failures == ()

    def test_random_event_count_bound(self, net):
        event = HazardEvent(kind="random", intensity="extreme", count=5)
        for seed in range(6):
            scen = sample_scenario(net, event, seed=seed)
            ids = [f.component_id for f in scen.failures]
            assert len(ids) <= 5
            assert len(set(ids)) == len(ids)
            for cid in ids:
                assert net.component(cid).kind in {"pipe", "line", "road_link"}

    def test_random_intensity_resolves(self, net):
        event = HazardEvent(kind="random", intensity="random", count=3)
        seen = {sample_scenario(net, event, seed=s).intensity for s in range(40)}
        assert seen <= set(INTENSITIES)
        assert len(seen) >= 2

    def test_empirical_frequency_tracks_probability(self):
        # small-sample version of the statistical acceptance check
        net = _grid_net()
        n = 5000
        event = HazardEvent(kind="point", intensity="extreme", center=(0.0, 0.0), radius=1000.0)
        counts = {"P0": 0, "P1": 0, "P2": 0}
        for seed in range(n):
            for f in sample_scenario(net, event, seed=seed).failures:
                counts[f.component_id] += 1
        for cid, exposure in (("P0", 1.0), ("P1", 0.5), ("P2", 0.25)):
            p = exposure * 0.9
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[cid] / n - p) <= 4.0 * se, cid


class TestEventValidation:
    def test_point_requires_geometry(self):
        with pytest.raises(HazardError):
            HazardEvent(kind="point", intensity="high")
        with pytest.raises(HazardError):
            HazardEvent(kind="point", intensity="high", center=(0.0, 0.0), radius=-5.0)

    def test_track_requires_polyline(self):
        with pytest.raises(HazardError):
            HazardEvent(kind="track", intensity="high", offset=100.0)
        with pytest.raises(HazardError):
            HazardEvent(kind="track", intensity="high",
                        track=((0.0, 0.0),), offset=100.0)

    def test_random_requires_count(self):
        with pytest.raises(HazardError):
            HazardEvent(kind="random", intensity="high")
        with pytest.raises(HazardError):
            HazardEvent(kind="random", intensity="high", count=0)

    def test_unknown_kind_and_intensity(self):
        with pytest.raises(HazardError):
            HazardEvent(kind="meteor", intensity="high", count=1)
        with pytest.raises(HazardError):
            HazardEvent(kind="random", intensity="sunny", count=1)

    @pytest.mark.parametrize("geometry", [
        {"kind": "point", "center": (0.0, 0.0), "radius": math.nan},
        {"kind": "point", "center": (0.0, 0.0), "radius": math.inf},
        {"kind": "point", "center": (math.nan, 350.0), "radius": 700.0},
        {"kind": "point", "center": (0.0, -math.inf), "radius": 700.0},
        {"kind": "track", "track": ((0.0, 0.0), (100.0, 0.0)), "offset": math.nan},
        {"kind": "track", "track": ((0.0, 0.0), (math.inf, 0.0)), "offset": 50.0},
        {"kind": "track", "track": ((math.nan, 0.0), (100.0, 0.0)), "offset": 50.0},
    ])
    def test_non_finite_geometry(self, geometry):
        with pytest.raises(HazardError, match="finite"):
            HazardEvent(intensity="high", **geometry)

    @pytest.mark.parametrize("occurrence", [math.nan, math.inf, -10.0])
    def test_occurrence_time_must_be_finite_and_not_negative(self, occurrence):
        with pytest.raises(HazardError, match="occurrence time"):
            HazardEvent(kind="random", count=3, occurrence_time=occurrence)
