"""Spatial hazard events and seeded failure sampling.

An event couples a footprint (point blast/flood cell, storm or flood
track, or a purely random pick) with an intensity level. A component's
failure probability is the product of the event occurrence probability,
its exposure given the footprint, and the conditional failure
probability for the intensity. Only water pipes, power lines, and road
links fail directly; everything else suffers through dependencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .network import IntegratedNetwork, component_location

POINT, TRACK, RANDOM = "point", "track", "random"
EVENT_KINDS = (POINT, TRACK, RANDOM)

INTENSITIES = ("low", "moderate", "high", "extreme")

# P(component fails | exposed), by intensity
CONDITIONAL_FAILURE = {"low": 0.1, "moderate": 0.3, "high": 0.6, "extreme": 0.9}

# relative occurrence odds of flood intensities, normalized to weights
_RAW_FLOOD_ODDS = {"low": 0.1, "moderate": 0.3, "high": 0.5}
FLOOD_INTENSITY_WEIGHTS = {k: v / sum(_RAW_FLOOD_ODDS.values()) for k, v in _RAW_FLOOD_ODDS.items()}

DEFAULT_OCCURRENCE_TIME = 3600.0


class HazardError(Exception):
    pass


@dataclass(frozen=True)
class HazardEvent:
    kind: str
    intensity: str = "moderate"
    center: tuple[float, float] | None = None
    radius: float | None = None
    track: tuple[tuple[float, float], ...] | None = None
    offset: float | None = None
    count: int | None = None
    occurrence_time: float = DEFAULT_OCCURRENCE_TIME

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise HazardError(f"unknown event kind {self.kind!r}")
        if self.intensity not in INTENSITIES + ("random",):
            raise HazardError(f"unknown intensity {self.intensity!r}")
        if self.kind == POINT and (self.center is None or not self.radius or self.radius <= 0):
            raise HazardError("point event needs a center and a positive radius")
        if self.kind == TRACK:
            if not self.track or len(self.track) < 2 or not self.offset or self.offset <= 0:
                raise HazardError("track event needs >= 2 vertices and a positive offset")
        if self.kind == RANDOM and (self.count is None or self.count < 1):
            raise HazardError("random event needs a positive component count")


@dataclass(frozen=True)
class ComponentFailure:
    component_id: str
    time: float
    severity: str  # 'leak' for pipes, 'full' otherwise


@dataclass(frozen=True)
class DisasterScenario:
    event: HazardEvent
    failures: tuple[ComponentFailure, ...]
    seed: int
    intensity: str  # resolved level, never 'random'


def _point_segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.dist(p, a)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg2))
    return math.dist(p, (ax + t * dx, ay + t * dy))


def track_distance(track, point) -> float:
    """Minimum distance from a point to the polyline."""
    return min(_point_segment_distance(point, a, b) for a, b in zip(track, track[1:]))


def exposure_probability(event: HazardEvent, location: tuple[float, float]) -> float:
    """P(exposed | hazard occurs) with linear decay across the footprint."""
    if event.kind == POINT:
        u = math.dist(location, event.center) / event.radius
    elif event.kind == TRACK:
        u = track_distance(event.track, location) / event.offset
    else:
        raise HazardError("random events have no spatial footprint")
    return max(0.0, 1.0 - u)


def conditional_failure_probability(intensity: str) -> float:
    try:
        return CONDITIONAL_FAILURE[intensity]
    except KeyError:
        raise HazardError(f"intensity {intensity!r} has no conditional failure probability") from None


def failure_probability(
    event: HazardEvent,
    net: IntegratedNetwork,
    component_id: str,
    p_hazard: float = 1.0,
    intensity: str | None = None,
) -> float:
    """Occurrence x exposure x conditional failure chain for one component."""
    if not 0.0 <= p_hazard <= 1.0:
        raise HazardError(f"p_hazard {p_hazard} outside [0, 1]")
    comp = net.component(component_id)
    level = intensity or event.intensity
    if level == "random":
        raise HazardError("resolve a random intensity before computing probabilities")
    exposure = exposure_probability(event, component_location(comp, net))
    return p_hazard * exposure * conditional_failure_probability(level)


def _severity(kind: str) -> str:
    return "leak" if kind == "pipe" else "full"


def sample_scenario(
    net: IntegratedNetwork,
    event: HazardEvent,
    p_hazard: float = 1.0,
    seed: int = 0,
) -> DisasterScenario:
    """Seeded Bernoulli draw over eligible components.

    Draw order is fixed (intensity resolution, then selection for random
    events, then one uniform per eligible component in id order) so a
    seed pins the outcome exactly.
    """
    if not 0.0 <= p_hazard <= 1.0:
        raise HazardError(f"p_hazard {p_hazard} outside [0, 1]")
    rng = np.random.default_rng(seed)
    level = event.intensity
    if level == "random":
        level = INTENSITIES[rng.integers(len(INTENSITIES))]
    cond = conditional_failure_probability(level)

    eligible = sorted(net.hazard_eligible(), key=lambda c: c.id)
    failures: list[ComponentFailure] = []
    if event.kind == RANDOM:
        k = min(event.count, len(eligible))
        picked = rng.choice(len(eligible), size=k, replace=False)
        chosen = {eligible[int(i)].id for i in picked}
        for comp in eligible:
            if comp.id not in chosen:
                continue
            if rng.random() < p_hazard * cond:
                failures.append(ComponentFailure(comp.id, event.occurrence_time, _severity(comp.kind)))
    else:
        for comp in eligible:
            p = p_hazard * exposure_probability(event, component_location(comp, net)) * cond
            if rng.random() < p:
                failures.append(ComponentFailure(comp.id, event.occurrence_time, _severity(comp.kind)))
    return DisasterScenario(event=event, failures=tuple(failures), seed=seed, intensity=level)


def draw_intensity(rng: np.random.Generator, weights: dict[str, float] | None = None) -> str:
    """Weighted intensity draw; defaults to the flood occurrence weights."""
    table = weights or FLOOD_INTENSITY_WEIGHTS
    levels = sorted(table)
    p = np.array([table[k] for k in levels], dtype=float)
    p = p / p.sum()
    return levels[int(rng.choice(len(levels), p=p))]


# ---------------------------------------------------------------------------
# storm/flood track generation


def _catmull_rom(p0, p1, p2, p3, t: float) -> tuple[float, float]:
    t2, t3 = t * t, t * t * t
    out = []
    for k in range(2):
        a, b, c, d = p0[k], p1[k], p2[k], p3[k]
        out.append(
            0.5
            * (
                2.0 * b
                + (-a + c) * t
                + (2.0 * a - 5.0 * b + 4.0 * c - d) * t2
                + (-a + 3.0 * b - 3.0 * c + d) * t3
            )
        )
    return (out[0], out[1])


def generate_track(
    bounds: tuple[float, float, float, float],
    n_control: int = 4,
    seed: int = 0,
    min_segments: int = 50,
) -> tuple[tuple[float, float], ...]:
    """Smooth random track through the region.

    ``bounds`` is (xmin, ymin, xmax, ymax). Control points are drawn
    uniformly inside, ordered by x so the track sweeps across the region,
    and joined by a Catmull-Rom spline discretized to at least
    ``min_segments`` segments. The spline can overshoot the control hull
    slightly, so callers should allow a modest margin around the bounds.
    """
    xmin, ymin, xmax, ymax = bounds
    if not (xmax > xmin and ymax > ymin):
        raise HazardError("degenerate region bounds")
    if n_control < 2:
        raise HazardError("need at least two control points")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(xmin, xmax, size=n_control)
    ys = rng.uniform(ymin, ymax, size=n_control)
    pts = sorted(zip(xs.tolist(), ys.tolist()))
    ctrl = [pts[0]] + pts + [pts[-1]]  # duplicate endpoints for tangents

    n_seg = len(pts) - 1
    per_seg = max(1, math.ceil(min_segments / n_seg))
    out: list[tuple[float, float]] = [pts[0]]
    for s in range(n_seg):
        p0, p1, p2, p3 = ctrl[s], ctrl[s + 1], ctrl[s + 2], ctrl[s + 3]
        for j in range(1, per_seg + 1):
            out.append(_catmull_rom(p0, p1, p2, p3, j / per_seg))
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario files


def scenario_to_dict(scenario: DisasterScenario) -> dict:
    ev = scenario.event
    return {
        "schema_version": 1,
        "seed": scenario.seed,
        "intensity": scenario.intensity,
        "event": {
            "kind": ev.kind,
            "intensity": ev.intensity,
            "center": list(ev.center) if ev.center else None,
            "radius": ev.radius,
            "track": [list(p) for p in ev.track] if ev.track else None,
            "offset": ev.offset,
            "count": ev.count,
            "occurrence_time": ev.occurrence_time,
        },
        "failures": [
            {"component_id": f.component_id, "time": f.time, "severity": f.severity}
            for f in scenario.failures
        ],
    }


def scenario_from_dict(doc: dict) -> DisasterScenario:
    if doc.get("schema_version") != 1:
        raise HazardError(f"unsupported scenario schema_version {doc.get('schema_version')!r}")
    e = doc["event"]
    event = HazardEvent(
        kind=e["kind"],
        intensity=e["intensity"],
        center=tuple(e["center"]) if e.get("center") else None,
        radius=e.get("radius"),
        track=tuple(tuple(p) for p in e["track"]) if e.get("track") else None,
        offset=e.get("offset"),
        count=e.get("count"),
        occurrence_time=e.get("occurrence_time", DEFAULT_OCCURRENCE_TIME),
    )
    failures = tuple(
        ComponentFailure(f["component_id"], float(f["time"]), f["severity"])
        for f in doc["failures"]
    )
    return DisasterScenario(event=event, failures=failures, seed=int(doc["seed"]), intensity=doc["intensity"])


def save_scenario(scenario: DisasterScenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path: str) -> DisasterScenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
