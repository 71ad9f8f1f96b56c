"""Spatial hazard events and seeded failure sampling.

An event couples a footprint (point blast/flood cell, storm or flood
track, or a purely random pick) with an intensity level. A component's
failure probability is the product of the event occurrence probability,
its exposure given the footprint, and the conditional failure
probability for the intensity. Only water pipes, power lines, and road
links fail directly; everything else suffers through dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import IntegratedNetwork, component_location

POINT, TRACK, RANDOM = "point", "track", "random"
EVENT_KINDS = (POINT, TRACK, RANDOM)

INTENSITIES = ("low", "moderate", "high", "extreme")

# P(component fails | exposed), by intensity
CONDITIONAL_FAILURE = {"low": 0.1, "moderate": 0.3, "high": 0.6, "extreme": 0.9}

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
        geometry = [*(self.center or ()), *(v for p in self.track or () for v in p), self.radius, self.offset]
        if not all(math.isfinite(v) for v in geometry if v is not None):
            raise HazardError("hazard geometry must be finite")
        if self.kind == POINT and (self.center is None or not self.radius or self.radius <= 0):
            raise HazardError("point event needs a center and a positive radius")
        if self.kind == TRACK:
            if not self.track or len(self.track) < 2 or not self.offset or self.offset <= 0:
                raise HazardError("track event needs >= 2 vertices and a positive offset")
        if self.kind == RANDOM and (self.count is None or self.count < 1):
            raise HazardError("random event needs a positive component count")
        if not (math.isfinite(self.occurrence_time) and self.occurrence_time >= 0.0):
            raise HazardError(f"occurrence time must be finite and >= 0, got {self.occurrence_time}")


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
            if rng.random() < failure_probability(event, net, comp.id, p_hazard, level):
                failures.append(ComponentFailure(comp.id, event.occurrence_time, _severity(comp.kind)))
    return DisasterScenario(event=event, failures=tuple(failures), seed=seed, intensity=level)

