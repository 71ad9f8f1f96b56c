"""Repair scheduling and the time-synchronized interdependent run.

``build_event_table`` turns a disaster scenario plus per-network repair
orders into a timestamped ledger of fail/repair events, routing crews
over the congested road network and deferring components whose access
node cannot be reached until a road repair opens the way.

``simulate`` replays that ledger: between consecutive event timestamps
the power dispatch is solved once and held constant, hydraulics are
sampled every minute of simulation time (tank levels integrate through
mid-minute events; once nothing can change until the next event, the
remaining minutes repeat the last sample unstepped), and outages propagate across networks — a
de-energized motor forces its pump out of service, a dry tank forces
its dependent generator off.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import metrics
from .hazard import DisasterScenario
from .hydraulics import HydraulicError, WaterSimulator
from .metrics import NetworkSeries
from .network import (
    POWER,
    STATUS_FAILED,
    STATUS_REPAIRED,
    STATUS_UNDER_REPAIR,
    TRAFFIC,
    WATER,
    IntegratedNetwork,
    access_node,
    check_transition,
    traffic_adjacency,
)
from .powerflow import PowerFlowError, dispatch_key, motor_operational, solve_power
from .recovery import (
    STRATEGIES,
    Crew,
    RecoveryError,
    build_planning_context,
    default_crews,
    mpc_sequence,
    rank_components,
    repair_duration,
)
from .traffic import TrafficAssignmentError, assign_traffic, link_times_key
from . import graphs

ACTION_FAIL = "fail"
ACTION_REPAIR_START = "repair_start"
ACTION_REPAIR_END = "repair_end"
ACTIONS = (ACTION_FAIL, ACTION_REPAIR_START, ACTION_REPAIR_END)
_ACTION_RANK = {ACTION_FAIL: 0, ACTION_REPAIR_START: 1, ACTION_REPAIR_END: 2}

WATER_SAMPLE_STEP = 60.0
POST_RECOVERY_WINDOW = 24 * 3600.0
BLOCKED_ROAD_FACTOR = 5.0  # failed-link slowdown when crews must cross anyway

_TIME_TOL = 1e-9


class SimulationError(Exception):
    pass


# ---------------------------------------------------------------------------
# event table


@dataclass(frozen=True)
class EventRow:
    time: float
    component_id: str
    action: str
    crew_id: str | None = None

    def sort_key(self):
        return (self.time, _ACTION_RANK.get(self.action, 99), self.component_id)


@dataclass(frozen=True)
class EventTable:
    rows: tuple[EventRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=EventRow.sort_key)))

    def __len__(self) -> int:
        return len(self.rows)

    def of_action(self, action: str) -> list[EventRow]:
        return [r for r in self.rows if r.action == action]

    def occurrence_time(self) -> float:
        fails = self.of_action(ACTION_FAIL)
        return min(r.time for r in fails) if fails else 0.0

    def last_time(self) -> float:
        return self.rows[-1].time if self.rows else 0.0

    def last_repair_end(self) -> float | None:
        ends = self.of_action(ACTION_REPAIR_END)
        return max(r.time for r in ends) if ends else None

    def validate(self) -> list[str]:
        """Semantic problems with the ledger, empty when sound."""
        problems: list[str] = []
        fail_at: dict[str, float] = {}
        start_at: dict[str, float] = {}
        start_crew: dict[str, str | None] = {}
        end_at: dict[str, float] = {}
        for row in self.rows:
            if row.action not in ACTIONS:
                problems.append(f"unknown action {row.action!r} for {row.component_id}")
                continue
            if row.action == ACTION_FAIL:
                if row.component_id in fail_at:
                    problems.append(f"{row.component_id} fails twice")
                fail_at[row.component_id] = row.time
            elif row.action == ACTION_REPAIR_START:
                if row.component_id not in fail_at:
                    problems.append(f"{row.component_id} repair_start before any fail")
                elif row.time < fail_at[row.component_id]:
                    problems.append(f"{row.component_id} repair_start precedes its fail")
                if row.component_id in start_at:
                    problems.append(f"{row.component_id} repair_start twice")
                start_at[row.component_id] = row.time
                start_crew[row.component_id] = row.crew_id
            else:
                if row.component_id not in start_at:
                    problems.append(f"{row.component_id} repair_end before repair_start")
                elif row.time <= start_at[row.component_id]:
                    problems.append(f"{row.component_id} repair has nonpositive duration")
                end_at[row.component_id] = row.time
        for cid in start_at:
            if cid not in end_at:
                problems.append(f"{cid} repair never ends")
        # a crew works one job at a time: its repair intervals may touch
        # at a boundary but never overlap
        by_crew: dict[str, list[tuple[float, float, str]]] = {}
        for cid, crew in start_crew.items():
            if crew is not None and cid in end_at:
                by_crew.setdefault(crew, []).append((start_at[cid], end_at[cid], cid))
        for crew, jobs in sorted(by_crew.items()):
            jobs.sort()
            for (s1, e1, c1), (s2, e2, c2) in zip(jobs, jobs[1:]):
                if s2 < e1 - _TIME_TOL:
                    problems.append(
                        f"crew {crew} repairs overlap: {c2} starts at {s2} "
                        f"while {c1} runs until {e1}"
                    )
        return problems

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_s", "component_id", "action", "crew_id"])
            for row in self.rows:
                writer.writerow([repr(row.time), row.component_id, row.action, row.crew_id or ""])

    @classmethod
    def from_csv(cls, path: str) -> "EventTable":
        rows: list[EventRow] = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            expected = ["time_s", "component_id", "action", "crew_id"]
            if reader.fieldnames != expected:
                raise SimulationError(f"expected CSV columns {expected}, got {reader.fieldnames}")
            for rec in reader:
                rows.append(
                    EventRow(
                        time=float(rec["time_s"]),
                        component_id=rec["component_id"],
                        action=rec["action"],
                        crew_id=rec["crew_id"] or None,
                    )
                )
        return cls(tuple(rows))


# ---------------------------------------------------------------------------
# crew scheduling


def _grouped_failures(net: IntegratedNetwork, scenario: DisasterScenario) -> dict[str, list[str]]:
    by_network: dict[str, list[str]] = {}
    for f in sorted(scenario.failures, key=lambda f: f.component_id):
        comp = net.component(f.component_id)
        by_network.setdefault(comp.network, []).append(comp.id)
    return by_network


def build_event_table(
    net: IntegratedNetwork,
    scenario: DisasterScenario,
    repair_order: dict[str, list[str]],
    crews: list[Crew] | None = None,
    durations: dict[str, float] | None = None,
    allow_partial: bool = False,
) -> EventTable:
    """Schedule repairs around road access, one component at a time.

    Each network's crew takes its next listed component, checks whether
    the component's access node is reachable over in-service road links,
    and if so books travel (congested shortest path) plus the repair;
    inaccessible components are deferred in favor of later accessible
    ones. Travel times refresh after every road-link repair. Crews
    become available at the disaster occurrence time.

    When every crew is stuck: with a road crew present its next task is
    forced to the nearest failed road link (free-flow metric, blocked
    links passable at 5x); with no road crew, blocked links become
    passable at 5x free-flow for routing so work can proceed.

    ``allow_partial`` permits an order covering only a subset of the
    failures (receding-horizon evaluation); unlisted components simply
    stay failed.
    """
    failed_by_network = _grouped_failures(net, scenario)
    for network, order in sorted(repair_order.items()):
        have = set(failed_by_network.get(network, ()))
        listed = list(order)
        if len(set(listed)) != len(listed):
            raise SimulationError(f"repair order for {network} lists a component twice")
        if not set(listed) <= have:
            extra = sorted(set(listed) - have)
            raise SimulationError(f"repair order for {network} lists non-failed components {extra}")
        if not allow_partial and set(listed) != have:
            missing = sorted(have - set(listed))
            raise SimulationError(f"repair order for {network} misses failed components {missing}")

    occurrence = scenario.event.occurrence_time
    rows = [
        EventRow(f.time, f.component_id, ACTION_FAIL)
        for f in sorted(scenario.failures, key=lambda f: f.component_id)
    ]

    crew_list = [replace(c) for c in (crews if crews is not None else default_crews(net))]
    by_network: dict[str, Crew] = {}
    for crew in sorted(crew_list, key=lambda c: c.id):
        if crew.network in by_network:
            raise SimulationError(
                f"crews {by_network[crew.network].id} and {crew.id} both serve "
                f"{crew.network}; scheduling supports one crew per network"
            )
        by_network[crew.network] = crew
        crew.busy_until = max(crew.busy_until, occurrence)

    pending: dict[str, list[str]] = {
        network: list(order)
        for network, order in sorted(repair_order.items())
        if order and network in by_network
    }

    statuses: dict[str, str] = {f.component_id: STATUS_FAILED for f in scenario.failures}

    def refresh_times() -> dict[str, float] | None:
        try:
            return net.cached(
                link_times_key(net, statuses),
                lambda: assign_traffic(net, statuses).link_time,
            )
        except TrafficAssignmentError as exc:
            raise SimulationError(f"traffic assignment failed during scheduling: {exc}") from exc

    link_times = refresh_times()
    # road repairs already booked but not yet open: (end_time, link_id)
    booked_roads: list[tuple[float, str]] = []

    def apply_openings(now: float) -> None:
        nonlocal link_times
        while booked_roads and booked_roads[0][0] <= now + _TIME_TOL:
            _, link_id = booked_roads.pop(0)
            statuses[link_id] = STATUS_REPAIRED
            link_times = refresh_times()

    def reach_from(location: str, factor: float | None = None) -> dict[str, float]:
        adj = traffic_adjacency(net, statuses, link_times, failed_factor=factor)
        return graphs.dijkstra(adj, location)[0]

    def first_accessible(crew: Crew, factor: float | None = None) -> tuple[str, float] | None:
        dist = reach_from(crew.location, factor)
        for cid in pending[crew.network]:
            travel = dist.get(access_node(net, cid), math.inf)
            if math.isfinite(travel):
                return cid, travel
        return None

    def book(crew: Crew, cid: str, travel: float) -> None:
        comp = net.component(cid)
        start = crew.busy_until + travel
        end = start + repair_duration(comp.kind, durations)
        rows.append(EventRow(start, cid, ACTION_REPAIR_START, crew.id))
        rows.append(EventRow(end, cid, ACTION_REPAIR_END, crew.id))
        crew.location = access_node(net, cid)
        crew.busy_until = end
        pending[crew.network].remove(cid)
        if not pending[crew.network]:
            del pending[crew.network]
        if comp.kind == "road_link":
            booked_roads.append((end, cid))
            booked_roads.sort()

    def force_road_crew() -> bool:
        """Deadlock break: send the road crew to its nearest blocked link."""
        road_crew = by_network.get(TRAFFIC)
        if road_crew is None or TRAFFIC not in pending:
            return False
        apply_openings(road_crew.busy_until)
        adj = traffic_adjacency(net, statuses, None, failed_factor=BLOCKED_ROAD_FACTOR)
        dist = graphs.dijkstra(adj, road_crew.location)[0]
        best = None
        for cid in pending[TRAFFIC]:
            travel = dist.get(access_node(net, cid), math.inf)
            if best is None or (travel, cid) < best[:2]:
                best = (travel, cid)
        travel, cid = best
        if not math.isfinite(travel):
            raise SimulationError(
                f"road crew at {road_crew.location} cannot reach any failed road link"
            )
        book(road_crew, cid, travel)
        return True

    while pending:
        active = [by_network[n] for n in pending if n in by_network]
        crew = min(active, key=lambda c: (c.busy_until, c.id))
        apply_openings(crew.busy_until)
        found = first_accessible(crew)
        if found is not None:
            book(crew, *found)
            continue
        upcoming = [end for end, _ in booked_roads if end > crew.busy_until + _TIME_TOL]
        if upcoming:
            crew.busy_until = upcoming[0]  # wait for the next road to open
            continue
        if force_road_crew():
            continue
        # no road crew can help: cross blocked links at the slowdown factor
        found = first_accessible(crew, factor=BLOCKED_ROAD_FACTOR)
        if found is None:
            raise SimulationError(
                f"crew {crew.id} at {crew.location} cannot reach any of "
                f"{pending[crew.network]} even over blocked roads"
            )
        book(crew, *found)

    return EventTable(tuple(rows))


# ---------------------------------------------------------------------------
# interdependent simulation


@dataclass(frozen=True)
class SimulationResult:
    water: NetworkSeries
    power: NetworkSeries
    event_table: EventTable
    occurrence_time: float
    horizon: float

    def series(self, network: str) -> NetworkSeries:
        if network == WATER:
            return self.water
        if network == POWER:
            return self.power
        raise SimulationError(f"no performance series for network {network!r}")

    def eoh(self, network: str, measure: str = "pcs") -> float:
        if self.horizon <= self.occurrence_time:
            return 0.0
        return metrics.system_eoh(self.series(network), self.occurrence_time, self.horizon, measure)

    def weighted_eoh(self, weights: dict[str, float] | None = None, measure: str = "pcs") -> float:
        return metrics.weighted_eoh(
            {WATER: self.eoh(WATER, measure), POWER: self.eoh(POWER, measure)}, weights
        )


def _status_timeline(table: EventTable) -> dict[float, list[EventRow]]:
    by_time: dict[float, list[EventRow]] = {}
    for row in table.rows:
        by_time.setdefault(row.time, []).append(row)
    return by_time


_ACTION_STATUS = {
    ACTION_FAIL: STATUS_FAILED,
    ACTION_REPAIR_START: STATUS_UNDER_REPAIR,
    ACTION_REPAIR_END: STATUS_REPAIRED,
}


def _on_grid(t: float) -> bool:
    return abs(t / WATER_SAMPLE_STEP - round(t / WATER_SAMPLE_STEP)) < 1e-9


def _dispatch(net: IntegratedNetwork, statuses: dict[str, str], forced_off=frozenset()):
    """``solve_power``, solved once per network and per key of what it reads."""
    return net.cached(
        dispatch_key(net, statuses, forced_off),
        lambda: solve_power(net, statuses, forced_off=forced_off),
    )


def _run_series(net: IntegratedNetwork, table: EventTable, horizon: float):
    """One pass of the interleaved loop; returns raw sample arrays."""
    water_ids = [c.id for c in sorted(net.consumers(WATER), key=lambda c: c.id)]
    power_ids = [c.id for c in sorted(net.consumers(POWER), key=lambda c: c.id)]
    motor_pump = [
        (d.source_id, d.target_id) for d in net.dependencies if d.kind == "motor_drives_pump"
    ]
    source_gen = [
        (d.source_id, d.target_id) for d in net.dependencies if d.kind == "reservoir_feeds_generator"
    ]

    by_time = _status_timeline(table)
    boundaries = sorted({0.0, horizon, *by_time})
    if boundaries[-1] > horizon:
        raise SimulationError(f"event at t={boundaries[-1]} beyond horizon {horizon}")

    statuses: dict[str, str] = {}
    forced_generators: set[str] = set()

    sim = WaterSimulator(net)
    water_times: list[float] = []
    water_rows: list[list[float]] = []
    power_times: list[float] = []
    power_rows: list[list[float]] = []
    water_row: list[float] | None = None

    # each interval [a, b) is sampled up to but excluding b, which belongs
    # to the next one; the horizon closes the run as a zero-length interval
    # sampled once, on the grid or off it
    for a, b in [*zip(boundaries, boundaries[1:]), (horizon, horizon)]:
        for row in by_time.get(a, ()):
            current = statuses.get(row.component_id, net.component(row.component_id).status)
            new = _ACTION_STATUS[row.action]
            try:
                check_transition(current, new)
            except ValueError as exc:
                raise SimulationError(f"invalid event at t={a}: {exc}") from exc
            statuses[row.component_id] = new

        try:
            power_state = _dispatch(net, statuses, forced_generators)
        except PowerFlowError as exc:
            raise SimulationError(f"power dispatch failed at t={a}: {exc}") from exc
        power_times.append(a)
        power_rows.append([power_state.served.get(cid, 0.0) for cid in power_ids])

        forced_pumps = {
            pump for motor, pump in motor_pump if not motor_operational(net, power_state, motor)
        }
        sim.set_statuses(statuses, forced_off=forced_pumps)

        now = a
        while now < b - _TIME_TOL or a == b:
            if not sim.is_stationary():  # set_statuses drops the last solution
                try:
                    state = sim.solve(now)
                except HydraulicError as exc:
                    raise SimulationError(
                        f"hydraulic solve failed at t={now} in interval [{a}, {b})"
                    ) from exc
                water_row = [state.actual_demand[cid] for cid in water_ids]
                forced_generators = {gen for src, gen in source_gen if src in state.dry_tanks}
            if a == b or _on_grid(now):
                water_times.append(now)
                water_rows.append(water_row)
            if a == b:
                break
            k = math.floor(now / WATER_SAMPLE_STEP) + 1
            if sim.is_frozen():
                # every later step of the interval would keep this row and
                # these levels: emit its remaining grid samples directly
                while k * WATER_SAMPLE_STEP < b - _TIME_TOL:
                    water_times.append(k * WATER_SAMPLE_STEP)
                    water_rows.append(water_row)
                    k += 1
                break
            nxt = min(b, k * WATER_SAMPLE_STEP)
            sim.advance(nxt - now)
            now = nxt

    return (
        water_ids,
        np.array(water_times),
        np.array(water_rows),
        power_ids,
        np.array(power_times),
        np.array(power_rows),
    )


def _baseline_water(
    net: IntegratedNetwork, horizon: float
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Undisrupted water samples up to ``horizon``: ids, times, rows.

    The network keeps one baseline, run to the longest on-grid horizon
    asked for so far. A shorter on-grid horizon reads its prefix, which
    is bit-identical to a run of its own; an off-grid horizon is run
    directly.
    """

    def run() -> tuple[list[str], np.ndarray, np.ndarray]:
        ids, times, rows, _, _, _ = _run_series(net, EventTable(()), horizon)
        times.flags.writeable = rows.flags.writeable = False  # shared by later runs
        return ids, times, rows

    if not _on_grid(horizon):
        return run()
    ids, times, rows = net.cached(
        ("baseline_water",),
        run,
        usable=lambda kept: kept[1][-1] >= horizon,
    )
    n = round(horizon / WATER_SAMPLE_STEP) + 1
    return ids, times[:n], rows[:n]


def default_horizon(table: EventTable) -> float:
    last_end = table.last_repair_end()
    base = last_end if last_end is not None else table.last_time()
    raw = base + POST_RECOVERY_WINDOW
    return math.ceil(raw / WATER_SAMPLE_STEP) * WATER_SAMPLE_STEP


def simulate(
    net: IntegratedNetwork,
    table: EventTable,
    horizon: float | None = None,
) -> SimulationResult:
    """Replay an event table and record per-consumer service series.

    Power output is piecewise constant between event timestamps; water
    is sampled on a global one-minute grid with tank levels integrated
    through sub-minute event boundaries. Baseline (normal-operations)
    service comes from an undisrupted pass over the same horizon.

    Work that depends only on the network is done once per network and
    shared by every later call on it: the undisrupted pass (kept to the
    longest on-grid horizon seen, see ``_baseline_water``) and each
    dispatch, keyed by the power components' in-service flags and the
    forced-off generators.
    """
    problems = table.validate()
    if problems:
        raise SimulationError("invalid event table: " + "; ".join(problems))
    if horizon is None:
        horizon = default_horizon(table)
    elif horizon < table.last_time():
        raise SimulationError(
            f"horizon {horizon} precedes the last event at {table.last_time()}"
        )

    water_ids, wt, ws, power_ids, pt, ps = _run_series(net, table, horizon)
    base_ids, bwt, bws = _baseline_water(net, horizon)
    if base_ids != water_ids or not np.array_equal(bwt, wt):
        raise SimulationError("baseline and disrupted sample grids diverged")

    base_power = _dispatch(net, {})
    power_baseline = np.tile(
        [base_power.served.get(cid, 0.0) for cid in power_ids], (len(pt), 1)
    )

    water_series = NetworkSeries(
        network=WATER,
        times=wt,
        consumers=tuple(water_ids),
        supplied=ws,
        baseline=bws,
        interpolation=metrics.LINEAR,
    )
    power_series = NetworkSeries(
        network=POWER,
        times=pt,
        consumers=tuple(power_ids),
        supplied=ps,
        baseline=power_baseline,
        interpolation=metrics.STEP,
    )
    return SimulationResult(
        water=water_series,
        power=power_series,
        event_table=table,
        occurrence_time=table.occurrence_time(),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# receding-horizon evaluation support


def make_weighted_eoh_evaluator(
    net: IntegratedNetwork,
    scenario: DisasterScenario,
    crews: list[Crew] | None = None,
) -> Callable[[dict[str, list[str]]], float]:
    """Score candidate repair orders by simulated weighted outage hours.

    Every candidate is simulated to the same fixed horizon (enough for
    all repairs plus a day of recovery) so that partially scheduled
    orders are penalized for whatever they leave broken.
    """
    total_repair = sum(
        repair_duration(net.component(f.component_id).kind) for f in scenario.failures
    )
    horizon = scenario.event.occurrence_time + total_repair + POST_RECOVERY_WINDOW + 3600.0
    horizon = math.ceil(horizon / WATER_SAMPLE_STEP) * WATER_SAMPLE_STEP

    def evaluate(order: dict[str, list[str]]) -> float:
        table = build_event_table(net, scenario, order, crews=crews, allow_partial=True)
        return simulate(net, table, horizon=horizon).weighted_eoh()

    return evaluate


def run_scenario(
    net: IntegratedNetwork,
    scenario: DisasterScenario,
    strategy: str,
    crews: list[Crew] | None = None,
    mpc_horizon: int = 2,
    horizon: float | None = None,
) -> SimulationResult:
    """Rank repairs, schedule crews, and simulate one disaster scenario.

    ``strategy`` is one of the ranking heuristics or ``"mpc"``, which
    searches ``mpc_horizon``-step repair prefixes by simulated weighted
    outage hours (completing each candidate with the max_flow order).
    """
    if strategy != "mpc" and strategy not in STRATEGIES:
        raise RecoveryError(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGIES + ('mpc',))}"
        )
    failed = {f.component_id for f in scenario.failures}
    if not failed:
        return simulate(net, EventTable(()), horizon=horizon)

    if crews is None:
        crews = default_crews(net)
    context = build_planning_context(net, crews, failed)
    if strategy == "mpc":
        completion = rank_components(net, failed, "max_flow", context)
        evaluate = make_weighted_eoh_evaluator(net, scenario, crews=crews)
        order = mpc_sequence(
            {k: list(v) for k, v in completion.items()},
            mpc_horizon,
            evaluate,
            completion=completion,
        )
    else:
        order = rank_components(net, failed, strategy, context)

    table = build_event_table(net, scenario, order, crews=crews)
    return simulate(net, table, horizon=horizon)
