"""Repair scheduling and the time-synchronized interdependent run.

``build_event_table`` turns a disaster scenario plus per-network repair
orders into a timestamped ledger of fail/repair events, routing crews
over the congested road network and deferring components whose access
node cannot be reached until a road repair opens the way.

``simulate`` replays that ledger: at each event timestamp the power
dispatch is solved and held, hydraulics are sampled every minute of
simulation time (tank levels integrate through mid-minute events; once
nothing can change until the next event, the remaining minutes repeat
the last sample unstepped), and outages propagate across networks the
moment they happen — a de-energized motor forces its pump out of
service, and a tank that runs dry forces its dependent generator off
(and back on when it refills) with a new dispatch at that minute.

Callers that replay many ledgers on one network, such as the strategies
of a batch scenario, pass one replay store to ``simulate``: a ledger
simulated before, to the same horizon, is not replayed. The mpc
evaluator keeps a score per ledger instead, and no series.
"""

from __future__ import annotations

import bisect
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
    NETWORKS,
    POWER,
    STATUS_FAILED,
    STATUS_REPAIRED,
    STATUS_UNDER_REPAIR,
    TRAFFIC,
    WATER,
    IntegratedNetwork,
    access_node,
    check_transition,
)
from .powerflow import PowerFlowError, dispatch_key, motor_operational, solve_power
from .recovery import (
    STRATEGIES,
    Crew,
    RecoveryError,
    build_planning_context,
    crew_distances,
    default_crews,
    mpc_sequence,
    rank_components,
    repair_duration,
)
from .traffic import TrafficAssignmentError, assign_traffic, link_times_key

ACTION_FAIL = "fail"
ACTION_REPAIR_START = "repair_start"
ACTION_REPAIR_END = "repair_end"
ACTIONS = (ACTION_FAIL, ACTION_REPAIR_START, ACTION_REPAIR_END)
_ACTION_RANK = {ACTION_FAIL: 0, ACTION_REPAIR_START: 1, ACTION_REPAIR_END: 2}

WATER_SAMPLE_STEP = 60.0
POST_RECOVERY_WINDOW = 24 * 3600.0
BLOCKED_ROAD_FACTOR = 5.0  # failed-link slowdown when the road crew must cross anyway

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
            if not math.isfinite(row.time):
                problems.append(f"{row.component_id} {row.action} at non-finite time {row.time}")
            elif row.time < 0.0:
                problems.append(f"{row.component_id} {row.action} at negative time {row.time}")
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
                if row.component_id in end_at:
                    problems.append(f"{row.component_id} repair_end twice")
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
) -> EventTable:
    """Schedule repairs around road access, one component at a time.

    ``crews`` is a list with any number of crews per network (default:
    ``default_crews``, one each). The earliest-free crew, by
    ``(busy_until, id)`` among crews whose network has work left, takes
    the first component of its network's order whose access node it can
    reach over in-service road links, and books travel (congested
    shortest path) plus the repair; inaccessible components are deferred
    in favor of later accessible ones. A crew that can reach none stands
    aside while another crew free at the same instant tries; when every
    crew free then is stuck, they wait for the next road opening or the
    next crew to come free, and with nothing left to wait for, the
    earliest-free road crew is sent to its nearest failed road link
    (free-flow metric, blocked links passable at 5x). Travel times are the
    memo's crew distances (``crew_distances``) of the road state, keyed
    when the schedule starts and at each road opening. Crews become
    available at the disaster occurrence time; ``_Schedule`` holds the
    loop's state. A crew that cannot reach its work even after every road
    repair is an error.

    The order of each network must list every failed component of that
    network exactly once, and a network with failures that the order
    leaves out is rejected. A network whose order lists components but
    that no crew serves is rejected, and so are a repeated crew id, a
    crew of an unknown network and a garage that is not a traffic node.
    """
    failed_by_network = _grouped_failures(net, scenario)
    for network in sorted(failed_by_network.keys() | repair_order.keys()):
        have = set(failed_by_network.get(network, ()))
        listed = list(repair_order.get(network, []))
        if len(set(listed)) != len(listed):
            raise SimulationError(f"repair order for {network} lists a component twice")
        if not set(listed) <= have:
            extra = sorted(set(listed) - have)
            raise SimulationError(f"repair order for {network} lists non-failed components {extra}")
        if set(listed) != have:
            missing = sorted(have - set(listed))
            raise SimulationError(f"repair order for {network} misses failed components {missing}")

    occurrence = scenario.event.occurrence_time
    crew_list = [replace(c) for c in (crews if crews is not None else default_crews(net))]
    garages = {z.id for z in net.nodes_of(TRAFFIC)}
    seen: set[str] = set()
    for crew in crew_list:
        if crew.id in seen:
            raise SimulationError(f"two crews have the id {crew.id!r}")
        if crew.network not in NETWORKS:
            raise SimulationError(f"crew {crew.id} serves unknown network {crew.network!r}")
        if crew.location not in garages:
            raise SimulationError(f"crew {crew.id} garages at {crew.location!r}, not a traffic node")
        seen.add(crew.id)
        crew.busy_until = max(crew.busy_until, occurrence)

    pending = {network: list(order) for network, order in sorted(repair_order.items()) if order}
    for network, order in pending.items():
        if not any(c.network == network for c in crew_list):
            raise SimulationError(f"no crew serves {network}, whose repair order lists {order}")

    schedule = _Schedule(net, scenario, crew_list, pending, durations)
    while schedule.pending:
        schedule.book(*schedule.next_choice())
    return EventTable(tuple(schedule.rows))


class _Schedule:
    """The scheduling loop's state: the crews, each network's ``pending``
    order, the component ``statuses`` and their keyed ``road_state``, the
    ledger ``rows``, and ``events``, the booked road openings not yet
    applied, as ``(time, link_id)`` in time order."""

    def __init__(self, net, scenario, crews, pending, durations):
        self.net, self.crews, self.pending, self.durations = net, crews, pending, durations
        failures = sorted(scenario.failures, key=lambda f: f.component_id)
        self.rows = [EventRow(f.time, f.component_id, ACTION_FAIL) for f in failures]
        self.statuses = {f.component_id: STATUS_FAILED for f in failures}
        self.events: list[tuple[float, str]] = []
        self._key_roads()

    def _key_roads(self) -> None:
        """Key and solve each road state as it arises, so that a failure
        raises here and not in whatever routes crews first."""
        net = self.net
        road_state = self.road_state = net.service_key(TRAFFIC, self.statuses)
        try:
            net.cached(link_times_key(road_state), lambda: assign_traffic(net, net.key_statuses(road_state)))
        except TrafficAssignmentError as exc:
            raise SimulationError(f"traffic assignment failed during scheduling: {exc}") from exc

    def earliest(self, networks, skip=()) -> Crew | None:
        crews = (c for c in self.crews if c.network in networks and c not in skip)
        return min(crews, key=lambda c: (c.busy_until, c.id), default=None)

    def next_choice(self) -> tuple[Crew, str, float]:
        """Advance to the next crew decision: the crew, the component it
        takes and its travel time.

        The earliest-free crew with work left opens the road repairs that
        have ended by its ``busy_until`` and tries its order. A crew that
        can reach none of its work stands aside while another crew with
        work left, free at the same instant, tries. When every crew free
        at that instant is stuck, they all wait for the next event: the
        next road opening, or the next time another crew with work left
        comes free. With no event left, the deadlock break sends the
        earliest-free road crew to its nearest blocked link."""
        stuck: list[Crew] = []  # crews that can reach none of their work at stuck[0].busy_until
        while (crew := self.earliest(self.pending, stuck)) or self.events:
            if stuck and (crew is None or crew.busy_until > stuck[0].busy_until + _TIME_TOL):
                # every crew free at this instant is stuck: wait for the next event
                wake = min([t for t, _ in self.events[:1]] + ([crew.busy_until] if crew else []))
                for c in stuck:
                    c.busy_until = wake
                stuck = []
                continue
            while self.events and self.events[0][0] <= crew.busy_until + _TIME_TOL:
                self.statuses[self.events.pop(0)[1]] = STATUS_REPAIRED
                self._key_roads()
            dist = crew_distances(self.net, crew.location, self.road_state)
            for cid in self.pending[crew.network]:
                if math.isfinite(travel := dist[access_node(self.net, cid)]):
                    return crew, cid, travel
            stuck.append(crew)
        if TRAFFIC not in self.pending:
            crew = stuck[0]
            raise SimulationError(f"crew {crew.id} at {crew.location} cannot reach any of "
                                  f"{self.pending[crew.network]} even after every road repair")
        # every crew with work left is stuck: the earliest-free road crew
        # goes to its nearest blocked link, crossing blocked links
        road_crew = self.earliest((TRAFFIC,))
        dist = crew_distances(self.net, road_crew.location, self.road_state, BLOCKED_ROAD_FACTOR)
        travel, cid = min((dist[access_node(self.net, cid)], cid) for cid in self.pending[TRAFFIC])
        if not math.isfinite(travel):
            raise SimulationError(f"road crew at {road_crew.location} cannot reach any failed road link")
        return road_crew, cid, travel

    def book(self, crew: Crew, cid: str, travel: float) -> None:
        """``crew`` drives ``travel`` seconds to ``cid`` and repairs it."""
        comp = self.net.component(cid)
        start = crew.busy_until + travel
        end = start + repair_duration(comp.kind, self.durations)
        self.rows.append(EventRow(start, cid, ACTION_REPAIR_START, crew.id))
        self.rows.append(EventRow(end, cid, ACTION_REPAIR_END, crew.id))
        crew.location, crew.busy_until = access_node(self.net, cid), end
        self.pending[crew.network].remove(cid)
        if not self.pending[crew.network]:
            del self.pending[crew.network]
        if comp.kind == "road_link":
            bisect.insort(self.events, (end, cid))


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

    def weighted_eoh(self) -> float:
        return metrics.weighted_eoh({WATER: self.eoh(WATER), POWER: self.eoh(POWER)})


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
    """``solve_power``, solved once per network and per key of what it
    reads, from that key."""
    key = dispatch_key(net, statuses, forced_off)
    return net.cached(key, lambda: solve_power(net, net.key_statuses(key[1]), forced_off=key[2]))


class _Replay:
    """The interleaved loop of ``simulate``, one interval at a time.

    Each interval [a, b) applies a's rows, dispatches power, forces the
    pumps of unpowered motors off and samples hydraulics every minute up
    to b. A solve that changes which generators have a dry source
    dispatches again at once. One rule, ``WaterSimulator.is_frozen``,
    decides both each minute's re-solve and the jump: a minute re-solves
    unless the simulator is frozen, and a frozen one repeats its row to b.

    Water samples are kept as runs, one per sampled solve and not one per
    minute: ``(t, k0, k1, row)`` holds ``row`` at time ``t`` (``None``
    when ``t`` is not sampled) and then at each grid time ``k *
    WATER_SAMPLE_STEP`` for k in [k0, k1), the minutes a frozen simulator
    repeats. ``water_samples`` expands them once, at the end.
    """

    def __init__(self, net: IntegratedNetwork):
        self.net = net
        self.water_ids = [c.id for c in sorted(net.consumers(WATER), key=lambda c: c.id)]
        self.power_ids = [c.id for c in sorted(net.consumers(POWER), key=lambda c: c.id)]
        self.motor_pump = [
            (d.source_id, d.target_id) for d in net.dependencies if d.kind == "motor_drives_pump"
        ]
        self.source_gen = [
            (d.source_id, d.target_id) for d in net.dependencies if d.kind == "reservoir_feeds_generator"
        ]
        self.rounds = 1 + len(net.components_of(WATER, "tank"))
        self.sim = WaterSimulator(net)
        self.statuses: dict[str, str] = {}
        self.forced_generators: frozenset[str] = frozenset()  # what the last dispatch used
        self.water_row: list[float] | None = None
        self.water_runs: list[tuple[float | None, int, int, list[float]]] = []
        self.power_times: list[float] = []
        self.power_rows: list[list[float]] = []

    def interval(self, a: float, b: float, rows) -> None:
        """Apply a's rows and sample [a, b); a == b samples once, at a."""
        sim = self.sim
        for row in rows:
            current = self.statuses.get(row.component_id, self.net.component(row.component_id).status)
            new = _ACTION_STATUS[row.action]
            try:
                check_transition(current, new)
            except ValueError as exc:
                raise SimulationError(f"invalid event at t={a}: {exc}") from exc
            self.statuses[row.component_id] = new
        sim.set_statuses(self.statuses, forced_off=self._dispatch(a))

        now = a
        while now < b - _TIME_TOL or a == b:
            if not sim.is_frozen():  # set_statuses drops the last solution
                self._solve(now, a, b)
            t = now if a == b or _on_grid(now) else None
            if a == b:
                self.water_runs.append((t, 0, 0, self.water_row))
                break
            k = math.floor(now / WATER_SAMPLE_STEP) + 1
            if sim.is_frozen():
                # every later step of the interval would keep this row and
                # these levels: one run holds its grid samples k * step <
                # b - tol. The ceil is exact: above a multiple of 60 the
                # next float, divided by 60, clears half the gap above k
                k1 = max(k, math.ceil((b - _TIME_TOL) / WATER_SAMPLE_STEP))
                self.water_runs.append((t, k, k1, self.water_row))
                break
            if t is not None:
                self.water_runs.append((t, 0, 0, self.water_row))
            nxt = min(b, k * WATER_SAMPLE_STEP)
            sim.advance(nxt - now)
            now = nxt

    def water_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """The water runs expanded to sample times and rows."""
        runs = self.water_runs
        sampled = np.array([t is not None for t, _, _, _ in runs])
        k0 = np.array([k0 for _, k0, _, _ in runs], dtype=int)
        counts = sampled + (np.array([k1 for _, _, k1, _ in runs], dtype=int) - k0)
        ends = np.cumsum(counts)
        starts = ends - counts
        # the grid samples of a run at positions starts + sampled + j are k0 + j
        times = (np.repeat(k0 - starts - sampled, counts) + np.arange(ends[-1])) * WATER_SAMPLE_STEP
        times[starts[sampled]] = [t for t, _, _, _ in runs if t is not None]
        return times, np.repeat(np.array([row for _, _, _, row in runs]), counts, axis=0)

    def _dispatch(self, now: float) -> set[str]:
        """Dispatch at ``now``, record its power sample (replacing one
        already taken at ``now``) and return the pumps it leaves unpowered."""
        try:
            power = _dispatch(self.net, self.statuses, self.forced_generators)
        except PowerFlowError as exc:
            raise SimulationError(f"power dispatch failed at t={now}: {exc}") from exc
        row = [power.served.get(cid, 0.0) for cid in self.power_ids]
        if self.power_times and self.power_times[-1] == now:
            self.power_rows[-1] = row
        else:
            self.power_times.append(now)
            self.power_rows.append(row)
        return {pump for motor, pump in self.motor_pump if not motor_operational(self.net, power, motor)}

    def _solve(self, now: float, a: float, b: float) -> None:
        """Solve at ``now``. A new set of generators with a dry source is
        dispatched at once, and a new set of unpowered pumps re-solves the
        same instant, at most ``1 + tanks`` solves in all: the bound
        ``WaterSimulator.solve`` puts on tank closures."""
        sim = self.sim
        for rounds_left in reversed(range(self.rounds)):
            try:
                state = sim.solve(now, full=False)
            except HydraulicError as exc:
                raise SimulationError(
                    f"hydraulic solve failed at t={now} in interval [{a}, {b})"
                ) from exc
            forced = frozenset(gen for src, gen in self.source_gen if src in state.dry_tanks)
            if forced == self.forced_generators:
                break
            self.forced_generators = forced
            pumps = self._dispatch(now)
            if pumps == sim.forced_off or not rounds_left:
                break
            sim.set_statuses(self.statuses, forced_off=pumps)
        self.water_row = [state.actual_demand[cid] for cid in self.water_ids]


def _run_series(net: IntegratedNetwork, table: EventTable, horizon: float):
    """Replay ``table`` to ``horizon``; returns raw sample arrays."""
    by_time = _status_timeline(table)
    boundaries = sorted({0.0, horizon, *by_time})

    replay = _Replay(net)
    # each interval [a, b) is sampled up to but excluding b, which belongs
    # to the next one; the horizon closes the run as a zero-length interval
    # sampled once, on the grid or off it
    ends = [*boundaries[1:], horizon]
    for a, b in zip(boundaries, ends):
        replay.interval(a, b, by_time.get(a, ()))

    return (
        replay.water_ids,
        *replay.water_samples(),
        replay.power_ids,
        np.array(replay.power_times),
        np.array(replay.power_rows),
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
    """The last repair end (or last event) plus the post-recovery window,
    rounded up to the water sample grid. A ledger whose end is not
    finite, which ``validate`` rejects, gets that end back unrounded."""
    last_end = table.last_repair_end()
    base = last_end if last_end is not None else table.last_time()
    raw = base + POST_RECOVERY_WINDOW
    return math.ceil(raw / WATER_SAMPLE_STEP) * WATER_SAMPLE_STEP if math.isfinite(raw) else raw


def _check_finite_horizon(horizon: float | None) -> None:
    if horizon is not None and not math.isfinite(horizon):
        raise SimulationError(f"horizon {horizon} is not finite")


def simulate(
    net: IntegratedNetwork,
    table: EventTable,
    horizon: float | None = None,
    store: dict | None = None,
) -> SimulationResult:
    """Replay an event table and record per-consumer service series.

    Power output is piecewise constant between event timestamps and the
    moments a tank feeding a generator runs dry or refills; water is
    sampled on a global one-minute grid with tank levels integrated
    through sub-minute event boundaries. Baseline (normal-operations)
    service comes from an undisrupted pass over the same horizon.

    Work that depends only on the network is done once per network and
    shared by every later call on it: the undisrupted pass (kept to the
    longest on-grid horizon seen, see ``_baseline_water``), each
    dispatch, keyed by the power components' in-service flags and the
    forced-off generators, and each Newton solve that the network's
    Newton table keeps (see ``WaterSimulator``). ``store`` is the
    caller's replay store, which the network memo never holds; without
    one the call uses a private one. It keeps the result of each (ledger
    rows, horizon) simulated through it, which a repeat returns without
    replaying, so the series arrays of every result are read-only.
    """
    store = {} if store is None else store
    key = (table.rows, default_horizon(table) if horizon is None else horizon)
    if key in store:  # its ledger and horizon were checked when it was stored
        return store[key]
    problems = table.validate()
    if problems:
        raise SimulationError("invalid event table: " + "; ".join(problems))
    _check_finite_horizon(horizon)
    if horizon is not None and horizon < table.last_time():
        raise SimulationError(
            f"horizon {horizon} precedes the last event at {table.last_time()}"
        )
    horizon = key[1]

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
    result = SimulationResult(
        water=water_series,
        power=power_series,
        event_table=table,
        occurrence_time=table.occurrence_time(),
        horizon=horizon,
    )
    for series in (water_series, power_series):
        for array in (series.times, series.supplied, series.baseline):
            array.flags.writeable = False
    store[key] = result
    return result


# ---------------------------------------------------------------------------
# receding-horizon evaluation support


def make_weighted_eoh_evaluator(
    net: IntegratedNetwork,
    scenario: DisasterScenario,
    crews: list[Crew] | None = None,
) -> Callable[[dict[str, list[str]]], float]:
    """Score candidate repair orders by simulated weighted outage hours.

    Every candidate is a complete order, simulated to the same fixed
    horizon (enough for all repairs, from when the last crew comes free,
    plus a day of recovery) so that candidates compare at one horizon.

    It keeps one score per distinct ledger, so a ledger met again is not
    replayed; a new one is simulated without a replay store, so its
    series are freed once it is scored.
    """
    total_repair = sum(
        repair_duration(net.component(f.component_id).kind) for f in scenario.failures
    )
    start = max([scenario.event.occurrence_time] + [c.busy_until for c in crews or ()])
    horizon = start + total_repair + POST_RECOVERY_WINDOW + 3600.0
    horizon = math.ceil(horizon / WATER_SAMPLE_STEP) * WATER_SAMPLE_STEP
    scores: dict[tuple[EventRow, ...], float] = {}

    def evaluate(order: dict[str, list[str]]) -> float:
        table = build_event_table(net, scenario, order, crews=crews)
        if table.rows not in scores:
            scores[table.rows] = simulate(net, table, horizon).weighted_eoh()
        return scores[table.rows]

    return evaluate


def run_scenario(
    net: IntegratedNetwork,
    scenario: DisasterScenario,
    strategy: str,
    crews: list[Crew] | None = None,
    mpc_horizon: int = 2,
    horizon: float | None = None,
    store: dict | None = None,
) -> SimulationResult:
    """Rank repairs, schedule crews, and simulate one disaster scenario.

    ``strategy`` is one of the ranking heuristics or ``"mpc"``, a
    rollout of the max_flow order (see ``mpc_sequence``) that searches
    ``mpc_horizon``-step repair prefixes by simulated weighted outage
    hours and never scores above max_flow at the evaluator's horizon.

    ``store`` is a replay store (see ``simulate``) that the caller shares
    between runs of one scenario, such as its strategies in a batch: a
    ledger an earlier run simulated to the same horizon is not replayed.
    mpc candidates do not go through it (see ``make_weighted_eoh_evaluator``).
    An ``mpc_horizon`` below 1 is rejected before any planning work.
    """
    if strategy != "mpc" and strategy not in STRATEGIES:
        raise RecoveryError(
            f"unknown strategy {strategy!r}; expected one of {sorted(STRATEGIES + ('mpc',))}"
        )
    if strategy == "mpc" and mpc_horizon < 1:
        raise RecoveryError("prediction horizon must be >= 1")
    _check_finite_horizon(horizon)
    failed = {f.component_id for f in scenario.failures}
    if not failed:
        return simulate(net, EventTable(()), horizon=horizon, store=store)

    if crews is None:
        crews = default_crews(net)
    context = build_planning_context(net, crews, failed)
    order = rank_components(net, failed, "max_flow" if strategy == "mpc" else strategy, context)
    if strategy == "mpc":
        evaluate = make_weighted_eoh_evaluator(net, scenario, crews=crews)
        order = mpc_sequence(order, mpc_horizon, evaluate)

    table = build_event_table(net, scenario, order, crews=crews)
    return simulate(net, table, horizon=horizon, store=store)
