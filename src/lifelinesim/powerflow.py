"""DC power flow with lexicographic load-shedding dispatch.

Each island is dispatched by a two-stage linear program: first minimize
total shed load, then minimize linear generation cost among the
shed-optimal solutions (with a vanishing per-consumer serving bonus so
the optimum is unique and runs are reproducible). External grids may
couple several incomer buses; the coupling is treated as zero-impedance,
so the grid and its buses form one electrical supernode, shared by every
grid on any of those buses. Islands without any in-service source shed
everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .network import SOURCE_KINDS, IntegratedNetwork, POWER, component_roots

_BALANCE_TOL = 1e-8


class PowerFlowError(Exception):
    """LP failed; message carries solver status context."""


@dataclass
class PowerState:
    """Dispatch result for one statuses snapshot.

    A bus is energized when its island has an in-service source.
    ``balance_residual`` is the worst supernode imbalance of the reported
    generation, clipped service and branch angles, in MW.
    """

    line_flow: dict[str, float]
    served: dict[str, float]
    shed: dict[str, float]
    generation: dict[str, float]
    energized: dict[str, bool]
    total_shed: float
    total_cost: float
    balance_residual: float


def solve_power(
    net: IntegratedNetwork,
    component_statuses: dict[str, str] | None = None,
    forced_off: set[str] | None = None,
) -> PowerState:
    """Dispatch the power network under the given operating statuses.

    ``forced_off`` removes sources (e.g. a generator whose supply
    reservoir ran dry) without marking them failed. An unknown id or
    status, or a forced-off id that names no source, raises a
    ``NetworkError``.
    """
    statuses = component_statuses or {}
    net.check_statuses(statuses)
    off = set(forced_off or ())
    net.check_forced_off(off, SOURCE_KINDS)

    buses = sorted(c.id for c in net.components_of(POWER, "bus"))
    branches = sorted(net.edges_of(POWER), key=lambda c: c.id)
    sources = sorted(
        (c for c in net.attached_of() if c.kind in SOURCE_KINDS),
        key=lambda c: c.id,
    )
    consumers = sorted(
        (c for c in net.attached_of() if c.kind in ("load", "motor")), key=lambda c: c.id
    )

    # an external grid ties its incomer buses into one zero-impedance
    # supernode; live branches then join supernodes into islands, and a
    # node or island is named by its least bus
    ties = [(g.buses[0], b) for g in sources if g.kind == "external_grid" for b in g.buses]
    root = component_roots(buses, ties)
    live_branches = [c for c in branches if net.in_service(c.id, statuses) and root[c.ends[0]] != root[c.ends[1]]]
    island = component_roots(buses, ties + [c.ends for c in live_branches])

    flow = {c.id: 0.0 for c in branches}
    served = {c.id: 0.0 for c in consumers}
    generation = {s.id: 0.0 for s in sources}
    total_cost = 0.0
    worst_residual = 0.0
    live: set[str] = set()  # islands with a source

    for i, isl in enumerate(sorted(set(island.values()))):
        nodes = sorted({root[b] for b in buses if island[b] == isl})
        nidx = {n: k for k, n in enumerate(nodes)}
        isl_branches = [c for c in live_branches if island[c.ends[0]] == isl]
        isl_sources = [
            s
            for s in sources
            if island[sorted(s.buses)[0]] == isl
            and s.id not in off
            and net.in_service(s.id, statuses)
        ]
        isl_consumers = [c for c in consumers if island[c.buses[0]] == isl]

        if not isl_sources:
            continue  # fully shed, flows stay 0
        live.add(isl)

        n_n, n_b, n_g, n_c = len(nodes), len(isl_branches), len(isl_sources), len(isl_consumers)
        n_x = n_n + n_g + n_c  # theta, generation, served
        th, gen0, srv0 = 0, n_n, n_n + n_g

        demand = np.array([c.attrs["demand_mw"] for c in isl_consumers])
        pmax = np.array([s.attrs["max_mw"] for s in isl_sources])
        cost = np.array([s.attrs["cost"] for s in isl_sources])

        a_eq = np.zeros((n_n + 1, n_x))
        b_eq = np.zeros(n_n + 1)
        for c in isl_branches:
            b_k = c.attrs["susceptance"]
            a, b = root[c.ends[0]], root[c.ends[1]]
            a_eq[nidx[a], nidx[a]] += b_k
            a_eq[nidx[a], nidx[b]] -= b_k
            a_eq[nidx[b], nidx[b]] += b_k
            a_eq[nidx[b], nidx[a]] -= b_k
        for k, s in enumerate(isl_sources):
            a_eq[nidx[root[sorted(s.buses)[0]]], gen0 + k] -= 1.0
        for k, c in enumerate(isl_consumers):
            a_eq[nidx[root[c.buses[0]]], srv0 + k] += 1.0
        a_eq[n_n, th + 0] = 1.0  # reference angle

        a_ub = np.zeros((2 * n_b, n_x))
        b_ub = np.zeros(2 * n_b)
        for k, c in enumerate(isl_branches):
            b_k, lim = c.attrs["susceptance"], c.attrs["limit_mw"]
            a, b = root[c.ends[0]], root[c.ends[1]]
            a_ub[2 * k, nidx[a]] = b_k
            a_ub[2 * k, nidx[b]] = -b_k
            a_ub[2 * k + 1, nidx[a]] = -b_k
            a_ub[2 * k + 1, nidx[b]] = b_k
            b_ub[2 * k] = b_ub[2 * k + 1] = lim
        bounds = (
            [(None, None)] * n_n
            + [(0.0, float(p)) for p in pmax]
            + [(0.0, float(d)) for d in demand]
        )

        def run(obj, eq=None, beq=None):
            res = linprog(
                obj,
                A_ub=a_ub if n_b else None,
                b_ub=b_ub if n_b else None,
                A_eq=eq if eq is not None else a_eq,
                b_eq=beq if beq is not None else b_eq,
                bounds=bounds,
                method="highs",
            )
            if not res.success:
                raise PowerFlowError(f"dispatch LP failed on island {i}: {res.message}")
            return res

        # stage 1: maximize served load
        obj1 = np.zeros(n_x)
        obj1[srv0:] = -1.0
        best_served = -run(obj1).fun

        # stage 2: cheapest generation among shed-optimal dispatches, the
        # total service locked at the stage-1 optimum; a tiny decreasing
        # per-consumer bonus pins a unique solution
        obj2 = np.zeros(n_x)
        obj2[gen0:srv0] = cost
        obj2[srv0:] = -np.array([1e-6 / (k + 1) for k in range(n_c)])
        lock = np.zeros((1, n_x))
        lock[0, srv0:] = 1.0
        res = run(obj2, np.vstack([a_eq, lock]), np.append(b_eq, best_served))

        x = res.x
        for c in isl_branches:
            a, b = root[c.ends[0]], root[c.ends[1]]
            flow[c.id] = float(c.attrs["susceptance"] * (x[nidx[a]] - x[nidx[b]]))
        for k, s in enumerate(isl_sources):
            generation[s.id] = float(x[gen0 + k])
        for k, c in enumerate(isl_consumers):
            # HiGHS may overshoot either bound by round-off (-6.1e-11 MW seen)
            served[c.id] = float(min(max(x[srv0 + k], 0.0), c.attrs["demand_mw"]))
        total_cost += float(cost @ x[gen0:srv0])
        # energy balance audit: the supernode rows at the reported solution
        reported = np.concatenate([x[:srv0], [served[c.id] for c in isl_consumers]])
        worst_residual = max(worst_residual, float(np.abs(a_eq[:n_n] @ reported).max()))

    shed = {c.id: float(c.attrs["demand_mw"] - served[c.id]) for c in consumers}
    return PowerState(
        line_flow=flow,
        served=served,
        shed=shed,
        generation=generation,
        energized={b: island[b] in live for b in buses},
        total_shed=float(sum(shed.values())),
        total_cost=total_cost,
        balance_residual=worst_residual,
    )


def dispatch_key(
    net: IntegratedNetwork,
    component_statuses: dict[str, str] | None = None,
    forced_off: set[str] | None = None,
) -> tuple:
    """Memo key of the dispatch ``solve_power`` returns: the power
    components whose in-service flag the statuses change
    (``IntegratedNetwork.service_key``) and the forced-off sources. A
    fully repaired network keys like the undisrupted one."""
    return (
        "dispatch",
        net.service_key(POWER, component_statuses or {}),
        frozenset(forced_off or ()),
    )


def motor_operational(net: IntegratedNetwork, state: PowerState, motor_id: str) -> bool:
    """A motor runs only when its bus is energized and its demand is met."""
    motor = net.component(motor_id)
    if motor.kind != "motor":
        raise ValueError(f"{motor_id!r} is not a motor")
    bus = motor.buses[0]
    return state.energized[bus] and state.shed[motor_id] < 1e-9
