"""Pressure-dependent steady-state water network solver.

Quasi-static stepping: each step solves Hazen-Williams pipe headlosses
together with pressure-dependent nodal outflows by a damped Newton
iteration on (link flows, junction heads), then tank levels advance by
explicit Euler between steps. Failed pipes keep conveying but lose water
through a midpoint orifice sized to half the pipe cross-section; failed
or unpowered pumps close.

Each topology (in-service flags, forced-off pumps and closed tanks) is
compiled once per network into the arrays and Jacobian pattern its
Newton solves read, and kept in the network's memo for every later
simulator that meets it.

Units are SI throughout: flows m3/s, heads/pressures m of water column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graphs
from .network import IN_SERVICE, IntegratedNetwork, WATER

G = 9.81
_HW_EXP = 1.852


class HydraulicError(Exception):
    """Solver failed to converge; message carries residual context."""


@dataclass(frozen=True)
class HydraulicParams:
    """Demand model thresholds and Newton controls."""

    p0: float = 0.0          # pressure below which no demand is served, m
    pf: float = 20.0         # pressure at which full demand is served, m
    e: float = 2.0           # demand exponent
    tol: float = 1e-6        # residual infinity-norm target
    max_iterations: int = 100
    q_reg: float = 1e-8      # derivative floor near zero flow
    q_smooth: float = 1e-5   # linear headloss segment below this flow
    leak_cd: float = 0.75    # orifice discharge coefficient
    p_smooth: float = 1e-3   # linear orifice segment below this pressure


def pda_demand(pressure: float, desired: float, p0: float = 0.0, pf: float = 20.0, e: float = 2.0):
    """Served demand at a node under the given pressure head.

    Zero at or below p0, the full desired demand above pf, and a
    power-law fraction in between. Accepts scalars or numpy arrays.
    """
    if not pf > p0:
        raise ValueError("pf must exceed p0")
    if e <= 0:
        raise ValueError("demand exponent must be positive")
    p = np.asarray(pressure, dtype=float)
    frac = np.clip((p - p0) / (pf - p0), 0.0, 1.0) ** (1.0 / e)
    out = np.asarray(desired, dtype=float) * frac
    return out if out.ndim else float(out)


def _pda_slope(p, desired, p0, pf, e):
    """d(demand)/d(pressure), capped near the lower threshold where the
    analytic slope blows up; used only inside the Newton Jacobian."""
    u = np.clip((np.asarray(p, dtype=float) - p0) / (pf - p0), 0.0, 1.0)
    inside = (u > 0.0) & (u < 1.0)
    u_floor = np.maximum(u, 1e-4)
    slope = desired / (e * (pf - p0)) * u_floor ** (1.0 / e - 1.0)
    return np.where(inside, slope, 0.0)


def hazen_williams_r(length: float, diameter: float, roughness: float) -> float:
    """Resistance r in hl = r * q^1.852 (SI units)."""
    return 10.667 * length / (roughness ** _HW_EXP * diameter ** 4.871)


# link type codes in the compiled system
_PIPE, _PUMP = 0, 1


@dataclass
class HydraulicState:
    """Snapshot of one converged steady state."""

    time: float
    node_head: dict[str, float]
    node_pressure: dict[str, float]
    actual_demand: dict[str, float]
    desired_demand: dict[str, float]
    link_flow: dict[str, float]
    leak_discharge: dict[str, float]
    tank_level: dict[str, float]
    tank_inflow: dict[str, float]
    dry_tanks: list[str]
    dead_nodes: list[str]
    residual: float
    iterations: int


def _elevation(net: IntegratedNetwork, node_id: str) -> float:
    node = net.component(node_id)
    if node.kind == "demand_node":
        return float(node.attrs.get("elevation", 0.0))
    if node.kind == "tank":
        return float(node.attrs["elevation"])
    return 0.0  # reservoir pipe stub at datum


def system_key(
    net: IntegratedNetwork,
    params: HydraulicParams,
    component_statuses: dict[str, str],
    forced_off: set[str],
    closed_tanks: set[str],
) -> tuple:
    """Memo key of a compiled topology: the parameters, the water
    components' in-service flags, the forced-off set and the closed tanks."""
    return (
        "water_system",
        params,
        net.service_key(WATER, component_statuses),
        frozenset(forced_off),
        frozenset(closed_tanks),
    )


class _System:
    """One compiled topology: the arrays a Newton solve reads.

    Everything here depends only on what ``system_key`` holds, so one
    instance is shared through the network memo and never changes after
    construction. Fixed heads follow the tank levels and are passed to
    each solve instead.
    """

    def __init__(self, net: IntegratedNetwork, params: HydraulicParams, in_service, closed_tanks: set[str]):
        reservoirs = net.components_of(WATER, "reservoir")
        tanks = [t for t in net.components_of(WATER, "tank") if t.id not in closed_tanks]
        self.reservoir_heads = [float(r.attrs["head"]) for r in reservoirs]
        self.open_tanks = [(t.id, float(t.attrs["elevation"])) for t in tanks]
        self.fixed_ids = [r.id for r in reservoirs] + [t.id for t in tanks]

        junctions: list[tuple[str, float, float, float]] = []  # id, z, desired, leak coef
        for node in net.components_of(WATER, "demand_node"):
            junctions.append((node.id, _elevation(net, node.id), float(node.attrs["base_demand"]), 0.0))

        raw_links: list[tuple[str, int, str, str, float, float]] = []
        for pipe in net.components_of(WATER, "pipe"):
            a, b = pipe.ends
            r = hazen_williams_r(pipe.attrs["length"], pipe.attrs["diameter"], pipe.attrs["roughness"])
            if in_service(pipe.id):
                if a not in closed_tanks and b not in closed_tanks:
                    raw_links.append((pipe.id, _PIPE, a, b, r, 0.0))
            else:
                # broken pipe: two half-length segments around an orifice node
                leak_id = pipe.id + "::leak"
                area = 0.5 * math.pi * pipe.attrs["diameter"] ** 2 / 4.0
                coef = params.leak_cd * area * math.sqrt(2.0 * G)
                z = (_elevation(net, a) + _elevation(net, b)) / 2.0
                junctions.append((leak_id, z, 0.0, coef))
                if a not in closed_tanks:
                    raw_links.append((pipe.id, _PIPE, a, leak_id, r / 2.0, 0.0))
                if b not in closed_tanks:
                    raw_links.append((pipe.id + "::b", _PIPE, leak_id, b, r / 2.0, 0.0))
        for pump in net.components_of(WATER, "pump"):
            if in_service(pump.id):
                a, b = pump.ends
                if a not in closed_tanks and b not in closed_tanks:
                    raw_links.append((pump.id, _PUMP, a, b, float(pump.attrs["head_gain"]), float(pump.attrs["qmax"])))

        # junction groups with no in-service fixed-head source stay dead:
        # zero flow, zero served demand, pressure pinned at elevation.
        junction_ids = [j[0] for j in junctions]
        edges = [(l[2], l[3]) for l in raw_links]
        fixed = set(self.fixed_ids)
        live = set(fixed)
        for comp in graphs.connected_components(junction_ids + self.fixed_ids, edges):
            if comp & fixed:
                live |= comp
        self.dead_nodes = sorted(set(junction_ids) - live)
        dead = set(self.dead_nodes)

        kept = [j for j in junctions if j[0] not in dead]
        self.junction_ids = [j[0] for j in kept]
        self.junction_z = np.array([j[1] for j in kept], dtype=float)
        self.junction_demand = np.array([j[2] for j in kept], dtype=float)
        self.leak_coef = np.array([j[3] for j in kept], dtype=float)
        self.leak = self.leak_coef > 0
        links = [l for l in raw_links if l[2] not in dead and l[3] not in dead]
        self.link_ids = [l[0] for l in links]
        self._link_arrays(links, {t.id for t in tanks})

    def _link_arrays(self, links, tank_ids: set[str]) -> None:
        nl, nj = len(links), len(self.junction_ids)
        # link ends index the node vector: junctions, then fixed heads
        node = {nid: k for k, nid in enumerate(self.junction_ids + self.fixed_ids)}
        self.from_node = np.array([node[l[2]] for l in links], dtype=int)
        self.to_node = np.array([node[l[3]] for l in links], dtype=int)
        self.is_pipe = np.array([l[1] == _PIPE for l in links], dtype=bool)
        self.c1 = np.array([l[4] for l in links], dtype=float)
        self.c2 = np.array([l[5] or 1.0 for l in links], dtype=float)
        self.tank_links: list[tuple[int, str, float]] = []  # link, tank, +1 into / -1 out of it
        # the Jacobian's constant part: +-1 link-junction incidence in
        # the off-diagonal blocks; each Newton step writes the diagonal
        self.incidence = np.zeros((nl + nj, nl + nj))
        for k, (_, _, a, b, _, _) in enumerate(links):
            if b in tank_ids:
                self.tank_links.append((k, b, 1.0))
            if a in tank_ids:
                self.tank_links.append((k, a, -1.0))
            if node[a] < nj:
                self.incidence[k, nl + node[a]] += 1.0
                self.incidence[nl + node[a], k] -= 1.0
            if node[b] < nj:
                self.incidence[k, nl + node[b]] -= 1.0
                self.incidence[nl + node[b], k] += 1.0

    def fixed_heads(self, tank_level: dict[str, float]) -> list[float]:
        """Heads of the fixed-head nodes, in ``fixed_ids`` order."""
        return self.reservoir_heads + [z + tank_level[tid] for tid, z in self.open_tanks]


class WaterSimulator:
    """Stateful stepper holding tank levels and a warm-started solution.

    Each topology it meets is compiled once per network: the compiled
    ``_System`` is kept in the network memo under ``system_key``.
    """

    def __init__(
        self,
        net: IntegratedNetwork,
        params: HydraulicParams | None = None,
        forced_off: set[str] | None = None,
    ):
        self.net = net
        self.params = params or HydraulicParams()
        self.forced_off: set[str] = set(forced_off or ())
        self.statuses: dict[str, str] = {}
        self.tank_level: dict[str, float] = {
            t.id: float(t.attrs["init_level"]) for t in net.components_of(WATER, "tank")
        }
        self._tanks = {t.id: t for t in net.components_of(WATER, "tank")}
        self._demand_nodes = [
            (n.id, _elevation(net, n.id), n.attrs["base_demand"])
            for n in net.components_of(WATER, "demand_node")
        ]
        self._warm_h: dict[str, float] = {}
        self._warm_q: dict[str, float] = {}
        self._last_state: HydraulicState | None = None
        self._solved_levels: dict[str, float] | None = None

    # -- configuration ----------------------------------------------------

    def set_statuses(self, statuses: dict[str, str], forced_off: set[str] | None = None) -> None:
        self.statuses = dict(statuses)
        if forced_off is not None:
            self.forced_off = set(forced_off)
        self._last_state = None

    def _in_service(self, comp_id: str) -> bool:
        status = self.statuses.get(comp_id, self.net.component(comp_id).status)
        return status in IN_SERVICE and comp_id not in self.forced_off

    def _system(self, closed_tanks: set[str]) -> _System:
        return self.net.cached(
            system_key(self.net, self.params, self.statuses, self.forced_off, closed_tanks),
            lambda: _System(self.net, self.params, self._in_service, closed_tanks),
        )

    # -- residual / jacobian -------------------------------------------------

    def _headloss(self, q, sys: _System):
        prm, c1, c2 = self.params, sys.c1, sys.c2
        absq = np.abs(q)
        hl_pipe = np.where(
            absq < prm.q_smooth,
            c1 * q * prm.q_smooth ** (_HW_EXP - 1.0),
            c1 * np.sign(q) * absq ** _HW_EXP,
        )
        # pump: E = -gain so that F1 = (ha - hb) - E holds for both types
        gain = c1 * (1.0 - np.sign(q) * (absq / c2) ** 2)
        return np.where(sys.is_pipe, hl_pipe, -gain)

    def _headloss_slope(self, q, sys: _System):
        prm, c1, c2 = self.params, sys.c1, sys.c2
        absq = np.abs(q)
        dhl_pipe = np.where(
            absq < prm.q_smooth,
            c1 * prm.q_smooth ** (_HW_EXP - 1.0),
            _HW_EXP * c1 * absq ** (_HW_EXP - 1.0),
        )
        dgain = -2.0 * c1 * absq / c2 ** 2
        return np.maximum(np.where(sys.is_pipe, dhl_pipe, -dgain), prm.q_reg)

    def _demand(self, h, sys: _System):
        prm = self.params
        p = h - sys.junction_z
        d = pda_demand(p, sys.junction_demand, prm.p0, prm.pf, prm.e)
        if sys.leak.any():
            pp = np.maximum(p, 0.0)
            ql = np.where(
                pp < prm.p_smooth, sys.leak_coef * pp / math.sqrt(prm.p_smooth), sys.leak_coef * np.sqrt(pp)
            )
            d = np.where(sys.leak, np.where(p <= 0.0, 0.0, ql), d)
        return d

    def _demand_slope(self, h, sys: _System):
        prm = self.params
        p = h - sys.junction_z
        dd = _pda_slope(p, sys.junction_demand, prm.p0, prm.pf, prm.e)
        if sys.leak.any():
            pp = np.maximum(p, 0.0)
            dql = np.where(
                pp < prm.p_smooth,
                sys.leak_coef / math.sqrt(prm.p_smooth),
                sys.leak_coef / (2.0 * np.sqrt(np.maximum(pp, prm.p_smooth))),
            )
            dd = np.where(sys.leak, np.where(p <= 0.0, 0.0, dql), dd)
        return dd

    def _solve_system(self, sys: _System, fixed: list[float]):
        prm = self.params
        nj, nl = len(sys.junction_ids), len(sys.link_ids)
        if nj == 0 and nl == 0:
            return np.zeros(0), np.zeros(0), 0.0, 0
        fixed_h = np.array(fixed, dtype=float)

        default_h = max(fixed, default=0.0) + 5.0
        h = np.array([self._warm_h.get(jid, default_h + z) for jid, z in zip(sys.junction_ids, sys.junction_z)])
        q = np.array([self._warm_q.get(rid, 0.01) for rid in sys.link_ids])

        def residual(qv, hv):
            heads = np.concatenate([hv, fixed_h])
            f1 = heads[sys.from_node] - heads[sys.to_node] - self._headloss(qv, sys)
            # np.add.at keeps the link order of each node's sum
            inflow = np.zeros(len(heads))
            np.add.at(inflow, sys.to_node, qv)
            np.subtract.at(inflow, sys.from_node, qv)
            return np.concatenate([f1, inflow[:nj] - self._demand(hv, sys)])

        F = residual(q, h)
        norm = float(np.max(np.abs(F))) if F.size else 0.0
        iters = 0
        for iters in range(1, prm.max_iterations + 1):
            if norm < prm.tol:
                break
            J = sys.incidence.copy()
            J.flat[:: nl + nj + 1] = np.concatenate(
                [-self._headloss_slope(q, sys), -(self._demand_slope(h, sys) + 1e-12)]
            )
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(J + 1e-10 * np.eye(nl + nj), -F)
            lam, best = 1.0, None
            for _ in range(16):
                qn, hn = q + lam * step[:nl], h + lam * step[nl:]
                Fn = residual(qn, hn)
                nn = float(np.max(np.abs(Fn)))
                if nn < norm * (1.0 - 1e-4 * lam) or nn < prm.tol:
                    best = (qn, hn, Fn, nn)
                    break
                if best is None or nn < best[3]:
                    best = (qn, hn, Fn, nn)
                lam /= 2.0
            q, h, F, norm = best
        else:
            raise HydraulicError(
                f"no convergence after {prm.max_iterations} iterations; residual {norm:.3e} (tol {prm.tol:.1e})"
            )
        return q, h, norm, iters

    # -- public stepping ----------------------------------------------------

    def solve(self, time: float = 0.0) -> HydraulicState:
        """Converge a steady state at current statuses and tank levels."""
        closed: set[str] = set()
        dry: set[str] = set()
        for _ in range(1 + len(self._tanks)):
            sys = self._system(closed)
            fixed = sys.fixed_heads(self.tank_level)
            q, h, res_norm, iters = self._solve_system(sys, fixed)
            tank_inflow = self._tank_inflows(sys, q)
            toggled = False
            for tid, tank in self._tanks.items():
                if tid in closed:
                    continue
                level, a = self.tank_level[tid], tank.attrs
                inflow = tank_inflow[tid]
                if level >= a["max_level"] - 1e-12 and inflow > 1e-9:
                    closed.add(tid)
                    toggled = True
                elif level <= a["min_level"] + 1e-12 and inflow < -1e-9:
                    closed.add(tid)
                    dry.add(tid)
                    toggled = True
            if not toggled:
                break

        state = self._build_state(sys, fixed, q, h, tank_inflow, time, res_norm, iters, dry)
        self._warm_h = dict(zip(sys.junction_ids, h))
        self._warm_q = dict(zip(sys.link_ids, q))
        self._last_state = state
        self._solved_levels = dict(self.tank_level)
        return state

    def _tank_inflows(self, sys: _System, q) -> dict[str, float]:
        inflow = {tid: 0.0 for tid in self._tanks}
        for k, tid, sign in sys.tank_links:
            inflow[tid] += sign * q[k]
        return inflow

    def advance(self, dt: float) -> None:
        """Explicit Euler tank level update from the last solved flows."""
        if self._last_state is None:
            raise HydraulicError("advance() called before solve()")
        for tid, tank in self._tanks.items():
            inflow = self._last_state.tank_inflow[tid]
            a = tank.attrs
            level = self.tank_level[tid] + inflow * dt / a["area"]
            self.tank_level[tid] = min(max(level, a["min_level"]), a["max_level"])

    def is_stationary(self) -> bool:
        """True when the last solution is current and levels cannot change.

        A level that moved since the solve (including being clipped at a
        tank bound by ``advance``) invalidates the cached solution, so
        the simulator is not stationary until it re-solves.
        """
        if self._last_state is None or self._solved_levels is None:
            return False
        for tid in self._tanks:
            if abs(self.tank_level[tid] - self._solved_levels[tid]) > 1e-12:
                return False
        for tid, tank in self._tanks.items():
            inflow = self._last_state.tank_inflow[tid]
            level = self.tank_level[tid]
            a = tank.attrs
            moving_up = inflow > 1e-9 and level < a["max_level"] - 1e-12
            moving_down = inflow < -1e-9 and level > a["min_level"] + 1e-12
            if moving_up or moving_down:
                return False
        return True

    def is_frozen(self) -> bool:
        """True when ``advance`` is exactly the identity: stationary, every
        tank's last inflow exactly zero and every level within its bounds.
        Then no later solve or step changes anything until the statuses do.
        """
        if not self.is_stationary():
            return False
        for tid, tank in self._tanks.items():
            a = tank.attrs
            if self._last_state.tank_inflow[tid] != 0.0:
                return False
            if not a["min_level"] <= self.tank_level[tid] <= a["max_level"]:
                return False
        return True

    def _build_state(self, sys, fixed, q, h, tank_inflow, time, res_norm, iters, dry) -> HydraulicState:
        prm = self.params
        node_head: dict[str, float] = dict(zip(sys.fixed_ids, fixed))
        node_pressure: dict[str, float] = {}
        actual: dict[str, float] = {}
        desired: dict[str, float] = {}
        leak_out: dict[str, float] = {}

        heads = {jid: float(v) for jid, v in zip(sys.junction_ids, h)}
        for nid, z, base_demand in self._demand_nodes:
            head = heads.get(nid, z)  # dead nodes pin to elevation
            node_head[nid] = head
            node_pressure[nid] = head - z
            desired[nid] = float(base_demand)
            # one scalar call per node: numpy's array power rounds
            # differently from the scalar path in the last bit
            actual[nid] = float(pda_demand(head - z, base_demand, prm.p0, prm.pf, prm.e))
        if sys.leak.any():
            for jid, dv, leak in zip(sys.junction_ids, self._demand(h, sys), sys.leak):
                if leak:
                    leak_out[jid.split("::")[0]] = float(dv)
                    node_head[jid] = heads[jid]

        link_flow: dict[str, float] = {c.id: 0.0 for c in self.net.edges_of(WATER)}
        for rid, qk in zip(sys.link_ids, q):
            if rid.endswith("::b"):
                continue  # report the inlet half as the pipe's through-flow
            link_flow[rid.split("::")[0]] = float(qk)

        return HydraulicState(
            time=time,
            node_head=node_head,
            node_pressure=node_pressure,
            actual_demand=actual,
            desired_demand=desired,
            link_flow=link_flow,
            leak_discharge=leak_out,
            tank_level=dict(self.tank_level),
            tank_inflow={t: float(v) for t, v in tank_inflow.items()},
            dry_tanks=sorted(dry),
            dead_nodes=list(sys.dead_nodes),
            residual=res_norm,
            iterations=iters,
        )


def solve_hydraulics(
    net: IntegratedNetwork,
    component_statuses: dict[str, str],
    duration: float,
    step: float,
    params: HydraulicParams | None = None,
    forced_off: set[str] | None = None,
) -> list[HydraulicState]:
    """Quasi-static run over ``duration`` with one state every ``step`` s.

    Statuses stay fixed for the whole run; the returned list holds
    duration/step + 1 states (the initial steady state included) with
    tank levels integrated between them.
    """
    if step <= 0 or duration < 0:
        raise ValueError("duration must be >= 0 and step > 0")
    n = duration / step
    if abs(n - round(n)) > 1e-9:
        raise ValueError("step must divide duration evenly")
    sim = WaterSimulator(net, params, forced_off)
    sim.set_statuses(component_statuses)
    states = [sim.solve(0.0)]
    for k in range(1, int(round(n)) + 1):
        sim.advance(step)
        states.append(sim.solve(k * step))
    return states
