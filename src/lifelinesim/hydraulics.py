"""Pressure-dependent steady-state water network solver.

Quasi-static stepping: each step solves Hazen-Williams pipe headlosses
together with pressure-dependent nodal outflows by a damped Newton
iteration on (link flows, junction heads), then tank levels advance by
explicit Euler between steps. Failed pipes keep conveying but lose water
through a midpoint orifice sized to half the pipe cross-section; failed
or unpowered pumps close.

The Newton iteration is damped, with a bounded full step: the watchdog
of Chamberlain et al. (1982) and Grippo et al. (1986), limited by
``_RELAXED_STEPS`` and ``_RELAXED_GROWTH`` (see ``WaterSimulator._newton``).

Each topology (in-service flags, forced-off pumps and closed tanks) is
compiled once per network into the arrays, the Jacobian pattern and the
coefficient products its Newton solves read, and kept in the network's
memo for every later simulator that meets it. A solve then evaluates
each residual and Jacobian diagonal in a few array expressions whose
operand order, and so whose rounding, the compiled constants leave
unchanged.

Units are SI throughout: flows m3/s, heads/pressures m of water column.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .network import IN_SERVICE, IntegratedNetwork, WATER, component_roots

G = 9.81
_HW_EXP = 1.852
# bounded full step of the Newton line search (see ``WaterSimulator._newton``)
_RELAXED_STEPS = 5
_RELAXED_GROWTH = 100.0


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

    def __post_init__(self):
        # the compiled Newton kernel evaluates the demand model directly,
        # without the checks of ``pda_demand``
        if not self.pf > self.p0:
            raise ValueError("pf must exceed p0")
        if not self.e > 0:
            raise ValueError("demand exponent must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.max_iterations >= 1:
            raise ValueError("max_iterations must be at least 1")


def pda_demand(pressure: float, desired: float, p0: float = 0.0, pf: float = 20.0, e: float = 2.0):
    """Served demand at a node under the given pressure head.

    Zero at or below p0, the full desired demand above pf, and a
    power-law fraction in between. Accepts scalars or numpy arrays.
    Two scalars take a plain-float path whose bits equal numpy's on 0-d
    arrays; n-d arrays may round differently in the last bit.
    """
    if not pf > p0:
        raise ValueError("pf must exceed p0")
    if e <= 0:
        raise ValueError("demand exponent must be positive")
    if isinstance(pressure, (int, float)) and isinstance(desired, (int, float)):
        return float(desired) * min(max((float(pressure) - p0) / (pf - p0), 0.0), 1.0) ** (1.0 / e)
    p = np.asarray(pressure, dtype=float)
    frac = np.clip((p - p0) / (pf - p0), 0.0, 1.0) ** (1.0 / e)
    out = np.asarray(desired, dtype=float) * frac
    return out if out.ndim else float(out)


def hazen_williams_r(length: float, diameter: float, roughness: float) -> float:
    """Resistance r in hl = r * q^1.852 (SI units)."""
    return 10.667 * length / (roughness ** _HW_EXP * diameter ** 4.871)


# link type codes in the compiled system
_PIPE, _PUMP = 0, 1


@dataclass
class HydraulicState:
    """Snapshot of one converged steady state.

    The last five fields are filled only by ``solve(full=True)``, as
    ``solve_hydraulics`` asks; the interdependent replay reads none of
    them and leaves them ``None``. ``residual`` and ``iterations`` are
    those of the Newton run, also when a simulator's Newton table
    returned it for a repeated solve.
    """

    time: float
    actual_demand: dict[str, float]
    tank_level: dict[str, float]
    tank_inflow: dict[str, float]
    dry_tanks: list[str]
    residual: float
    iterations: int
    node_head: dict[str, float] | None = None
    node_pressure: dict[str, float] | None = None
    desired_demand: dict[str, float] | None = None
    link_flow: dict[str, float] | None = None
    leak_discharge: dict[str, float] | None = None


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
    components whose in-service flag the statuses change
    (``IntegratedNetwork.service_key``), the forced-off set and the
    closed tanks."""
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

    ``residual`` and ``jacobian_diagonal`` are the Newton kernel. The
    coefficient products they read are compiled here, each from the same
    operands in the same order as the expression it replaces, so every
    value keeps its bits. Exponents stay Python scalars: numpy's power
    takes a fast path for some of them (``** 0.5`` is a square root).
    """

    def __init__(self, net: IntegratedNetwork, params: HydraulicParams, in_service, closed_tanks: set[str]):
        self.params = params
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
        root = component_roots(junction_ids + self.fixed_ids, [(l[2], l[3]) for l in raw_links])
        live = {root[f] for f in self.fixed_ids}
        dead = {j for j in junction_ids if root[j] not in live}

        kept = [j for j in junctions if j[0] not in dead]
        self.junction_ids = [j[0] for j in kept]
        self.junction_z = np.array([j[1] for j in kept], dtype=float)
        self.junction_demand = np.array([j[2] for j in kept], dtype=float)
        self.leak_coef = np.array([j[3] for j in kept], dtype=float)
        self.leak = self.leak_coef > 0
        self.has_leak = bool(self.leak.any())
        # d(demand)/d(pressure) = desired / (e (pf - p0)) * u^(1/e - 1)
        self.demand_slope = self.junction_demand / (params.e * (params.pf - params.p0))
        links = [l for l in raw_links if l[2] not in dead and l[3] not in dead]
        self.link_ids = [l[0] for l in links]
        self._link_arrays(links, {t.id for t in tanks})
        # slope factors of the pipe headloss c1 q^1.852 (linear below
        # q_smooth) and of the pump gain c1 (1 - (q/c2)^2)
        self.c1_smooth = self.c1 * params.q_smooth ** (_HW_EXP - 1.0)
        self.hw_c1 = _HW_EXP * self.c1
        self.m2_c1 = -2.0 * self.c1
        self.c2_sq = self.c2 ** 2

    def _link_arrays(self, links, tank_ids: set[str]) -> None:
        nl, nj = len(links), len(self.junction_ids)
        # link ends index the node vector: junctions, then fixed heads
        node = {nid: k for k, nid in enumerate(self.junction_ids + self.fixed_ids)}
        self.from_node = np.array([node[l[2]] for l in links], dtype=int)
        self.to_node = np.array([node[l[3]] for l in links], dtype=int)
        self.ends = np.concatenate([self.to_node, self.from_node])
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

    def demand(self, h):
        """Junction outflows at heads ``h`` (served demand, or leak
        discharge at orifice nodes), with the pressures ``p`` and the
        clipped pressure fractions ``u`` that the slope reuses."""
        prm = self.params
        p = h - self.junction_z
        u = np.minimum(np.maximum((p - prm.p0) / (prm.pf - prm.p0), 0.0), 1.0)
        d = self.junction_demand * u ** (1.0 / prm.e)
        if self.has_leak:
            pp = np.maximum(p, 0.0)
            ql = np.where(
                pp < prm.p_smooth, self.leak_coef * pp / math.sqrt(prm.p_smooth), self.leak_coef * np.sqrt(pp)
            )
            d = np.where(self.leak, np.where(p <= 0.0, 0.0, ql), d)
        return d, p, u

    def residual(self, q, h, heads):
        """Newton residual at link flows ``q`` and junction heads ``h``:
        headloss balance per link, then mass balance per junction. Also
        returns the terms ``jacobian_diagonal`` reuses once the point is
        accepted. ``heads`` is the node vector with the fixed heads at
        its tail; the junction heads are written into it."""
        prm = self.params
        nl, nj = len(self.link_ids), len(self.junction_ids)
        heads[:nj] = h
        at_ends = heads[self.ends]  # link heads: to nodes, then from nodes
        absq, sign = np.abs(q), np.sign(q)
        low = absq < prm.q_smooth
        hl = np.where(low, self.c1 * q * prm.q_smooth ** (_HW_EXP - 1.0), self.c1 * sign * absq ** _HW_EXP)
        # pump: E = -gain so that F1 = (ha - hb) - E holds for both types
        hl = np.where(self.is_pipe, hl, -(self.c1 * (1.0 - sign * (absq / self.c2) ** 2)))
        d, p, u = self.demand(h)
        F = np.empty(nl + nj)
        np.subtract(at_ends[nl:], at_ends[:nl], out=F[:nl])
        F[:nl] -= hl
        # one pass over the links in order: each node adds the flows into
        # it, then subtracts those out of it, as two ufunc.at calls would
        inflow = np.bincount(self.ends, np.concatenate([q, -q]), nj)
        np.subtract(inflow[:nj], d, out=F[nl:])
        return F, (absq, low, p, u)

    def jacobian_diagonal(self, terms):
        """Diagonal of the Newton Jacobian at the point whose ``residual``
        returned ``terms``: minus the headloss slope per link, then minus
        the outflow slope per junction. The headloss slope is floored at
        ``q_reg`` and the demand slope is capped near p0."""
        absq, low, p, u = terms
        prm = self.params
        dhl = np.where(low, self.c1_smooth, self.hw_c1 * absq ** (_HW_EXP - 1.0))
        dhl = np.maximum(np.where(self.is_pipe, dhl, -(self.m2_c1 * absq / self.c2_sq)), prm.q_reg)
        inside = (u > 0.0) & (u < 1.0)
        dd = np.where(inside, self.demand_slope * np.maximum(u, 1e-4) ** (1.0 / prm.e - 1.0), 0.0)
        if self.has_leak:
            pp = np.maximum(p, 0.0)
            dql = np.where(
                pp < prm.p_smooth,
                self.leak_coef / math.sqrt(prm.p_smooth),
                self.leak_coef / (2.0 * np.sqrt(np.maximum(pp, prm.p_smooth))),
            )
            dd = np.where(self.leak, np.where(p <= 0.0, 0.0, dql), dd)
        return np.concatenate([-dhl, -(dd + 1e-12)])


class WaterSimulator:
    """Stateful stepper holding tank levels and a warm-started solution.

    Each topology it meets is compiled once per network: the compiled
    ``_System`` is kept in the network memo under ``system_key``.

    ``solves`` is a Newton table: each Newton run, keyed on all that it
    reads (the compiled system, the fixed heads and the start vectors).
    A solve with the same inputs returns the stored result, read-only
    arrays included, bit for bit. The replays of one replay store (see
    ``simulation.simulate``) share one table.
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
        self.solves: dict[tuple, tuple] = {}

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

    # -- Newton solve ----------------------------------------------------

    def _solve_system(self, sys: _System, fixed: list[float]):
        """``(q, h, norm, iters)`` of the Newton solve from the warm start,
        run once per distinct input: a repeat returns the stored result."""
        nj, nl = len(sys.junction_ids), len(sys.link_ids)
        if nj == 0 and nl == 0:
            return np.zeros(0), np.zeros(0), 0.0, 0
        heads = np.empty(nj + len(fixed))
        heads[nj:] = fixed

        default_h = max(fixed, default=0.0) + 5.0
        h = np.array([self._warm_h.get(jid, default_h + z) for jid, z in zip(sys.junction_ids, sys.junction_z)])
        q = np.array([self._warm_q.get(rid, 0.01) for rid in sys.link_ids])
        # ``_newton`` reads nothing but these, ``sys.params`` included
        key = (sys, heads[nj:].tobytes(), h.tobytes(), q.tobytes())
        solution = self.solves.get(key)
        if solution is None:
            solution = self._newton(sys, heads, q, h)
            solution[0].flags.writeable = solution[1].flags.writeable = False
            self.solves[key] = solution
        return solution

    @staticmethod
    def _newton(sys: _System, heads, q, h):
        """Damped Newton from flows ``q`` and junction heads ``h``;
        ``heads`` holds the fixed heads at its tail.

        The line search halves the step until the residual max-norm passes
        an Armijo test, but up to ``_RELAXED_STEPS`` times per call takes a
        full step whose residual is finite and below ``_RELAXED_GROWTH``
        times the current one. Once those are spent, an iterate above the
        least residual met returns to it and goes on by Armijo steps only;
        without that return some tank-closure re-solves stall until
        ``max_iterations``. This is the watchdog technique of Chamberlain,
        Powell, Lemarechal & Pedersen (Math. Programming Study 16, 1982);
        see also Grippo, Lampariello & Lucidi (SIAM J. Numer. Anal. 23(4),
        1986).
        """
        prm = sys.params
        nj, nl = len(sys.junction_ids), len(sys.link_ids)
        F, terms = sys.residual(q, h, heads)
        norm = float(np.abs(F).max())
        iters = relaxed = 0
        checkpoint = (q, h, F, terms, norm)
        for iters in range(1, prm.max_iterations + 1):
            if norm < prm.tol:
                break
            if norm < checkpoint[-1]:
                checkpoint = (q, h, F, terms, norm)
            elif relaxed == _RELAXED_STEPS and norm > checkpoint[-1]:
                # the full steps did not pay off
                q, h, F, terms, norm = checkpoint
                relaxed += 1
            J = sys.incidence.copy()
            J.flat[:: nl + nj + 1] = sys.jacobian_diagonal(terms)
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                step = np.linalg.solve(J + 1e-10 * np.eye(nl + nj), -F)
            dq, dh = step[:nl], step[nl:]
            lam, best = 1.0, None
            for _ in range(16):
                qn, hn = q + lam * dq, h + lam * dh
                Fn, tn = sys.residual(qn, hn, heads)
                nn = float(np.abs(Fn).max())
                if nn < norm * (1.0 - 1e-4 * lam) or nn < prm.tol:
                    best = (qn, hn, Fn, tn, nn)
                    break
                if lam == 1.0 and relaxed < _RELAXED_STEPS and nn < _RELAXED_GROWTH * norm:
                    relaxed += 1
                    best = (qn, hn, Fn, tn, nn)
                    break
                if best is None or nn < best[-1]:
                    best = (qn, hn, Fn, tn, nn)
                lam /= 2.0
            q, h, F, terms, norm = best
        else:
            raise HydraulicError(
                f"no convergence after {prm.max_iterations} iterations; residual {norm:.3e} (tol {prm.tol:.1e})"
            )
        return q, h, norm, iters

    # -- public stepping ----------------------------------------------------

    def solve(self, time: float = 0.0, full: bool = True) -> HydraulicState:
        """Converge a steady state at current statuses and tank levels.

        ``full=False`` skips the heads, pressures, desired demands, link
        flows and leak discharges (see ``HydraulicState``).
        """
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

        state = self._build_state(sys, fixed, q, h, tank_inflow, time, res_norm, iters, dry, full)
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

    def _build_state(self, sys, fixed, q, h, tank_inflow, time, res_norm, iters, dry, full) -> HydraulicState:
        prm = self.params
        heads = dict(zip(sys.junction_ids, h.tolist()))
        # one scalar call per node: numpy's array power rounds
        # differently from the scalar path in the last bit
        actual = {
            nid: pda_demand(heads.get(nid, z) - z, base_demand, prm.p0, prm.pf, prm.e)
            for nid, z, base_demand in self._demand_nodes  # dead nodes pin to elevation
        }
        state = HydraulicState(
            time=time,
            actual_demand=actual,
            tank_level=dict(self.tank_level),
            tank_inflow={t: float(v) for t, v in tank_inflow.items()},
            dry_tanks=sorted(dry),
            residual=res_norm,
            iterations=iters,
        )
        if not full:
            return state

        state.node_head = dict(zip(sys.fixed_ids, fixed))
        state.node_pressure = {}
        state.desired_demand = {}
        for nid, z, base_demand in self._demand_nodes:
            state.node_head[nid] = heads.get(nid, z)
            state.node_pressure[nid] = state.node_head[nid] - z
            state.desired_demand[nid] = float(base_demand)
        state.leak_discharge = {}
        if sys.leak.any():
            for jid, dv, leak in zip(sys.junction_ids, sys.demand(h)[0], sys.leak):
                if leak:
                    state.leak_discharge[jid.split("::")[0]] = float(dv)
                    state.node_head[jid] = heads[jid]

        state.link_flow = {c.id: 0.0 for c in self.net.edges_of(WATER)}
        for rid, qk in zip(sys.link_ids, q):
            if rid.endswith("::b"):
                continue  # report the inlet half as the pipe's through-flow
            state.link_flow[rid.split("::")[0]] = float(qk)
        return state


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

    Once the simulator is frozen (``WaterSimulator.is_frozen``), a step
    and a solve would return the same state, so each later state is a
    copy of the last one at its own time, with its own dicts and lists.
    A repeated state keeps the ``residual`` and ``iterations`` of the
    solve it copies.
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
        if sim.is_frozen():
            last = states[-1]
            own = {f: copy.copy(v) for f, v in vars(last).items() if isinstance(v, (dict, list))}
            states.append(replace(last, time=k * step, **own))
            continue
        sim.advance(step)
        states.append(sim.solve(k * step))
    return states
