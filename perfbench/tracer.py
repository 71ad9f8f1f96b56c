"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public entry points of each lifelinesim
module with timing wrappers, patching every name in the module that
looks it up (``simulation.solve_power`` and ``recovery.solve_power``
are separate bindings). Coarse calls become spans with a parent id;
the two hot leaves, ``graphs.dijkstra`` and ``WaterSimulator.solve``,
only add a count and their time to the innermost open span. Everything
stays in memory until ``write_spans``; ``layer_metrics`` derives the
per-layer figures, self times included, from what was recorded.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from lifelinesim import cli, graphs, hydraulics, metrics, recovery, simulation
from lifelinesim.traffic import TrafficAssignmentError, TrafficParams

# span name -> the (module, attribute) bindings it wraps
SPANS = {
    "network.load": [(cli, "_load_net")],
    "hazard.sample": [(cli, "sample_scenario")],
    "simulation.run_scenario": [(cli, "run_scenario")],
    "recovery.context": [(simulation, "build_planning_context")],
    "recovery.rank": [(simulation, "rank_components")],
    "recovery.mpc": [(simulation, "mpc_sequence")],
    "simulation.schedule": [(simulation, "build_event_table")],
    "simulation.simulate": [(simulation, "simulate")],
    "powerflow.solve": [(simulation, "solve_power"), (recovery, "solve_power")],
    "traffic.assign": [(simulation, "assign_traffic"), (recovery, "assign_traffic")],
    "metrics.eoh": [
        (metrics, name)
        for name in ("system_eoh", "consumer_eoh", "weighted_eoh", "curve_eoh", "ecs_curve", "pcs_curve")
    ],
    "metrics.stats": [
        (metrics, name) for name in ("repeated_measures_anova", "paired_comparison", "benjamini_hochberg")
    ],
}
HYDRAULICS = "hydraulics.solve"
DIJKSTRA = "graphs.dijkstra"


class _Frame:
    __slots__ = ("id", "name", "t0", "child_s", "inner")

    def __init__(self, span_id: int, name: str, t0: float):
        self.id = span_id
        self.name = name
        self.t0 = t0
        self.child_s = 0.0  # time in direct child spans and leaves
        self.inner: dict[str, float] = defaultdict(float)  # layer -> time inside this subtree


class Tracer:
    """Spans and counters for one traced workload process."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.total_s: Counter = Counter()  # outermost time per span name
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.simulate_self_s = 0.0
        self.mpc_evals = 0
        self.leaf_n: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.newton_iters = 0
        self.max_residual = 0.0
        self.power_keys: set = set()
        self.max_balance_residual = 0.0
        self.traffic_keys: set = set()
        self.fw_iters = 0
        self.unreachable_pairs = 0
        self._next_id = 1
        self._stack: list[_Frame] = [_Frame(0, "root", time.perf_counter())]
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> _Frame:
        frame = _Frame(self._next_id, name, time.perf_counter())
        self._next_id += 1
        if name == "simulation.simulate" and any(f.name == "recovery.mpc" for f in self._stack):
            self.mpc_evals += 1
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _close(self, frame: _Frame) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        name, dur = frame.name, t1 - frame.t0
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - frame.child_s
        if self._depth[name] == 0:
            self.total_s[name] += dur
        if name == "simulation.simulate":
            self.simulate_self_s += dur - frame.inner[HYDRAULICS] - frame.inner["powerflow.solve"]
        parent.child_s += dur
        for layer, t in frame.inner.items():
            if layer != name:
                parent.inner[layer] += t
        parent.inner[name] += dur
        self.spans.append((frame.id, parent.id, name, frame.t0, t1))

    def span(self, name: str, fn, *args, **kwargs):
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _leaf(self, name: str, dt: float) -> None:
        top = self._stack[-1]
        top.child_s += dt
        top.inner[name] += dt
        self.leaf_n[name] += 1
        self.leaf_s[name] += dt

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            try:
                result = self.span(name, fn, *args, **kwargs)
            except TrafficAssignmentError:
                if name == "traffic.assign":
                    self._observe_traffic(args, kwargs, None)
                raise
            if name == "powerflow.solve":
                self._observe_power(args, kwargs, result)
            elif name == "traffic.assign":
                self._observe_traffic(args, kwargs, result)
            return result

        return wrapper

    def _observe_power(self, args, kwargs, state) -> None:
        statuses = args[1] if len(args) > 1 else kwargs.get("component_statuses")
        forced = args[2] if len(args) > 2 else kwargs.get("forced_off")
        self.power_keys.add((frozenset((statuses or {}).items()), frozenset(forced or ())))
        self.max_balance_residual = max(self.max_balance_residual, state.balance_residual)

    def _observe_traffic(self, args, kwargs, state) -> None:
        statuses = args[1] if len(args) > 1 else kwargs.get("component_statuses")
        self.traffic_keys.add(frozenset((statuses or {}).items()))
        if state is None:  # the solver stopped at its iteration cap
            params = kwargs.get("params") or (args[2] if len(args) > 2 else None) or TrafficParams()
            self.fw_iters += params.max_iterations
        else:
            self.fw_iters += state.iterations
            self.unreachable_pairs += len(state.unreachable)

    def install(self) -> None:
        for name, bindings in SPANS.items():
            for owner, attr in bindings:
                self._patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))

        dijkstra = graphs.dijkstra
        leaf = self._leaf

        def traced_dijkstra(adj, source):
            t0 = time.perf_counter()
            try:
                return dijkstra(adj, source)
            finally:
                leaf(DIJKSTRA, time.perf_counter() - t0)

        solve = hydraulics.WaterSimulator.solve

        def traced_solve(sim, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                state = solve(sim, *args, **kwargs)
            finally:
                leaf(HYDRAULICS, time.perf_counter() - t0)
            self.newton_iters += state.iterations
            self.max_residual = max(self.max_residual, state.residual)
            return state

        self._patch(graphs, "dijkstra", traced_dijkstra)
        self._patch(hydraulics.WaterSimulator, "solve", traced_solve)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name, "t0": t0, "t1": t1}))
                fh.write("\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as name -> (value, unit)."""
        t, n = self.total_s, self.calls
        solves = self.leaf_n[HYDRAULICS]
        power_calls, assigns = n["powerflow.solve"], n["traffic.assign"]
        return {
            "hydraulics.solves": (solves, "count"),
            "hydraulics.newton_iters": (self.newton_iters, "count"),
            "hydraulics.max_residual": (self.max_residual, "norm"),
            "hydraulics.solve_s": (self.leaf_s[HYDRAULICS], "s"),
            "hydraulics.ms_per_solve": (1e3 * self.leaf_s[HYDRAULICS] / max(solves, 1), "ms"),
            "powerflow.solves": (power_calls, "count"),
            "powerflow.solve_s": (t["powerflow.solve"], "s"),
            "powerflow.distinct_frac": (len(self.power_keys) / max(power_calls, 1), "ratio"),
            "powerflow.max_balance_residual": (self.max_balance_residual, "MW"),
            "traffic.assigns": (assigns, "count"),
            "traffic.assign_s": (t["traffic.assign"], "s"),
            "traffic.fw_iters": (self.fw_iters, "count"),
            "traffic.distinct_frac": (len(self.traffic_keys) / max(assigns, 1), "ratio"),
            "traffic.unreachable_pairs": (self.unreachable_pairs, "count"),
            "graphs.dijkstra_calls": (self.leaf_n[DIJKSTRA], "count"),
            "graphs.dijkstra_s": (self.leaf_s[DIJKSTRA], "s"),
            "recovery.context_calls": (n["recovery.context"], "count"),
            "recovery.context_s": (t["recovery.context"], "s"),
            "recovery.rank_s": (t["recovery.rank"], "s"),
            "recovery.mpc_evals": (self.mpc_evals, "count"),
            "recovery.mpc_s": (t["recovery.mpc"], "s"),
            "simulation.schedule_s": (t["simulation.schedule"], "s"),
            "simulation.simulates": (n["simulation.simulate"], "count"),
            "simulation.simulate_s": (t["simulation.simulate"], "s"),
            "simulation.simulate_self_s": (self.simulate_self_s, "s"),
            "hazard.sample_s": (t["hazard.sample"], "s"),
            "metrics.eoh_s": (t["metrics.eoh"], "s"),
            "metrics.stats_s": (t["metrics.stats"], "s"),
            "network.load_s": (t["network.load"], "s"),
            "cli.self_s": (self.self_s["cli.main"], "s"),
            "trace.spans": (len(self.spans), "count"),
        }
