"""Hydraulic solver oracles: PDA closed form, triangle network, tanks, leaks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from lifelinesim import hydraulics
from lifelinesim.hydraulics import (
    _HW_EXP,
    HydraulicError,
    HydraulicParams,
    WaterSimulator,
    hazen_williams_r,
    pda_demand,
    solve_hydraulics,
)
from lifelinesim.network import Component, IntegratedNetwork, WATER
from lifelinesim.testbed import build_simple_testbed
from test_memo import _unmemoized

# Independent solution of the triangle fixture (scipy.optimize.fsolve on
# the two nodal balance equations; residual < 1e-16). Frozen here so a
# solver regression cannot silently move the reference.
TRIANGLE_HEADS = {"J1": 14.764999042836088, "J2": 14.764643310746422}
TRIANGLE_FLOWS = {
    "P-R-1": 0.017446388280533496,
    "P-R-2": 0.012625972008845483,
    "P-1-2": 0.0002620936817807896,
}
TRIANGLE_DEMANDS = {"J1": 0.017184294598752717, "J2": 0.01288806569062624}


def _hw_flow(dh, r):
    return np.sign(dh) * (abs(dh) / r) ** (1.0 / _HW_EXP)


def _triangle_oracle():
    """Re-derive the frozen values with an independent root find."""
    r1 = hazen_williams_r(800.0, 0.3, 120.0)
    r2 = hazen_williams_r(600.0, 0.25, 120.0)
    r12 = hazen_williams_r(400.0, 0.2, 120.0)

    def eqs(h):
        h1, h2 = h
        return [
            _hw_flow(15.0 - h1, r1) - _hw_flow(h1 - h2, r12) - pda_demand(h1, 0.02),
            _hw_flow(15.0 - h2, r2) + _hw_flow(h1 - h2, r12) - pda_demand(h2, 0.015),
        ]

    (h1, h2), info, ok, _ = fsolve(eqs, [14.0, 14.0], full_output=True, xtol=1e-13)
    assert ok == 1 and max(abs(np.asarray(eqs([h1, h2])))) < 1e-12
    return h1, h2, r1, r2, r12


class TestPdaDemand:
    def test_closed_form_on_grid(self):
        # 100 evenly spaced pressures spanning below p0 to above pf.
        pressures = np.linspace(-5.0, 30.0, 100)
        desired = 0.037
        p0, pf, e = 0.0, 20.0, 2.0
        got = pda_demand(pressures, desired, p0, pf, e)
        frac = np.clip((pressures - p0) / (pf - p0), 0.0, 1.0) ** (1.0 / e)
        expected = desired * frac
        assert np.all(np.abs(got - expected) <= 1e-12)

    def test_continuity_at_thresholds(self):
        d = 0.02
        eps = 1e-12
        assert abs(pda_demand(0.0, d) - pda_demand(-eps, d)) < 1e-9
        assert abs(pda_demand(0.0 + eps, d) - pda_demand(0.0, d)) < 1e-6  # sqrt corner
        assert abs(pda_demand(20.0, d) - pda_demand(20.0 - eps, d)) < 1e-9
        assert abs(pda_demand(20.0 + eps, d) - pda_demand(20.0, d)) < 1e-9

    def test_regions(self):
        assert pda_demand(-3.0, 0.05) == 0.0
        assert pda_demand(0.0, 0.05) == 0.0
        assert pda_demand(20.0, 0.05) == pytest.approx(0.05, abs=1e-15)
        assert pda_demand(35.0, 0.05) == 0.05
        assert pda_demand(5.0, 0.05) == pytest.approx(0.05 * (5.0 / 20.0) ** 0.5, abs=1e-15)

    def test_custom_exponent_and_bounds(self):
        assert pda_demand(10.0, 1.0, p0=5.0, pf=25.0, e=1.0) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            pda_demand(1.0, 1.0, p0=10.0, pf=10.0)
        with pytest.raises(ValueError):
            pda_demand(1.0, 1.0, e=0.0)

    def test_nan_exponent_rejected(self):
        # as HydraulicParams(e=nan) is
        with pytest.raises(ValueError, match="exponent must be positive"):
            pda_demand(10.0, 1.0, e=math.nan)

    def test_vectorized_matches_scalar(self):
        ps = np.array([-1.0, 3.0, 19.0, 22.0])
        vec = pda_demand(ps, 0.01)
        for p, v in zip(ps, vec):
            assert v == pda_demand(float(p), 0.01)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        cases=st.lists(
            st.tuples(
                # pressure in units of pf - p0 above p0: 0 is p0 and 1 is pf
                st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-1.5, 2.5)),
                st.one_of(st.floats(0.0, 10.0), st.integers(0, 10)),  # desired demand
                st.floats(-10.0, 10.0),  # p0
                st.floats(1e-3, 50.0),  # pf - p0
                st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.1, 8.0)),  # exponent
            ),
            min_size=1, max_size=20,
        )
    )
    def test_scalar_path_matches_numpy_path(self, cases):
        # two scalars take the plain-float path and 0-d arrays numpy's; the
        # served demand of a solve is built from scalars, so they must agree
        # to the bit (n-d arrays may round the power differently)
        for x, desired, p0, span, e in cases:
            pressure, pf = p0 + x * span, p0 + span
            scalar = pda_demand(pressure, desired, p0, pf, e)
            assert type(scalar) is float
            assert scalar == float(pda_demand(np.array(pressure), np.array(desired), p0, pf, e))
            if pressure <= p0:
                assert scalar == 0.0
            elif pressure >= pf:
                assert scalar == desired


class TestTriangleNetwork:
    def test_frozen_oracle_is_reproducible(self):
        h1, h2, *_ = _triangle_oracle()
        assert h1 == pytest.approx(TRIANGLE_HEADS["J1"], abs=1e-9)
        assert h2 == pytest.approx(TRIANGLE_HEADS["J2"], abs=1e-9)

    def test_solver_matches_oracle(self, triangle_net):
        state = solve_hydraulics(triangle_net, {}, 60.0, 60.0)[-1]
        for lid, q in TRIANGLE_FLOWS.items():
            assert state.link_flow[lid] == pytest.approx(q, abs=1e-6)
        for nid, h in TRIANGLE_HEADS.items():
            assert state.node_head[nid] == pytest.approx(h, abs=1e-6)
        for nid, d in TRIANGLE_DEMANDS.items():
            assert state.actual_demand[nid] == pytest.approx(d, abs=1e-6)

    def test_mass_balance_at_junctions(self, triangle_net):
        state = solve_hydraulics(triangle_net, {}, 60.0, 60.0)[-1]
        q = state.link_flow
        balance_j1 = q["P-R-1"] - q["P-1-2"] - state.actual_demand["J1"]
        balance_j2 = q["P-R-2"] + q["P-1-2"] - state.actual_demand["J2"]
        assert abs(balance_j1) < 1e-6
        assert abs(balance_j2) < 1e-6

    def test_reservoir_supplies_total_demand(self, triangle_net):
        state = solve_hydraulics(triangle_net, {}, 60.0, 60.0)[-1]
        total_out = state.link_flow["P-R-1"] + state.link_flow["P-R-2"]
        total_demand = sum(state.actual_demand.values())
        assert total_out == pytest.approx(total_demand, abs=1e-6)

    def test_high_head_gives_full_service(self):
        comps = [
            Component("WR", WATER, "reservoir", (0.0, 0.0), {"head": 60.0}),
            Component("J1", WATER, "demand_node", (800.0, 0.0),
                      {"base_demand": 0.02, "elevation": 0.0}),
            Component("P1", WATER, "pipe", (0, 0),
                      {"length": 800.0, "diameter": 0.3, "roughness": 120.0}, ends=("WR", "J1")),
        ]
        net = IntegratedNetwork(comps, [])
        state = solve_hydraulics(net, {}, 60.0, 60.0)[-1]
        assert state.actual_demand["J1"] == pytest.approx(0.02, abs=1e-9)
        assert state.node_pressure["J1"] > 20.0


class TestTankDynamics:
    @pytest.fixture()
    def tank_net(self):
        comps = [
            Component("WT", WATER, "tank", (0.0, 0.0),
                      {"elevation": 10.0, "area": 2.0, "min_level": 0.0,
                       "max_level": 2.0, "init_level": 1.0}),
            Component("J1", WATER, "demand_node", (100.0, 0.0),
                      {"base_demand": 0.05, "elevation": 0.0}),
            Component("P1", WATER, "pipe", (0, 0),
                      {"length": 100.0, "diameter": 0.25, "roughness": 120.0}, ends=("WT", "J1")),
        ]
        return IntegratedNetwork(comps, [])

    def test_level_integrates_inflow(self, tank_net):
        states = solve_hydraulics(tank_net, {}, 600.0, 60.0)
        for prev, cur in zip(states, states[1:]):
            dt = cur.time - prev.time
            expected = prev.tank_level["WT"] + prev.tank_inflow["WT"] * dt / 2.0
            expected = min(max(expected, 0.0), 2.0)
            assert cur.tank_level["WT"] == pytest.approx(expected, abs=1e-12)

    def test_drains_and_runs_dry(self, tank_net):
        # 11 m of head serves ~0.037 m3/s; 2 m2 * 1 m drains in ~54 s/cm...
        # after an hour the tank must be empty and flagged dry.
        states = solve_hydraulics(tank_net, {}, 3600.0, 60.0)
        last = states[-1]
        assert last.tank_level["WT"] == pytest.approx(0.0, abs=1e-9)
        assert "WT" in last.dry_tanks
        assert last.actual_demand["J1"] == pytest.approx(0.0, abs=1e-9)
        levels = [s.tank_level["WT"] for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(levels, levels[1:]))

    def test_frozen_only_when_advance_is_the_identity(self, tank_net):
        sim = WaterSimulator(tank_net)
        state = sim.solve(0.0)
        assert state.tank_inflow["WT"] < -1e-9 and not sim.is_frozen()
        # however small, an inflow moves a level inside its bounds
        state.tank_inflow["WT"] = -1e-10
        assert not sim.is_frozen()
        state.tank_inflow["WT"] = 0.0
        assert sim.is_frozen()
        sim.advance(60.0)
        assert sim.tank_level == {"WT": 1.0} and sim.is_frozen()
        # however little a level moved since its solve, the solve is stale
        sim.tank_level["WT"] += 1e-13
        assert not sim.is_frozen()
        # a level above its bound is clipped by the next step
        sim.tank_level["WT"] = 3.0
        sim.solve(0.0).tank_inflow["WT"] = 0.0
        assert not sim.is_frozen()
        sim.advance(60.0)
        assert sim.tank_level == {"WT": 2.0}
        # an inflow against the bound a level sits at keeps it there; one
        # away from that bound moves it
        for level, push in ((2.0, 1e-10), (0.0, -1e-10)):
            sim.tank_level["WT"] = level
            state = sim.solve(0.0)
            state.tank_inflow["WT"] = push
            assert sim.is_frozen()
            sim.advance(60.0)
            assert sim.tank_level == {"WT": level} and sim.is_frozen()
            state.tank_inflow["WT"] = -push
            assert not sim.is_frozen()

    @pytest.mark.parametrize("case", ["testbed", "drain", "failed_pump"])
    def test_frozen_minutes_repeat_the_stepped_states(self, monkeypatch, net, tank_net, case):
        model, statuses = {
            "testbed": (net, {}),
            "drain": (tank_net, {}),  # frozen once the tank runs dry
            "failed_pump": (net, {"WPU1": "failed"}),
        }[case]
        jumped = solve_hydraulics(model, statuses, 3600.0, 60.0)
        monkeypatch.setattr(WaterSimulator, "is_frozen", lambda sim: False)
        stepped = solve_hydraulics(model, statuses, 3600.0, 60.0)
        assert len(jumped) == len(stepped) == 61
        kept = [f for f in vars(jumped[0]) if f not in ("residual", "iterations")]
        for got, want in zip(jumped, stepped):
            assert {f: getattr(got, f) for f in kept} == {f: getattr(want, f) for f in kept}
        for prev, cur in zip(jumped, jumped[1:]):
            assert all(
                getattr(cur, f) is not getattr(prev, f)
                for f in kept
                if isinstance(getattr(cur, f), (dict, list))
            )

    def test_undisrupted_testbed_hour_solves_once(self, monkeypatch, net):
        calls = []
        solve = WaterSimulator.solve

        def counted(sim, *args, **kwargs):
            calls.append(args)
            return solve(sim, *args, **kwargs)

        monkeypatch.setattr(WaterSimulator, "solve", counted)
        states = solve_hydraulics(net, {}, 3600.0, 60.0)
        assert len(calls) == 1
        assert [s.time for s in states] == [60.0 * k for k in range(61)]
        assert {s.iterations for s in states} == {states[0].iterations}


class TestFailuresAndLeaks:
    def test_leaking_pipe_discharges(self, triangle_net):
        state = solve_hydraulics(triangle_net, {"P-R-1": "failed"}, 60.0, 60.0)[-1]
        assert state.leak_discharge.get("P-R-1", 0.0) > 0.0
        # the leak steals supply: served demand drops versus the intact run
        intact = solve_hydraulics(triangle_net, {}, 60.0, 60.0)[-1]
        total_leaky = sum(state.actual_demand.values())
        total_intact = sum(intact.actual_demand.values())
        assert total_leaky < total_intact

    def test_under_repair_behaves_like_failed(self, triangle_net):
        failed = solve_hydraulics(triangle_net, {"P-R-1": "failed"}, 60.0, 60.0)[-1]
        repairing = solve_hydraulics(triangle_net, {"P-R-1": "under_repair"}, 60.0, 60.0)[-1]
        assert repairing.actual_demand["J1"] == pytest.approx(failed.actual_demand["J1"], abs=1e-9)

    def test_repaired_restores_function(self, triangle_net):
        repaired = solve_hydraulics(triangle_net, {"P-R-1": "repaired"}, 60.0, 60.0)[-1]
        for lid, q in TRIANGLE_FLOWS.items():
            assert repaired.link_flow[lid] == pytest.approx(q, abs=1e-6)

    def test_isolated_group_goes_dead(self):
        comps = [
            Component("WR", WATER, "reservoir", (0.0, 0.0), {"head": 30.0}),
            Component("J1", WATER, "demand_node", (100.0, 0.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component("J2", WATER, "demand_node", (200.0, 0.0),
                      {"base_demand": 0.01, "elevation": 0.0}),
            Component("P1", WATER, "pipe", (0, 0),
                      {"length": 100.0, "diameter": 0.2, "roughness": 120.0}, ends=("WR", "J1")),
            Component("P2", WATER, "pipe", (0, 0),
                      {"length": 100.0, "diameter": 0.2, "roughness": 120.0}, ends=("J1", "J2")),
        ]
        net = IntegratedNetwork(comps, [])
        # cutting P2 isolates J2 with no source: zero demand there, J1 unaffected
        state = solve_hydraulics(net, {"P2": "failed"}, 60.0, 60.0, forced_off=None)[-1]
        assert state.actual_demand["J2"] < 0.01
        assert state.actual_demand["J1"] > 0.0

    def test_dead_junction_serves_nothing_whatever_p0(self):
        # with the pump off, J has no source; at p0 = -5 m its pinned zero
        # pressure would read as 0.004472 m3/s served while no pipe feeds it
        comps = [
            Component("R", WATER, "reservoir", (0.0, 0.0), {"head": 5.0}),
            Component("J", WATER, "demand_node", (100.0, 0.0), {"base_demand": 0.01, "elevation": 0.0}),
            Component("PU", WATER, "pump", (0, 0), {"head_gain": 10.0, "qmax": 0.1}, ends=("R", "J")),
        ]
        sim = WaterSimulator(IntegratedNetwork(comps, []), HydraulicParams(p0=-5.0), forced_off={"PU"})
        state = sim.solve()
        assert state.link_flow["PU"] == 0.0
        assert state.actual_demand["J"] == 0.0

    def test_forced_off_pump_cuts_downstream(self, net):
        served = solve_hydraulics(net, {}, 60.0, 60.0)[-1]
        cut = solve_hydraulics(net, {}, 60.0, 60.0, forced_off={"WPU1"})[-1]
        assert sum(cut.actual_demand.values()) < sum(served.actual_demand.values())


class TestTestbedBaseline:
    def test_full_service_at_steady_state(self, net):
        states = solve_hydraulics(net, {}, 3600.0, 60.0)
        last = states[-1]
        for cid, served in last.actual_demand.items():
            assert served == pytest.approx(last.desired_demand[cid], rel=1e-6), cid
        assert last.residual < 1e-6

    def test_served_demand_is_the_scalar_closed_form(self, net):
        # ten minutes after the pump fails the draining tank leaves every
        # consumer in the partial band; served demand is the closed form
        # evaluated per node on scalars, bit for bit, because numpy's
        # array power can round differently in the last bit
        prm = HydraulicParams()
        state = solve_hydraulics(net, {"WPU1": "failed"}, 600.0, 600.0)[-1]
        partial = [n for n, v in state.actual_demand.items() if 0.0 < v < state.desired_demand[n]]
        assert len(partial) >= 2
        for nid, served in state.actual_demand.items():
            want = pda_demand(state.node_pressure[nid], state.desired_demand[nid], prm.p0, prm.pf, prm.e)
            assert served == float(want), nid

    def test_params_override(self, triangle_net):
        # with pf lowered to 10 m both junctions sit above the full-service
        # threshold and demand is met exactly
        params = HydraulicParams(pf=10.0)
        state = solve_hydraulics(triangle_net, {}, 60.0, 60.0, params=params)[-1]
        assert state.actual_demand["J1"] == pytest.approx(0.02, abs=1e-9)
        assert state.actual_demand["J2"] == pytest.approx(0.015, abs=1e-9)


class TestParams:
    @pytest.mark.parametrize(
        "field, bad, good",
        [("pf", 0.0, 1e-9), ("e", 0.0, 1e-9), ("tol", 0.0, 1e-300), ("max_iterations", 0, 1)],
    )
    def test_each_field_is_checked(self, field, bad, good):
        # pf is checked against the default p0 = 0
        with pytest.raises(ValueError):
            HydraulicParams(**{field: bad})
        with pytest.raises(ValueError):
            HydraulicParams(**{field: -1 if field == "max_iterations" else math.nan})
        assert getattr(HydraulicParams(**{field: good}), field) == good

    def test_pf_is_checked_against_p0(self):
        with pytest.raises(ValueError):
            HydraulicParams(p0=25.0)
        assert HydraulicParams(p0=25.0, pf=30.0).pf == 30.0


def _pda_slope(p, desired, p0, pf, e):
    """d(demand)/d(pressure), capped near the lower threshold where the
    analytic slope blows up; used only inside the Newton Jacobian."""
    u = np.clip((np.asarray(p, dtype=float) - p0) / (pf - p0), 0.0, 1.0)
    inside = (u > 0.0) & (u < 1.0)
    u_floor = np.maximum(u, 1e-4)
    slope = desired / (e * (pf - p0)) * u_floor ** (1.0 / e - 1.0)
    return np.where(inside, slope, 0.0)


class _ArrayCallSimulator(WaterSimulator):
    """Oracle: the Newton solve as it was before its constants were
    compiled with the topology, one numpy call per term, with its four
    helpers and ``_pda_slope``, verbatim."""

    def _headloss(self, q, sys):
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

    def _headloss_slope(self, q, sys):
        prm, c1, c2 = self.params, sys.c1, sys.c2
        absq = np.abs(q)
        dhl_pipe = np.where(
            absq < prm.q_smooth,
            c1 * prm.q_smooth ** (_HW_EXP - 1.0),
            _HW_EXP * c1 * absq ** (_HW_EXP - 1.0),
        )
        dgain = -2.0 * c1 * absq / c2 ** 2
        return np.maximum(np.where(sys.is_pipe, dhl_pipe, -dgain), prm.q_reg)

    def _demand(self, h, sys):
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

    def _demand_slope(self, h, sys):
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

    def _solve_system(self, sys, fixed):
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
        iters = relaxed = 0
        checkpoint = (q, h, F, norm)
        for iters in range(1, prm.max_iterations + 1):
            if norm < prm.tol:
                break
            # the bounded full step's watchdog: keep the least residual
            # met, and go back to it once the full steps are spent
            if norm < checkpoint[3]:
                checkpoint = (q, h, F, norm)
            elif relaxed == hydraulics._RELAXED_STEPS and norm > checkpoint[3]:
                q, h, F, norm = checkpoint
                relaxed += 1
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
                if lam == 1.0 and relaxed < hydraulics._RELAXED_STEPS and nn < hydraulics._RELAXED_GROWTH * norm:
                    relaxed += 1
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HydraulicError as exc:
        return str(exc)


def _kernel_outcome(sim, solve_system, outflow, closed):
    sys = sim._system(closed)
    got = _outcome(solve_system, sim, sys, sys.fixed_heads(sim.tank_level))
    if isinstance(got, str):
        return got
    q, h, norm, iters = got
    return q.tobytes(), h.tobytes(), norm, iters, outflow(sim, sys, h).tobytes()


TESTBED_LINKS = ["WPU1", "WP-W1-W2", "WP-W2-W5", "WP-W4-W7", "WP-W6-W9", "WP-W8-W9", "WP-W9-WT1"]
TRIANGLE_LINKS = ["P-R-1", "P-R-2", "P-1-2"]


class TestCompiledKernel:
    """The compiled Newton kernel equals the array-call solve it replaced,
    to the bit, in (q, h, norm, iterations) and in every full state. A
    kernel that builds the inflow as bincount(to) - bincount(from), or
    that reorders one product, fails here."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        triangle=st.booleans(),
        failed=st.sets(st.integers(0, len(TESTBED_LINKS) - 1), max_size=4),
        forced=st.booleans(),
        level=st.one_of(st.sampled_from([0.0, 5.0]), st.floats(0.0, 5.0)),
        pf=st.sampled_from([20.0, 12.0]),
        wide=st.booleans(),
    )
    def test_equals_the_array_call_solve(self, net, triangle_net, triangle, failed, forced, level, pf, wide):
        model = triangle_net if triangle else net
        links = TRIANGLE_LINKS if triangle else TESTBED_LINKS
        statuses = {links[k % len(links)]: "failed" for k in failed}
        forced_off = {"WPU1"} if forced and not triangle else set()
        # wide smoothing puts many flows and leak pressures on the linear
        # segments, which the default thresholds leave to rare iterates
        params = HydraulicParams(pf=pf, q_smooth=0.03, p_smooth=8.0) if wide else HydraulicParams(pf=pf)
        new = WaterSimulator(model, params, forced_off)
        old = _ArrayCallSimulator(model, params, forced_off)
        for sim in (new, old):
            sim.set_statuses(statuses)
            if "WT1" in sim.tank_level:
                sim.tank_level["WT1"] = level
        # the kernel itself, cold and with every tank closed, then whole
        # solves (tank-closure rounds included) stepped through three minutes
        for closed in (set(), set(new.tank_level)):
            assert _kernel_outcome(
                new, WaterSimulator._solve_system, lambda sim, sys, h: sys.demand(h)[0], closed
            ) == _kernel_outcome(
                old, _ArrayCallSimulator._solve_system, lambda sim, sys, h: sim._demand(h, sys), closed
            )
        for k in range(3):
            got, want = _outcome(new.solve, 60.0 * k), _outcome(old.solve, 60.0 * k)
            assert got == want
            if isinstance(got, str):
                break
            assert new._warm_h == old._warm_h and new._warm_q == old._warm_q
            new.advance(60.0)
            old.advance(60.0)
            assert new.tank_level == old.tank_level

    @pytest.mark.parametrize(
        "statuses, forced_off, level",
        [
            ({"WP-W1-W2": "failed", "WP-W6-W9": "failed"}, set(), 2.5),  # two leak nodes
            ({"WPU1": "failed"}, set(), 0.0),  # empty tank, no pump: every junction dead
            ({}, {"WPU1"}, 5.0),
            ({}, set(), 5.0),  # full tank: the filling tank closes
            ({"WP-W9-WT1": "failed"}, set(), 0.0),
        ],
    )
    def test_testbed_cases(self, net, statuses, forced_off, level):
        states = []
        for cls in (WaterSimulator, _ArrayCallSimulator):
            sim = cls(net, forced_off=forced_off)
            sim.set_statuses(statuses)
            sim.tank_level["WT1"] = level
            run = []
            for k in range(5):
                run.append(sim.solve(60.0 * k))
                sim.advance(60.0)
            states.append(run)
        assert states[0] == states[1]


def _replay_ledger(sim, ledger):
    """Solve and step one minute at a time through ``(statuses, minutes)``
    pairs; returns the full states."""
    states = []
    for statuses, minutes in ledger:
        sim.set_statuses(statuses)
        for _ in range(minutes):
            states.append(sim.solve(60.0 * len(states)))
            sim.advance(60.0)
    return states


class TestNewtonTable:
    """A solve found in the Newton table returns, to the bit, what the
    Newton iteration computes from the same inputs; any other input runs
    it. Dropping the start heads or the fixed heads from the key fails
    here."""

    FAIL_PIPE = {"WP-W1-W2": "failed"}
    FAIL_BOTH = {"WP-W1-W2": "failed", "WP-W6-W9": "failed"}

    def test_shared_table_equals_fresh_solves(self, monkeypatch):
        results: dict[WaterSimulator, list] = {}
        newton_runs = []
        solve_system, newton = WaterSimulator._solve_system, WaterSimulator._newton

        def recording(sim, sys, fixed):
            got = solve_system(sim, sys, fixed)
            results.setdefault(sim, []).append((got[0].tobytes(), got[1].tobytes(), *got[2:]))
            return got

        monkeypatch.setattr(WaterSimulator, "_solve_system", recording)
        monkeypatch.setattr(WaterSimulator, "_newton", staticmethod(lambda *a: newton_runs.append(1) or newton(*a)))

        net = build_simple_testbed()
        first = WaterSimulator(net)
        _replay_ledger(first, [({}, 2), (self.FAIL_PIPE, 8), (self.FAIL_BOTH, 4)])
        # the same failure three minutes later, from the same frozen
        # undisrupted state, then a second failure the first ledger lacks
        ledger = [({}, 5), (self.FAIL_PIPE, 6), ({**self.FAIL_PIPE, "WPU1": "failed"}, 4)]
        # a network that keeps nothing gives each solve a fresh table
        shared, fresh = WaterSimulator(net), WaterSimulator(_unmemoized())
        del newton_runs[:]
        got = _replay_ledger(shared, ledger)
        runs = len(newton_runs)
        assert got == _replay_ledger(fresh, ledger)
        assert results[shared] == results[fresh]
        # the undisrupted minutes and the shifted failure's hit; the
        # second failure, new to the table, runs Newton
        assert len(results[shared]) - runs >= 11 and runs >= 1

    def test_any_changed_input_misses(self, monkeypatch):
        newton_runs = []
        newton = WaterSimulator._newton
        monkeypatch.setattr(WaterSimulator, "_newton", staticmethod(lambda *a: newton_runs.append(1) or newton(*a)))
        net = build_simple_testbed()
        sim = WaterSimulator(net)
        sim.set_statuses(self.FAIL_PIPE)
        sys = sim._system(set())
        fixed = sys.fixed_heads(sim.tank_level)
        # a full warm start, so that the start vectors ignore the fixed heads
        sim._warm_h = dict(zip(sys.junction_ids, sys.junction_z + 15.0))
        sim._warm_q = dict.fromkeys(sys.link_ids, 0.02)
        base = sim._solve_system(sys, fixed)
        assert sim._solve_system(sys, list(fixed)) is base and len(newton_runs) == 1

        for k in range(len(fixed)):
            nudged = list(fixed)
            nudged[k] = float(np.nextafter(nudged[k], math.inf))
            sim._solve_system(sys, nudged)
            assert len(newton_runs) == 2 + k
        jid = sys.junction_ids[0]
        sim._warm_h = {**sim._warm_h, jid: float(np.nextafter(sim._warm_h[jid], 0.0))}
        sim._solve_system(sys, fixed)
        assert len(newton_runs) == 2 + len(fixed)
        lid = sys.link_ids[0]
        sim._warm_q = {**sim._warm_q, lid: float(np.nextafter(sim._warm_q[lid], 1.0))}
        sim._solve_system(sys, fixed)
        assert len(newton_runs) == 3 + len(fixed)
        # same arrays, start vectors and fixed heads; another topology
        other = WaterSimulator(net, HydraulicParams(pf=12.0))
        other.set_statuses(self.FAIL_PIPE)
        other_sys = other._system(set())
        assert len(other_sys.link_ids) == len(sys.link_ids) and other_sys is not sys
        other._warm_h, other._warm_q = sim._warm_h, sim._warm_q
        other._solve_system(other_sys, fixed)
        assert len(newton_runs) == 4 + len(fixed)

    def test_stored_arrays_are_read_only(self, net):
        sim = WaterSimulator(net)
        sys = sim._system(set())
        q, h, _, _ = sim._solve_system(sys, sys.fixed_heads(sim.tank_level))
        for stored in (q, h):
            with pytest.raises(ValueError):
                stored[0] = 0.0


class _Recorded:
    """A compiled system that records, for ``_newton``, the max-norm of
    each residual it evaluates and a marker (``None``) for each Newton
    step's Jacobian."""

    def __init__(self, sys):
        self._sys, self.events = sys, []

    def __getattr__(self, name):
        return getattr(self._sys, name)

    def residual(self, q, h, heads):
        F, terms = self._sys.residual(q, h, heads)
        self.events.append(float(np.abs(F).max()))
        return F, terms

    def jacobian_diagonal(self, terms):
        self.events.append(None)
        return self._sys.jacobian_diagonal(terms)

    @property
    def evaluations(self):
        return sum(e is not None for e in self.events)

    def relaxed_steps(self):
        """Newton steps that took the full step although it failed the
        Armijo test: a step that tried one point only and stopped short
        of the tolerance without cutting the residual max-norm."""
        steps = []
        for e in self.events[1:]:
            if e is None:
                steps.append([])
            else:
                steps[-1].append(e)
        tol = self._sys.params.tol
        norm, count = self.events[0], 0
        for trials in steps:
            if len(trials) == 1 and not (trials[0] < norm * (1.0 - 1e-4) or trials[0] < tol):
                count += 1
            # a step stops at the trial it takes, or after 16 at the least residual
            norm = trials[-1] if len(trials) < 16 else min(trials)
        return count


def _record_newton(monkeypatch, keep=lambda sys: True):
    """Wrap ``_newton`` so that each run on a system ``keep`` selects
    appends ``(recorded system, iterations, residual norm)``."""
    runs, newton = [], WaterSimulator._newton

    def recorded(sys, heads, q, h):
        if not keep(sys):
            return newton(sys, heads, q, h)
        rec = _Recorded(sys)
        got = newton(rec, heads, q, h)
        runs.append((rec, got[3], got[2]))
        return got

    monkeypatch.setattr(WaterSimulator, "_newton", staticmethod(recorded))
    return runs


WATER_LINKS = TESTBED_LINKS + ["WP-W2-W3", "WP-W4-W5", "WP-W5-W6", "WP-W7-W8", "WP-W1-W4", "WP-W3-W6"]


class TestBoundedFullStep:
    """The line search takes a full step that fails the Armijo test at
    most ``_RELAXED_STEPS`` times per Newton run, and only while the
    trial residual stays finite and below ``_RELAXED_GROWTH`` times the
    current one; a run whose full steps do not pay off returns to the
    least residual it met, and converges from there."""

    def test_tank_closure_resolves_are_short(self, monkeypatch, tmp_path):
        # the re-solves after a full tank closes run on systems with no
        # open tank: 11 Newton runs here, of which three took 56 steps and
        # 323 residual evaluations under the Armijo test alone
        from lifelinesim import cli

        runs = _record_newton(monkeypatch, keep=lambda sys: not sys.tank_links)
        assert cli.main([
            "batch", "--network", "builtin:simple", "--hazard", "random", "--count", "3",
            "--intensity", "random", "--strategy", "max_flow,centrality,zone", "--jobs", "1",
            "--seed", "108", "--scenarios", "4", "--out", str(tmp_path),
        ]) == 0
        assert len(runs) == 11
        for rec, iters, _ in runs:
            assert iters <= 25 and rec.evaluations <= 60
            assert rec.relaxed_steps() <= hydraulics._RELAXED_STEPS

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        link_states=st.lists(st.sampled_from(["ok", "failed", "forced"]), min_size=len(WATER_LINKS),
                             max_size=len(WATER_LINKS)),
        level=st.one_of(st.sampled_from([0.0, 5.0]), st.floats(0.0, 5.0)),
    )
    # unbounded by a return to the least residual, the full steps leave
    # this tank-closure re-solve stalling short of the tolerance
    @example(link_states=["ok"] * 9 + ["failed", "ok", "failed", "failed"], level=0.0)
    def test_every_testbed_solve_converges(self, link_states, level):
        net = build_simple_testbed()  # an example that hits the Newton table records no run
        tank = net.component("WT1").attrs
        assert (tank["min_level"], tank["max_level"]) == (0.0, 5.0)
        statuses = {lid: "failed" for lid, s in zip(WATER_LINKS, link_states) if s == "failed"}
        forced_off = {lid for lid, s in zip(WATER_LINKS, link_states) if s == "forced"}
        with pytest.MonkeyPatch.context() as monkeypatch:
            runs = _record_newton(monkeypatch)
            sim = WaterSimulator(net, forced_off=forced_off)
            sim.set_statuses(statuses)
            sim.tank_level["WT1"] = level
            # fifteen minutes, enough for the tank to fill or run dry
            for k in range(3):
                state = sim.solve(300.0 * k)
                assert state.residual < sim.params.tol
                sim.advance(300.0)
        assert runs
        for rec, _, norm in runs:
            assert norm < sim.params.tol
            assert rec.relaxed_steps() <= hydraulics._RELAXED_STEPS

    @pytest.mark.parametrize(
        "scale, taken",
        [(math.nan, False), (math.inf, False), (2.0, True), ("twice the bound", False)],
    )
    def test_full_step_residual_bound(self, net, scale, taken):
        """The first full step's residual reads ``scale`` times the start
        residual in one entry: a NaN, an infinity or a growth beyond
        ``_RELAXED_GROWTH`` makes the line search halve the step."""
        if scale == "twice the bound":
            scale = 2.0 * hydraulics._RELAXED_GROWTH
        sim = WaterSimulator(net)
        sys = sim._system(set())
        nj = len(sys.junction_ids)
        heads = np.empty(nj + len(sys.fixed_ids))
        heads[nj:] = sys.fixed_heads(sim.tank_level)
        q0, h0 = np.full(len(sys.link_ids), 0.01), sys.junction_z + 10.0

        class FullStep(_Recorded):
            def __init__(self, sys):
                super().__init__(sys)
                self.points = []

            def residual(self, q, h, heads):
                F, terms = self._sys.residual(q, h, heads)
                self.points.append(q.copy())
                if len(self.points) == 2:
                    F = F.copy()
                    F[0] = scale * self.events[0]
                self.events.append(float(np.abs(F).max()))
                return F, terms

        rec = FullStep(sys)
        _, _, norm, _ = WaterSimulator._newton(rec, heads, q0, h0)
        _, full, after = rec.points[:3]
        halved = np.allclose(after, q0 + 0.5 * (full - q0), rtol=0.0, atol=1e-12)
        assert halved is not taken
        assert rec.relaxed_steps() >= int(taken)
        if not taken:
            assert norm < sys.params.tol
