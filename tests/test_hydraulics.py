"""Hydraulic solver oracles: PDA closed form, triangle network, tanks, leaks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from lifelinesim.hydraulics import (
    HydraulicParams,
    WaterSimulator,
    hazen_williams_r,
    pda_demand,
    solve_hydraulics,
)
from lifelinesim.network import Component, IntegratedNetwork, WATER

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

_HW_EXP = 1.852


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
        # an inflow below the stationary threshold still moves the level
        state.tank_inflow["WT"] = -1e-10
        assert sim.is_stationary() and not sim.is_frozen()
        state.tank_inflow["WT"] = 0.0
        assert sim.is_frozen()
        sim.advance(60.0)
        assert sim.tank_level == {"WT": 1.0} and sim.is_frozen()
        # a level above its bound is clipped by the next step
        sim.tank_level["WT"] = 3.0
        sim.solve(0.0).tank_inflow["WT"] = 0.0
        assert sim.is_stationary() and not sim.is_frozen()
        sim.advance(60.0)
        assert sim.tank_level == {"WT": 2.0}

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
