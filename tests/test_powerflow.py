"""Dispatch oracles: load shedding under limits, islanding, motor status."""

import numpy as np
import pytest

from lifelinesim import powerflow
from lifelinesim.network import Component, IntegratedNetwork, POWER
from lifelinesim.powerflow import PowerFlowError, motor_operational, solve_power


class TestCapacityShedding:
    def test_served_50_shed_10_exact(self, shed_net):
        state = solve_power(shed_net, {})
        assert sum(state.served.values()) == pytest.approx(50.0, abs=1e-9)
        assert state.total_shed == pytest.approx(10.0, abs=1e-9)

    def test_shed_split_is_deterministic(self, shed_net):
        # the cheaper-to-keep consumer (first id alphabetically) is kept whole
        state = solve_power(shed_net, {})
        assert state.served["LD2"] == pytest.approx(30.0, abs=1e-9)
        assert state.served["LD3"] == pytest.approx(20.0, abs=1e-9)
        again = solve_power(shed_net, {})
        assert again.served == state.served

    def test_power_balance(self, shed_net):
        state = solve_power(shed_net, {})
        total_gen = sum(state.generation.values())
        assert total_gen == pytest.approx(sum(state.served.values()), abs=1e-9)
        assert abs(state.balance_residual) < 1e-9

    def test_line_limit_binding(self):
        comps = [
            Component("B1", POWER, "bus", (0.0, 0.0)),
            Component("B2", POWER, "bus", (100.0, 0.0)),
            Component("GX", POWER, "external_grid", (0.0, 10.0),
                      {"max_mw": 100.0, "cost": 40.0}, buses=("B1",)),
            Component("LN1", POWER, "line", (0, 0),
                      {"susceptance": 80.0, "limit_mw": 25.0}, ends=("B1", "B2")),
            Component("LD2", POWER, "load", (100.0, 10.0), {"demand_mw": 40.0}, buses=("B2",)),
        ]
        net = IntegratedNetwork(comps, [])
        state = solve_power(net, {})
        assert state.served["LD2"] == pytest.approx(25.0, abs=1e-9)
        assert abs(state.line_flow["LN1"]) <= 25.0 + 1e-9


    def test_served_round_off_below_zero_is_clipped(self, shed_net, monkeypatch):
        real_linprog = powerflow.linprog

        def linprog(*args, **kwargs):
            res = real_linprog(*args, **kwargs)
            res.x[-1] = -6.1e-11  # LD3's served load, as HiGHS once returned it
            return res

        monkeypatch.setattr(powerflow, "linprog", linprog)
        state = solve_power(shed_net, {})
        assert state.served["LD3"] == 0.0
        assert state.shed["LD3"] == 30.0
        assert min(state.served.values()) >= 0.0


class TestIslanding:
    def test_cut_line_sheds_island_fully(self, shed_net):
        state = solve_power(shed_net, {"LN2": "failed"})
        assert state.served["LD3"] == pytest.approx(0.0, abs=1e-12)
        assert state.shed["LD3"] == pytest.approx(30.0, abs=1e-12)
        assert state.served["LD2"] == pytest.approx(30.0, abs=1e-9)
        assert state.energized["B3"] is False
        assert state.energized["B2"] is True

    def test_under_repair_equals_failed(self, shed_net):
        a = solve_power(shed_net, {"LN2": "failed"})
        b = solve_power(shed_net, {"LN2": "under_repair"})
        assert a.served == b.served

    def test_no_source_sheds_everything(self, shed_net):
        state = solve_power(shed_net, {"LN1": "failed"})
        assert state.served["LD2"] == 0.0
        assert state.served["LD3"] == 0.0


def _three_island_net():
    """B1-B2-B3 fed by a 50 MW grid, with B3's generator forced off in the
    tests; B4 has only a forced-off generator; B5 feeds itself."""
    comps = [Component(b, POWER, "bus", (0.0, 0.0)) for b in ("B1", "B2", "B3", "B4", "B5")]
    comps += [
        Component("GX", POWER, "external_grid", (0.0, 10.0), {"max_mw": 50.0, "cost": 40.0}, buses=("B1",)),
        Component("G3", POWER, "generator", (0, 0), {"max_mw": 40.0, "cost": 10.0}, buses=("B3",)),
        Component("G4", POWER, "generator", (0, 0), {"max_mw": 40.0, "cost": 10.0}, buses=("B4",)),
        Component("G5", POWER, "generator", (0, 0), {"max_mw": 10.0, "cost": 10.0}, buses=("B5",)),
        Component("LN1", POWER, "line", (0, 0), {"susceptance": 80.0, "limit_mw": 100.0}, ends=("B1", "B2")),
        Component("LN2", POWER, "line", (0, 0), {"susceptance": 80.0, "limit_mw": 100.0}, ends=("B2", "B3")),
    ]
    comps += [
        Component(f"LD{k}", POWER, "load", (0, 0), {"demand_mw": mw}, buses=(f"B{k}",))
        for k, mw in ((2, 30.0), (3, 30.0), (4, 10.0), (5, 5.0))
    ]
    return IntegratedNetwork(comps, [])


class TestIslandAudit:
    def test_energized_and_balance_with_clipped_service_and_forced_off_source(self, monkeypatch):
        real_linprog = powerflow.linprog

        def linprog(c, **kwargs):
            res = real_linprog(c, **kwargs)
            for k in np.flatnonzero(np.asarray(c) < 0):  # served entries
                hi = kwargs["bounds"][k][1]
                if res.x[k] > hi - 1e-9:
                    res.x[k] = hi + 6.1e-11  # HiGHS overshooting the demand
            return res

        monkeypatch.setattr(powerflow, "linprog", linprog)
        state = solve_power(_three_island_net(), {}, forced_off={"G3", "G4"})
        assert state.energized == {"B1": True, "B2": True, "B3": True, "B4": False, "B5": True}
        assert state.served["LD2"] == 30.0 and state.served["LD5"] == 5.0  # clipped to demand
        assert state.served["LD3"] == pytest.approx(20.0, abs=1e-9)
        assert state.served["LD4"] == 0.0
        assert state.generation["G3"] == state.generation["G4"] == 0.0
        assert state.balance_residual < 1e-9


class TestTestbedDispatch:
    def test_baseline_serves_all(self, net):
        state = solve_power(net, {})
        for cid, served in state.served.items():
            comp = net.component(cid)
            assert served == pytest.approx(comp.attrs["demand_mw"], abs=1e-9), cid
        assert state.total_shed == pytest.approx(0.0, abs=1e-9)

    def test_motor_feeder_flow_matches_motor_demand(self, net):
        # PL5 is the only path into the motor's bus
        state = solve_power(net, {})
        assert abs(state.line_flow["PL5"]) == pytest.approx(2.0, abs=1e-9)

    def test_flows_within_limits(self, net):
        state = solve_power(net, {})
        for comp in net.edges_of(POWER):
            limit = comp.attrs["limit_mw"]
            assert abs(state.line_flow[comp.id]) <= limit + 1e-9, comp.id

    def test_motor_operational_flags(self, net):
        healthy = solve_power(net, {})
        assert motor_operational(net, healthy, "PM1") is True
        cut = solve_power(net, {"PL5": "failed"})
        assert motor_operational(net, cut, "PM1") is False

    def test_transformer_failure_sheds_its_feeder(self, net):
        # PT1 feeds B3 -> B5/B6 (loads PLD1, PLD2); the feeders are radial
        state = solve_power(net, {"PT1": "failed"})
        assert state.served["PLD1"] == 0.0
        assert state.served["PLD2"] == 0.0
        assert state.served["PLD3"] == pytest.approx(25.0, abs=1e-9)
        assert motor_operational(net, state, "PM1") is True

    def test_forced_off_generator_equivalent(self, net):
        # forcing the only grid source off blacks out everything
        state = solve_power(net, {}, forced_off={"PG1"})
        assert sum(state.served.values()) == pytest.approx(0.0, abs=1e-12)

    def test_grids_sharing_a_bus_form_one_supernode(self, net):
        # PG2 shares B2 with PG1, so B1, B2 and B4 are one supernode that
        # both grids feed
        pg2 = Component("PG2", POWER, "external_grid", (1000.0, 2400.0),
                        {"max_mw": 1.0, "cost": 10.0}, buses=("B2", "B4"))
        two = IntegratedNetwork([*net.components, pg2], net.dependencies,
                                od_matrix=net.od_matrix, zone_priority=net.zone_priority)
        state = solve_power(two, {})
        assert state.total_shed == pytest.approx(0.0, abs=1e-9)
        assert state.served["PLD3"] == pytest.approx(25.0, abs=1e-9)
        assert state.served["PM1"] == pytest.approx(2.0, abs=1e-9)
        assert all(state.energized.values())

    def test_unknown_motor_raises(self, net):
        state = solve_power(net, {})
        with pytest.raises((PowerFlowError, KeyError)):
            motor_operational(net, state, "NOPE")
