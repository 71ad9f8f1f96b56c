"""Pressure-driven hydraulics: service degrades smoothly, not cliff-edge.

Shows the demand curve that decides how much water a node actually
receives at a given pressure, then solves the testbed's water network
intact and with a leaking main to compare served demand.
"""

from lifelinesim import build_simple_testbed, pda_demand, solve_hydraulics


def demand_curve():
    print("=== served fraction vs pressure (desired 1.0) ===")
    for p in (-5.0, 0.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0):
        print(f"  {p:6.1f} m -> {pda_demand(p, 1.0):.4f}")


def solve_and_summarize(net, statuses, label):
    state = solve_hydraulics(net, statuses, 3600.0, 60.0)[-1]
    served = sum(state.actual_demand.values())
    desired = sum(state.desired_demand.values())
    leaked = sum(state.leak_discharge.values())
    print(f"\n=== {label} (steady state after 1 h) ===")
    print(f"served {served * 1000:.2f} of {desired * 1000:.2f} L/s "
          f"({served / desired:.1%}), leak discharge {leaked * 1000:.2f} L/s")
    worst = sorted(state.actual_demand, key=state.actual_demand.get)[:3]
    for nid in worst:
        print(f"  lowest service {nid}: {state.actual_demand[nid] * 1000:.2f} L/s "
              f"at {state.node_pressure[nid]:.1f} m")
    if state.dry_tanks:
        print(f"  dry tanks: {state.dry_tanks}")
    return state


def main():
    demand_curve()
    net = build_simple_testbed()
    solve_and_summarize(net, {}, "intact network")
    solve_and_summarize(net, {"WP-W1-W2": "failed"}, "main from the pump leaking")


if __name__ == "__main__":
    main()
