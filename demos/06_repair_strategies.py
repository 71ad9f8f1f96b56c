"""Repair prioritization: four heuristics and the simulation-guided search.

Given one multi-failure scenario, prints the repair order each strategy
chooses and the crew schedule the best one produces, including how a
blocked road defers otherwise-ready work, and what a second crew on each
network does to the max_flow order's outage hours.
"""

from dataclasses import replace

from lifelinesim import (
    build_event_table,
    build_planning_context,
    build_simple_testbed,
    default_crews,
    make_weighted_eoh_evaluator,
    mpc_sequence,
    rank_components,
)
from lifelinesim.hazard import ComponentFailure, DisasterScenario, HazardEvent

FAILED = ("WP-W1-W2", "WP-W2-W5", "PL5", "TL-T4-T1")


def make_scenario():
    event = HazardEvent(kind="random", intensity="high", count=len(FAILED))
    failures = tuple(
        ComponentFailure(cid, 3600.0, "leak" if cid.startswith("WP") else "full")
        for cid in sorted(FAILED)
    )
    return DisasterScenario(event=event, failures=failures, seed=0, intensity="high")


def main():
    net = build_simple_testbed()
    scenario = make_scenario()
    crews = default_crews(net)
    failed = {f.component_id for f in scenario.failures}
    context = build_planning_context(net, crews, failed)

    print(f"failed components: {sorted(failed)}")
    print(f"crews garage at {crews[0].location}\n")

    print("=== repair orders by strategy ===")
    orders = {}
    for strategy in ("max_flow", "centrality", "crew_distance", "zone"):
        orders[strategy] = rank_components(net, failed, strategy, context)
        print(f"{strategy:>14}: {orders[strategy]}")

    evaluate = make_weighted_eoh_evaluator(net, scenario, crews=crews)
    completion = rank_components(net, failed, "max_flow", context)
    mpc_order = mpc_sequence(completion, horizon=2, evaluate=evaluate)
    print(f"{'mpc k=2':>14}: {mpc_order}")

    print("\n=== outage hours by strategy (same fixed horizon) ===")
    for strategy, order in orders.items():
        print(f"{strategy:>14}: {evaluate(order):.3f} h")
    print(f"{'mpc k=2':>14}: {evaluate(mpc_order):.3f} h")

    two_crews = crews + [replace(c, id=f"{c.network}-crew-2") for c in crews]
    evaluate_two = make_weighted_eoh_evaluator(net, scenario, crews=two_crews)
    print(f"{'max_flow':>14}: {evaluate_two(orders['max_flow']):.3f} h with two crews per network")

    print("\n=== crew schedule for the mpc order ===")
    table = build_event_table(net, scenario, mpc_order, crews=crews)
    for row in table.rows:
        crew = f"  [{row.crew_id}]" if row.crew_id else ""
        print(f"  t={row.time:9.1f}  {row.action:<12} {row.component_id}{crew}")


if __name__ == "__main__":
    main()
