"""Congestion-aware traffic assignment and what a road cut does to it.

Finds the user equilibrium for the testbed's commuter demand, then
fails one road link and shows flows rerouting and travel times rising —
the same travel times repair crews face after a disaster.
"""

from lifelinesim import assign_traffic, build_simple_testbed
from lifelinesim.traffic import road_distances


def summarize(state, label, top=5):
    print(f"\n=== {label} ===")
    print(f"converged in {state.iterations} iterations, "
          f"relative gap {state.relative_gap:.2e}")
    busiest = sorted(state.link_flow, key=state.link_flow.get, reverse=True)[:top]
    for lid in busiest:
        print(f"  {lid}: {state.link_flow[lid]:7.1f} veh/h "
              f"at {state.link_time[lid]:6.1f} s")
    if state.unreachable:
        print(f"  unreachable zone pairs: {state.unreachable}")


def main():
    net = build_simple_testbed()

    intact = assign_traffic(net)
    summarize(intact, "intact network")

    cut = "TL-T4-T1"
    broken = assign_traffic(net, {cut: "failed"})
    summarize(broken, f"{cut} failed")

    print("\n=== crew travel time T5 -> T1 ===")
    for label, statuses, state in (("intact", {}, intact), (f"{cut} failed", {cut: "failed"}, broken)):
        t = road_distances(net, "T5", statuses, state.link_time)["T1"]
        print(f"  {label}: {t:.1f} s")


if __name__ == "__main__":
    main()
