"""Hazard footprints and seeded failure sampling.

Walks through the three event shapes (point, a fixed storm-track
polyline, random pick), prints per-component failure probabilities,
shows how often each uniformly drawn intensity comes up, and checks a
few thousand seeded draws against the probability model they are
supposed to follow.
"""

from collections import Counter

from lifelinesim import (
    HazardEvent,
    build_simple_testbed,
    failure_probability,
    sample_scenario,
)


def point_event(net):
    event = HazardEvent(kind="point", intensity="high", center=(600.0, 350.0), radius=700.0)
    print("=== point event, intensity high ===")
    print("most exposed components:")
    ranked = sorted(
        ((failure_probability(event, net, c.id), c.id) for c in net.hazard_eligible()),
        reverse=True,
    )
    for p, cid in ranked[:6]:
        print(f"  {cid}: p_fail {p:.3f}")
    scenario = sample_scenario(net, event, seed=42)
    print(f"seed 42 -> {len(scenario.failures)} failures: "
          f"{[f.component_id for f in scenario.failures]}")


def track_event(net):
    # a storm crossing the testbed from south-west to north-east
    track = ((0.0, 100.0), (400.0, 300.0), (800.0, 350.0), (1200.0, 600.0))
    event = HazardEvent(kind="track", intensity="extreme", track=track, offset=250.0)
    scenario = sample_scenario(net, event, seed=7)
    print(f"\n=== storm track ({len(track)} vertices), intensity extreme ===")
    print(f"seed 7 -> {len(scenario.failures)} failures, severities "
          f"{Counter(f.severity for f in scenario.failures)}")


def random_event(net):
    event = HazardEvent(kind="random", intensity="random", count=3)
    print("\n=== random 3-component event, intensity drawn uniformly ===")
    intensities = Counter(
        sample_scenario(net, event, seed=s).intensity for s in range(3000)
    )
    for level, n in sorted(intensities.items()):
        print(f"  intensity {level}: {n / 3000:.3f} of draws")


def frequency_check(net):
    event = HazardEvent(kind="point", intensity="moderate", center=(600.0, 350.0), radius=700.0)
    target = "WP-W2-W5"
    expected = failure_probability(event, net, target)
    n = 5000
    hits = sum(
        any(f.component_id == target for f in sample_scenario(net, event, seed=s).failures)
        for s in range(n)
    )
    print(f"\n=== empirical check over {n} seeded draws ===")
    print(f"{target}: model {expected:.4f}, observed {hits / n:.4f}")


def main():
    net = build_simple_testbed()
    point_event(net)
    track_event(net)
    random_event(net)
    frequency_check(net)


if __name__ == "__main__":
    main()
