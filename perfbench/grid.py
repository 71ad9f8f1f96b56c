"""Generate the benchmark's 6x6 integrated grid by tiling the testbed.

The built-in testbed is a 3x3 block. This module lays 2x2 copies of that
block side by side and joins them into one network:

* traffic: one zone per intersection at the testbed's 1000 m spacing,
  two-way roads between neighbours with the testbed's link parameters;
  each tile keeps the testbed's two one-way restrictions and zone
  priorities. Every zone produces the testbed's per-zone trip total.
  ``trips="gravity"`` spreads it over the other zones in inverse
  proportion to distance; ``trips="even"`` spreads it evenly, as the
  testbed does. With the even spread most trips cross the whole grid,
  and the undisrupted assignment stops at the 500-iteration Frank-Wolfe
  cap, so every run fails: the known defect that the benchmark keeps
  visible with one item on that grid.
* water: one demand node per zone with the testbed's demand. Pipes join
  neighbours, each tile dropping the testbed's missing pipe. One
  reservoir, pump and tank, as in the testbed, with pump capacity, tank
  area and pipe cross-section scaled by the zone count.
* power: each tile copies the testbed's two feeders (transformers,
  lines, loads) hanging off one shared external grid whose capacity is
  scaled by the zone count. The testbed's motor line and pump motor
  hang off the first tile, so motor->pump coupling is kept.

Nothing here is tuned to make scenarios succeed or fail.
"""

from __future__ import annotations

import math

from lifelinesim import testbed as tb
from lifelinesim.network import (
    Component,
    Dependency,
    IntegratedNetwork,
    POWER,
    TRAFFIC,
    WATER,
    NetworkValidationError,
    validate_network,
)

TILE = 3  # the testbed is a 3x3 block of zones
TILES = 2  # tiles per side: a 6x6 grid of zones
# testbed zone priorities by position inside a tile (row, col)
_TILE_PRIORITY = {(0, 1): 2, (1, 0): 2, (1, 2): 2, (2, 1): 2, (1, 1): 3}
# testbed feeder layout, bus positions relative to the tile origin
_TILE_BUSES = {
    "B3": (200.0, 2000.0),
    "B4": (1800.0, 2000.0),
    "B5": (0.0, 1000.0),
    "B6": (-60.0, 50.0),
    "B7": (1940.0, 1050.0),
    "B8": (1940.0, 50.0),
}
_TILE_BRANCHES = (
    ("PT1", "transformer", "B1", "B3", 60.0),
    ("PT2", "transformer", "B2", "B4", 60.0),
    ("PL1", "line", "B3", "B5", 50.0),
    ("PL2", "line", "B5", "B6", 30.0),
    ("PL3", "line", "B4", "B7", 40.0),
    ("PL4", "line", "B7", "B8", 20.0),
)
_TILE_LOADS = (("PLD1", "B5", 20.0), ("PLD2", "B6", 15.0), ("PLD3", "B7", 25.0))


def build_grid(trips: str) -> IntegratedNetwork:
    """Deterministically build and validate the 6x6 network; ``trips`` is
    ``"gravity"`` or ``"even"``."""
    side = TILE * TILES
    n_zones = side * side
    scale = n_zones / (TILE * TILE)
    span = (side - 1) * tb.GRID_SPACING

    def zid(r: int, c: int) -> str:
        return f"T{r * side + c + 1}"

    comps: list[Component] = []

    # --- traffic ---------------------------------------------------------
    zones = {zid(r, c): (c * tb.GRID_SPACING, r * tb.GRID_SPACING) for r in range(side) for c in range(side)}
    for z, xy in zones.items():
        comps.append(Component(z, TRAFFIC, "zone_node", xy))
    pairs = [((r, c), (r, c + 1)) for r in range(side) for c in range(side - 1)]
    pairs += [((r, c), (r + 1, c)) for r in range(side - 1) for c in range(side)]

    def local(rc):
        return f"{(rc[0] % TILE) * TILE + rc[1] % TILE + 1}"

    def same_tile(a, b) -> bool:
        return a[0] // TILE == b[0] // TILE and a[1] // TILE == b[1] // TILE

    one_way_dropped = {(f"T{a}", f"T{b}") for a, b in (("1", "2"), ("9", "8"))}
    for a, b in pairs:
        for frm, to in ((a, b), (b, a)):
            if same_tile(frm, to) and (f"T{local(frm)}", f"T{local(to)}") in one_way_dropped:
                continue
            comps.append(
                Component(
                    f"TL-{zid(*frm)}-{zid(*to)}",
                    TRAFFIC,
                    "road_link",
                    (0.0, 0.0),
                    {"free_flow_time": tb.ROAD_FREE_FLOW_TIME, "capacity": tb.ROAD_CAPACITY},
                    ends=(zid(*frm), zid(*to)),
                )
            )
    # gravity: a zone's trips go to each other zone in inverse proportion
    # to the straight-line distance between them; even: in equal shares
    production = tb.OD_DEMAND * (TILE * TILE - 1)
    od = {}
    for o, xy in zones.items():
        weight = {d: 1.0 / math.dist(xy, dxy) if trips == "gravity" else 1.0
                  for d, dxy in zones.items() if d != o}
        total = sum(weight.values())
        od[o] = {d: production * w / total for d, w in weight.items()}
    priority = {
        zid(r, c): _TILE_PRIORITY.get((r % TILE, c % TILE), 1) for r in range(side) for c in range(side)
    }

    # --- water -----------------------------------------------------------
    def wid(rc) -> str:
        return "W" + zid(*rc)[1:]

    for r in range(side):
        for c in range(side):
            x, y = zones[zid(r, c)]
            comps.append(
                Component(wid((r, c)), WATER, "demand_node", (x + 60.0, y + 40.0),
                          {"base_demand": tb.NODE_DEMAND, "elevation": 0.0})
            )
    comps.append(Component("WR1", WATER, "reservoir", (-540.0, -360.0), {"head": tb.RESERVOIR_HEAD}))
    tank = dict(tb.TANK, area=tb.TANK["area"] * scale)
    comps.append(Component("WT1", WATER, "tank", (span + 60.0, span + 160.0), tank))
    comps.append(
        Component("WPU1", WATER, "pump", (0.0, 0.0),
                  {"head_gain": tb.PUMP_HEAD_GAIN, "qmax": tb.PUMP_QMAX * scale}, ends=("WR1", "W1"))
    )
    diameter = tb.PIPE_DIAMETER * math.sqrt(scale)  # cross-section grows with the zone count
    pipe_pairs = [
        (wid(a), wid(b))
        for a, b in pairs
        if not (same_tile(a, b) and (f"W{local(a)}", f"W{local(b)}") == tb._WATER_PIPE_DROPPED)
    ]
    pipe_pairs.append((wid((side - 1, side - 1)), "WT1"))
    for frm, to in pipe_pairs:
        length = 120.0 if to == "WT1" else tb.GRID_SPACING
        comps.append(
            Component(f"WP-{frm}-{to}", WATER, "pipe", (0.0, 0.0),
                      {"length": length, "diameter": diameter, "roughness": tb.PIPE_ROUGHNESS},
                      ends=(frm, to))
        )

    # --- power -----------------------------------------------------------
    top = span + 300.0
    comps.append(Component("B1", POWER, "bus", (span / 2 - 60.0, top)))
    comps.append(Component("B2", POWER, "bus", (span / 2 + 60.0, top)))
    comps.append(
        Component("PG1", POWER, "external_grid", (span / 2, top + 50.0),
                  {"max_mw": 200.0 * scale, "cost": 40.0}, buses=("B1", "B2"))
    )
    for tr in range(TILES):
        for tc in range(TILES):
            ox, oy = tc * TILE * tb.GRID_SPACING, tr * TILE * tb.GRID_SPACING

            def bus(name: str) -> str:
                return name if name in ("B1", "B2") else f"{name}-{tr}{tc}"

            for name, (x, y) in _TILE_BUSES.items():
                comps.append(Component(bus(name), POWER, "bus", (ox + x, oy + y)))
            for name, kind, frm, to, limit in _TILE_BRANCHES:
                comps.append(
                    Component(f"{name}-{tr}{tc}", POWER, kind, (0.0, 0.0),
                              {"susceptance": tb.LINE_SUSCEPTANCE, "limit_mw": limit},
                              ends=(bus(frm), bus(to)))
                )
            for name, at, mw in _TILE_LOADS:
                x, y = _TILE_BUSES[at]
                comps.append(
                    Component(f"{name}-{tr}{tc}", POWER, "load", (ox + x - 20.0, oy + y),
                              {"demand_mw": mw}, buses=(bus(at),))
                )
    comps.append(Component("B9", POWER, "bus", (-500.0, -320.0)))
    comps.append(
        Component("PL5", POWER, "line", (0.0, 0.0),
                  {"susceptance": tb.LINE_SUSCEPTANCE, "limit_mw": 10.0}, ends=("B8-00", "B9"))
    )
    comps.append(Component("PM1", POWER, "motor", (-520.0, -340.0), {"demand_mw": 2.0}, buses=("B9",)))

    net = IntegratedNetwork(
        comps, [Dependency("PM1", "WPU1", "motor_drives_pump")], od_matrix=od, zone_priority=priority
    )
    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    return net

