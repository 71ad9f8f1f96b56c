"""Typed model of coupled water, power, and road networks.

A single :class:`IntegratedNetwork` holds three physical networks plus
the cross-network dependencies between them. Components are immutable;
runtime operating state is carried separately as a ``component_statuses``
mapping so one validated network can back many concurrent simulations.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

WATER, POWER, TRAFFIC = "water", "power", "traffic"
NETWORKS = (WATER, POWER, TRAFFIC)

# operating statuses; 'repaired' is terminal and functionally in service
STATUS_OPERATIONAL = "operational"
STATUS_FAILED = "failed"
STATUS_UNDER_REPAIR = "under_repair"
STATUS_REPAIRED = "repaired"
STATUSES = (STATUS_OPERATIONAL, STATUS_FAILED, STATUS_UNDER_REPAIR, STATUS_REPAIRED)
IN_SERVICE = frozenset({STATUS_OPERATIONAL, STATUS_REPAIRED})

# legal forward transitions for a component over one scenario
_TRANSITIONS = {
    STATUS_OPERATIONAL: {STATUS_FAILED},
    STATUS_FAILED: {STATUS_UNDER_REPAIR},
    STATUS_UNDER_REPAIR: {STATUS_REPAIRED},
    STATUS_REPAIRED: set(),
}

NODE_KINDS = {
    WATER: {"demand_node", "tank", "reservoir"},
    POWER: {"bus"},
    TRAFFIC: {"zone_node"},
}
EDGE_KINDS = {
    WATER: {"pipe", "pump"},
    POWER: {"line", "transformer", "switch"},
    TRAFFIC: {"road_link"},
}
# power components attached to one or more buses rather than wired as edges
ATTACHED_KINDS = {"load", "motor", "generator", "external_grid"}

# components a hazard may fail directly
HAZARD_ELIGIBLE_KINDS = {"pipe", "line", "road_link"}

# attrs that must be strictly positive / merely non-negative, per kind
_POSITIVE_ATTRS = {
    "pipe": ("length", "diameter", "roughness"),
    "pump": ("head_gain", "qmax"),
    "tank": ("area",),
    "line": ("susceptance", "limit_mw"),
    "transformer": ("susceptance", "limit_mw"),
    "switch": ("susceptance", "limit_mw"),
    "external_grid": ("max_mw",),
    "generator": ("max_mw",),
    "road_link": ("free_flow_time", "capacity"),
}
_NONNEGATIVE_ATTRS = {
    "demand_node": ("base_demand",),
    "load": ("demand_mw",),
    "motor": ("demand_mw",),
}
_REQUIRED_ATTRS = {
    "demand_node": ("base_demand",),
    "tank": ("elevation", "area", "min_level", "max_level", "init_level"),
    "reservoir": ("head",),
    "pipe": ("length", "diameter", "roughness"),
    "pump": ("head_gain", "qmax"),
    "line": ("susceptance", "limit_mw"),
    "transformer": ("susceptance", "limit_mw"),
    "switch": ("susceptance", "limit_mw"),
    "load": ("demand_mw",),
    "motor": ("demand_mw",),
    "generator": ("max_mw", "cost"),
    "external_grid": ("max_mw", "cost"),
    "road_link": ("free_flow_time", "capacity"),
}
# attrs that must be a finite number when present: the required ones,
# which name every sign-checked one, and a demand node's elevation
_NUMERIC_ATTRS = {**_REQUIRED_ATTRS, "demand_node": ("base_demand", "elevation")}

# coupling kind -> (allowed source kinds, allowed target kinds); a pump
# stops when its motor is de-energized, a generator when its tank runs dry
DEPENDENCY_ENDS = {
    "motor_drives_pump": ({"motor"}, {"pump"}),
    "reservoir_feeds_generator": ({"tank"}, {"generator"}),
}
DEPENDENCY_KINDS = tuple(DEPENDENCY_ENDS)


class NetworkError(Exception):
    """Base error for model construction and file handling."""


class NetworkValidationError(NetworkError):
    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = "; ".join(f"{v.component_id or '<network>'}: {v.rule}: {v.message}" for v in violations[:8])
        more = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"{len(violations)} validation violation(s): {lines}{more}")


@dataclass(frozen=True)
class Component:
    """One physical asset. ``ends`` is set for edge kinds, ``buses`` for
    power components that hang off one or more buses."""

    id: str
    network: str
    kind: str
    location: tuple[float, float]
    attrs: dict = field(default_factory=dict)
    ends: tuple[str, str] | None = None
    buses: tuple[str, ...] | None = None
    status: str = STATUS_OPERATIONAL

    @property
    def is_edge(self) -> bool:
        return self.kind in EDGE_KINDS.get(self.network, ())


@dataclass(frozen=True)
class Dependency:
    """Directed cross-network coupling, source sustains target."""

    source_id: str
    target_id: str
    kind: str


@dataclass(frozen=True)
class Violation:
    component_id: str
    rule: str
    message: str


def check_transition(old: str, new: str) -> None:
    """Raise unless old -> new is a legal status transition."""
    if new not in _TRANSITIONS.get(old, ()):  # pragma: no branch
        if old not in _TRANSITIONS:
            raise ValueError(f"unknown status {old!r}")
        raise ValueError(f"illegal status transition {old!r} -> {new!r}")


class IntegratedNetwork:
    """Immutable container for the three networks and their couplings."""

    def __init__(
        self,
        components: list[Component],
        dependencies: list[Dependency] = (),
        od_matrix: dict[str, dict[str, float]] | None = None,
        zone_priority: dict[str, int] | None = None,
    ):
        self.components: tuple[Component, ...] = tuple(components)
        self.dependencies: tuple[Dependency, ...] = tuple(dependencies)
        self.od_matrix: dict[str, dict[str, float]] = {
            o: dict(row) for o, row in (od_matrix or {}).items()
        }
        self.zone_priority: dict[str, int] = dict(zone_priority or {})
        self._by_id = {c.id: c for c in self.components}
        # (network, kind) -> components in declaration order; kind None
        # lists the whole network
        self._index: dict[tuple[str, str | None], list[Component]] = {}
        for c in self.components:
            for key in ((c.network, None), (c.network, c.kind)):
                self._index.setdefault(key, []).append(c)
        # solver results that depend only on this network (plus the
        # statuses or parameters in their key), filled on first use
        self._memo: dict = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegratedNetwork):
            return NotImplemented
        return (
            self.components == other.components
            and self.dependencies == other.dependencies
            and self.od_matrix == other.od_matrix
            and self.zone_priority == other.zone_priority
        )

    def cached(self, key, compute, usable=None):
        """The memo entry under ``key``, set to ``compute()`` on first use.

        Runs that share this network then share the entry, so callers
        must not mutate what they get back. An entry that ``usable``
        rejects is computed again and replaced.
        """
        if key in self._memo and (usable is None or usable(self._memo[key])):
            return self._memo[key]
        value = self._memo[key] = compute()
        return value

    def service_key(self, network: str, component_statuses: dict[str, str]) -> frozenset:
        """The components of ``network`` whose in-service flag the statuses
        change from the component's own status, each with its new flag:
        all that a solver of that network reads from them. A repaired
        component keys like one that never failed, unless its own status
        is out of service."""
        return frozenset(
            (cid, status in IN_SERVICE)
            for cid, status in component_statuses.items()
            if cid in self._by_id
            and self._by_id[cid].network == network
            and (status in IN_SERVICE) != (self._by_id[cid].status in IN_SERVICE)
        )

    def component(self, component_id: str) -> Component:
        try:
            return self._by_id[component_id]
        except KeyError:
            raise KeyError(f"no component with id {component_id!r}") from None

    def has_component(self, component_id: str) -> bool:
        return component_id in self._by_id

    def components_of(self, network: str, kind: str | None = None) -> list[Component]:
        return list(self._index.get((network, kind), ()))

    def nodes_of(self, network: str) -> list[Component]:
        kinds = NODE_KINDS[network]
        return [c for c in self._index.get((network, None), ()) if c.kind in kinds]

    def edges_of(self, network: str) -> list[Component]:
        kinds = EDGE_KINDS[network]
        return [c for c in self._index.get((network, None), ()) if c.kind in kinds]

    def attached_of(self, kind: str | None = None) -> list[Component]:
        return [
            c
            for c in self._index.get((POWER, None), ())
            if c.kind in ATTACHED_KINDS and (kind is None or c.kind == kind)
        ]

    def consumers(self, network: str) -> list[Component]:
        """Components whose service level feeds the performance metrics."""
        if network == WATER:
            return [
                c
                for c in self.components_of(WATER, "demand_node")
                if c.attrs["base_demand"] > 0
            ]
        if network == POWER:
            return [c for c in self.attached_of() if c.kind in ("load", "motor")]
        raise ValueError(f"no consumer definition for network {network!r}")

    def hazard_eligible(self) -> list[Component]:
        return [c for c in self.components if c.kind in HAZARD_ELIGIBLE_KINDS]

    def zone_priority_of(self, zone_id: str) -> int:
        return self.zone_priority.get(zone_id, 1)


def component_roots(nodes, edges) -> dict[str, str]:
    """Each node's connected component in the undirected graph, named by
    the least node id in it. Every edge end must be one of ``nodes``."""
    parent = {n: n for n in nodes}

    def find(n: str) -> str:
        while parent[n] != n:
            parent[n] = parent[parent[n]]  # path halving
            n = parent[n]
        return n

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _component_graph(net: IntegratedNetwork, network: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Nodes and undirected edges of one network's component graph.

    Power attachments contribute a graph node plus one edge per bus they
    ride, which is what lets a multi-bus external grid stitch otherwise
    separate feeders together.
    """
    nodes = [c.id for c in net.nodes_of(network)]
    edges = []
    for c in net.edges_of(network):
        edges.append(c.ends)
    if network == POWER:
        for c in net.attached_of():
            nodes.append(c.id)
            for bus in c.buses or ():
                edges.append((c.id, bus))
    return nodes, edges


def _is_number(v) -> bool:
    """A finite int or float; a bool is no number here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def validate_network(net: IntegratedNetwork) -> list[Violation]:
    """Structural checks; returns one Violation per broken rule."""
    out: list[Violation] = []
    seen: set[str] = set()
    node_ids = {n: {c.id for c in net.nodes_of(n)} for n in NETWORKS}
    bus_ids = {c.id for c in net.components_of(POWER, "bus")}

    for c in net.components:
        if c.id in seen:
            out.append(Violation(c.id, "unique-id", "duplicate component id"))
            continue
        seen.add(c.id)
        if c.network not in NETWORKS:
            out.append(Violation(c.id, "known-network", f"unknown network {c.network!r}"))
            continue
        known = NODE_KINDS[c.network] | EDGE_KINDS[c.network]
        if c.network == POWER:
            known = known | ATTACHED_KINDS
        if c.kind not in known:
            out.append(Violation(c.id, "known-kind", f"kind {c.kind!r} not valid in {c.network}"))
            continue
        if c.status not in STATUSES:
            out.append(Violation(c.id, "known-status", f"unknown status {c.status!r}"))
        for attr in _REQUIRED_ATTRS.get(c.kind, ()):
            if attr not in c.attrs:
                out.append(Violation(c.id, "required-attr", f"missing attr {attr!r}"))
        for attr in _NUMERIC_ATTRS.get(c.kind, ()):
            if attr in c.attrs and not _is_number(c.attrs[attr]):
                out.append(Violation(c.id, "numeric-attr", f"{attr}={c.attrs[attr]!r} must be a finite number"))
        for attr in _POSITIVE_ATTRS.get(c.kind, ()):
            v = c.attrs.get(attr)
            if _is_number(v) and not v > 0:
                out.append(Violation(c.id, "positive-attr", f"{attr}={v!r} must be > 0"))
        for attr in _NONNEGATIVE_ATTRS.get(c.kind, ()):
            v = c.attrs.get(attr)
            if _is_number(v) and not v >= 0:
                out.append(Violation(c.id, "nonnegative-attr", f"{attr}={v!r} must be >= 0"))
        if c.kind == "tank":
            a = c.attrs
            if all(_is_number(a.get(k)) for k in ("min_level", "max_level", "init_level")):
                if not (a["min_level"] <= a["init_level"] <= a["max_level"]):
                    out.append(Violation(c.id, "tank-levels", "init_level outside [min_level, max_level]"))
                if not a["min_level"] < a["max_level"]:
                    out.append(Violation(c.id, "tank-levels", "min_level must be below max_level"))
        if c.is_edge:
            if c.ends is None:
                out.append(Violation(c.id, "edge-ends", "edge component lacks ends"))
            else:
                for end in c.ends:
                    if end not in node_ids[c.network]:
                        out.append(Violation(c.id, "edge-ends", f"end {end!r} is not a {c.network} node"))
        elif c.kind in ATTACHED_KINDS:
            if not c.buses:
                out.append(Violation(c.id, "attachment-bus", "attached component lists no bus"))
            else:
                for bus in c.buses:
                    if bus not in bus_ids:
                        out.append(Violation(c.id, "attachment-bus", f"bus {bus!r} does not exist"))

    for d in net.dependencies:
        if d.kind not in DEPENDENCY_KINDS:
            out.append(Violation(d.source_id, "dependency-kind", f"unknown kind {d.kind!r}"))
            continue
        missing = [i for i in (d.source_id, d.target_id) if not net.has_component(i)]
        if missing:
            out.append(Violation(missing[0], "dependency-endpoint", "dependency endpoint does not exist"))
            continue
        src, tgt = net.component(d.source_id), net.component(d.target_id)
        if src.network == tgt.network:
            out.append(Violation(d.source_id, "dependency-cross", "dependency must cross networks"))
        sources, targets = DEPENDENCY_ENDS[d.kind]
        if src.kind not in sources or tgt.kind not in targets:
            out.append(Violation(d.source_id, "dependency-kind", f"{d.kind} cannot link {src.kind} to {tgt.kind}"))

    # OD matrix references zones, no self-demand, non-negative volumes
    zones = node_ids[TRAFFIC]
    for orig, row in net.od_matrix.items():
        if orig not in zones:
            out.append(Violation(orig, "od-zone", "OD origin is not a traffic node"))
            continue
        for dest, volume in row.items():
            if dest not in zones:
                out.append(Violation(dest, "od-zone", "OD destination is not a traffic node"))
            elif orig == dest and volume != 0:
                out.append(Violation(orig, "od-diagonal", "self-demand must be zero"))
            elif not volume >= 0:
                out.append(Violation(orig, "od-volume", f"negative demand to {dest}"))

    for zone in net.zone_priority:
        if zone not in zones:
            out.append(Violation(zone, "zone-priority", "priority set for unknown zone"))

    # each network must be one connected piece when fully operational
    if not any(v.rule in ("edge-ends", "attachment-bus", "unique-id") for v in out):
        for network in NETWORKS:
            nodes, edges = _component_graph(net, network)
            if not nodes:
                continue
            pieces = Counter(component_roots(nodes, edges).values())
            if len(pieces) > 1:
                sizes = sorted(pieces.values())
                out.append(
                    Violation("", "connected", f"{network} graph splits into {len(pieces)} pieces (sizes {sizes})")
                )
    return out


# ---------------------------------------------------------------------------
# locations shared by the hazard sampler and the crew schedulers


def component_location(comp: Component, net: IntegratedNetwork) -> tuple[float, float]:
    """Edge components sit at the midpoint of their endpoints."""
    if comp.ends is not None:
        pa = net.component(comp.ends[0]).location
        pb = net.component(comp.ends[1]).location
        return ((pa[0] + pb[0]) / 2.0, (pa[1] + pb[1]) / 2.0)
    return comp.location


def nearest_zone(net: IntegratedNetwork, point: tuple[float, float]) -> str:
    """Closest traffic node to a point, lexicographic id tie-break."""
    best = None
    for zone in net.nodes_of(TRAFFIC):
        d = math.dist(point, zone.location)
        key = (d, zone.id)
        if best is None or key < best[0]:
            best = (key, zone.id)
    if best is None:
        raise NetworkError("network has no traffic nodes")
    return best[1]


def access_node(net: IntegratedNetwork, component_id: str) -> str:
    """Traffic node a repair crew must reach to work on the component,
    found once per component: the memo entry ``("access_node", id)``."""
    return net.cached(
        ("access_node", component_id),
        lambda: nearest_zone(net, component_location(net.component(component_id), net)),
    )


# ---------------------------------------------------------------------------
# file round trip


def _component_to_dict(c: Component) -> dict:
    d: dict = {"id": c.id, "kind": c.kind, "location": list(c.location)}
    if c.ends is not None:
        d["from"], d["to"] = c.ends
    if c.buses is not None:
        d["buses"] = list(c.buses)
    d["attrs"] = {k: c.attrs[k] for k in sorted(c.attrs)}
    d["status"] = c.status
    return d


def _component_from_dict(network: str, d: dict) -> Component:
    if not isinstance(d, dict):
        raise NetworkError(f"component entry in {network!r} is not an object: {d!r}")
    ends = (d["from"], d["to"]) if "from" in d else None
    buses = tuple(d["buses"]) if "buses" in d else None
    location = d["location"]
    if not (isinstance(location, (list, tuple)) and len(location) == 2 and all(map(_is_number, location))):
        raise NetworkError(f"component {d['id']!r} location {location!r} is not a pair of numbers")
    return Component(
        id=d["id"],
        network=network,
        kind=d["kind"],
        location=tuple(location),
        attrs=dict(d.get("attrs", {})),
        ends=ends,
        buses=buses,
        status=d.get("status", STATUS_OPERATIONAL),
    )


def network_to_dict(net: IntegratedNetwork) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION}
    for network in NETWORKS:
        comps = sorted(net.components_of(network), key=lambda c: c.id)
        doc[network] = [_component_to_dict(c) for c in comps]
    doc["dependencies"] = [
        {"source": d.source_id, "target": d.target_id, "kind": d.kind}
        for d in sorted(net.dependencies, key=lambda d: (d.source_id, d.target_id, d.kind))
    ]
    doc["od_matrix"] = {
        o: {t: net.od_matrix[o][t] for t in sorted(net.od_matrix[o])}
        for o in sorted(net.od_matrix)
    }
    doc["zone_priority"] = {z: net.zone_priority[z] for z in sorted(net.zone_priority)}
    return doc


def network_from_dict(doc: dict) -> IntegratedNetwork:
    if not isinstance(doc, dict):
        raise NetworkError(f"network document is a {type(doc).__name__}, not an object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise NetworkError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    components: list[Component] = []
    for network in NETWORKS:
        for d in doc.get(network, []):
            try:
                components.append(_component_from_dict(network, d))
            except KeyError as exc:
                raise NetworkError(f"component entry in {network!r} missing field {exc}") from None
    dependencies = [
        Dependency(d["source"], d["target"], d["kind"]) for d in doc.get("dependencies", [])
    ]
    priorities = doc.get("zone_priority", {})
    for z, p in priorities.items():
        if not _is_number(p):
            raise NetworkError(f"zone {z!r} priority {p!r} is not a number")
    net = IntegratedNetwork(
        components,
        dependencies,
        od_matrix=doc.get("od_matrix", {}),
        zone_priority={z: int(p) for z, p in priorities.items()},
    )
    violations = validate_network(net)
    if violations:
        raise NetworkValidationError(violations)
    return net


def save_network(net: IntegratedNetwork, path: str) -> None:
    """Canonical serialization: sorted ids, two-space indent, newline EOF.

    Saving what :func:`load_network` produced reproduces the file byte
    for byte, so canonical files round-trip exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")


def load_network(path: str) -> IntegratedNetwork:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise NetworkError(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return network_from_dict(doc)
