"""Command-line interface: single runs, seeded batches, validation.

Data goes to files only (CSV for curves, JSON for summaries, both
carrying a ``schema_version``); progress logs go to standard error.
Outputs are byte-identical across repeated invocations with the same
configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .hazard import (
    INTENSITIES,
    HazardError,
    HazardEvent,
    sample_scenario,
)
from .hydraulics import HydraulicError
from .network import (
    POWER,
    WATER,
    NetworkError,
    NetworkValidationError,
    load_network,
    save_network,
    validate_network,
)
from .powerflow import PowerFlowError
from .recovery import STRATEGIES, RecoveryError
from .simulation import SimulationError, SimulationResult, run_scenario
from .testbed import build_simple_testbed
from .traffic import TrafficAssignmentError

OUTPUT_SCHEMA_VERSION = 1
BUILTIN_SIMPLE = "builtin:simple"

log = logging.getLogger("lifelinesim")

_STAGE_ERRORS = (
    NetworkError,
    HazardError,
    RecoveryError,
    SimulationError,
    TrafficAssignmentError,
    HydraulicError,
    PowerFlowError,
    metrics.MetricsError,
    OSError,
    ValueError,
)


class CliError(Exception):
    """Configuration problem that should abort with a usage-style message."""


# ---------------------------------------------------------------------------
# shared plumbing


def _load_net(spec: str):
    if spec == BUILTIN_SIMPLE:
        return build_simple_testbed()
    return load_network(spec)


def _parse_center(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--center expects 'X,Y', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise CliError(f"--center expects numeric 'X,Y', got {text!r}") from None


def _load_track(path: str) -> tuple[tuple[float, float], ...]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read track file {path}: {exc}") from exc
    try:
        pts = tuple((float(p[0]), float(p[1])) for p in doc)
    except (TypeError, ValueError, IndexError):
        raise CliError(f"track file {path} must hold a JSON list of [x, y] pairs") from None
    if len(pts) < 2:
        raise CliError("a track needs at least two vertices")
    return pts


def _strategies(text: str) -> list[str]:
    """The names in a comma-separated --strategy value, each checked."""
    strategies = [s.strip() for s in text.split(",") if s.strip()]
    valid = set(STRATEGIES) | {"mpc"}
    for s in strategies:
        if s not in valid:
            raise CliError(f"unknown strategy {s!r}; expected one of {sorted(valid)}")
    if not strategies:
        raise CliError("--strategy needs at least one name")
    return strategies


def _build_event(args) -> HazardEvent:
    kind = args.hazard
    if kind == "point":
        if args.center is None or args.radius is None:
            raise CliError("point hazards need --center X,Y and --radius M")
        return HazardEvent(
            kind="point",
            intensity=args.intensity,
            center=_parse_center(args.center),
            radius=args.radius,
        )
    if kind == "track":
        if args.track is None or args.offset is None:
            raise CliError("track hazards need --track FILE and --offset M")
        return HazardEvent(
            kind="track",
            intensity=args.intensity,
            track=_load_track(args.track),
            offset=args.offset,
        )
    if args.count is None:
        raise CliError("random hazards need --count N")
    return HazardEvent(kind="random", intensity=args.intensity, count=args.count)


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_performance(path: Path, result: SimulationResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "network", "ecs", "pcs"])
        for network in (WATER, POWER):
            series = result.series(network)
            curves = (series.times, metrics.ecs_curve(series), metrics.pcs_curve(series))
            for t, e, p in zip(*(map(repr, c.tolist()) for c in curves)):
                writer.writerow([t, network, e, p])


def _eoh_block(result: SimulationResult) -> dict:
    water, power = result.eoh(WATER, "pcs"), result.eoh(POWER, "pcs")
    return {
        "water_pcs": water,
        "water_ecs": result.eoh(WATER, "ecs"),
        "power_pcs": power,
        "power_ecs": result.eoh(POWER, "ecs"),
        "weighted_pcs": metrics.weighted_eoh({WATER: water, POWER: power}),
    }


def _write_report(path: Path, result: SimulationResult, scenario, args) -> None:
    consumer_eoh: dict[str, dict[str, float]] = {}
    for network in (WATER, POWER):
        series = result.series(network)
        block = {}
        for cid in series.consumers:
            value = metrics.consumer_eoh(series, cid, result.occurrence_time, result.horizon)
            block[cid] = None if value != value else value  # NaN -> null
        consumer_eoh[network] = block
    doc = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "network": args.network,
        "strategy": args.strategy,
        "seed": args.seed,
        "p_hazard": args.p_hazard,
        "hazard_kind": scenario.event.kind,
        "intensity": scenario.intensity,
        "occurrence_time_s": result.occurrence_time,
        "horizon_s": result.horizon,
        "failures": [
            {"component_id": f.component_id, "time_s": f.time, "severity": f.severity}
            for f in scenario.failures
        ],
        "n_events": len(result.event_table),
        "eoh_hours": _eoh_block(result),
        "consumer_eoh_hours": consumer_eoh,
    }
    _write_json(path, doc)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    if _strategies(args.strategy) != [args.strategy]:
        raise CliError(f"run takes one strategy, got {args.strategy!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    log.info("loading network %s", args.network)
    net = _load_net(args.network)

    log.info("sampling hazard (%s, intensity %s, seed %d)", args.hazard, args.intensity, args.seed)
    event = _build_event(args)
    scenario = sample_scenario(net, event, p_hazard=args.p_hazard, seed=args.seed)
    log.info(
        "scenario has %d failed components at intensity %s",
        len(scenario.failures),
        scenario.intensity,
    )

    log.info("scheduling repairs with strategy %s", args.strategy)
    result = run_scenario(
        net,
        scenario,
        args.strategy,
        mpc_horizon=args.horizon,
        horizon=args.sim_horizon,
    )
    log.info(
        "simulated %d events to horizon %.0f s",
        len(result.event_table),
        result.horizon,
    )

    result.event_table.to_csv(out_dir / "event_table.csv")
    _write_performance(out_dir / "performance.csv", result)
    _write_report(out_dir / "report.json", result, scenario, args)
    log.info("wrote event_table.csv, performance.csv, report.json to %s", out_dir)
    return 0


# ---------------------------------------------------------------------------
# batch


def _batch_worker(payload: tuple) -> dict:
    net, index, seed, strategies, event, p_hazard, mpc_horizon = payload
    try:
        scenario = sample_scenario(net, event, p_hazard=p_hazard, seed=seed)
        record: dict = {
            "index": index,
            "seed": seed,
            "n_failures": len(scenario.failures),
            "per_strategy": {},
        }
        # the strategies of one scenario share one replay store: a ledger
        # an earlier strategy produced is not replayed
        store: dict = {}
        for strategy in strategies:
            result = run_scenario(net, scenario, strategy, mpc_horizon=mpc_horizon, store=store)
            water, power = result.eoh(WATER), result.eoh(POWER)
            record["per_strategy"][strategy] = {
                "eoh_water": water,
                "eoh_power": power,
                "eoh_weighted": metrics.weighted_eoh({WATER: water, POWER: power}),
            }
        return record
    except _STAGE_ERRORS as exc:
        return {"index": index, "seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def _family_stats(matrix: np.ndarray, strategies: list[str]) -> dict:
    block: dict = {
        "matrix": [[float(v) for v in row] for row in matrix],
        "means": {s: float(matrix[:, j].mean()) for j, s in enumerate(strategies)},
    }
    n, k = matrix.shape
    if n >= 2 and k >= 2:
        anova = metrics.repeated_measures_anova(matrix)
        block["anova"] = dataclasses.asdict(anova)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        raw = []
        for i, j in pairs:
            comp = metrics.paired_comparison(matrix[:, i], matrix[:, j])
            raw.append(comp)
        adjusted = metrics.benjamini_hochberg([c.p_value for c in raw])
        block["posthoc"] = [
            {
                "strategy_a": strategies[i],
                "strategy_b": strategies[j],
                "mean_difference": comp.mean_difference,
                "t_statistic": comp.t_statistic,
                "p_value": comp.p_value,
                "p_adjusted": float(adj),
                "degenerate": comp.degenerate,
            }
            for (i, j), comp, adj in zip(pairs, raw, adjusted)
        ]
    else:
        block["anova"] = None
        block["posthoc"] = []
    return block


def _cmd_batch(args) -> int:
    strategies = _strategies(args.strategy)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    event = _build_event(args)
    log.info("loading network %s", args.network)
    # one network object for every scenario, so the per-network work it
    # memoizes (peak flows, baseline series, dispatches) is done once
    net = _load_net(args.network)
    payloads = [
        (net, i, args.seed + i, strategies, event, args.p_hazard, args.horizon)
        for i in range(args.scenarios)
    ]

    log.info(
        "running %d scenarios x %d strategies with %d job(s)",
        args.scenarios,
        len(strategies),
        args.jobs,
    )
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            # four chunks per worker: scenarios in a chunk share one
            # unpickled network and its memo, while a slow chunk holds
            # at most a quarter of a worker's share
            chunksize = math.ceil(len(payloads) / (4 * args.jobs))
            records = list(pool.map(_batch_worker, payloads, chunksize=chunksize))
    else:
        records = [_batch_worker(p) for p in payloads]

    ok = [r for r in records if "error" not in r]
    failed = [r for r in records if "error" in r]
    for r in failed:
        log.warning("scenario %d (seed %d) failed: %s", r["index"], r["seed"], r["error"])
    if not ok:
        log.error("all %d scenarios failed", len(records))
        return 1

    with open(out_dir / "batch_summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario_index", "seed", "strategy", "n_failures", "eoh_water", "eoh_power", "eoh_weighted"]
        )
        for r in ok:
            for strategy in strategies:
                cell = r["per_strategy"][strategy]
                writer.writerow(
                    [
                        r["index"],
                        r["seed"],
                        strategy,
                        r["n_failures"],
                        _fmt(cell["eoh_water"]),
                        _fmt(cell["eoh_power"]),
                        _fmt(cell["eoh_weighted"]),
                    ]
                )

    families = {
        "water": np.array([[r["per_strategy"][s]["eoh_water"] for s in strategies] for r in ok]),
        "power": np.array([[r["per_strategy"][s]["eoh_power"] for s in strategies] for r in ok]),
        "weighted": np.array(
            [[r["per_strategy"][s]["eoh_weighted"] for s in strategies] for r in ok]
        ),
    }
    stats_doc = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "network": args.network,
        "n_scenarios": args.scenarios,
        "n_completed": len(ok),
        "base_seed": args.seed,
        "seeds": [r["seed"] for r in ok],
        "strategies": strategies,
        "failed_scenarios": [
            {"index": r["index"], "seed": r["seed"], "error": r["error"]} for r in failed
        ],
        "networks": {name: _family_stats(matrix, strategies) for name, matrix in families.items()},
    }
    _write_json(out_dir / "stats.json", stats_doc)
    log.info("wrote batch_summary.csv and stats.json to %s", out_dir)
    return 0


# ---------------------------------------------------------------------------
# validate / make-testbed


def _cmd_validate(args) -> int:
    log.info("validating %s", args.network)
    try:
        violations = validate_network(_load_net(args.network))
    except NetworkValidationError as exc:  # the loader already rejected it
        violations = exc.violations
    if not violations:
        print("OK: network is valid")
        return 0
    for v in violations:
        print(f"{v.component_id}: {v.message}")
    print(f"INVALID: {len(violations)} violation(s)")
    return 1


def _cmd_make_testbed(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "simple_testbed.json"
    save_network(build_simple_testbed(), path)
    log.info("wrote %s", path)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_hazard_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hazard", choices=("point", "track", "random"), required=True)
    p.add_argument("--center", help="point hazard center as 'X,Y' (meters)")
    p.add_argument("--radius", type=float, help="point hazard footprint radius (meters)")
    p.add_argument("--track", help="JSON file with [[x, y], ...] track vertices")
    p.add_argument("--offset", type=float, help="track hazard corridor half-width (meters)")
    p.add_argument("--count", type=int, help="component count for random hazards")
    p.add_argument(
        "--intensity",
        choices=INTENSITIES + ("random",),
        default="moderate",
        help="hazard intensity level (default: moderate)",
    )
    p.add_argument("--p-hazard", type=float, default=1.0, help="hazard occurrence probability")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--strategy",
        default="max_flow",
        help="repair strategy: max_flow, centrality, crew_distance, zone, or mpc "
        "(batch accepts a comma-separated list)",
    )
    p.add_argument("--horizon", type=int, default=2, help="prediction horizon for --strategy mpc")
    p.add_argument("--seed", type=int, required=True, help="random seed (required)")
    p.add_argument("--out", default=".", help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifelinesim",
        description="Interdependent water/power/road disaster-and-restoration simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write result files")
    p_run.add_argument("--network", default=BUILTIN_SIMPLE, help="network JSON path or builtin:simple")
    _add_hazard_flags(p_run)
    _add_run_flags(p_run)
    p_run.add_argument("--sim-horizon", type=float, default=None, help="simulation end time override (s)")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run seeded scenarios across strategies and compare")
    p_batch.add_argument("--network", default=BUILTIN_SIMPLE, help="network JSON path or builtin:simple")
    _add_hazard_flags(p_batch)
    _add_run_flags(p_batch)
    p_batch.add_argument("--scenarios", type=int, default=10, help="number of scenarios")
    p_batch.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_batch.set_defaults(func=_cmd_batch)

    p_val = sub.add_parser("validate", help="check a network file against the schema rules")
    p_val.add_argument("--network", required=True, help="network JSON path or builtin:simple")
    p_val.set_defaults(func=_cmd_validate)

    p_mk = sub.add_parser("make-testbed", help="write the built-in testbed network to a file")
    p_mk.add_argument("--out", default=".", help="output directory (default: current)")
    p_mk.set_defaults(func=_cmd_make_testbed)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)

    if getattr(args, "scenarios", None) is not None and args.scenarios < 1:
        parser.error("--scenarios must be >= 1")
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if getattr(args, "horizon", None) is not None and args.horizon < 1:
        parser.error("--horizon must be >= 1")

    try:
        return args.func(args)
    except CliError as exc:
        parser.error(str(exc))  # exits with code 2
        return 2
    except NetworkValidationError as exc:
        log.error("network validation: %d violation(s)", len(exc.violations))
        for v in exc.violations:
            log.error("  %s: %s", v.component_id, v.message)
        return 1
    except _STAGE_ERRORS as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
