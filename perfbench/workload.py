"""One workload process: drive the lifelinesim CLI in-process and check it.

Each workload is a fixed pool of CLI invocations, all closed loop, one
client, serial (``--jobs 1``). The benchmark seed sets the order in
which the pool is issued; the pool itself is fixed so that every run
measures the same work and the stored reference outputs cover it.

Modes (``--mode``):

* ``measure``: ``round(--seconds / PASS_S)`` whole passes over the pool
  (at least one), timing every ``run_scenario`` call the CLI makes. The
  pass count depends on ``--seconds`` only, never on how fast the code
  runs, so two commits measured alike make the same runs.
* ``trace``: one untraced, one traced and one more untraced pass; the
  summary is the traced pass's, plus the per-layer metrics.
* ``record``: one pass in pool order, written to ``reference.json``.

Every mode writes the ``grid_scale`` networks into ``--run-dir`` first,
checks the outputs against ``reference.json`` and writes a JSON summary
to ``--summary``. Run through ``run.py``, which sets the import path and
pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# output check tolerances: EOH relative (plus an absolute floor in hours),
# event times absolute in seconds; ids, actions, crews and orders exact
EOH_RTOL, EOH_ATOL = 1e-6, 1e-9
EVENT_ATOL = 1e-3

# the grid_scale networks, written into the run directory: file -> trip spread
GRIDS = {"grid6x6.json": "gravity", "grid6x6_even.json": "even"}
PASS_S = 10.0  # nominal seconds per pass; a pool takes about this long here

WORKLOADS = {
    "batch_simple": {
        "argv": [
            "batch", "--network", "builtin:simple", "--hazard", "random", "--count", "3",
            "--intensity", "random", "--strategy", "max_flow,centrality,zone", "--jobs", "1",
        ],
        "items": [["--seed", str(s), "--scenarios", "4"] for s in (100, 104, 108, 112)],
    },
    "mpc_simple": {
        "argv": [
            "run", "--network", "builtin:simple", "--strategy", "mpc", "--horizon", "2",
            "--hazard", "random", "--count", "6", "--intensity", "extreme",
        ],
        # seed 1 and the next two seeds whose six failures split the same
        # way over the lifelines (1 power, 3 road, 2 water)
        "items": [["--seed", str(s)] for s in (1, 2, 12)],
        "mix": {"1": ["PL2", "TL-T1-T4", "TL-T5-T6", "TL-T5-T8", "WP-W1-W2", "WP-W6-W9"]},
    },
    "grid_scale": {
        "argv": [
            "batch", "--network", "grid6x6.json", "--strategy", "max_flow", "--hazard", "random",
            "--count", "4", "--intensity", "extreme", "--jobs", "1",
        ],
        # the last item keeps a known defect visible: on the even-spread
        # grid Frank-Wolfe stops at its 500-iteration cap, so the run fails
        "items": [["--seed", str(s), "--scenarios", "2"] for s in (0, 2, 4)]
        + [["--seed", "6", "--scenarios", "1", "--network", "grid6x6_even.json"]],
    },
}


def item_key(item: list[str]) -> str:
    return " ".join(item)


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int:
    """Thread count of the OpenBLAS numpy loaded, -1 when unknown."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return -1


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def reference_kernel() -> float:
    """Time a fixed mix of interpreter and numpy work (host diagnostic)."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0.0
    for i in range(300_000):
        total += (i % 7) * 0.5
    a = np.arange(1.0, 40_001.0)
    for _ in range(200):
        total += float(np.sqrt(a).sum())
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one invocation


class Capture:
    """Wraps ``cli.run_scenario``: per-run wall time, errors, event tables."""

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.run_scenario
        self.runs: list[dict] = []

    def __enter__(self):
        original = self.original

        def run_scenario(net, scenario, strategy, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(net, scenario, strategy, *args, **kwargs)
            except BaseException as exc:
                self.runs.append({"seed": scenario.seed, "strategy": strategy,
                                  "s": time.perf_counter() - t0,
                                  "error": f"{type(exc).__name__}: {exc}"})
                raise
            self.runs.append({"seed": scenario.seed, "strategy": strategy,
                              "s": time.perf_counter() - t0, "table": result.event_table})
            return result

        self.cli.run_scenario = run_scenario
        return self

    def __exit__(self, *exc):
        self.cli.run_scenario = self.original
        return False


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(table) -> list[list]:
    return [[r.time, r.component_id, r.action, r.crew_id or ""] for r in table.rows]


def _repair_order(rows: list[list]) -> dict[str, list[str]]:
    order: dict[str, list[str]] = {}
    for _, cid, action, crew in rows:
        if action == "repair_start":
            order.setdefault(crew, []).append(cid)
    return order


def observe(cmd: str, out: Path, rc: int, runs: list[dict]) -> dict:
    """What one invocation produced, in the form ``reference.json`` stores."""
    from lifelinesim.simulation import EventTable

    obs: dict = {"rc": rc, "digests": {p.name: _digest(p) for p in sorted(out.iterdir())}, "runs": {}}
    tables = {}
    for run in runs:
        key = f"{run['seed']}:{run['strategy']}"
        if "error" in run:
            obs["runs"][key] = {"error": run["error"]}
        else:
            tables[key] = run["table"]
            obs["runs"][key] = {"events": _rows(run["table"])}
    problems = {k: t.validate() for k, t in tables.items()}
    obs["invalid_tables"] = {k: v for k, v in problems.items() if v}
    if cmd == "batch":
        if (out / "batch_summary.csv").exists():
            with open(out / "batch_summary.csv", newline="", encoding="utf-8") as fh:
                for rec in csv.DictReader(fh):
                    key = f"{rec['seed']}:{rec['strategy']}"
                    obs["runs"][key]["eoh"] = [
                        float(rec["eoh_water"]), float(rec["eoh_power"]), float(rec["eoh_weighted"])
                    ]
        if (out / "stats.json").exists():
            stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
            obs["failed_scenarios"] = {str(f["seed"]): f["error"] for f in stats["failed_scenarios"]}
    elif (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        eoh = report["eoh_hours"]
        (key,) = obs["runs"]
        table = EventTable.from_csv(str(out / "event_table.csv"))
        rows = _rows(table)
        obs["runs"][key].update(
            eoh=[eoh["water_pcs"], eoh["power_pcs"], eoh["weighted_pcs"]],
            events=rows,
            repair_order=_repair_order(rows),
            failures=sorted(f["component_id"] for f in report["failures"]),
        )
        problems = table.validate()
        if problems:
            obs["invalid_tables"][key] = problems
    return obs


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EOH_ATOL + EOH_RTOL * abs(b)


def compare(obs: dict, ref: dict) -> tuple[list[str], set[str]]:
    """Problems with one invocation against its reference, plus the keys
    of the runs that failed (raised, or differ beyond tolerance)."""
    problems: list[str] = list(f"{k}: invalid event table {v}" for k, v in obs["invalid_tables"].items())
    failed = set(obs["invalid_tables"])
    for key, got in obs["runs"].items():
        want = ref["runs"].get(key)
        if "error" in got:
            failed.add(key)
            if want is None or "error" not in want:
                problems.append(f"{key}: new failure {got['error']}")
            continue
        if want is None or "error" in want:
            continue  # completes where the reference failed: nothing to compare
        bad = []
        if not all(_close(a, b) for a, b in zip(got.get("eoh", []), want["eoh"])) or "eoh" not in got:
            bad.append(f"eoh {got.get('eoh')} != {want['eoh']}")
        ge, we = got["events"], want["events"]
        if len(ge) != len(we) or any(
            g[1:] != w[1:] or abs(g[0] - w[0]) > EVENT_ATOL for g, w in zip(ge, we)
        ):
            bad.append("event table differs")
        for field in ("repair_order", "failures"):
            if got.get(field) != want.get(field):
                bad.append(f"{field} {got.get(field)} != {want.get(field)}")
        if bad:
            failed.add(key)
            problems.append(f"{key}: " + "; ".join(bad))
    missing = set(ref["runs"]) - set(obs["runs"])
    for key in sorted(missing):
        if "error" not in ref["runs"][key]:
            problems.append(f"{key}: run not attempted")
    for seed, error in obs.get("failed_scenarios", {}).items():
        if not any(k.startswith(f"{seed}:") and "error" in v for k, v in obs["runs"].items()):
            problems.append(f"seed {seed}: stats.json reports {error} but no run raised")
    return problems, failed


def invoke(cli, argv: list[str], out: Path, tracer=None) -> tuple[float, list[dict], int]:
    """Run one CLI invocation; returns its wall time, runs and exit code."""
    out.mkdir(parents=True)
    with Capture(cli) as cap:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv + ["--out", str(out)])
            else:
                rc = tracer.span("cli.main", cli.main, argv + ["--out", str(out)])
        except Exception as exc:  # a crash is reported as a failed check, not raised
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    return wall, cap.runs, rc


# ---------------------------------------------------------------------------
# passes


def percentile_tail(values: list[float], runs: int) -> tuple[float, float]:
    """Tail of the completed run times ``values``; returns (value, percentile).

    The percentile is the highest that leaves ten of ``runs`` samples above
    it, or 100 (the maximum) when ``runs`` is under 20. ``runs`` is the
    number of runs attempted, which the pool and the pass count fix, so
    the percentile does not move with the speed of the code."""
    xs = sorted(values)
    if runs < 20:
        return xs[-1], 100.0
    rank = -(-(runs - 10) * len(xs) // runs)  # nearest rank, rounded up
    return xs[rank - 1], 100.0 * (runs - 10) / runs


class Session:
    def __init__(self, workload: str, run_dir: Path, tracer=None):
        from lifelinesim import cli

        self.cli = cli
        self.spec = WORKLOADS[workload]
        self.cmd = self.spec["argv"][0]
        self.argv = self.spec["argv"]
        self.run_dir = run_dir
        self.tracer = tracer
        refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        self.reference = refs.get(workload, {})
        self.count = 0
        self.wall = 0.0
        self.run_s: list[float] = []
        self.pass_rates: list[float] = []  # completed runs per second, one per pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bit_identical = True
        self.digest = hashlib.sha256()
        self.observed: dict = {}

    def one(self, item: list[str]) -> None:
        out = self.run_dir / "out" / str(self.count)
        self.count += 1
        wall, runs, rc = invoke(self.cli, self.argv + item, out, self.tracer)
        self.wall += wall
        if isinstance(rc, str):
            self.problems.append(f"[{item_key(item)}] cli.main raised {rc}")
        obs = observe(self.cmd, out, rc, runs)
        shutil.rmtree(out)
        key = item_key(item)
        self.observed[key] = obs
        self.digest.update(json.dumps([key, obs], sort_keys=True).encode())
        self.attempted += len(runs)
        ref = self.reference.get(key)
        if ref is None:
            problems, failed = [f"{key}: no reference output"], {f"{r['seed']}:{r['strategy']}" for r in runs}
        else:
            problems, failed = compare(obs, ref)
            if obs["digests"] != ref["digests"] or obs["runs"] != ref["runs"]:
                self.bit_identical = False
        self.problems += [f"[{key}] {p}" for p in problems]
        self.failed += len(failed)
        for r in runs:
            if f"{r['seed']}:{r['strategy']}" not in failed:
                self.run_s.append(r["s"])
        mix = self.spec.get("mix", {}).get(item[1])
        if mix is not None and obs["runs"]:
            (got,) = obs["runs"].values()
            if got.get("failures") != mix:
                self.problems.append(f"[{key}] failure mix {got.get('failures')} != {mix}")

    def run_pass(self, items: list[list[str]]) -> None:
        t0, n0 = self.wall, len(self.run_s)
        for item in items:
            self.one(item)
        self.pass_rates.append((len(self.run_s) - n0) / (self.wall - t0))

    def summary(self) -> dict:
        completed = len(self.run_s)
        p50 = statistics.median(self.run_s) if self.run_s else 0.0
        tail, tail_pct = percentile_tail(self.run_s, self.attempted) if self.run_s else (0.0, 0.0)
        return {
            "wall_s": self.wall,
            "attempted": self.attempted,
            "failed": self.failed,
            "completed": completed,
            "runs_per_s": statistics.median(self.pass_rates) if self.pass_rates else 0.0,
            "pass_rates": self.pass_rates,
            "run_s_p50": p50,
            "run_s_tail": tail,
            "run_s_tail_pct": tail_pct,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "correct": not self.problems and self.attempted > 0,
            "problems": self.problems[:50],
            "bit_identical": self.bit_identical,
            "output_digest": self.digest.hexdigest(),
        }


def ordered_items(workload: str, seed: int) -> list[list[str]]:
    items = [list(i) for i in WORKLOADS[workload]["items"]]
    random.Random(seed).shuffle(items)
    return items


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("measure", "trace", "record"), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--summary", required=True)
    args = ap.parse_args(argv)

    import lifelinesim

    src = (ROOT / "src").resolve()
    if Path(lifelinesim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"lifelinesim imported from {lifelinesim.__file__}, not {src}")

    # the grid_scale networks are named relative to the run directory, so
    # that stats.json, which records --network, does not depend on where
    # the run directory is
    run_dir = Path(args.run_dir).resolve()
    summary_path = Path(args.summary).resolve()
    os.chdir(run_dir)
    if args.workload == "grid_scale":
        from grid import build_grid
        from lifelinesim.network import save_network

        for name, trips in GRIDS.items():
            save_network(build_grid(trips), name)
    kernel = [reference_kernel() for _ in range(3)]
    items = ordered_items(args.workload, args.seed)
    session = Session(args.workload, run_dir)
    extra: dict = {}

    if args.mode == "record":
        session.run_pass([list(i) for i in WORKLOADS[args.workload]["items"]])
    elif args.mode == "measure":
        for _ in range(max(1, round(args.seconds / PASS_S))):
            session.run_pass(items)
    else:
        # untraced, traced, untraced passes in one process, so that the
        # overhead compares neighbouring passes under the same host load
        from tracer import Tracer

        plain = [session, Session(args.workload, run_dir)]
        plain[0].run_pass(items)
        tracer = Tracer()
        tracer.install()
        try:
            session = Session(args.workload, run_dir, tracer)
            session.run_pass(items)
        finally:
            tracer.uninstall()
        plain[1].run_pass(items)
        tracer.write_spans(str(run_dir / "spans.jsonl"))
        extra["layers"] = tracer.layer_metrics()
        extra["untraced_wall_s"] = statistics.mean(p.wall for p in plain)
        if any(p.digest.hexdigest() != session.digest.hexdigest() for p in plain):
            session.problems.append("traced and untraced passes give different outputs")

    kernel += [reference_kernel() for _ in range(3)]
    doc = session.summary()
    doc.update(extra, env=environment(), ref_kernel_s=statistics.median(kernel), invocations=session.count)
    if args.mode == "record":
        refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        refs[args.workload] = {
            k: {f: v[f] for f in ("digests", "runs")} for k, v in session.observed.items()
        }
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
