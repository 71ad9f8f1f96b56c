"""lifelinesim benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With ``--trace 0`` it runs the workload
untraced in its own process, then measures set-up time in fresh
processes, and prints the end-to-end metrics. With ``--trace 1`` it runs an
untraced, a traced and another untraced pass of the workload in one
process, and prints the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Details (environment, output check, tail
percentile, spans) go to standard error and to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("batch_simple", "mpc_simple", "grid_scale")
SETUP_PROBES = 3
DEADLINE_S = 175.0

# fresh-process set-up: import the package and build or load the
# workload's network through the CLI's own loader (which validates it)
PROBE = """
import time
t0 = time.perf_counter()
import lifelinesim.cli
lifelinesim.cli._load_net({spec!r})
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = child_env()
        self.t0 = time.monotonic()

    def __call__(self, argv: list[str], log: str) -> str:
        left = DEADLINE_S - (time.monotonic() - self.t0)
        if left <= 0:
            raise RuntimeError("out of time before " + " ".join(argv[:2]))
        log_path = self.run_dir / log
        with open(log_path, "w", encoding="utf-8") as err:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=err, text=True, timeout=left,
            )
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n{tail}")
        return proc.stdout

    def workload(self, args, mode: str) -> dict:
        summary = self.run_dir / f"{mode}.json"
        self([str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--mode", mode, "--run-dir", str(self.run_dir),
              "--summary", str(summary)], f"{mode}.log")
        return json.loads(summary.read_text(encoding="utf-8"))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="lifelinesim benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "lifelinesim" / "__init__.py").is_file():
        print(f"no lifelinesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Runner(run_dir)

    if args.trace == 0:
        doc = run.workload(args, "measure")
        # the workload process has written the grid_scale network by now
        spec = str(run_dir / "grid6x6.json") if args.workload == "grid_scale" else "builtin:simple"
        probes = [float(run(["-c", PROBE.format(spec=spec)], "setup.log")) for _ in range(1 + SETUP_PROBES)]
        setup = probes[1:]  # the first one also writes the bytecode caches
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "runs_per_s": metric(doc["runs_per_s"], "1/s"),
            "run_s_p50": metric(doc["run_s_p50"], "s"),
            "run_s_tail": metric(doc["run_s_tail"], "s"),
            "peak_rss_mb": metric(doc["peak_rss_mb"], "MB"),
        }
        detail = {"setup_probes_s": setup}
    else:
        doc = run.workload(args, "trace")
        metrics = {name: metric(v, unit) for name, (v, unit) in doc["layers"].items()}
        extra = {
            "trace.wall_s": (doc["wall_s"], "s"),
            "trace.overhead_frac": (doc["wall_s"] / doc["untraced_wall_s"] - 1.0, "ratio"),
            "bench.runs_failed_frac": (doc["failed"] / max(doc["attempted"], 1), "ratio"),
            "host.ref_kernel_s": (doc["ref_kernel_s"], "s"),
        }
        metrics.update({name: metric(v, unit) for name, (v, unit) in extra.items()})
        detail = {"untraced_wall_s": doc["untraced_wall_s"], "spans": str(run_dir / "spans.jsonl")}

    detail.update({k: doc[k] for k in (
        "env", "ref_kernel_s", "invocations", "wall_s", "completed", "pass_rates", "run_s_tail_pct",
        "bit_identical", "problems", "output_digest")})
    detail["runs_failed_frac"] = doc["failed"] / max(doc["attempted"], 1)
    (run_dir / "detail.json").write_text(json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    for problem in doc["problems"]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    shutil.rmtree(run_dir / "out", ignore_errors=True)

    result = {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
