"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import workload  # noqa: E402
from grid import build_grid  # noqa: E402
from lifelinesim.network import save_network, validate_network  # noqa: E402
from tracer import Tracer  # noqa: E402

BATCH_ITEM = workload.WORKLOADS["batch_simple"]["items"][0]


@pytest.mark.parametrize("trips", ["gravity", "even"])
def test_grid_is_valid_6x6(trips):
    net = build_grid(trips)
    assert validate_network(net) == []
    assert len(net.nodes_of("traffic")) == 36
    assert len(net.consumers("water")) == 36
    # every zone keeps the testbed's trip production
    for row in net.od_matrix.values():
        assert sum(row.values()) == pytest.approx(640.0)


def test_known_defect_counts_as_failed_but_correct(tmp_path, monkeypatch):
    # the even-spread item stops at the Frank-Wolfe cap, as its reference does
    monkeypatch.chdir(tmp_path)
    save_network(build_grid("even"), "grid6x6_even.json")
    session = workload.Session("grid_scale", tmp_path)
    session.one(list(workload.WORKLOADS["grid_scale"]["items"][-1]))
    summary = session.summary()
    assert summary["correct"], summary["problems"]
    assert (summary["attempted"], summary["failed"], summary["completed"]) == (1, 1, 0)


def _session(tmp_path: Path, name: str, traced: bool):
    tracer = Tracer() if traced else None
    run_dir = tmp_path / name
    run_dir.mkdir()
    session = workload.Session("batch_simple", run_dir, tracer)
    if tracer is not None:
        tracer.install()
    try:
        session.one(list(BATCH_ITEM))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return session, tracer


def test_traced_run_matches_untraced_and_counts_repeat(tmp_path):
    plain, _ = _session(tmp_path, "plain", traced=False)
    first, t1 = _session(tmp_path, "traced1", traced=True)
    second, t2 = _session(tmp_path, "traced2", traced=True)

    for s in (plain, first, second):
        summary = s.summary()
        assert summary["correct"], summary["problems"]
        assert summary["bit_identical"]
        assert summary["attempted"] == 12 and summary["failed"] == 0
    assert first.digest.hexdigest() == plain.digest.hexdigest() == second.digest.hexdigest()

    m1, m2 = t1.layer_metrics(), t2.layer_metrics()
    counts = {k for k, (_, unit) in m1.items() if unit in ("count", "ratio")}
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["hydraulics.solves"][0] > 0 and m1["recovery.context_calls"][0] > 0


def test_compare_counts_mismatch_and_known_failure():
    ref = {
        "digests": {},
        "runs": {
            "1:max_flow": {"events": [[10.0, "PL1", "fail", ""]], "eoh": [1.0, 2.0, 3.0]},
            "2:max_flow": {"error": "TrafficAssignmentError: no equilibrium"},
        },
    }
    obs = {
        "invalid_tables": {},
        "runs": {
            "1:max_flow": {"events": [[10.0, "PL1", "fail", ""]], "eoh": [1.0, 2.0, 3.1]},
            "2:max_flow": {"error": "TrafficAssignmentError: no equilibrium"},
        },
    }
    problems, failed = workload.compare(obs, ref)
    assert failed == {"1:max_flow", "2:max_flow"}
    assert len(problems) == 1 and problems[0].startswith("1:max_flow: eoh")

    obs["runs"]["1:max_flow"]["eoh"] = [1.0, 2.0, 3.0 + 1e-9]
    obs["runs"]["2:max_flow"] = {"events": [], "eoh": [0.0, 0.0, 0.0]}  # a fixed defect completes
    assert workload.compare(obs, ref) == ([], set())


def test_tail_percentile():
    # under 20 attempted runs the tail is the maximum
    assert workload.percentile_tail([1.0, 3.0, 2.0], 3) == (3.0, 100.0)
    values = [float(i) for i in range(100)]
    assert workload.percentile_tail(values, 100) == (89.0, 90.0)
    # the percentile follows the attempted runs, not the completed ones
    assert workload.percentile_tail(values[:50], 100)[1] == 90.0


def test_fails_without_program_sources(tmp_path):
    root = tmp_path / "bare"
    root.mkdir()
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "batch_simple", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
