"""End-to-end command-line behavior: exit codes, files, determinism."""

import csv
import json

import pytest

from lifelinesim import cli
from lifelinesim.hazard import HazardEvent, sample_scenario
from lifelinesim.network import POWER, WATER
from lifelinesim.simulation import run_scenario
from lifelinesim.testbed import build_simple_testbed


def run_cli(*argv):
    return cli.main(list(argv))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestValidateAndTestbed:
    def test_builtin_is_valid(self, capsys):
        assert run_cli("validate", "--network", "builtin:simple") == 0
        assert "OK: network is valid" in capsys.readouterr().out

    def test_make_testbed_round_trip(self, tmp_path, capsys):
        assert run_cli("make-testbed", "--out", str(tmp_path)) == 0
        path = tmp_path / "simple_testbed.json"
        assert path.exists()
        assert run_cli("validate", "--network", str(path)) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_network_lists_violations(self, tmp_path, capsys):
        run_cli("make-testbed", "--out", str(tmp_path))
        path = tmp_path / "simple_testbed.json"
        doc = json.loads(path.read_text())
        doc["dependencies"][0]["target"] = "GHOST"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", str(path)) == 1
        out = capsys.readouterr().out
        assert "GHOST" in out
        assert "INVALID" in out

    def test_missing_file_is_stage_error(self, tmp_path):
        assert run_cli("validate", "--network", str(tmp_path / "nope.json")) == 1

    def test_null_attribute_lists_numeric_violation(self, tmp_path, capsys):
        run_cli("make-testbed", "--out", str(tmp_path))
        path = tmp_path / "simple_testbed.json"
        doc = json.loads(path.read_text())
        w1 = next(c for c in doc["water"] if c["id"] == "W1")
        w1["attrs"]["base_demand"] = None
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--network", str(path)) == 1
        out = capsys.readouterr().out
        assert "W1: base_demand=None must be a finite number" in out
        assert "INVALID: 1 violation(s)" in out

    @pytest.mark.parametrize("break_doc", [
        lambda doc: [doc],
        lambda doc: doc["power"].append("B99"),
        lambda doc: doc["water"][0].update(location=5.0),
        lambda doc: doc["traffic"][0].update(location=["0", "1"]),
        lambda doc: doc["zone_priority"].update(T1=None),
    ], ids=["top-level-list", "entry-not-object", "location-scalar", "location-strings", "null-priority"])
    def test_malformed_document_is_one_error_line(self, tmp_path, capsys, caplog, break_doc):
        run_cli("make-testbed", "--out", str(tmp_path))
        path = tmp_path / "simple_testbed.json"
        doc = json.loads(path.read_text())
        doc = break_doc(doc) or doc
        path.write_text(json.dumps(doc))
        caplog.clear()
        assert run_cli("validate", "--network", str(path)) == 1
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage().split(":")[0] for r in errors] == ["NetworkError"]
        assert all(r.exc_info is None for r in errors)
        assert "Traceback" not in capsys.readouterr().err


class TestRun:
    def test_run_writes_three_files(self, tmp_path):
        out = tmp_path / "results"
        code = run_cli(
            "run", "--hazard", "random", "--count", "2", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        for name in ("event_table.csv", "performance.csv", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 7
        assert report["strategy"] == "max_flow"
        assert len(report["failures"]) == report["n_events"] // 3
        assert set(report["eoh_hours"]) == {
            "water_pcs", "water_ecs", "power_pcs", "power_ecs", "weighted_pcs",
        }

    def test_no_hazard_means_no_outage(self, tmp_path):
        out = tmp_path / "calm"
        code = run_cli(
            "run", "--hazard", "random", "--count", "3", "--p-hazard", "0.0",
            "--seed", "1", "--sim-horizon", "3600", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["failures"] == []
        assert all(v == 0.0 for v in report["eoh_hours"].values())
        table = (out / "event_table.csv").read_text().splitlines()
        assert table == ["time_s,component_id,action,crew_id"]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("run", "--hazard", "random", "--count", "3", "--seed", "11")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("event_table.csv", "performance.csv", "report.json"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    def test_point_hazard_needs_geometry(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--hazard", "point", "--seed", "1", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_track_hazard(self, tmp_path):
        track = tmp_path / "track.json"
        track.write_text("[[0, 1000], [2000, 1000]]")
        out = tmp_path / "results"
        code = run_cli(
            "run", "--hazard", "track", "--track", str(track), "--offset", "300",
            "--intensity", "extreme", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["hazard_kind"] == "track"
        assert len(report["failures"]) == 6

    @pytest.mark.parametrize(
        "text, message",
        [("[[0, 1000]]", "a track needs at least two vertices"), ("not json", "cannot read track file")],
    )
    def test_bad_track_file_is_usage_error(self, tmp_path, capsys, text, message):
        track = tmp_path / "track.json"
        track.write_text(text)
        with pytest.raises(SystemExit) as err:
            run_cli(
                "run", "--hazard", "track", "--track", str(track), "--offset", "300",
                "--seed", "1", "--out", str(tmp_path / "results"),
            )
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (("--hazard", "point", "--center", "600,350", "--radius", "nan"), "HazardError"),
            (("--hazard", "point", "--center", "nan,350", "--radius", "700"), "HazardError"),
            (("--hazard", "random", "--count", "0"), "HazardError"),
            (("--hazard", "random", "--count", "3", "--sim-horizon", "inf"), "SimulationError"),
            (("--hazard", "random", "--count", "3", "--sim-horizon", "nan"), "SimulationError"),
        ],
    )
    def test_bad_input_is_one_line_stage_error(self, tmp_path, caplog, flags, error):
        out = tmp_path / "results"
        code = run_cli("run", *flags, "--intensity", "high", "--seed", "42", "--out", str(out))
        assert code == 1
        assert not (out / "report.json").exists()
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert errors[0].getMessage().startswith(error + ": ")
        assert "\n" not in errors[0].getMessage()

    def test_unknown_strategy_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "run", "--hazard", "random", "--count", "1", "--seed", "1",
                "--strategy", "vibes", "--out", str(tmp_path),
            )
        assert err.value.code == 2

    def test_seed_is_required(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--hazard", "random", "--count", "1", "--out", str(tmp_path))
        assert err.value.code == 2


class TestBatch:
    BASE = (
        "batch", "--hazard", "random", "--count", "2", "--seed", "42",
        "--scenarios", "2", "--strategy", "max_flow,zone",
    )

    def test_smoke(self, tmp_path):
        assert run_cli(*self.BASE, "--out", str(tmp_path)) == 0
        lines = (tmp_path / "batch_summary.csv").read_text().splitlines()
        assert lines[0] == (
            "scenario_index,seed,strategy,n_failures,eoh_water,eoh_power,eoh_weighted"
        )
        assert len(lines) == 1 + 2 * 2  # scenarios x strategies
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["schema_version"] == 1
        assert stats["seeds"] == [42, 43]
        assert stats["strategies"] == ["max_flow", "zone"]
        assert stats["failed_scenarios"] == []
        for family in ("water", "power", "weighted"):
            block = stats["networks"][family]
            assert len(block["matrix"]) == 2
            assert block["anova"] is not None
            assert len(block["posthoc"]) == 1
            assert block["posthoc"][0]["strategy_a"] == "max_flow"

    def test_parallel_matches_serial(self, tmp_path):
        run_cli(*self.BASE, "--jobs", "1", "--out", str(tmp_path / "serial"))
        run_cli(*self.BASE, "--jobs", "2", "--out", str(tmp_path / "parallel"))
        for name in ("batch_summary.csv", "stats.json"):
            assert read_bytes(tmp_path / "serial" / name) == read_bytes(
                tmp_path / "parallel" / name
            )

    def test_parallel_chunks_of_several_scenarios_match_serial(self, tmp_path):
        # 9 scenarios on 2 jobs go out in chunks of 2, each chunk on one network copy
        args = (
            "batch", "--hazard", "random", "--count", "2", "--seed", "42",
            "--scenarios", "9", "--strategy", "max_flow",
        )
        run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "serial"))
        run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "parallel"))
        for name in ("batch_summary.csv", "stats.json"):
            assert read_bytes(tmp_path / "serial" / name) == read_bytes(
                tmp_path / "parallel" / name
            )

    def test_mpc_batch_matches_runs_without_a_store(self, tmp_path):
        args = (
            "batch", "--hazard", "random", "--count", "6", "--intensity", "extreme",
            "--seed", "1", "--scenarios", "2", "--strategy", "max_flow,mpc",
        )
        assert run_cli(*args, "--jobs", "1", "--out", str(tmp_path / "serial")) == 0
        assert run_cli(*args, "--jobs", "2", "--out", str(tmp_path / "parallel")) == 0
        for name in ("batch_summary.csv", "stats.json"):
            assert read_bytes(tmp_path / "serial" / name) == read_bytes(
                tmp_path / "parallel" / name
            )

        net = build_simple_testbed()
        event = HazardEvent(kind="random", intensity="extreme", count=6)
        with open(tmp_path / "serial" / "batch_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["strategy"]) for r in rows] == [
            ("1", "max_flow"), ("1", "mpc"), ("2", "max_flow"), ("2", "mpc"),
        ]
        for r in rows:
            scenario = sample_scenario(net, event, seed=int(r["seed"]))
            result = run_scenario(net, scenario, r["strategy"])
            assert [float(r["eoh_water"]), float(r["eoh_power"]), float(r["eoh_weighted"])] == [
                result.eoh(WATER), result.eoh(POWER), result.weighted_eoh(),
            ]

    def test_unloadable_network_fails_once_without_files(self, tmp_path, caplog):
        out = tmp_path / "out"
        code = run_cli(
            "batch", "--network", str(tmp_path / "nope.json"), "--hazard", "random",
            "--count", "1", "--seed", "1", "--scenarios", "3", "--out", str(out),
        )
        assert code == 1
        assert list(out.iterdir()) == []
        failures = [r for r in caplog.records if r.levelname in ("WARNING", "ERROR")]
        assert len(failures) == 1 and "nope.json" in failures[0].getMessage()

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "batch", "--hazard", "random", "--count", "1", "--seed", "1",
                "--strategy", "max_flow,vibes", "--out", str(tmp_path),
            )
        assert err.value.code == 2

    def test_sim_horizon_is_a_run_flag(self, tmp_path):
        # each batch run is simulated to its own default horizon
        with pytest.raises(SystemExit) as err:
            run_cli(*self.BASE, "--sim-horizon", "500000", "--out", str(tmp_path))
        assert err.value.code == 2

    def test_scenarios_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "batch", "--hazard", "random", "--count", "1", "--seed", "1",
                "--scenarios", "0", "--out", str(tmp_path),
            )
        assert err.value.code == 2


@pytest.mark.parametrize("command", ["run", "batch"])
@pytest.mark.parametrize("strategy", ["mpc", "max_flow"])
@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_horizon_below_one_is_usage_error(tmp_path, monkeypatch, command, strategy, horizon):
    def refuse(*args, **kwargs):
        raise AssertionError("scenario run for a horizon below 1")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(
            command, "--hazard", "random", "--count", "6", "--intensity", "extreme", "--seed", "1",
            "--strategy", strategy, "--horizon", horizon, "--out", str(out),
        )
    assert err.value.code == 2
    assert not out.exists()
