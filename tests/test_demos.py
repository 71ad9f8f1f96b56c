"""Every demo script runs to completion against the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_completes(path, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # demos write their files to the working directory
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
