"""Every demo script runs to the end against the current package."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # the CLI demo writes under tempfile.mkdtemp(); keep that inside tmp_path
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.delenv("CSVORTEX_OUT", raising=False)
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem == "cli_workflow":
        assert out.count("exit code 0") == 3
        assert "exit code 4" in out
