"""The study scripts run end to end and write what they promise."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analyze_device(capsys):
    assert load("analyze_device").main([]) == 0
    assert "coupling: Cg =" in capsys.readouterr().out


@pytest.mark.parametrize("name,argv,files", [
    ("thickness_sweep", ["--points", "5"],
     ["thickness_sweep.csv", "g_vs_thickness.svg",
      "crosstalk_vs_thickness.svg"]),
    ("loss_tangent_sweep", ["--points", "5"],
     ["loss_tangent_sweep.csv", "q_vs_tan_delta.svg",
      "t1_vs_tan_delta.svg"]),
], ids=["thickness_sweep", "loss_tangent_sweep"])
def test_study_writes_its_files(name, argv, files, tmp_path, capsys):
    assert load(name).main(argv + ["--out", str(tmp_path)]) == 0
    for file in files:
        assert (tmp_path / file).stat().st_size > 0, file
