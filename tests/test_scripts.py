"""Smoke tests for the scripts and the public names of every module."""

import importlib
import pkgutil
import runpy
import sys
from pathlib import Path

import pytest

import binomoment

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_certify_all_small_grid(monkeypatch, capsys):
    script = SCRIPTS / "certify_all.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--p-max", "3/2", "--n-max", "6"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert "4/4 certified" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name",
    ["binomoment"] + [f"binomoment.{m.name}" for m in pkgutil.iter_modules(binomoment.__path__)],
)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
