"""Smoke tests for the scripts and the public names of every module."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import binomoment
from binomoment.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_certify_all_small_grid(monkeypatch, capsys):
    script = SCRIPTS / "certify_all.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--p-max", "3/2", "--n-max", "6"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    assert "4/4 certified" in capsys.readouterr().out


def test_certify_all_reports_a_failing_pair_and_goes_on(monkeypatch, capsys):
    # n_max = 1000 is past the float range on every pair: each pair prints
    # its error, the sweep runs to the end and exits 1, with no traceback
    script = SCRIPTS / "certify_all.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--p-max", "3/2", "--n-max", "1000"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count(" error: moment n = ") == 4
    assert "0/4 certified" in out
    assert "at None" not in out
    assert "worst relative error: none (no pair certified)" in out


def test_make_figure_data_writes_each_figure(tmp_path):
    # a fresh interpreter that turns every unclosed file into an error: the
    # script writes the six CSVs of ``figure --id i`` and warns of nothing
    out_dir, ref_dir = tmp_path / "data", tmp_path / "ref"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SCRIPTS.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", str(SCRIPTS / "make_figure_data.py"),
         "--out-dir", str(out_dir)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    namespace = runpy.run_path(str(SCRIPTS / "make_figure_data.py"))
    ref_dir.mkdir()
    for fig_id, name in namespace["FIGURE_FILES"].items():
        ref = ref_dir / name
        assert cli_main(["figure", "--id", str(fig_id), "--out", str(ref)]) == 0
        assert (out_dir / name).read_bytes() == ref.read_bytes(), fig_id


@pytest.mark.parametrize(
    "name",
    ["binomoment"] + [f"binomoment.{m.name}" for m in pkgutil.iter_modules(binomoment.__path__)],
)
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


ROOT = SCRIPTS.parent

def _all_entries(tree: ast.Module) -> list:
    """The string nodes of a module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value.elts
    return []


def _members(tree: ast.Module, public: set) -> set:
    """``Class.member`` for the public methods and fields of the public classes."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("_"):
                    found.add(f"{node.name}.{name}")
    return found


def _references(tree: ast.Module) -> set:
    """Identifiers a module uses: loaded names, attributes, and dotted strings.

    Definitions, import aliases and the ``__all__`` list itself do not count.
    Strings count only when they are a dotted identifier path, as in the
    bench tracer's table of (span, module, "Class.attr") lookups.
    """
    skip = {id(elt) for elt in _all_entries(tree)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
            found.update(node.value.split("."))
    return found


def test_every_public_name_has_a_caller():
    # a name in some module's __all__, or a method or field of a class
    # there, that nothing in the program, the benchmark or the scripts uses
    # is test-only surface: move what the tests need to tests/oracles.py
    # and delete the rest
    package = sorted((ROOT / "src" / "binomoment").glob("*.py"))
    callers = package + sorted(SCRIPTS.glob("*.py")) + [
        path for path in sorted((ROOT / "bench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in callers}
    used = set().union(*(_references(tree) for tree in trees.values()))
    public = set()
    for path in package:
        names = {elt.value for elt in _all_entries(trees[path])}
        public |= names | _members(trees[path], names)
    uncalled = {name for name in public if name.split(".")[-1] not in used}
    assert sorted(uncalled) == []


def _traced_table() -> tuple:
    """``bench/tracing.py``'s TRACED table, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


@pytest.mark.parametrize("span,module,attr", _traced_table())
def test_traced_functions_resolve(span, module, attr):
    # the bench tracer patches each entry by getattr; a renamed or deleted
    # function breaks `bench/run.py --trace 1`, which no other test runs
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), span


def test_cli_walltime_one_command(monkeypatch, capsys):
    script = SCRIPTS / "cli_walltime.py"
    src = str(ROOT / "src")
    names = ("moments", "moments-raney", "figure-raster", "usage-error")
    only = [arg for name in names for arg in ("--only", name)]
    monkeypatch.setattr(sys, "argv", [str(script), "--repeats", "1", *only, src])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(script), run_name="__main__")
    assert exc.value.code == 0
    report = json.loads(capsys.readouterr().out)
    rows = {row["name"]: row for row in report["commands"]}
    assert list(rows) == list(names)
    for row in rows.values():
        assert row["same_output"] is True and len(row["median_s"]) == 1
        assert row["median_s"][0] > 0
    # each outcome is "code out=... err=..." plus " file=..." for an {out} row;
    # the CSV and the usage text are hashed, not the empty stdout of either
    empty = hashlib.sha256(b"").hexdigest()[:16]
    fields = {name: row["outcome"][0].split() for name, row in rows.items()}
    for name in ("moments", "moments-raney"):
        assert fields[name][0] == "0" and fields[name][1] != f"out={empty}", name
    code, _, _, csv = fields["figure-raster"]
    assert code == "0" and csv.startswith("file=") and csv != f"file={empty}"
    code, _, err = fields["usage-error"]
    assert code == "1" and err.startswith("err=") and err != f"err={empty}"
