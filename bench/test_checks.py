"""Self-tests of the benchmark's checks: real outputs pass, corrupted ones fail.

    python3 -m pytest bench/test_checks.py -q
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from workloads import run_cli  # noqa: E402

F = Fraction
FIGURES = json.loads((BENCH_DIR.parent / "src" / "binomoment" / "figures.json").read_text())
ORACLE = json.loads((BENCH_DIR / "oracle" / "density.json").read_text())["curves"]


def test_binom_matches_math_comb_and_known_rows():
    for p, r in ((3, 1), (2, 0), (5, -1)):
        assert [checks.binom(F(p), F(r), n) for n in range(12)] == [
            math.comb(n * p + r, n) if n * p + r >= 0 else (1 if n == 0 else 0)
            for n in range(12)]
    # non-integer row by hand: C(2*3/2 - 1/2, 2) = C(5/2, 2) = (5/2)(3/2)/2
    assert checks.binom(F(3, 2), F(-1, 2), 2) == F(5, 2) * F(3, 2) / 2


def test_region_rule():
    assert checks.region_label(F(3, 2), F(1, 2)) == "MainBranch"
    assert checks.region_label(F(3, 2), F(3, 4)) == "Outside"
    assert checks.region_label(F(-1), F(-2)) == "ReflectedBranch"
    assert checks.region_label(F(1, 2), F(0)) == "Outside"


@pytest.fixture(scope="module")
def certify_report():
    return json.loads(run_cli(("certify", "--p", "5/3", "--r", "-1", "--nmax", "6")))


def test_certify_report_passes(certify_report):
    assert checks.check_certify(certify_report, F(5, 3), F(-1), 6) == []


def test_certify_rejects_moment_off_by_its_tolerance(certify_report):
    rep = json.loads(json.dumps(certify_report))
    row = rep["moments"][4]
    exact = float(checks.binom(F(5, 3), F(-1), 4))
    row["quadrature"] = exact + 1.01 * checks.CERTIFY_TOL * max(1.0, exact)
    assert checks.check_certify(rep, F(5, 3), F(-1), 6)


def test_certify_rejects_wrong_atom(certify_report):
    rep = json.loads(json.dumps(certify_report))
    rep["moments"][0]["atom"] = 0.0
    assert checks.check_certify(rep, F(5, 3), F(-1), 6)


def test_certify_rejects_missing_rows(certify_report):
    rep = json.loads(json.dumps(certify_report))
    del rep["moments"][-1]
    assert checks.check_certify(rep, F(5, 3), F(-1), 6)


@pytest.fixture(scope="module")
def figure3(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "f3.csv"
    run_cli(("figure", "--id", "3", "--out", str(path)))
    return path.read_text()


def _check3(text):
    return checks.check_curves(text, FIGURES["3"], ORACLE["3"])


def _edit_row(text, pair, index, column, value):
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(pair + ",")]
    cells = lines[hits[index - 1]].split(",")
    cells[column] = value(cells[column])
    lines[hits[index - 1]] = ",".join(cells)
    return "\n".join(lines)


def test_curves_pass(figure3):
    assert _check3(figure3) == []


def test_curves_reject_value_beyond_oracle_tolerance(figure3):
    bad = _edit_row(figure3, "3/2,1/2", 100, 3,
                    lambda v: repr(float(v) * (1 + 20 * checks.DENSITY_TOL)))
    assert _check3(bad)


def test_curves_reject_flipped_negativity_flag(figure3):
    assert _check3(_edit_row(figure3, "3/2,0", 7, 4, lambda v: "1"))
    assert _check3(_edit_row(figure3, "3/2,1", 7, 4, lambda v: "0"))


def test_curves_reject_negative_in_region_value(figure3):
    # index 5 is not in the oracle subsample, so only the sign check sees it
    assert _check3(_edit_row(figure3, "3/2,-1/2", 5, 3, lambda v: "-1e-3"))


def test_curves_reject_shifted_abscissa(figure3):
    assert _check3(_edit_row(figure3, "3/2,0", 5, 2, lambda v: repr(float(v) * 1.001)))


@pytest.fixture(scope="module")
def raster(tmp_path_factory):
    path = tmp_path_factory.mktemp("fig") / "f1.csv"
    run_cli(("figure", "--id", "1", "--out", str(path)))
    return path.read_text()


def test_raster_pass_and_flipped_verdict(raster):
    cells = checks.raster_cells(FIGURES["1"])
    assert checks.check_raster(raster, cells) == []
    flipped = raster.replace("\n2,0,MainBranch\n", "\n2,0,Outside\n")
    assert flipped != raster
    assert checks.check_raster(flipped, cells)
    dropped = "\n".join(raster.split("\n")[:-2]) + "\n"
    assert checks.check_raster(dropped, cells)


def test_identity_checks_reject_failure():
    names = ["boolean-row", "raney-monotonic"]
    assert checks.check_identity_lines("boolean-row PASS\nraney-monotonic PASS\n", names) == []
    assert checks.check_identity_lines("boolean-row PASS\nraney-monotonic FAIL\n", names)
    assert checks.check_identity_results([("boolean-row", 20, True)]) == []
    assert checks.check_identity_results([("boolean-row", 20, False)])


def test_moment_and_series_rows():
    text = run_cli(("moments", "--p", "7/2", "--r", "-1/2", "--n", "30")).decode()
    assert checks.check_moment_row(text, F(7, 2), F(-1, 2), 30) == []
    assert checks.check_moment_row(text.replace(" ", "  1 ", 1), F(7, 2), F(-1, 2), 30)
    assert checks.check_moment_row(text, F(7, 2), F(1, 2), 30)
    text = run_cli(("series", "--p", "4", "--r", "2", "--order", "30", "--json")).decode()
    assert checks.check_series_json(text, F(4), F(2), 30) == []
    d = json.loads(text)
    d["coeffs"][17]["num"] = str(int(d["coeffs"][17]["num"]) + 1)
    assert checks.check_series_json(json.dumps(d), F(4), F(2), 30)


@pytest.fixture(scope="module")
def draws():
    raw = run_cli(("sample", "--p", "7/2", "--r", "1", "--count", "20000",
                   "--seed", "3", "--binary"))
    return np.frombuffer(raw, dtype="<f8").copy()


def test_draws_pass(draws):
    assert checks.check_draws(draws, F(7, 2), F(1), 20000) == []


def test_draws_reject_value_outside_support(draws):
    c = checks.support_upper(F(7, 2))
    for bad_value in (c * (1 + 1e-9), -1e-12, float("nan")):
        bad = draws.copy()
        bad[123] = bad_value
        assert checks.check_draws(bad, F(7, 2), F(1), 20000)


def test_draws_reject_wrong_law(draws):
    # same support, other parameters: the moment z-test must notice
    assert checks.check_draws(draws, F(7, 2), F(2), 20000)
    assert checks.check_draws(draws * 0.98, F(7, 2), F(1), 20000)
