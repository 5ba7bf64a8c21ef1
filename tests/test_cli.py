"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math

import numpy as np
import pytest

from binomoment.cli import main
from binomoment.verify import InconclusiveWitnessError
from binomoment.freeconv import IdentityCheck


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_integer_row(self, capsys):
        code, out, _ = run(capsys, "moments", "--p", "3", "--r", "0", "--n", "5")
        assert code == 0
        assert out.strip() == "1 3 15 84 495 3003"

    def test_raney_row_is_catalan(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--p", "2", "--r", "1", "--n", "5", "--raney"
        )
        assert code == 0
        assert out.strip() == "1 1 2 5 14 42"

    def test_fractional_values_print_exactly(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--p", "3/2", "--r", "-1/2", "--n", "4"
        )
        assert code == 0
        assert out.split() == ["1", "1", "15/8", "4", "1155/128"]

    def test_negative_n_rejected(self, capsys):
        code, _, err = run(capsys, "moments", "--p", "2", "--r", "0", "--n", "-1")
        assert code == 1
        assert "error" in err

    def test_byte_identical_across_runs(self, capsys):
        args = ("moments", "--p", "7/2", "--r", "2", "--n", "12")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestSeries:
    def test_plain_dump_matches_moments(self, capsys):
        code, out, _ = run(capsys, "series", "--p", "2", "--r", "1", "--order", "5")
        assert code == 0
        assert out.strip() == "1 3 10 35 126 462"

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "series", "--p", "2", "--r", "1", "--order", "3", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 3
        assert data["coeffs"][2] == {"num": "10", "den": "1"}


class TestDensity:
    def test_subnormal_abscissa(self, capsys):
        # c is about 8.1: x/c is subnormal at 1e-310 and rounds to zero at 2e-323
        for x in ("2e-323", "1e-310"):
            code, out, err = run(capsys, "density", "--p", "7/2", "--r", "1", "--x", x)
            assert (code, err) == (0, "")
            assert float(out) > 0.0

    def test_density_past_the_float_range(self, capsys):
        # x^(1-r) (4-x) underflows at p = 2, r = -1/2, and the density is
        # finite; at r = -1 and near r = -1 at p = 7/2 it exceeds 1.8e308
        code, out, err = run(capsys, "density", "--p", "2", "--r", "-1/2", "--x", "2e-323")
        assert (code, err) == (0, "") and float(out) > 1e240
        for p, r in (("2", "-1"), ("7/2", "-9/10")):
            code, out, err = run(capsys, "density", "--p", p, "--r", r, "--x", "5e-324")
            assert (code, out) == (1, ""), (p, r)
            assert "error: density at x = 5e-324 exceeds the float range" in err

    def test_single_point_arcsine(self, capsys):
        code, out, _ = run(capsys, "density", "--p", "2", "--r", "0", "--x", "2")
        assert code == 0
        want = 1.0 / (math.pi * math.sqrt(2.0 * 2.0))
        assert abs(float(out.strip()) - want) <= 1e-14

    def test_grid_lines(self, capsys):
        code, out, _ = run(
            capsys, "density", "--p", "3", "--r", "1", "--grid", "1,6,5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        xs = [float(line.split()[0]) for line in lines]
        assert xs == [1.0, 2.25, 3.5, 4.75, 6.0]
        assert all(float(line.split()[1]) > 0 for line in lines)

    def test_grid_outside_support_rejected(self, capsys):
        code, _, err = run(
            capsys, "density", "--p", "2", "--r", "0", "--grid", "1,9,4"
        )
        assert code == 1
        assert "error" in err

    def test_out_of_region_pair_still_evaluates(self, capsys):
        # the density function exists (with negative values) outside the
        # positive-definite region
        code, out, _ = run(
            capsys, "density", "--p", "3/2", "--r", "1", "--x", "0.26"
        )
        assert code == 0
        assert float(out.strip()) < 0


class TestClassify:
    def test_outside_example(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--p", "0.75", "--r", "-0.5", "--family", "binomial"
        )
        assert code == 0
        assert out.strip() == "NOT positive definite (Outside)"

    def test_main_branch(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--p", "2", "--r", "1", "--family", "binomial"
        )
        assert code == 0
        assert out.strip() == "positive definite (MainBranch)"

    def test_raney_family(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--p", "2", "--r", "1", "--family", "raney"
        )
        assert code == 0
        assert out.startswith("positive definite")


class TestFactorize:
    def test_arcsine_factors(self, capsys):
        code, out, _ = run(capsys, "factorize", "--p", "2", "--r", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("dilation ")
        assert float(lines[-1].split()[1]) == pytest.approx(4.0)
        factors = [line.split() for line in lines[:-1]]
        assert all(line[0] == "factor" for line in factors)
        assert len(factors) == 2


class TestSample:
    def test_text_output_deterministic(self, capsys):
        args = ("sample", "--p", "2", "--r", "0", "--count", "4", "--seed", "11")
        code, first, _ = run(capsys, *args)
        assert code == 0
        assert len(first.strip().splitlines()) == 4
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_binary_matches_text(self, capsysbinary):
        code = main(
            ["sample", "--p", "3", "--r", "0", "--count", "5", "--seed", "3",
             "--binary"]
        )
        raw = capsysbinary.readouterr().out
        assert code == 0
        binary = np.frombuffer(raw, dtype="<f8")
        code = main(["sample", "--p", "3", "--r", "0", "--count", "5", "--seed", "3"])
        text = np.array(
            [float(line) for line in
             capsysbinary.readouterr().out.decode().strip().splitlines()]
        )
        assert code == 0
        assert np.allclose(binary, text, rtol=0, atol=1e-16)

    def test_bad_count(self, capsys):
        code, _, err = run(
            capsys, "sample", "--p", "2", "--r", "0", "--count", "0", "--seed", "1"
        )
        assert code == 1
        assert "error" in err
        code, out, err = run(
            capsys, "sample", "--p", "3", "--r", "0", "--count", "2", "--seed", "-1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "seed" in err


class TestConvVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "conv-verify", "--all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert all(line.endswith(" PASS") for line in lines)

    def test_default_runs_everything(self, capsys):
        code, out, _ = run(capsys, "conv-verify")
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_single_id(self, capsys):
        code, out, _ = run(capsys, "conv-verify", "--id", "boolean-row")
        assert code == 0
        assert out.strip() == "boolean-row PASS"

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "conv-verify", "--id", "nonsense")
        assert code == 1
        assert "known ids" in err

    def test_failing_identity_exits_two(self, capsys, monkeypatch):
        broken = (
            IdentityCheck("always-false", lambda: False),
        )
        monkeypatch.setattr("binomoment.cli.identity_suite", lambda: broken)
        code, out, _ = run(capsys, "conv-verify", "--all")
        assert code == 2
        assert out.strip() == "always-false FAIL"


#: SHA-256 of the certify --nmax 10 report without runtime_seconds, re-dumped
#: with indent=2; json round-trips floats exactly, so any changed digit shows
_CERTIFY_DIGESTS = {
    ("5/3", "-1"): "1b0bf508b414eb2819b5a60a97c88baf232b9830574cc7fc650ef62430f624c1",
    ("5/2", "1/2"): "e785ed9b8efeab202d27528b48a82ba3f49aa8c7b6e9132e159f5bc38ab28780",
    ("7/2", "-9/10"): "a728ff8c171883d8e5e9672bcffd881f7af0ddc6233308a4e2612a9fdc090c7e",
    ("11/3", "8/3"): "ac9589d2b0f9ac4c962ef38f7506988f2aafb3552ca1b9b2ad867528af8d5929",
    ("17/5", "0"): "9f69c3aa37109ee17fa6db9f42705bed0bd9801cdd3a7fef8d36ee6b293552e9",
    ("3", "1"): "f5857e069540d7ae18ac6d0d850d925d962eb47795778edd9f8be48a5d75a066",
}

#: SHA-256 of the bundled figure CSVs
_FIGURE_DIGESTS = {
    1: "13668d5eb8146f397638f82ebbdc2ad9f67c37dff39cc0eda3decdc3ee0e40ab",
    2: "984f3b36a7036dfff6bcbd571f2248d8ecf5604ec25ebf332b655196a7643c09",
    3: "b65257d4c261e460171b33e71160f5425fdfad8e4af4a6c0b49a01af6ce31749",
    4: "888723799f0d65a42c6e1f36d1e535f4e8dafadb6b6609dcf0ed2bdcc6732e35",
    5: "d002c5a3d30468d2ffdf8ec5714f814a480ccfe92f59b2061bb4adf551caefe8",
    6: "addcdd1bfe359653c96e87492b682c6379b6a98d790fbeea9b13434da7a6800f",
}


class TestCertify:
    def test_pass_emits_json(self, capsys):
        code, out, _ = run(capsys, "certify", "--p", "2", "--r", "1", "--nmax", "3")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["moments"]) == 4

    def test_outside_region_exits_one(self, capsys):
        code, _, err = run(capsys, "certify", "--p", "3/2", "--r", "1", "--nmax", "3")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("p,r", sorted(_CERTIFY_DIGESTS))
    def test_report_bits_are_pinned(self, capsys, p, r):
        # every field but the wall time: values, error estimates, convergence
        code, out, _ = run(capsys, "certify", "--p", p, "--r", r, "--nmax", "10")
        assert code == 0
        report = json.loads(out)
        report.pop("runtime_seconds")
        text = json.dumps(report, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == _CERTIFY_DIGESTS[(p, r)]


class TestWitness:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "witness", "--p", "3/2", "--r", "1")
        assert code == 0
        assert out.startswith("NegativeDensityPoint location=")

    def test_in_region_exits_one(self, capsys):
        code, _, err = run(capsys, "witness", "--p", "2", "--r", "0")
        assert code == 1
        assert "error" in err

    def test_inconclusive_exits_three(self, capsys, monkeypatch):
        def raise_inconclusive(params):
            raise InconclusiveWitnessError("budget exhausted")

        monkeypatch.setattr(
            "binomoment.cli.find_negativity_witness", raise_inconclusive
        )
        code, _, err = run(capsys, "witness", "--p", "3/2", "--r", "1")
        assert code == 3
        assert "inconclusive" in err


class TestFigure:
    def test_raster(self, tmp_path, capsys):
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "figure", "--id", "1", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p,r,verdict"
        assert len(lines) == 1 + 141 * 141
        verdicts = {line.split(",")[2] for line in lines[1:]}
        assert verdicts == {"MainBranch", "ReflectedBranch", "Outside"}

    def test_curves_bundled_config(self, tmp_path, capsys):
        out_path = tmp_path / "fig2.csv"
        code, _, _ = run(capsys, "figure", "--id", "2", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "p,r,x,V,has_negative"
        assert len(lines) == 1 + 5 * 200
        # the r = 0 row densities are nonnegative everywhere
        assert {line.split(",")[4] for line in lines[1:]} == {"0"}

    def test_negative_parts_flagged(self, tmp_path, capsys):
        out_path = tmp_path / "fig6.csv"
        code, _, _ = run(capsys, "figure", "--id", "6", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        assert {line.split(",")[4] for line in lines} == {"1"}

    @pytest.mark.parametrize("fig", sorted(_FIGURE_DIGESTS))
    def test_csv_bits_are_pinned(self, tmp_path, capsys, fig):
        out_path = tmp_path / f"fig{fig}.csv"
        code, _, _ = run(capsys, "figure", "--id", str(fig), "--out", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == _FIGURE_DIGESTS[fig]

    def test_params_override(self, tmp_path, capsys):
        config = {
            "9": {"kind": "curves", "points": 4, "pairs": [["2", "0"]]}
        }
        cfg_path = tmp_path / "custom.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "custom.csv"
        code, _, _ = run(
            capsys, "figure", "--id", "9", "--out", str(out_path),
            "--params", str(cfg_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5

    def test_unknown_id(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "figure", "--id", "42", "--out", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "error" in err

    def test_missing_params_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "figure", "--id", "2", "--out", str(tmp_path / "x.csv"),
            "--params", str(tmp_path / "absent.json"),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_params_file(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        code, _, err = run(
            capsys, "figure", "--id", "2", "--out", str(tmp_path / "x.csv"),
            "--params", str(cfg_path),
        )
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("entry", [
        {"kind": "curves"},
        {"kind": "curves", "pairs": [["2"]]},
        {"kind": "raster", "p_min": "1", "r_min": "0", "r_max": "1", "step": "1/2"},
        {"kind": "curves", "pairs": [["2", "x"]]},
        "nope",
    ], ids=["no-pairs", "short-pair", "raster-no-p_max", "bad-scalar", "not-an-object"])
    def test_malformed_params_entry(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"9": entry}))
        out_path = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "figure", "--id", "9", "--out", str(out_path),
            "--params", str(cfg_path),
        )
        assert code == 1
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_unwritable_out_path(self, tmp_path, capsys):
        out_path = tmp_path / "missing-dir" / "fig2.csv"
        code, _, err = run(capsys, "figure", "--id", "2", "--out", str(out_path))
        assert code == 1
        assert err.startswith("error: ")
        assert not out_path.exists()


class TestUsage:
    def test_missing_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "moments", "--p", "2", "--n", "3")
        assert code == 1
        assert "usage" in err

    def test_bad_scalar_exits_one(self, capsys):
        code, _, err = run(capsys, "moments", "--p", "abc", "--r", "0", "--n", "3")
        assert code == 1
        assert "usage" in err
        # non-finite values and zero denominators are usage errors on every
        # command that reads a scalar, not tracebacks
        commands = (
            ("moments", "--n", "3"),
            ("classify", "--family", "binomial"),
            ("density", "--x", "1"),
            ("certify", "--nmax", "2"),
            ("witness",),
            ("series", "--order", "3"),
            ("sample", "--count", "2"),
            ("factorize",),
        )
        for bad in ("nan", "inf", "1e400", "1/0", "-3/0"):
            for name, *rest in commands:
                for argv in ([name, "--p", bad, "--r", "0", *rest],
                             [name, "--p", "7/2", "--r", bad, *rest]):
                    code, out, err = run(capsys, *argv)
                    assert (code, out) == (1, ""), argv
                    assert "error: " in err and "usage" in err, argv
        huge = "1" + "0" * 400  # exact, but past the float range
        for flag, value in (("--x", "nan"), ("--x", huge), ("--grid", "1/0,2,3"),
                            ("--grid", f"{huge},2,3"), ("--grid", f"1,{huge},3")):
            code, out, err = run(capsys, "density", "--p", "7/2", "--r", "1", flag, value)
            assert (code, out) == (1, "") and "error: " in err, (flag, value)
