"""End-to-end tests of the command-line interface."""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import binomoment
from binomoment.cli import main
from binomoment.core import MAX_K
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

    def test_pole_tolerance_is_the_gamma_one(self, capsys):
        # r within 2.5e-9 of 3/2 puts a gamma argument of a Slater coefficient
        # inside gamma_real's pole tolerance, so the term is the pole's zero
        values = []
        for r in ("1.499999975", "1.4999999975", "3/2"):
            code, out, err = run(capsys, "density", "--p", "5/2", "--r", r, "--x", "1")
            assert (code, err) == (0, ""), r
            values.append(float(out))
        assert values[0] == pytest.approx(values[2], rel=1e-7)
        assert values[1] == pytest.approx(values[2], rel=1e-7)

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
    ("5/3", "-1"): "b675d9711b1a5993c5b976f1e8fc44d6adbf6dcf497d2251998457f65af2543e",
    ("5/2", "1/2"): "855a61746c80c6dc7a0f06713e7d61f1c54e053aa564626c1ee32512cd7662dc",
    ("7/2", "-9/10"): "3c8785cb043e174046e606ae33b2c69d279f3108b8fbfbb288711b84df23a063",
    ("11/3", "8/3"): "a24935c1c084ef6f7627a8c80fd43d4cd9db6cb4e527f14c9d92711e9b7b63bd",
    ("17/5", "0"): "c24811b37687f51f82ee72a36079f54de2d68459a3b6e61cdd3a1db6269e634c",
    ("3", "1"): "f5857e069540d7ae18ac6d0d850d925d962eb47795778edd9f8be48a5d75a066",
}

#: SHA-256 of the bundled figure CSVs
_FIGURE_DIGESTS = {
    1: "13668d5eb8146f397638f82ebbdc2ad9f67c37dff39cc0eda3decdc3ee0e40ab",
    2: "d05edec28f318f53a5f72c80cad7e9eec5f79f631c6011b248793379fc151ca7",
    3: "98a250213a16fe86121756560f690eb67ac4b52cbfa63ecda6c95b72199c98ea",
    4: "a3adb0cb52adeb25d91c24ea1f38a1f9f73e15e730699879114a415cf06cec78",
    5: "79a9422c47f25290529412011d55cc35ce7ef7d37928b28998a6add139576f45",
    6: "0c1cb4c7bde910225298de26aa1782d35524a8b6355cd3dcc155fa5fb737a7e0",
}


#: SHA-256 of the stdout of exact (and one float) commands as the generic
#: Fraction loops printed them; the integer kernels must keep every byte
_EXACT_DIGESTS = {
    "moments --p 3 --r 1 --n 300":
        "6f990146b573132ed53dddcd33944dcee35664486325fdc08e70626922d170cd",
    "moments --p 7/2 --r -1/2 --n 200 --raney":
        "194198e904135a5778a2de32ccf4cf110fed1eb3e7e05e15e31e15b578ddf613",
    "series --p 5/3 --r 1/3 --order 200 --json":
        "f8040163c20a8080afc72bab13d46510cfc872b48db63ffaa40bd4652af0aa80",
    "series --p 3 --r 0.123456789 --order 40 --json":
        "edd3df6a0144933b62b9e8dcfc6f32b24a5d128b4aed503c14e7e484507d9a0f",
    "conv-verify --all":
        "7bac21999ff1a35d58bf1700b607dfe6975f0603868d37cd71c5135ddd450e2d",
    "witness --p 3/2 --r 1":
        "673c256b78f58551e9df725c2aa07c62cae77dd70aa9732054e061b26a5c4484",
}


#: SHA-256 of the stdout of ``density`` on the elementary rows: a grid
#: across (0, c), the smallest subnormal abscissa and c (1 - 1e-12)
_DENSITY_DIGESTS = {
    "density --p 2 --r 1 --grid 0.000001,3.999999,801":
        "426bd1672e4f8c779e2457fc7ee7a8e49ad4918df0d7d705a4fda068de512e27",
    "density --p 2 --r 1 --x 5e-324":
        "589d38e0f3a87f58de5770fcb1252ac281dc3e9753a0862ae9c25509aeb79e35",
    "density --p 2 --r 1 --x 3.999999999996":
        "a27221c70deac38065c4a217d5854abb33c95248829fdc1180cd3415822e27b7",
    "density --p 2 --r 1/2 --grid 0.000001,3.999999,801":
        "358b1da3f86eac28473dd9c1b049036b8c575b39c9f3971bdd3290b4a51aa0c3",
    "density --p 2 --r 1/2 --x 5e-324":
        "b784a79724655e0b7eb8eb97fee67702517ce0cf81254d84bfd60e14ffb130ea",
    "density --p 2 --r 1/2 --x 3.999999999996":
        "6969289cbeecec9051cb491da20d410facf51498e8e4f4de83de46e9231d118e",
    "density --p 3 --r 0 --grid 0.000001,6.749999,801":
        "60fc8cf76caf8b76f35c44b2e06256c801f7e240857bb340afe19342c7ae3171",
    "density --p 3 --r 0 --x 5e-324":
        "186e8fb520c216c02924750c11e2c1928dc0c606fb2d885cf40f88d1140cfc72",
    "density --p 3 --r 0 --x 6.74999999999325":
        "6abb4d90b1c5953114ff74c052d646890662f6c1bc4086d0723995548653d452",
    "density --p 3 --r 1 --grid 0.000001,6.749999,801":
        "3b3d0568391837aeb61a5b72167705e69fca04a543fe68394be143fee8a47c18",
    "density --p 3 --r 1 --x 5e-324":
        "7bbcd83fdd33c2ba8b4e489f946c3dc79af7f0127c91930183e2e4c7884be115",
    "density --p 3 --r 1 --x 6.74999999999325":
        "f38995de90030a004089461029a1f71c08fe7d7b79507e409b0e88aed01ef7bd",
    "density --p 3 --r 2 --grid 0.000001,6.749999,801":
        "de3d6d005242f4c9ff7f183bee7c6a41669429a4b183bdda4daff761f098f094",
    "density --p 3 --r 2 --x 5e-324":
        "87e7ce79c26a3d35706e62a6d9baa047a662bee3f0cd0239bdd31b4f53d78bf7",
    "density --p 3 --r 2 --x 6.74999999999325":
        "791e5dd0402f6a1ee15f1bc678b95a66472794eedf54ca752ebe54a477756750",
    "density --p 3/2 --r -1/2 --grid 0.000001,2.598075,801":
        "c0812a6d03f2078c8aa09007d9f05edb2bc674408345b6be36c03c9f3df613e2",
    "density --p 3/2 --r -1/2 --x 5e-324":
        "3b078c5ad5e015b54b6224b20e732e057a0145fdfc85110af1d79fc15e0e4a1b",
    "density --p 3/2 --r -1/2 --x 2.598076211350718":
        "38860643282f1be4d044f0c9f631619208436e0962bc3b888c6f1d65ec88668a",
    "density --p 3/2 --r 0 --grid 0.000001,2.598075,801":
        "417e0330871ed16894f2ec70309c9af4b3c127b9f2331cffe75b41a3ce12d5f5",
    "density --p 3/2 --r 0 --x 5e-324":
        "890fed963516ee38d3a89eef4af6bb18a856d882baf0146043828fd779802528",
    "density --p 3/2 --r 0 --x 2.598076211350718":
        "2bc7d3509a7ed10b0373df2cae3c49561e132920eaf57b97be7fb5c7dbf4f479",
    "density --p 3/2 --r 1/2 --grid 0.000001,2.598075,801":
        "9a6525fcca5ee1fcb5c48c968be95a9fac8a73f769c9db4f24fe46f519e92b46",
    "density --p 3/2 --r 1/2 --x 5e-324":
        "0e72331cfed568ae411ea48d43d4339fbdc4545e3b7ba2d7e7e34be97b2453ea",
    "density --p 3/2 --r 1/2 --x 2.598076211350718":
        "fa6fec57721fdcd3d0726cd4ca5c7dc04a7b9ffae8e5098a0aea68377b6db2ff",
}


@pytest.mark.parametrize("command", sorted(_DENSITY_DIGESTS))
def test_density_output_bits_are_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _DENSITY_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(_EXACT_DIGESTS))
def test_exact_output_bits_are_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_DIGESTS[command]


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

    def test_moment_past_the_float_range_fails_fast(self, capsys, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("binomoment.verify.integrate_many", no_quadrature)
        code, out, err = run(capsys, "certify", "--p", "7/2", "--r", "1/2", "--nmax", "400")
        assert (code, out) == (1, "")
        assert err == "error: moment n = 341 exceeds the float range\n"

    @pytest.mark.parametrize("p,r", sorted(_CERTIFY_DIGESTS))
    def test_report_bits_are_pinned(self, capsys, p, r):
        # every field but the wall time: values, error estimates, convergence
        code, out, _ = run(capsys, "certify", "--p", p, "--r", r, "--nmax", "10")
        assert code == 0
        report = json.loads(out)
        report.pop("runtime_seconds")
        text = json.dumps(report, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == _CERTIFY_DIGESTS[(p, r)]


    def test_huge_integer_p_refused_before_any_power(self):
        # k = 10**200 would start the big-int power k**k; a child process
        # with a memory cap and a timeout keeps a regression from taking
        # the test run down with it
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(binomoment.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from binomoment.cli import main; sys.exit(main())",
             "certify", "--p", "1e200", "--r", "0", "--nmax", "3"],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=cap_memory,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: p = k/l needs k <= {MAX_K}\n"


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

    @pytest.mark.parametrize("argv", [
        "moments --p 7/2 --r 0.1234567 --n 400",
        "moments --p 7/2 --r 0.1234567 --n 400 --raney",
        "series --p 7/2 --r 0.1234567 --order 400",
        "moments --p 1e300 --r 1 --n 3",
    ])
    def test_float_moments_past_the_float_range(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "exceeds the float range" in err

    @pytest.mark.parametrize("argv", [
        "density --p 301/2 --r 0 --x 1",
        "certify --p 301/2 --r 0 --nmax 2",
        "witness --p 1e30 --r -5",
        "density --p 1e30 --r 0 --x 1",
        "sample --p 1e30 --r 0 --count 2",
        "factorize --p 1e30 --r 0",
        "witness --p 3/2 --r -1000000",
        "density --p 17/5 --r 1000 --x 1",
    ])
    def test_large_parameters_fail_with_error(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert time.perf_counter() - t0 < 2.0
