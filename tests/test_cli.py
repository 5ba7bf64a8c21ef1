"""End-to-end tests of the command-line interface."""

import ast
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
from binomoment.core import MAX_K, classify_binomial, parse_scalar
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

    @pytest.mark.parametrize("r,x", [("11/2", "1e-100"), ("5", "1e-100"), ("30", "4e-12")])
    def test_quadratic_form_past_the_power_range(self, capsys, r, x):
        # x^(1-r) (4-x) overflows at p = 2, r > 1 and small x, and the density
        # is finite: its root comes from the log, as where the product underflows
        code, out, err = run(capsys, "density", "--p", "2", "--r", r, "--x", x)
        assert (code, err) == (0, "")
        if r == "11/2":
            mp = pytest.importorskip("mpmath")
            with mp.workdps(50):
                xm, rm = mp.mpf(x), mp.mpf(11) / 2
                want = mp.cos(rm * mp.acos(mp.sqrt(xm / 4))) / (
                    mp.pi * mp.sqrt(xm ** (1 - rm) * (4 - xm)))
            assert float(out) == pytest.approx(float(want), rel=1e-12)
        assert math.isfinite(float(out))

    def test_curve_figure_sweeps_past_the_power_range(self, tmp_path, capsys):
        # the negativity sweep toward zero reaches 4e-12 at p = 2, r = 30
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"9": {"kind": "curves", "points": 3, "pairs": [["2", "30"]]}}))
        out = tmp_path / "fig.csv"
        assert run(capsys, "figure", "--id", "9", "--out", str(out), "--params", str(cfg)) == (
            0, "", "")
        rows = out.read_text().splitlines()
        assert rows[0] == "p,r,x,V,has_negative" and len(rows) == 4

    @pytest.mark.parametrize("argv,r", [
        (["density", "--p", "5/2", "--r", "1e20", "--x", "1"], "1e+20"),
        (["density", "--p", "5/2", "--r", "1e17", "--x", "1"], "1e+17"),
        (["witness", "--p", "5/2", "--r", "1e300"], "1e+300"),
    ])
    def test_prefactor_past_the_float_range(self, capsys, argv, r):
        # every Slater coefficient is a pole's zero and the prefactor is inf:
        # an error, not the nan of inf * 0
        assert run(capsys, *argv) == (
            1, "", f"error: density prefactor at p = 5/2, r = {r} overflows\n")

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


#: SHA-256 of ``sample`` stdout, binary at counts around one chunk and past
#: three, text at count 5, as the one-thread sampler printed them; the
#: parallel chunks must keep every byte
_SAMPLE_DIGESTS = {
    "sample --p 3 --r 0 --count 1 --seed 0 --binary":
        "0acaa36e0da172eaa403fcf67d718b8e90c9f64014fd4afc3b83ad8f30c6ca88",
    "sample --p 3 --r 0 --count 65535 --seed 0 --binary":
        "81c7e50fd4e8dec030871fb941278aa8446e13b680ba5906949974c9c6a0694b",
    "sample --p 3 --r 0 --count 65536 --seed 0 --binary":
        "ac2b9e8870f3fee003fb4ca69c2968926713bc66293658b90f58a80fb6111b72",
    "sample --p 3 --r 0 --count 65537 --seed 0 --binary":
        "1a044d010d98fa46bd9a34eb10500708f4bc886ad46e8a4cf8fa432834d3e4c1",
    "sample --p 3 --r 0 --count 200001 --seed 0 --binary":
        "e637f6445cc2f43d3c22381a425f802f85d1ad9cbc995c4deabee96cbf0dfaa5",
    "sample --p 3 --r 0 --count 5 --seed 0":
        "aa572235317e41a1e45f36b8ae1e695961821ba787f3959636eb4f94a14350ae",
    "sample --p 3 --r 0 --count 1 --seed 7 --binary":
        "221201e617de2de87633c3199a74c508ce634098723bcb42c1e3cd7e89e72e68",
    "sample --p 3 --r 0 --count 65535 --seed 7 --binary":
        "957dbb125056471633fb717fd8d71049bcafde596ff1e9e073d1ba496c5248b6",
    "sample --p 3 --r 0 --count 65536 --seed 7 --binary":
        "5a2e54441d7d0adf5dd53e04c0de8abd9927eda193e26e9372f6bf12cba3a1a6",
    "sample --p 3 --r 0 --count 65537 --seed 7 --binary":
        "69389c9b7f2dc85c2249a77928eb0bf0a70ec5e5d076c8915c496f7311e62ff4",
    "sample --p 3 --r 0 --count 200001 --seed 7 --binary":
        "fd4fe3ae69791695c739043d10dcae8caca2a082bfc98dab4d99b75b1c86d270",
    "sample --p 3 --r 0 --count 5 --seed 7":
        "a654fe92e97964a4f344602cb86f8b5300c6f6852dcd1483711b242fa376f591",
    "sample --p 7/2 --r 1 --count 1 --seed 0 --binary":
        "8686882fd80b8342844c1317b72f6aebb4af761295e603d5b79b30bec37a772c",
    "sample --p 7/2 --r 1 --count 65535 --seed 0 --binary":
        "f558498bc975bf409828a8bfce989ec7fdf77b739d2a4971a689f0ff5fc88929",
    "sample --p 7/2 --r 1 --count 65536 --seed 0 --binary":
        "fadc44a8671bb0361668d74fc746a6517a171c35d2b5173f98ed3c8d4b94392c",
    "sample --p 7/2 --r 1 --count 65537 --seed 0 --binary":
        "c817758fa213cfc336dadcb4ad41dbafdb0df010ac7249e583f07e2b2b4fdcae",
    "sample --p 7/2 --r 1 --count 200001 --seed 0 --binary":
        "fcedeeb3cc53306a241ef13fd3096d6fffe29aea58f23086c6c78b8185762d22",
    "sample --p 7/2 --r 1 --count 5 --seed 0":
        "d42986c4be8d9021b81ed12537e98188c8280e594c587d704c0d392eeafd65b1",
    "sample --p 7/2 --r 1 --count 1 --seed 7 --binary":
        "319c4fdb62ec9290d1611156e71037bb60c01ba317bdbcbc1e394f75a4e9c461",
    "sample --p 7/2 --r 1 --count 65535 --seed 7 --binary":
        "d297a333144d1df3158ff389337b42eb5bb78c7fb592c67359506f71df8c99b0",
    "sample --p 7/2 --r 1 --count 65536 --seed 7 --binary":
        "bca3494932a29cd8a6fef7937db1329fbe52392489956fa2bc42830cb82d7761",
    "sample --p 7/2 --r 1 --count 65537 --seed 7 --binary":
        "b9b9c7bc422d2630d699ea5148b806f126d3800c7a7d60ca06841c69f3f0415d",
    "sample --p 7/2 --r 1 --count 200001 --seed 7 --binary":
        "7fa873c8b16f5a3998e4559ff59102d095a7ae440c4e01f9a5e40477ba0394f9",
    "sample --p 7/2 --r 1 --count 5 --seed 7":
        "1352986044260e6f82674b9be29ca68c838fc028060d059b5f8f85daf30ab1d5",
    "sample --p 5/2 --r -1/2 --count 1 --seed 0 --binary":
        "9391db52c7bec73e7e96767a24740d351411ae1f7cf49e4aa1e38472eca52632",
    "sample --p 5/2 --r -1/2 --count 65535 --seed 0 --binary":
        "0e543ee1d578231558b8de44b030b95bf4a29faf8c9c9e9dfd1e6147197e0767",
    "sample --p 5/2 --r -1/2 --count 65536 --seed 0 --binary":
        "1e2f6f224abadcf41f9a9e04882015341cbfced9d298e2d955854aa3a6b256e6",
    "sample --p 5/2 --r -1/2 --count 65537 --seed 0 --binary":
        "4d7270b123a9c218577d3982eaef9b53847c6799c551f62f9b6db30e3f60bd48",
    "sample --p 5/2 --r -1/2 --count 200001 --seed 0 --binary":
        "09180085140e7aa4fe232da8f1f7e69e28a75533b8df95b6a69dff49fc4d34cb",
    "sample --p 5/2 --r -1/2 --count 5 --seed 0":
        "dd4b254c207c7aa8cf3e78dfdac12a89ee23df6a1bf28c86dbbc1a51ac45c297",
    "sample --p 5/2 --r -1/2 --count 1 --seed 7 --binary":
        "9616f18544ded5dd8db66137595c56e25419e723a55454fe80c6808743bc2e7a",
    "sample --p 5/2 --r -1/2 --count 65535 --seed 7 --binary":
        "13c797ceb1e37c78014a473760e6bfdec4d22abbbe451ee6604e0532d6b143d1",
    "sample --p 5/2 --r -1/2 --count 65536 --seed 7 --binary":
        "548ac68deda1380b6a312a9aae8b1ef4473afeebfd5e60b3b3137c94871dc293",
    "sample --p 5/2 --r -1/2 --count 65537 --seed 7 --binary":
        "38188a798ce9fa97a300db309dace879d0a6d12303097e8b7a7c18d1cc6defac",
    "sample --p 5/2 --r -1/2 --count 200001 --seed 7 --binary":
        "64275b82ec8ed5af2adef720d27cb57384349499bbb1fa4ee4768d5b8aa7d13b",
    "sample --p 5/2 --r -1/2 --count 5 --seed 7":
        "45324e50ed74299d01f57c3309698833677c8c415b13dc9e98937a6489c571d6",
    "sample --p 17/5 --r 0 --count 1 --seed 0 --binary":
        "7df46a8e61056841b6d7beeb963f3f06478090d41c0e72c7f819e5664270283d",
    "sample --p 17/5 --r 0 --count 65535 --seed 0 --binary":
        "da5deec999d1ee5871c55bb78a0d963890a479e93b49c91b5561ebf70110e61e",
    "sample --p 17/5 --r 0 --count 65536 --seed 0 --binary":
        "f3a94010a0848cafade5382a310a868b5b121949b0b7bf7398b930b16036e86c",
    "sample --p 17/5 --r 0 --count 65537 --seed 0 --binary":
        "1535518c92397337bfd35f9948b49df2fde91736153718c9b5c844d073f60fb4",
    "sample --p 17/5 --r 0 --count 200001 --seed 0 --binary":
        "13c376b1250c6a5b8ce8960dcbe6c86c0ee4201d93537743f6ba866f83b6e9a3",
    "sample --p 17/5 --r 0 --count 5 --seed 0":
        "572601161766b97bbf09d6c6725701ce5ac352e70153885ee8dfa6c05598fe3f",
    "sample --p 17/5 --r 0 --count 1 --seed 7 --binary":
        "7910030fe067dc30497b6ce5a237b19fce1856fa7c6da39e2d6b1ff89def953f",
    "sample --p 17/5 --r 0 --count 65535 --seed 7 --binary":
        "1beffefe20f9aeba34eb4b41155be17b6eb4d430f636bf54e7b2cbec4ac06885",
    "sample --p 17/5 --r 0 --count 65536 --seed 7 --binary":
        "b6f30bc91f8a1967ff899dd6570ec4011c1ae6f58544bc98ed9e8a2f2f73a904",
    "sample --p 17/5 --r 0 --count 65537 --seed 7 --binary":
        "668b8d77ddc09203c06f006b7d651ace2e05b811e92beee9a6a1f9b2436585b4",
    "sample --p 17/5 --r 0 --count 200001 --seed 7 --binary":
        "a25aaaa0972483ea081ded38baa7c0b23f58ba967d5110123c062f4d2e600822",
    "sample --p 17/5 --r 0 --count 5 --seed 7":
        "706ba27d883c8e1d98c3c074a0ffc4620270152a594905f8da34561be7199b06",
}


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

    @pytest.mark.parametrize("command", sorted(_SAMPLE_DIGESTS))
    def test_output_bits_are_pinned(self, capsysbinary, command):
        code = main(command.split())
        assert code == 0
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == _SAMPLE_DIGESTS[command]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_bytes_do_not_depend_on_the_worker_count(self, capsysbinary, monkeypatch, workers):
        argv = ["sample", "--p", "17/5", "--r", "0", "--count", "200001", "--seed", "7",
                "--binary"]
        monkeypatch.setattr("binomoment.mellin._usable_cpus", lambda: workers)
        assert main(argv) == 0
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == _SAMPLE_DIGESTS[" ".join(argv)]

    def test_impossible_count_fails_cleanly(self, capsys):
        # numpy refuses 8e13 bytes at once, before any chunk is drawn
        code, out, err = run(
            capsys, "sample", "--p", "3", "--r", "0", "--count", "10000000000000"
        )
        assert (code, out) == (1, "")
        assert err == "error: cannot allocate 10000000000000 draws\n"

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
        "a225281055da7fa246ef6a2e0d7e9abc1efb9213ce6245aed19ffdce2f93c785",
    "density --p 2 --r 1 --x 5e-324":
        "e623523ed19ce73e9a75315aba4871184e02a15e8b0023a2652931bd536ed35e",
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

    def test_unconverged_series_names_the_abscissa(self, capsys):
        # at k = 128 the direct series near z = 0.89 leave the float range
        # before they converge; the error names z = (x/c)**l and x itself
        t0 = time.perf_counter()
        code, out, err = run(capsys, "certify", "--p", "128", "--r", "0", "--nmax", "1")
        assert (code, out) == (1, "")
        assert err == ("error: 128F127 series terms leave the float range"
                       " at z = 0.8903037194916001 (x = 308.56150298537915)\n")
        assert time.perf_counter() - t0 < 4.0

    def test_unconverged_series_at_one_moment(self, capsys):
        # one moment fails on the same node as two
        code, out, err = run(capsys, "certify", "--p", "128", "--r", "0", "--nmax", "0")
        assert (code, out) == (1, "")
        assert err == ("error: 128F127 series terms leave the float range"
                       " at z = 0.8903037194916001 (x = 308.56150298537915)\n")


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
            "binomoment.verify.find_negativity_witness", raise_inconclusive
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

    @pytest.mark.parametrize("bounds", [
        ("-3/2", "2", "-5/2", "3/2", "1/4"),
        ("-1.5", "2", "-2.5", "1.5", "0.25"),
        ("-1.3", "1.7", "-1.9", "0.9", "0.1"),
        ("-2", "2.5", "-3", "2", "0.1234567"),
    ], ids=["exact", "exact-decimals", "tenths", "float-step"])
    def test_raster_cells_match_classify(self, tmp_path, capsys, bounds):
        # the per-cell classify_binomial loop the raster replaced, as the
        # reference for exact, decimal and float grids
        keys = ("p_min", "p_max", "r_min", "r_max", "step")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"1": {"kind": "raster", **dict(zip(keys, bounds))}}))
        out_path = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "figure", "--id", "1", "--out", str(out_path),
                         "--params", str(config))
        assert code == 0
        p_min, p_max, r_min, r_max, step = (parse_scalar(b) for b in bounds)
        expected = ["p,r,verdict"]
        for i in range(int((p_max - p_min) / step) + 1):
            p = p_min + i * step
            for j in range(int((r_max - r_min) / step) + 1):
                r = r_min + j * step
                verdict = classify_binomial(p, r).branch.value
                expected.append(f"{float(p):g},{float(r):g},{verdict}")
        assert out_path.read_text().splitlines() == expected

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

    @pytest.mark.parametrize("argv,message", [
        *((f"{command} --p {p} --r 0", "support endpoint requires p > 1")
          for command in ("density --x 1", "factorize", "sample --count 3")
          for p in ("1", "1/2", "0", "-2")),
        # in-region pairs, so the region check lets them through to the gate
        *((f"certify --p {p} --r {r} --nmax 2", "support endpoint requires p > 1")
          for p, r in (("1", "0"), ("0", "0"), ("-2", "-1"))),
        # out-of-region pairs, for the same reason
        *((f"witness --p {p} --r {r}", "support endpoint requires p > 1")
          for p, r in (("1/2", "3"), ("1", "5"))),
        *((f"{command} --p {MAX_K + 1} --r 0", f"p = k/l needs k <= {MAX_K}")
          for command in ("density --x 1", "factorize", "sample --count 3", "certify --nmax 2")),
    ])
    def test_p_gate_has_one_message_per_rule(self, capsys, argv, message):
        # support_endpoint is the only test of p, so every command says the same
        assert run(capsys, *argv.split()) == (1, "", f"error: {message}\n")


def test_cli_import_leaves_the_thread_pool_unimported():
    # the sampler imports concurrent.futures when it runs; at import time
    # it would add to the start-up of every command
    src = str(Path(binomoment.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, binomoment.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


#: the numeric layer and what it imports; the exact commands load none of it
_NUMERIC_MODULES = ("numpy", "binomoment.slater", "binomoment.closedform",
                    "binomoment.quadrature", "binomoment.verify", "binomoment.mellin")

_BOUNDARY_PROBE = """
import contextlib, io, json, sys
from binomoment.cli import main

def loaded():
    return [m for m in json.loads(sys.argv[1]) if m in sys.modules]

seen = {"import": loaded()}
for argv in (["moments", "--p", "7/2", "--r", "1", "--n", "20"],
             ["series", "--p", "3", "--r", "1", "--order", "10", "--json"],
             ["classify", "--p", "3/2", "--r", "1", "--family", "binomial"],
             ["conv-verify"],
             ["certify", "--p", "2", "--r", "1", "--nmax", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen[argv[0]] = [code, loaded()]
print(json.dumps(seen))
"""


def _run_cli_child(*args, **kwargs) -> subprocess.CompletedProcess:
    src = str(Path(binomoment.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    # argparse wraps help text to COLUMNS
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, timeout=60,
                          env=env, **kwargs)


def test_exact_commands_leave_the_numeric_layer_unimported():
    # numpy is most of a fresh process's start-up; the exact commands need
    # none of it.  The certify run, last, loads the whole layer at once: the
    # bench tracer looks up every traced module once a round has run
    proc = _run_cli_child(_BOUNDARY_PROBE, json.dumps(_NUMERIC_MODULES), text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for step in ("moments", "series", "classify", "conv-verify"):
        assert seen[step] == [0, []], step
    assert seen["import"] == []
    assert seen["certify"] == [0, list(_NUMERIC_MODULES)]


#: modules a fresh ``import binomoment.cli`` leaves unloaded
_START_UP_UNLOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json",
                      "binomoment.figure", "numpy")

_START_UP_PROBE = """
import ast, contextlib, io, sys
held = set(sys.modules)  # what python -c pass holds, site's preloads included
from binomoment.cli import main

def loaded():
    return [m for m in sys.argv[1].split(",") if m in sys.modules and m not in held]

seen = [loaded()]
for argv in ast.literal_eval(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([argv[0], code, loaded()])
print(seen)
"""


def _start_up_probe(*commands) -> list:
    # the modules of _START_UP_UNLOADED that a fresh process holds after
    # importing cli and then after each command, run in that order
    proc = _run_cli_child(_START_UP_PROBE, ",".join(_START_UP_UNLOADED), repr(commands),
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_no_dataclasses_json_or_figure_code(tmp_path):
    # start-up is most of an exact command's time: the records are plain
    # classes, json loads with the commands that print it, the figure code
    # with figure, and IdentityCheck, the one dataclass, with the identity suite
    imported, moments, classify, conv_verify, figure = _start_up_probe(
        ["moments", "--p", "7/2", "--r", "1", "--n", "20"],
        ["classify", "--p", "3/2", "--r", "1", "--family", "binomial"],
        ["conv-verify"],
        ["figure", "--id", "1", "--out", str(tmp_path / "raster.csv")])
    assert imported == []
    assert moments == ["moments", 0, []]
    assert classify == ["classify", 0, []]
    assert conv_verify[:2] == ["conv-verify", 0] and "dataclasses" in conv_verify[2]
    assert not {"json", "binomoment.figure"} & set(conv_verify[2])
    # the raster figure runs without numpy
    assert figure[:2] == ["figure", 0]
    assert {"json", "binomoment.figure"} <= set(figure[2]) and "numpy" not in figure[2]
    # the numeric layer's records are no dataclasses either
    _, density = _start_up_probe(["density", "--p", "7/2", "--r", "1", "--x", "0.7"])
    assert density[:2] == ["density", 0] and "numpy" in density[2]
    assert not {"dataclasses", "json", "binomoment.figure"} & set(density[2])


_EMPTY = hashlib.sha256(b"").hexdigest()

#: the usage line of the whole program, printed before every error that is
#: not one command's own
_TOP_USAGE = (
    b"usage: binomoment [-h]\n"
    b"                  {moments,series,density,classify,factorize,sample,conv-verify,"
    b"certify,witness,figure}\n"
    b"                  ...\n"
)

_COMMAND_CHOICES = (b"(choose from 'moments', 'series', 'density', 'classify', 'factorize', "
                    b"'sample', 'conv-verify', 'certify', 'witness', 'figure')\n")

#: stdout digest of each command's --help
_HELP_DIGESTS = {
    "moments": "e845109cf54360fe9556b8326858b672063377f4240939dea2a5973801e8440b",
    "series": "e2bdc6ac9c9b64dab129fcd593226dba925c6c25c04aeeb4cf81f648bb982900",
    "density": "ace869f0d7e25b96f490ad4f0fdfb61c79c81d896e9d1bd3558fb35341c4d352",
    "classify": "2d1ad0957f6c609b800b896804faf13d8ca2dfec5a2c69a02012bfcbb25da496",
    "factorize": "3509a71218e9258e5e71db3a58bb8a4f19761edfd4f9769f96e61c1339b9f512",
    "sample": "597b5a7c28c0912f197c1b3203976d5bfd72864563d5e1923b67b731c65b13d5",
    "conv-verify": "a2d6b883ab2d12f7e9d509e5a6f1aee0f608ff640047a4ed1dc47132ba497cc5",
    "certify": "f7ab05fa5133f06d72799d8e0911d47e7d1431ff814b22b92b07fd01dceeeeaf",
    "witness": "df58488c4c484d1e6f768278156e2edc0bc28d2827913b2df82e5b7c7a83cdf4",
    "figure": "bcf08cd61b49f087f6408eb4529f3e9c164dbf9f6ac0552b8ffd4bf2176616dc",
}

#: one missing or clashing argument per command after ``moments``: (argv, stderr)
_COMMAND_ERRORS = [
    (["series", "--p", "2", "--r", "1"],
     b"usage: binomoment series [-h] --p P --r R --order ORDER [--json]\n"
     b"error: the following arguments are required: --order\n"),
    (["density", "--p", "2", "--r", "1"],
     b"usage: binomoment density [-h] --p P --r R (--x X | --grid A,B,COUNT)\n"
     b"error: one of the arguments --x --grid is required\n"),
    (["classify", "--p", "2", "--r", "1"],
     b"usage: binomoment classify [-h] --p P --r R --family {binomial,raney}\n"
     b"error: the following arguments are required: --family\n"),
    (["factorize", "--r", "1"],
     b"usage: binomoment factorize [-h] --p P --r R\n"
     b"error: the following arguments are required: --p\n"),
    (["sample", "--p", "2", "--r", "1"],
     b"usage: binomoment sample [-h] --p P --r R --count COUNT [--seed SEED]\n"
     b"                         [--binary]\n"
     b"error: the following arguments are required: --count\n"),
    (["conv-verify", "--all", "--id", "x"],
     b"usage: binomoment conv-verify [-h] [--all | --id ID]\n"
     b"error: argument --id: not allowed with argument --all\n"),
    (["certify", "--p", "2", "--r", "1"],
     b"usage: binomoment certify [-h] --p P --r R --nmax NMAX\n"
     b"error: the following arguments are required: --nmax\n"),
    (["witness", "--p", "2"],
     b"usage: binomoment witness [-h] --p P --r R\n"
     b"error: the following arguments are required: --r\n"),
    (["figure", "--id", "2"],
     b"usage: binomoment figure [-h] --id ID --out OUT [--params PARAMS]\n"
     b"error: the following arguments are required: --out\n"),
]


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys):
    # the parser is built on the first call of main and reused by the later
    # calls, whose help, usage and error text read as from a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    binomoment.cli._parser.cache_clear()
    assert run(capsys, "certify", "--p", "5/2", "--r", "1/2", "--nmax", "1", "--bogus") == (
        1, "", (_TOP_USAGE + b"error: unrecognized arguments: --bogus\n").decode())
    assert run(capsys, "moments", "--p", "3", "--r", "0", "--n", "2") == (0, "1 3 15\n", "")
    assert run(capsys, "certify", "--p", "2", "--r", "1", "--nmax", "2")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == _HELP_DIGESTS["certify"]
    assert binomoment.cli._parser.cache_info().misses == 1


@pytest.mark.parametrize("argv,code,out_digest,err", [
    (["--help"], 0, "7e5986ebb43d7cb58398896ba0934304e7f93cf3fddd531409db183e6c03c8f8", b""),
    *[([name, "--help"], 0, digest, b"") for name, digest in _HELP_DIGESTS.items()],
    (["certify", "--p", "5/2", "--r", "1/2", "-h"], 0, _HELP_DIGESTS["certify"], b""),
    (["moments", "--p", "2", "--n", "3"], 1, _EMPTY,
     b"usage: binomoment moments [-h] --p P --r R --n N [--raney]\n"
     b"error: the following arguments are required: --r\n"),
    *[(argv, 1, _EMPTY, err) for argv, err in _COMMAND_ERRORS],
    # arguments a command does not take are reported with the program's usage
    (["certify", "--p", "5/2", "--r", "1/2", "--nmax", "1", "--bogus"], 1, _EMPTY,
     _TOP_USAGE + b"error: unrecognized arguments: --bogus\n"),
    (["certify", "--p", "5/2", "--r", "1/2", "--nmax", "1", "stray"], 1, _EMPTY,
     _TOP_USAGE + b"error: unrecognized arguments: stray\n"),
    (["bogus"], 1, _EMPTY,
     _TOP_USAGE + b"error: argument command: invalid choice: 'bogus' " + _COMMAND_CHOICES),
    ([], 1, _EMPTY, _TOP_USAGE + b"error: the following arguments are required: command\n"),
    (["--p", "2", "certify"], 1, _EMPTY,
     _TOP_USAGE + b"error: argument command: invalid choice: '2' " + _COMMAND_CHOICES),
    (["witness", "--p", "2", "--r", "0"], 1, _EMPTY,
     b"error: parameters lie inside the positive-definite region\n"),
    # a value, or one error line, with no traceback and no numpy warning
    (["density", "--p", "2", "--r", "11/2", "--x", "1e-100"], 0,
     "af465eb7cd29c4998d87015c3a553b9dc5f4d4db4aab100a2c24087fba8d60ca", b""),
    (["density", "--p", "5/2", "--r", "1e20", "--x", "1"], 1, _EMPTY,
     b"error: density prefactor at p = 5/2, r = 1e+20 overflows\n"),
], ids=["help", *[f"{name}-help" for name in _HELP_DIGESTS], "help-after-options",
        "usage-error", *[f"{argv[0]}-usage-error" for argv, _ in _COMMAND_ERRORS], "unknown-option",
        "stray-positional", "unknown-command", "no-arguments", "option-before-command",
        "witness-in-region", "density-power-overflow", "density-prefactor-overflow"])
def test_fresh_process_output_is_pinned(argv, code, out_digest, err):
    # help, usage and error text of a fresh process, as the parser and the
    # handlers print them whichever modules are loaded
    proc = _run_cli_child("import sys; from binomoment.cli import main; sys.exit(main())", *argv)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == out_digest
    assert proc.stderr == err
