"""Acceptance suite: nine criteria, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion lines alongside the test results.  Every criterion enforces
its stated tolerance and runtime budget.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from binomoment.cli import main
from binomoment.closedform import eval_closed
from binomoment.core import Params, classify_binomial, gen_binomial, support_endpoint
from binomoment.freeconv import from_s_transform, identity_suite, s_transform
from binomoment.mellin import factorize, sample
from binomoment.series import TruncatedSeries, binomial_series, raney_series
from binomoment.slater import build_slater_expansion, eval_density
from binomoment.verify import certify_measure, scan_for_witness, find_negativity_witness
from oracles import beta_product_moment


F = Fraction


class _Budget:
    """Times a criterion and prints its single pass/fail line."""

    def __init__(self, number: int, name: str, seconds: float):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        # bypass per-test stdout patching so the line survives output fixtures
        stream = sys.stdout if sys.stdout is sys.__stdout__ else sys.__stdout__
        print(
            f"criterion {self.number} ({self.name}): {status} "
            f"in {elapsed:.2f}s (budget {self.seconds:.0f}s)",
            file=stream,
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s budget"
            )
        return False


def test_criterion_1_exact_series_identity():
    with _Budget(1, "exact series identity", 10.0):
        for p in (F(2), F(3), F(3, 2), F(5, 3), F(7, 2)):
            for r in (F(-1), F(-1, 2), F(0), F(1, 2), p - 1):
                # B**(1+r) / (p - (p-1)*B), B the Fuss series B = 1 + z*B**p
                b = raney_series(p, 1, 30)
                ts = b.pow_scalar(1 + r) * (b * (1 - p) + p).reciprocal()
                for n in range(31):
                    assert ts[n] == gen_binomial(p, r, n), (p, r, n)


def test_criterion_2_functional_equation():
    with _Budget(2, "functional equation", 5.0):
        rng = random.Random(20260819)
        for _ in range(20):
            p = F(rng.randint(-8, 8), rng.randint(1, 8))
            b = raney_series(p, 1, 30)
            assert b.coeffs == (b.pow_scalar(p).shift_up() + 1).coeffs, p


def test_criterion_3_closed_form_slater_agreement():
    grids = (
        [(F(2), r) for r in (F(-1), F(-1, 2), F(0), F(1, 2), F(1))]
        + [(F(3), r) for r in (F(0), F(1), F(2))]
        + [(F(3, 2), r) for r in (F(-1, 2), F(0), F(1, 2))]
    )
    with _Budget(3, "closed-form vs expansion", 30.0):
        worst = 0.0
        for p, r in grids:
            params = Params(p, r)
            expansion = build_slater_expansion(params)
            c = float(support_endpoint(p))
            xs = [c * (0.02 + 0.96 * i / 199) for i in range(200)]
            closed = eval_closed(params, xs)
            for x, v in zip(xs, closed.tolist()):
                worst = max(worst, abs(v - eval_density(expansion, x)))
        assert worst <= 1e-9, worst


def test_criterion_4_moment_certification():
    pairs = (
        (F(2), F(0)),
        (F(2), F(1)),
        (F(3), F(0)),
        (F(3), F(2)),
        (F(3, 2), F(-1, 2)),
        (F(5, 3), F(1, 3)),
        (F(7, 2), F(2)),
        (F(3), F(-1)),
        (F(3, 2), F(-1)),
    )
    with _Budget(4, "moment certification", 120.0):
        for p, r in pairs:
            report = certify_measure(Params(p, r), 10)
            assert report["passed"], (p, r, report["max_abs_error"])
        # boundary rows must carry their atoms
        assert abs(certify_measure(Params(F(3), F(-1)), 0)["atom_at_zero"] - 1 / 3) < 1e-12
        assert abs(certify_measure(Params(F(3, 2), F(-1)), 0)["atom_at_zero"] - 2 / 3) < 1e-12


def test_criterion_5_mellin_factorization_and_sampler():
    with _Budget(5, "Mellin factorization and sampler", 60.0):
        pairs = []
        for p in (F(3, 2), F(5, 3), F(2), F(7, 3), F(5, 2), F(3)):
            for i in range(1, 6):
                pairs.append((p, -1 + (p * i) / 5))
        assert len(pairs) == 30
        for p, r in pairs:
            f = factorize(Params(p, r))
            factors = [(b.u, b.v, b.l) for b in f.factors]
            for n in range(13):
                got = beta_product_moment(factors, float(f.dilation), n)
                want = float(gen_binomial(p, r, n))
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (p, r, n)
        for p in (F(2), F(3)):
            f = factorize(Params(p, F(0)))
            draws = sample(f, 10**6, seed=5)
            for n in range(1, 6):
                powers = draws**n
                mean = float(np.mean(powers))
                se = float(np.std(powers)) / math.sqrt(len(powers))
                want = float(gen_binomial(p, F(0), n))
                assert abs(mean - want) <= 5 * se, (p, n)


def test_criterion_6_convolution_identity_suite():
    with _Budget(6, "convolution identity suite", 10.0):
        for check in identity_suite(order=12):
            assert check.run(), check.name
        # closed S-transform forms at 12 moments, exact arithmetic
        s = s_transform(raney_series(F(2), 1, 12))
        assert all(s[n] == (-1) ** n for n in range(s.order + 1))
        s = s_transform(raney_series(F(3), 1, 12))
        assert all(s[n] == (-1) ** n * (n + 1) for n in range(s.order + 1))
        order = 12
        one_plus = TruncatedSeries((F(1), F(1)) + (F(0),) * (order - 1))
        half_plus = TruncatedSeries((F(1, 2), F(1)) + (F(0),) * (order - 1))
        ratio = one_plus / half_plus
        boundary = from_s_transform(ratio * ratio / 4)
        want = binomial_series(F(2), F(-1), order)
        shared = min(boundary.order, want.order) + 1
        assert boundary.coeffs[:shared] == want.coeffs[:shared]


def test_criterion_7_classification_and_witnesses():
    step = F(1, 20)
    out_pairs = (
        (F(3, 2), F(1)),
        (F(2), F(3, 2)),
        (F(3), F(-3, 2)),
        (F(3, 2), F(-5, 4)),
        (F(5, 2), F(2)),
        (F(7, 4), F(1)),
        (F(3), F(5, 2)),
        (F(2), F(-5, 4)),
        (F(4), F(-3, 2)),
        (F(5, 3), F(-9, 8)),
    )
    in_pairs = (
        (F(2), F(0)),
        (F(2), F(1)),
        (F(2), F(-1)),
        (F(2), F(-1, 2)),
        (F(3), F(0)),
        (F(3), F(1)),
        (F(3), F(2)),
        (F(3, 2), F(1, 2)),
        (F(5, 3), F(1, 3)),
        (F(7, 2), F(2)),
    )
    with _Budget(7, "classification and witnesses", 120.0):
        for i in range(141):
            p = -3 + i * step
            for j in range(141):
                r = -4 + j * step
                oracle = (p >= 1 and -1 <= r <= p - 1) or (
                    p <= 0 and p - 1 <= r <= 0
                )
                assert classify_binomial(p, r).positive_definite == oracle, (p, r)
        for p, r in out_pairs:
            w = find_negativity_witness(Params(p, r))
            assert w.value < -1e-9, (p, r)
        for p, r in in_pairs:
            assert scan_for_witness(Params(p, r)) is None, (p, r)


def test_criterion_8_integer_sequence_spot_checks(capsys):
    def moments_output(p, r, n):
        assert main(["moments", "--p", p, "--r", r, "--n", str(n)]) == 0
        return capsys.readouterr().out.split()

    with _Budget(8, "integer sequence spot checks", 1.0):
        # central binomials and the C(3n+r, n) family, 8 terms each
        rows = {
            ("2", "0"): [math.comb(2 * n, n) for n in range(8)],
            ("3", "0"): [math.comb(3 * n, n) for n in range(8)],
            ("3", "1"): [math.comb(3 * n + 1, n) for n in range(8)],
            ("3", "-1"): [1] + [math.comb(3 * n - 1, n) for n in range(1, 8)],
            ("3", "2"): [math.comb(3 * n + 2, n) for n in range(8)],
        }
        for (p, r), want in rows.items():
            got = moments_output(p, r, 7)
            assert got == [str(v) for v in want], (p, r)
        quarter_literals = [1, 4, 30, 256, 2310, 21504, 204204, 1966080, 19122246]
        got = moments_output("3/2", "-1/2", 8)
        scaled = [Fraction(text) * 4**n for n, text in enumerate(got)]
        assert scaled == quarter_literals
        # even-index subsequence identity
        assert [quarter_literals[2 * n] for n in range(5)] == [
            1, 30, 2310, 204204, 19122246,
        ]
    capsys.readouterr()


def test_criterion_9_reflection():
    with _Budget(9, "reflection", 1.0):
        rng = random.Random(991)
        for _ in range(20):
            p = F(rng.randint(-12, 12), rng.randint(1, 9))
            r = F(rng.randint(-12, 12), rng.randint(1, 9))
            for n in range(31):
                assert (-1) ** n * gen_binomial(p, r, n) == gen_binomial(
                    1 - p, -1 - r, n
                )
