"""Core scalar arithmetic and classifiers, and the real gamma function of the
density expansion, ``slater._gamma``."""
import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomoment.core import (
    MAX_K,
    Branch,
    DomainError,
    Params,
    RegionVerdict,
    as_scalar,
    classify_binomial,
    classify_raney,
    comparable,
    gen_binomial,
    is_exact,
    parse_scalar,
    raney_number,
    support_endpoint,
)
from binomoment.slater import _gamma
from oracles import falling_binomial, raney

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
small_n = st.integers(min_value=0, max_value=50)


class TestSupportEndpoint:
    def test_integer_p_exact(self):
        assert support_endpoint(2) == F(4)
        assert support_endpoint(3) == F(27, 4)
        assert isinstance(support_endpoint(2), F)

    def test_rational_p_float(self):
        # 3*sqrt(3)/2 for p = 3/2
        v = support_endpoint(F(3, 2))
        assert isinstance(v, float)
        assert v == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [1, F(1), 0.5, F(-2)])
    def test_requires_p_above_one(self, bad):
        with pytest.raises(DomainError):
            support_endpoint(bad)

    def test_numerator_bound(self):
        # k = MAX_K is taken, exactly for an integer p; past it the call
        # fails before any power, even where k**k would never finish
        assert support_endpoint(MAX_K) == F(MAX_K**MAX_K, (MAX_K - 1) ** (MAX_K - 1))
        assert support_endpoint(F(MAX_K, MAX_K - 1)) > 1.0
        for p in (F(MAX_K + 1), F(MAX_K + 2, 3), F(10) ** 200, F(10**30 + 1, 10**30)):
            with pytest.raises(DomainError, match=f"k <= {MAX_K}"):
                support_endpoint(p)

    @pytest.mark.parametrize("p", [143.7, 150.5, 1e30, 1e300])
    def test_float_p_past_the_powers_range(self, p):
        # p**p leaves the float range, c = p**p (p-1)**(1-p) ~ e p does not
        with mp.workdps(30 + int(math.log10(p))):  # p - 1 kept exact
            pm = mp.mpf(p)
            want = pm**pm * (pm - 1) ** (1 - pm)
        assert support_endpoint(p) == pytest.approx(float(want), rel=1e-12)
        assert support_endpoint(140.5) == 140.5**140.5 * 139.5 ** (1.0 - 140.5)


class TestGenBinomial:
    def test_integer_cases(self):
        assert gen_binomial(3, 0, 2) == F(15)  # C(6,2)
        assert gen_binomial(2, F(-1, 2), 1) * 4 == F(6)
        assert gen_binomial(F(3, 2), F(-1, 2), 2) * 16 == F(30)

    def test_exactness_contract(self):
        assert is_exact(gen_binomial(F(3, 2), F(1, 3), 7))
        assert isinstance(gen_binomial(1.5, F(1, 3), 7), float)

    @given(
        p=st.integers(min_value=0, max_value=8),
        r=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=0, max_value=300),
    )
    def test_matches_integer_binomial_oracle(self, p, r, n):
        # independent oracle: stdlib binomial of the literal top index
        top = n * p + r
        if top >= n:
            assert gen_binomial(p, r, n) == math.comb(top, n)
            if top > 0:
                assert raney_number(p, r, n) == F(r, top) * math.comb(top, n)

    @given(
        p=st.fractions(min_value=-7, max_value=7, max_denominator=9),
        r=st.fractions(min_value=-7, max_value=7, max_denominator=9),
        n=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=40)
    def test_matches_falling_factorial_oracle(self, p, r, n):
        assert gen_binomial(p, r, n) == falling_binomial(p, r, n)
        assert raney_number(p, r, n) == raney(p, r, n)

    @pytest.mark.parametrize("number", [gen_binomial, raney_number])
    @pytest.mark.parametrize("p,r,n", [(F(7, 2), 0.1234567, 400), (1e300, 1, 3),
                                       (1e300, 1, 400), (F(10) ** 400, 0.5, 2)])
    def test_float_path_past_the_float_range(self, number, p, r, n):
        with pytest.raises(DomainError, match="exceeds the float range"):
            number(p, r, n)

    @given(p=rationals, r=rationals, n=small_n)
    def test_reflection_identity_exact(self, p, r, n):
        lhs = gen_binomial(p, r, n) * (-1) ** n
        rhs = gen_binomial(1 - p, -1 - r, n)
        assert lhs == rhs

    @given(p=rationals, n=st.integers(min_value=0, max_value=30))
    def test_three_way_boundary_identity(self, p, n):
        # (1/(p-1)) C((n+1)p-1, n+1) = (1/p) C((n+1)p, n+1) = C(np+p-1, n)
        if p in (0, 1):
            return
        a = gen_binomial(p, -1, n + 1) / (p - 1)
        b = gen_binomial(p, 0, n + 1) / p
        c = gen_binomial(p, p - 1, n)
        assert a == b == c

    def test_float_path_single_rounding(self):
        # float path lifts factors exactly; agree with the exact value to 1 ulp
        exact = gen_binomial(F(3, 2), F(-1, 2), 40)
        approx = gen_binomial(1.5, -0.5, 40)
        assert approx == pytest.approx(float(exact), rel=5e-16)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            gen_binomial(2, 0, -1)


class TestRaneyNumber:
    def test_catalan_from_raney(self):
        # r/(np+r) C(np+r,n) at (2,1) gives the Catalan numbers
        assert [raney_number(2, 1, n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_zero_r_is_delta_sequence(self):
        assert [raney_number(3, 0, n) for n in range(5)] == [1, 0, 0, 0, 0]

    def test_cancelled_form_at_vanishing_top(self):
        # n*p + r = 0 at p=-1/2, r=1, n=2; cancelled form stays finite
        v = raney_number(F(-1, 2), 1, 2)
        assert v == F(1) * (-1) / 2  # 1 * (0-1) / 2!

    @given(p=rationals, r=rationals, n=st.integers(min_value=1, max_value=30))
    def test_agrees_with_quotient_form_generically(self, p, r, n):
        top = n * p + r
        if top == 0:
            return
        assert raney_number(p, r, n) == gen_binomial(p, r, n) * r / top


class TestClassifiers:
    @pytest.mark.parametrize(
        "p,r,pd,branch",
        [
            (2, F(1, 2), True, Branch.MAIN),
            (2, -1, True, Branch.MAIN),
            (2, 1, True, Branch.MAIN),
            (-1, F(-3, 2), True, Branch.REFLECTED),
            (0, 0, True, Branch.REFLECTED),
            (0.75, -0.5, False, Branch.OUTSIDE),
            (2, 1.5, False, Branch.OUTSIDE),
            (F(3, 2), 1, False, Branch.OUTSIDE),
            (3, F(-3, 2), False, Branch.OUTSIDE),
        ],
    )
    def test_binomial_examples(self, p, r, pd, branch):
        v = classify_binomial(p, r)
        assert v.positive_definite is pd
        assert v.branch is branch

    @pytest.mark.parametrize(
        "p,r,pd,branch",
        [
            (2, 1, True, Branch.MAIN),
            (2, 2, True, Branch.MAIN),
            (0.6, 0, True, Branch.RANEY_ZERO),
            (-2, -1, True, Branch.REFLECTED),
            (0.75, 0.4, False, Branch.OUTSIDE),
            (3, 3.5, False, Branch.OUTSIDE),
        ],
    )
    def test_raney_examples(self, p, r, pd, branch):
        v = classify_raney(p, r)
        assert v.positive_definite is pd
        assert v.branch is branch

    def test_float_boundary_reconstruction(self):
        # 0.1-grid floats land exactly on the region boundary
        assert classify_binomial(1.1, 0.1).positive_definite  # r = p-1
        assert not classify_binomial(1.1, 0.1000001).positive_definite
        assert classify_raney(1.5, 1.5).positive_definite  # r = p

    @given(p=rationals, r=rationals)
    def test_binomial_reflection_invariance(self, p, r):
        a = classify_binomial(p, r)
        b = classify_binomial(1 - p, -1 - r)
        assert a.positive_definite == b.positive_definite

    @given(p=rationals, r=rationals)
    def test_raney_reflection_invariance(self, p, r):
        a = classify_raney(p, r)
        b = classify_raney(1 - p, -r)
        assert a.positive_definite == b.positive_definite

    @given(p=rationals, r=rationals)
    def test_pd_implies_hankel2_nonnegative(self, p, r):
        if classify_binomial(p, r).positive_definite:
            assert hankel2(p, r) >= 0


def hankel2(p, r):
    """Twice the 2x2 Hankel determinant of (1, C(p+r, 1), C(2p+r, 2))."""
    m1 = gen_binomial(p, r, 1)
    return 2 * (gen_binomial(p, r, 2) - m1 * m1)


class TestHankel2:
    def test_formula_against_moment_oracle(self):
        # the determinant from the moments is the polynomial 2p^2 - 2p - r - r^2
        for p, r in [(F(9, 10), F(-1, 2)), (F(2), F(1)), (F(3, 2), F(1, 4)), (F(-7, 3), F(5, 2))]:
            assert hankel2(p, r) == 2 * p * p - 2 * p - r - r * r

    def test_values(self):
        # (0.9, -0.5): 1.62 - 1.8 + 0.5 - 0.25 = 0.07
        assert hankel2(0.9, -0.5) == pytest.approx(0.07, abs=1e-12)
        assert hankel2(F(3, 4), F(-1, 2)) == F(-1, 8)
        assert hankel2(2, 1) == 2


class TestGammaReal:
    """``slater._gamma``, the real gamma of the density's Slater coefficients."""

    def test_known_values(self):
        assert _gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert _gamma(5.0) == pytest.approx(24.0, rel=1e-14)
        assert _gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)
        assert _gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_relative_error_envelope(self):
        # stdlib gamma as oracle across |x| <= 50, away from poles
        xs = [0.013 + 0.1 * i for i in range(500)]
        xs += [-0.037 - 0.1 * i for i in range(495)]
        worst = max(
            abs(_gamma(x) - math.gamma(x)) / abs(math.gamma(x)) for x in xs
        )
        assert worst < 1e-13

    @given(st.floats(min_value=-20, max_value=20))
    @settings(max_examples=200)
    def test_recurrence(self, x):
        # Gamma(x+1) = x * Gamma(x), checked away from poles and zero
        if abs(x) < 1e-3 or (x < 0.5 and abs(x - round(x)) < 1e-3):
            return
        lhs = _gamma(x + 1.0)
        rhs = x * _gamma(x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("x", [F(1, 10**9), F(-1, 10**9), F(-1, 10**12), F(-2) - F(1, 10**9),
                                   F(-3) + F(1, 10**12), F(-7) + F(1, 10**9)])
    def test_exact_argument_next_to_a_pole_evaluates(self, x):
        # the expansion's exact rule makes only a nonpositive integer a pole,
        # however close the float of x lies to one; that float and the
        # reflection's reduction of it are good to about 1.1e-16 max(1, |x|),
        # so Gamma, about 1/d at a distance d from the pole, is good to that
        # over d
        d = abs(x - round(x))
        with mp.workdps(40):
            want = mp.gamma(mp.mpf(x.numerator) / x.denominator)
        bound = 1e-13 + 2.3e-16 * max(1, abs(float(x))) / float(d)
        assert _gamma(float(x)) == pytest.approx(float(want), rel=bound)

    def test_exact_argument_whose_float_is_a_pole(self):
        # -1/10**400 rounds to -0.0: Gamma takes the pole's signed infinity
        assert _gamma(float(F(-1, 10**400))) == -math.inf
        assert _gamma(float(F(1, 10**400))) == math.inf

    def test_near_but_not_at_pole_evaluates(self):
        assert math.isfinite(_gamma(-3.0 + 1e-7))

    @pytest.mark.parametrize("x", [143.0, 160.0, 171.0, -150.5])
    def test_past_the_range_of_the_lanczos_power(self, x):
        # t**(x - 1/2) leaves the float range from x of about 142.9, before
        # exp(-t) scales it down; Gamma itself stays inside up to about 171.6
        assert _gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_past_the_float_range(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            _gamma(172.0)

    @pytest.mark.parametrize("x", [-170.5, -171.5, -172.5, -175.25, -180.5])
    def test_reflection_into_the_subnormals(self, x):
        # below about -170.6 Gamma(1 - x) overflows while Gamma(x) is a
        # subnormal float, or at -180.5 a signed zero
        expected = float(mp.gamma(x))
        value = _gamma(x)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-320)
        assert math.copysign(1.0, value) == math.copysign(1.0, expected)


class TestScalarPlumbing:
    def test_parse_scalar(self):
        assert parse_scalar("3/2") == F(3, 2)
        assert parse_scalar("-5/3") == F(-5, 3)
        assert parse_scalar("0.75") == F(3, 4)
        assert parse_scalar("-1.234567") == F(-1234567, 10**6)
        assert isinstance(parse_scalar("0.1234567"), float)  # 7 digits
        assert isinstance(parse_scalar("1e-3"), float)

    def test_comparable_reconstruction(self):
        assert comparable(0.75) == F(3, 4)
        assert isinstance(comparable(math.pi), float)

    def test_params(self):
        q = Params(F(3, 2), F(1, 2))
        assert (q.k, q.l) == (3, 2)
        assert Params(F(3, 2), 0.5).r == 0.5

    # repr text and hashes as the frozen dataclasses printed and hashed them;
    # hashes of Fraction and float tuples do not depend on the hash seed
    @pytest.mark.parametrize("record,text,hashed", [
        (Params(F(5, 2), 3), "Params(p=Fraction(5, 2), r=Fraction(3, 1))",
         1787416419777828426),
        (Params(3, 0.25), "Params(p=Fraction(3, 1), r=0.25)", -603050458411167441),
    ])
    def test_params_record(self, record, text, hashed):
        assert repr(record) == text
        assert hash(record) == hashed
        assert record == Params(record.p, record.r) == Params(p=record.p, r=record.r)
        assert Params(2, 1.0) == Params(2, 1)
        assert record != (record.p, record.r)
        assert record.__eq__((record.p, record.r)) is NotImplemented

    def test_region_verdict_record(self):
        verdict = classify_binomial(F(5, 2), 1)
        assert repr(verdict) == (
            "RegionVerdict(positive_definite=True, branch=<Branch.MAIN: 'MainBranch'>)")
        # an Enum hashes by its name, a str, so only the form of the hash is pinned
        assert hash(verdict) == hash((True, Branch.MAIN))
        assert verdict == RegionVerdict(True, Branch.MAIN)
        assert verdict != RegionVerdict(False, Branch.MAIN)
        assert {verdict, RegionVerdict(True, Branch.MAIN)} == {verdict}

    @pytest.mark.parametrize("record,field", [
        (Params(F(5, 2), 3), "p"),
        (Params(F(5, 2), 3), "k"),
        (RegionVerdict(True, Branch.MAIN), "branch"),
    ])
    def test_records_refuse_assignment(self, record, field):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_as_scalar_rejects_junk(self):
        with pytest.raises(TypeError):
            as_scalar("1/2")
