"""Truncated series engine and the generating-function identities."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomoment.core import DomainError, gen_binomial
from binomoment.series import (
    TruncatedSeries,
    binomial_gf_closed_form,
    binomial_series,
    binomial_series_via_fuss,
    boundary_series_relations_hold,
    closed_form_radius,
    fuss_functional_equation_holds,
    gf_reflection_holds,
    lambert_composition_holds,
    raney_series,
)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
ps_rational = st.fractions(min_value=-3, max_value=4, max_denominator=5)


def series_strategy(order=6, nonzero_const=False, zero_const=False):
    elems = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    def build(cs):
        cs = list(cs)
        if zero_const:
            cs[0] = F(0)
            if len(cs) > 1 and cs[1] == 0:
                cs[1] = F(1)
        elif nonzero_const and cs[0] == 0:
            cs[0] = F(1)
        return TruncatedSeries.from_coeffs(cs)
    return st.lists(elems, min_size=order + 1, max_size=order + 1).map(build)


class TestSeriesRing:
    def test_mul_matches_poly_mult(self):
        a = TruncatedSeries.from_coeffs([1, 2, 3])
        b = TruncatedSeries.from_coeffs([1, F(1, 2), 0])
        assert (a * b).coeffs == (F(1), F(5, 2), F(4))

    @given(f=series_strategy(nonzero_const=True))
    def test_reciprocal_roundtrip(self, f):
        assert (f * f.reciprocal()).coeffs == TruncatedSeries.constant(1, f.order).coeffs

    @given(f=series_strategy(zero_const=True))
    def test_compositional_inverse_roundtrip(self, f):
        g = f.compositional_inverse()
        assert g.compose(f).coeffs == TruncatedSeries.identity(f.order).coeffs
        assert f.compose(g).coeffs == TruncatedSeries.identity(f.order).coeffs

    def test_compositional_inverse_float_underflow(self):
        # f'(0)**2 underflows to 0.0: the true inverse overflows floats
        with pytest.raises(DomainError, match="overflows"):
            TruncatedSeries((0.0, 1e-200, 1.0)).compositional_inverse()

    def test_float_series_stay_float(self):
        # every constant an operation seeds its result with follows the input
        cases = (
            (TruncatedSeries((0.0, 0.5, 1.0)).compositional_inverse(), (0.0, 2.0, -8.0)),
            (TruncatedSeries((0.0, 0.5, 0.25)).exp(), (1.0, 0.5, 0.375)),
            (TruncatedSeries((1.0, 0.5, 0.25)).log(), (0.0, 0.5, 0.125)),
            (TruncatedSeries((1.0,)).log(), (0.0,)),
            (TruncatedSeries((1.0,)).derivative(), (0.0,)),
            (TruncatedSeries((1.0, 0.5)).shift_up(), (0.0, 1.0)),
        )
        for got, want in cases:
            assert got.coeffs == want
            assert all(type(c) is float for c in got.coeffs), got.coeffs
        inv = TruncatedSeries((0.0, 0.5, 1.0)).compositional_inverse()
        assert inv.to_json_dict() == TruncatedSeries((0.0, 2.0, -8.0)).to_json_dict()
        # exact inputs stay exact
        exact = TruncatedSeries((F(0), F(1, 2), F(1))).compositional_inverse()
        assert exact.coeffs == (0, 2, -8) and exact.is_exact()
        assert TruncatedSeries((F(0), F(1, 2))).exp().is_exact()

    def test_identity_is_z(self):
        assert TruncatedSeries.identity(3).coeffs == (0, 1, 0, 0)
        assert TruncatedSeries.identity(0).coeffs == (0,)
        with pytest.raises(DomainError):
            TruncatedSeries.identity(-1)

    @given(f=series_strategy(zero_const=True))
    def test_exp_log_roundtrip(self, f):
        assert f.exp().log().coeffs == f.coeffs

    @given(f=series_strategy(nonzero_const=True), w=small_fracs)
    @settings(max_examples=40)
    def test_pow_scalar_is_exact_and_multiplicative(self, f, w):
        # force f(0)=1 so the exp(w*log f) route applies
        g = f / f.coeffs[0]
        gw = g.pow_scalar(w)
        assert gw.is_exact()
        assert (gw * g.pow_scalar(-w)).coeffs == TruncatedSeries.constant(1, f.order).coeffs

    def test_pow_scalar_integer_matches_repeated_mul(self):
        g = TruncatedSeries.from_coeffs([1, F(1, 3), -2, F(5, 7)])
        assert g.pow_scalar(3).coeffs == (g * g * g).coeffs

    def test_compose_requires_zero_const(self):
        f = TruncatedSeries.from_coeffs([1, 1])
        with pytest.raises(DomainError):
            f.compose(f)

    def test_reciprocal_requires_nonzero_const(self):
        with pytest.raises(DomainError):
            TruncatedSeries.from_coeffs([0, 1]).reciprocal()

    def test_json_roundtrip(self):
        s = TruncatedSeries.from_coeffs([1, F(-7, 3), 0.25])
        d = s.to_json_dict()
        assert d["order"] == 2
        assert d["coeffs"][0] == {"num": "1", "den": "1"}
        assert TruncatedSeries.from_json_dict(d).coeffs == s.coeffs


class TestGeneratingFunctions:
    def test_fuss_catalan(self):
        assert raney_series(2, 1, 4).coeffs == (1, 1, 2, 5, 14)

    def test_fuss_degenerate_rows(self):
        assert raney_series(0, 1, 4).coeffs == (1, 1, 0, 0, 0)  # 1 + z
        assert raney_series(1, 1, 4).coeffs == (1, 1, 1, 1, 1)

    def test_binomial_series_row_p1(self):
        assert binomial_series(1, 1, 4).coeffs == (1, 2, 3, 4, 5)

    def test_via_fuss_example(self):
        assert binomial_series_via_fuss(F(3, 2), F(-1, 2), 2).coeffs == (1, 1, F(15, 8))

    @given(p=ps_rational, r=small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_via_fuss_matches_direct(self, p, r):
        direct = binomial_series(p, r, 14)
        built = binomial_series_via_fuss(p, r, 14)
        assert built.coeffs == direct.coeffs

    @given(p=ps_rational)
    @settings(max_examples=40, deadline=None)
    def test_functional_equation(self, p):
        assert fuss_functional_equation_holds(p, 14)

    @pytest.mark.parametrize("p", [2, F(3, 2), -1, F(5, 2), F(7, 3)])
    def test_boundary_relations(self, p):
        assert boundary_series_relations_hold(p, 16)

    @given(p=ps_rational, r=small_fracs)
    @settings(max_examples=30, deadline=None)
    def test_lambert_composition(self, p, r):
        assert lambert_composition_holds(p, r, 10)

    @given(p=ps_rational, r=small_fracs)
    def test_reflection(self, p, r):
        assert gf_reflection_holds(p, r, 20)


# the eleven (p, r) closed-form rows exercised against partial sums
_CLOSED_CASES = (
    [(F(0), F(1, 2)), (F(1), F(1, 3)), (F(-1), F(1, 2)), (F(1, 2), F(1, 4))]
    + [(F(2), r) for r in (F(-1), F(-1, 2), F(0), F(1, 2), F(1))]
    + [(F(3), r) for r in (F(0), F(1), F(2))]
    + [(F(3, 2), r) for r in (F(-1, 2), F(0), F(1, 2))]
)


class TestClosedForms:
    def test_p2_value(self):
        assert binomial_gf_closed_form(2, 0, 0.1) == pytest.approx(
            1.0 / math.sqrt(0.6), rel=1e-14
        )

    @pytest.mark.parametrize("p,r", _CLOSED_CASES)
    def test_matches_partial_sums(self, p, r):
        rad = closed_form_radius(p)
        for z in (0.5 * rad, -0.5 * rad, 0.11 * rad, -0.37 * rad):
            cf = binomial_gf_closed_form(p, r, z)
            ps = binomial_series(p, r, 60).eval_at(z)
            assert cf == pytest.approx(ps, abs=1e-10 * max(1.0, abs(ps)))

    def test_p32_example_point(self):
        cf = binomial_gf_closed_form(F(3, 2), F(-1, 2), 0.05)
        ps = binomial_series(F(3, 2), F(-1, 2), 40).eval_at(0.05)
        assert cf == pytest.approx(ps, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binomial_gf_closed_form(2, 0, 0.26)
        with pytest.raises(DomainError):
            binomial_gf_closed_form(3, 0, 4.0 / 27.0 + 1e-9)
        with pytest.raises(DomainError):
            binomial_gf_closed_form(5, 0, 0.01)  # unsupported p

    def test_conservative_radius_for_p3(self):
        assert closed_form_radius(3) == pytest.approx(4.0 / 27.0)


class TestHypergeometricStructure:
    """Term-ratio identities tying the series rows to 3F2 data."""

    @pytest.mark.parametrize("r", [F(0), F(1), F(2), F(1, 2), F(-1, 2)])
    def test_p3_term_ratio(self, r):
        a = ((1 + r) / 3, (2 + r) / 3, (3 + r) / 3)
        b = ((1 + r) / 2, (2 + r) / 2)
        for n in range(12):
            cn = gen_binomial(3, r, n)
            cn1 = gen_binomial(3, r, n + 1)
            lhs = cn1 * (b[0] + n) * (b[1] + n) * (1 + n) * 4
            rhs = cn * (a[0] + n) * (a[1] + n) * (a[2] + n) * 27
            assert lhs == rhs

    @pytest.mark.parametrize("r", [F(0), F(1), F(1, 2), F(-1, 2)])
    def test_p32_even_part_term_ratio(self, r):
        a = ((1 + r) / 3, (2 + r) / 3, (3 + r) / 3)
        b = (F(1, 2), 1 + r)
        for k in range(10):
            ek = gen_binomial(F(3, 2), r, 2 * k)
            ek1 = gen_binomial(F(3, 2), r, 2 * k + 2)
            lhs = ek1 * (b[0] + k) * (b[1] + k) * (1 + k) * 4
            rhs = ek * (a[0] + k) * (a[1] + k) * (a[2] + k) * 27
            assert lhs == rhs

    @pytest.mark.parametrize("r", [F(0), F(1), F(1, 2), F(-1, 2)])
    def test_p32_odd_part_term_ratio(self, r):
        a = ((5 + 2 * r) / 6, (7 + 2 * r) / 6, (9 + 2 * r) / 6)
        b = (F(3, 2), (3 + 2 * r) / 2)
        assert gen_binomial(F(3, 2), r, 1) == (2 * r + 3) / 2
        for k in range(10):
            ok = gen_binomial(F(3, 2), r, 2 * k + 1)
            ok1 = gen_binomial(F(3, 2), r, 2 * k + 3)
            lhs = ok1 * (b[0] + k) * (b[1] + k) * (1 + k) * 4
            rhs = ok * (a[0] + k) * (a[1] + k) * (a[2] + k) * 27
            assert lhs == rhs

    @staticmethod
    def _f21(a, b, c, u, terms=400):
        acc, t = 0.0, 1.0
        for m in range(terms):
            acc += t
            t *= (a + m) * (b + m) / ((c + m) * (1.0 + m)) * u
        return acc

    def test_trig_form_one(self):
        # 2F1(-2/3,-1/3;-1/2|u) = (2/3)cos(2*beta) + (1/3)cos(4*beta),
        # beta = asin(sqrt(u))/3
        for u in [0.05 * i for i in range(1, 19)]:
            beta = math.asin(math.sqrt(u)) / 3.0
            rhs = (2.0 / 3.0) * math.cos(2 * beta) + (1.0 / 3.0) * math.cos(4 * beta)
            assert self._f21(-2.0 / 3.0, -1.0 / 3.0, -0.5, u) == pytest.approx(
                rhs, abs=1e-10
            )

    def test_trig_form_two(self):
        # 2F1(5/6,7/6;5/2|u) = 27 cos(beta) sin(beta)^3 / sin(3*beta)^3
        for u in [0.05 * i for i in range(1, 19)]:
            beta = math.asin(math.sqrt(u)) / 3.0
            rhs = 27.0 * math.cos(beta) * math.sin(beta) ** 3 / math.sin(3 * beta) ** 3
            assert self._f21(5.0 / 6.0, 7.0 / 6.0, 2.5, u, terms=2000) == pytest.approx(
                rhs, abs=1e-10
            )
