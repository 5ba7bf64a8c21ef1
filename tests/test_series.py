"""Truncated series engine and the generating-function identities."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomoment.core import DomainError, gen_binomial
from binomoment.series import TruncatedSeries, binomial_series, raney_series
from oracles import (
    binomial_gf_closed_form,
    closed_form_radius,
    series_compose,
    series_from_json,
    series_power,
    series_product,
    series_reciprocal,
    series_reversion,
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
        return TruncatedSeries(tuple(cs))
    return st.lists(elems, min_size=order + 1, max_size=order + 1).map(build)


class TestSeriesRing:
    def test_mul_matches_poly_mult(self):
        a = TruncatedSeries((1, 2, 3))
        b = TruncatedSeries((1, F(1, 2), 0))
        assert (a * b).coeffs == (F(1), F(5, 2), F(4))

    @given(f=series_strategy(nonzero_const=True))
    def test_reciprocal_roundtrip(self, f):
        assert (f * f.reciprocal()).coeffs == (1,) + (0,) * f.order

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
            (TruncatedSeries((1.0, 0.5)).pow_scalar(2), (1.0, 1.0)),
            (TruncatedSeries((1, F(1, 2))).pow_scalar(0.5), (1.0, 0.25)),
            (TruncatedSeries((1.0,)).pow_scalar(3), (1.0,)),
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
        assert TruncatedSeries((F(1), F(1, 2))).pow_scalar(F(1, 3)).is_exact()

    def test_identity_is_z(self):
        assert TruncatedSeries.identity(3).coeffs == (0, 1, 0, 0)
        assert TruncatedSeries.identity(0).coeffs == (0,)
        with pytest.raises(DomainError):
            TruncatedSeries.identity(-1)

    @given(f=series_strategy(nonzero_const=True), w=small_fracs)
    @settings(max_examples=40)
    def test_pow_scalar_is_exact_and_multiplicative(self, f, w):
        # force f(0)=1, which pow_scalar needs
        g = f / f.coeffs[0]
        gw = g.pow_scalar(w)
        assert gw.is_exact()
        assert (gw * g.pow_scalar(-w)).coeffs == (1,) + (0,) * f.order

    @given(tail=st.lists(small_fracs, max_size=8), w=small_fracs)
    def test_pow_scalar_matches_binomial_series(self, tail, w):
        f = TruncatedSeries((F(1), *tail))
        want = series_power([F(1), *tail], w)
        assert f.pow_scalar(w).coeffs == tuple(want)
        # a float series or a float exponent gives an all-float result
        scale = max(1.0, *(abs(float(c)) for c in want))
        for g, v in ((TruncatedSeries((1.0, *map(float, tail))), w), (f, float(w))):
            got = g.pow_scalar(v).coeffs
            assert all(type(c) is float for c in got), got
            assert got == pytest.approx([float(c) for c in want], abs=1e-12 * scale)

    def test_pow_scalar_integer_matches_repeated_mul(self):
        g = TruncatedSeries((1, F(1, 3), -2, F(5, 7)))
        assert g.pow_scalar(3).coeffs == (g * g * g).coeffs

    def test_compose_requires_zero_const(self):
        f = TruncatedSeries((1, 1))
        with pytest.raises(DomainError):
            f.compose(f)

    def test_reciprocal_requires_nonzero_const(self):
        with pytest.raises(DomainError):
            TruncatedSeries((0, 1)).reciprocal()

    def test_json_roundtrip(self):
        s = TruncatedSeries((1, F(-7, 3), 0.25))
        d = s.to_json_dict()
        assert d["order"] == 2
        assert d["coeffs"][0] == {"num": "1", "den": "1"}
        assert TruncatedSeries(series_from_json(d)).coeffs == s.coeffs


# coefficients with mixed denominators, zeros and negative values; the
# shortest lists are the order-0 series
mixed_fracs = st.one_of(
    st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


def exact_coeffs(min_size=1, max_size=9):
    return st.lists(mixed_fracs, min_size=min_size, max_size=max_size)


class TestRecord:
    # repr text and hashes as the frozen dataclass printed and hashed them
    @pytest.mark.parametrize("series,text,hashed", [
        (binomial_series(2, 1, 3),
         "TruncatedSeries(coeffs=(Fraction(1, 1), Fraction(3, 1), Fraction(10, 1), "
         "Fraction(35, 1)))", -8495531598405585059),
        (TruncatedSeries((1.0, 0.5)), "TruncatedSeries(coeffs=(1.0, 0.5))",
         4257318633221398199),
    ])
    def test_equality_hash_and_repr(self, series, text, hashed):
        assert repr(series) == text
        assert hash(series) == hashed
        assert series == TruncatedSeries(list(series.coeffs))
        assert series == TruncatedSeries(coeffs=series.coeffs)
        assert series != series.coeffs
        assert series != TruncatedSeries(series.coeffs + (0,))

    def test_refuses_assignment(self):
        series = TruncatedSeries((1, 2))
        with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
            series.coeffs = (3,)
        with pytest.raises(AttributeError, match="cannot delete field 'coeffs'"):
            del series.coeffs
        assert series.coeffs == (1, 2)

    def test_needs_a_coefficient(self):
        with pytest.raises(DomainError, match="at least the constant coefficient"):
            TruncatedSeries(())


class TestIntegerKernels:
    """Exact operations against plain-Fraction list references."""

    @given(a=exact_coeffs(), b=exact_coeffs())
    @example(a=[F(-3, 4)], b=[F(5, 6), F(1, 9)])
    def test_mul(self, a, b):
        got = TruncatedSeries(tuple(a)) * TruncatedSeries(tuple(b))
        assert got.coeffs == tuple(series_product(a, b))

    @given(f=exact_coeffs())
    @example(f=[F(-2, 3)])
    @example(f=[F(7, 4), F(-5, 12)])
    def test_reciprocal(self, f):
        if f[0] == 0:
            f[0] = F(-5, 7)
        assert TruncatedSeries(tuple(f)).reciprocal().coeffs == tuple(series_reciprocal(f))

    @given(outer=exact_coeffs(), inner=exact_coeffs())
    @example(outer=[F(3, 5)], inner=[F(0)])
    @example(outer=[F(1, 2), F(-3)], inner=[F(0), F(5, 6)])
    def test_compose(self, outer, inner):
        inner[0] = F(0)
        got = TruncatedSeries(tuple(outer)).compose(TruncatedSeries(tuple(inner)))
        assert got.coeffs == tuple(series_compose(outer, inner))

    @given(tail=exact_coeffs(min_size=0, max_size=8),
           w=st.fractions(min_value=-5, max_value=5, max_denominator=7))
    @example(tail=[], w=F(-2, 3))
    @example(tail=[F(-9, 4)], w=F(5, 7))
    @settings(max_examples=60)
    def test_pow_scalar(self, tail, w):
        got = TruncatedSeries((F(1), *tail)).pow_scalar(w)
        assert got.coeffs == tuple(series_power([F(1), *tail], w))

    @given(f=exact_coeffs(min_size=2))
    @example(f=[F(0), F(-7, 3)])
    @settings(max_examples=60)
    def test_compositional_inverse(self, f):
        f[0] = F(0)
        if f[1] == 0:
            f[1] = F(-4, 9)
        got = TruncatedSeries(tuple(f)).compositional_inverse()
        assert got.coeffs == tuple(series_reversion(f))


float_coeffs = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
    min_size=1, max_size=9,
)


def lifted(coeffs):
    """The exact values of float (or exact) coefficients, as Fractions."""
    return [F(c) for c in coeffs]


def bits(coeffs):
    return [(type(c).__name__, repr(c)) for c in coeffs]


def rounded(exact):
    """The bits of each exact coefficient rounded once to a float."""
    return bits(float(c) for c in exact)


class TestFloatResults:
    """A float coefficient or exponent gives the exact result on its exact value, rounded once."""

    @given(a=float_coeffs, b=float_coeffs, exact=exact_coeffs())
    # a negative leading coefficient with an exact zero in the reciprocal: 0.0, not -0.0
    @example(a=[-1.0452413617971383, -1.0452413617971383, -1.0452413617971383,
                2.706690125933143],
             b=[0.20394412442935117], exact=[F(0), F(0)])
    @settings(max_examples=40)
    def test_float_results_round_the_exact_result_once(self, a, b, exact):
        fa, fb = TruncatedSeries(tuple(a)), TruncatedSeries(tuple(b))
        ex = TruncatedSeries(tuple(exact))
        assert bits((fa * fb).coeffs) == rounded(series_product(lifted(a), lifted(b)))
        assert bits((ex * fa).coeffs) == rounded(series_product(exact, lifted(a)))
        assert bits(fa.reciprocal().coeffs) == rounded(series_reciprocal(lifted(a)))
        inner = [0.0] + b[1:]
        assert bits(fa.compose(TruncatedSeries(tuple(inner))).coeffs) == rounded(
            series_compose(lifted(a), lifted(inner)))
        assert bits(ex.compose(TruncatedSeries(tuple(inner))).coeffs) == rounded(
            series_compose(exact, lifted(inner)))
        one = [1.0] + a[1:]
        assert bits(TruncatedSeries(tuple(one)).pow_scalar(F(-5, 3)).coeffs) == rounded(
            series_power(lifted(one), F(-5, 3)))
        unit = [F(1)] + exact[1:]
        assert bits(TruncatedSeries(tuple(unit)).pow_scalar(0.37).coeffs) == rounded(
            series_power(unit, F(0.37)))
        if len(a) > 1:
            zeroed = [0.0] + a[1:]
            assert bits(TruncatedSeries(tuple(zeroed)).compositional_inverse().coeffs) == (
                rounded(series_reversion(lifted(zeroed))))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise(self, bad):
        unit = TruncatedSeries((1.0, bad))
        calls = (
            lambda: unit * TruncatedSeries((1.0, 2.0)),
            unit.reciprocal,
            lambda: unit.compose(TruncatedSeries((0.0, 1.0))),
            lambda: unit.pow_scalar(2),
            TruncatedSeries((0.0, 1.0, bad)).compositional_inverse,
            lambda: TruncatedSeries((1.0, 0.5)).pow_scalar(bad),
            lambda: TruncatedSeries((F(1), F(1, 2))).pow_scalar(bad),
        )
        for call in calls:
            with pytest.raises(DomainError, match="finite"):
                call()


def via_fuss(p, r, order):
    """The binomial series assembled as B**(1+r) / (p - (p-1)*B), B the Fuss series."""
    b = raney_series(p, 1, order)
    return b.pow_scalar(1 + r) * (b * (1 - p) + p).reciprocal()


def partial_sum(series, z):
    acc = 0.0
    for c in reversed(series.coeffs):
        acc = acc * z + float(c)
    return acc


class TestGeneratingFunctions:
    def test_fuss_catalan(self):
        assert raney_series(2, 1, 4).coeffs == (1, 1, 2, 5, 14)

    def test_fuss_degenerate_rows(self):
        assert raney_series(0, 1, 4).coeffs == (1, 1, 0, 0, 0)  # 1 + z
        assert raney_series(1, 1, 4).coeffs == (1, 1, 1, 1, 1)

    def test_binomial_series_row_p1(self):
        assert binomial_series(1, 1, 4).coeffs == (1, 2, 3, 4, 5)

    def test_via_fuss_example(self):
        assert via_fuss(F(3, 2), F(-1, 2), 2).coeffs == (1, 1, F(15, 8))

    @given(p=ps_rational, r=small_fracs)
    @settings(max_examples=60, deadline=None)
    def test_via_fuss_matches_direct(self, p, r):
        assert via_fuss(p, r, 14).coeffs == binomial_series(p, r, 14).coeffs

    @given(p=ps_rational)
    @settings(max_examples=40, deadline=None)
    def test_functional_equation(self, p):
        # B = 1 + z*B**p, B the Fuss series
        b = raney_series(p, 1, 14)
        assert b.coeffs == (b.pow_scalar(p).shift_up() + 1).coeffs

    @pytest.mark.parametrize("p", [2, F(3, 2), -1, F(5, 2), F(7, 3)])
    def test_boundary_relations(self, p):
        # D(p,-1) = 1/p + ((p-1)/p) D(p,0) and D(p,p-1) = (D(p,0) - 1)/(p z)
        p = F(p)
        d0 = binomial_series(p, 0, 16)
        assert binomial_series(p, -1, 16).coeffs == (d0 * ((p - 1) / p) + 1 / p).coeffs
        assert binomial_series(p, p - 1, 15).coeffs == tuple(c / p for c in d0.coeffs[1:])

    @given(p=ps_rational, r=small_fracs)
    @settings(max_examples=30, deadline=None)
    def test_lambert_composition(self, p, r):
        # B_{p-r}(z * B_p(z)**r) = B_p(z)
        bp = raney_series(p, 1, 10)
        inner = bp.pow_scalar(r).shift_up()
        assert raney_series(p - r, 1, 10).compose(inner).coeffs == bp.coeffs

    @given(p=ps_rational, r=small_fracs)
    def test_reflection(self, p, r):
        # D(p,r)(z) = D(1-p, -1-r)(-z)
        lhs = binomial_series(p, r, 20)
        rhs = binomial_series(1 - p, -1 - r, 20)
        assert lhs.coeffs == tuple(c * (-1) ** n for n, c in enumerate(rhs.coeffs))


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
            ps = partial_sum(binomial_series(p, r, 60), z)
            assert cf == pytest.approx(ps, abs=1e-10 * max(1.0, abs(ps)))

    def test_p32_example_point(self):
        cf = binomial_gf_closed_form(F(3, 2), F(-1, 2), 0.05)
        ps = partial_sum(binomial_series(F(3, 2), F(-1, 2), 40), 0.05)
        assert cf == pytest.approx(ps, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_gf_closed_form(2, 0, 0.26)
        with pytest.raises(ValueError):
            binomial_gf_closed_form(3, 0, 4.0 / 27.0 + 1e-9)
        with pytest.raises(ValueError):
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
