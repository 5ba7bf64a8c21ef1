"""Tests for the moment-sequence transform engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from binomoment.core import DomainError, gen_binomial, raney_number
from binomoment.freeconv import (
    bernoulli_series,
    boolean_power,
    dilate,
    free_add_power,
    free_mult_power,
    from_s_transform,
    identity_suite,
    monotonic_convolve,
    s_transform,
)
from binomoment.series import TruncatedSeries, binomial_series, raney_series
from oracles import r_transform, series_from_json


F = Fraction


def exact_rows(min_order=3, max_order=8):
    scalars = st.fractions(
        min_value=F(-4), max_value=F(4), max_denominator=6
    )
    nonzero = scalars.filter(lambda c: c != 0)

    @st.composite
    def build(draw):
        order = draw(st.integers(min_value=min_order, max_value=max_order))
        rest = draw(
            st.lists(scalars, min_size=order - 1, max_size=order - 1)
        )
        return TruncatedSeries((F(1), draw(nonzero), *rest))

    return build()


class TestMomentVector:
    # a moment row is a TruncatedSeries with m_0 = 1; its JSON form is the
    # series' one

    def test_json_roundtrip_exact(self):
        m = TruncatedSeries((F(1), F(-3, 7), F(22, 5)))
        data = m.to_json_dict()
        assert data["coeffs"][1] == {"num": "-3", "den": "7"}
        back = TruncatedSeries(series_from_json(data))
        assert back.coeffs == m.coeffs
        assert back.is_exact()

    def test_json_roundtrip_float(self):
        m = TruncatedSeries((F(1), 0.25, 1.75))
        back = TruncatedSeries(series_from_json(m.to_json_dict()))
        assert back[1] == 0.25 and back[2] == 1.75
        assert isinstance(back[1], float) and isinstance(back[2], float)


class TestMSeries:
    def test_rejects_wrong_mass(self):
        # every transform checks m_0 = 1 on its input
        bad = TruncatedSeries((F(2), F(1), F(3)))
        good = raney_series(F(2), 1, 2)
        transforms = (
            lambda m: boolean_power(m, 2),
            lambda m: monotonic_convolve(m, good),
            lambda m: monotonic_convolve(good, m),
            s_transform,
            lambda m: free_mult_power(m, 2),
            lambda m: free_add_power(m, 2),
            lambda m: dilate(m, 2),
        )
        for transform in transforms:
            with pytest.raises(DomainError):
                transform(bad)
        with pytest.raises(DomainError):
            TruncatedSeries(())

    def test_exactness_preserved(self):
        m = binomial_series(F(3), F(1), 6)
        assert m.is_exact()
        assert m[2] == 21

    def test_truncate(self):
        m = binomial_series(F(2), F(0), 8)
        t = m.truncate(3)
        assert t.order == 3
        assert t.coeffs == m.coeffs[:4]

    def test_point_mass_at_one_gives_geometric(self):
        s = bernoulli_series(F(0), 1, 6)
        assert all(s[n] == 1 for n in range(7))

    def test_two_point_law(self):
        s = bernoulli_series(F(1, 2), 1, 6)
        assert s[0] == 1
        assert all(s[n] == F(1, 2) for n in range(1, 7))

    def test_catalan_row(self):
        s = raney_series(F(2), 1, 5)
        assert [s[n] for n in range(6)] == [1, 1, 2, 5, 14, 42]


class TestBooleanPower:
    def test_unit_exponent_is_identity(self):
        m = binomial_series(F(3), F(1), 8)
        assert boolean_power(m, 1).coeffs == m.coeffs

    def test_catalan_square_gives_central_binomials(self):
        got = boolean_power(raney_series(F(2), 1, 8), 2)
        assert got.coeffs == binomial_series(F(2), F(0), 8).coeffs

    def test_fuss_cube_gives_cubic_binomials(self):
        got = boolean_power(raney_series(F(3), 1, 8), 3)
        assert got.coeffs == binomial_series(F(3), F(0), 8).coeffs

    def test_rejects_nonpositive_exponent(self):
        m = raney_series(F(2), 1, 4)
        with pytest.raises(DomainError):
            boolean_power(m, 0)

    @settings(max_examples=40, deadline=None)
    @given(m=exact_rows(), u=st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4))
    def test_group_law(self, m, u):
        back = boolean_power(boolean_power(m, u), 1 / u)
        assert back.coeffs == m.coeffs


class TestMonotonicConvolve:
    def test_point_mass_at_zero_is_neutral(self):
        m = binomial_series(F(5, 2), F(1, 2), 7)
        delta0 = TruncatedSeries((F(1),) + (F(0),) * 7)
        assert monotonic_convolve(m, delta0).coeffs == m.coeffs
        assert monotonic_convolve(delta0, m).coeffs == m.coeffs

    def test_raney_parameter_shift(self):
        got = monotonic_convolve(
            raney_series(F(2), 1, 10), raney_series(F(3), 1, 10)
        )
        assert got.coeffs == raney_series(F(3), 2, 10).coeffs

    def test_associative(self):
        a = raney_series(F(2), 1, 9)
        b = binomial_series(F(3), F(1), 9)
        c = bernoulli_series(F(1, 3), 2, 9)
        left = monotonic_convolve(monotonic_convolve(a, b), c)
        right = monotonic_convolve(a, monotonic_convolve(b, c))
        assert left.coeffs == right.coeffs

    def test_not_commutative(self):
        a = raney_series(F(2), 1, 6)
        b = bernoulli_series(F(1, 3), 2, 6)
        assert monotonic_convolve(a, b).coeffs != monotonic_convolve(b, a).coeffs


def _series_equal(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    n = min(a.order, b.order)
    return all(a[i] == b[i] for i in range(n + 1))


class TestSTransform:
    def test_catalan_s_is_geometric(self):
        s = s_transform(raney_series(F(2), 1, 10))
        assert all(s[n] == (-1) ** n for n in range(s.order + 1))

    def test_fuss_s_is_binomial_power(self):
        # Raney row r = 1 at p = 3 has S = (1+z)^(-2)
        s = s_transform(raney_series(F(3), 1, 10))
        assert all(s[n] == (-1) ** n * (n + 1) for n in range(s.order + 1))

    def test_two_point_law_closed_form(self):
        # alpha*delta_0 + (1-alpha)*delta_a has S = (1+z)/(a(1-alpha+z))
        alpha, a = F(1, 3), F(2)
        s = s_transform(bernoulli_series(alpha, a, 10))
        order = s.order
        one_plus = TruncatedSeries((F(1), F(1)) + (F(0),) * (order - 1))
        denom = TruncatedSeries((a * (1 - alpha), a) + (F(0),) * (order - 1))
        assert _series_equal(s, one_plus / denom)

    def test_leading_value_is_reciprocal_first_moment(self):
        m = binomial_series(F(3), F(1), 8)
        assert s_transform(m)[0] == F(1, 4)

    def test_rejects_vanishing_first_moment(self):
        delta0 = TruncatedSeries((F(1), F(0), F(0)))
        with pytest.raises(DomainError):
            s_transform(delta0)

    def test_defining_relation_holds_exactly(self):
        # M(z/(1+z) * S(z)) = 1 + z coefficientwise
        m = binomial_series(F(5, 2), F(3, 2), 9)
        s = s_transform(m)
        big_m = m.truncate(s.order)
        inner = TruncatedSeries((F(0),) + s.coeffs[:-1]) / TruncatedSeries(
            (F(1), F(1)) + (F(0),) * (s.order - 1)
        )
        composed = big_m.compose(inner)
        assert composed[0] == 1 and composed[1] == 1
        assert all(composed[n] == 0 for n in range(2, composed.order + 1))


class TestFromSTransform:
    @settings(max_examples=40, deadline=None)
    @given(m=exact_rows())
    def test_roundtrip(self, m):
        back = from_s_transform(s_transform(m))
        n = min(back.order, m.order)
        assert back.coeffs[: n + 1] == m.coeffs[: n + 1]

    def test_geometric_s_gives_catalan(self):
        s = TruncatedSeries(tuple(F((-1) ** n) for n in range(10)))
        got = from_s_transform(s)
        want = raney_series(F(2), 1, 10)
        assert got.coeffs[:11] == want.coeffs[: got.order + 1]

    def test_boundary_row_formula(self):
        # S for the r = -1 binomial row at p = 2:
        # (1/4) * ((1+z)/(1/2+z))^2, reconstructed moments C(2n-1, n)
        order = 10
        one_plus = TruncatedSeries((F(1), F(1)) + (F(0),) * (order - 1))
        half_plus = TruncatedSeries((F(1, 2), F(1)) + (F(0),) * (order - 1))
        ratio = one_plus / half_plus
        s = ratio * ratio / 4
        got = from_s_transform(s)
        for n in range(got.order + 1):
            assert got[n] == gen_binomial(F(2), F(-1), n)

    def test_rejects_vanishing_leading_value(self):
        with pytest.raises(DomainError):
            from_s_transform(TruncatedSeries((F(0), F(1), F(1))))


class TestFreeMultPower:
    def test_unit_power_is_identity(self):
        m = raney_series(F(2), 1, 9)
        assert free_mult_power(m, 1).coeffs[:9] == m.coeffs[:9]

    def test_catalan_square_is_fuss(self):
        got = free_mult_power(raney_series(F(2), 1, 12), 2)
        want = raney_series(F(3), 1, 12)
        assert got.coeffs[: got.order + 1] == want.coeffs[: got.order + 1]

    def test_dilated_square_of_two_point_law(self):
        # the r = -1 binomial row at p = 2
        bern = bernoulli_series(F(1, 2), 1, 12)
        got = dilate(free_mult_power(bern, 2), 4)
        want = binomial_series(F(2), F(-1), 12)
        assert got.coeffs[: got.order + 1] == want.coeffs[: got.order + 1]

    def test_power_below_one_is_refused(self):
        m = raney_series(F(2), 1, 6)
        with pytest.raises(DomainError, match="at least 1"):
            free_mult_power(m, F(1, 2))

    def test_fractional_power_group_law(self):
        m = raney_series(F(3), 1, 9)
        got = free_mult_power(free_mult_power(m, 2), F(3, 2))
        want = free_mult_power(m, 3)
        assert got.order == want.order
        assert got.coeffs == want.coeffs

    def test_rejects_nonpositive_power(self):
        m = raney_series(F(2), 1, 4)
        with pytest.raises(DomainError, match="positive exponent"):
            free_mult_power(m, 0)


class TestFreeAddPower:
    def test_unit_power_is_identity(self):
        m = binomial_series(F(2), F(0), 9)
        assert free_add_power(m, 1).coeffs[:9] == m.coeffs[:9]

    def test_dilated_additive_square_of_two_point_law(self):
        # the arcsine row
        bern = bernoulli_series(F(1, 2), 1, 12)
        got = dilate(free_add_power(bern, 2), 2)
        want = binomial_series(F(2), F(0), 12)
        assert got.coeffs[: got.order + 1] == want.coeffs[: got.order + 1]

    def test_general_two_point_construction(self):
        # binomial row (3, 0) built from the (1/3, 2/3) two-point law
        p = F(3)
        bern = bernoulli_series(1 / p, 1, 11)
        got = dilate(free_mult_power(free_add_power(bern, p / (p - 1)), p - 1), p)
        want = binomial_series(p, F(0), 11)
        assert got.coeffs[:10] == want.coeffs[:10]

    def test_power_below_one_is_refused(self):
        m = raney_series(F(2), 1, 6)
        with pytest.raises(DomainError, match="at least 1"):
            free_add_power(m, F(2, 3))

    def test_fractional_power_group_law(self):
        m = bernoulli_series(F(1, 4), 1, 9)
        got = free_add_power(free_add_power(m, 2), F(3, 2))
        want = free_add_power(m, 3)
        assert got.order == want.order
        assert got.coeffs == want.coeffs


class TestDilate:
    def test_unit_is_identity(self):
        m = binomial_series(F(3), F(1), 6)
        assert dilate(m, 1).coeffs == m.coeffs

    def test_moment_action(self):
        m = raney_series(F(2), 1, 5)
        got = dilate(m, F(3))
        assert all(got[n] == 3**n * m[n] for n in range(6))

    def test_s_transform_rule(self):
        # dilation divides the S-transform by the factor
        m = raney_series(F(2), 1, 8)
        c = F(3)
        s_dilated = s_transform(dilate(m, c))
        s_base = s_transform(m)
        assert all(
            s_dilated[n] == s_base[n] / c for n in range(s_dilated.order + 1)
        )

    def test_rejects_nonpositive_factor(self):
        m = raney_series(F(2), 1, 4)
        with pytest.raises(DomainError):
            dilate(m, 0)


class TestRTransform:
    # free cumulants from the oracle's moment-cumulant recursion

    def test_marchenko_pastur_cumulants_all_one(self):
        r = r_transform(raney_series(F(2), 1, 10).coeffs)
        assert r == [1] * 10

    def test_two_point_law_cumulants(self):
        # hand-computed from the moment-cumulant recursion
        r = r_transform(bernoulli_series(F(1, 2), 1, 8).coeffs)
        assert r[:4] == [F(1, 2), F(1, 4), F(0), F(-1, 16)]

    def test_additivity_matches_s_route(self):
        # the additive square computed through the S-transform has
        # exactly doubled free cumulants
        bern = bernoulli_series(F(1, 2), 1, 10)
        r1 = r_transform(bern.coeffs)
        r2 = r_transform(free_add_power(bern, 2).coeffs)
        n = min(len(r1), len(r2))
        assert n >= 8
        assert r2[:n] == [2 * k for k in r1[:n]]

    def test_dilation_scales_cumulants(self):
        m = bernoulli_series(F(1, 3), 1, 8)
        r1 = r_transform(m.coeffs)
        r3 = r_transform(dilate(m, 3).coeffs)
        assert len(r3) == len(r1) == 8
        assert r3 == [3 ** (i + 1) * k for i, k in enumerate(r1)]


class TestIdentitySuite:
    def test_all_identities_hold(self):
        for check in identity_suite():
            assert check.run(), check.name

    def test_names_unique_and_stable(self):
        names = [c.name for c in identity_suite()]
        assert len(names) == len(set(names))
        assert "boolean-row" in names
        assert "defining-relation" in names

    def test_holds_at_other_orders(self):
        for check in identity_suite(order=8):
            assert check.run(), check.name

    def test_checks_are_dataclasses(self):
        # the bench tracer swaps each check's run with dataclasses.replace
        import dataclasses

        from binomoment.freeconv import IdentityCheck

        for check in identity_suite():
            assert type(check) is IdentityCheck
            ran = []
            swapped = dataclasses.replace(check, run=lambda: ran.append(1) or True)
            assert (swapped.name, swapped.run(), ran) == (check.name, True, [1])
            assert repr(check).startswith(f"IdentityCheck(name={check.name!r}, run=")
            with pytest.raises(dataclasses.FrozenInstanceError):
                check.name = "other"

    def test_holds_at_order_40(self):
        # the integer kernels keep the identities exact well past order 12
        for check in identity_suite(order=40):
            assert check.run(), check.name


class TestRaneyLinkage:
    def test_raney_rows_are_lambert_powers(self):
        # generating function of the Raney row at (p, r) is the r-th
        # power of the row at (p, 1)
        for p, r in ((F(2), 2), (F(3), 3)):
            base = raney_series(p, 1, 9)
            target = raney_series(p, r, 9)
            assert _series_equal(base.pow_scalar(r), target)

    def test_boolean_row_raney_consistency(self):
        # n-th moment relation between neighboring rows keeps the suite
        # honest about which sequence sits where
        for n in range(9):
            assert raney_number(F(2), 1, n) == gen_binomial(F(2), F(0), n) / (n + 1)
