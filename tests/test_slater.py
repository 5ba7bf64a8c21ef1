"""Hypergeometric machinery: pfq evaluation, the moment symbol, densities."""
import math
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from binomoment.core import (
    DomainError,
    GammaPoleError,
    Params,
    RegionError,
    gen_binomial,
    raney_number,
)
from binomoment.quadrature import QuadratureSpec, tanh_sinh
from binomoment.slater import (
    _pfq_direct,
    _pfq_tail,
    build_slater_expansion,
    build_symbol,
    eval_density,
    mellin_symbol,
    pfq,
    raney_density,
)

mp.mp.dps = 30

SPEC = QuadratureSpec(target_abs_tol=1e-11)


# ---------------------------------------------------------------------------
# pfq


class TestPfq:
    def test_arcsine_value(self):
        got = pfq([0.5, 0.5], [1.5], 0.25)
        assert got.converged
        assert got.value == pytest.approx(math.asin(0.5) / 0.5, rel=1e-15)

    def test_quadratic_transform_value(self):
        # 2F1(a, a+1/2; 2a; z) = (1-z)^(-1/2) ((1+sqrt(1-z))/2)^(1-2a)
        t = 1.0 / 3.0
        z = 0.5
        got = pfq([t / 2, (t + 1) / 2], [t], z)
        s = math.sqrt(1.0 - z)
        want = ((1.0 + s) / 2.0) ** (1.0 - t) / s
        assert got.value == pytest.approx(want, rel=1e-14)

    def test_terminating_series_is_polynomial(self):
        got = pfq([-3, 0.7], [1.3], 0.6)
        acc, term = 0.0, 1.0
        for m in range(4):
            acc += term
            term *= (-3 + m) * (0.7 + m) / (1.3 + m) / (m + 1) * 0.6
        assert got.converged
        assert got.value == pytest.approx(acc, rel=1e-15)

    def test_lower_parameter_pole_rejected(self):
        with pytest.raises(DomainError):
            pfq([0.5], [-2], 0.3)
        with pytest.raises(DomainError):
            pfq([0.5, 0.5], [0.0], 0.3)

    def test_out_of_disc_rejected(self):
        for z in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                pfq([0.5], [1.5], z)

    @given(
        z=st.floats(min_value=-0.95, max_value=0.95),
        a1=st.floats(min_value=0.05, max_value=3.0),
        a2=st.floats(min_value=0.05, max_value=3.0),
        b1=st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_evaluation(self, z, a1, a2, b1):
        got = pfq([a1, a2], [b1], z)
        want = float(mp.hyper([a1, a2], [b1], z))
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("one_minus_z", [6e-4, 1e-4, 1e-6, 1e-9, 1e-13])
    def test_tail_path_near_unit_argument(self, one_minus_z):
        a = [0.5, 5.0 / 6.0, 7.0 / 6.0]
        b = [2.0 / 3.0, 4.0 / 3.0]
        lam = -math.log1p(-one_minus_z)
        got = _pfq_tail(a, b, lam)
        want = float(mp.hyper(a, b, mp.mpf(1) - mp.mpf(one_minus_z)))
        assert got.tail_assisted
        assert got.value == pytest.approx(want, rel=5e-12)

    def test_tail_and_direct_paths_overlap(self):
        a = [0.5, 5.0 / 6.0, 7.0 / 6.0]
        b = [2.0 / 3.0, 4.0 / 3.0]
        for one_minus_z in (3e-4, 5e-4, 6.5e-4, 8e-4):
            z = 1.0 - one_minus_z
            direct = _pfq_direct(a, b, z, 1e-16, 10**6)
            tail = _pfq_tail(a, b, -math.log1p(-one_minus_z))
            assert direct.converged
            assert tail.value == pytest.approx(direct.value, rel=1e-11)

    def test_nonconvergence_is_reported(self):
        got = pfq([0.5, 0.5], [1.5], 0.99, max_terms=50)
        assert not got.converged
        assert got.terms_used == 50


# ---------------------------------------------------------------------------
# gamma-quotient symbol


class TestSymbol:
    def test_three_halves_example(self):
        sym = build_symbol(Params(F(3, 2), F(0)))
        assert sym.alphas == (F(1, 2), F(1), F(1))
        assert sym.betas == (F(1, 3), F(2, 3), F(1))
        assert sym.alphas_tilde == (F(1, 2), F(1), F(1))
        assert sym.scale == pytest.approx(3.0 * math.sqrt(3.0) / 2.0)

    def test_integer_p_rows(self):
        sym = build_symbol(Params(F(3), F(1)))
        assert sym.alphas == (F(1), F(1), F(3, 2))
        assert sym.betas == (F(2, 3), F(1), F(4, 3))

    @given(
        k=st.integers(min_value=2, max_value=9),
        l=st.integers(min_value=1, max_value=8),
        num=st.integers(min_value=-11, max_value=40),
        den=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_tilde_dominates_betas(self, k, l, num, den):
        if math.gcd(k, l) != 1 or k <= l:
            return
        r = F(num, den)
        params = Params(F(k, l), r)
        if not -1 < r <= params.p - 1:
            with pytest.raises(RegionError):
                build_symbol(params)
            return
        sym = build_symbol(params)
        assert sorted(sym.alphas_tilde) == sorted(sym.alphas)
        assert all(a >= b for a, b in zip(sym.alphas_tilde, sym.betas))

    def test_out_of_band_r_rejected(self):
        with pytest.raises(RegionError):
            build_symbol(Params(F(3, 2), F(2)))
        with pytest.raises(RegionError):
            build_symbol(Params(F(2), F(-1)))

    def test_non_admissible_p_rejected(self):
        with pytest.raises(DomainError):
            build_symbol(Params(F(1, 2), F(0)))


# ---------------------------------------------------------------------------
# moment symbol values


class TestMellinSymbol:
    @pytest.mark.parametrize(
        "p,r,sigma,want",
        [
            (F(2), F(0), F(3), 6.0),
            (F(3), F(1), F(2), 4.0),
            (F(2), F(0), F(1), 1.0),
        ],
    )
    def test_plain_values(self, p, r, sigma, want):
        assert mellin_symbol(Params(p, r), sigma) == pytest.approx(want, rel=1e-12)

    def test_removable_point_has_halved_moment(self):
        # at sigma = 1 with r = -1 both outer gammas blow up; the limit
        # carries the extra factor (p-1)/p
        got = mellin_symbol(Params(F(2), F(-1)), F(1))
        assert got == pytest.approx(0.5, rel=1e-13)
        got = mellin_symbol(Params(F(3), F(-1)), F(1))
        assert got == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_removable_point_at_deeper_pole(self):
        # sigma = 2, p = 2, r = -5: top gamma argument 2 - 5 + 1 = -2
        got = mellin_symbol(Params(F(2), F(-5)), F(2))
        want = float(F(1, 2) * gen_binomial(F(2), F(-5), 1))
        assert got == pytest.approx(want, rel=1e-13)

    def test_denominator_only_pole_gives_zero(self):
        # sigma = 0 poles Gamma(sigma) while both outer arguments stay regular
        assert mellin_symbol(Params(F(2), F(1, 2)), F(0)) == 0.0
        # bottom argument hits -1/2... shift to an exact nonpositive integer:
        # p=2, r=1/2, sigma=-1/2 makes bottom = 0 with top = -3/2 regular
        assert mellin_symbol(Params(F(2), F(1, 2)), F(-1, 2)) == 0.0

    def test_genuine_pole_raises(self):
        # top: (-1/2)*3 - 5/2 + 1 = -3 poles with both denominator gammas regular
        with pytest.raises(GammaPoleError):
            mellin_symbol(Params(F(3), F(-5, 2)), F(1, 2))

    def test_two_denominator_poles_beat_one_numerator_pole(self):
        # p=2, r=-3, sigma=0: top: -2-3+1=-4 (pole), bottom: -1-3+1=-3 (pole),
        # sigma itself at 0 (pole): value 0
        assert mellin_symbol(Params(F(2), F(-3)), F(0)) == 0.0

    def test_float_inputs_reach_same_values(self):
        exact = mellin_symbol(Params(F(2), F(0)), F(3))
        loose = mellin_symbol(Params(F(2), 0.0), 3.0)
        assert loose == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("p,r", [(F(2), F(0)), (F(2), F(1)), (F(3), F(1))])
    def test_sigma_recurrence(self, p, r):
        # psi(s+1)/psi(s) is a fixed rational function of s for integer p
        pi, ri = int(p), float(r)
        for s in (1.3, 2.0, 2.7, 4.5):
            lhs = mellin_symbol(Params(p, r), s + 1.0) / mellin_symbol(Params(p, r), s)
            num = 1.0
            for i in range(pi):
                num *= s * pi + ri - i
            den = s
            for i in range(pi - 1):
                den *= s * (pi - 1) + ri - i
            assert lhs == pytest.approx(num / den, rel=1e-12)

    def test_interpolates_moments(self):
        for p, r in ((F(2), F(1)), (F(3), F(1, 2)), (F(5, 2), F(3, 2))):
            for n in range(6):
                got = mellin_symbol(Params(p, r), F(n + 1))
                want = float(gen_binomial(p, r, n))
                assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# density expansion


class TestExpansionStructure:
    def test_parameter_sums_differ_by_half(self):
        for p, r in ((F(2), F(0)), (F(3), F(1)), (F(3, 2), F(1, 2)), (F(7, 3), F(1))):
            exp = build_slater_expansion(Params(p, r))
            for term in exp.terms:
                gap = sum(term.a_vec) - sum(term.b_vec)
                assert gap == pytest.approx(0.5, abs=1e-12)

    def test_term_count_and_exponents(self):
        exp = build_slater_expansion(Params(F(3), F(1)))
        assert len(exp.terms) == 3
        for h, term in enumerate(exp.terms, start=1):
            assert term.exponent == pytest.approx((1.0 + h) / 3.0 - 1.0)

    def test_coefficient_closed_form_cubic(self):
        # k=3, l=1: coefficient of the h=1 term collapses by gamma duplication
        # and reflection to 2^((r+1)/3) sin(pi (r+1)/3) / sqrt(3 pi)
        for r in (F(0), F(1), F(1, 2), F(-1, 3)):
            exp = build_slater_expansion(Params(F(3), r))
            rf = float(r)
            want = (
                2.0 ** ((rf + 1.0) / 3.0)
                * math.sin(math.pi * (rf + 1.0) / 3.0)
                / math.sqrt(3.0 * math.pi)
            )
            assert exp.terms[0].coef == pytest.approx(want, rel=1e-12)

    def test_coefficient_closed_form_cubic_second_term(self):
        # same identities give (r-1) 2^((r-1)/3) sin(pi (r-1)/3) / sqrt(3 pi)
        for r in (F(0), F(1, 2), F(-1, 3)):
            exp = build_slater_expansion(Params(F(3), r))
            rf = float(r)
            want = (
                (rf - 1.0)
                * 2.0 ** ((rf - 1.0) / 3.0)
                * math.sin(math.pi * (rf - 1.0) / 3.0)
                / math.sqrt(3.0 * math.pi)
            )
            assert exp.terms[1].coef == pytest.approx(want, rel=1e-12)

    def test_pole_killed_coefficients_are_exact_zeros(self):
        assert build_slater_expansion(Params(F(3), F(0))).terms[2].coef == 0.0
        assert build_slater_expansion(Params(F(3), F(1))).terms[1].coef == 0.0
        assert build_slater_expansion(Params(F(3, 2), F(0))).terms[2].coef == 0.0
        # float r lands on the same poles through the proximity test
        for p, r, h in ((F(3), 0.0, 2), (F(3), 1.0, 1), (F(3, 2), 0.0, 2)):
            coef = build_slater_expansion(Params(p, r)).terms[h].coef
            assert coef == 0.0 and isinstance(coef, float), (p, r)

    def test_float_r_matches_exact_r(self):
        a = build_slater_expansion(Params(F(3), F(1)))
        b = build_slater_expansion(Params(F(3), 1.0))
        for ta, tb in zip(a.terms, b.terms):
            assert tb.coef == pytest.approx(ta.coef, rel=1e-9, abs=1e-15)

    def test_prefactor_value(self):
        exp = build_slater_expansion(Params(F(3), F(0)))
        want = 2.0 / (3.0**2.5 * math.sqrt(math.pi))
        assert exp.gamma_factor == pytest.approx(want, rel=1e-13)

    def test_non_admissible_p_rejected(self):
        with pytest.raises(DomainError):
            build_slater_expansion(Params(F(2, 3), F(0)))


class TestDensityValues:
    def test_arcsine_family(self):
        # (2,0): moments C(2n,n); density 1/(pi sqrt(x(4-x))) on (0,4)
        exp = build_slater_expansion(Params(F(2), F(0)))
        for x in (0.01, 0.5, 2.0, 3.9, 3.999999):
            want = 1.0 / (math.pi * math.sqrt(x * (4.0 - x)))
            assert eval_density(exp, x) == pytest.approx(want, rel=1e-12)

    def test_shifted_arcsine_family(self):
        # (2,1): moments C(2n+1,n); density sqrt(x/(4-x))/(2 pi)
        exp = build_slater_expansion(Params(F(2), F(1)))
        for x in (0.05, 1.0, 2.0, 3.5, 3.99999):
            want = math.sqrt(x / (4.0 - x)) / (2.0 * math.pi)
            assert eval_density(exp, x) == pytest.approx(want, rel=1e-12)

    def test_midpoint_value_quarter_circle(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        assert eval_density(exp, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_flag_near_endpoint(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        _, flag = eval_density(exp, 3.999999, return_flag=True)
        assert flag
        _, flag = eval_density(exp, 2.0, return_flag=True)
        assert not flag

    def test_domain_errors(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        for x in (0.0, -1.0, 4.0, 5.0):
            with pytest.raises(DomainError):
                eval_density(exp, x)

    def test_explicit_distance_is_authoritative(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        d = 1e-22  # x rounds onto the endpoint; the distance keeps it interior
        got = eval_density(exp, 4.0, dist_upper=d)
        want = 1.0 / (math.pi * math.sqrt(4.0 * d))
        assert got == pytest.approx(want, rel=1e-9)

    def test_mellin_transform_consistency(self):
        for p, r in ((F(2), F(0)), (F(3), F(1)), (F(3, 2), F(1, 2)), (F(5, 3), F(1, 3))):
            exp = build_slater_expansion(Params(p, r))
            for sigma in (1.0, 1.5, 2.0, 3.25):
                res = tanh_sinh(
                    lambda x, dl, du: eval_density(exp, x, dist_upper=du)
                    * x ** (sigma - 1.0),
                    0.0,
                    exp.domain_upper,
                    SPEC,
                )
                want = mellin_symbol(Params(p, r), sigma)
                assert res.converged
                assert res.value == pytest.approx(want, rel=1e-7)

    def test_integer_moments_recovered(self):
        for p, r in ((F(3), F(1)), (F(5, 2), F(1, 2))):
            exp = build_slater_expansion(Params(p, r))
            for n in range(0, 11, 2):
                res = tanh_sinh(
                    lambda x, dl, du: eval_density(exp, x, dist_upper=du) * x**n,
                    0.0,
                    exp.domain_upper,
                    SPEC,
                )
                want = float(gen_binomial(p, r, n))
                assert res.value == pytest.approx(want, rel=1e-8)


class TestRaneyDensity:
    def test_quarter_circle_case(self):
        # Raney family at (2,1) has Catalan moments; density is the
        # Marchenko-Pastur form sqrt((4-x)/x)/(2 pi)
        w = raney_density(Params(F(2), F(1)))
        for x in (0.5, 2.0, 3.0):
            want = math.sqrt((4.0 - x) / x) / (2.0 * math.pi)
            assert w(x) == pytest.approx(want, rel=1e-10)

    def test_closed_form_base_can_be_injected(self):
        w = raney_density(
            Params(F(2), F(1)),
            base_density=lambda y, du: 1.0 / (math.pi * math.sqrt(y * du)),
        )
        assert w(2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_moments_match_raney_numbers(self):
        w = raney_density(Params(F(3), F(1)))
        for n in (0, 1, 3):
            res = tanh_sinh(
                lambda x, dl, du: w(x, du) * x**n, 0.0, 27.0 / 4.0, SPEC
            )
            want = float(raney_number(F(3), F(1), n))
            assert res.value == pytest.approx(want, rel=1e-8)

    def test_catalan_moments(self):
        w = raney_density(Params(F(2), F(1)))
        for n in (1, 2, 4, 6):
            res = tanh_sinh(lambda x, dl, du: w(x, du) * x**n, 0.0, 4.0, SPEC)
            want = float(raney_number(F(2), F(1), n))
            assert res.value == pytest.approx(want, rel=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            raney_density(Params(F(1, 2), F(1)))
        with pytest.raises(DomainError):
            raney_density(Params(F(2), F(0)))
