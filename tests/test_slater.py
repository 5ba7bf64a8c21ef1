"""Hypergeometric machinery: pfq evaluation, the moment symbol, densities."""
import hashlib
import math
import time
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
    support_endpoint,
)
from binomoment.quadrature import QuadratureSpec, tanh_sinh
from binomoment.slater import (
    _TAIL_SWITCH,
    _pfq_direct,
    build_slater_expansion,
    build_symbol,
    eval_density,
    mellin_symbol,
    pfq,
    raney_density,
)

mp.mp.dps = 30

SPEC = QuadratureSpec(target_abs_tol=1e-11)


def _mpq(q) -> mp.mpf:
    """An exact rational as an mpmath number."""
    return mp.mpf(q.numerator) / q.denominator


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

    def test_stalling_series_near_unit_argument_rejected(self):
        # 3F2 at 1 - z <= _TAIL_SWITCH would need >~60000 terms: refused at once
        a = [0.5, 5.0 / 6.0, 7.0 / 6.0]
        b = [2.0 / 3.0, 4.0 / 3.0]
        for one_minus_z in (6e-4, 1e-4, 1e-9):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match="eval_density"):
                pfq(a, b, 1.0 - one_minus_z)
            assert time.perf_counter() - t0 < 0.05

    def test_near_unit_argument_still_summed_where_it_ends(self):
        # a terminating series, or one with fewer upper than lower parameters,
        # is summed directly however close z is to 1
        z = 1.0 - 1e-6
        assert pfq([-3, 0.7], [1.3], z).converged
        got = pfq([0.5], [1.5, 2.0], z)
        assert got.value == pytest.approx(float(mp.hyper([0.5], [1.5, 2.0], z)), rel=1e-14)

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

    def test_binomial_expansion_bits_are_pinned(self):
        # every float of the expansion feeds printed densities, so a change in
        # any bit shows up as a digest mismatch here before it reaches stdout
        digest = hashlib.sha256(_expansion_reprs().encode()).hexdigest()
        assert digest == _PINNED_EXPANSION_DIGEST


#: p values with k up to 19, crossed with exact r, float-of-exact r (one
#: dyadic, two not) and a non-dyadic float; r = 0 and 1 hit gamma poles
_PINNED_PS = (F(3, 2), F(2), F(5, 3), F(5, 2), F(3), F(7, 2), F(11, 3), F(19, 7), F(19, 2))
_PINNED_RS = (F(0), 0.0, F(1, 3), 1 / 3, F(-9, 10), -0.9, F(1), 0.7071)
_PINNED_EXPANSION_DIGEST = "3974b32f5061d6b494ce47f24c07cc26a71ec1723fa7cee5b4082c1884ebe1b3"


def _expansion_reprs() -> str:
    lines = []
    for p in _PINNED_PS:
        for r in _PINNED_RS:
            exp = build_slater_expansion(Params(p, r))
            lines.append(f"{p} {r!r} {exp.gamma_factor!r}")
            for t in exp.terms:
                lines.append(f"{t.coef!r} {t.a_vec!r} {t.b_vec!r} {t.exponent!r}")
    return "\n".join(lines)


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
        # 3.99999 has 1 - z = 2.5e-6, on the endpoint expansion
        for x in (0.05, 1.0, 2.0, 3.5, 3.99999):
            want = math.sqrt(x / (4.0 - x)) / (2.0 * math.pi)
            assert eval_density(exp, x) == pytest.approx(want, rel=1e-12)

    def test_midpoint_value_quarter_circle(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        assert eval_density(exp, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

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


def _meijer_parameters(p, r, r_beta):
    """alpha, beta of the G-function behind the density at (p, r), as mpmath numbers."""
    k, l = p.numerator, p.denominator
    ra, rb = _mpq(F(r)), _mpq(F(r_beta))  # exact, also for float r
    alphas = [_mpq(F(j, l)) if j <= l else (ra + j - l) / (k - l) for j in range(1, k + 1)]
    betas = [(rb + h) / k for h in range(1, k + 1)]
    return alphas, betas


def _mellin_side_g(alphas, betas, w, count):
    """G^{k,0}_{k,k}(1 - w | alphas; betas) from the Mellin transform alone.

    G's Mellin transform over (0, 1) is prod Gamma(s + beta_j)/Gamma(s + alpha_j).
    Times Gamma(s + psi)/Gamma(s) it equals sum_n c_n Gamma(psi + n)/(s + psi)_n
    when G = w**(psi-1) sum_n c_n w**n, so the c_n follow by matching powers
    of 1/s against Stirling's series log Gamma(s + a) - log Gamma(s) = a log s
    + sum_m (-1)**(m+1) (B_{m+1}(a) - B_{m+1}(0)) / (m (m+1) s**m).
    """
    psi = mp.fsum(alphas) - mp.fsum(betas)

    def bern(m, a):
        return mp.bernpoly(m + 1, a) - mp.bernpoly(m + 1, 0)

    # log of the product as a series in u = 1/s (the log s terms cancel)
    log_r = [mp.mpf(0)] + [
        (-1) ** (m + 1)
        * (mp.fsum(bern(m, b) for b in betas) - mp.fsum(bern(m, a) for a in alphas) + bern(m, psi))
        / (m * (m + 1))
        for m in range(1, count)
    ]
    rem = [mp.mpf(1)] + [mp.mpf(0)] * (count - 1)  # exp(log_r)
    for m in range(1, count):
        rem[m] = mp.fsum(j * log_r[j] * rem[m - j] for j in range(1, m + 1)) / m
    basis = [mp.mpf(1)] + [mp.mpf(0)] * (count - 1)  # 1/(s + psi)_n in powers of u
    total = mp.mpf(0)
    for n in range(count):
        g_n = rem[n] / basis[n]
        total += g_n / mp.gamma(psi + n) * w**n
        rem = [x - g_n * y for x, y in zip(rem, basis)]
        nxt = [mp.mpf(0)] * count
        for m in range(1, count):
            nxt[m] = basis[m - 1] - (psi + n) * nxt[m - 1]
        basis = nxt
    return w ** (psi - 1) * total


def _endpoint_oracle(p, r, r_beta, dist_rel):
    """K z**(-1/l) G(z) at x = c (1 - dist_rel), the test_matches_meijer_g form."""
    l = p.denominator
    alphas, betas = _meijer_parameters(p, r, r_beta)
    c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
    scale = l * mp.fprod(map(mp.gamma, alphas)) / (c * mp.fprod(map(mp.gamma, betas)))
    z = (1 - mp.mpf(dist_rel)) ** l
    return scale * z ** (mp.mpf(-1) / l) * _mellin_side_g(alphas, betas, 1 - z, 16)


def _endpoint_density(p, r, raney):
    if raney:
        return raney_density(Params(p, r))
    exp = build_slater_expansion(Params(p, r))
    return lambda x, dist_upper: eval_density(exp, x, dist_upper=dist_upper)


class TestEndpointExpansion:
    def test_oracle_is_the_meijer_g_function(self):
        # the Mellin-side series against mpmath's own G at 1 - z = 0.05 and 0.2
        for p, r in ((F(5, 2), F(1, 2)), (F(7, 2), F(-9, 10))):
            alphas, betas = _meijer_parameters(p, r, r)
            for w in (mp.mpf("0.05"), mp.mpf("0.2")):
                want = mp.meijerg([[], alphas], [betas, []], 1 - w)
                got = _mellin_side_g(alphas, betas, w, 40)
                assert abs(got - want) < mp.mpf("1e-20") * abs(want), (p, r, w)

    @pytest.mark.parametrize(
        "p,r,raney",
        [
            (F(5, 3), F(0), False),
            (F(5, 2), F(1, 2), False),
            (F(7, 2), F(-9, 10), False),
            (F(11, 3), F(8, 3), False),  # r = p - 1
            (F(2), F(1), False),  # r = p - 1
            (F(17, 5), F(0), False),  # k = 17
            (F(17, 5), 0.3, False),  # float r
            (F(3), F(1), True),
            (F(5, 2), F(1, 2), True),
        ],
    )
    def test_matches_meijer_g_near_endpoint(self, p, r, raney):
        f = _endpoint_density(p, r, raney)
        c = float(support_endpoint(p))
        for dist_rel in (1e-4, 1e-8, 1e-12):
            want = _endpoint_oracle(p, r, r - 1 if raney else r, dist_rel)
            d = dist_rel * c
            assert f(c - d, d) == pytest.approx(float(want), rel=4e-15), (p, r, dist_rel)

    @pytest.mark.parametrize(
        "p,r,raney", [(F(5, 3), F(0), False), (F(17, 5), F(0), False), (F(3), F(1), True)]
    )
    def test_continuous_across_switch(self, p, r, raney):
        # the two sides of 1 - z = _TAIL_SWITCH are summed by different series
        f = _endpoint_density(p, r, raney)
        c = float(support_endpoint(p))
        l = p.denominator
        d_switch = -c * math.expm1(math.log1p(-_TAIL_SWITCH) / l)
        values = []
        for d in (d_switch * (1 - 1e-13), d_switch * (1 + 1e-13)):
            values.append(f(c - d, d))
        below = -math.expm1(l * math.log1p(-d_switch * (1 - 1e-13) / c))
        above = -math.expm1(l * math.log1p(-d_switch * (1 + 1e-13) / c))
        assert below <= _TAIL_SWITCH < above
        assert values[0] == pytest.approx(values[1], rel=1e-12)

    def test_endpoint_and_direct_sums_overlap(self):
        # at one abscissa on each side of the switch, the k direct series
        # (summed however long they take) agree with the endpoint expansion
        exp = build_slater_expansion(Params(F(7, 2), F(-9, 10)))
        c = exp.domain_upper
        for one_minus_z in (3e-4, 5e-4, 8e-4, 2e-3):
            lnz = math.log1p(-one_minus_z)
            x = c * math.exp(lnz / exp.l)
            direct = exp.gamma_factor * math.fsum(
                t.coef * _pfq_direct(t.a_vec, t.b_vec, 1.0 - one_minus_z, 1e-16, 10**6).value
                * math.exp(t.exponent * lnz)
                for t in exp.terms if t.coef != 0.0
            )
            series = math.fsum(cn * one_minus_z**n for n, cn in enumerate(exp.endpoint_coeffs))
            endpoint = exp.gamma_factor * math.exp(-lnz / exp.l) * one_minus_z ** (exp.psi - 1) * series
            assert endpoint == pytest.approx(direct, rel=1e-12), one_minus_z
            assert eval_density(exp, x, dist_upper=c - x) == pytest.approx(direct, rel=1e-12)

    def test_coefficients_built_on_first_endpoint_point(self):
        exp = build_slater_expansion(Params(F(5, 2), F(1, 2)))
        eval_density(exp, 0.5 * exp.domain_upper)
        assert "endpoint_coeffs" not in vars(exp)
        eval_density(exp, exp.domain_upper * (1 - 1e-6))
        assert len(vars(exp)["endpoint_coeffs"]) >= 8


class TestRaneyDensity:
    def test_quarter_circle_case(self):
        # Raney family at (2,1) has Catalan moments; density is the
        # Marchenko-Pastur form sqrt((4-x)/x)/(2 pi)
        w = raney_density(Params(F(2), F(1)))
        for x in (0.5, 2.0, 3.0):
            want = math.sqrt((4.0 - x) / x) / (2.0 * math.pi)
            assert w(x) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "p,r", [(F(3), F(1)), (F(5, 2), F(1, 2)), (F(7, 3), F(7, 3)), (F(3, 2), F(3, 4))]
    )
    def test_matches_meijer_g(self, p, r):
        # W = K z^(-1/l) G^{k,0}_{k,k}(z | alpha; beta), z = (x/c)^l, with the
        # binomial alpha at (p, r) and beta_j = (r - 1 + j)/k
        k, l = p.numerator, p.denominator
        alphas = [_mpq(F(j, l)) if j <= l else _mpq((r + j - l) / (k - l))
                  for j in range(1, k + 1)]
        betas = [_mpq((r - 1 + j) / k) for j in range(1, k + 1)]
        c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
        scale = l * mp.fprod(map(mp.gamma, alphas)) / (c * mp.fprod(map(mp.gamma, betas)))
        w = raney_density(Params(p, r))
        for t in (0.05, 0.3, 0.7, 0.95):
            z = _mpq(F(t)) ** l
            want = scale * z ** (mp.mpf(-1) / l) * mp.meijerg([[], alphas], [betas, []], z)
            assert w(t * float(c)) == pytest.approx(float(want), rel=1e-12), (p, r, t)

    def test_moments_match_raney_numbers(self):
        for p, r in ((F(3), F(1)), (F(3, 2), F(3, 2)), (F(5, 3), F(1, 5)), (F(3), 0.5)):
            w = raney_density(Params(p, r))
            upper = float(support_endpoint(p))
            for n in (0, 1, 3):
                res = tanh_sinh(lambda x, dl, du: w(x, du) * x**n, 0.0, upper, SPEC)
                want = float(raney_number(p, r, n))
                assert res.value == pytest.approx(want, rel=1e-8), (p, r, n)

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
