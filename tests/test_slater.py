"""Hypergeometric machinery: the pFq kernel, the moment symbol, densities."""
import functools
import hashlib
import math
import time
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binomoment import slater
from binomoment.closedform import measure_model
from binomoment.mellin import _symbol
from binomoment.core import (
    DomainError,
    Params,
    RegionError,
    gen_binomial,
    raney_number,
    support_endpoint,
)
from binomoment.quadrature import integrate
from binomoment.slater import (
    _TAIL_SWITCH,
    _pfq_sum,
    build_slater_expansion,
    eval_density,
    eval_density_many,
    SlaterExpansion,
    SlaterTerm,
)
from oracles import norlund_ratios, norlund_ratios_decimal, slater_fields, theta_product

mp.mp.dps = 30

TOL = 1e-11


def _mpq(q) -> mp.mpf:
    """An exact rational as an mpmath number."""
    return mp.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# the pFq kernel


def _pfq(num, den, z):
    """(value, terms_used) of the array kernel at one z."""
    values, used = _pfq_sum([num], [den], [z])
    return float(values[0, 0]), int(used[0, 0])


class TestPfq:
    """The kernel ``_pfq_sum`` on 0 <= z < 1, the only arguments densities give it."""

    def test_arcsine_value(self):
        value, _ = _pfq([0.5, 0.5], [1.5], 0.25)
        assert value == pytest.approx(math.asin(0.5) / 0.5, rel=1e-15)

    def test_quadratic_transform_value(self):
        # 2F1(a, a+1/2; 2a; z) = (1-z)^(-1/2) ((1+sqrt(1-z))/2)^(1-2a)
        t = 1.0 / 3.0
        z = 0.5
        value, _ = _pfq([t / 2, (t + 1) / 2], [t], z)
        s = math.sqrt(1.0 - z)
        want = ((1.0 + s) / 2.0) ** (1.0 - t) / s
        assert value == pytest.approx(want, rel=1e-14)

    def test_terminating_series_is_polynomial(self):
        value, _ = _pfq([-3, 0.7], [1.3], 0.6)
        acc, term = 0.0, 1.0
        for m in range(4):
            acc += term
            term *= (-3 + m) * (0.7 + m) / (1.3 + m) / (m + 1) * 0.6
        assert value == pytest.approx(acc, rel=1e-15)
        # with two extra upper parameters too, and at z = 0 any series is 1
        value, _ = _pfq([-2, 1, 1], [1], 0.5)
        assert value == 1.0 - 2.0 * 0.5 + 2.0 * 0.25
        assert _pfq([1, 1, 1], [1], 0.0)[0] == 1.0
        # the kernel checks no parameter: a lower parameter near, not at, a
        # pole is summed like any other
        assert math.isfinite(_pfq([0.5], [-2.5], 0.3)[0])
        assert math.isfinite(_pfq([0.5, 0.5], [-2 - 2 * slater._POLE_TOL], 0.3)[0])

    def test_expansion_terms_fit_the_kernel(self):
        # the kernel's contract: every Slater term has one more upper than
        # lower parameter and only positive lower parameters, so the kernel
        # takes each series and it converges on 0 <= z < 1
        large_k = [Params(p, r) for p, r in ((F(128), F(0)), (F(127, 2), F(1)), (F(100, 3), F(0)))]
        for params, exp in (*_oracle_grid(), *((q, build_slater_expansion(q)) for q in large_k)):
            for term in exp.terms:
                assert len(term.a_vec) == len(term.b_vec) + 1, (params.p, params.r)
                assert min(term.b_vec) > 0.0, (params.p, params.r)

    def test_out_of_disc_rejected(self):
        # z = (x/c)**l leaves (0, 1) exactly when x leaves (0, c)
        exp = build_slater_expansion(Params(F(7, 2), F(1)))
        c = exp.domain_upper
        for x in (0.0, -1.0, c, 1.5 * c):
            with pytest.raises(DomainError):
                eval_density_many(exp, [0.5 * c, x])
        for x, d in ((1.0, 0.0), (1.0, -1e-9), (0.0, c)):
            with pytest.raises(DomainError):
                eval_density_many(exp, [x], [d])

    @given(
        z=st.floats(min_value=0.0, max_value=0.95),
        a1=st.floats(min_value=0.05, max_value=3.0),
        a2=st.floats(min_value=0.05, max_value=3.0),
        b1=st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_evaluation(self, z, a1, a2, b1):
        value, _ = _pfq([a1, a2], [b1], z)
        want = float(mp.hyper([a1, a2], [b1], z))
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_stalling_series_near_unit_argument_rejected(self, monkeypatch):
        # the 3F2 series at 1 - z <= _TAIL_SWITCH may need more terms than
        # the kernel sums: densities there never hand them to it
        exp = build_slater_expansion(Params(F(3), F(0)))
        c = exp.domain_upper
        summed, kernel = [], slater._pfq_sum
        monkeypatch.setattr(slater, "_pfq_sum", lambda *args: summed.append(args) or kernel(*args))
        for one_minus_z in (6e-4, 1e-4, 1e-9):
            d = c * one_minus_z  # l = 1: 1 - z = d / c
            t0 = time.perf_counter()
            value = eval_density(exp, c - d, dist_upper=d)
            assert time.perf_counter() - t0 < 0.05
            assert value > 0.0
        assert summed == []
        # the recorder is on the density path: an interior point reaches it
        assert eval_density(exp, 0.5 * c) > 0.0
        assert len(summed) == 1

    def test_near_unit_argument_still_summed_where_it_ends(self):
        # a terminating series, or one with fewer upper than lower parameters,
        # is summed directly however close z is to 1
        z = 1.0 - 1e-6
        assert _pfq([-3, 0.7], [1.3], z)[1] < 10
        value, _ = _pfq([0.5], [1.5, 2.0], z)
        assert value == pytest.approx(float(mp.hyper([0.5], [1.5, 2.0], z)), rel=1e-14)

    def test_nonconvergence_is_reported(self):
        # this 2F1 needs 2346 terms at z = 0.99: the kernel refuses it
        # after one block, naming the point, instead of returning a partial sum
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=r"not converged after 2048 terms at z = 0\.99$"):
            _pfq_sum([[0.5, 0.5]], [[1.5]], [0.5, 0.99, 0.3])
        assert time.perf_counter() - t0 < 0.05
        assert _pfq([0.5, 0.5], [1.5], 0.9)[1] < 2048


def _pfq_reference(num, den, z, block=2048):
    """The one-point sum the array kernel replaces, kept as its oracle.

    Sums ``block`` terms in one array and stops at the first run of three
    small terms.  Returns (value, terms_used), or None when no run ends
    inside the block.
    """
    num = [float(a) for a in num]
    den = [float(b) for b in den]
    m = np.arange(block, dtype=float)
    ratio = np.full(block, z)
    for a in num:
        ratio *= a + m
    for b in den:
        ratio /= b + m
    ratio /= m + 1.0
    terms = np.cumprod(ratio)
    csum = 1.0 + np.cumsum(terms)
    small = np.abs(terms) < 1e-16 * np.maximum(np.abs(csum), 1e-300)
    hits = np.nonzero(small[2:] & small[1:-1] & small[:-2])[0]
    if not hits.size:
        return None
    stop = int(hits[0]) + 2
    return float(csum[stop]), stop + 2


def _density_reference(exp, x, dist):
    """Density at x, c - x = dist, one point and one series at a time."""
    lnz = exp.l * (math.log1p(-dist / exp.domain_upper) if x > 0.5 * exp.domain_upper
                   else math.log(x / exp.domain_upper))
    w = -math.expm1(lnz)
    if w <= _TAIL_SWITCH:
        return eval_density(exp, x, dist_upper=dist)  # not summed by the kernel
    total = 0.0
    for t in exp.terms:
        if t.coef != 0.0:
            value = _pfq_reference(t.a_vec, t.b_vec, math.exp(lnz))[0]
            total += t.coef * value * math.exp(t.exponent * lnz)
    return exp.gamma_factor * total


def _kernel_rows(num, den, zs):
    values, used = _pfq_sum([num], [den], zs)
    return list(zip(values[0].tolist(), used[0].tolist()))


def _check_against_reference(num, den, zs, block=2048):
    """Hold the kernel to ``_pfq_reference`` at every z in ``zs``.

    Where the sum ends inside the block the two agree bit for bit; at each
    other z the kernel raises DomainError naming it.  Returns the reference
    rows, None where the sum does not end.
    """
    want = [_pfq_reference(num, den, z, block) for z in zs]
    ended = [z for z, row in zip(zs, want) if row is not None]
    assert _kernel_rows(num, den, ended) == [row for row in want if row is not None]
    for z, row in zip(zs, want):
        if row is None:
            with pytest.raises(DomainError, match=f"after {block} terms at z = {float(z)!r}$"):
                _pfq_sum([num], [den], [z])
    return want


class TestPfqKernel:
    """The array kernel against the one-point sum, bit for bit."""

    STALLING = ([0.5, 5.0 / 6.0, 7.0 / 6.0], [2.0 / 3.0, 4.0 / 3.0])

    @pytest.mark.parametrize("lo,hi", [(0.98525, 0.98527), (0.99719, 0.99721)])
    def test_across_block_ends(self, lo, hi):
        # the first z stop just before, at and after the end of the 2048-term
        # block: each sum that ends inside it is the reference's to the bit,
        # and each other raises; the second z all need over 2048 + 8192
        num, den = self.STALLING
        zs = np.linspace(lo, hi, 81)
        used = [row[1] for row in _check_against_reference(num, den, zs) if row is not None]
        if lo < 0.99:
            # the last sum to end does so on term 2047, the block's last
            assert 0 < len(used) < len(zs) and max(used) == 2047 + 2
        else:
            assert used == []

    def test_negative_and_zero_argument(self):
        # alternating terms at z < 0 follow the same stopping rule; z = 0 sums to 1
        zs = [-0.99, -0.5, -1e-8, 0.0]
        for num, den in (([0.5, 0.5], [1.5]), ([1.3, 0.2], [2.7]), ([0.5, 0.7, 0.2], [1.5, 2.0])):
            want = _check_against_reference(num, den, zs)
            assert want[-1][0] == 1.0, num

    def test_terminating_series(self):
        zs = [0.0, 0.3, 0.9, 0.9999, -0.7]
        for num, den in (([-3, 0.7], [1.3]), ([-40, 0.5, 1.5], [2.5, 0.25])):
            assert None not in _check_against_reference(num, den, zs)

    @pytest.mark.parametrize("max_terms", [0, 1, 2, 3, 5, 50, 2049, 2050])
    def test_small_term_budget(self, monkeypatch, max_terms):
        # the block length is the only budget: a shorter or longer one moves
        # which sums end and which raise, never a value
        monkeypatch.setattr(slater, "_BLOCK", max_terms)
        num, den = self.STALLING
        want = _check_against_reference(num, den, [0.1, 0.9, 0.99, 0.995], max_terms)
        assert want[-1] is None

    @pytest.mark.parametrize("p,r", [(F(5, 2), F(1, 2)), (F(7, 2), F(-9, 10)),
                                     (F(17, 5), F(0)), (F(17, 5), 0.3), (F(5, 2), F(2))])
    def test_mixed_density_batch(self, p, r):
        # grid points, both sides of the endpoint switch down to dist/c =
        # 1e-12, and the outermost quadrature nodes, all in one call
        exp = build_slater_expansion(Params(p, r))
        c = exp.domain_upper
        l = exp.l
        d_switch = -c * math.expm1(math.log1p(-_TAIL_SWITCH) / l)
        xs = [c * i / 41 for i in range(1, 41)] + [c * e for e in (1e-175, 1e-100, 1e-12)]
        dists = [c - x for x in xs]
        for d in [d_switch * f for f in (0.5, 1 - 1e-13, 1 + 1e-13, 1.5, 3.0, 10.0)] + [
                c * e for e in (1e-3, 1e-4, 1e-8, 1e-12, 1e-175)]:
            xs.append(c - d)
            dists.append(d)
        got = eval_density_many(exp, xs, dists).tolist()
        assert got == [_density_reference(exp, x, d) for x, d in zip(xs, dists)]
        assert got[:40] == eval_density_many(exp, xs[:40]).tolist()

    def test_many_series_in_one_pass(self):
        # series that end after 4 to over 1000 terms, two of them terminating,
        # at z <= 0 and up to 0.97, all in one call: every row is its own
        # series' reference sum to the bit, and rows leave in many chunks
        nums = [[0.5, 5 / 6, 7 / 6], [-3, 0.7, 0.2], [1.3, 0.2, 2.5], [-40, 0.5, 1.5],
                [0.5, 0.5, 0.5]]
        dens = [[2 / 3, 4 / 3], [1.3, 2.0], [2.7, 0.4], [2.5, 0.25], [1.5, 1.5]]
        zs = [-0.9, -0.5, 0.0, 1e-8, 0.3, 0.9, 0.97]
        want = [_pfq_reference(num, den, z) for num, den in zip(nums, dens) for z in zs]
        assert None not in want
        values, used = _pfq_sum(nums, dens, zs)
        assert values.shape == used.shape == (len(nums), len(zs))
        assert list(zip(values.ravel().tolist(), used.ravel().tolist())) == want
        # the third small term of a row sits at index used - 2 of its terms;
        # chunk j covers indices below _FIRST_CHUNK * (2**(j+1) - 1)
        chunks = {int(np.log2((u - 2) // slater._FIRST_CHUNK + 1)) for _, u in want}
        assert len(chunks) >= 5

    @pytest.mark.parametrize("case", ["stalling", "past the float range"])
    def test_unconverged_row_is_named_as_one_series_would(self, case):
        # the first unconverged row, series-major, gives the message the
        # one-series call at its z gives, whatever the rows around it do
        if case == "stalling":
            num, den = self.STALLING
            nums, dens = [[-3, 0.7, 0.2], num, num], [[1.3, 2.0], den, den]
            zs, first, z = [0.3, 0.995, 0.999], 1, 0.995
        else:
            # at k = 128 the term products leave the float range near z = 0.89
            terms = [t for t in build_slater_expansion(Params(F(128), F(0))).terms if t.coef]
            nums, dens = [t.a_vec for t in terms[:4]], [t.b_vec for t in terms[:4]]
            zs, first, z = [0.5, 0.8903037194916001], 0, 0.8903037194916001
        with pytest.raises(DomainError) as many:
            _pfq_sum(nums, dens, zs)
        with pytest.raises(DomainError) as one:
            _pfq_sum([nums[first]], [dens[first]], [z])
        assert str(many.value) == str(one.value)
        assert str(one.value).endswith(f"at z = {z!r}")

    @pytest.mark.parametrize("p,r,points", [(F(17, 5), F(0), "all in one pass"),
                                            (F(17, 5), F(0), "one point more"),
                                            (F(5, 2), F(1, 2), "two series a pass"),
                                            (F(5, 2), F(1, 2), "one series a pass"),
                                            (F(5, 2), F(1, 2), 2000)])
    def test_density_across_pass_sizes(self, p, r, points):
        # on both sides of each change in the number of series per pass, and
        # on a 2000-point grid: the same bits as one series at one point
        exp = build_slater_expansion(Params(p, r))
        nonzero = sum(t.coef != 0.0 for t in exp.terms)
        points = {"all in one pass": slater._PASS_ROWS // nonzero,
                  "one point more": slater._PASS_ROWS // nonzero + 1,
                  "two series a pass": slater._PASS_ROWS // 2,
                  "one series a pass": slater._PASS_ROWS // 2 + 1}.get(points, points)
        # every point on the direct side: z = (x/c)**l <= 0.94**2 < 0.9
        xs = [exp.domain_upper * 0.94 * i / points for i in range(1, points + 1)]
        dists = [exp.domain_upper - x for x in xs]
        got = eval_density_many(exp, xs).tolist()
        assert got == [_density_reference(exp, x, d) for x, d in zip(xs, dists)]

    def test_kernel_passes_per_sweep(self, monkeypatch):
        # a 200-point sweep sums the k series in groups, not one call each
        exp = build_slater_expansion(Params(F(17, 5), F(0)))
        xs = [exp.domain_upper * i / 201 for i in range(1, 201)]
        calls, kernel = [], slater._pfq_sum
        monkeypatch.setattr(slater, "_pfq_sum", lambda *args: calls.append(args) or kernel(*args))
        eval_density_many(exp, xs)
        group = max(1, slater._PASS_ROWS // 200)
        assert 1 <= len(calls) <= math.ceil(len(exp.alphas) / group) < len(exp.alphas)

    def test_error_precedence_is_term_by_term(self):
        # summed one term at a time, each term's series comes before its
        # power.  At (127/2, 0) the first two series converge at z = 0.8903
        # and the third leaves the float range, while the first power
        # overflows at x = 5e-324: the overflow is met first.  At (128, 0)
        # the first series already fails at z = 0.8903, before any power.
        for p, first in ((F(127, 2), "density at x = 5e-324 exceeds the float range"),
                         (F(128), "128F127 series terms leave the float range at z = ")):
            exp = build_slater_expansion(Params(p, F(0)))
            x89 = exp.domain_upper * 0.8903037194916001 ** (1 / exp.l)
            for xs in ([x89, 5e-324], [5e-324, x89]):
                with pytest.raises(DomainError, match="^" + first):
                    eval_density_many(exp, xs)


# ---------------------------------------------------------------------------
# gamma-quotient symbol


class TestSymbol:
    """The gamma-quotient symbol behind the Mellin factorization."""

    def test_three_halves_example(self):
        assert _symbol(Params(F(3, 2), F(0))) == (
            2, (F(1, 3), F(2, 3), F(1)), (F(1, 2), F(1), F(1)))

    def test_integer_p_rows(self):
        assert _symbol(Params(F(3), F(1))) == (1, (F(2, 3), F(1), F(4, 3)), (F(1), F(1), F(3, 2)))

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
                _symbol(params)
            return
        _, betas, alphas_tilde = _symbol(params)
        alphas = [F(j, l) if j <= l else (r + j - l) / (k - l) for j in range(1, k + 1)]
        assert sorted(alphas_tilde) == sorted(alphas)
        assert all(a >= b for a, b in zip(alphas_tilde, betas))

    def test_out_of_band_r_rejected(self):
        with pytest.raises(RegionError):
            _symbol(Params(F(3, 2), F(2)))
        with pytest.raises(RegionError):
            _symbol(Params(F(2), F(-1)))

    def test_non_admissible_p_rejected(self):
        with pytest.raises(DomainError):
            _symbol(Params(F(1, 2), F(0)))


# ---------------------------------------------------------------------------
# the density's Mellin transform


def _mp(x) -> mp.mpf:
    return _mpq(x) if isinstance(x, F) else mp.mpf(x)


def _gamma_quotient(p, r, sigma) -> mp.mpf:
    """Gamma((s-1)p+r+1) / (Gamma(s) Gamma((s-1)(p-1)+r+1)) at s = sigma.

    The moment symbol: at sigma = n + 1 it is C(n*p + r, n).
    """
    p, r, s = _mp(p), _mp(r), _mp(sigma)
    return mp.gamma((s - 1) * p + r + 1) / (mp.gamma(s) * mp.gamma((s - 1) * (p - 1) + r + 1))


def _density_mellin(p, r, sigma: float) -> float:
    """Integral of V(x) x**(sigma - 1) over (0, c) by tanh-sinh quadrature."""
    exp = build_slater_expansion(Params(p, r))
    res = integrate(
        lambda x, du: eval_density_many(exp, x, du) * x ** (sigma - 1.0),
        exp.domain_upper,
        TOL,
    )
    assert res.converged
    return res.value


class TestMellinSymbol:
    """The Mellin transform of the density is the gamma quotient of its moments."""

    @pytest.mark.parametrize(
        "p,r,sigma,want",
        [
            (F(2), F(0), F(3), 6.0),
            (F(3), F(1), F(2), 4.0),
            (F(2), F(0), F(1), 1.0),
        ],
    )
    def test_plain_values(self, p, r, sigma, want):
        assert float(_gamma_quotient(p, r, sigma)) == pytest.approx(want, rel=1e-15)
        assert _density_mellin(p, r, float(sigma)) == pytest.approx(want, rel=1e-9)

    def test_removable_point_has_halved_moment(self):
        # at sigma = 1 with r = -1 both outer gammas blow up, and the limit
        # carries the extra factor (p-1)/p: the mass of the density beside
        # the atom 1/p at zero
        for p in (F(2), F(3), F(5, 2)):
            m = measure_model(Params(p, F(-1)))
            res = integrate(lambda x, du: m.density(x, du), m.upper, TOL)
            assert res.value == pytest.approx(float((p - 1) / p), rel=1e-9)
            assert m.atom_at_zero == pytest.approx(float(1 / p), rel=1e-15)

    @given(
        k=st.integers(min_value=2, max_value=9),
        l=st.integers(min_value=1, max_value=8),
        num=st.integers(min_value=-30, max_value=40),
        den=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_denominator_only_pole_gives_zero(self, k, l, num, den):
        # the quotient splits into k Slater terms whose coefficients have
        # gamma poles only in the denominator, at alpha_j - beta_h in -N0;
        # exactly those terms are zero
        if math.gcd(k, l) != 1 or k <= l:
            return
        r = F(num, den)
        alphas = [F(j, l) if j <= l else (r + j - l) / (k - l) for j in range(1, k + 1)]
        terms = build_slater_expansion(Params(F(k, l), r)).terms
        for h, term in enumerate(terms, start=1):
            beta = (r + h) / k
            pole = any((a - beta).denominator == 1 and a - beta <= 0 for a in alphas)
            assert (term.coef == 0.0) == pole, (k, l, r, h)

    def test_float_inputs_reach_same_values(self):
        exact = _density_mellin(F(5, 2), F(1, 2), 2.5)
        loose = _density_mellin(F(5, 2), 0.5, 2.5)
        assert loose == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(float(_gamma_quotient(F(5, 2), F(1, 2), 2.5)), rel=1e-9)

    @pytest.mark.parametrize("p,r", [(F(2), F(0)), (F(2), F(1)), (F(3), F(1))])
    def test_sigma_recurrence(self, p, r):
        # M(s+1)/M(s) is a fixed rational function of s for integer p
        pi, ri = int(p), float(r)
        for s in (1.3, 2.0, 2.7, 4.5):
            lhs = _density_mellin(p, r, s + 1.0) / _density_mellin(p, r, s)
            num = 1.0
            for i in range(pi):
                num *= s * pi + ri - i
            den = s
            for i in range(pi - 1):
                den *= s * (pi - 1) + ri - i
            assert lhs == pytest.approx(num / den, rel=1e-9)

    def test_interpolates_moments(self):
        # the quotient meets the moments at sigma = n + 1; the density's
        # transform follows it between them
        for p, r in ((F(2), F(1)), (F(3), F(1, 2)), (F(5, 2), F(3, 2))):
            for n in range(6):
                moment = _mpq(F(gen_binomial(p, r, n)))
                assert abs(_gamma_quotient(p, r, n + 1) - moment) < mp.mpf("1e-25") * moment
                sigma = n + 1.5
                assert _density_mellin(p, r, sigma) == pytest.approx(
                    float(_gamma_quotient(p, r, sigma)), rel=1e-8), (p, r, n)


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


#: the library's gamma without its pole test, remembered: the oracle makes
#: its own pole decision, then asks it for the same arguments across a grid,
#: and a value read twice is the same value
_gamma = functools.cache(slater._gamma)


def _fraction_oracle(params: Params) -> SlaterExpansion:
    # the expansion as built with Fraction arithmetic, from the same gammas
    gamma_factor, terms, alphas, betas = slater_fields(
        params.k, params.l, params.r, _gamma, slater._POLE_TOL)
    return SlaterExpansion(
        l=params.l, gamma_factor=gamma_factor,
        terms=tuple(SlaterTerm(*t) for t in terms),
        domain_upper=float(support_endpoint(params.p)), alphas=alphas, betas=betas)


#: exact r of the oracle grid, r = p - 1 added per p; then two float r
_ORACLE_RS = (F(-1), F(-9, 10), F(-1, 2), F(0), F(1, 2), F(1), F(2), F(-3, 2))
_ORACLE_FLOAT_RS = (-0.3, 0.7)


@functools.cache
def _oracle_grid() -> tuple:
    """(params, built expansion) for every coprime k/l with k <= 19 and each grid r."""
    grid = []
    for k in range(2, 20):
        for l in range(1, k):
            if math.gcd(k, l) != 1:
                continue
            p = F(k, l)
            for r in (*dict.fromkeys((*_ORACLE_RS, p - 1)), *_ORACLE_FLOAT_RS):
                params = Params(p, r)
                grid.append((params, build_slater_expansion(params)))
    return tuple(grid)


class TestExpansionOracle:
    def test_small_k_grid_matches_fraction_arithmetic(self):
        # every coprime k/l with k <= 19: record equality, so every
        # coefficient, parameter and exponent keeps its bits
        zeroed = 0
        for params, built in _oracle_grid():
            assert built == _fraction_oracle(params), (params.p, params.r)
            zeroed += sum(t.coef == 0.0 for t in built.terms)
        # pole-zeroed terms, such as term 2 of (3, 0) (alpha_1 = beta_3), are
        # in the grid: the pole test is exercised, not only the gammas
        assert zeroed > 100

    @pytest.mark.parametrize("p,r", [
        (F(64), F(0)), (F(100, 3), F(0)), (F(127, 2), F(1)), (F(128), F(0)),
        (F(128, 127), F(0)), (F(101, 100), F(0)), (F(100), 0.5),
    ], ids=str)
    def test_large_k_matches_fraction_arithmetic(self, p, r):
        params = Params(p, r)
        assert build_slater_expansion(params) == _fraction_oracle(params)


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

    @pytest.mark.parametrize("x", [0.0, -0.0, 6.75, math.nan, math.inf, -math.inf])
    def test_support_points_refuse_points_outside(self, x):
        # without distances one test, x > 0 and c - x > 0, refuses each of
        # these; fl(c - x) > 0 holds exactly when x < c, never at nan or inf
        with pytest.raises(DomainError, match=r"^density defined on \(0, 6\.75\)$"):
            slater.support_points([1.0, x], None, 6.75)
        below = math.nextafter(6.75, 0.0)
        assert slater.support_points([below], None, 6.75) == ([below], [6.75 - below])

    def test_explicit_distance_is_authoritative(self):
        exp = build_slater_expansion(Params(F(2), F(0)))
        d = 1e-22  # x rounds onto the endpoint; the distance keeps it interior
        got = eval_density(exp, 4.0, dist_upper=d)
        want = 1.0 / (math.pi * math.sqrt(4.0 * d))
        assert got == pytest.approx(want, rel=1e-9)

    def test_mellin_transform_consistency(self):
        for p, r in ((F(2), F(0)), (F(3), F(1)), (F(3, 2), F(1, 2)), (F(5, 3), F(1, 3))):
            for sigma in (1.0, 1.5, 2.0, 3.25):
                want = float(_gamma_quotient(p, r, sigma))
                assert _density_mellin(p, r, sigma) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("p,r", [(F(7, 2), F(1)), (F(5, 3), F(1, 3)), (F(17, 5), 0.3)])
    def test_subnormal_abscissae(self, p, r):
        # x/c below the smallest normal float, down to the smallest subnormal
        # x, against the Meijer G-function at 30 digits
        exp = build_slater_expansion(Params(p, r))
        alphas, betas = _meijer_parameters(p, r, r)
        c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
        scale = exp.l * mp.fprod(map(mp.gamma, alphas)) / (c * mp.fprod(map(mp.gamma, betas)))
        xs = [1e-300, 1e-308, 1e-310, 2e-323, 5e-324]
        got = eval_density_many(exp, xs)
        for x, v in zip(xs, got):
            z = (mp.mpf(x) / c) ** exp.l
            want = scale * z ** (mp.mpf(-1) / exp.l) * mp.meijerg([[], alphas], [betas, []], z)
            assert v == pytest.approx(float(want), rel=1e-13), (p, r, x)
            assert v == eval_density(exp, x)

    @pytest.mark.parametrize("r", [F(-1) + F(1, 10**j) for j in (7, 9, 12)] + [
        F(1, 10**9), F(-1, 10**9), F(1, 2) + F(1, 10**9), F(1, 2) - F(1, 10**9),
        F(1) + F(1, 10**9), F(1) - F(1, 10**9)])
    def test_exact_r_next_to_a_pole_line(self, r):
        # a gamma argument of a Slater coefficient lies within 1e-9 of a pole,
        # inside the float rule's tolerance; exact r decides it exactly, so
        # the term stays and the density is the G-function's at 40 digits
        for p in (F(5, 2), F(7, 3), F(3)):
            exp = build_slater_expansion(Params(p, r))
            alphas, betas = _meijer_parameters(p, r, r)
            with mp.workdps(40):
                c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
                scale = exp.l * mp.fprod(map(mp.gamma, alphas)) / (
                    c * mp.fprod(map(mp.gamma, betas)))
                xs = [t * float(c) for t in (0.01, 0.3, 0.97)]
                for x, v in zip(xs, eval_density_many(exp, xs)):
                    z = (mp.mpf(x) / c) ** exp.l
                    want = scale * z ** (mp.mpf(-1) / exp.l) * mp.meijerg(
                        [[], alphas], [betas, []], z)
                    assert v == pytest.approx(float(want), rel=1e-13), (p, r, x)

    def test_integer_moments_recovered(self):
        for p, r in ((F(3), F(1)), (F(5, 2), F(1, 2))):
            exp = build_slater_expansion(Params(p, r))
            for n in range(0, 11, 2):
                res = integrate(
                    lambda x, du: eval_density_many(exp, x, du) * x**n,
                    exp.domain_upper,
                    TOL,
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


def _endpoint_oracle(p, r, dist_rel):
    """K z**(-1/l) G(z) at x = c (1 - dist_rel), the test_matches_meijer_g form."""
    l = p.denominator
    alphas, betas = _meijer_parameters(p, r, r)
    c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
    scale = l * mp.fprod(map(mp.gamma, alphas)) / (c * mp.fprod(map(mp.gamma, betas)))
    z = (1 - mp.mpf(dist_rel)) ** l
    return scale * z ** (mp.mpf(-1) / l) * _mellin_side_g(alphas, betas, 1 - z, 16)


def _raney_density(p, r):
    """W(x, dist_upper=None) of the Raney density at (p, r), from two binomial ones.

    r/(n*p+r) C(n*p+r, n) = C(n*p+r, n) - p C((n-1)*p + r+p-1, n-1), so
    W(x) = V_{p,r}(x) - p V_{p,r+p-1}(x)/x.  The two terms cancel near the
    endpoint, where V grows like (c - x)**(-1/2) and W vanishes like its root.
    """
    v = build_slater_expansion(Params(p, r))
    shifted = build_slater_expansion(Params(p, r + p - 1))

    def w(x, dist_upper=None):
        return eval_density(v, x, dist_upper) - float(p) * eval_density(shifted, x, dist_upper) / x

    return w


def _endpoint_density(p, r, raney):
    if raney:
        return _raney_density(p, r)
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
        "p,r",
        [
            (F(5, 3), F(0)),
            (F(5, 2), F(1, 2)),
            (F(7, 2), F(-9, 10)),
            (F(11, 3), F(8, 3)),  # r = p - 1
            (F(2), F(1)),  # r = p - 1
            (F(17, 5), F(0)),  # k = 17
            (F(17, 5), 0.3),  # float r
        ],
    )
    def test_matches_meijer_g_near_endpoint(self, p, r):
        exp = build_slater_expansion(Params(p, r))
        c = float(support_endpoint(p))
        for dist_rel in (1e-4, 1e-8, 1e-12):
            want = _endpoint_oracle(p, r, dist_rel)
            d = dist_rel * c
            got = eval_density(exp, c - d, dist_upper=d)
            assert got == pytest.approx(float(want), rel=4e-15), (p, r, dist_rel)

    @pytest.mark.parametrize("p,r", [(F(17, 5), F(0)), (F(31, 3), F(0)), (F(41, 40), F(0))])
    def test_coefficients_match_exact_recurrence(self, p, r):
        # the recurrence in decimal against the operator applied to each
        # power in Fractions, on the same float parameters taken exactly
        exp = build_slater_expansion(Params(p, r))
        got = slater._norlund_coeffs(exp.alphas, exp.betas)
        want = norlund_ratios([F(a) for a in exp.alphas], [F(b) for b in exp.betas],
                              F(slater._PSI), len(got))
        assert len(got) == (20 if p.numerator == 41 else 18)
        for n, (g, w) in enumerate(zip(got, want)):
            assert abs(F(g) - w) <= F(1, 10**20) * abs(w), n

    def test_coefficients_keep_their_bits_on_the_grid(self):
        # every float coefficient as the theta-image recurrence, which
        # applies both products anew for each n, rounds it
        for params, exp in _oracle_grid():
            want = norlund_ratios_decimal(exp.alphas, exp.betas, slater._PSI, _TAIL_SWITCH,
                                          slater._ENDPOINT_TERMS)
            assert exp.endpoint_coeffs == _endpoint_coeffs(want), (params.p, params.r)

    @pytest.mark.parametrize("p,r", [(F(64), F(0)), (F(100), 0.5), (F(128), F(0))], ids=str)
    def test_large_k_coefficients_keep_their_bits(self, p, r):
        exp = build_slater_expansion(Params(p, r))
        want = norlund_ratios_decimal(exp.alphas, exp.betas, slater._PSI, _TAIL_SWITCH,
                                      slater._ENDPOINT_TERMS)
        assert exp.endpoint_coeffs == _endpoint_coeffs(want)

    @given(
        shifts=st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12),
                        min_size=1, max_size=7),
        s=st.fractions(min_value=-5, max_value=40, max_denominator=12),
        steps=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_difference_table_is_the_theta_product(self, shifts, s, steps):
        # Opitz's formula: the coefficient of w**(s-i) in prod_j (theta -
        # c_j) w**s is prod_{j<i} (j - s) P[s, ..., s - i], exactly, both
        # for a table built at s and for one moved on from s - steps
        table = slater._difference_table(shifts, s - steps)
        for _ in range(steps):
            slater._advance(table)
        assert table == slater._difference_table(shifts, s)
        image = theta_product(shifts, s, 0)
        scale = F(1)
        for i, d in enumerate(table):
            assert scale * d == image[-i], i
            scale *= i - s

    def test_term_cap_still_raises(self, monkeypatch):
        # (17/5, 0) needs 18 terms
        exp = build_slater_expansion(Params(F(17, 5), F(0)))
        monkeypatch.setattr(slater, "_ENDPOINT_TERMS", 12)
        with pytest.raises(DomainError, match="^Norlund series needs over 12 terms$"):
            slater._norlund_coeffs(exp.alphas, exp.betas)

    @pytest.mark.parametrize("p,r", [(F(17, 5), F(0)), (F(31, 3), F(0))])
    def test_matches_meijer_g_out_to_the_switch(self, p, r):
        # from 1 - z just inside the switch down to 1e-3, against the Meijer
        # G-function at 30 digits: mpmath's meijerg where it takes seconds,
        # the Mellin-side series everywhere (meijerg runs for minutes at 1e-3)
        exp = build_slater_expansion(Params(p, r))
        l = exp.l
        alphas, betas = _meijer_parameters(p, r, r)
        c = _mpq(p) ** _mpq(p) * (_mpq(p) - 1) ** (1 - _mpq(p))
        scale = l * mp.fprod(map(mp.gamma, alphas)) / (c * mp.fprod(map(mp.gamma, betas)))
        meijer = ("0.099", "0.05", "0.01") if p.numerator == 17 else ("0.099",)
        for w in ("0.099", "0.05", "0.01", "0.001"):
            d = float(c * (1 - (1 - mp.mpf(w)) ** (mp.mpf(1) / l)))
            got = eval_density(exp, exp.domain_upper - d, dist_upper=d)
            z = (1 - mp.mpf(d) / c) ** l  # at the abscissa evaluated
            head = scale * z ** (mp.mpf(-1) / l)
            want = head * _mellin_side_g(alphas, betas, 1 - z, 30)
            assert got == pytest.approx(float(want), rel=4e-15), (p, w)
            if w in meijer:
                want = head * mp.meijerg([[], alphas], [betas, []], z)
                assert got == pytest.approx(float(want), rel=4e-15), (p, w)

    @pytest.mark.parametrize(
        "p,r,raney", [(F(5, 3), F(0), False), (F(17, 5), F(0), False), (F(3), F(1), True),
                      (F(100, 3), F(0), False)]  # 44 coefficients at k = 100
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
        for one_minus_z in (0.03, 0.06, 0.12, 0.2):
            lnz = math.log1p(-one_minus_z)
            x = c * math.exp(lnz / exp.l)
            direct = exp.gamma_factor * math.fsum(
                t.coef * _pfq_reference(t.a_vec, t.b_vec, 1.0 - one_minus_z)[0]
                * math.exp(t.exponent * lnz)
                for t in exp.terms if t.coef != 0.0
            )
            series = math.fsum(cn * one_minus_z**n for n, cn in enumerate(exp.endpoint_coeffs))
            endpoint = exp.gamma_factor * math.exp(-lnz / exp.l) * one_minus_z ** (slater._PSI - 1) * series
            assert endpoint == pytest.approx(direct, rel=1e-12), one_minus_z
            assert eval_density(exp, x, dist_upper=c - x) == pytest.approx(direct, rel=1e-12)

    def test_coefficients_built_on_first_endpoint_point(self):
        exp = build_slater_expansion(Params(F(5, 2), F(1, 2)))
        eval_density(exp, 0.5 * exp.domain_upper)
        assert "endpoint_coeffs" not in vars(exp)
        eval_density(exp, exp.domain_upper * (1 - 1e-6))
        assert len(vars(exp)["endpoint_coeffs"]) >= 8

    def test_no_coefficients_for_a_sweep_whose_direct_sums_fail(self, monkeypatch):
        # at k = 128 the direct series at x = 308.56... leave the float range;
        # the endpoint point of the same sweep then needs no coefficients
        calls = []
        build = slater._norlund_coeffs
        monkeypatch.setattr(slater, "_norlund_coeffs",
                            lambda alphas, betas: calls.append(len(alphas)) or build(alphas, betas))
        exp = build_slater_expansion(Params(F(128), F(0)))
        sweep = [exp.domain_upper * (1 - 1e-6), 308.56150298537915]
        with pytest.raises(DomainError, match="leave the float range"):
            eval_density_many(exp, sweep)
        assert calls == []
        # a sweep whose direct sums succeed does build them
        exp = build_slater_expansion(Params(F(5, 2), F(1, 2)))
        eval_density_many(exp, [exp.domain_upper * (1 - 1e-6), 0.5 * exp.domain_upper])
        assert calls == [5]

    def test_a_failing_direct_sum_is_raised_before_the_coefficients_fail(self, monkeypatch):
        def refuse(alphas, betas):
            raise DomainError("no Norlund coefficients")

        monkeypatch.setattr(slater, "_norlund_coeffs", refuse)
        exp = build_slater_expansion(Params(F(128), F(0)))
        x = 308.56150298537915
        with pytest.raises(DomainError) as alone:
            eval_density_many(exp, [x])
        assert str(alone.value).startswith("128F127 series terms leave the float range")
        with pytest.raises(DomainError) as err:
            eval_density_many(exp, [x, exp.domain_upper * (1 - 1e-6)])
        assert str(err.value) == str(alone.value)


def _endpoint_coeffs(ratios) -> tuple:
    """Decimal ratios c_n/c_0 rounded as ``SlaterExpansion.endpoint_coeffs`` rounds them."""
    c0 = 1.0 / math.gamma(slater._PSI)
    return tuple(c0 * float(q) for q in ratios)


def _on_nodes(density, xs, dists):
    """A one-point evaluator (x, dist_upper) mapped over quadrature nodes."""
    return np.array([density(x, d) for x, d in zip(xs, dists)])


class TestRaneyDensity:
    def test_quarter_circle_case(self):
        # Raney family at (2,1) has Catalan moments; density is the
        # Marchenko-Pastur form sqrt((4-x)/x)/(2 pi)
        w = _raney_density(F(2), F(1))
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
        w = _raney_density(p, r)
        for t in (0.05, 0.3, 0.7, 0.95):
            z = _mpq(F(t)) ** l
            want = scale * z ** (mp.mpf(-1) / l) * mp.meijerg([[], alphas], [betas, []], z)
            assert w(t * float(c)) == pytest.approx(float(want), rel=1e-12), (p, r, t)

    def test_moments_match_raney_numbers(self):
        for p, r in ((F(3), F(1)), (F(3, 2), F(3, 2)), (F(5, 3), F(1, 5)), (F(3), 0.5)):
            w = _raney_density(p, r)
            upper = float(support_endpoint(p))
            for n in (0, 1, 3):
                res = integrate(lambda x, du: _on_nodes(w, x, du) * x**n, upper, TOL)
                want = float(raney_number(p, r, n))
                assert res.value == pytest.approx(want, rel=1e-8), (p, r, n)

    def test_catalan_moments(self):
        w = _raney_density(F(2), F(1))
        for n in (1, 2, 4, 6):
            res = integrate(lambda x, du: _on_nodes(w, x, du) * x**n, 4.0, TOL)
            want = float(raney_number(F(2), F(1), n))
            assert res.value == pytest.approx(want, rel=1e-8)
