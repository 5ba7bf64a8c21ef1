"""Tests for the multiplicative factor decomposition and its sampler."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binomoment.core import (
    DomainError,
    Params,
    RegionError,
    gen_binomial,
    raney_number,
    support_endpoint,
)
from binomoment.mellin import BetaFactor, MellinFactorization, factorize, sample
from oracles import beta_moment, beta_product_moment


F = Fraction


def rationals(min_num=-8, max_num=8, max_den=6):
    return st.fractions(
        min_value=F(min_num), max_value=F(max_num), max_denominator=max_den
    )


def _moment(f: BetaFactor, n: int) -> float:
    return beta_moment(f.u, f.v, f.l, n)


def _product_moment(fac: MellinFactorization, n: int) -> float:
    """Moment n of the factorization, from the gamma-product oracle."""
    return beta_product_moment([(f.u, f.v, f.l) for f in fac.factors], float(fac.dilation), n)


class TestBetaMoment:
    # the oracle the factorizations below are checked with, on known laws
    def test_zeroth_moment_is_one(self):
        f = BetaFactor(u=0.7, v=1.3, l=3)
        assert _moment(f, 0) == 1.0

    def test_degenerate_factor_is_point_mass_at_one(self):
        f = BetaFactor(u=2.0, v=0.0, l=2)
        for n in range(6):
            assert _moment(f, n) == 1.0

    def test_symmetric_half_case_mean(self):
        # Beta(1/2, 1/2) has mean 1/2
        f = BetaFactor(u=0.5, v=0.5, l=1)
        assert _moment(f, 1) == pytest.approx(0.5, rel=1e-14)

    def test_uniform_moments(self):
        # Beta(1, 1) is uniform on [0, 1]
        f = BetaFactor(u=1.0, v=1.0, l=1)
        for n in range(1, 8):
            assert _moment(f, n) == pytest.approx(1.0 / (n + 1), rel=1e-13)

    def test_root_index_rescales_the_order(self):
        # the l-th root of a Beta draw has n-th moment equal to the
        # Beta moment at order n/l
        base = BetaFactor(u=0.4, v=0.9, l=1)
        rooted = BetaFactor(u=0.4, v=0.9, l=3)
        assert _moment(rooted, 6) == pytest.approx(
            _moment(base, 2), rel=1e-13
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(DomainError):
            BetaFactor(u=0.0, v=1.0, l=1)
        with pytest.raises(DomainError):
            BetaFactor(u=1.0, v=-0.1, l=1)
        with pytest.raises(DomainError):
            BetaFactor(u=1.0, v=1.0, l=0)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            _moment(BetaFactor(u=1.0, v=1.0, l=1), -1)


class TestFactorize:
    def test_semicircle_row_factors(self):
        # p = 2, r = 0: factors (1/2, 1/2) and (1, 0), endpoint 4
        fac = factorize(Params(F(2), F(0)))
        got = sorted((f.u, f.v, f.l) for f in fac.factors)
        assert got == [(0.5, 0.5, 1), (1.0, 0.0, 1)]
        assert float(fac.dilation) == 4.0

    def test_p2_lower_band_shapes(self):
        # -1 < r <= 0 puts the unit top parameter on the second factor
        r = F(-1, 2)
        fac = factorize(Params(F(2), r))
        got = sorted((f.u, f.v) for f in fac.factors)
        assert got[0] == (pytest.approx(0.25), pytest.approx(0.25))
        assert got[1] == (pytest.approx(0.75), pytest.approx(0.25))

    def test_p2_upper_band_shapes(self):
        # 0 < r <= 1 puts it on the first factor
        r = F(1, 2)
        fac = factorize(Params(F(2), r))
        got = sorted((f.u, f.v) for f in fac.factors)
        assert got[0] == (pytest.approx(0.75), pytest.approx(0.25))
        assert got[1] == (pytest.approx(1.25), pytest.approx(0.25))

    def test_rational_p_example(self):
        fac = factorize(Params(F(3, 2), F(0)))
        got = sorted((f.u, f.v, f.l) for f in fac.factors)
        assert got[0] == (pytest.approx(1 / 3), pytest.approx(1 / 6), 2)
        assert got[1] == (pytest.approx(2 / 3), pytest.approx(1 / 3), 2)
        assert got[2] == (pytest.approx(1.0), 0.0, 2)
        assert float(fac.dilation) == pytest.approx(math.sqrt(27.0) / 2.0)

    def test_dilation_is_support_endpoint(self):
        for p in (F(3, 2), F(5, 3), F(2), F(3), F(7, 2)):
            fac = factorize(Params(p, F(0)))
            assert float(fac.dilation) == pytest.approx(
                float(support_endpoint(p)), rel=1e-15
            )

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(RegionError):
            factorize(Params(F(2), F(-1)))
        with pytest.raises(RegionError):
            factorize(Params(F(3, 2), F(1)))
        with pytest.raises(RegionError):
            factorize(Params(F(3), F(4)))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(DomainError):
            factorize(Params(F(1), F(0)))

    @settings(max_examples=80, deadline=None)
    @given(
        p=st.fractions(min_value=F(6, 5), max_value=F(5), max_denominator=5),
        t=st.fractions(min_value=F(0), max_value=F(1), max_denominator=7),
    )
    def test_factor_shapes_always_valid(self, p, t):
        # r swept across the admissible band (-1, p-1]
        r = -1 + t * p
        if r <= -1 or r > p - 1:
            return
        fac = factorize(Params(p, r))
        k = p.numerator
        assert len(fac.factors) == k
        for f in fac.factors:
            assert f.u > 0
            assert f.v >= 0
            assert f.l == p.denominator


class TestProductMoments:
    def test_catalan_third_moment(self):
        fac = factorize(Params(F(2), F(0)))
        assert _product_moment(fac, 3) == pytest.approx(20.0, rel=1e-14)

    def test_shifted_cubic_second_moment(self):
        fac = factorize(Params(F(3), F(1)))
        assert _product_moment(fac, 2) == pytest.approx(21.0, rel=1e-14)

    def test_zeroth_is_one(self):
        fac = factorize(Params(F(5, 3), F(1, 3)))
        assert _product_moment(fac, 0) == 1.0

    @pytest.mark.parametrize(
        "p", [F(3, 2), F(5, 3), F(2), F(7, 3), F(3), F(7, 2)]
    )
    def test_matches_binomial_moments(self, p):
        rs = [-1 + (p * i) / 6 for i in range(1, 7)]
        for r in rs:
            fac = factorize(Params(p, r))
            for n in range(13):
                got = _product_moment(fac, n)
                want = float(gen_binomial(p, r, n))
                assert got == pytest.approx(want, rel=1e-10)

    def test_rejects_negative_order(self):
        fac = factorize(Params(F(2), F(0)))
        with pytest.raises(ValueError):
            _product_moment(fac, -2)


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        fac = factorize(Params(F(3), F(1)))
        a = sample(fac, 4096, seed=42)
        b = sample(fac, 4096, seed=42)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        fac = factorize(Params(F(3), F(1)))
        a = sample(fac, 1024, seed=1)
        b = sample(fac, 1024, seed=2)
        assert not np.array_equal(a, b)

    def test_prefix_stable_across_counts(self):
        # chunked seeding makes the stream extendable: a longer draw
        # starts with the shorter one
        fac = factorize(Params(F(2), F(0)))
        long = sample(fac, 70_000, seed=11)
        short = sample(fac, 65_536, seed=11)
        assert np.array_equal(long[: 65_536], short)

    def test_degenerate_product_is_constant(self):
        fac = MellinFactorization(
            factors=(BetaFactor(1.0, 0.0, 1), BetaFactor(2.0, 0.0, 3)),
            dilation=2.5,
        )
        out = sample(fac, 100, seed=0)
        assert np.all(out == 2.5)

    def test_support_bounds(self):
        fac = factorize(Params(F(3, 2), F(1, 4)))
        out = sample(fac, 50_000, seed=3)
        assert np.all(out >= 0.0)
        assert np.all(out <= float(fac.dilation))

    def test_semicircle_mean(self):
        fac = factorize(Params(F(2), F(0)))
        out = sample(fac, 1_000_000, seed=5)
        # variance of the semicircle on [0, 4] is m_2 - m_1^2 = 6 - 4 = 2
        se = math.sqrt(2.0 / out.size)
        assert abs(out.mean() - 2.0) < 5 * se

    def test_cubic_second_moment(self):
        fac = factorize(Params(F(3), F(0)))
        out = sample(fac, 1_000_000, seed=7)
        m2 = float(gen_binomial(F(3), F(0), 2))
        m4 = float(gen_binomial(F(3), F(0), 4))
        se = math.sqrt((m4 - m2 * m2) / out.size)
        assert abs(np.mean(out**2) - m2) < 5 * se

    def test_arcsine_distribution_ks(self):
        # p = 2, r = 0 has the arcsine distribution function
        # 2/pi * asin(sqrt(x/4))
        fac = factorize(Params(F(2), F(0)))
        out = np.sort(sample(fac, 100_000, seed=13))
        cdf = 2.0 / math.pi * np.arcsin(np.sqrt(out / 4.0))
        n = out.size
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        ks = max(upper.max(), lower.max())
        assert ks < 0.01

    def test_rejects_bad_count(self):
        fac = factorize(Params(F(2), F(0)))
        with pytest.raises(DomainError):
            sample(fac, -1, seed=0)
        # numpy's SeedSequence takes only nonnegative entropy
        with pytest.raises(DomainError, match="seed"):
            sample(fac, 2, seed=-1)

    @pytest.mark.parametrize("count", [10**13, 10**20])
    def test_impossible_count_is_a_domain_error(self, count):
        # 8e13 bytes is refused as memory, 10**20 as a dimension past intp
        fac = factorize(Params(F(2), F(0)))
        with pytest.raises(DomainError, match=f"cannot allocate {count} draws"):
            sample(fac, count, seed=0)


class TestRaneyLink:
    @pytest.mark.parametrize(
        "p,r",
        [
            (F(2), F(1)),
            (F(3), F(1)),
            (F(3), F(2)),
            (F(3, 2), F(1, 2)),
            (F(5, 3), F(4, 3)),
            (F(7, 2), F(3)),
        ],
    )
    def test_raney_is_biased_binomial(self, p, r):
        # multiplying by the factor with exponent c = r/(p-1) biases the
        # moments by c/(n+c), turning row r-1 into the Raney numbers
        c = r / (p - 1)
        for n in range(21):
            want = gen_binomial(p, r - 1, n) * c / (n + c)
            assert raney_number(p, r, n) == want
