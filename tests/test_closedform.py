"""Tests for the elementary density formulas and assembled measures."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from binomoment.core import DomainError, Params, RegionError, gen_binomial, support_endpoint
from binomoment.closedform import _is_elementary, eval_closed, measure_model
from binomoment.slater import build_slater_expansion, eval_density
from binomoment.quadrature import integrate


F = Fraction

TOL = 1e-12


def central_grid(upper, count=200, margin=0.02):
    return np.linspace(margin * upper, (1.0 - margin) * upper, count)


def closed(p, r, x, dist=None):
    """The elementary density at (p, r) at one abscissa."""
    return float(eval_closed(Params(p, r), [x], None if dist is None else [dist])[0])


class TestClosedFormId:
    """Which (p, r) have an elementary form, and the support it lives on."""

    def test_support_endpoints(self):
        assert float(support_endpoint(F(2))) == 4.0
        assert float(support_endpoint(F(3))) == 6.75
        assert float(support_endpoint(F(3, 2))) == math.sqrt(6.75)

    def test_quadratic_family_accepts_any_order(self):
        for r in (F(-3, 2), F(0), F(1, 2), F(7, 5), 0.123456789):
            assert math.isfinite(closed(F(2), r, 1.0))

    def test_cubic_families_restrict_order(self):
        with pytest.raises(DomainError):
            eval_closed(Params(F(3), F(1, 2)), [1.0])
        with pytest.raises(DomainError):
            eval_closed(Params(F(3, 2), F(1)), [1.0])

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            eval_closed(Params(F(5), F(0)), [1.0])
        with pytest.raises(DomainError):
            eval_closed(Params(F(5, 3), F(1, 3)), [1.0])


class TestSpotValues:
    def test_arcsine_midpoint(self):
        assert closed(F(2), F(0), 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_shifted_quadratic_midpoint(self):
        # at x = 2 the r = 1 density sqrt(x/(4-x))/(2 pi) is also 1/(2 pi)
        assert closed(F(2), F(1), 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_explicit_distance_is_authoritative(self):
        d = 1e-18
        got = closed(F(2), F(0), 4.0, d)
        assert got == pytest.approx(1.0 / (math.pi * math.sqrt(4.0 * d)), rel=1e-12)

    @pytest.mark.parametrize("r", [F(-9, 10), F(-1, 2), F(0), F(1, 2), F(1)])
    def test_quadratic_row_at_subnormal_abscissae(self, r):
        # x^(1-r) (4-x) falls below the smallest normal float, or to zero,
        # while the density stays finite, and at r = 1 vanishes like sqrt(x);
        # against 40 digits, the working precision raised so that the angle,
        # within sqrt(x)/2 of pi/2, keeps them
        for x in (1e-300, 1e-310, 2e-323, 5e-324):
            with mpmath.workdps(400):
                mx, mr = mpmath.mpf(x), mpmath.mpf(r.numerator) / r.denominator
                want = mpmath.cos(mr * mpmath.acos(mpmath.sqrt(mx / 4))) / (
                    mpmath.pi * mpmath.sqrt(mx ** (1 - mr) * (4 - mx))
                )
            assert closed(F(2), r, x) == pytest.approx(float(want), rel=1e-12), (r, x)

    @pytest.mark.parametrize("r", [-1, 1, 3, 5])
    def test_odd_quadratic_rows_toward_zero(self, r):
        # at odd r the factor cos(r acos(sqrt(x)/2)) vanishes as x -> 0, like
        # r sqrt(x)/2; against 60 digits, the working precision raised by j
        # so that the angle, within sqrt(x)/2 of pi/2, keeps them
        for j in range(1, 51):
            x = 10.0**-j
            with mpmath.workdps(60 + j):
                mx = mpmath.mpf(x)
                want = float(mpmath.cos(r * mpmath.acos(mpmath.sqrt(mx) / 2)) / (
                    mpmath.pi * mpmath.sqrt(mx ** (1 - r) * (4 - mx))))
            assert abs(closed(F(2), F(r), x) - want) <= 4 * math.ulp(want), (r, j)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            closed(F(2), F(-1), 5e-324)
        for x in (0.0, 6.75, -1.0, 7.0):
            with pytest.raises(DomainError):
                closed(F(3), F(0), x)
        with pytest.raises(DomainError):
            eval_closed(Params(F(3), F(0)), [1.0, 7.0])


class TestLadders:
    def test_cubic_top_row_rides_on_bottom(self):
        for x in central_grid(6.75, count=40):
            z = 4.0 * x / 27.0
            assert closed(F(3), F(2), float(x)) == pytest.approx(
                2.25 * z * closed(F(3), F(0), float(x)), rel=1e-13
            )

    def test_half_family_top_rides_on_middle(self):
        for x in central_grid(math.sqrt(6.75), count=40):
            z = 4.0 * x * x / 27.0
            assert closed(F(3, 2), F(1, 2), float(x)) == pytest.approx(
                math.sqrt(3.0 * z) * closed(F(3, 2), F(0), float(x)), rel=1e-13
            )

    def test_rescaled_compact_display(self):
        # direct two-branch formula for the r = -1/2 row with x scaled by 4,
        # the law of 4X on (0, 6 sqrt(3)): y -> V(y/4)/4
        for x in central_grid(6.0 * math.sqrt(3.0), count=40):
            x = float(x)
            z = x * x / 108.0
            s = math.sqrt(1.0 - z)
            want = (
                (1.0 + s) ** (2.0 / 3.0) * z ** (-1.0 / 3.0)
                + (1.0 + s) ** (-2.0 / 3.0) * z ** (1.0 / 3.0)
            ) / (12.0 * math.pi * math.sqrt(3.0) * s)
            assert closed(F(3, 2), F(-1, 2), x / 4.0) / 4.0 == pytest.approx(want, rel=1e-12)

    def test_square_pushforward_of_arcsine(self):
        # squaring the arcsine variable lands on the quarter-scaled
        # half-order density: V(sqrt(x))/(2 sqrt(x)) = V'(x/4)/4
        for x in central_grid(16.0, count=40):
            x = float(x)
            left = closed(F(2), F(0), math.sqrt(x)) / (2.0 * math.sqrt(x))
            right = closed(F(2), F(-1, 2), x / 4.0) / 4.0
            assert left == pytest.approx(right, rel=1e-12)


NINE_CASES = [
    (F(2), F(0)),
    (F(2), F(1, 2)),
    (F(2), F(1)),
    (F(3), F(0)),
    (F(3), F(1)),
    (F(3), F(2)),
    (F(3, 2), F(-1, 2)),
    (F(3, 2), F(0)),
    (F(3, 2), F(1, 2)),
]


class TestAgainstExpansion:
    @pytest.mark.parametrize("p,r", NINE_CASES)
    def test_closed_form_matches_series(self, p, r):
        assert _is_elementary(Params(p, r))
        exp = build_slater_expansion(Params(p, r))
        xs = central_grid(float(support_endpoint(p)))
        got = eval_closed(Params(p, r), xs).tolist()
        want = [eval_density(exp, float(x)) for x in xs]
        assert got == pytest.approx(want, rel=1e-9)

    def test_no_closed_form_off_the_known_rows(self):
        assert not _is_elementary(Params(F(5, 3), F(1, 3)))
        assert not _is_elementary(Params(F(3), F(1, 2)))
        assert not _is_elementary(Params(F(7, 2), F(0)))

    def test_quadratic_row_covers_all_orders(self):
        assert _is_elementary(Params(F(2), F(-3, 2)))
        assert _is_elementary(Params(F(2), F(3, 4)))
        # a float r that is a row's rational lands on that row
        assert _is_elementary(Params(F(3), 1.0))


class TestSignBehavior:
    def test_large_order_quadratic_goes_negative(self):
        vals = eval_closed(Params(F(2), F(3, 2)), central_grid(4.0)).tolist()
        assert min(vals) < 0.0
        assert max(vals) > 0.0

    @pytest.mark.parametrize("r", [F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    def test_band_orders_stay_nonnegative(self, r):
        vals = eval_closed(Params(F(2), r), central_grid(4.0)).tolist()
        assert min(vals) >= 0.0


class TestIntegerSequenceMoments:
    # moments of 4X, X on the p = 3/2, r = -1/2 row: the integer row
    # C(3n/2 - 1/2, n) 4^n
    LITERALS = [1, 4, 30, 256, 2310, 21504, 204204, 1966080, 19122246]

    def test_moments_match_literals(self):
        params = Params(F(3, 2), F(-1, 2))
        for n, lit in enumerate(self.LITERALS):
            res = integrate(
                lambda y, dr: (4.0 * y) ** n * eval_closed(params, y, dr),
                math.sqrt(6.75),
                TOL,
            )
            assert res.value == pytest.approx(float(lit), rel=1e-7)

    def test_literals_are_scaled_binomials(self):
        for n, lit in enumerate(self.LITERALS):
            assert gen_binomial(F(3, 2), F(-1, 2), n) * 4**n == lit

    def test_squared_variable_moments(self):
        # (4X)**2 has the even-indexed literals as its moments
        params = Params(F(3, 2), F(-1, 2))
        for n in (0, 1, 2, 3):
            res = integrate(
                lambda y, dr: (16.0 * y * y) ** n * eval_closed(params, y, dr),
                math.sqrt(6.75),
                TOL,
            )
            want = float(gen_binomial(F(3, 2), F(-1, 2), 2 * n)) * 16.0**n
            assert res.value == pytest.approx(want, rel=1e-7)
            assert want == self.LITERALS[2 * n]


class TestMeasureModel:
    @pytest.mark.parametrize(
        "p,r",
        [
            (F(3), F(-1)),
            (F(3, 2), F(-1)),
            (F(2), F(-1)),
            (F(2), F(1, 2)),
            (F(3), F(1)),
            (F(5, 3), F(1, 3)),
        ],
    )
    def test_total_mass_is_one(self, p, r):
        m = measure_model(Params(p, r))
        res = integrate(
            lambda y, dr: m.density(y, dr), m.upper, TOL
        )
        assert m.atom_at_zero + res.value == pytest.approx(1.0, abs=1e-9)

    def test_atom_only_on_boundary_row(self):
        assert measure_model(Params(F(3), F(-1))).atom_at_zero == pytest.approx(1 / 3)
        assert measure_model(Params(F(3, 2), F(-1))).atom_at_zero == pytest.approx(2 / 3)
        assert measure_model(Params(F(2), F(0))).atom_at_zero == 0.0

    def test_boundary_row_density_is_scaled_base_row(self):
        m = measure_model(Params(F(3), F(-1)))
        for x in (1.0, 3.0, 6.0):
            assert m.density([x], [6.75 - x])[0] == pytest.approx(
                (2.0 / 3.0) * closed(F(3), F(0), x), rel=1e-13
            )

    def test_moment_integrals(self):
        m = measure_model(Params(F(2), F(1, 2)))
        for n in (1, 2, 5):
            res = integrate(
                lambda y, dr: y**n * m.density(y, dr), m.upper, TOL
            )
            want = float(gen_binomial(F(2), F(1, 2), n))
            assert res.value == pytest.approx(want, rel=1e-9)

    def test_rejects_outside_region(self):
        with pytest.raises(RegionError):
            measure_model(Params(F(3, 2), F(1)))
        with pytest.raises(RegionError):
            measure_model(Params(F(2), F(-3, 2)))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(DomainError):
            measure_model(Params(F(1), F(0)))
