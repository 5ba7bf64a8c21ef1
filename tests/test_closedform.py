"""Tests for the elementary density formulas and assembled measures."""

import math
from fractions import Fraction

import numpy as np
import pytest

from binomoment.core import DomainError, Params, RegionError, gen_binomial
from binomoment.closedform import (
    ClosedFormId,
    closed_form_for,
    eval_closed,
    measure_model,
)
from binomoment.slater import build_slater_expansion, eval_density
from binomoment.quadrature import QuadratureSpec, tanh_sinh


F = Fraction

QUAD = QuadratureSpec(target_abs_tol=1e-12)


def central_grid(upper, count=200, margin=0.02):
    return np.linspace(margin * upper, (1.0 - margin) * upper, count)


class TestClosedFormId:
    def test_support_endpoints(self):
        assert ClosedFormId("V2", F(0)).support_upper == 4.0
        assert ClosedFormId("V3", F(1)).support_upper == 6.75
        assert ClosedFormId("V32", F(0)).support_upper == pytest.approx(
            math.sqrt(6.75)
        )
        assert ClosedFormId("A091527").support_upper == pytest.approx(
            6.0 * math.sqrt(3.0)
        )
        assert ClosedFormId("A061162").support_upper == 108.0

    def test_quadratic_family_accepts_any_order(self):
        for r in (F(-3, 2), F(0), F(1, 2), F(7, 5)):
            ClosedFormId("V2", r)

    def test_cubic_families_restrict_order(self):
        with pytest.raises(DomainError):
            ClosedFormId("V3", F(1, 2))
        with pytest.raises(DomainError):
            ClosedFormId("V32", F(1))

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            ClosedFormId("V5", F(0))


class TestSpotValues:
    def test_arcsine_midpoint(self):
        cid = ClosedFormId("V2", F(0))
        assert eval_closed(cid, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_shifted_quadratic_midpoint(self):
        # at x = 2 the r = 1 density sqrt(x/(4-x))/(2 pi) is also 1/(2 pi)
        cid = ClosedFormId("V2", F(1))
        assert eval_closed(cid, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)

    def test_explicit_distance_is_authoritative(self):
        cid = ClosedFormId("V2", F(0))
        d = 1e-18
        got = eval_closed(cid, 4.0, dist_upper=d)
        assert got == pytest.approx(1.0 / (math.pi * math.sqrt(4.0 * d)), rel=1e-12)

    def test_domain_errors(self):
        cid = ClosedFormId("V3", F(0))
        with pytest.raises(DomainError):
            eval_closed(cid, 0.0)
        with pytest.raises(DomainError):
            eval_closed(cid, 6.75)
        with pytest.raises(DomainError):
            eval_closed(cid, -1.0)
        with pytest.raises(DomainError):
            eval_closed(cid, 7.0)


class TestLadders:
    def test_cubic_top_row_rides_on_bottom(self):
        v0 = ClosedFormId("V3", F(0))
        v2 = ClosedFormId("V3", F(2))
        for x in central_grid(6.75, count=40):
            z = 4.0 * x / 27.0
            assert eval_closed(v2, float(x)) == pytest.approx(
                2.25 * z * eval_closed(v0, float(x)), rel=1e-13
            )

    def test_half_family_top_rides_on_middle(self):
        w0 = ClosedFormId("V32", F(0))
        w1 = ClosedFormId("V32", F(1, 2))
        for x in central_grid(math.sqrt(6.75), count=40):
            z = 4.0 * x * x / 27.0
            assert eval_closed(w1, float(x)) == pytest.approx(
                math.sqrt(3.0 * z) * eval_closed(w0, float(x)), rel=1e-13
            )

    def test_pushforward_between_integer_sequences(self):
        # the wider density is the image of the narrower one under squaring
        narrow = ClosedFormId("A091527")
        wide = ClosedFormId("A061162")
        for x in central_grid(108.0, count=40):
            root = math.sqrt(float(x))
            assert eval_closed(wide, float(x)) == pytest.approx(
                eval_closed(narrow, root) / (2.0 * root), rel=1e-12
            )

    def test_rescaled_compact_display(self):
        # direct two-branch formula for the quarter-scaled half family
        cid = ClosedFormId("A091527")
        for x in central_grid(6.0 * math.sqrt(3.0), count=40):
            x = float(x)
            z = x * x / 108.0
            s = math.sqrt(1.0 - z)
            want = (
                (1.0 + s) ** (2.0 / 3.0) * z ** (-1.0 / 3.0)
                + (1.0 + s) ** (-2.0 / 3.0) * z ** (1.0 / 3.0)
            ) / (12.0 * math.pi * math.sqrt(3.0) * s)
            assert eval_closed(cid, x) == pytest.approx(want, rel=1e-12)

    def test_square_pushforward_of_arcsine(self):
        # squaring the arcsine variable lands on the quarter-scaled
        # half-order density: V(sqrt(x))/(2 sqrt(x)) = V'(x/4)/4
        v20 = ClosedFormId("V2", F(0))
        v2m = ClosedFormId("V2", F(-1, 2))
        for x in central_grid(16.0, count=40):
            x = float(x)
            left = eval_closed(v20, math.sqrt(x)) / (2.0 * math.sqrt(x))
            right = eval_closed(v2m, x / 4.0) / 4.0
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
        cid = closed_form_for(Params(p, r))
        assert cid is not None
        exp = build_slater_expansion(Params(p, r))
        upper = cid.support_upper
        for x in central_grid(upper):
            x = float(x)
            got = eval_closed(cid, x)
            want = eval_density(exp, x)
            assert got == pytest.approx(want, rel=1e-9)

    def test_no_closed_form_off_the_known_rows(self):
        assert closed_form_for(Params(F(5, 3), F(1, 3))) is None
        assert closed_form_for(Params(F(3), F(1, 2))) is None
        assert closed_form_for(Params(F(7, 2), F(0))) is None

    def test_quadratic_row_covers_all_orders(self):
        assert closed_form_for(Params(F(2), F(-3, 2))).family == "V2"
        assert closed_form_for(Params(F(2), F(3, 4))).family == "V2"


class TestSignBehavior:
    def test_large_order_quadratic_goes_negative(self):
        cid = ClosedFormId("V2", F(3, 2))
        vals = [eval_closed(cid, float(x)) for x in central_grid(4.0)]
        assert min(vals) < 0.0
        assert max(vals) > 0.0

    @pytest.mark.parametrize("r", [F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
    def test_band_orders_stay_nonnegative(self, r):
        cid = ClosedFormId("V2", r)
        vals = [eval_closed(cid, float(x)) for x in central_grid(4.0)]
        assert min(vals) >= 0.0


class TestIntegerSequenceMoments:
    # moments of the quarter-scaled half-order density: the row of
    # C(3n/2 - 1/2, n) 4^n
    LITERALS = [1, 4, 30, 256, 2310, 21504, 204204, 1966080, 19122246]

    def test_moments_match_literals(self):
        cid = ClosedFormId("A091527")
        upper = cid.support_upper
        for n, lit in enumerate(self.LITERALS):
            res = tanh_sinh(
                lambda y, dl, dr: y**n * eval_closed(cid, y, dist_upper=dr),
                0.0,
                upper,
                QUAD,
            )
            assert res.value == pytest.approx(float(lit), rel=1e-7)

    def test_literals_are_scaled_binomials(self):
        for n, lit in enumerate(self.LITERALS):
            assert gen_binomial(F(3, 2), F(-1, 2), n) * 4**n == lit

    def test_squared_variable_moments(self):
        cid = ClosedFormId("A061162")
        upper = cid.support_upper
        for n in (0, 1, 2, 3):
            res = tanh_sinh(
                lambda y, dl, dr: y**n * eval_closed(cid, y, dist_upper=dr),
                0.0,
                upper,
                QUAD,
            )
            want = float(gen_binomial(F(3, 2), F(-1, 2), 2 * n)) * 16.0**n
            assert res.value == pytest.approx(want, rel=1e-7)


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
        res = tanh_sinh(
            lambda y, dl, dr: m.density(y, dr), 0.0, m.upper, QUAD
        )
        assert m.atom_at_zero + res.value == pytest.approx(1.0, abs=1e-9)

    def test_atom_only_on_boundary_row(self):
        assert measure_model(Params(F(3), F(-1))).atom_at_zero == pytest.approx(1 / 3)
        assert measure_model(Params(F(3, 2), F(-1))).atom_at_zero == pytest.approx(2 / 3)
        assert measure_model(Params(F(2), F(0))).atom_at_zero == 0.0

    def test_boundary_row_density_is_scaled_base_row(self):
        m = measure_model(Params(F(3), F(-1)))
        base = ClosedFormId("V3", F(0))
        for x in (1.0, 3.0, 6.0):
            assert m.density(x, 6.75 - x) == pytest.approx(
                (2.0 / 3.0) * eval_closed(base, x), rel=1e-13
            )

    def test_moment_integrals(self):
        m = measure_model(Params(F(2), F(1, 2)))
        for n in (1, 2, 5):
            res = tanh_sinh(
                lambda y, dl, dr: y**n * m.density(y, dr), 0.0, m.upper, QUAD
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
