"""Tests for measure certification and negativity witnesses."""

import dataclasses
import json
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from binomoment import verify
from binomoment.closedform import measure_model
from binomoment.core import (
    DomainError,
    Params,
    RegionError,
    gen_binomial,
    support_endpoint,
)
from binomoment.quadrature import integrate
from binomoment.series import TruncatedSeries, binomial_series
from binomoment.verify import (
    CERTIFY_REL_TOL,
    InconclusiveWitnessError,
    Witness,
    certify_measure,
    find_negativity_witness,
    hankel_matrix_min_eig,
    scan_for_witness,
)


F = Fraction
TOL = 1e-10


def integrate_density(m, n, tol):
    """Quadrature of x^n against the density part of a measure model.

    One moment at a time: the reference that certify's batched sweep must
    reproduce bit for bit.  The atom never contributes here.
    """
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    # x**n through libm node by node, as a scalar integrand would take it
    def f(x, dr):
        return np.array([v**n for v in x.tolist()]) * m.density(x, dr)

    return integrate(f, m.upper, tol)

IN_REGION = (
    (F(2), F(0)),
    (F(2), F(1)),
    (F(2), F(-1)),
    (F(2), F(-1, 2)),
    (F(3), F(0)),
    (F(3), F(1)),
    (F(3), F(2)),
    (F(3, 2), F(1, 2)),
    (F(3, 2), F(-1, 2)),
    (F(5, 3), F(1, 3)),
)

OUT_OF_REGION = (
    (F(3, 2), F(1)),
    (F(2), F(3, 2)),
    (F(3), F(-3, 2)),
    (F(3, 2), F(-5, 4)),
    (F(5, 2), F(2)),
    (F(7, 4), F(1)),
    (F(3), F(5, 2)),
    (F(2), F(-5, 4)),
    (F(4), F(-3, 2)),
    (F(5, 3), F(-9, 8)),
)


class TestIntegrateDensity:
    def test_arcsine_third_moment(self):
        m = measure_model(Params(F(2), F(0)))
        res = integrate_density(m, 3, TOL)
        assert res.converged
        assert abs(res.value - 20.0) <= 1e-8

    def test_cubic_row_mass(self):
        m = measure_model(Params(F(3), F(0)))
        res = integrate_density(m, 0, TOL)
        assert abs(res.value - 1.0) <= 1e-10

    def test_fractional_row_second_moment(self):
        m = measure_model(Params(F(3, 2), F(-1, 2)))
        res = integrate_density(m, 2, TOL)
        assert abs(res.value - 15 / 8) <= 1e-10

    def test_atom_not_included(self):
        # the boundary row splits off an atom of mass 1/p; the density
        # part alone carries the rest
        m = measure_model(Params(F(3), F(-1)))
        res = integrate_density(m, 0, TOL)
        assert abs(res.value - 2 / 3) <= 1e-10

    def test_rejects_negative_order(self):
        m = measure_model(Params(F(2), F(0)))
        with pytest.raises(DomainError):
            integrate_density(m, -1, TOL)

    @pytest.mark.parametrize(
        "p,r,n",
        [(F(2), F(0), 4), (F(3), F(1), 3), (F(5, 3), F(1, 3), 2)],
    )
    def test_tolerance_halving_self_consistency(self, p, r, n):
        m = measure_model(Params(p, r))
        coarse = integrate_density(m, n, 1e-8)
        fine = integrate_density(m, n, 5e-9)
        scale = max(1.0, abs(coarse.value))
        assert abs(coarse.value - fine.value) <= coarse.error_estimate + 1e-15 * scale


class TestCertifyMeasure:
    def test_arcsine_row(self):
        report = certify_measure(Params(F(2), F(0)), 10)
        assert report["passed"]
        assert len(report["moments"]) == 11
        for row in report["moments"]:
            assert row["abs_error"] <= row["tolerance"]

    def test_atom_row(self):
        report = certify_measure(Params(F(3), F(-1)), 8)
        assert report["passed"]
        assert abs(report["atom_at_zero"] - 1 / 3) <= 1e-12
        assert report["moments"][0]["atom"] == report["atom_at_zero"]
        assert report["moments"][1]["atom"] == 0.0

    def test_generic_expansion_row(self):
        report = certify_measure(Params(F(5, 3), F(1, 3)), 8)
        assert report["passed"]

    def test_report_is_json_serializable(self):
        report = certify_measure(Params(F(2), F(1)), 4)
        decoded = json.loads(json.dumps(report))
        assert decoded["params"] == {"p": "2", "r": "1"}

    def test_report_is_reproducible(self):
        def run():
            report = certify_measure(Params(F(3), F(1)), 6)
            report.pop("runtime_seconds")
            return report

        assert run() == run()

    def test_each_node_evaluated_once(self, monkeypatch):
        # nodes repeat across moments; one density sweep per level serves
        # them all, so the density sees each (x, dist_upper) exactly once
        seen = Counter()
        results = []
        original_integrate_many = verify.integrate_many

        def counting_model(params):
            model = measure_model(params)

            def density(xs, dist_upper):
                seen.update(zip(xs.tolist(), dist_upper.tolist()))
                return model.density(xs, dist_upper)

            return dataclasses.replace(model, density=density)

        def counting_integrate_many(f, b, tols):
            results.extend(original_integrate_many(f, b, tols))
            return tuple(results)

        monkeypatch.setattr(verify, "measure_model", counting_model)
        monkeypatch.setattr(verify, "integrate_many", counting_integrate_many)
        report = certify_measure(Params(F(5, 3), F(1, 3)), 6)
        assert report["passed"]
        assert max(seen.values()) == 1
        assert len(results) == 7
        assert sum(res.evaluations for res in results) > len(seen)

    @pytest.mark.parametrize("p,r", [
        (F(5, 3), F(-1)), (F(5, 2), F(1, 2)), (F(7, 2), F(-9, 10)),
        (F(11, 3), F(8, 3)), (F(17, 5), F(0)), (F(3), F(1)),
    ])
    def test_one_density_sweep_per_certify(self, monkeypatch, p, r):
        # at these pairs every moment stops at level 2, and the first
        # density sweep holds levels 0, 1 and 2, so certify needs no other
        calls = []

        def counting_model(params):
            model = measure_model(params)

            def density(xs, dist_upper):
                calls.append(xs.size)
                return model.density(xs, dist_upper)

            return dataclasses.replace(model, density=density)

        monkeypatch.setattr(verify, "measure_model", counting_model)
        report = certify_measure(Params(p, r), 10)
        assert report["passed"]
        assert len(calls) == 1

    def test_moments_match_one_at_a_time(self):
        # the shared sweep gives each moment what its own quadrature gives
        params = Params(F(7, 2), F(-9, 10))
        model = measure_model(params)
        report = certify_measure(params, 6)
        for row in report["moments"]:
            target = float(gen_binomial(params.p, params.r, row["n"]))
            tol = max(1e-11, 1e-9 * abs(target))
            res = integrate_density(model, row["n"], tol)
            assert (row["quadrature"], row["error_estimate"], row["converged"]) == (
                res.value, res.error_estimate, res.converged)

    def test_p_near_one_at_k_101(self):
        # 101 series of 101 parameters: summed directly their ratio products
        # once left the float range near the endpoint and never finished
        p = F(101, 100)
        t0 = time.perf_counter()
        report = certify_measure(Params(p, F(0)), 10)
        assert time.perf_counter() - t0 < 10.0
        assert report["passed"]
        for row in report["moments"]:
            exact = gen_binomial(p, 0, row["n"])
            assert abs(F(row["quadrature"]) - exact) <= CERTIFY_REL_TOL * max(1, exact)

    def test_outside_region_rejected(self):
        with pytest.raises(RegionError):
            certify_measure(Params(F(3, 2), F(1)), 4)

    def test_integer_boundary_p_rejected(self):
        with pytest.raises(DomainError):
            certify_measure(Params(F(1), F(0)), 4)

    def test_negative_n_max_rejected(self):
        with pytest.raises(DomainError):
            certify_measure(Params(F(2), F(0)), -1)


class TestHankelMinEig:
    def test_arcsine_positive(self):
        mv = binomial_series(F(2), F(0), 8)
        assert hankel_matrix_min_eig(mv, 4) > 0

    def test_two_by_two_closed_form(self):
        # min eigenvalue of [[1, a], [a, b]] is ((1+b) - sqrt((1-b)^2+4a^2))/2
        p, r = F(9, 10), F(-1, 2)
        mv = binomial_series(p, r, 2)
        a, b = float(mv[1]), float(mv[2])
        want = 0.5 * ((1 + b) - math.sqrt((1 - b) ** 2 + 4 * a * a))
        got = hankel_matrix_min_eig(mv, 1)
        assert abs(got - want) <= 1e-12
        # this shallow probe is positive here; the sequence first fails
        # positive definiteness at its sixth moment
        assert got > 0
        assert float(gen_binomial(p, r, 6)) < 0

    def test_point_mass_at_zero_is_psd_boundary(self):
        mv = TruncatedSeries((F(1),) + (F(0),) * 8)
        for d in range(1, 5):
            assert abs(hankel_matrix_min_eig(mv, d)) <= 1e-12

    def test_needs_enough_moments(self):
        mv = binomial_series(F(2), F(0), 5)
        with pytest.raises(DomainError):
            hankel_matrix_min_eig(mv, 3)

    def test_in_region_rows_stay_nonnegative(self):
        for p, r in ((F(2), F(1)), (F(3), F(2)), (F(3, 2), F(1, 2))):
            mv = binomial_series(p, r, 10)
            for d in range(1, 6):
                assert hankel_matrix_min_eig(mv, d) >= -1e-9


class TestWitness:
    def test_kind_is_validated(self):
        with pytest.raises(DomainError):
            Witness("NegativeThing", 0.5, -1.0)

    def test_value_must_clear_tolerance(self):
        with pytest.raises(DomainError):
            Witness("NegativeDensityPoint", 0.5, -1e-12)
        with pytest.raises(DomainError):
            Witness("NegativeHankel", 2, 0.25)

    @pytest.mark.parametrize(
        "p,r", [(F(3, 2), F(1)), (F(2), F(3, 2)), (F(3), F(-3, 2))]
    )
    def test_documented_pairs_give_density_witnesses(self, p, r):
        w = find_negativity_witness(Params(p, r))
        assert w.kind == "NegativeDensityPoint"
        assert w.value < -1e-9
        assert 0.0 < w.location < float(support_endpoint(p))

    def test_all_out_of_region_pairs_yield_witnesses(self):
        for p, r in OUT_OF_REGION:
            w = find_negativity_witness(Params(p, r))
            assert w.value < -1e-9, (p, r)

    def test_in_region_scan_finds_nothing(self):
        for p, r in IN_REGION:
            assert scan_for_witness(Params(p, r)) is None, (p, r)

    def test_in_region_request_rejected(self):
        with pytest.raises(RegionError):
            find_negativity_witness(Params(F(2), F(0)))

    def test_empty_scan_is_reported_not_swallowed(self, monkeypatch):
        monkeypatch.setattr("binomoment.verify.scan_for_witness", lambda p: None)
        with pytest.raises(InconclusiveWitnessError):
            find_negativity_witness(Params(F(3, 2), F(1)))


class TestReflectionCoherence:
    def test_certified_rows_reflect_exactly(self):
        # alternating-sign moments of a certified row are exactly the
        # moments at the reflected parameter pair
        for p, r in ((F(2), F(0)), (F(3), F(-1)), (F(5, 3), F(1, 3))):
            for n in range(21):
                assert (-1) ** n * gen_binomial(p, r, n) == gen_binomial(
                    1 - p, -1 - r, n
                )
