"""Moment certification and positive-definiteness probes.

Three layers of evidence about a parameter pair: quadrature showing that
the computed density reproduces the exact moment sequence, Hankel matrix
eigenvalue probes on moment series, and a budgeted search for negativity
certificates outside the positive-definite region.
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .closedform import measure_model
from .core import (
    DomainError,
    InconclusiveWitnessError,
    Params,
    Record,
    RegionError,
    classify_binomial,
    gen_binomial,
)
from .quadrature import integrate_many
from .series import TruncatedSeries, binomial_series
from .slater import build_slater_expansion, eval_density_many

__all__ = [
    "Witness",
    "InconclusiveWitnessError",
    "WITNESS_TOL",
    "CERTIFY_REL_TOL",
    "certify_measure",
    "hankel_matrix_min_eig",
    "scan_abscissae",
    "scan_for_witness",
    "find_negativity_witness",
]

#: Negativity must clear this margin before it counts as a certificate.
WITNESS_TOL = 1e-9

#: Per-moment certification tolerance, relative to max(1, |moment|).
CERTIFY_REL_TOL = 1e-7

WITNESS_KINDS = ("NegativeDensityPoint", "NegativeEvenMoment", "NegativeHankel")


class Witness(Record):
    """Numerical certificate that a moment sequence is not positive definite.

    ``location`` is an abscissa for the density kind and an index (moment
    order or Hankel size) for the other two.  ``value`` is the offending
    quantity and must be negative beyond WITNESS_TOL.
    """

    _fields = ("kind", "location", "value")  # str, float or int, float

    def __init__(self, kind, location, value):
        if kind not in WITNESS_KINDS:
            raise DomainError(f"unknown witness kind: {kind!r}")
        if not value < -WITNESS_TOL:
            raise DomainError("witness value must be negative beyond tolerance")
        super().__init__(kind, location, value)


def _powers(x: np.ndarray, n_max: int) -> np.ndarray:
    """Rows x**0, ..., x**n_max from one list of the nodes.

    Each power goes through libm node by node, as a scalar integrand
    would take it.
    """
    xs = x.tolist()
    return np.array([[v**n for v in xs] for n in range(n_max + 1)])


def certify_measure(params: Params, n_max: int) -> dict:
    """Check that the computed measure reproduces its exact moments.

    For every n <= n_max the quadrature of x^n against the density, plus
    the atom contribution at n = 0, must match C(n*p + r, n) within
    CERTIFY_REL_TOL relative to max(1, |moment|).  Needs rational p > 1
    inside the positive-definite region, and moments inside the float range:
    the first n past it raises DomainError before any quadrature runs.

    Returns a JSON-ready report with one row per moment.  All moments are
    integrated together: each density sweep evaluates the nodes of one or
    more quadrature levels, the first of levels 0 to 2, and every moment
    applies its own stopping rule to each level's values, so each gets the
    result its own tanh-sinh quadrature would give it.
    The summation order inside the quadrature is fixed, so the report
    apart from ``runtime_seconds`` is the same on every run.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    model = measure_model(params)

    def moments(x: np.ndarray, dist_upper: np.ndarray) -> np.ndarray:
        density = model.density(x, dist_upper)
        return _powers(x, n_max) * density

    t0 = time.perf_counter()
    targets = []
    for n in range(n_max + 1):
        # an exact moment past the float range cannot be a quadrature target
        try:
            targets.append(float(gen_binomial(params.p, params.r, n)))
        except OverflowError:
            raise DomainError(f"moment n = {n} exceeds the float range") from None
    # each moment's absolute target scales with its magnitude, in step with
    # the relative acceptance threshold as the moments grow
    tols = [max(1e-11, 1e-9 * abs(target)) for target in targets]
    results = integrate_many(moments, model.upper, tols)
    rows = []
    for n, (target, res) in enumerate(zip(targets, results)):
        atom_part = model.atom_at_zero if n == 0 else 0.0
        err = abs(res.value + atom_part - target)
        tol = CERTIFY_REL_TOL * max(1.0, abs(target))
        rows.append({
            "n": n,
            "expected": target,
            "quadrature": res.value,
            "atom": atom_part,
            "abs_error": err,
            "tolerance": tol,
            "error_estimate": res.error_estimate,
            "converged": res.converged,
            "pass": bool(err <= tol),
        })

    return {
        "params": {"p": str(params.p), "r": str(params.r)},
        "n_max": n_max,
        "atom_at_zero": model.atom_at_zero,
        "support_upper": model.upper,
        "moments": rows,
        "passed": all(row["pass"] for row in rows),
        "max_abs_error": max(row["abs_error"] for row in rows),
        "runtime_seconds": time.perf_counter() - t0,
    }


def hankel_matrix_min_eig(moments: TruncatedSeries, d: int) -> float:
    """Smallest eigenvalue of the (d+1)x(d+1) Hankel matrix (m_{i+j})."""
    if d < 0:
        raise DomainError("Hankel size must be nonnegative")
    if 2 * d > moments.order:
        raise DomainError("need moments up to order 2d")
    mat = np.array(
        [[float(moments[i + j]) for j in range(d + 1)] for i in range(d + 1)]
    )
    return float(np.linalg.eigvalsh(mat)[0])


_SCAN_DECADES = 12
_SCAN_HANKEL_MAX = 6


def scan_abscissae(c: float) -> list:
    """The witness scan's log sweep c*10^-j, j = 1..12, toward x = 0, where
    out-of-region negativity tends to hide; c is the support endpoint."""
    return [c * 10.0 ** (-j) for j in range(1, _SCAN_DECADES + 1)]


def scan_for_witness(params: Params) -> Optional[Witness]:
    """Fixed-budget negativity scan with no region gating.

    Looks for the first certificate in scan order: a density value on the
    log grid c*10^-j for j = 1..12, then a negative even moment, then a
    negative minimal Hankel eigenvalue at sizes d <= 6.  None means the
    budget ran out and proves nothing.
    """
    expansion = build_slater_expansion(params)
    xs = scan_abscissae(expansion.domain_upper)
    for x, v in zip(xs, eval_density_many(expansion, xs).tolist()):
        if v < -WITNESS_TOL:
            return Witness("NegativeDensityPoint", x, v)
    order = 2 * _SCAN_HANKEL_MAX
    moments = binomial_series(params.p, params.r, order)
    for n in range(2, order + 1, 2):
        v = float(moments[n])
        if v < -WITNESS_TOL:
            return Witness("NegativeEvenMoment", n, v)
    for d in range(1, _SCAN_HANKEL_MAX + 1):
        eig = hankel_matrix_min_eig(moments, d)
        if eig < -WITNESS_TOL:
            return Witness("NegativeHankel", d, eig)
    return None


def find_negativity_witness(params: Params) -> Witness:
    """Certificate that the binomial sequence at (p, r) is not positive definite.

    Only meaningful outside the positive-definite region, and needs a
    rational p > 1 so the density expansion exists.  A scan that comes up
    empty raises InconclusiveWitnessError; it is never reported as
    positive-definiteness.
    """
    if classify_binomial(params.p, params.r).positive_definite:
        raise RegionError("parameters lie inside the positive-definite region")
    found = scan_for_witness(params)
    if found is None:
        raise InconclusiveWitnessError(
            f"no negativity certificate within the scan budget at {params}"
        )
    return found
