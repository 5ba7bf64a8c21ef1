"""Elementary density formulas for the parameter choices that admit them.

The density V at rational p > 1 is a Meijer G-function, elementary in
particular cases: at p = 2 for every r, and at p = 3 and p = 3/2 for three
r values each, where it is a two-term algebraic expression in z = (x/c)**l.
``density_function`` evaluates V by these forms where they exist and by the
hypergeometric expansion elsewhere; ``measure_model`` assembles from it the
measure with moments C(n*p+r, n).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DomainError,
    Params,
    Record,
    RegionError,
    as_scalar,
    classify_binomial,
    comparable,
    is_exact,
    support_endpoint,
)
from .slater import build_slater_expansion, eval_density_many, support_points

__all__ = [
    "MeasureModel",
    "eval_closed",
    "measure_model",
    "density_function",
]

#: the algebraic rows, keyed by exact (p, r): (a, e1, e2, den) with
#: V = ((1 + s)**a z**e1 + (1 + s)**-a z**e2) / (den s), s = sqrt(1 - z)
_ROWS = {
    (Fraction(3), Fraction(0)): (1 / 3, -2 / 3, -1 / 3, 9.0 * math.pi * math.sqrt(3.0)),
    (Fraction(3), Fraction(1)): (2 / 3, -1 / 3, 1 / 3, 6.0 * math.pi * math.sqrt(3.0)),
    (Fraction(3), Fraction(2)): (1 / 3, 1 / 3, 2 / 3, 4.0 * math.pi * math.sqrt(3.0)),
    (Fraction(3, 2), Fraction(-1, 2)): (2 / 3, -1 / 3, 1 / 3, 3.0 * math.pi * math.sqrt(3.0)),
    (Fraction(3, 2), Fraction(0)): (1 / 3, -1 / 6, 1 / 6, 3.0 * math.pi),
    (Fraction(3, 2), Fraction(1, 2)): (1 / 3, 1 / 3, 2 / 3, math.pi * math.sqrt(3.0)),
}


def _is_elementary(params: Params) -> bool:
    return params.p == 2 or (params.p, comparable(params.r)) in _ROWS


def _quadratic(r: float, x: float, dist: float) -> float:
    # cos(r * arccos(sqrt(x/4))) / (pi * sqrt(x^(1-r) (4-x))); at odd integer
    # r the cosine vanishes as x -> 0, where the angle nears pi/2 and rounds
    # its digits away, so below x = 2 it is taken through the smaller angle
    # arcsin(.) = pi/2 - arccos(.), as (-1)**((r-1)/2) sin(r * arcsin(.))
    root = min(math.sqrt(x) / 2.0, 1.0)
    if r % 2 == 1 and x < 2.0:
        factor = (-1.0 if (r - 1) % 4 else 1.0) * math.sin(r * math.asin(root))
    else:
        factor = math.cos(r * math.acos(root))
    try:
        prod = x ** (1.0 - r) * dist
    except OverflowError:
        prod = math.inf
    if sys.float_info.min <= prod < math.inf:
        return factor / (math.pi * math.sqrt(prod))
    # x^(1-r) underflows at a subnormal x, or overflows at a small x when
    # r > 1: 1/sqrt(x^(1-r)) is taken as h*h with h = x^((r-1)/4), which is
    # in range wherever the density is and is rounded once, where exp of a
    # log near -700 would carry that log's rounding into the value; the
    # division comes before the second h, so no product in between leaves
    # the float range before the value does
    try:
        h = x ** ((r - 1.0) / 4.0)
        value = factor * h / (math.pi * math.sqrt(dist)) * h
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"density at x = {x!r} exceeds the float range")
    return value


def _algebraic(row: tuple, l: int, upper: float, x: float, dist: float) -> float:
    a, e1, e2, den = row
    # z = 4 x**l / 27 through its log, which stays finite where a power of z
    # would underflow; 1 - z = 4 (c - x) span / 27 with span = (c**l - x**l)/(c - x)
    lnz = l * math.log(x) + math.log(4.0 / 27.0)
    span = 1.0 if l == 1 else upper + x
    s = math.sqrt(4.0 * dist * span / 27.0)
    base = 1.0 + s
    return (base ** a * math.exp(e1 * lnz) + base ** -a * math.exp(e2 * lnz)) / (den * s)


def eval_closed(params: Params, xs: Sequence[float],
                dist_upper: Optional[Sequence[float]] = None) -> np.ndarray:
    """Elementary density values at abscissae ``xs`` in (0, c), as an array.

    Takes what ``eval_density_many`` takes, with the parameters in place of
    the expansion, and evaluates point by point through libm.  DomainError
    where (p, r) has no elementary form.
    """
    p, r = params.p, comparable(params.r)
    upper = float(support_endpoint(p))
    xs, dists = support_points(xs, dist_upper, upper)
    if p == 2:
        values = [_quadratic(float(r), x, d) for x, d in zip(xs, dists)]
    elif (p, r) in _ROWS:
        row = _ROWS[p, r]
        values = [_algebraic(row, p.denominator, upper, x, d) for x, d in zip(xs, dists)]
    else:
        raise DomainError(f"no elementary density at p = {p}, r = {params.r}")
    return np.array(values, dtype=float)


class MeasureModel(Record):
    """A measure on [0, upper]: an atom at 0 plus a density.

    ``density`` is an evaluator (xs, dists_to_upper) -> array of values on
    (0, upper); the second argument lets quadrature supply the distances to
    the endpoint at full precision.
    """

    _fields = ("atom_at_zero", "density", "upper")  # float, evaluator, float


def density_function(params: Params) -> Callable[..., np.ndarray]:
    """Evaluator (xs, dist_upper=None) -> array of V(x) of the density at (p, r).

    ``eval_closed`` where an elementary form covers the pair, the
    hypergeometric expansion through ``eval_density_many`` otherwise; both
    take the same arguments.  Works for any r at rational p > 1; outside
    the positive-definite region the function takes negative values but is
    still well defined.  ``dist_upper`` carries the distances to the
    support endpoint when the caller knows them exactly.
    """
    if _is_elementary(params):
        return lambda xs, dist_upper=None: eval_closed(params, xs, dist_upper)
    expansion = build_slater_expansion(params)
    return lambda xs, dist_upper=None: eval_density_many(expansion, xs, dist_upper)


def measure_model(params: Params) -> MeasureModel:
    """The probability measure with moments C(n*p+r, n) for p = k/l > 1.

    On the boundary row r = -1 the measure splits as an atom of mass 1/p at
    zero plus (p-1)/p times the r = 0 density; elsewhere in the positive-
    definite region it is purely the density, elementary when available and
    the hypergeometric expansion otherwise.
    """
    verdict = classify_binomial(params.p, params.r)
    if not verdict.positive_definite:
        raise RegionError(f"not a positive definite parameter pair: {params}")
    p = params.p
    r = as_scalar(params.r)
    upper = float(support_endpoint(p))

    at_minus_one = comparable(r) == -1
    if at_minus_one:
        atom = 1.0 / float(p)
        weight = float(p - 1) / float(p)
        base_params = Params(p, Fraction(0) if is_exact(r) else 0.0)
    else:
        atom = 0.0
        weight = 1.0
        base_params = params

    row_density = density_function(base_params)

    def density(xs, dist_upper) -> np.ndarray:
        return weight * row_density(xs, dist_upper)

    return MeasureModel(atom_at_zero=atom, density=density, upper=upper)
