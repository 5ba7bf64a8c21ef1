"""Elementary density formulas for the parameter choices that admit them.

The p = 2 family is elementary for every r; p = 3 and p = 3/2 reduce to
two-term algebraic expressions in z for three r values each; two rescalings
of the p = 3/2 case give the integer moment sequences 1, 4, 30, 256, ... and
their even-indexed subsequence.  ``measure_model`` assembles the measure
with moments C(n*p+r, n) from these forms or the hypergeometric expansion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import (
    DomainError,
    Params,
    RegionError,
    Scalar,
    as_scalar,
    classify_binomial,
    comparable,
    is_exact,
    support_endpoint,
)
from .slater import build_slater_expansion, eval_density

__all__ = [
    "ClosedFormId",
    "MeasureModel",
    "eval_closed",
    "measure_model",
    "closed_form_for",
    "density_function",
]

_V3_RS = (Fraction(0), Fraction(1), Fraction(2))
_V32_RS = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))

#: rounding guard at the support edges; z is floored away from {0, 1} only
#: when the caller gives no exact endpoint distance
_EDGE_EPS = 1e-15


@dataclass(frozen=True)
class ClosedFormId:
    """Identifier of an elementary density.

    family 'V2' admits any real r; 'V3' needs r in {0, 1, 2}; 'V32' needs
    r in {-1/2, 0, 1/2}; 'A091527' and 'A061162' are the fixed rescalings
    of the V32 case at r = -1/2 and carry no parameter.
    """

    family: str
    r: Optional[Scalar] = None

    def __post_init__(self):
        if self.family not in ("V2", "V3", "V32", "A091527", "A061162"):
            raise DomainError(f"unknown closed form family {self.family!r}")
        if self.family == "V2":
            if self.r is None:
                raise DomainError("V2 needs a parameter r")
        elif self.family == "V3":
            if self.r is None or comparable(as_scalar(self.r)) not in _V3_RS:
                raise DomainError("V3 closed form exists for r in {0, 1, 2}")
        elif self.family == "V32":
            if self.r is None or comparable(as_scalar(self.r)) not in _V32_RS:
                raise DomainError("V32 closed form exists for r in {-1/2, 0, 1/2}")
        elif self.r is not None:
            raise DomainError(f"{self.family} takes no parameter")

    @property
    def support_upper(self) -> float:
        return {
            "V2": 4.0,
            "V3": 6.75,
            "V32": math.sqrt(6.75),
            "A091527": 6.0 * math.sqrt(3.0),
            "A061162": 108.0,
        }[self.family]


def _z_pair(x: float, dist_upper: Optional[float], family: str):
    """(ln z, 1-z) for the family's argument map, stable at both edges.

    The log form keeps fractional powers of z finite at abscissae where
    x**2 itself would underflow; 1-z is floored away from 0 only when no
    exact endpoint distance was supplied, so the square root stays real
    under rounding at the upper edge.
    """
    if family == "V3":
        lnz = math.log(x) + math.log(4.0 / 27.0)
        omz = 1.0 - 4.0 * x / 27.0 if dist_upper is None else 4.0 * dist_upper / 27.0
    elif family == "V32":
        lnz = 2.0 * math.log(x) + math.log(4.0 / 27.0)
        if dist_upper is None:
            omz = 1.0 - 4.0 * x * x / 27.0
        else:
            omz = 4.0 * dist_upper * (math.sqrt(6.75) + x) / 27.0
    elif family == "A091527":
        lnz = 2.0 * math.log(x) - math.log(108.0)
        if dist_upper is None:
            omz = 1.0 - x * x / 108.0
        else:
            omz = dist_upper * (6.0 * math.sqrt(3.0) + x) / 108.0
    else:
        raise DomainError(family)
    if dist_upper is None:
        omz = max(omz, _EDGE_EPS)
    return lnz, omz


def eval_closed(cid: ClosedFormId, x: float, dist_upper: Optional[float] = None) -> float:
    """Elementary density value on the open support.

    ``dist_upper`` optionally carries the distance to the upper endpoint at
    full precision (useful inside quadrature); otherwise it is recomputed
    from x with an edge clamp guarding the square root.
    """
    upper = cid.support_upper
    if dist_upper is None:
        if not 0.0 < x < upper:
            raise DomainError(f"density defined on (0, {upper})")
        dist_upper = upper - x
    if not (x > 0.0 and dist_upper > 0.0):
        raise DomainError(f"density defined on (0, {upper})")

    if cid.family == "V2":
        r = float(as_scalar(cid.r))
        quarter = x / 4.0
        # cos(r * arccos(sqrt(x/4))) / (pi * sqrt(x^(1-r) (4-x)))
        ang = math.acos(min(math.sqrt(quarter), 1.0))
        return math.cos(r * ang) / (
            math.pi * math.sqrt(x ** (1.0 - r) * dist_upper)
        )

    if cid.family == "V3":
        lnz, omz = _z_pair(x, dist_upper, "V3")
        s = math.sqrt(omz)
        rr = comparable(as_scalar(cid.r))
        base = 1.0 + s
        if rr == 0:
            return (
                base ** (1.0 / 3.0) * math.exp(-2.0 / 3.0 * lnz)
                + base ** (-1.0 / 3.0) * math.exp(-1.0 / 3.0 * lnz)
            ) / (9.0 * math.pi * math.sqrt(3.0) * s)
        if rr == 1:
            return (
                base ** (2.0 / 3.0) * math.exp(-1.0 / 3.0 * lnz)
                + base ** (-2.0 / 3.0) * math.exp(1.0 / 3.0 * lnz)
            ) / (6.0 * math.pi * math.sqrt(3.0) * s)
        return (
            base ** (1.0 / 3.0) * math.exp(1.0 / 3.0 * lnz)
            + base ** (-1.0 / 3.0) * math.exp(2.0 / 3.0 * lnz)
        ) / (4.0 * math.pi * math.sqrt(3.0) * s)

    if cid.family == "V32":
        lnz, omz = _z_pair(x, dist_upper, "V32")
        s = math.sqrt(omz)
        rr = comparable(as_scalar(cid.r))
        base = 1.0 + s
        if rr == Fraction(-1, 2):
            return (
                base ** (2.0 / 3.0) * math.exp(-1.0 / 3.0 * lnz)
                + base ** (-2.0 / 3.0) * math.exp(1.0 / 3.0 * lnz)
            ) / (3.0 * math.pi * math.sqrt(3.0) * s)
        if rr == 0:
            return (
                base ** (1.0 / 3.0) * math.exp(-1.0 / 6.0 * lnz)
                + base ** (-1.0 / 3.0) * math.exp(1.0 / 6.0 * lnz)
            ) / (3.0 * math.pi * s)
        return (
            base ** (1.0 / 3.0) * math.exp(1.0 / 3.0 * lnz)
            + base ** (-1.0 / 3.0) * math.exp(2.0 / 3.0 * lnz)
        ) / (math.pi * math.sqrt(3.0) * s)

    if cid.family == "A091527":
        sub = ClosedFormId("V32", Fraction(-1, 2))
        return eval_closed(sub, x / 4.0, dist_upper / 4.0) / 4.0

    # A061162: pushforward of the previous density under x -> x**2
    sub = ClosedFormId("A091527")
    root = math.sqrt(x)
    c = 6.0 * math.sqrt(3.0)
    # dist in the root variable: c - sqrt(x) = dist_upper / (c + sqrt(x))
    return eval_closed(sub, root, dist_upper / (c + root)) / (2.0 * root)


@dataclass(frozen=True)
class MeasureModel:
    """A measure on [0, upper]: an atom at 0 plus a density.

    ``density`` is an evaluator (x, dist_to_upper) -> value on (0, upper);
    the second argument lets quadrature supply the distance to the endpoint
    at full precision.
    """

    atom_at_zero: float
    density: Callable[[float, float], float]
    upper: float


def closed_form_for(params: Params) -> Optional[ClosedFormId]:
    """The elementary form covering V at (p, r), if one exists."""
    p = comparable(as_scalar(params.p))
    r = comparable(as_scalar(params.r))
    if p == 2:
        return ClosedFormId("V2", r)
    if p == 3 and r in _V3_RS:
        return ClosedFormId("V3", r)
    if p == Fraction(3, 2) and r in _V32_RS:
        return ClosedFormId("V32", r)
    return None


def density_function(params: Params) -> Callable[..., float]:
    """Evaluator (x, dist_upper=None) -> V(x) of the density at (p, r).

    Uses the elementary form when one covers the pair and the
    hypergeometric expansion otherwise.  Works for any r at rational
    p > 1; outside the positive-definite region the function takes
    negative values but is still well defined.  ``dist_upper`` carries the
    distance to the support endpoint when the caller knows it exactly.
    """
    cid = closed_form_for(params)
    if cid is not None:
        return lambda x, dist_upper=None: eval_closed(cid, x, dist_upper)
    expansion = build_slater_expansion(params)
    return lambda x, dist_upper=None: eval_density(expansion, x, dist_upper=dist_upper)


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
    if not params.k > params.l >= 1:
        raise DomainError("measure construction needs rational p = k/l > 1")
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

    def density(x: float, dist_upper: float) -> float:
        return weight * row_density(x, dist_upper)

    return MeasureModel(atom_at_zero=atom, density=density, upper=upper)
