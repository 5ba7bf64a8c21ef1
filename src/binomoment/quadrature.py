"""Quadrature with endpoint-singularity support.

The double-exponential (tanh-sinh) rule handles integrable algebraic
singularities at either endpoint; integrands receive stably computed
distances to both endpoints so they can resolve behavior far below float
spacing of the endpoints themselves.  Accumulation uses ``math.fsum`` over a
fixed node order, so results are bit-reproducible from run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import DomainError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate",
    "tanh_sinh",
]


@dataclass(frozen=True)
class QuadratureSpec:
    target_abs_tol: float = 1e-10
    max_levels: int = 9

    def __post_init__(self):
        if not self.target_abs_tol >= 1e-14:
            raise DomainError("target_abs_tol must be >= 1e-14")
        if self.max_levels < 1:
            raise DomainError("max_levels must be >= 1")


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    converged: bool
    levels: int
    evaluations: int


# integrands are called f(x, dist_left, dist_right); the distances are exact
# products of the transform, accurate even when x rounds to an endpoint
Integrand = Callable[[float, float, float], float]

_T_MAX = 6.0  # |t| cap; sinh(6) ~ 201 puts nodes ~1e-175 from the endpoints


def _ts_node(t: float, half: float):
    """Abscissa offset and weight data of the tanh-sinh map at parameter t."""
    u = 0.5 * math.pi * math.sinh(t)
    au = abs(u)
    e = math.exp(-2.0 * au)  # in (0, 1]
    # 1 -+ tanh(u) = 2e/(1+e) on the far side, 2/(1+e) on the near side
    far = 2.0 * e / (1.0 + e) * half
    near = 2.0 / (1.0 + e) * half
    sech2 = 4.0 * e / (1.0 + e) ** 2
    w = 0.5 * math.pi * math.cosh(t) * sech2 * half
    return u, far, near, w


def _ts_eval(f: Integrand, a: float, b: float, t: float, half: float) -> float:
    u, far, near, w = _ts_node(t, half)
    if w == 0.0:
        return 0.0
    if u >= 0.0:
        dl, dr = near, far
    else:
        dl, dr = far, near
    x = a + dl if dl <= dr else b - dr
    return w * f(x, dl, dr)


def tanh_sinh(f: Integrand, a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """Double-exponential quadrature of f over (a, b)."""
    if not b > a:
        raise DomainError("need b > a")
    half = 0.5 * (b - a)
    level_vals = []
    evals = 0

    h = 0.5
    # level 0: full sweep at h=0.5
    terms = [_ts_eval(f, a, b, 0.0, half)]
    evals += 1
    scale = max(abs(terms[0]), 1e-300)
    for sign in (1.0, -1.0):
        tiny_run = 0
        j = 1
        while j * h <= _T_MAX:
            v = _ts_eval(f, a, b, sign * j * h, half)
            evals += 1
            terms.append(v)
            scale = max(scale, abs(v))
            if abs(v) <= 1e-18 * scale:
                tiny_run += 1
                if tiny_run >= 4:
                    break
            else:
                tiny_run = 0
            j += 1
    total = math.fsum(terms)
    level_vals.append(h * total)

    prev_err = math.inf
    err = math.inf
    for level in range(1, spec.max_levels + 1):
        h *= 0.5
        # new nodes are the odd multiples of the new h
        new_terms = []
        for sign in (1.0, -1.0):
            tiny_run = 0
            j = 1
            while j * h <= _T_MAX:
                v = _ts_eval(f, a, b, sign * j * h, half)
                evals += 1
                new_terms.append(v)
                scale = max(abs(total), abs(v), 1e-300)
                if abs(v) <= 1e-18 * scale:
                    tiny_run += 1
                    if tiny_run >= 4:
                        break
                else:
                    tiny_run = 0
                j += 2
        total = total + math.fsum(new_terms)
        level_vals.append(h * total)
        err = abs(level_vals[-1] - level_vals[-2])
        # double-exponential convergence roughly squares the error per level
        est = err * err / prev_err if prev_err not in (0.0, math.inf) else err
        achieved = max(min(err, est), abs(level_vals[-1]) * 1e-16)
        if err <= spec.target_abs_tol or achieved <= spec.target_abs_tol:
            return IntegralResult(level_vals[-1], achieved, True, level, evals)
        prev_err = err if err > 0 else prev_err
    return IntegralResult(level_vals[-1], err, False, spec.max_levels, evals)


def integrate(f: Integrand, a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """Integral of f over (a, b) by the tanh-sinh rule.

    The quadrature behind moment certification.  It is a function of its
    own so that, when calls are counted per function, certification's
    integrals stay apart from the nested ``tanh_sinh`` calls inside
    ``slater.raney_density``.
    """
    return tanh_sinh(f, a, b, spec)
