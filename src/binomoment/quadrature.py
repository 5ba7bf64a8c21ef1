"""Quadrature with endpoint-singularity support.

The double-exponential (tanh-sinh) rule of Takahasi and Mori, "Double
exponential formulas for numerical integration" (1974), handles integrable
algebraic singularities at either endpoint; integrands receive stably
computed distances to both endpoints so they can resolve behavior far below
float spacing of the endpoints themselves.  Integrands take each level's
nodes as arrays, and one sweep of a level serves every row of a
vector-valued integrand.  Accumulation uses ``math.fsum`` over a fixed node
order, so results are bit-reproducible from run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import DomainError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "integrate",
    "integrate_many",
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


# integrands are called f(x, dist_left, dist_right) on arrays of nodes; the
# distances are exact products of the transform, accurate even when x rounds
# to an endpoint
Integrand = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

_T_MAX = 6.0  # |t| cap; sinh(6) ~ 201 puts nodes ~1e-175 from the endpoints


@lru_cache(maxsize=None)
def _level_nodes(level: int):
    """Nodes of one level for the interval (-1, 1), in the order they are summed.

    Level 0 is t = 0 and then t = j/2 for j = 1, 2, ... on the positive and
    then the negative side; level L >= 1 adds the odd multiples of
    h = 2**-(L+1), again positive side first.  Returned as (positive, far,
    near, weight) arrays with entries up to the factor half = (b - a)/2:
    ``positive`` is u >= 0, where x sits near b; far and near are 1 -+ tanh(u).
    Computed through libm point by point, so the nodes are bit for bit the
    ones a scalar loop would build.
    """
    h = 0.5 / 2**level
    step = 1 if level == 0 else 2
    side = [j * h for j in range(1, int(_T_MAX / h) + 1, step)]
    ts = ([0.0] if level == 0 else []) + side + [-1.0 * t for t in side]
    rows = []
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * abs(u))  # in (0, 1]
        # 1 -+ tanh(u) = 2e/(1+e) on the far side, 2/(1+e) on the near side
        sech2 = 4.0 * e / (1.0 + e) ** 2
        rows.append((u >= 0.0, 2.0 * e / (1.0 + e), 2.0 / (1.0 + e),
                     0.5 * math.pi * math.cosh(t) * sech2))
    positive, far, near, weight = (np.array(col) for col in zip(*rows))
    for arr in (positive, far, near, weight):
        arr.flags.writeable = False
    return positive, far, near, weight


def _sweep(f: Integrand, a: float, b: float, half: float, levels: Sequence[int],
           rows: int) -> list:
    """Weighted values of f's rows at the nodes of ``levels``, one call of f for all.

    Returns, per level, its rows as lists of floats.
    """
    tables = [_level_nodes(level) for level in levels]
    positive, far, near, weight = (np.concatenate(col) for col in zip(*tables))
    far, near, w = far * half, near * half, weight * half
    dl = np.where(positive, near, far)
    dr = np.where(positive, far, near)
    x = np.where(dl <= dr, a + dl, b - dr)
    live = w != 0.0  # a zero weight leaves its node unevaluated
    values = np.zeros((rows, x.size))
    if live.any():
        values[:, live] = w[live] * f(x[live], dl[live], dr[live])
    cuts = np.cumsum([table[0].size for table in tables[:-1]])
    return [part.tolist() for part in np.split(values, cuts, axis=1)]


class _Rule:
    """The stopping rule for one integrand, fed one level's values at a time.

    A side of a level stops at the fourth successive value below 1e-18 of
    the running scale, so ``take`` reads only a prefix of each side; the
    values past it are ignored, exactly as if they had never been computed.
    """

    def __init__(self, spec: QuadratureSpec):
        self.spec = spec
        self.evals = 0
        self.level_vals = []
        self.total = 0.0
        self.scale = 0.0
        self.prev_err = math.inf
        self.result = None

    def take(self, level: int, values: list) -> None:
        h = 0.5 / 2**level
        if level == 0:
            centre, values = values[0], values[1:]
            terms = [centre]
            self.evals += 1
            self.scale = max(abs(centre), 1e-300)
        else:
            terms = []
        side = len(values) // 2
        for part in (values[:side], values[side:]):
            tiny_run = 0
            for v in part:
                self.evals += 1
                terms.append(v)
                if level == 0:
                    self.scale = max(self.scale, abs(v))
                else:
                    self.scale = max(abs(self.total), abs(v), 1e-300)
                if abs(v) <= 1e-18 * self.scale:
                    tiny_run += 1
                    if tiny_run >= 4:
                        break
                else:
                    tiny_run = 0
        if level == 0:
            self.total = math.fsum(terms)
            self.level_vals.append(h * self.total)
            return
        self.total = self.total + math.fsum(terms)
        self.level_vals.append(h * self.total)
        err = abs(self.level_vals[-1] - self.level_vals[-2])
        # double-exponential convergence roughly squares the error per level
        prev = self.prev_err
        est = err * err / prev if prev not in (0.0, math.inf) else err
        achieved = max(min(err, est), abs(self.level_vals[-1]) * 1e-16)
        if err <= self.spec.target_abs_tol or achieved <= self.spec.target_abs_tol:
            self.result = IntegralResult(self.level_vals[-1], achieved, True, level, self.evals)
        elif level == self.spec.max_levels:
            self.result = IntegralResult(self.level_vals[-1], err, False, level, self.evals)
        self.prev_err = err if err > 0 else prev


def integrate_many(f: Integrand, a: float, b: float,
                   specs: Sequence[QuadratureSpec]) -> tuple:
    """Integrals over (a, b) of the rows of a vector-valued f, one per spec.

    f(x, dist_left, dist_right) gets a level's nodes as arrays and returns
    one row of values per spec.  Each level is swept once, out to |t| =
    _T_MAX, while any row still needs it, and every row then applies its
    own stopping rule to its values; a row gets the value, error estimate,
    levels and evaluation count it would get on its own.

    The first call of f takes the nodes of levels 0, 1 and 2 together, or
    of levels 0 and 1 when no spec allows more than one level.  No row can
    stop at level 0, and at certify's tolerances rows stop at level 2: on
    the 745 in-region pairs p = 1 + j/d (d = 2..5, p <= 6, numerator of p
    <= 40, r = -1, -3/4, ...) certify at n_max = 10 needed level 2 at
    every pair and no later level, so one call of f serves a pair where a
    call per level took two.  A row that stops at level 1, as 14 of those
    8195 rows did, ignores its level 2 values, as it ignores values past
    any stop, so its result is the one a call per level gives it.
    """
    if not b > a:
        raise DomainError("need b > a")
    half = 0.5 * (b - a)
    rules = [_Rule(spec) for spec in specs]
    first = tuple(range(min(2, max((spec.max_levels for spec in specs), default=1)) + 1))
    level = 0
    while any(rule.result is None for rule in rules):
        levels = first if level == 0 else (level,)
        for level, rows in zip(levels, _sweep(f, a, b, half, levels, len(rules))):
            for rule, row in zip(rules, rows):
                if rule.result is None:
                    rule.take(level, row)
        level += 1
    return tuple(rule.result for rule in rules)


def integrate(f: Integrand, a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """Integral of f over (a, b) by the tanh-sinh rule.

    f(x, dist_left, dist_right) gets each level's nodes as arrays and
    returns the integrand values there.
    """
    return integrate_many(f, a, b, (spec,))[0]
