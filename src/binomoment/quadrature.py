"""Quadrature with endpoint-singularity support.

The double-exponential (tanh-sinh) rule of Takahasi and Mori, "Double
exponential formulas for numerical integration" (1974), handles integrable
algebraic singularities at either endpoint.  Every integral runs over
(0, b) to a plain float absolute tolerance of at least 1e-14, and
integrands receive a stably computed distance to b so they can resolve
behavior far below the float spacing of b itself.  Integrands take each
level's nodes as arrays, and one sweep of a level serves every row of a
vector-valued integrand.  Accumulation uses ``math.fsum`` over a fixed
node order, so results are bit-reproducible from run to run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .core import DomainError

__all__ = [
    "IntegralResult",
    "integrate",
    "integrate_many",
]


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error_estimate: float
    converged: bool
    levels: int
    evaluations: int


# integrands are called f(x, dist_upper) on arrays of nodes; the distance to
# b is an exact product of the transform, accurate even when x rounds to b
Integrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

_T_MAX = 6.0  # |t| cap; u = pi/2 sinh(6) ~ 317 puts nodes ~1e-275 from the endpoints
_MAX_LEVELS = 9  # a row not converged at this level stops unconverged


@lru_cache(maxsize=None)
def _level_nodes(level: int):
    """Nodes of one level for the interval (-1, 1), in the order they are summed.

    Level 0 is t = 0 and then t = j/2 for j = 1, 2, ... on the positive and
    then the negative side; level L >= 1 adds the odd multiples of
    h = 2**-(L+1), again positive side first.  Returned as (lower, upper,
    weight) arrays with entries up to the factor half = b/2: lower =
    1 + tanh(u) and upper = 1 - tanh(u) are the node's distances to -1 and
    to 1.  Computed through libm point by point, so the nodes are bit for
    bit the ones a scalar loop would build.
    """
    h = 0.5 / 2**level
    step = 1 if level == 0 else 2
    side = [j * h for j in range(1, int(_T_MAX / h) + 1, step)]
    ts = ([0.0] if level == 0 else []) + side + [-1.0 * t for t in side]
    rows = []
    for t in ts:
        u = 0.5 * math.pi * math.sinh(t)
        e = math.exp(-2.0 * abs(u))  # in (0, 1]
        # 1 -+ tanh(|u|) = 2e/(1+e), 2/(1+e): the distances to the nearer
        # and to the farther end
        sech2 = 4.0 * e / (1.0 + e) ** 2
        near, far = 2.0 * e / (1.0 + e), 2.0 / (1.0 + e)
        lower, upper = (far, near) if u >= 0.0 else (near, far)
        rows.append((lower, upper, 0.5 * math.pi * math.cosh(t) * sech2))
    lower, upper, weight = (np.array(col) for col in zip(*rows))
    for arr in (lower, upper, weight):
        arr.flags.writeable = False
    return lower, upper, weight


def _sweep(f: Integrand, b: float, half: float, levels: Sequence[int], rows: int) -> list:
    """Weighted values of f's rows at the nodes of ``levels``, one call of f for all.

    Returns, per level, its rows as lists of floats.
    """
    tables = [_level_nodes(level) for level in levels]
    dl, dr, w = (np.concatenate(col) * half for col in zip(*tables))
    x = np.where(dl <= dr, dl, b - dr)
    live = w != 0.0  # a zero weight leaves its node unevaluated
    values = np.zeros((rows, x.size))
    if live.any():
        values[:, live] = w[live] * f(x[live], dr[live])
    cuts = np.cumsum([table[0].size for table in tables[:-1]])
    return [part.tolist() for part in np.split(values, cuts, axis=1)]


class _Rule:
    """The stopping rule for one integrand, fed one level's values at a time.

    A side of a level stops at the fourth successive value at most 1e-18 of
    the scale, so ``take`` reads only a prefix of each side; the values past
    it are ignored, exactly as if they had never been computed.  The scale
    is the largest magnitude read so far at level 0, and the magnitude of
    the running total at later levels (at least 1e-300 either way).
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.evals = 0
        self.level_vals = []
        self.total = 0.0
        self.prev_err = math.inf
        self.result = None

    def take(self, level: int, values: list) -> None:
        h = 0.5 / 2**level
        if level == 0:
            centre, values = values[0], values[1:]
            terms = [centre]
            scale = max(abs(centre), 1e-300)
        else:
            terms = []
            tiny = 1e-18 * max(abs(self.total), 1e-300)
        side = len(values) // 2
        for part in (values[:side], values[side:]):
            tiny_run = 0
            for i, v in enumerate(part):
                if level == 0:
                    scale = max(scale, abs(v))
                    tiny = 1e-18 * scale
                if abs(v) <= tiny:
                    tiny_run += 1
                    if tiny_run == 4:
                        part = part[: i + 1]
                        break
                else:
                    tiny_run = 0
            terms += part
        self.evals += len(terms)
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
        if err <= self.tol or achieved <= self.tol:
            self.result = IntegralResult(self.level_vals[-1], achieved, True, level, self.evals)
        elif level == _MAX_LEVELS:
            self.result = IntegralResult(self.level_vals[-1], err, False, level, self.evals)
        self.prev_err = err if err > 0 else prev


def integrate_many(f: Integrand, b: float, tols: Sequence[float]) -> tuple:
    """Integrals over (0, b) of the rows of a vector-valued f, one per tolerance.

    f(x, dist_upper) gets a level's nodes as arrays and returns one row of
    values per absolute tolerance in ``tols``, each at least 1e-14 (a
    smaller one raises DomainError).  Each level is swept once, out to |t| =
    _T_MAX, while any row still needs it, and every row then applies its
    own stopping rule to its values; a row gets the value, error estimate,
    levels and evaluation count it would get on its own.

    The first call of f takes the nodes of levels 0, 1 and 2 together.  No
    row can stop at level 0, and at certify's tolerances rows stop at level
    2: on the 745 in-region pairs p = 1 + j/d (d = 2..5, p <= 6, numerator
    of p <= 40, r = -1, -3/4, ...) certify at n_max = 10 needed level 2 at
    every pair and no later level, so one call of f serves a pair where a
    call per level took two.  A row that stops at level 1, as 14 of those
    8195 rows did, ignores its level 2 values, as it ignores values past
    any stop, so its result is the one a call per level gives it.
    """
    if not b > 0:
        raise DomainError("need b > 0")
    if not all(tol >= 1e-14 for tol in tols):
        raise DomainError("tolerance must be >= 1e-14")
    half = 0.5 * b
    rules = [_Rule(tol) for tol in tols]
    level = 0
    while any(rule.result is None for rule in rules):
        levels = (0, 1, 2) if level == 0 else (level,)
        for level, rows in zip(levels, _sweep(f, b, half, levels, len(rules))):
            for rule, row in zip(rules, rows):
                if rule.result is None:
                    rule.take(level, row)
        level += 1
    return tuple(rule.result for rule in rules)


def integrate(f: Integrand, b: float, tol: float) -> IntegralResult:
    """Integral of f over (0, b) by the tanh-sinh rule, to absolute tolerance ``tol``.

    f(x, dist_upper) gets each level's nodes as arrays and
    returns the integrand values there.
    """
    return integrate_many(f, b, (tol,))[0]
