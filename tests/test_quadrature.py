"""The tanh-sinh rule's level sweeps."""
import math
import random

import numpy as np
import pytest

from binomoment import quadrature
from binomoment.core import DomainError
from binomoment.quadrature import integrate_many


def _one_level_at_a_time(f, b, tols):
    """integrate_many with one call of f per level, level 0 on its own."""
    half = 0.5 * b
    rules = [quadrature._Rule(tol) for tol in tols]
    level = 0
    while any(rule.result is None for rule in rules):
        (rows,) = quadrature._sweep(f, b, half, (level,), len(rules))
        for rule, row in zip(rules, rows):
            if rule.result is None:
                rule.take(level, row)
        level += 1
    return tuple(rule.result for rule in rules)


#: one tolerance per row of ``_rows``, which then stop at levels 1, 4 and 3
_TOLS = (1e-2, 1e-4, 1e-12)


def _rows(x, dr):
    # on (0, 2): singular at both ends, oscillating, not analytic at 0
    return np.array([1.0 / np.sqrt(x * dr), np.cos(30.0 * x), x**7.1])


def _counted(f, sizes):
    # f, noting the number of nodes of every call
    def counted(x, dr):
        sizes.append(x.size)
        return f(x, dr)

    return counted


def _nodes(levels):
    return sum(quadrature._level_nodes(level)[0].size for level in levels)


@pytest.mark.parametrize("f,tols", [
    (_rows, _TOLS),
    # a one-row integrand broadcast to every tolerance
    (lambda x, dr: np.cos(30.0 * x), _TOLS[:2]),
], ids=["rows", "broadcast"])
def test_first_call_takes_levels_zero_to_two(f, tols):
    # levels 0, 1 and 2 share the first call of f; the row that stops at
    # level 1 ignores its level 2 values, and every row still gets the
    # bits, levels and evaluation count that one level at a time gives it
    sizes = []
    got = integrate_many(_counted(f, sizes), 2.0, tols)
    assert got == _one_level_at_a_time(f, 2.0, tols)
    assert len({res.levels for res in got}) == len(tols)
    assert min(res.levels for res in got) == 1
    assert len(sizes) == max(res.levels for res in got) - 1
    assert sizes[0] == _nodes((0, 1, 2))


@pytest.mark.parametrize("tol", [1e-15, 0.0, -1.0, math.nan])
def test_tolerance_below_the_floor_is_refused(tol):
    # the 1e-14 floor is checked once, before f is called
    def never(x, dr):
        raise AssertionError("integrand called")

    with pytest.raises(DomainError, match="tolerance must be >= 1e-14"):
        integrate_many(never, 1.0, [1e-10, tol])
    integrate_many(lambda x, dr: np.ones_like(x), 1.0, [1e-14])


class _ReferenceRule(quadrature._Rule):
    """The stopping rule with a running scale at every level, value by value."""

    def take(self, level, values):
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
        prev = self.prev_err
        est = err * err / prev if prev not in (0.0, math.inf) else err
        achieved = max(min(err, est), abs(self.level_vals[-1]) * 1e-16)
        if err <= self.tol or achieved <= self.tol:
            self.result = quadrature.IntegralResult(
                self.level_vals[-1], achieved, True, level, self.evals)
        elif level == quadrature._MAX_LEVELS:
            self.result = quadrature.IntegralResult(
                self.level_vals[-1], err, False, level, self.evals)
        self.prev_err = err if err > 0 else prev


def _random_row(rng, size, magnitude):
    """Values around ``magnitude`` with zeros, subnormals and runs of tiny ones."""
    row = []
    while len(row) < size:
        kind = rng.random()
        if kind < 0.1:
            row.append(0.0)
        elif kind < 0.2:
            row.append(rng.choice((-1, 1)) * rng.random() * 2.2e-308)
        elif kind < 0.4:
            # a run straddling the 1e-18 threshold
            row += [rng.uniform(-1, 1) * magnitude * 10.0 ** rng.uniform(-21, -15)
                    for _ in range(rng.randint(2, 6))]
        else:
            row.append(rng.gauss(0.0, 1.0) * magnitude * 10.0 ** rng.uniform(-6, 1))
    return row[:size]


@pytest.mark.parametrize("seed", range(40))
def test_take_matches_the_value_by_value_scale(seed):
    # one threshold per level at level >= 1 stops each side where a scale
    # recomputed at every value stops it, and gives the same result bits;
    # every level is fed, past a row's stop too, to test more thresholds
    rng = random.Random(seed)
    tol = 10.0 ** rng.uniform(-14, -2)
    rule, ref = quadrature._Rule(tol), _ReferenceRule(tol)
    magnitude = 10.0 ** rng.uniform(-300, 10)
    for level in range(quadrature._MAX_LEVELS + 1):
        row = _random_row(rng, 2 * rng.randint(0, 30) + (level == 0), magnitude)
        if rng.random() < 0.2:
            row = [0.0] * len(row)
        rule.take(level, row)
        ref.take(level, row)
        assert (rule.evals, rule.total, rule.level_vals, rule.prev_err, rule.result) == (
            ref.evals, ref.total, ref.level_vals, ref.prev_err, ref.result)
