"""The tanh-sinh rule's level sweeps."""
import numpy as np
import pytest

from binomoment import quadrature
from binomoment.quadrature import QuadratureSpec, integrate_many


def _one_level_at_a_time(f, b, specs):
    """integrate_many with one call of f per level, level 0 on its own."""
    half = 0.5 * b
    rules = [quadrature._Rule(spec) for spec in specs]
    level = 0
    while any(rule.result is None for rule in rules):
        (rows,) = quadrature._sweep(f, b, half, (level,), len(rules))
        for rule, row in zip(rules, rows):
            if rule.result is None:
                rule.take(level, row)
        level += 1
    return tuple(rule.result for rule in rules)


#: one tolerance per row of ``_rows``, which then stop at levels 1, 4 and 3
_SPECS = tuple(QuadratureSpec(target_abs_tol=tol) for tol in (1e-2, 1e-4, 1e-12))


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


@pytest.mark.parametrize("f,specs", [
    (_rows, _SPECS),
    # a one-row integrand broadcast to every spec
    (lambda x, dr: np.cos(30.0 * x), _SPECS[:2]),
], ids=["rows", "broadcast"])
def test_first_call_takes_levels_zero_to_two(f, specs):
    # levels 0, 1 and 2 share the first call of f; the row that stops at
    # level 1 ignores its level 2 values, and every row still gets the
    # bits, levels and evaluation count that one level at a time gives it
    sizes = []
    got = integrate_many(_counted(f, sizes), 2.0, specs)
    assert got == _one_level_at_a_time(f, 2.0, specs)
    assert len({res.levels for res in got}) == len(specs)
    assert min(res.levels for res in got) == 1
    assert len(sizes) == max(res.levels for res in got) - 1
    assert sizes[0] == _nodes((0, 1, 2))

