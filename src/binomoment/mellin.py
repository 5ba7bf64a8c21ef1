"""Multiplicative (Mellin) structure of the binomial moment family.

The measure with moments C(n*p+r, n), p = k/l > 1 and -1 < r <= p-1, factors
as a Mellin product of k modified beta distributions followed by a dilation
to [0, c(p)].  This module builds that factorization and draws product
samples.
"""
from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    Params,
    Record,
    RegionError,
    is_exact,
    support_endpoint,
)

__all__ = [
    "BetaFactor",
    "MellinFactorization",
    "factorize",
    "sample",
    "SAMPLE_CHUNK",
]


class BetaFactor(Record):
    """Modified beta distribution on [0, 1].

    With shape pair (u, v) and root index l the density is
    (l / B(u, v)) * x**(l*u - 1) * (1 - x**l)**(v - 1); equivalently the
    l-th root of a standard Beta(u, v) variate.  v = 0 encodes the point
    mass at 1 exactly.
    """

    _fields = ("u", "v", "l")  # float, float, int

    def __init__(self, u, v, l):
        if not u > 0.0:
            raise DomainError("beta factor needs u > 0")
        if v < 0.0:
            raise DomainError("beta factor needs v >= 0")
        if not (isinstance(l, int) and l >= 1):
            raise DomainError("beta factor needs integer l >= 1")
        super().__init__(u, v, l)


class MellinFactorization(Record):
    _fields = ("factors", "dilation")  # tuple of BetaFactor, support endpoint c(p)


def _symbol(params: Params) -> tuple:
    """(l, betas, alphas_tilde) of the gamma-quotient symbol at p = k/l > 1.

    The symbol has alpha_j = j/l for j <= l, (r + j - l)/(k - l) above, and
    beta_j = (r + j)/k.  ``alphas_tilde`` is the permutation-compatible
    reindexing of the alphas that dominates the betas entrywise: the
    positions j'_i = floor(i*k/l - r), i = 1..l, must be strictly
    increasing inside 1..k, which holds exactly when -1 < r <= p-1
    (RegionError otherwise).
    """
    support_endpoint(params.p)  # refuses p <= 1 and k > MAX_K before the loops
    k, l = params.k, params.l
    r = params.r  # a Fraction or a float, and so is each quotient below
    betas = tuple((r + j) / k for j in range(1, k + 1))
    # exact for an exact r; for a float r, i*k/l correctly rounded, minus r
    jprime = [math.floor(Fraction(i * k, l) - r) for i in range(1, l + 1)]
    ok = all(jprime[i] < jprime[i + 1] for i in range(l - 1))
    if not (ok and 1 <= jprime[0] and jprime[-1] <= k):
        raise RegionError("tilde reindexing needs -1 < r <= p-1")

    tilde = [None] * (k + 1)
    for i, jp in enumerate(jprime, start=1):
        tilde[jp] = Fraction(i, l)
    bounds = [0] + jprime + [k + 1]
    for i in range(l + 1):
        for j in range(bounds[i] + 1, bounds[i + 1]):
            tilde[j] = (r + j - i) / (k - l)
    return l, betas, tuple(tilde[1:])


def factorize(params: Params) -> MellinFactorization:
    """Mellin factorization of the measure with moments C(n*p+r, n).

    Needs p = k/l > 1 and -1 < r <= p-1.  Factor j is the modified beta
    with shape pair (u, v) = (beta_j, alpha~_j - beta_j); the reindexing
    guarantees v >= 0 on the stated region.  The product is finished by a
    dilation to [0, c(p)].
    """
    l, betas, alphas_tilde = _symbol(params)
    factors = []
    for at, b in zip(alphas_tilde, betas):
        v = at - b  # a float v within 1e-12 of 0 is the point mass at 1
        vf = 0.0 if not is_exact(v) and abs(v) < 1e-12 else float(v)
        factors.append(BetaFactor(u=float(b), v=vf, l=l))
    return MellinFactorization(factors=tuple(factors), dilation=support_endpoint(params.p))


# ---------------------------------------------------------------------------
# sampling

#: samples are generated in fixed-size chunks; chunk i of a run with seed s
#: uses the substream SeedSequence((s, i)), so the whole chunks at the
#: head of a run do not depend on its count: a longer run with the same
#: seed starts with every complete chunk of a shorter one.  Chunks depend
#: on nothing but (s, i), so ``sample`` fills them on parallel threads and
#: its output does not depend on how many run
SAMPLE_CHUNK = 1 << 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def sample(f: MellinFactorization, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. samples of the dilated factor product.

    Each factor with v > 0 contributes the l-th root of a Beta(u, v) draw;
    v = 0 factors contribute the constant 1.  Deterministic under a fixed
    (seed, count) pair; see SAMPLE_CHUNK for the splitting scheme.  The
    chunks are drawn on min(usable CPUs, chunk count) threads, since numpy
    releases the interpreter lock while it draws an array, and each writes
    only its own slice of the result, so the bytes are those of one thread.
    Raises DomainError when ``count`` draws cannot be allocated.
    """
    if count < 1:
        raise DomainError("need count >= 1")
    if seed < 0:
        raise DomainError("need seed >= 0")
    try:
        out = np.empty(count)
    except (MemoryError, ValueError):
        raise DomainError(f"cannot allocate {count} draws") from None
    scale = float(f.dilation)
    factors = [factor for factor in f.factors if factor.v != 0.0]

    def fill(chunk_index: int) -> None:
        pos = chunk_index * SAMPLE_CHUNK
        prod = out[pos : pos + SAMPLE_CHUNK]
        prod.fill(scale)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        for factor in factors:
            draws = rng.beta(factor.u, factor.v, size=prod.size)
            if factor.l != 1:
                # the in-place form of draws ** (1/l), with the same dispatch
                draws **= 1.0 / factor.l
            prod *= draws

    # imported here: at module level it would add to every CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    chunks = -(-count // SAMPLE_CHUNK)
    with ThreadPoolExecutor(min(_usable_cpus(), chunks)) as pool:
        for future in [pool.submit(fill, i) for i in range(chunks)]:
            future.result()
    return out
