"""Multiplicative (Mellin) structure of the binomial moment family.

The measure with moments C(n*p+r, n), p = k/l > 1 and -1 < r <= p-1, factors
as a Mellin product of k modified beta distributions followed by a dilation
to [0, c(p)].  This module builds that factorization, evaluates moments of
the factors and the product, and draws product samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DomainError,
    Params,
    Scalar,
    gamma_real,
    is_exact,
    support_endpoint,
)
from .slater import build_symbol

__all__ = [
    "BetaFactor",
    "MellinFactorization",
    "beta_moment",
    "factorize",
    "mellin_product_moments",
    "sample",
    "SAMPLE_CHUNK",
]


@dataclass(frozen=True)
class BetaFactor:
    """Modified beta distribution on [0, 1].

    With shape pair (u, v) and root index l the density is
    (l / B(u, v)) * x**(l*u - 1) * (1 - x**l)**(v - 1); equivalently the
    l-th root of a standard Beta(u, v) variate.  v = 0 encodes the point
    mass at 1 exactly.
    """

    u: float
    v: float
    l: int

    def __post_init__(self):
        if not self.u > 0.0:
            raise DomainError("beta factor needs u > 0")
        if self.v < 0.0:
            raise DomainError("beta factor needs v >= 0")
        if not (isinstance(self.l, int) and self.l >= 1):
            raise DomainError("beta factor needs integer l >= 1")


@dataclass(frozen=True)
class MellinFactorization:
    factors: tuple
    dilation: Scalar  # support endpoint c(p)
    params: Optional[Params] = None


# ---------------------------------------------------------------------------
# moments


def beta_moment(factor: BetaFactor, n: int) -> float:
    """n-th moment Gamma(u+n/l) Gamma(u+v) / (Gamma(u+v+n/l) Gamma(u))."""
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    if n == 0 or factor.v == 0.0:
        return 1.0
    u, v, l = factor.u, factor.v, factor.l
    return (
        gamma_real(u + n / l)
        * gamma_real(u + v)
        / (gamma_real(u + v + n / l) * gamma_real(u))
    )


def factorize(params: Params) -> MellinFactorization:
    """Mellin factorization of the measure with moments C(n*p+r, n).

    Needs p = k/l > 1 and -1 < r <= p-1.  Factor j is the modified beta
    with shape pair (u, v) = (beta_j, alpha~_j - beta_j); the reindexing
    guarantees v >= 0 on the stated region.  The product is finished by a
    dilation to [0, c(p)].
    """
    sym = build_symbol(params)
    factors = []
    for at, b in zip(sym.alphas_tilde, sym.betas):
        v = at - b
        if is_exact(v):
            vf = float(v)
        else:
            vf = 0.0 if abs(v) < 1e-12 else float(v)
        factors.append(BetaFactor(u=float(b), v=vf, l=sym.l))
    return MellinFactorization(
        factors=tuple(factors),
        dilation=support_endpoint(params.p),
        params=params,
    )


def mellin_product_moments(f: MellinFactorization, n: int) -> float:
    """Moment of the dilated product: prod_j beta_moment(f_j, n) * c**n."""
    if n < 0:
        raise DomainError("moment order must be nonnegative")
    acc = float(f.dilation) ** n
    for factor in f.factors:
        acc *= beta_moment(factor, n)
    return acc


# ---------------------------------------------------------------------------
# sampling

#: samples are generated in fixed-size chunks; chunk i of a run with seed s
#: uses the substream SeedSequence((s, i)), so the whole chunks at the
#: head of a run do not depend on its count: a longer run with the same
#: seed starts with every complete chunk of a shorter one
SAMPLE_CHUNK = 1 << 16


def sample(f: MellinFactorization, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. samples of the dilated factor product.

    Each factor with v > 0 contributes the l-th root of a Beta(u, v) draw;
    v = 0 factors contribute the constant 1.  Deterministic under a fixed
    (seed, count) pair; see SAMPLE_CHUNK for the splitting scheme.
    """
    if count < 1:
        raise DomainError("need count >= 1")
    out = np.empty(count)
    pos = 0
    chunk_index = 0
    scale = float(f.dilation)
    while pos < count:
        m = min(SAMPLE_CHUNK, count - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        prod = np.full(m, scale)
        for factor in f.factors:
            if factor.v == 0.0:
                continue
            draws = rng.beta(factor.u, factor.v, size=m)
            if factor.l == 1:
                prod *= draws
            else:
                prod *= draws ** (1.0 / factor.l)
        out[pos : pos + m] = prod
        pos += m
        chunk_index += 1
    return out
