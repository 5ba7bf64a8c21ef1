"""Hypergeometric expansion of the binomial and Raney family densities.

The density attached to C(n*p+r, n) with p = k/l > 1 is a finite combination
of generalized hypergeometric series in z = (x/c)**l, c the support endpoint:
each of the k terms is coefficient * pFq(a_h; b_h | z) * z**e_h.  The Raney
density, with moments r/(n*p+r) * C(n*p+r, n), is the same expansion with
the beta side of the gamma quotient moved from r to r - 1.  This module
builds the gamma-quotient symbol behind these expansions and evaluates
densities at many points per call.  On z <= 0.9 each pFq series is summed
by a term recurrence in one array kernel that takes many z at once; on
1 - z <= 0.1, where the k series slow down, the density comes instead from
Norlund's expansion of the Meijer G-function the k terms add up to, in
powers of 1 - z, with coefficients from a recurrence run in ``decimal``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    GAMMA_POLE_TOL,
    DomainError,
    Params,
    RegionError,
    Scalar,
    as_scalar,
    gamma_real,
    is_exact,
    support_endpoint,
)

__all__ = [
    "GammaQuotientSymbol",
    "SlaterTerm",
    "SlaterExpansion",
    "build_symbol",
    "build_slater_expansion",
    "eval_density",
    "eval_density_many",
    "raney_density",
]


# ---------------------------------------------------------------------------
# gamma-quotient symbol


@dataclass(frozen=True)
class GammaQuotientSymbol:
    """Parameters of the gamma-quotient form of the moment symbol.

    ``alphas_tilde`` is the permutation-compatible reindexing of ``alphas``
    that dominates ``betas`` entrywise whenever -1 < r <= p-1.
    """

    params: Params
    k: int
    l: int
    alphas: tuple
    betas: tuple
    alphas_tilde: tuple
    scale: float


def build_symbol(params: Params) -> GammaQuotientSymbol:
    """Assemble the gamma-quotient data for p = k/l > 1.

    The reindexing positions are j'_i = floor(i*k/l - r), i = 1..l; they must
    be strictly increasing inside 1..k, which holds exactly when
    -1 < r <= p-1 (RegionError otherwise).
    """
    k, l = params.k, params.l
    if not k > l >= 1:
        raise DomainError("symbol needs p = k/l > 1")
    scale = float(support_endpoint(params.p))  # refuses k > MAX_K before the loops
    r = params.r
    exact = is_exact(r)

    def frac(num, den):
        return Fraction(num, den) if exact else num / den

    alphas = tuple(
        Fraction(j, l) if j <= l else frac(as_scalar(r) + j - l, k - l)
        for j in range(1, k + 1)
    )
    betas = tuple(frac(as_scalar(r) + j, k) for j in range(1, k + 1))

    if exact:
        jprime = [math.floor(Fraction(i * k, l) - Fraction(r)) for i in range(1, l + 1)]
    else:
        jprime = [math.floor(i * k / l - r) for i in range(1, l + 1)]
    ok = all(jprime[i] < jprime[i + 1] for i in range(l - 1))
    if not (ok and 1 <= jprime[0] and jprime[-1] <= k):
        raise RegionError("tilde reindexing needs -1 < r <= p-1")

    tilde = [None] * (k + 1)
    for i, jp in enumerate(jprime, start=1):
        tilde[jp] = Fraction(i, l)
    bounds = [0] + jprime + [k + 1]
    for i in range(l + 1):
        for j in range(bounds[i] + 1, bounds[i + 1]):
            tilde[j] = frac(as_scalar(r) + j - i, k - l)
    return GammaQuotientSymbol(
        params=params,
        k=k,
        l=l,
        alphas=alphas,
        betas=betas,
        alphas_tilde=tuple(tilde[1:]),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# generalized hypergeometric evaluation


#: densities switch from the k direct series, summed to at most _BLOCK terms,
#: to the endpoint series, of at most _ENDPOINT_TERMS, once 1 - z drops
#: below _TAIL_SWITCH; at z = 0.9 a direct series needs a few hundred terms
_TAIL_SWITCH = 0.1
_BLOCK = 2048
_ENDPOINT_TERMS = 128

#: terms go in chunks, _FIRST_CHUNK long and then twice the last one, cut at
#: the block end and to at most _MAX_CELLS entries per (points x terms) array
_FIRST_CHUNK = 16
_MAX_CELLS = 1 << 16


def _pfq_sum(num, den, zs):
    """sum_m prod(num)_m / prod(den)_m * z**m / m! at every z in ``zs``.

    Returns (values, terms_used) arrays.  All points step through the terms
    together, and a point leaves once three consecutive terms fall below
    1e-16 times the running sum.  The terms go in chunks, terms =
    cumprod(ratio) and sums = 1 + cumsum(terms), each chunk folding the raw
    cumprod and cumsum of the last into its first term; IEEE * and + commute
    and numpy accumulates in order along a row, so every value is bit for
    bit what one array of _BLOCK terms would give.  A point not converged
    after _BLOCK terms raises DomainError naming its z, as does a ratio
    product past the float range, which never converges.  So does a lower
    parameter at a nonpositive integer, and a non-terminating series with
    two or more upper than lower parameters at any z != 0, where it diverges.
    """
    for b in den:
        if _at_pole(b):
            raise DomainError(f"lower parameter {b} is a nonpositive integer")
    zs = np.asarray(zs, dtype=float)
    if len(num) > len(den) + 1 and not any(_at_pole(a) for a in num) and np.any(zs != 0.0):
        raise DomainError(
            f"{len(num)}F{len(den)} series diverges at every z != 0 unless it terminates"
        )
    num = [float(a) for a in num]
    den = [float(b) for b in den]
    values, terms_used = np.empty(zs.size), np.empty(zs.size, dtype=int)
    live = np.arange(zs.size)
    pos, chunk = 0, _FIRST_CHUNK
    prod_carry, sum_carry = np.ones(zs.size), np.zeros(zs.size)
    flags = np.zeros((live.size, 2), dtype=bool)  # small flags of the last two terms
    while live.size:
        if pos >= _BLOCK:
            what, z = f"{len(num)}F{len(den)} series", float(zs[live[0]])
            raise DomainError(f"{what} not converged after {_BLOCK} terms at z = {z!r}")
        n = min(chunk, _BLOCK - pos, max(1, _MAX_CELLS // live.size))
        m = np.arange(pos, pos + n, dtype=float)
        ratio = np.repeat(zs[live][:, None], n, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            for a in num:
                ratio *= a + m
            for b in den:
                ratio /= b + m
            ratio /= m + 1.0
            ratio[:, 0] *= prod_carry
            np.cumprod(ratio, axis=1, out=ratio)
            sums = ratio.copy()
            sums[:, 0] += sum_carry
            np.cumsum(sums, axis=1, out=sums)
            prod_carry, sum_carry = ratio[:, -1], sums[:, -1]
            sums = 1.0 + sums
            small = np.abs(ratio) < 1e-16 * np.maximum(np.abs(sums), 1e-300)
        flags = np.concatenate((flags, small), axis=1)
        run3 = flags[:, 2:] & flags[:, 1:-1] & flags[:, :-2]
        flags = flags[:, -2:]
        hit = run3.any(axis=1)
        if hit.any():
            stop = run3.argmax(axis=1)[hit]
            done = live[hit]
            values[done] = sums[hit, stop]
            terms_used[done] = pos + stop + 2
            keep = ~hit
            live, flags = live[keep], flags[keep]
            prod_carry, sum_carry = prod_carry[keep], sum_carry[keep]
        pos += n
        chunk *= 2
    return values, terms_used


# ---------------------------------------------------------------------------
# density expansion


@dataclass(frozen=True)
class SlaterTerm:
    coef: float
    a_vec: tuple
    b_vec: tuple
    exponent: float  # power of z multiplying the pFq value


@dataclass(frozen=True)
class SlaterExpansion:
    """gamma_factor * z**(-1/l) * G^{k,0}_{k,k}(z | alphas; betas), z = (x/c)**l.

    ``terms`` is Slater's sum for G about z = 0; ``endpoint_coeffs`` are
    the coefficients of Norlund's expansion about z = 1, built on first use.
    """

    params: Params
    k: int
    l: int
    gamma_factor: float
    terms: tuple
    domain_upper: float  # support endpoint c
    alphas: tuple
    betas: tuple
    psi: float  # sum(alphas) - sum(betas), kept exact

    @cached_property
    def endpoint_coeffs(self) -> tuple:
        c0 = 1.0 / math.gamma(self.psi)
        return tuple(c0 * float(q) for q in _norlund_coeffs(self.alphas, self.betas, self.psi))


def _theta_image(shifts: Sequence[Decimal], s: Decimal) -> list:
    """prod_j (theta - shifts_j) w**s as coefficients of w**s, w**(s-1), ...

    theta = z d/dz, and with z = 1 - w it maps w**t to t w**t - t w**(t-1).
    """
    out = [Decimal(1)]
    for c in shifts:
        nxt = [Decimal(0)] * (len(out) + 1)
        for i, v in enumerate(out):
            t = s - i
            nxt[i] += (t - c) * v
            nxt[i + 1] -= t * v
        out = nxt
    return out


def _norlund_coeffs(alphas, betas, psi: float) -> list:
    """Decimal c_n/c_0 of G^{k,0}_{k,k}(z | alphas; betas) = w**(psi-1) sum_n c_n w**n.

    w = 1 - z, c_0 = 1/Gamma(psi) (Norlund, "Hypergeometric functions", Acta
    Math. 94 (1955)).  G solves [z prod(theta - alpha_j + 1) - prod(theta -
    beta_j)] G = 0.  With A_i(s), B_i(s) the coefficients of w**(s-i) in the
    two products applied to w**s, the power w**(s-k) cancels identically, and
    the next power of the ansatz gives the recurrence sum_{d=0..k}
    R_d(s_{N-d}) c_{N-d} = 0, R_d = A_{k-d} - A_{k-1-d} + B_{k-1-d} and
    s_n = psi - 1 + n.  R_0(s_n) vanishes only at n = 0.  The entries of R
    cancel, by about 0.6 digit per unit of k, so the recurrence runs in
    ``decimal`` at 30 + k digits on the float parameters taken exactly.
    Terms are added until three in a row weigh below 1e-17 of the sum of
    their magnitudes at w = _TAIL_SWITCH: about 18 at k <= 31, 44 where the
    coefficients swell first, as at (100/3, 0), and DomainError past
    _ENDPOINT_TERMS.
    """
    k, rows, ratios = len(alphas), [], []
    weight = small = 0  # sum of |c_n/c_0| _TAIL_SWITCH**n, count of small ones
    with localcontext() as ctx:
        ctx.prec = 30 + k
        shifted = [Decimal(a) - 1 for a in alphas]
        betas = [Decimal(b) for b in betas]
        for n in range(_ENDPOINT_TERMS):
            s = Decimal(psi) - 1 + n
            a = _theta_image(shifted, s)
            b = _theta_image(betas, s)
            rows.append([a[k - d] - (a[k - 1 - d] - b[k - 1 - d] if d < k else 0)
                         for d in range(k + 1)])
            acc = sum(rows[n - d][d] * ratios[n - d] for d in range(1, min(k, n) + 1))
            ratios.append(-acc / rows[n][0] if n else Decimal(1))
            term = abs(float(ratios[n])) * _TAIL_SWITCH**n
            weight += term
            small = small + 1 if term < 1e-17 * weight else 0
            if small == 3:
                return ratios
    raise DomainError(f"Norlund series needs over {_ENDPOINT_TERMS} terms")


def _at_pole(arg: Scalar) -> bool:
    """Whether arg sits at (or within GAMMA_POLE_TOL of) a nonpositive integer."""
    if is_exact(arg):
        a = Fraction(arg)
        return a.denominator == 1 and a <= 0
    near = round(arg)
    return near <= 0 and abs(arg - near) < GAMMA_POLE_TOL


def _expansion(params: Params, r_beta: Scalar) -> SlaterExpansion:
    """k-term expansion of the Meijer G-function with parameters alpha, beta.

    The alpha_j are those of the binomial symbol at (p, r); the beta side is
    taken at ``r_beta``, beta_h = (r_beta + h)/k.  ``gamma_factor`` is the
    binomial one at (p, r).  Terms whose coefficient carries a gamma pole in
    its denominator are stored with coefficient exactly 0 and skipped during
    evaluation.
    """
    k, l = params.k, params.l
    if not k > l >= 1:
        raise DomainError("density expansion needs p = k/l > 1")
    upper = float(support_endpoint(params.p))  # refuses k > MAX_K before the loops
    r = params.r
    exact = is_exact(r)
    ra = as_scalar(r)
    rb = as_scalar(r_beta)
    rf = float(ra)
    rbf = float(rb)
    pf = float(params.p)
    root = math.sqrt(2.0 * math.pi * (k - l))
    try:
        gamma_factor = l * (pf - 1.0) ** (pf - rf - 1.0) / (pf ** (pf - rf - 0.5) * root)
    except (OverflowError, ZeroDivisionError):  # a power leaves the float range
        log_factor = (pf - rf - 1.0) * math.log(pf - 1.0) - (pf - rf - 0.5) * math.log(pf)
        gamma_factor = l * math.exp(log_factor) / root if log_factor < 709.0 else math.inf
    terms = []
    for h in range(1, k + 1):
        # alpha_j - beta_h for j = 1..k: poles here zero the coefficient
        den_args = [
            Fraction(j, l) - (rb + h) / k if exact else j / l - (rb + h) / k
            for j in range(1, l + 1)
        ] + [
            Fraction(ra + j - l, 1) / (k - l) - (rb + h) / k
            if exact
            else (ra + j - l) / (k - l) - (rb + h) / k
            for j in range(l + 1, k + 1)
        ]
        if any(_at_pole(a) for a in den_args):
            coef = 0.0
        else:
            num = math.prod(gamma_real((j - h) / k) for j in range(1, k + 1) if j != h)
            try:
                coef = num / math.prod(gamma_real(float(a)) for a in den_args)
            except (OverflowError, ZeroDivisionError):
                coef = math.inf
            if not math.isfinite(coef * gamma_factor):
                raise DomainError(f"density term {h} at p = {params.p}, r = {params.r} overflows")
        a_vec = tuple(
            (rbf + h) / k - (j - l) / l if j <= l else (rbf + h) / k - (rf + j - k) / (k - l)
            for j in range(1, k + 1)
        )
        b_vec = tuple((k + h - j) / k for j in range(1, k + 1) if j != h)
        exponent = (rbf + h) / k - 1.0 / l
        terms.append(SlaterTerm(coef, a_vec, b_vec, exponent))
    return SlaterExpansion(
        params=params,
        k=k,
        l=l,
        gamma_factor=gamma_factor,
        terms=tuple(terms),
        domain_upper=upper,
        alphas=tuple(j / l if j <= l else (rf + j - l) / (k - l) for j in range(1, k + 1)),
        betas=tuple((rbf + h) / k for h in range(1, k + 1)),
        psi=0.5 + float(ra - rb),
    )


def build_slater_expansion(params: Params) -> SlaterExpansion:
    """Construct the k-term hypergeometric expansion of the density V at (p, r).

    Valid for rational p = k/l > 1 and any real r.
    """
    return _expansion(params, params.r)


def eval_density_many(expansion: SlaterExpansion, xs: Sequence[float],
                      dist_upper: Optional[Sequence[float]] = None) -> np.ndarray:
    """Density values at abscissae ``xs`` in (0, c), as an array.

    ``dist_upper`` may carry each c - x to full relative precision
    (quadrature transforms know it exactly); without it the plain
    differences are used.  Points with 1 - z > _TAIL_SWITCH = 0.1 share
    one array sum per Slater term, which raises DomainError if it does not
    converge in _BLOCK terms; closer to the endpoint each value comes from
    ``endpoint_coeffs``.  Every value is bit for bit the one-point
    ``eval_density`` value.
    """
    upper = expansion.domain_upper
    xs = np.asarray(xs, dtype=float).tolist()
    if dist_upper is None:
        if not all(0.0 < x < upper for x in xs):
            raise DomainError(f"density defined on (0, {upper})")
        dists = [upper - x for x in xs]
    else:
        dists = np.asarray(dist_upper, dtype=float).tolist()
    # an explicit distance is authoritative: x itself may have rounded onto
    # the endpoint even though the true abscissa is interior
    if not all(x > 0.0 and d > 0.0 for x, d in zip(xs, dists)):
        raise DomainError(f"density defined on (0, {upper})")
    out = np.empty(len(xs))
    direct, lnzs = [], []
    for i, (x, d) in enumerate(zip(xs, dists)):
        if x > 0.5 * upper:
            lnz = expansion.l * math.log1p(-d / upper)
        else:
            q = x / upper
            # a subnormal q has lost bits, and q can round to zero
            ln_q = math.log(q) if q >= sys.float_info.min else math.log(x) - math.log(upper)
            lnz = expansion.l * ln_q
        w = -math.expm1(lnz)
        if w <= _TAIL_SWITCH:
            series = 0.0
            for c in reversed(expansion.endpoint_coeffs):
                series = series * w + c
            g = w ** (expansion.psi - 1.0) * series
            out[i] = expansion.gamma_factor * math.exp(-lnz / expansion.l) * g
        else:
            direct.append(i)
            lnzs.append(lnz)
    if direct:
        # z and its powers through libm, point by point: numpy's exp may
        # differ from it in the last bit
        zs = np.array([math.exp(lnz) for lnz in lnzs])
        total = np.zeros(len(direct))
        for term in expansion.terms:
            if term.coef == 0.0:
                continue
            values = _pfq_sum(term.a_vec, term.b_vec, zs)[0]
            try:
                powers = np.array([math.exp(term.exponent * lnz) for lnz in lnzs])
            except OverflowError:
                # only a negative exponent overflows, first at the smallest z
                x = xs[direct[lnzs.index(min(lnzs))]]
                raise DomainError(f"density at x = {x!r} exceeds the float range") from None
            total += term.coef * values * powers
        out[direct] = expansion.gamma_factor * total
    return out


def eval_density(expansion: SlaterExpansion, x: float,
                 dist_upper: Optional[float] = None) -> float:
    """Density value at x in (0, c): ``eval_density_many`` at one point."""
    dists = None if dist_upper is None else [dist_upper]
    return float(eval_density_many(expansion, [x], dists)[0])


# ---------------------------------------------------------------------------
# Raney-family density


def raney_density(params: Params) -> Callable[..., float]:
    """Evaluator (x, dist_upper=None) -> W(x) of the Raney density at (p, r).

    Needs p = k/l > 1 and r > 0.  The Raney moments r/(n*p+r) * C(n*p+r, n)
    are the binomial gamma quotient at (p, r) with the beta side moved to
    r - 1, times r/k, so W is the same k-term expansion as V with
    beta_h = (r - 1 + h)/k (Mlotkowski, Penson and Zyczkowski, "Densities
    of the Raney distributions").
    """
    k, l = params.k, params.l
    if not k > l >= 1:
        raise DomainError("raney density needs p = k/l > 1")
    r = params.r
    if not float(r) > 0.0:
        raise DomainError("raney density needs r > 0")
    expansion = _expansion(params, r - 1)
    expansion = replace(expansion, gamma_factor=expansion.gamma_factor * float(r) / k)
    return lambda x, dist_upper=None: eval_density(expansion, x, dist_upper=dist_upper)
