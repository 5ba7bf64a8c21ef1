"""Hypergeometric expansion of the binomial and Raney family densities.

The density attached to C(n*p+r, n) with p = k/l > 1 is a finite combination
of generalized hypergeometric series in z = (x/c)**l, c the support endpoint:
each of the k terms is coefficient * pFq(a_h; b_h | z) * z**e_h.  The Raney
density, with moments r/(n*p+r) * C(n*p+r, n), is the same expansion with
the beta side of the gamma quotient moved from r to r - 1.  This module
builds the gamma-quotient symbol behind these expansions, evaluates pFq with
a term recurrence, and evaluates densities pointwise.  Near z = 1, where the
k series stall, the density comes instead from Norlund's expansion of the
Meijer G-function the k terms add up to, in powers of 1 - z.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    DomainError,
    GammaPoleError,
    Params,
    RegionError,
    Scalar,
    as_scalar,
    gamma_real,
    gen_binomial,
    is_exact,
    support_endpoint,
)

__all__ = [
    "GammaQuotientSymbol",
    "SlaterTerm",
    "SlaterExpansion",
    "PfqResult",
    "build_symbol",
    "mellin_symbol",
    "pfq",
    "build_slater_expansion",
    "eval_density",
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
        scale=float(support_endpoint(params.p)),
    )


# ---------------------------------------------------------------------------
# the moment symbol itself


def _pole_order(arg: Scalar) -> Optional[int]:
    """If arg sits at (or within 1e-9 of) a nonpositive integer -m, return m."""
    if is_exact(arg):
        a = Fraction(arg)
        if a.denominator == 1 and a <= 0:
            return -int(a)
        return None
    near = round(arg)
    if near <= 0 and abs(arg - near) < 1e-9:
        return -int(near)
    return None


def mellin_symbol(params: Params, sigma: Scalar) -> float:
    """Gamma((s-1)p+r+1) / (Gamma(s) * Gamma((s-1)(p-1)+r+1)) at s = sigma.

    Interpolates the moments: at sigma = n+1 the value is C(n*p+r, n), except
    that when n*p+r+1 is a nonpositive integer both outer gammas blow up and
    the limit is ((p-1)/p) * C(n*p+r, n).  Removable configurations are
    detected symbolically for exact inputs and by 1e-9 proximity for floats;
    a genuine pole raises GammaPoleError.
    """
    p = params.p
    r = as_scalar(params.r)
    s = as_scalar(sigma)
    top = (s - 1) * p + r + 1
    bot = (s - 1) * (p - 1) + r + 1
    m_top = _pole_order(top)
    m_bot = _pole_order(bot)
    m_s = _pole_order(s)

    if m_top is None:
        if m_bot is not None or m_s is not None:
            return 0.0  # finite numerator over an infinite denominator
        return gamma_real(top) / (gamma_real(s) * gamma_real(bot))

    # numerator pole; need at least one denominator pole to cancel it
    if m_bot is None and m_s is None:
        raise GammaPoleError(f"symbol pole at sigma={sigma!r}")
    if m_bot is not None and m_s is not None:
        return 0.0  # one pole up, two down

    if (
        is_exact(r)
        and is_exact(s)
        and Fraction(s).denominator == 1
        and Fraction(s) >= 1
    ):
        # exact moment-limit branch: sigma = n+1 with n*p+r+1 in -N0
        n = int(Fraction(s)) - 1
        val = Fraction(p - 1, 1) / p * gen_binomial(p, r, n)
        return float(val)

    pf = float(p)
    if m_bot is not None:
        # residue ratio: d(top)/ds = p, d(bot)/ds = p-1
        sign = -1.0 if (m_top - m_bot) % 2 else 1.0
        return (
            sign
            * math.factorial(m_bot)
            / math.factorial(m_top)
            * (pf - 1.0)
            / (pf * gamma_real(s))
        )
    sign = -1.0 if (m_top - m_s) % 2 else 1.0
    return sign * math.factorial(m_s) / math.factorial(m_top) * pf / gamma_real(bot)


# ---------------------------------------------------------------------------
# generalized hypergeometric evaluation


@dataclass(frozen=True)
class PfqResult:
    value: float
    converged: bool
    terms_used: int


#: densities switch from the k direct series to the endpoint expansion once
#: 1 - z drops below this (the series would need >~60000 terms)
_TAIL_SWITCH = 6.5e-4

_MAX_TERMS = 10**6

#: Norlund coefficients kept per expansion; at 1 - z <= _TAIL_SWITCH the
#: terms left out weigh below 1e-20 of the sum
_ENDPOINT_TERMS = 8


def _validate_params(num, den):
    for b in den:
        if _pole_order(as_scalar(b)) is not None:
            raise DomainError(f"lower parameter {b} is a nonpositive integer")


def _terminates(num) -> bool:
    return any(_pole_order(as_scalar(a)) is not None for a in num)


def _pfq_direct(num, den, z, rel_tol, max_terms) -> PfqResult:
    num = [float(a) for a in num]
    den = [float(b) for b in den]
    acc = 1.0  # t_0
    t_last = 1.0
    m0 = 0
    block = 2048
    while m0 < max_terms:
        n = min(block, max_terms - m0)
        m = np.arange(m0, m0 + n, dtype=float)
        ratio = np.full(n, z)
        for a in num:
            ratio *= a + m
        for b in den:
            ratio /= b + m
        ratio /= m + 1.0
        terms = t_last * np.cumprod(ratio)
        csum = acc + np.cumsum(terms)
        floor = np.maximum(np.abs(csum), 1e-300)
        small = np.abs(terms) < rel_tol * floor
        if n >= 3:
            run3 = small[2:] & small[1:-1] & small[:-2]
            hits = np.nonzero(run3)[0]
            if hits.size:
                stop = int(hits[0]) + 2
                return PfqResult(float(csum[stop]), True, m0 + stop + 2)
        acc = float(csum[-1])
        t_last = float(terms[-1])
        m0 += n
        block = min(block * 4, 1 << 19)
    return PfqResult(acc, False, max_terms)


def _pfq_pfaff(num, den, z, rel_tol, max_terms) -> PfqResult:
    # Gauss series at negative argument: mapping to w = z/(z-1) in (0, 1/2)
    # leaves at most finitely many sign changes in the terms, so the direct
    # sum is well conditioned where the original alternating sum is not
    a, b = sorted(float(v) for v in num)
    c = float(den[0])
    w = z / (z - 1.0)
    inner = _pfq_direct([a, c - b], [c], w, rel_tol, max_terms)
    value = (1.0 - z) ** (-a) * inner.value
    return PfqResult(value, inner.converged, inner.terms_used)


def pfq(num: Sequence, den: Sequence, z: float, *,
        rel_tol: float = 1e-16, max_terms: int = _MAX_TERMS) -> PfqResult:
    """Generalized hypergeometric sum_m prod(num)_m / prod(den)_m * z^m / m!.

    Terms are updated incrementally; summation stops once three consecutive
    terms fall below rel_tol times the running sum, and gives up at max_terms
    with ``converged=False``.  Negative z alternates the terms, so the
    two-numerator one-denominator case is rerouted through w = z/(z-1) to
    dodge the cancellation.  A non-terminating series with more numerator
    than denominator parameters stalls near z = 1 and raises DomainError for
    1 - z <= _TAIL_SWITCH; densities there come from ``eval_density``.
    """
    _validate_params(num, den)
    z = float(z)
    if abs(z) >= 1.0:
        raise DomainError("pfq evaluation needs |z| < 1")
    if z < 0.0 and len(num) == 2 and len(den) == 1 and not _terminates(num):
        return _pfq_pfaff(num, den, z, rel_tol, max_terms)
    if 1.0 - z <= _TAIL_SWITCH and len(num) > len(den) and not _terminates(num):
        raise DomainError(
            f"pfq series stalls at 1 - z <= {_TAIL_SWITCH}; "
            "evaluate densities there with eval_density"
        )
    return _pfq_direct(num, den, z, rel_tol, max_terms)


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
    z_scale: float  # c**l; z = x**l / z_scale
    alphas: tuple
    betas: tuple
    psi: float  # sum(alphas) - sum(betas), kept exact

    @cached_property
    def endpoint_coeffs(self) -> tuple:
        return _norlund_coeffs(self.alphas, self.betas, self.psi, _ENDPOINT_TERMS)


def _theta_image(shifts: Sequence[float], s: float) -> list:
    """prod_j (theta - shifts_j) w**s as coefficients of w**s, w**(s-1), ...

    theta = z d/dz, and with z = 1 - w it maps w**t to t w**t - t w**(t-1).
    """
    out = [1.0]
    for c in shifts:
        nxt = [0.0] * (len(out) + 1)
        for i, v in enumerate(out):
            t = s - i
            nxt[i] += (t - c) * v
            nxt[i + 1] -= t * v
        out = nxt
    return out


def _norlund_coeffs(alphas, betas, psi: float, count: int) -> tuple:
    """c_0..c_{count-1} of G^{k,0}_{k,k}(z | alphas; betas) = w**(psi-1) sum c_n w**n.

    w = 1 - z, c_0 = 1/Gamma(psi) (Norlund, "Hypergeometric functions", Acta
    Math. 94 (1955)).  G solves [z prod(theta - alpha_j + 1) - prod(theta -
    beta_j)] G = 0.  With A_i(s), B_i(s) the coefficients of w**(s-i) in the
    two products applied to w**s, the power w**(s-k) cancels identically, and
    the next power of the ansatz gives the recurrence sum_{d=0..k}
    R_d(s_{N-d}) c_{N-d} = 0, R_d = A_{k-d} - A_{k-1-d} + B_{k-1-d} and
    s_n = psi - 1 + n.  R_0(s_n) vanishes only at n = 0.  The entries of R
    cancel to about 1e-11 relative at k = 17, which would show through c_1 w,
    so c_1 comes from its closed form c_1/c_0 = (sum beta(beta-1) - sum
    alpha(alpha-1) + psi(psi-1)) / (2 psi); later c_n are damped by w**n.
    """
    k = len(alphas)
    shifted = [a - 1.0 for a in alphas]
    c0 = 1.0 / math.gamma(psi)
    quad = math.fsum(b * (b - 1.0) for b in betas) - math.fsum(a * (a - 1.0) for a in alphas)
    coeffs = [c0, c0 * (quad + psi * (psi - 1.0)) / (2.0 * psi)]
    rows = []
    for n in range(count):
        s = psi - 1.0 + n
        a = _theta_image(shifted, s)
        b = _theta_image(betas, s)
        rows.append([a[k - d] - (a[k - 1 - d] - b[k - 1 - d] if d < k else 0.0)
                     for d in range(k + 1)])
        if n >= 2:
            acc = math.fsum(rows[n - d][d] * coeffs[n - d] for d in range(1, min(k, n) + 1))
            coeffs.append(-acc / rows[n][0])
    return tuple(coeffs)


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
    r = params.r
    exact = is_exact(r)
    ra = as_scalar(r)
    rb = as_scalar(r_beta)
    rf = float(ra)
    rbf = float(rb)
    pf = float(params.p)
    gamma_factor = (
        l
        * (pf - 1.0) ** (pf - rf - 1.0)
        / (pf ** (pf - rf - 0.5) * math.sqrt(2.0 * math.pi * (k - l)))
    )
    upper = float(support_endpoint(params.p))
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
        if any(_pole_order(a) is not None for a in den_args):
            coef = 0.0
        else:
            num = 1.0
            for j in range(1, k + 1):
                if j != h:
                    num *= gamma_real((j - h) / k)
            den = 1.0
            for a in den_args:
                den *= gamma_real(float(a))
            coef = num / den
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
        z_scale=upper**l,
        alphas=tuple(j / l if j <= l else (rf + j - l) / (k - l) for j in range(1, k + 1)),
        betas=tuple((rbf + h) / k for h in range(1, k + 1)),
        psi=0.5 + float(ra - rb),
    )


def build_slater_expansion(params: Params) -> SlaterExpansion:
    """Construct the k-term hypergeometric expansion of the density V at (p, r).

    Valid for rational p = k/l > 1 and any real r.
    """
    return _expansion(params, params.r)


def eval_density(expansion: SlaterExpansion, x: float,
                 dist_upper: Optional[float] = None) -> float:
    """Density value at x in (0, c).

    ``dist_upper`` may carry c - x to full relative precision (quadrature
    transforms know it exactly); without it the plain difference is used.
    The k series are summed directly while 1 - z > _TAIL_SWITCH; closer to
    the endpoint the value comes from ``endpoint_coeffs``.
    """
    upper = expansion.domain_upper
    if dist_upper is None:
        if not 0.0 < x < upper:
            raise DomainError(f"density defined on (0, {upper})")
        dist_upper = upper - x
    # an explicit distance is authoritative: x itself may have rounded onto
    # the endpoint even though the true abscissa is interior
    if not (x > 0.0 and dist_upper > 0.0):
        raise DomainError(f"density defined on (0, {upper})")
    if x > 0.5 * upper:
        lnz = expansion.l * math.log1p(-dist_upper / upper)
    else:
        lnz = expansion.l * math.log(x / upper)
    w = -math.expm1(lnz)
    if w <= _TAIL_SWITCH:
        series = 0.0
        for c in reversed(expansion.endpoint_coeffs):
            series = series * w + c
        g = w ** (expansion.psi - 1.0) * series
        return expansion.gamma_factor * math.exp(-lnz / expansion.l) * g
    z = math.exp(lnz)
    total = 0.0
    for term in expansion.terms:
        if term.coef == 0.0:
            continue
        res = _pfq_direct(term.a_vec, term.b_vec, z, 1e-16, _MAX_TERMS)
        total += term.coef * res.value * math.exp(term.exponent * lnz)
    return expansion.gamma_factor * total


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
