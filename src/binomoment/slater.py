"""Hypergeometric expansion of the binomial-family densities.

The density attached to C(n*p+r, n) with p = k/l > 1 is a finite combination
of generalized hypergeometric series in z = (x/c)**l, c the support endpoint:
each of the k terms is coefficient * pFq(a_h; b_h | z) * z**e_h.  This module
builds the gamma-quotient symbol behind that expansion, evaluates pFq with a
term recurrence (switching to an asymptotic tail form near z = 1, where the
direct series stalls), and evaluates densities pointwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
from .quadrature import QuadratureSpec, tanh_sinh

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
    tail_assisted: bool


#: direct summation is abandoned in favor of the asymptotic tail once
#: 1 - z drops below this (the series would need >~60000 terms)
_TAIL_SWITCH = 6.5e-4

_MAX_TERMS = 10**6
_HEAD_TERMS = 16384


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
                return PfqResult(float(csum[stop]), True, m0 + stop + 2, False)
        acc = float(csum[-1])
        t_last = float(terms[-1])
        m0 += n
        block = min(block * 4, 1 << 19)
    return PfqResult(acc, False, max_terms, False)


def _pfq_pfaff(num, den, z, rel_tol, max_terms) -> PfqResult:
    # Gauss series at negative argument: mapping to w = z/(z-1) in (0, 1/2)
    # leaves at most finitely many sign changes in the terms, so the direct
    # sum is well conditioned where the original alternating sum is not
    a, b = sorted(float(v) for v in num)
    c = float(den[0])
    w = z / (z - 1.0)
    inner = _pfq_direct([a, c - b], [c], w, rel_tol, max_terms)
    value = (1.0 - z) ** (-a) * inner.value
    return PfqResult(value, inner.converged, inner.terms_used, inner.tail_assisted)


def _upper_gamma_desc(a: float, w: float) -> float:
    # Gamma(a, w) for a = 1/2 - j by downward recursion from erfc
    g = math.sqrt(math.pi) * math.erfc(math.sqrt(w))
    cur = 0.5
    while cur > a + 1e-9:
        g = (g - w ** (cur - 1.0) * math.exp(-w)) / (cur - 1.0)
        cur -= 1.0
    return g


def _upper_gamma_cf(a: float, w: float) -> float:
    # Lentz continued fraction for Gamma(a, w); solid for w >= ~0.5, a <= 1
    tiny = 1e-300
    b0 = w + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / max(b0, tiny)
    h = d
    for i in range(1, 400):
        an = -i * (i - a)
        b0 += 2.0
        d = an * d + b0
        if abs(d) < tiny:
            d = tiny
        c = b0 + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-w + a * math.log(w)) * h


def _exp_power_integral(s: float, lam: float, lo: float) -> float:
    """integral_lo^inf x**(-s) exp(-lam x) dx, lam > 0."""
    w = lam * lo
    if abs(abs(s - round(s)) - 0.5) < 1e-12 and s >= 0.5 and w >= 0.5:
        # half-integer exponents (the expansion's own grid) via erfc recursion
        return lam ** (s - 1.0) * _upper_gamma_desc(1.0 - s, w)
    if w > 4.0:
        return lam ** (s - 1.0) * _upper_gamma_cf(1.0 - s, w)
    # small-w series of the generalized exponential integral E_s(w)
    if abs(s - round(s)) < 1e-9:
        s += 1e-9  # integer s carries a log term; nudge (unused on half-integer grids)
    acc = 0.0
    term = 1.0
    for j in range(200):
        acc += term / (1.0 - s + j)
        term *= -w / (j + 1.0)
        if abs(term) < 1e-20 * max(1.0, abs(acc)):
            break
    es = gamma_real(1.0 - s) * w ** (s - 1.0) - acc
    return lo ** (1.0 - s) * es


def _power_exp_tail(s: float, lam: float, start: int) -> float:
    """sum_{m >= start} m**(-s) exp(-lam m) by Euler-Maclaurin."""
    a = float(start)
    integral = _exp_power_integral(s, lam, a)
    f = a ** (-s) * math.exp(-lam * a)
    g1 = -(s / a + lam)
    g2 = s / (a * a)
    g3 = -2.0 * s / (a * a * a)
    f1 = g1 * f
    f3 = (g3 + 3.0 * g1 * g2 + g1**3) * f
    return integral + 0.5 * f - f1 / 12.0 + f3 / 720.0


def _pfq_tail(num, den, lam: float) -> PfqResult:
    """Head sum plus algebraic-tail completion; uniform in 0 < lam << 1."""
    num = [float(a) for a in num]
    den = [float(b) for b in den]
    lam = max(lam, 1e-300)
    M = _HEAD_TERMS
    m = np.arange(M - 1, dtype=float)
    ratio = np.ones(M - 1)
    for a in num:
        ratio *= a + m
    for b in den:
        ratio /= b + m
    ratio /= m + 1.0
    t = np.empty(M)
    t[0] = 1.0
    np.cumprod(ratio, out=t[1:])
    head = float(np.sum(t * np.exp(-lam * np.arange(M, dtype=float))))
    # t_m ~ m**q (d0 + d1/m + d2/m^2 + d3/m^3), q from the parameter sums
    q = sum(num) - sum(den) - 1.0
    pts = [M - 1, (7 * M) // 8, (3 * M) // 4, (5 * M) // 8]
    mat = np.array([[float(mm) ** (-j) for j in range(4)] for mm in pts])
    rhs = np.array([t[mm] * float(mm) ** (-q) for mm in pts])
    d = np.linalg.solve(mat, rhs)
    tail = math.fsum(
        dj * _power_exp_tail(j - q, lam, M) for j, dj in enumerate(d) if dj != 0.0
    )
    return PfqResult(head + tail, True, M, True)


def pfq(num: Sequence, den: Sequence, z: float, *,
        rel_tol: float = 1e-16, max_terms: int = _MAX_TERMS) -> PfqResult:
    """Generalized hypergeometric sum_m prod(num)_m / prod(den)_m * z^m / m!.

    Terms are updated incrementally; summation stops once three consecutive
    terms fall below rel_tol times the running sum, and gives up at max_terms
    with ``converged=False``.  For 1 - z below ~6.5e-4 (and z not making the
    series terminate) the remainder past a fixed head is completed with an
    asymptotic algebraic tail, which stays accurate arbitrarily close to z=1.
    Negative z alternates the terms, so the two-numerator one-denominator
    case is rerouted through w = z/(z-1) to dodge the cancellation.
    """
    _validate_params(num, den)
    z = float(z)
    if abs(z) >= 1.0:
        raise DomainError("pfq evaluation needs |z| < 1")
    if z < 0.0 and len(num) == 2 and len(den) == 1 and not _terminates(num):
        return _pfq_pfaff(num, den, z, rel_tol, max_terms)
    if z <= 0.0 or (1.0 - z) > _TAIL_SWITCH or _terminates(num):
        return _pfq_direct(num, den, z, rel_tol, max_terms)
    return _pfq_tail(num, den, -math.log(z))


def _pfq_lnz(num, den, lnz: float) -> PfqResult:
    # internal entry keeping full precision in 1-z = -expm1(lnz)
    one_minus_z = -math.expm1(lnz)
    if one_minus_z > _TAIL_SWITCH or _terminates(num):
        return _pfq_direct(num, den, math.exp(lnz), 1e-16, _MAX_TERMS)
    return _pfq_tail(num, den, -lnz)


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
    params: Params
    k: int
    l: int
    gamma_factor: float
    terms: tuple
    domain_upper: float  # support endpoint c
    z_scale: float  # c**l; z = x**l / z_scale

    def density(self, x: float) -> float:
        return eval_density(self, x)


def _coef_denominator_args(r, h: int, k: int, l: int):
    exact = is_exact(r)
    r = as_scalar(r)
    args = []
    for j in range(1, l + 1):
        v = Fraction(j, l) - (r + h) / k if exact else j / l - (r + h) / k
        args.append(v)
    for j in range(l + 1, k + 1):
        if exact:
            v = Fraction(r + j - l, 1) / (k - l) - (r + h) / k
        else:
            v = (r + j - l) / (k - l) - (r + h) / k
        args.append(v)
    return args


def build_slater_expansion(params: Params) -> SlaterExpansion:
    """Construct the k-term hypergeometric expansion of the density.

    Valid for rational p = k/l > 1 and any real r.  Terms whose coefficient
    carries a gamma pole in its denominator are stored with coefficient
    exactly 0 and skipped during evaluation.
    """
    k, l = params.k, params.l
    if not k > l >= 1:
        raise DomainError("density expansion needs p = k/l > 1")
    r = params.r
    rf = float(as_scalar(r))
    pf = float(params.p)
    gamma_factor = (
        l
        * (pf - 1.0) ** (pf - rf - 1.0)
        / (pf ** (pf - rf - 0.5) * math.sqrt(2.0 * math.pi * (k - l)))
    )
    upper = float(support_endpoint(params.p))
    terms = []
    for h in range(1, k + 1):
        den_args = _coef_denominator_args(r, h, k, l)
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
            (rf + h) / k - (j - l) / l if j <= l else (rf + h) / k - (rf + j - k) / (k - l)
            for j in range(1, k + 1)
        )
        b_vec = tuple((k + h - j) / k for j in range(1, k + 1) if j != h)
        exponent = (rf + h) / k - 1.0 / l
        terms.append(SlaterTerm(coef, a_vec, b_vec, exponent))
    return SlaterExpansion(
        params=params,
        k=k,
        l=l,
        gamma_factor=gamma_factor,
        terms=tuple(terms),
        domain_upper=upper,
        z_scale=upper**l,
    )


def eval_density(
    expansion: SlaterExpansion,
    x: float,
    dist_upper: Optional[float] = None,
    return_flag: bool = False,
):
    """Density value at x in (0, c).

    ``dist_upper`` may carry c - x to full relative precision (quadrature
    transforms know it exactly); without it the plain difference is used.
    With ``return_flag=True`` returns (value, precision_loss_flag); the flag
    fires for z = (x/c)**l > 0.98**l, where the direct series loses ground
    and evaluation switches to the asymptotic tail.
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
    flag = lnz > expansion.l * math.log(0.98)
    total = 0.0
    for term in expansion.terms:
        if term.coef == 0.0:
            continue
        res = _pfq_lnz(term.a_vec, term.b_vec, lnz)
        flag = flag or not res.converged
        total += term.coef * res.value * math.exp(term.exponent * lnz)
    val = expansion.gamma_factor * total
    if return_flag:
        return val, flag
    return val


# ---------------------------------------------------------------------------
# Raney-family density via the multiplicative power-factor integral


def raney_density(
    params: Params,
    base_density: Optional[Callable[[float, float], float]] = None,
    spec: Optional[QuadratureSpec] = None,
) -> Callable[[float], float]:
    """Density of the Raney-family measure for p = k/l > 1, r > 0.

    Multiplying the binomial-family measure at (p, r-1) by an independent
    power-law factor with exponent c = r/(p-1) yields the Raney measure at
    (p, r); its density is

        W(x) = c * x**(c-1) * integral_x^upper V(y) y**(-c) dy.

    ``base_density`` is V as a callable (y, dist_to_upper) -> value and
    defaults to the hypergeometric expansion at (p, r-1); passing a cheaper
    closed form is encouraged.
    """
    k, l = params.k, params.l
    if not k > l >= 1:
        raise DomainError("raney density needs p = k/l > 1")
    rf = float(as_scalar(params.r))
    if not rf > 0.0:
        raise DomainError("raney density needs r > 0")
    c = rf / (float(params.p) - 1.0)
    upper = float(support_endpoint(params.p))
    if base_density is None:
        base = build_slater_expansion(Params(params.p, as_scalar(params.r) - 1))

        def base_density(y, du):
            return eval_density(base, y, dist_upper=du)

    quad = spec or QuadratureSpec(target_abs_tol=1e-11)

    def w_density(x: float, dist_upper: Optional[float] = None) -> float:
        if dist_upper is None:
            if not 0.0 < x < upper:
                raise DomainError(f"density defined on (0, {upper})")
            dist_upper = upper - x
        if not (x > 0.0 and dist_upper > 0.0):
            raise DomainError(f"density defined on (0, {upper})")
        # integrate in s = upper - y; the node's left distance dl is then the
        # base density's exact distance to its endpoint singularity, and the
        # abscissa y = x + dr never rounds to 0.  The weight y**(-c) is taken
        # relative to x**(-c) so intermediates stay inside double range even
        # for x near the underflow scale of the deepest quadrature nodes.
        res = tanh_sinh(
            lambda s, dl, dr: base_density(x + dr, dl) * (1.0 + dr / x) ** (-c),
            0.0,
            dist_upper,
            quad,
        )
        return c * res.value / x

    return w_density
