"""Hypergeometric expansion of the binomial family density.

The density attached to C(n*p+r, n) with p = k/l > 1 is a finite combination
of generalized hypergeometric series in z = (x/c)**l, c the support endpoint:
each of the k terms is coefficient * pFq(a_h; b_h | z) * z**e_h.  This module
builds that expansion and evaluates the density at many points per call.
On z <= 0.9 the pFq series are summed by their term recurrence in an array
kernel that takes many series at many z in one pass; on 1 - z <= 0.1, where
the k series slow down, the density comes instead from Norlund's expansion
of the Meijer G-function the k terms add up to, in powers of 1 - z, with
coefficients from a recurrence run in ``decimal``.  The expansion's
coefficients are quotients of real gamma values, from a Lanczos gamma that
tests no pole; ``build_slater_expansion`` decides, once per denominator
argument, whether it is a pole, and a pole zeroes its coefficient.
"""
from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import (
    DomainError,
    Params,
    Record,
    as_scalar,
    is_exact,
    support_endpoint,
)

__all__ = [
    "SlaterTerm",
    "SlaterExpansion",
    "build_slater_expansion",
    "eval_density",
    "eval_density_many",
    "support_points",
]


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

#: rows (series x points) per kernel pass, so that the first three chunks,
#: to term 112, keep their full length; 512 and 2048 were no faster
_PASS_ROWS = _MAX_CELLS // (_FIRST_CHUNK << 2)


class _NotConverged(DomainError):
    """A kernel sum that does not end in _BLOCK terms; ``point`` indexes its z."""

    def __init__(self, message: str, point: int):
        super().__init__(message)
        self.point = point


def _pfq_sum(nums, dens, zs):
    """sum_m prod(a)_m / prod(b)_m * z**m / m! for each series at every z in ``zs``.

    ``nums`` and ``dens`` hold one row of upper and one of lower parameters
    per series, of one length each, and are not checked: densities hand it
    kF(k-1) series whose lower parameters lie in (0, 2).  Returns (values,
    terms_used) arrays of shape (series, points).  The (series, point) pairs
    are the rows of one pass, series-major, and all rows step through the
    terms together; a row leaves once three consecutive terms fall below
    1e-16 times the running sum.  The terms go in chunks, terms =
    cumprod(ratio) and sums = 1 + cumsum(terms), each chunk folding the raw
    cumprod and cumsum of the last into its first term; IEEE * and + commute
    and numpy accumulates in order along a row, so every value is bit for
    bit what one array of _BLOCK terms of its series alone would give.  Each
    parameter is added to the term indices once per series, and that row is
    repeated for the series' live rows.  Rows not converged after _BLOCK
    terms raise _NotConverged naming the z of the first one; a ratio product
    past the float range, which never converges, raises as soon as its row
    is the first live one.
    """
    zs = np.asarray(zs, dtype=float)
    what = f"{len(nums[0])}F{len(dens[0])} series"
    series, points = len(nums), zs.size
    # each parameter as a (series, 1) column: a + m is then one row of sums
    # per series, repeated for each of its live rows
    num = np.array(nums, dtype=float).T[:, :, None]
    den = np.array(dens, dtype=float).T[:, :, None]
    z_rows = np.tile(zs, series)
    values, terms_used = np.empty(z_rows.size), np.empty(z_rows.size, dtype=int)
    live = np.arange(z_rows.size)
    pos, chunk = 0, _FIRST_CHUNK
    prod_carry, sum_carry = np.ones(live.size), np.zeros(live.size)
    flags = np.zeros((live.size, 2), dtype=bool)  # small flags of the last two terms
    while live.size:
        # past the float range a term product stays inf or nan and its row
        # never ends, so the first live row's fails without waiting for the
        # block end
        finite = math.isfinite(prod_carry[0])
        if pos >= _BLOCK or not finite:
            why = f"not converged after {_BLOCK} terms" if finite else "terms leave the float range"
            z = float(z_rows[live[0]])
            raise _NotConverged(f"{what} {why} at z = {z!r}", int(live[0]) % points)
        n = min(chunk, _BLOCK - pos, max(1, _MAX_CELLS // live.size))
        m = np.arange(pos, pos + n, dtype=float)
        ratio = np.repeat(z_rows[live][:, None], n, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            counts = np.bincount(live // points, minlength=series)
            for a in num:
                ratio *= np.repeat(a + m, counts, axis=0)
            for b in den:
                ratio /= np.repeat(b + m, counts, axis=0)
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
    return values.reshape(series, points), terms_used.reshape(series, points)


# ---------------------------------------------------------------------------
# gamma on the real axis


# 15-term rational core (g = 607/128) for the gamma function; standard
# published coefficient set, accurate to ~1e-15 relative in double precision.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _sinpi(x: float) -> float:
    # sin(pi*x) with the integer part of x reduced exactly, so reflection
    # stays accurate for arguments like -19.5.
    m = math.floor(x)
    f = x - m
    if f > 0.5:
        s = math.sin(math.pi * (1.0 - f))
    else:
        s = math.sin(math.pi * f)
    return -s if (m & 1) else s


def _gamma(x: float) -> float:
    """Gamma on the real axis via the fixed-coefficient rational core.

    Tests no pole: ``build_slater_expansion`` decides those.  Reflection
    handles x < 0.5, and where sin(pi x) rounds to 0 the value is IEEE's
    signed infinity; below x of about -170.6, where Gamma(1 - x) leaves the
    float range, it is taken in logs and the value falls through the
    subnormals to a signed zero.  Relative error stays below 1e-13 for
    |x| <= 50.  Raises DomainError above x of about 171.6.
    """
    if x < 0.5:
        s = _sinpi(x)
        try:
            return math.pi / (s * _gamma(1.0 - x))
        except ZeroDivisionError:  # sin(pi x) rounds to 0: IEEE's signed infinity
            return math.copysign(math.inf, s)
        except DomainError:
            log_value = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
            return math.copysign(math.exp(log_value), s)
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 15):
        acc += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    try:
        return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
    except OverflowError:
        pass
    # from x of about 142.9 the power leaves the float range before exp(-t)
    # scales it down: take it as two half-powers on either side of exp(-t)
    try:
        half = t ** (0.5 * (z + 0.5))
        value = math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"gamma at x = {x!r} exceeds the float range")
    return value


# ---------------------------------------------------------------------------
# density expansion


class SlaterTerm(Record):
    # exponent: power of z multiplying the pFq value
    _fields = ("coef", "a_vec", "b_vec", "exponent")


class SlaterExpansion(Record):
    """gamma_factor * z**(-1/l) * G^{k,0}_{k,k}(z | alphas; betas), z = (x/c)**l.

    ``terms`` is Slater's sum for G about z = 0; ``endpoint_coeffs`` are
    the coefficients of Norlund's expansion about z = 1, built on first use.
    ``domain_upper`` is the support endpoint c.
    """

    _fields = ("l", "gamma_factor", "terms", "domain_upper", "alphas", "betas")

    @cached_property
    def endpoint_coeffs(self) -> tuple:
        c0 = 1.0 / math.gamma(0.5)  # 1/Gamma(_PSI)
        return tuple(c0 * float(q) for q in _norlund_coeffs(self.alphas, self.betas))


#: psi = sum(alphas) - sum(betas), the exponent in Norlund's expansion: the
#: alphas add up to (l + 1)/2 + r + (k - l + 1)/2 and the betas to
#: r + (k + 1)/2, so psi = 1/2 at every binomial pair
_PSI = 0.5


def _difference_table(shifts: Sequence, s) -> list:
    """Divided differences P[s, s - 1, ..., s - i], i = 0..k, of P(x) = prod_j (x - shifts_j).

    k = len(shifts).  They are P's coefficients in the Newton basis N_i(x) =
    (x - s)(x - s + 1)...(x - s + i - 1), and x - c = N_{i+1}/N_i + s - i - c
    takes them through the factors one by one, each entry a product and a
    sum: no values of P are differenced, so no digits cancel.  The last
    entry is 1, P being monic.
    """
    table = [1]
    for c in shifts:
        table = [u + (s - i - c) * v for i, (u, v) in enumerate(zip([0, *table], [*table, 0]))]
    return table


def _advance(table: list) -> None:
    """Move a ``_difference_table`` from s to s + 1 in place.

    With nabla the unit backward difference, table[i] = nabla^i P(s) / i!
    and nabla^i P(s + 1) = nabla^i P(s) + nabla^(i+1) P(s + 1), so from the
    top entry down table[i] gains (i + 1) table[i + 1].
    """
    for i in range(len(table) - 2, -1, -1):
        table[i] += (i + 1) * table[i + 1]


def _norlund_coeffs(alphas, betas) -> list:
    """Decimal c_n/c_0 of G^{k,0}_{k,k}(z | alphas; betas) = w**(psi-1) sum_n c_n w**n.

    w = 1 - z, psi = _PSI, c_0 = 1/Gamma(psi) (Norlund, "Hypergeometric functions", Acta
    Math. 94 (1955)).  G solves [z prod(theta - alpha_j + 1) - prod(theta -
    beta_j)] G = 0.  theta = z d/dz maps w**t to t w**t - t w**(t-1), so on
    the powers w**(s-i) it is lower bidiagonal with diagonal s - i and
    subdiagonal -(s - i), and Opitz's formula for a function of a
    bidiagonal matrix (G. Opitz, "Steigungsmatrizen", ZAMM 44 (1964); C. de
    Boor, "Divided differences", Surv. Approx. Theory 1 (2005)) gives the
    coefficient of w**(s-i) in prod_j(theta - c_j) w**s in closed form:
    A_i(s) = (-1)**i C(s, i) nabla^i P(s) = prod_{j<i} (j - s) P[s, ..., s - i],
    P(x) = prod_j (x - c_j), nabla the unit backward difference.  One
    ``_difference_table`` per product (c_j = alpha_j - 1, and c_j = beta_j
    for B_i) is built at s_0 = _PSI - 1 and moved on by k multiply-adds per n.
    With these A_i and B_i the power w**(s-k) cancels identically, and the
    next power of the ansatz gives the recurrence sum_{d=0..k}
    R_d(s_{N-d}) c_{N-d} = 0, R_d = A_{k-d} - A_{k-1-d} + B_{k-1-d} and
    s_n = _PSI - 1 + n.  R_0(s_n) vanishes only at n = 0.  The entries of R
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
        s = Decimal(_PSI) - 1
        a_table = _difference_table([Decimal(a) - 1 for a in alphas], s)
        b_table = _difference_table([Decimal(b) for b in betas], s)
        for n in range(_ENDPOINT_TERMS):
            if n:
                s += 1
                _advance(a_table)
                _advance(b_table)
            scale = [1]  # prod_{j<i} (j - s), shared by both products
            for i in range(k):
                scale.append(scale[i] * (i - s))
            a = [f * v for f, v in zip(scale, a_table)]
            b = [f * v for f, v in zip(scale, b_table)]
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


#: distance to a nonpositive integer below which a float gamma argument of
#: a Slater coefficient counts as a pole
_POLE_TOL = 1e-8


def build_slater_expansion(params: Params) -> SlaterExpansion:
    """Construct the k-term hypergeometric expansion of the density V at (p, r).

    Valid for rational p = k/l > 1 and any real r.  The Meijer G-function
    has alpha_j = j/l for j <= l, (r + j - l)/(k - l) above, and beta_h =
    (r + h)/k.  Terms whose coefficient carries a gamma pole in its
    denominator are stored with coefficient exactly 0 and skipped during
    evaluation.  The numerator gammas Gamma((j - h)/k) come from one table
    of 2k - 2 values keyed by j - h.  For exact r = rn/rd each alpha_j -
    beta_h is an integer numerator over one common denominator D: it is a
    pole when the numerator is <= 0 and a multiple of D, and its gamma
    argument is numerator / D, which int division rounds correctly, as
    float() of the Fraction does.  For float r an alpha_j - beta_h is a
    pole when it lies within _POLE_TOL of a nonpositive integer.
    """
    upper = float(support_endpoint(params.p))  # refuses p <= 1 and k > MAX_K first
    k, l = params.k, params.l
    r = params.r
    exact = is_exact(r)
    ra = as_scalar(r)
    rf = float(ra)
    pf = float(params.p)
    root = math.sqrt(2.0 * math.pi * (k - l))
    try:
        gamma_factor = l * (pf - 1.0) ** (pf - rf - 1.0) / (pf ** (pf - rf - 0.5) * root)
    except (OverflowError, ZeroDivisionError):  # a power leaves the float range
        log_factor = (pf - rf - 1.0) * math.log(pf - 1.0) - (pf - rf - 0.5) * math.log(pf)
        gamma_factor = l * math.exp(log_factor) / root if log_factor < 709.0 else math.inf
    gamma_num = {d: _gamma(d / k) for d in range(1 - k, k) if d}
    if exact:
        # D * alpha_j as integers, D a common denominator of every alpha_j - beta_h
        rn, rd = ra.numerator, ra.denominator
        den = l * k * (k - l) * rd
        scaled = [j * k * (k - l) * rd if j <= l else l * k * (rn + (j - l) * rd)
                  for j in range(1, k + 1)]
    terms = []
    for h in range(1, k + 1):
        # alpha_j - beta_h, j = 1..k: one pole decision each; a pole zeroes the coefficient
        if exact:
            shift = l * (k - l) * (rn + h * rd)
            nums = [a - shift for a in scaled]
            # a nonpositive integer, on D * (alpha_j - beta_h)
            pole = any(n <= 0 and n % den == 0 for n in nums)
            den_args = [n / den for n in nums]
        else:
            den_args = [j / l - (ra + h) / k for j in range(1, l + 1)] + [
                (ra + j - l) / (k - l) - (ra + h) / k for j in range(l + 1, k + 1)
            ]
            # a float within _POLE_TOL of a nonpositive integer
            pole = any((near := round(a)) <= 0 and abs(a - near) < _POLE_TOL for a in den_args)
        if pole:
            coef = 0.0
        else:
            num = math.prod(gamma_num[j - h] for j in range(1, k + 1) if j != h)
            try:
                coef = num / math.prod(_gamma(a) for a in den_args)
            except (OverflowError, ZeroDivisionError):
                coef = math.inf
            if not math.isfinite(coef * gamma_factor):
                raise DomainError(f"density term {h} at p = {params.p}, r = {params.r} overflows")
        a_vec = tuple(
            (rf + h) / k - (j - l) / l if j <= l else (rf + h) / k - (rf + j - k) / (k - l)
            for j in range(1, k + 1)
        )
        b_vec = tuple((k + h - j) / k for j in range(1, k + 1) if j != h)
        exponent = (rf + h) / k - 1.0 / l
        terms.append(SlaterTerm(coef, a_vec, b_vec, exponent))
    if not math.isfinite(gamma_factor):
        # every coefficient is a pole's zero, which the term check skips;
        # inf times those zeros would be nan
        raise DomainError(f"density prefactor at p = {params.p}, r = {params.r} overflows")
    return SlaterExpansion(
        l=l,
        gamma_factor=gamma_factor,
        terms=tuple(terms),
        domain_upper=upper,
        alphas=tuple(j / l if j <= l else (rf + j - l) / (k - l) for j in range(1, k + 1)),
        betas=tuple((rf + h) / k for h in range(1, k + 1)),
    )


def support_points(xs: Sequence[float], dist_upper: Optional[Sequence[float]],
                   upper: float) -> tuple:
    """(xs, distances to ``upper``) as lists of floats, all inside (0, upper).

    Without ``dist_upper`` the distances are the plain differences, and
    upper - x > 0 holds in floats exactly when x < upper (never at nan or
    inf).  An explicit distance is authoritative: x itself may have rounded
    onto the endpoint even though the true abscissa is interior.  Either
    way one test, x > 0 and a positive distance, raises DomainError at any
    point outside.
    """
    xs = np.asarray(xs, dtype=float).tolist()
    if dist_upper is None:
        dists = [upper - x for x in xs]
    else:
        dists = np.asarray(dist_upper, dtype=float).tolist()
    if not all(x > 0.0 and d > 0.0 for x, d in zip(xs, dists)):
        raise DomainError(f"density defined on (0, {upper})")
    return xs, dists


def eval_density_many(expansion: SlaterExpansion, xs: Sequence[float],
                      dist_upper: Optional[Sequence[float]] = None) -> np.ndarray:
    """Density values at abscissae ``xs`` in (0, c), as an array.

    ``dist_upper`` may carry each c - x to full relative precision
    (quadrature transforms know it exactly); without it the plain
    differences are used.  At points with 1 - z > _TAIL_SWITCH = 0.1 the
    Slater terms are summed in groups, as many series to a kernel pass as
    keep it within _PASS_ROWS rows.  A sum not converged in _BLOCK terms
    raises DomainError naming its z and its x; closer to the endpoint each
    value comes from ``endpoint_coeffs``, built only after the direct sums
    have succeeded.  A failing direct sum thus raises before any coefficient
    is built, and of several failing sums the one raised is the one that
    summing one term at a time would raise.  Values are bit for bit those of
    summing one term at a time, and every value is the one-point
    ``eval_density`` value.
    """
    upper = expansion.domain_upper
    xs, dists = support_points(xs, dist_upper, upper)
    out = np.empty(len(xs))
    direct, lnzs, near = [], [], []
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
            near.append((i, lnz, w))
        else:
            direct.append(i)
            lnzs.append(lnz)
    if direct:
        # z and its powers through libm, point by point: numpy's exp may
        # differ from it in the last bit
        zs = np.array([math.exp(lnz) for lnz in lnzs])

        def summed(terms):
            # the series of ``terms`` in one kernel pass, as (terms, points)
            try:
                return _pfq_sum([t.a_vec for t in terms], [t.b_vec for t in terms], zs)[0]
            except _NotConverged as err:
                raise DomainError(f"{err} (x = {xs[direct[err.point]]!r})") from None

        nonzero = [term for term in expansion.terms if term.coef != 0.0]
        group = max(1, _PASS_ROWS // len(direct))
        total = np.zeros(len(direct))
        for start in range(0, len(nonzero), group):
            terms, powers = nonzero[start:start + group], []
            try:
                for term in terms:
                    powers.append(np.array([math.exp(term.exponent * lnz) for lnz in lnzs]))
            except OverflowError:
                # only a negative exponent overflows, first at the smallest z.
                # Term by term each series is summed before its power is
                # taken, so a sum up to this term may fail first
                summed(terms[:len(powers) + 1])
                x = xs[direct[lnzs.index(min(lnzs))]]
                raise DomainError(f"density at x = {x!r} exceeds the float range") from None
            for term, value, power in zip(terms, summed(terms), powers):
                total += term.coef * value * power
        out[direct] = expansion.gamma_factor * total
    for i, lnz, w in near:
        series = 0.0
        for c in reversed(expansion.endpoint_coeffs):
            series = series * w + c
        g = w ** -0.5 * series  # w**(_PSI - 1)
        out[i] = expansion.gamma_factor * math.exp(-lnz / expansion.l) * g
    return out


def eval_density(expansion: SlaterExpansion, x: float,
                 dist_upper: Optional[float] = None) -> float:
    """Density value at x in (0, c): ``eval_density_many`` at one point."""
    dists = None if dist_upper is None else [dist_upper]
    return float(eval_density_many(expansion, [x], dists)[0])

