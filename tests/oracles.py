"""Reference values the tests hold the library to, computed without it.

Nothing here imports ``binomoment``: each oracle takes plain numbers or
coefficient lists, so a fault in the library cannot leak into the value
it is checked against.
"""
import cmath
import math
from fractions import Fraction


# -- elementary generating functions ------------------------------------------

_RADII = {
    Fraction(0): 1.0,
    Fraction(1): 1.0,
    Fraction(-1): 0.25,
    Fraction(2): 0.25,
    Fraction(1, 2): 2.0,
    # the coefficient growth (27/4)**n fixes the p = 3 radius at 4/27
    Fraction(3): 4.0 / 27.0,
    Fraction(3, 2): 2.0 / math.sqrt(27.0),
}


def closed_form_radius(p) -> float:
    """Convergence radius of ``binomial_gf_closed_form`` at p."""
    try:
        return _RADII[Fraction(p)]
    except KeyError:
        raise ValueError(f"no closed form for p = {p}") from None


def binomial_gf_closed_form(p, r, z: float) -> float:
    """sum_n C(n*p+r, n) z**n in elementary functions, for p in 0, 1, -1, 2, 1/2, 3, 3/2.

    Raises ValueError at |z| >= ``closed_form_radius(p)``.
    """
    p = Fraction(p)
    rf = float(r)
    z = float(z)
    if abs(z) >= closed_form_radius(p):
        raise ValueError(f"|z| = {abs(z)} outside radius for p = {p}")
    if p == 0:
        return (1.0 + z) ** rf
    if p == 1:
        return (1.0 - z) ** (-1.0 - rf)
    if p == -1:
        s = math.sqrt(1.0 + 4.0 * z)
        return ((1.0 + s) / 2.0) ** (1.0 + rf) / s
    if p == 2:
        s = math.sqrt(1.0 - 4.0 * z)
        return (2.0 / (1.0 + s)) ** rf / s
    if p == Fraction(1, 2):
        s = math.sqrt(4.0 + z * z)
        b = (2.0 + z * z + z * s) / 2.0
        return 2.0 * b ** (1.0 + rf) / (1.0 + b)
    if p == 3:
        # complex intermediates cover z < 0; the value is real either way
        alpha = cmath.asin(cmath.sqrt(27.0 * z / 4.0)) / 3.0
        c2 = (cmath.cos(alpha) ** 2).real
        s2 = (cmath.sin(alpha) ** 2).real
        b3 = 3.0 / (3.0 * c2 - s2)
        return b3**rf / (c2 - 3.0 * s2)
    # p = 3/2
    beta = math.asin(3.0 * z * math.sqrt(3.0) / 2.0) / 3.0
    cb, sb = math.cos(beta), math.sin(beta)
    b32 = 3.0 / (math.sqrt(3.0) * cb - sb) ** 2
    return b32**rf / (cb * (cb - math.sqrt(3.0) * sb))


# -- series powers ------------------------------------------------------------


def series_power(coeffs, w) -> list:
    """Coefficients of f**w modulo z**(N+1), f = coeffs with f(0) = 1.

    The binomial series sum_k C(w, k) (f - 1)**k with the generalized
    binomial coefficient C(w, k) = w (w-1) ... (w-k+1) / k!; (f - 1)**k
    starts at z**k, so k stops at N.  Exact for exact coefficients and w.
    """
    if coeffs[0] != 1:
        raise ValueError("f(0) must equal 1")
    n = len(coeffs) - 1
    u = [0] + list(coeffs[1:])  # f - 1
    out = [0] * (n + 1)
    power = [1] + [0] * n  # (f - 1)**k
    binom = 1  # C(w, k)
    for k in range(n + 1):
        out = [o + binom * t for o, t in zip(out, power)]
        power = [sum(power[j] * u[i - j] for j in range(i + 1)) for i in range(n + 1)]
        binom = binom * (w - k) / (k + 1)
    return out


# -- free cumulants ---------------------------------------------------------


def r_transform(moments) -> list:
    """Free cumulants kappa_1..kappa_N of the moments m_0 = 1, m_1..m_N.

    The coefficients of R(z) = sum_n kappa_{n+1} z**n, from the
    moment-cumulant recursion over non-crossing partitions: m_n is the sum
    over s of kappa_s times [z**(n-s)] M(z)**s.  Exact for exact moments.
    """
    m = [Fraction(c) if isinstance(c, int) else c for c in moments]
    if m[0] != 1:
        raise ValueError("m_0 must equal 1")
    n_max = len(m) - 1
    powers = [[1] + [0] * n_max]  # powers[s] = coefficients of M**s
    for _ in range(n_max):
        last = powers[-1]
        powers.append([sum(last[j] * m[i - j] for j in range(i + 1)) for i in range(n_max + 1)])
    kappas = []
    for n in range(1, n_max + 1):
        kappas.append(m[n] - sum(kappas[s - 1] * powers[s][n - s] for s in range(1, n)))
    return kappas


# -- beta products ------------------------------------------------------------


def beta_moment(u: float, v: float, l: int, n: int) -> float:
    """n-th moment of the l-th root of a Beta(u, v) variate; v = 0 is the atom at 1.

    Gamma(u + n/l) Gamma(u + v) / (Gamma(u + v + n/l) Gamma(u)).
    """
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if n == 0 or v == 0.0:
        return 1.0
    t = n / l
    return math.gamma(u + t) * math.gamma(u + v) / (math.gamma(u + v + t) * math.gamma(u))


def beta_product_moment(factors, dilation: float, n: int) -> float:
    """n-th moment of dilation * prod_j X_j, X_j independent, factors (u, v, l)."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    acc = float(dilation) ** n
    for u, v, l in factors:
        acc *= beta_moment(u, v, l, n)
    return acc
