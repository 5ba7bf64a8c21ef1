"""Reference values the tests hold the library to, computed without it.

Nothing here imports ``binomoment``: each oracle takes plain numbers or
coefficient lists, so a fault in the library cannot leak into the value
it is checked against.
"""
import cmath
import math
from decimal import Decimal, localcontext
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


# -- series arithmetic on coefficient lists ----------------------------------


def series_product(a, b) -> list:
    """Coefficients of a*b modulo z**(N+1), N the smaller of the two orders."""
    n = min(len(a), len(b)) - 1
    return [sum((Fraction(a[j]) * b[m - j] for j in range(m + 1)), Fraction(0))
            for m in range(n + 1)]


def series_reciprocal(coeffs) -> list:
    """Coefficients of 1/f from sum_j f_j g_(m-j) = [m == 0], f(0) != 0."""
    if coeffs[0] == 0:
        raise ValueError("f(0) must not vanish")
    g = []
    for m in range(len(coeffs)):
        rest = sum((Fraction(coeffs[j]) * g[m - j] for j in range(1, m + 1)), Fraction(0))
        g.append((int(m == 0) - rest) / Fraction(coeffs[0]))
    return g


def series_compose(outer, inner) -> list:
    """Coefficients of outer(inner(z)) by Horner's rule, inner(0) = 0."""
    if inner[0] != 0:
        raise ValueError("inner(0) must vanish")
    n = min(len(outer), len(inner)) - 1
    acc = [Fraction(outer[n])] + [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = series_product(acc, inner[: n + 1])
        acc[0] += outer[i]
    return acc


def series_reversion(coeffs) -> list:
    """Coefficients of g with coeffs(g(z)) = z, one unknown at a time.

    With g known below z**m and g_m = 0, [z**m] f(g) misses exactly
    f_1 g_m, so g_m = -[z**m] f(g) / f_1.
    """
    if coeffs[0] != 0 or len(coeffs) < 2 or coeffs[1] == 0:
        raise ValueError("need f(0) = 0 and f'(0) != 0")
    n = len(coeffs) - 1
    g = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        miss = series_compose(coeffs, g)[m] - (1 if m == 1 else 0)
        g[m] = -miss / Fraction(coeffs[1])
    return g


def series_from_json(data) -> tuple:
    """Coefficients of a series in its JSON form, {"order": N, "coeffs": [...]}.

    A coefficient {"num": "...", "den": "..."} is read as a Fraction, any
    other as a float.  An order field that disagrees with the number of
    coefficients raises ValueError.
    """
    cs = tuple(Fraction(int(c["num"]), int(c["den"])) if isinstance(c, dict) else float(c)
               for c in data["coeffs"])
    if len(cs) != data["order"] + 1:
        raise ValueError("order field disagrees with coefficient count")
    return cs


# -- binomial and Raney numbers -----------------------------------------------


def falling_binomial(p, r, n: int) -> Fraction:
    """C(n*p + r, n) as prod_{j<n} (n*p + r - j) / n!, over Fraction."""
    top = Fraction(p) * n + Fraction(r)
    acc = Fraction(1)
    for j in range(n):
        acc *= top - j
    return acc / math.factorial(n)


def raney(p, r, n: int) -> Fraction:
    """r/(n*p + r) C(n*p + r, n) as r prod_{1<=j<n} (n*p + r - j) / n!."""
    if n == 0:
        return Fraction(1)
    top = Fraction(p) * n + Fraction(r)
    acc = Fraction(r)
    for j in range(1, n):
        acc *= top - j
    return acc / math.factorial(n)


# -- Norlund's endpoint series -------------------------------------------------


def theta_product(shifts, s0, n: int) -> dict:
    """prod_j (theta - shifts_j) applied to w**(s0 + n), as {m: coefficient of w**(s0 + m)}.

    theta = z d/dz with z = 1 - w maps w**t to t w**t - t w**(t-1); each
    factor is applied to every power in turn.  Exact when the shifts and s0
    are Fractions.
    """
    poly = {n: Fraction(1)}
    for c in shifts:
        nxt = {}
        for m, v in poly.items():
            t = s0 + m
            nxt[m] = nxt.get(m, 0) + (t - c) * v
            nxt[m - 1] = nxt.get(m - 1, 0) - t * v
        poly = nxt
    return poly


def norlund_ratios(alphas, betas, psi, count: int) -> list:
    """c_n/c_0, n < count, of G^{k,0}_{k,k}(1 - w | alphas; betas) = w**(psi-1) sum c_n w**n.

    G solves z prod(theta - alpha_j + 1) G = prod(theta - beta_j) G, with
    theta = z d/dz, so theta w**t = t w**t - t w**(t-1), and z = 1 - w.  The
    operator takes w**(psi-1+n) to the powers w**(psi-1+n-k) and up, the
    lowest of which cancels; the power w**(psi-1+N-k+1) of the whole series
    vanishing fixes c_N.  Exact in Fractions: exponents are kept as integer
    offsets from psi - 1.
    """
    k = len(alphas)
    images, ratios = [], []
    for n in range(count):
        image = {}
        for m, v in theta_product([a - 1 for a in alphas], psi - 1, n).items():
            image[m] = image.get(m, 0) + v  # times z = 1 - w
            image[m + 1] = image.get(m + 1, 0) - v
        for m, v in theta_product(betas, psi - 1, n).items():
            image[m] = image.get(m, 0) - v
        assert image[n - k] == 0
        images.append(image)
        known = sum(ratios[m] * images[m].get(n - k + 1, 0) for m in range(n))
        ratios.append(-known / image[n - k + 1] if n else Fraction(1))
    return ratios


def _theta_image(shifts, ts) -> list:
    """prod_j (theta - shifts_j) w**s as coefficients of w**s, w**(s-1), ...

    theta = z d/dz, and with z = 1 - w it maps w**t to t w**t - t w**(t-1).
    ``ts`` holds the exponents s, s - 1, ..., s - len(shifts) + 1.
    """
    out = [Decimal(1)]
    for c in shifts:
        nxt = [Decimal(0)] * (len(out) + 1)
        for i, (t, v) in enumerate(zip(ts, out)):
            nxt[i] += (t - c) * v
            nxt[i + 1] -= t * v
        out = nxt
    return out


def norlund_ratios_decimal(alphas, betas, psi: float, switch: float, max_terms: int) -> list:
    """Decimal c_n/c_0 as the library's recurrence built them with both theta-images per n.

    The recurrence of ``norlund_ratios`` at 30 + k digits, on the float
    parameters taken exactly: for every n, ``_theta_image`` applies both
    products to w**s_n, O(k**2) operations each, and R_d = A_{k-d} -
    A_{k-1-d} + B_{k-1-d} are read off them.  Terms are added until three in
    a row weigh below 1e-17 of the sum of their magnitudes at w = ``switch``;
    past ``max_terms`` it raises ValueError.
    """
    k, rows, ratios = len(alphas), [], []
    weight = small = 0  # sum of |c_n/c_0| switch**n, count of small ones
    with localcontext() as ctx:
        ctx.prec = 30 + k
        shifted = [Decimal(a) - 1 for a in alphas]
        betas = [Decimal(b) for b in betas]
        for n in range(max_terms):
            s = Decimal(psi) - 1 + n
            ts = [s - i for i in range(k)]  # the exponents both images step through
            a = _theta_image(shifted, ts)
            b = _theta_image(betas, ts)
            rows.append([a[k - d] - (a[k - 1 - d] - b[k - 1 - d] if d < k else 0)
                         for d in range(k + 1)])
            acc = sum(rows[n - d][d] * ratios[n - d] for d in range(1, min(k, n) + 1))
            ratios.append(-acc / rows[n][0] if n else Decimal(1))
            term = abs(float(ratios[n])) * switch**n
            weight += term
            small = small + 1 if term < 1e-17 * weight else 0
            if small == 3:
                return ratios
    raise ValueError(f"Norlund series needs over {max_terms} terms")


# -- Slater's expansion --------------------------------------------------------


def slater_fields(k: int, l: int, r, gamma, pole_tol: float) -> tuple:
    """(gamma_factor, terms, alphas, betas) of the density's Slater sum at p = k/l.

    The construction with every alpha_j - beta_h formed as a ``Fraction``
    when r is exact, and its pole test on the Fraction: a nonpositive
    integer.  For float r the differences are floats, and a pole is within
    ``pole_tol`` of a nonpositive integer.  ``gamma`` is the gamma function
    of the code under test, so every float here can match its bits.  Each
    term is (coef, a_vec, b_vec, exponent); a pole zeroes coef.  A term
    whose coefficient leaves the float range raises OverflowError.
    """
    exact = isinstance(r, (int, Fraction))
    ra = Fraction(r) if exact else r
    rf = float(ra)
    pf = k / l

    def at_pole(a) -> bool:
        if exact:
            return a.denominator == 1 and a <= 0
        near = round(a)
        return near <= 0 and abs(a - near) < pole_tol

    root = math.sqrt(2.0 * math.pi * (k - l))
    try:
        gamma_factor = l * (pf - 1.0) ** (pf - rf - 1.0) / (pf ** (pf - rf - 0.5) * root)
    except (OverflowError, ZeroDivisionError):
        log_factor = (pf - rf - 1.0) * math.log(pf - 1.0) - (pf - rf - 0.5) * math.log(pf)
        gamma_factor = l * math.exp(log_factor) / root if log_factor < 709.0 else math.inf
    terms = []
    for h in range(1, k + 1):
        den_args = [
            Fraction(j, l) - (ra + h) / k if exact else j / l - (ra + h) / k
            for j in range(1, l + 1)
        ] + [
            Fraction(ra + j - l, 1) / (k - l) - (ra + h) / k
            if exact
            else (ra + j - l) / (k - l) - (ra + h) / k
            for j in range(l + 1, k + 1)
        ]
        if any(at_pole(a) for a in den_args):
            coef = 0.0
        else:
            num = math.prod(gamma((j - h) / k) for j in range(1, k + 1) if j != h)
            try:
                coef = num / math.prod(gamma(float(a)) for a in den_args)
            except (OverflowError, ZeroDivisionError):
                coef = math.inf
            if not math.isfinite(coef * gamma_factor):
                raise OverflowError(f"density term {h} overflows")
        a_vec = tuple(
            (rf + h) / k - (j - l) / l if j <= l else (rf + h) / k - (rf + j - k) / (k - l)
            for j in range(1, k + 1)
        )
        b_vec = tuple((k + h - j) / k for j in range(1, k + 1) if j != h)
        terms.append((coef, a_vec, b_vec, (rf + h) / k - 1.0 / l))
    alphas = tuple(j / l if j <= l else (rf + j - l) / (k - l) for j in range(1, k + 1))
    betas = tuple((rf + h) / k for h in range(1, k + 1))
    return gamma_factor, tuple(terms), alphas, betas


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
