"""Truncated formal power series over exact rationals, and the generating
functions attached to the binomial moment family.

A ``TruncatedSeries`` stores coefficients 0..N and every operation is exact
modulo z**(N+1) whenever the coefficients involved are exact rationals; real
powers go through exp(w*log f) so rational data never leaves the rationals.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .core import (
    DomainError,
    Scalar,
    as_scalar,
    gen_binomial,
    is_exact,
    raney_number,
)

__all__ = [
    "TruncatedSeries",
    "DEFAULT_ORDER",
    "raney_series",
    "binomial_series",
    "binomial_series_via_fuss",
    "fuss_functional_equation_holds",
    "boundary_series_relations_hold",
    "lambert_composition_holds",
    "binomial_gf_closed_form",
    "closed_form_radius",
    "CLOSED_FORM_P",
    "gf_reflection_holds",
]

#: Default truncation order for identity checking.
DEFAULT_ORDER = 32


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed order, coefficients exact or float."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(as_scalar(c) for c in self.coeffs))
        if not self.coeffs:
            raise DomainError("series needs at least the constant coefficient")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, cs: Sequence) -> "TruncatedSeries":
        return cls(tuple(cs))

    @classmethod
    def constant(cls, c, order: int) -> "TruncatedSeries":
        return cls((c,) + (Fraction(0),) * order)

    @classmethod
    def identity(cls, order: int) -> "TruncatedSeries":
        # the series z, which truncates to 0 at order 0
        return cls.from_function(lambda n: Fraction(int(n == 1)), order)

    @classmethod
    def from_function(cls, f: Callable[[int], Scalar], order: int) -> "TruncatedSeries":
        return cls(tuple(f(n) for n in range(order + 1)))

    # -- basics ------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Scalar:
        return self.coeffs[n]

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def _seed(self, v: int) -> Scalar:
        """v as a Fraction for an exact series, as a float otherwise."""
        return Fraction(v) if self.is_exact() else float(v)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def _aligned(self, other: "TruncatedSeries"):
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n), n

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            a, b, n = self._aligned(other)
            return TruncatedSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        c = as_scalar(other)
        return TruncatedSeries((self.coeffs[0] + c,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -as_scalar(other))

    def __rsub__(self, other):
        return (-self) + as_scalar(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            a, b, n = self._aligned(other)
            out = []
            for m in range(n + 1):
                out.append(sum((a.coeffs[j] * b.coeffs[m - j] for j in range(m + 1)),
                               start=Fraction(0)))
            return TruncatedSeries(tuple(out))
        c = as_scalar(other)
        return TruncatedSeries(tuple(c * x for x in self.coeffs))

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        f0 = self.coeffs[0]
        if f0 == 0:
            raise DomainError("reciprocal needs f(0) != 0")
        inv0 = Fraction(1, 1) / f0 if is_exact(f0) else 1.0 / f0
        out = [inv0]
        for m in range(1, self.order + 1):
            s = sum((self.coeffs[j] * out[m - j] for j in range(1, m + 1)),
                    start=Fraction(0))
            out.append(-inv0 * s)
        return TruncatedSeries(tuple(out))

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.reciprocal()
        c = as_scalar(other)
        return TruncatedSeries(tuple(x / c for x in self.coeffs))

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries((self._seed(0),))
        return TruncatedSeries(tuple(n * self.coeffs[n] for n in range(1, self.order + 1)))

    def integrate(self) -> "TruncatedSeries":
        # antiderivative with zero constant term; gains one order
        out = [self._seed(0)]
        for n, c in enumerate(self.coeffs):
            out.append(c / (n + 1) if is_exact(c) else c / float(n + 1))
        return TruncatedSeries(tuple(out))

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); requires inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise DomainError("compose needs inner constant term 0")
        n = min(self.order, inner.order)
        g = self.truncate(n)
        f = inner.truncate(n)
        acc = TruncatedSeries.constant(g.coeffs[n], n)
        for i in range(n - 1, -1, -1):
            acc = acc * f + g.coeffs[i]
        return acc

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z (order fixed, top coefficient falls off)."""
        return TruncatedSeries((self._seed(0),) + self.coeffs[:-1])

    def compositional_inverse(self) -> "TruncatedSeries":
        """Series g with g(self(z)) = z mod z^(N+1); needs f(0)=0, f'(0)!=0."""
        if self.coeffs[0] != 0:
            raise DomainError("compositional inverse needs f(0) = 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise DomainError("compositional inverse needs f'(0) != 0")
        n = self.order
        f1 = self.coeffs[1]
        # powers[m][i] = coefficient of z^i in self**m
        powers = [None, self]
        for m in range(2, n + 1):
            powers.append(powers[-1] * self)
        g = [self._seed(0), (Fraction(1) / f1 if is_exact(f1) else 1.0 / f1)]
        for m in range(2, n + 1):
            s = sum((g[j] * powers[j].coeffs[m] for j in range(1, m)), start=Fraction(0))
            # powers[m].coeffs[m] == f1**m: nonzero for exact f1, but a float
            # f1**m can underflow to 0.0, where the inverse's g_m overflows
            lead = powers[m].coeffs[m]
            if lead == 0:
                raise DomainError(
                    f"float compositional inverse overflows: f'(0)**{m} underflows to 0"
                )
            g.append(-s / lead)
        return TruncatedSeries(tuple(g))

    # -- transcendental (exact over rationals) ------------------------------

    def log(self) -> "TruncatedSeries":
        """log(f) for f(0) = 1, via integrating f'/f."""
        if self.coeffs[0] != 1:
            raise DomainError("log needs f(0) = 1")
        n = self.order
        h = (self.derivative() * self.truncate(n - 1).reciprocal()) if n >= 1 else None
        if n == 0:
            return TruncatedSeries((self._seed(0),))
        return h.truncate(n - 1).integrate()

    def exp(self) -> "TruncatedSeries":
        """exp(f) for f(0) = 0, by the convolution recurrence."""
        if self.coeffs[0] != 0:
            raise DomainError("exp needs f(0) = 0")
        n = self.order
        out = [self._seed(1)]
        for m in range(1, n + 1):
            s = sum((j * self.coeffs[j] * out[m - j] for j in range(1, m + 1)),
                    start=Fraction(0))
            out.append(s / m)
        return TruncatedSeries(tuple(out))

    def pow_scalar(self, w) -> "TruncatedSeries":
        """f**w as exp(w*log f); requires f(0) = 1.  Exact for rational w."""
        w = as_scalar(w)
        return (self.log() * w).exp()

    # -- evaluation / serialization -----------------------------------------

    def eval_at(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * z + float(c)
        return acc

    def to_json_dict(self) -> dict:
        cs = []
        for c in self.coeffs:
            if is_exact(c):
                cs.append({"num": str(c.numerator), "den": str(c.denominator)})
            else:
                cs.append(c)
        return {"order": self.order, "coeffs": cs}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedSeries":
        cs = []
        for c in d["coeffs"]:
            if isinstance(c, dict):
                cs.append(Fraction(int(c["num"]), int(c["den"])))
            else:
                cs.append(float(c))
        s = cls(tuple(cs))
        if s.order != d["order"]:
            raise DomainError("order field disagrees with coefficient count")
        return s


# -- generating functions ---------------------------------------------------


def raney_series(p: Scalar, r: Scalar, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Raney generating function: coefficient n is r/(n*p+r) * C(n*p+r, n).

    At r = 1 this is the Fuss series B with B = 1 + z*B**p: Catalan
    numbers at p = 2, 1+z at p = 0, the all-ones coefficients at p = 1.
    """
    return TruncatedSeries.from_function(lambda n: raney_number(p, r, n), order)


def binomial_series(p: Scalar, r: Scalar, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Moment generating series: coefficient n is C(n*p + r, n)."""
    return TruncatedSeries.from_function(lambda n: gen_binomial(p, r, n), order)


def binomial_series_via_fuss(p: Scalar, r: Scalar, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The binomial series assembled as B**(1+r) / (p - (p-1)*B).

    Independent of the direct coefficient formula; agreement with
    ``binomial_series`` is a structural identity of the family.
    """
    p = as_scalar(p)
    r = as_scalar(r)
    b = raney_series(p, 1, order)
    numer = b.pow_scalar(1 + r)
    denom = b * (1 - p) + p  # constant term p - (p-1)*1 = 1
    return numer * denom.reciprocal()


def fuss_functional_equation_holds(p: Scalar, order: int = DEFAULT_ORDER) -> bool:
    """Check B = 1 + z*B**p termwise (exact for rational p)."""
    b = raney_series(p, 1, order)
    rhs = (b.pow_scalar(p)).shift_up() + 1
    return b.coeffs == rhs.coeffs


def boundary_series_relations_hold(p: Scalar, order: int = DEFAULT_ORDER) -> bool:
    """Termwise checks tying the r = -1 and r = p-1 rows to the r = 0 row.

    D(p,-1) = 1/p + ((p-1)/p) * D(p,0)  and  D(p,p-1) = (D(p,0) - 1)/(p*z).
    Requires p != 0.
    """
    p = as_scalar(p)
    if p == 0:
        raise DomainError("relations need p != 0")
    d0 = binomial_series(p, 0, order)
    dm1 = binomial_series(p, -1, order)
    lhs1 = tuple((p - 1) / p * c for c in d0.coeffs)
    lhs1 = (lhs1[0] + Fraction(1) / p if is_exact(p) else lhs1[0] + 1.0 / p,) + lhs1[1:]
    if dm1.coeffs != lhs1:
        return False
    dtop = binomial_series(p, p - 1, order - 1)
    shifted = tuple(d0.coeffs[n + 1] / p for n in range(order))
    return dtop.coeffs == shifted


def lambert_composition_holds(p: Scalar, r: Scalar, order: int = DEFAULT_ORDER) -> bool:
    """Check B_{p-r}(z * B_p(z)**r) = B_p(z) termwise."""
    bp = raney_series(p, 1, order)
    inner = (bp.pow_scalar(r)).shift_up()
    lhs = raney_series(as_scalar(p) - as_scalar(r), 1, order).compose(inner)
    return lhs.coeffs == bp.coeffs


# -- elementary closed forms of the generating function ----------------------

CLOSED_FORM_P = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(3, 2),
)

_SQRT27 = math.sqrt(27.0)


def closed_form_radius(p: Scalar) -> float:
    """Convergence radius enforced by ``binomial_gf_closed_form``.

    The two p = 3 representations are exposed with the common conservative
    radius 4/27 (the coefficient growth (27/4)**n fixes the series radius).
    """
    p = Fraction(as_scalar(p))
    radii = {
        Fraction(0): 1.0,
        Fraction(1): 1.0,
        Fraction(-1): 0.25,
        Fraction(2): 0.25,
        Fraction(1, 2): 2.0,
        Fraction(3): 4.0 / 27.0,
        Fraction(3, 2): 2.0 / math.sqrt(27.0),
    }
    try:
        return radii[p]
    except KeyError:
        raise DomainError(f"no closed form for p = {p}") from None


def binomial_gf_closed_form(p: Scalar, r: Scalar, z: float) -> float:
    """Elementary evaluation of sum_n C(n*p+r, n) z**n for special p.

    Supported p: 0, 1, -1, 2, 1/2, 3, 3/2.  Raises DomainError outside the
    stated convergence radius.
    """
    p = Fraction(as_scalar(p))
    rf = float(as_scalar(r))
    z = float(z)
    if abs(z) >= closed_form_radius(p):
        raise DomainError(f"|z| = {abs(z)} outside radius for p = {p}")
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
    if p == Fraction(3, 2):
        beta = math.asin(3.0 * z * math.sqrt(3.0) / 2.0) / 3.0
        cb, sb = math.cos(beta), math.sin(beta)
        b32 = 3.0 / (math.sqrt(3.0) * cb - sb) ** 2
        return b32**rf / (cb * (cb - math.sqrt(3.0) * sb))
    raise DomainError(f"no closed form for p = {p}")


def gf_reflection_holds(p: Scalar, r: Scalar, order: int = DEFAULT_ORDER) -> bool:
    """Termwise check of D(p,r)(z) = D(1-p, -1-r)(-z)."""
    lhs = binomial_series(p, r, order)
    rhs = binomial_series(1 - as_scalar(p), -1 - as_scalar(r), order)
    return all(
        lhs.coeffs[n] == rhs.coeffs[n] * (-1) ** n for n in range(order + 1)
    )
