"""Truncated formal power series over exact rationals, and the generating
functions attached to the binomial moment family.

A ``TruncatedSeries`` stores coefficients 0..N and every operation is exact
modulo z**(N+1) whenever the coefficients involved are exact rationals;
real powers come from Miller's recurrence and the compositional inverse
from Lagrange inversion, so rational data never leaves the rationals.

Exact operations run on integers: each input series is read as integer
numerators over the lcm of its denominators, the recurrence runs on those
numerators with the denominators tracked apart, and each output
coefficient becomes one ``Fraction``, reduced once.  A series with a float
coefficient, or a float exponent, takes the ``Fraction``/float loops
instead, so float results keep their bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable

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
    "raney_series",
    "binomial_series",
]


# -- integer kernels --------------------------------------------------------


def _numerators(coeffs) -> tuple:
    """Exact coefficients as (integer numerators, their common denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of two integer sequences of length > n."""
    return [sum(map(mul, a[: m + 1], b[m::-1])) for m in range(n + 1)]


def _miller(q: list, a: int, b: int, order: int) -> list:
    """Integers e_0..e_order of (1 + sum_j f_j z^j)**(a/b) over one scale.

    For f_j = F_j/D and q_j = F_j (D b)**(j-1), Miller's recurrence
    m g_m = sum_j ((a/b + 1) j - m) f_j g_{m-j} becomes
    m e_m = sum_j ((a + b) j - m b) q_j e_{m-j} with
    g_m = e_m / ((D b)**m order!); e_0 = order! makes every e_m an integer,
    so the division by m is exact.
    """
    e = [math.factorial(order)]
    for m in range(1, order + 1):
        weights = [((a + b) * j - m * b) * q[j] for j in range(1, m + 1)]
        e.append(sum(map(mul, weights, e[::-1])) // m)
    return e


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
            if a.is_exact() and b.is_exact():
                na, da = _numerators(a.coeffs)
                nb, db = _numerators(b.coeffs)
                den = da * db
                return TruncatedSeries(tuple(Fraction(c, den) for c in _convolve(na, nb, n)))
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
        if self.is_exact():
            # f = F/D: 1/f = D sum_m G_m z^m / F_0^(m+1) with G_0 = 1 and
            # G_m = -sum_j F_j F_0^(j-1) G_{m-j}
            nums, den = _numerators(self.coeffs)
            lead = nums[0]
            scaled = [c * lead ** (j - 1) for j, c in enumerate(nums[1:], 1)]
            g = [1]
            for m in range(1, self.order + 1):
                g.append(-sum(map(mul, scaled[:m], g[::-1])))
            return TruncatedSeries(
                tuple(Fraction(den * c, lead ** (m + 1)) for m, c in enumerate(g))
            )
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

    # -- composition -------------------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); requires inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise DomainError("compose needs inner constant term 0")
        n = min(self.order, inner.order)
        g = self.truncate(n)
        f = inner.truncate(n)
        if g.is_exact() and f.is_exact():
            # Horner on integers with acc = A / (D_g * scale).  The value
            # after step i is later multiplied by f**i, which starts at z**i,
            # so A needs only entries 0..n-i.  Each step multiplies scale by
            # the inner denominator; dividing the content of (scale, A) out
            # again keeps the integers near the size of the result.
            outer, den = _numerators(g.coeffs)
            nums, inner_den = _numerators(f.coeffs)
            acc, scale = [outer[n]], 1
            for i in range(n - 1, -1, -1):
                acc.append(0)
                acc = _convolve(acc, nums, n - i)
                scale *= inner_den
                acc[0] += outer[i] * scale
                common = math.gcd(scale, *acc)
                if common > 1:
                    acc = [x // common for x in acc]
                    scale //= common
            den *= scale
            return TruncatedSeries(tuple(Fraction(c, den) for c in acc))
        acc = TruncatedSeries.constant(g.coeffs[n], n)
        for i in range(n - 1, -1, -1):
            acc = acc * f + g.coeffs[i]
        return acc

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z (order fixed, top coefficient falls off)."""
        return TruncatedSeries((self._seed(0),) + self.coeffs[:-1])

    def compositional_inverse(self) -> "TruncatedSeries":
        """Series g with g(self(z)) = z mod z^(N+1); needs f(0)=0, f'(0)!=0.

        Lagrange inversion: with h = f/(f'(0) z), which has h(0) = 1,
        g_m = [z^(m-1)] h^(-m) / (m f'(0)^m).
        """
        if self.coeffs[0] != 0:
            raise DomainError("compositional inverse needs f(0) = 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise DomainError("compositional inverse needs f'(0) != 0")
        if self.is_exact():
            # f = F/D, so h = H/F_1 with H_j = F_(j+1), and
            # [z^(m-1)] h^(-m) = e_(m-1) / (F_1^(m-1) (m-1)!) from _miller,
            # hence g_m = e_(m-1) D^m / (F_1^(2m-1) m!)
            nums, den = _numerators(self.coeffs)
            f1 = nums[1]
            q = [0] + [c * f1 ** (j - 1) for j, c in enumerate(nums[2:], 1)]
            g = [Fraction(0)]
            for m in range(1, self.order + 1):
                top = _miller(q, -m, 1, m - 1)[m - 1]
                g.append(Fraction(top * den**m, f1 ** (2 * m - 1) * math.factorial(m)))
            return TruncatedSeries(tuple(g))
        f1 = self.coeffs[1]
        h = TruncatedSeries(self.coeffs[1:]) / f1
        g = [self._seed(0)]
        for m in range(1, self.order + 1):
            # f1**m is nonzero for exact f1, but a float f1**m can underflow
            # to 0.0, where the inverse's g_m overflows
            lead = f1**m
            if lead == 0:
                raise DomainError(
                    f"float compositional inverse overflows: f'(0)**{m} underflows to 0"
                )
            g.append(h.truncate(m - 1).pow_scalar(-m)[m - 1] / (m * lead))
        return TruncatedSeries(tuple(g))

    def pow_scalar(self, w) -> "TruncatedSeries":
        """f**w for f(0) = 1; exact for an exact series and rational w.

        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g_0 = 1,
        g_m = (1/m) sum_{j=1..m} ((w+1) j - m) f_j g_{m-j}.
        """
        if self.coeffs[0] != 1:
            raise DomainError("pow_scalar needs f(0) = 1")
        w = as_scalar(w)
        if is_exact(w) and self.is_exact():
            nums, den = _numerators(self.coeffs)
            a, b = w.numerator, w.denominator
            scale = den * b
            q = [0] + [c * scale ** (j - 1) for j, c in enumerate(nums[1:], 1)]
            e = _miller(q, a, b, self.order)
            fact = math.factorial(self.order)
            return TruncatedSeries(
                tuple(Fraction(c, scale**m * fact) for m, c in enumerate(e))
            )
        w1 = w + 1
        f = self.coeffs
        # g_0 takes the type of the rest: float unless f and w are both exact
        g = [self._seed(1) if is_exact(w) else 1.0]
        for m in range(1, self.order + 1):
            s = sum(((w1 * j - m) * f[j] * g[m - j] for j in range(1, m + 1)),
                    start=Fraction(0))
            g.append(s / m)
        return TruncatedSeries(tuple(g))

    # -- evaluation / serialization -----------------------------------------

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


def raney_series(p: Scalar, r: Scalar, order: int) -> TruncatedSeries:
    """Raney generating function: coefficient n is r/(n*p+r) * C(n*p+r, n).

    At r = 1 this is the Fuss series B with B = 1 + z*B**p: Catalan
    numbers at p = 2, 1+z at p = 0, the all-ones coefficients at p = 1.
    """
    return TruncatedSeries.from_function(lambda n: raney_number(p, r, n), order)


def binomial_series(p: Scalar, r: Scalar, order: int) -> TruncatedSeries:
    """Moment generating series: coefficient n is C(n*p + r, n)."""
    return TruncatedSeries.from_function(lambda n: gen_binomial(p, r, n), order)
