"""Truncated formal power series over exact rationals, and the generating
functions attached to the binomial moment family.

A ``TruncatedSeries`` stores coefficients 0..N and every operation is exact
modulo z**(N+1) whenever the coefficients involved are exact rationals;
real powers come from Miller's recurrence and the compositional inverse
from Lagrange inversion, so rational data never leaves the rationals.

Every operation runs on integers: each input series is read as integer
numerators over the lcm of its denominators, a float coefficient or
exponent by its exact dyadic value, the recurrence runs on those
numerators with the denominators tracked apart, and each output
coefficient is one integer over another.  When every input is exact it
becomes one ``Fraction``, reduced once; otherwise it is rounded once to
the nearest float, so a float result is the correctly rounded value of
the exact operation on the floats' values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable

from .core import (
    DomainError,
    Record,
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
    """Coefficients as (integer numerators, their common denominator).

    A float enters by its exact value; a nan or an infinity raises DomainError.
    """
    try:
        ratios = [c.as_integer_ratio() for c in coeffs]
    except (ValueError, OverflowError):
        raise DomainError(f"series operations need finite values: {coeffs}") from None
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _series(nums, dens, exact: bool) -> "TruncatedSeries":
    """The series of coefficients nums[m] / dens[m].

    Each is one reduced Fraction when ``exact``, else the nearest float:
    int true division rounds once, correctly.  The sign moves to the
    numerator first, so an exact zero is 0.0, as ``float(Fraction(0))``.
    """
    if exact:
        return TruncatedSeries(tuple(map(Fraction, nums, dens)))
    try:
        return TruncatedSeries(tuple(n / d if d > 0 else -n / -d for n, d in zip(nums, dens)))
    except OverflowError:
        raise DomainError("float series result overflows the float range") from None


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


class TruncatedSeries(Record):
    """Power series truncated at a fixed order, coefficients exact or float."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(as_scalar(c) for c in coeffs)
        if not coeffs:
            raise DomainError("series needs at least the constant coefficient")
        super().__init__(coeffs)

    # -- construction ------------------------------------------------------

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
            na, da = _numerators(a.coeffs)
            nb, db = _numerators(b.coeffs)
            return _series(_convolve(na, nb, n), repeat(da * db), a.is_exact() and b.is_exact())
        c = as_scalar(other)
        return TruncatedSeries(tuple(c * x for x in self.coeffs))

    __rmul__ = __mul__

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise DomainError("reciprocal needs f(0) != 0")
        # f = F/D: 1/f = D sum_m G_m z^m / F_0^(m+1) with G_0 = 1 and
        # G_m = -sum_j F_j F_0^(j-1) G_{m-j}
        nums, den = _numerators(self.coeffs)
        lead = nums[0]
        scaled = [c * lead ** (j - 1) for j, c in enumerate(nums[1:], 1)]
        g = [1]
        for m in range(1, self.order + 1):
            g.append(-sum(map(mul, scaled[:m], g[::-1])))
        return _series([den * c for c in g], [lead ** (m + 1) for m in range(len(g))],
                       self.is_exact())

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
        # Horner on integers with acc = A / (D_g * scale).  The value after
        # step i is later multiplied by f**i, which starts at z**i, so A
        # needs only entries 0..n-i.  Each step multiplies scale by the
        # inner denominator; dividing the content of (scale, A) out again
        # keeps the integers near the size of the result.
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
        return _series(acc, repeat(den * scale), g.is_exact() and f.is_exact())

    def shift_up(self) -> "TruncatedSeries":
        """Multiply by z (order fixed, top coefficient falls off)."""
        zero = Fraction(0) if self.is_exact() else 0.0
        return TruncatedSeries((zero,) + self.coeffs[:-1])

    def compositional_inverse(self) -> "TruncatedSeries":
        """Series g with g(self(z)) = z mod z^(N+1); needs f(0)=0, f'(0)!=0.

        Lagrange inversion: with h = f/(f'(0) z), which has h(0) = 1,
        g_m = [z^(m-1)] h^(-m) / (m f'(0)^m).
        """
        if self.coeffs[0] != 0:
            raise DomainError("compositional inverse needs f(0) = 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise DomainError("compositional inverse needs f'(0) != 0")
        # f = F/D, so h = H/F_1 with H_j = F_(j+1), and
        # [z^(m-1)] h^(-m) = e_(m-1) / (F_1^(m-1) (m-1)!) from _miller,
        # hence g_m = e_(m-1) D^m / (F_1^(2m-1) m!)
        nums, den = _numerators(self.coeffs)
        f1 = nums[1]
        q = [0] + [c * f1 ** (j - 1) for j, c in enumerate(nums[2:], 1)]
        tops, bottoms = [0], [1]
        for m in range(1, self.order + 1):
            tops.append(_miller(q, -m, 1, m - 1)[m - 1] * den**m)
            bottoms.append(f1 ** (2 * m - 1) * math.factorial(m))
        return _series(tops, bottoms, self.is_exact())

    def pow_scalar(self, w) -> "TruncatedSeries":
        """f**w for f(0) = 1; exact for an exact series and rational w.

        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g_0 = 1,
        g_m = (1/m) sum_{j=1..m} ((w+1) j - m) f_j g_{m-j}.
        """
        if self.coeffs[0] != 1:
            raise DomainError("pow_scalar needs f(0) = 1")
        w = as_scalar(w)
        nums, den = _numerators(self.coeffs)
        (a,), b = _numerators((w,))
        scale = den * b
        q = [0] + [c * scale ** (j - 1) for j, c in enumerate(nums[1:], 1)]
        e = _miller(q, a, b, self.order)
        fact = math.factorial(self.order)
        return _series(e, [scale**m * fact for m in range(len(e))],
                       is_exact(w) and self.is_exact())

    # -- evaluation / serialization -----------------------------------------

    def to_json_dict(self) -> dict:
        cs = []
        for c in self.coeffs:
            if is_exact(c):
                cs.append({"num": str(c.numerator), "den": str(c.denominator)})
            else:
                cs.append(c)
        return {"order": self.order, "coeffs": cs}


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
