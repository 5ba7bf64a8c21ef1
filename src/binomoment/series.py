"""Truncated formal power series over exact rationals, and the generating
functions attached to the binomial moment family.

A ``TruncatedSeries`` stores coefficients 0..N and every operation is exact
modulo z**(N+1) whenever the coefficients involved are exact rationals;
real powers come from Miller's recurrence and the compositional inverse
from Lagrange inversion, so rational data never leaves the rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        """Series g with g(self(z)) = z mod z^(N+1); needs f(0)=0, f'(0)!=0.

        Lagrange inversion: with h = f/(f'(0) z), which has h(0) = 1,
        g_m = [z^(m-1)] h^(-m) / (m f'(0)^m).
        """
        if self.coeffs[0] != 0:
            raise DomainError("compositional inverse needs f(0) = 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise DomainError("compositional inverse needs f'(0) != 0")
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
