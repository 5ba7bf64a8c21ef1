"""Scalar arithmetic and parameter handling for generalized binomial moment sequences.

Exact rationals ride on ``fractions.Fraction``; floats are kept apart and mixed
arithmetic promotes to float.  This module provides the generalized binomial
coefficient C(n*p + r, n) and the Raney companion r/(n*p+r)*C(n*p+r, n), both
from one falling-factorial kernel, the support endpoint p**p*(p-1)**(1-p), and
the positive-definiteness region classifiers.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

Scalar = Union[Fraction, float]

__all__ = [
    "Scalar",
    "DomainError",
    "RegionError",
    "InconclusiveWitnessError",
    "as_scalar",
    "is_exact",
    "parse_scalar",
    "comparable",
    "Record",
    "Params",
    "Branch",
    "RegionVerdict",
    "support_endpoint",
    "gen_binomial",
    "raney_number",
    "classify_binomial",
    "binomial_band",
    "classify_raney",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class RegionError(ValueError):
    """Parameter pair outside the region an operation requires."""


class InconclusiveWitnessError(RuntimeError):
    """The witness search exhausted its budget without a certificate."""


def as_scalar(x) -> Scalar:
    """Normalize ints and rationals to Fraction; floats stay floats."""
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"not a scalar: {x!r}")


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


_EXACT_DECIMAL_RE = re.compile(r"^[+-]?\d+(\.\d{0,6})?$")


def parse_scalar(text: str) -> Scalar:
    """Parse a command-line scalar.

    'k/l' fractions and decimal literals with at most six fractional digits
    are exact; longer decimals and exponent notation fall back to float.
    A zero denominator or a non-finite float (nan, inf, 1e400) raises
    ValueError.
    """
    s = text.strip()
    if "/" in s or _EXACT_DECIMAL_RE.match(s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


#: Largest denominator tried when lifting a float back to a rational for
#: region comparisons.
RECONSTRUCT_DEN_LIMIT = 10**6


def comparable(x: Scalar) -> Scalar:
    """Value used in region comparisons.

    A float that round-trips through a fraction with denominator at most
    ``RECONSTRUCT_DEN_LIMIT`` is compared through that fraction, so 0.75
    lands exactly on 3/4.  Other floats compare as they are.
    """
    if is_exact(x):
        return Fraction(x)
    cand = Fraction(x).limit_denominator(RECONSTRUCT_DEN_LIMIT)
    return cand if float(cand) == x else x


class Record:
    """Immutable value declared by the field names in ``_fields``, and built,
    compared, hashed and shown by them, as a frozen dataclass is, without
    importing ``dataclasses``.

    Fields are given by position or by name, each once, or TypeError is
    raised.  Equal only to an instance of the same class; the hash is that
    of the tuple of field values; assigning or deleting an attribute raises
    AttributeError.  A subclass that converts or checks its arguments does
    so in its own ``__init__`` and then calls ``super().__init__``.
    """

    _fields: Tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{self.__class__.__qualname__} takes the fields "
                            f"{', '.join(names)} once each, by position or by name")
        vars(self).update(zip(names, args), **kwargs)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Params(Record):
    """Measure parameters: p = k/l exact and in lowest terms, r exact or float."""

    _fields = ("p", "r")

    def __init__(self, p, r):
        super().__init__(Fraction(p), as_scalar(r))

    @property
    def k(self) -> int:
        return self.p.numerator

    @property
    def l(self) -> int:
        return self.p.denominator


#: Largest k of an exact p = k/l that ``support_endpoint`` takes, and so the
#: densities and samplers, which ask for it before they loop over k.
MAX_K = 128


def support_endpoint(p: Scalar) -> Scalar:
    """Right endpoint p**p * (p-1)**(1-p) of the absolutely continuous support.

    Defined for p > 1, and for exact p = k/l up to k = MAX_K.  Exact rational
    when p is an integer, float otherwise: p (p/(p-1))**(p-1) where the
    powers leave the float range.
    """
    p = as_scalar(p)
    if not p > 1:
        raise DomainError("support endpoint requires p > 1")
    if is_exact(p) and p.numerator > MAX_K:
        raise DomainError(f"p = k/l needs k <= {MAX_K}")
    if is_exact(p) and p.denominator == 1:
        k = p.numerator
        return Fraction(k**k, (k - 1) ** (k - 1))
    pf = float(p)
    try:
        return pf**pf * (pf - 1.0) ** (1.0 - pf)
    except OverflowError:
        return pf * math.exp((pf - 1.0) * math.log1p(1.0 / (pf - 1.0)))


def _float_quotient(factors, n: int) -> float:
    # each float factor is lifted to its exact rational, the product and the
    # division by n! run on integers, and the quotient is rounded once
    num, den = 1, math.factorial(n)
    for f in factors:
        a, b = f.as_integer_ratio()
        num *= a
        den *= b
    return num / den


def _falling_quotient(p: Scalar, r: Scalar, n: int, raney: bool) -> Scalar:
    # lead * prod_{j=1}^{n-1} (n*p + r - j) / n!, with lead = n*p + r for the
    # binomial and lead = r for the Raney number; 1 at n = 0
    if n < 0:
        raise DomainError("n must be nonnegative")
    p = as_scalar(p)
    r = as_scalar(r)
    exact = is_exact(p) and is_exact(r)
    if n == 0:
        return Fraction(1) if exact else 1.0
    try:
        top = p * n + r
        lead = r if raney else top
        if exact:
            t, q = top.numerator, top.denominator
            num = lead.numerator * math.prod(t - j * q for j in range(1, n))
            return Fraction(num, lead.denominator * q ** (n - 1) * math.factorial(n))
        return _float_quotient([lead] + [top - j for j in range(1, n)], n)
    except OverflowError:
        what = "Raney number" if raney else "C(n*p + r, n)"
        raise DomainError(f"{what} at n = {n} exceeds the float range") from None


def gen_binomial(p: Scalar, r: Scalar, n: int) -> Scalar:
    """Generalized binomial coefficient C(n*p + r, n) via the falling factorial.

    Exact for exact inputs: with n*p + r = t/q the falling factorial is
    prod_j (t - j*q) / q**n, an integer product divided once by q**n * n!.
    Float inputs are lifted factor-by-factor to exact rationals, the product
    is carried exactly, and a single rounding happens on return, so drift
    stays at one ulp regardless of n; a value past the float range raises
    DomainError.
    """
    return _falling_quotient(p, r, n, raney=False)


def raney_number(p: Scalar, r: Scalar, n: int) -> Scalar:
    """Raney number r/(n*p+r) * C(n*p+r, n) in the cancelled form.

    Computed as r * prod_{j=1}^{n-1} (n*p+r-j) / n!, which stays finite when
    n*p + r = 0 (there the binomial vanishes and the quotient is taken in its
    cancelled form).  Equals 1 at n = 0 and the delta-at-zero sequence for r = 0.
    The same kernel as ``gen_binomial`` with r in place of the factor n*p + r:
    one integer product and one division for exact inputs, one rounding for
    float inputs.
    """
    return _falling_quotient(p, r, n, raney=True)


class Branch(Enum):
    MAIN = "MainBranch"
    REFLECTED = "ReflectedBranch"
    RANEY_ZERO = "RaneyZero"
    OUTSIDE = "Outside"


class RegionVerdict(Record):
    _fields = ("positive_definite", "branch")  # bool, Branch


def classify_binomial(p: Scalar, r: Scalar) -> RegionVerdict:
    """Positive-definiteness verdict for the sequence C(n*p + r, n).

    Positive definite exactly on the two closed bands
    p >= 1, -1 <= r <= p-1 (main) and p <= 0, p-1 <= r <= 0 (reflected).
    """
    pc, rc = comparable(as_scalar(p)), comparable(as_scalar(r))
    band = binomial_band(pc)
    if band is not None and band[1] <= rc <= band[2]:
        return band[0]
    return _OUTSIDE


_MAIN = RegionVerdict(True, Branch.MAIN)
_REFLECTED = RegionVerdict(True, Branch.REFLECTED)
_OUTSIDE = RegionVerdict(False, Branch.OUTSIDE)


def binomial_band(pc: Scalar) -> Optional[Tuple[RegionVerdict, Scalar, Scalar]]:
    """(verdict, lo, hi): on the line p = pc, a value already passed through
    ``comparable``, the sequence is positive definite exactly at lo <= r <= hi.
    None where no r is.  Grid callers bisect a whole line with it."""
    if pc >= 1:
        return _MAIN, -1, pc - 1
    if pc <= 0:
        return _REFLECTED, pc - 1, 0
    return None


def classify_raney(p: Scalar, r: Scalar) -> RegionVerdict:
    """Positive-definiteness verdict for r/(n*p+r) * C(n*p+r, n).

    Positive definite on p >= 1, 0 <= r <= p (main), on p <= 0,
    p-1 <= r <= 0 (reflected), and on the whole line r = 0 (point mass at 0).
    """
    pc = comparable(as_scalar(p))
    rc = comparable(as_scalar(r))
    if pc >= 1 and 0 <= rc <= pc:
        return RegionVerdict(True, Branch.MAIN)
    if pc <= 0 and pc - 1 <= rc <= 0:
        return RegionVerdict(True, Branch.REFLECTED)
    if rc == 0:
        return RegionVerdict(True, Branch.RANEY_ZERO)
    return RegionVerdict(False, Branch.OUTSIDE)
