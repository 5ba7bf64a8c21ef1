"""Moment-sequence transforms for noncommutative convolutions.

A law enters every transform as its moment generating series
sum_n m_n z^n, a ``TruncatedSeries`` with m_0 = 1, and every transform
returns one.  The contract of each transform is therefore a
coefficientwise identity modulo a fixed power of the formal variable
rather than any analytic statement.  Computations stay in exact rational
arithmetic whenever the inputs are exact.

The transforms: Boolean convolution power, monotonic convolution, the
S-transform with its inverse (carrying free multiplicative and additive
convolution powers), and dilation.  The paper's nine convolution
identities (Boolean and monotonic links between binomial and Raney rows,
the S-transform of the r = 0 row, binomial rows as free powers of a
Bernoulli law) are one table, ``_IDENTITIES``: each name maps to a
function of the order that yields (computed, expected) series pairs, and
``identity_suite`` turns every entry into a check with one comparison,
for the command line and the tests.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Tuple

from .core import DomainError, Scalar, as_scalar
from .series import TruncatedSeries, binomial_series, raney_series

__all__ = [
    "bernoulli_series",
    "boolean_power",
    "monotonic_convolve",
    "s_transform",
    "from_s_transform",
    "free_mult_power",
    "free_add_power",
    "dilate",
    "IdentityCheck",
    "identity_suite",
]


def bernoulli_series(alpha: Scalar, a: Scalar, order: int) -> TruncatedSeries:
    """Moment series of the two-point law alpha*delta_0 + (1-alpha)*delta_a."""
    alpha = as_scalar(alpha)
    a = as_scalar(a)
    if not 0 <= alpha <= 1:
        raise DomainError("weight must lie in [0, 1]")
    weight = 1 - alpha
    return TruncatedSeries((as_scalar(1),) + tuple(weight * a**n for n in range(1, order + 1)))


def _require_unit_mass(m: TruncatedSeries) -> None:
    # every transform takes the moment series of a (possibly signed)
    # probability law, whose total mass m_0 is 1
    if not m[0] == 1:
        raise DomainError("m_0 must equal 1")


# -- Boolean and monotonic convolution ---------------------------------------


def boolean_power(m: TruncatedSeries, u: Scalar) -> TruncatedSeries:
    """u-fold Boolean convolution power via M -> M/(u - (u-1)M).

    The quotient is a well-defined series for every u since the
    denominator has constant term 1.
    """
    _require_unit_mass(m)
    u = as_scalar(u)
    if not u > 0:
        raise DomainError("Boolean power needs u > 0")
    return m / (u - (u - 1) * m)


def monotonic_convolve(m1: TruncatedSeries, m2: TruncatedSeries) -> TruncatedSeries:
    """Monotonic convolution through M(z) = M_1(z*M_2(z)) * M_2(z)."""
    _require_unit_mass(m1)
    _require_unit_mass(m2)
    n = min(m1.order, m2.order)
    big1 = m1.truncate(n)
    big2 = m2.truncate(n)
    return big1.compose(big2.shift_up()) * big2


# -- the S-transform and its consequences -------------------------------------


def s_transform(m: TruncatedSeries) -> TruncatedSeries:
    """S-transform of a moment series with m_1 != 0; S(0) = 1/m_1.

    Writing psi = M - 1 and chi for the compositional inverse of psi,
    the transform is S(z) = chi(z)*(1+z)/z.  One order is consumed by
    the division, so the result has order one less than the input.
    """
    _require_unit_mass(m)
    if m.order < 1 or m[1] == 0:
        raise DomainError("S-transform needs a nonzero first moment")
    chi = (m - 1).compositional_inverse()
    shifted = TruncatedSeries(chi.coeffs[1:])
    return shifted * (TruncatedSeries.identity(shifted.order) + 1)


def from_s_transform(s: TruncatedSeries) -> TruncatedSeries:
    """Moment series whose S-transform is the given series.

    Exact inverse of ``s_transform`` modulo truncation: the returned
    series has order one more than the input series.
    """
    if s[0] == 0:
        raise DomainError("S-transform must not vanish at 0")
    n = s.order + 1
    top = TruncatedSeries((Fraction(0),) + s.coeffs)
    chi = top / (TruncatedSeries.identity(n) + 1)
    return chi.compositional_inverse() + 1


def _require_exponent(w: Scalar, what: str) -> Scalar:
    w = as_scalar(w)
    if not w > 0:
        raise DomainError(f"{what} needs a positive exponent")
    if w < 1:
        raise DomainError(f"{what} needs an exponent of at least 1")
    return w


def free_mult_power(m: TruncatedSeries, w: Scalar) -> TruncatedSeries:
    """w-fold free multiplicative convolution power, S -> S^w, for w >= 1.

    Non-integer exponents force the leading coefficient to float unless
    it equals 1.
    """
    w = _require_exponent(w, "free multiplicative power")
    s = s_transform(m)
    s0 = s[0]
    # Fraction ** Fraction is exact at an integer exponent, a float otherwise
    s0_power = as_scalar(1) if s0 == 1 else s0**w
    return from_s_transform((s / s0).pow_scalar(w) * s0_power)


def free_add_power(m: TruncatedSeries, t: Scalar) -> TruncatedSeries:
    """t-fold free additive convolution power, S(z) -> S(z/t)/t, for t >= 1."""
    t = _require_exponent(t, "free additive power")
    s = s_transform(m)
    scaled = TruncatedSeries(
        tuple(c / t ** (n + 1) for n, c in enumerate(s.coeffs))
    )
    return from_s_transform(scaled)


def dilate(m: TruncatedSeries, c: Scalar) -> TruncatedSeries:
    """Pushforward under x -> c*x: the n-th moment picks up c^n."""
    _require_unit_mass(m)
    c = as_scalar(c)
    if not c > 0:
        raise DomainError("dilation needs c > 0")
    return TruncatedSeries(tuple(c**n * mn for n, mn in enumerate(m.coeffs)))


# -- named convolution identities ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _identity_check() -> type:
    # IdentityCheck stays a dataclass, so dataclasses.replace works on the
    # suite's items, but is built on first use: importing dataclasses (and
    # the inspect it loads) would add to every command's start-up
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class IdentityCheck:
        """A named convolution identity with a zero-argument checker."""

        name: str
        run: Callable[[], bool]

    IdentityCheck.__qualname__ = "IdentityCheck"
    return IdentityCheck


def __getattr__(name: str):
    # PEP 562: ``freeconv.IdentityCheck`` and ``from ... import IdentityCheck``
    if name == "IdentityCheck":
        return _identity_check()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _rows_agree(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    n = min(a.order, b.order)
    return a.truncate(n).coeffs == b.truncate(n).coeffs


# each identity is a function of the order that yields its (computed,
# expected) series pairs one at a time, so a check stops computing at the
# first pair that disagrees


def _boolean_row(order: int):
    # binomial row r=0 equals the p-fold Boolean power of Raney r=1
    for p in (Fraction(2), Fraction(3), Fraction(5, 2)):
        yield boolean_power(raney_series(p, 1, order), p), binomial_series(p, 0, order)


def _raney_monotonic(order: int):
    # Raney(p, a) |> Raney(p+b, b) = Raney(p+b, a+b)
    for p, a, b in (
        (Fraction(2), Fraction(1), Fraction(1)),
        (Fraction(5, 2), Fraction(1, 2), Fraction(1)),
        (Fraction(3), Fraction(2), Fraction(3, 2)),
    ):
        got = monotonic_convolve(raney_series(p, a, order), raney_series(p + b, b, order))
        yield got, raney_series(p + b, a + b, order)


def _binomial_monotonic(order: int):
    # Binomial(p,0)^{Boolean (p+s)/p} |> Raney(p+s,s) = Binomial(p+s,s),
    # the diagonal transport of the binomial rows: boosting the Boolean
    # parameter of the r = 0 row from p to p+s and then convolving with
    # the Raney law at (p+s, s) lands on the binomial row at (p+s, s)
    for p, s in (
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(1, 2)),
        (Fraction(3, 2), Fraction(1, 2)),
    ):
        base = boolean_power(binomial_series(p, 0, order), (p + s) / p)
        got = monotonic_convolve(base, raney_series(p + s, s, order))
        yield got, binomial_series(p + s, s, order)


def _mixed_factorization(order: int):
    # Binomial(p, r) = Raney(p-r, 1)^{Boolean p} |> Raney(p, r)
    for p, r in ((Fraction(3), Fraction(1)), (Fraction(5, 2), Fraction(1, 2))):
        left = boolean_power(raney_series(p - r, 1, order), p)
        got = monotonic_convolve(left, raney_series(p, r, order))
        yield got, binomial_series(p, r, order)


def _nu0_s_reference(p: Fraction, order: int) -> TruncatedSeries:
    # closed form of the S-transform of the r = 0 binomial row:
    # (p-1)^(p-1)/p^p * ((p/(p-1) + z)/(1 + z))^(p-1),
    # rearranged as (1/p) * ((1 + (1-1/p)z)/(1 + z))^(p-1) so the base
    # series has unit constant term
    q = p - 1
    z = TruncatedSeries.identity(order)
    return ((z * (q / p) + 1) / (z + 1)).pow_scalar(q) / p


def _s_formula_row0(order: int):
    # closed form of the S-transform of the r=0 binomial row
    for p in (Fraction(2), Fraction(3)):
        got = s_transform(binomial_series(p, 0, order))
        yield got, _nu0_s_reference(p, got.order)


def _defining_relation(order: int):
    # M(z/(1+z) S(z)) = 1+z for computed S-transforms, coefficientwise
    for m in (
        raney_series(Fraction(2), 1, order),
        binomial_series(Fraction(3), 1, order),
        bernoulli_series(Fraction(1, 3), 2, order),
    ):
        s = s_transform(m)
        one_plus_z = TruncatedSeries.identity(s.order) + 1
        yield m.truncate(s.order).compose(s.shift_up() / one_plus_z), one_plus_z


def _bernoulli_mult(order: int):
    # binomial row (2,-1) as dilated free mult. square of the symmetric
    # two-point law
    bern = bernoulli_series(Fraction(1, 2), 1, order)
    yield dilate(free_mult_power(bern, 2), 4), binomial_series(Fraction(2), -1, order)


def _bernoulli_add(order: int):
    # binomial row (2,0), the arcsine law, as dilated free additive square
    # of the same two-point law
    bern = bernoulli_series(Fraction(1, 2), 1, order)
    yield dilate(free_add_power(bern, 2), 2), binomial_series(Fraction(2), 0, order)


def _bernoulli_general(order: int):
    # binomial row (3,0) from two-point law via additive and mult. powers:
    # the (1/3, 2/3) law, free additive power p/(p-1), then multiplicative
    # power p-1, then dilation by p
    p = Fraction(3)
    bern = bernoulli_series(1 / p, 1, order)
    boosted = free_mult_power(free_add_power(bern, p / (p - 1)), p - 1)
    yield dilate(boosted, p), binomial_series(p, 0, order)


#: name -> pairs(order), in the order ``conv-verify --all`` prints them
_IDENTITIES = {
    "boolean-row": _boolean_row,
    "raney-monotonic": _raney_monotonic,
    "binomial-monotonic": _binomial_monotonic,
    "mixed-factorization": _mixed_factorization,
    "s-formula-row0": _s_formula_row0,
    "defining-relation": _defining_relation,
    "bernoulli-mult": _bernoulli_mult,
    "bernoulli-add": _bernoulli_add,
    "bernoulli-general": _bernoulli_general,
}


def _holds(pairs: Callable, order: int) -> bool:
    return all(_rows_agree(a, b) for a, b in pairs(order))


def identity_suite(order: int = 12) -> Tuple[IdentityCheck, ...]:
    """The named convolution identities checked by tests and the CLI."""
    IdentityCheck = _identity_check()
    return tuple(IdentityCheck(name, functools.partial(_holds, pairs, order))
                 for name, pairs in _IDENTITIES.items())
