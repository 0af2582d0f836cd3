"""Midpoint-radius arithmetic on top of mpmath.

BigRealWithError is a value together with a rigorous absolute error
radius. It is deliberately not a general interval library: it supports
exactly the operations the series and density code needs (exact
wrapping, multiplication, widening by a known tail bound, certified
leading digits) and propagates radii conservatively. The enclosure's
endpoints are read only as exact rationals (_exact_fraction), never as
rounded mpf values.

Radius bookkeeping: a product adds each incoming radius times the other
midpoint, and their cross term, charges one relative ulp for rounding
the new midpoint, and finally inflates the radius by (1 + 2^-16) so that
the floating-point evaluation of the radius expression itself can never
round the bound downward. mpmath's mpf has an unbounded exponent, so a
nonzero bound never flushes to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath as mp

from .arith import int_pair

__all__ = ["BigRealWithError"]


def _ulp_bound(x: mp.mpf) -> mp.mpf:
    # |round(x) - x| <= |x| * 2^(1-prec) at the working precision; this is
    # twice the true half-ulp bound, which keeps the charge safe when the
    # midpoint was produced by one rounded operation.
    if x == 0:
        return mp.mpf(0)
    return abs(x) * mp.ldexp(mp.mpf(1), 1 - mp.mp.prec)


def _pad(r: mp.mpf) -> mp.mpf:
    # inflate so the radius arithmetic's own rounding cannot shave the bound
    return r * (mp.mpf(1) + mp.ldexp(mp.mpf(1), -16))


@dataclass(frozen=True)
class BigRealWithError:
    """An mpf midpoint and an mpf radius bounding |true - value|."""

    value: mp.mpf
    err: mp.mpf

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error radius must be nonnegative")

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, x) -> "BigRealWithError":
        """Wrap a value, charging conversion rounding where it can occur.

        ints and Fractions wider than the working precision get a
        conversion-ulp charge; mpf and float inputs are taken at face
        value (their binary value is the value being wrapped).
        """
        if isinstance(x, BigRealWithError):
            return x
        if isinstance(x, int):
            m = mp.mpf(x)
            e = mp.mpf(0) if int(m) == x else _pad(_ulp_bound(m))
            return cls(m, e)
        if isinstance(x, Rational):
            num, den = x.numerator, x.denominator
            m = mp.mpf(num) / den
            # two rounded steps: <= 2 * 2^(1-prec) relative, covered below
            return cls(m, _pad(2 * _ulp_bound(m)))
        return cls(mp.mpf(x), mp.mpf(0))

    # -- accessors ----------------------------------------------------

    def widen(self, extra) -> "BigRealWithError":
        """Add a known extra error bound (e.g. a series tail) to the radius."""
        if isinstance(extra, Rational):
            e = mp.mpf(extra.numerator) / extra.denominator
            e = _pad(e + 2 * _ulp_bound(e))
        else:
            e = mp.mpf(extra)
        if e < 0:
            raise ValueError("cannot widen by a negative amount")
        return BigRealWithError(self.value, _pad(self.err + e))

    def leading_decimal(self, n: int) -> str:
        """The first n significant digits, truncated (never rounded up).

        Certified against the enclosure: raises if [value-err, value+err]
        does not pin down all n digits. Restricted to values >= 1, where
        significant digits and decimal places line up simply.
        """
        if n < 1:
            raise ValueError("need at least one digit")
        lo = _exact_fraction(self.value) - _exact_fraction(self.err)
        hi = _exact_fraction(self.value) + _exact_fraction(self.err)
        if lo < 1:
            raise ValueError("leading_decimal needs a value certified >= 1")
        k = len(str(int(lo)))
        if len(str(int(hi))) != k:
            raise ValueError("enclosure straddles a power of ten")
        scale = Fraction(10) ** (n - k)
        q_lo, q_hi = int(lo * scale), int(hi * scale)
        if q_lo != q_hi:
            raise ValueError(f"error radius leaves digit {n} ambiguous")
        s = str(q_lo)
        return s if n <= k else s[:k] + "." + s[k:]

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other) -> "BigRealWithError":
        o = BigRealWithError.exact(other)
        v = self.value * o.value
        r = (
            abs(self.value) * o.err
            + abs(o.value) * self.err
            + self.err * o.err
            + _ulp_bound(v)
        )
        return BigRealWithError(v, _pad(r))

    __rmul__ = __mul__


def _exact_fraction(x) -> Fraction:
    """The exact rational value of an mpf (mpf values are dyadic)."""
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    # the raw tuple, not mp.mpf(x), which would round an mpf that is
    # wider than the ambient precision
    man, exp = int_pair(x._mpf_)
    return Fraction(man) * Fraction(2) ** exp

