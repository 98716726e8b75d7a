"""Truncated exponential-generating-function arithmetic.

A series of order J represents sum_{j<=J} a_j z^j / j!.  Coefficients are
complex numbers with rational real/imaginary parts (:class:`QC`), so every
operation is exact.  All binary operations require equal truncation
orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from numbers import Rational


class SeriesMismatchError(ValueError):
    """Order mismatch between series operands."""


class DomainError(ValueError):
    """Operand outside an operation's domain (e.g. log of a_0 != 1)."""


class QC:
    """Complex scalar with exact rational real and imaginary parts.

    Fraction keeps both parts normalized (gcd 1, positive denominator).
    Arithmetic accepts int/Fraction on either side; floats and complex
    are rejected so that inexact values cannot enter silently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QC is immutable")

    @classmethod
    def of(cls, value) -> "QC":
        if isinstance(value, QC):
            return value
        if isinstance(value, Rational):
            return cls(value)
        raise TypeError(f"cannot build exact scalar from {type(value).__name__}")

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise DomainError(f"{self!r} has a nonzero imaginary part")
        return self.re

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        if isinstance(other, Rational):
            return QC(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QC, Rational)):
            return self + (-other if isinstance(other, QC) else QC(-other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Rational):
            return QC(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, QC):
            return QC(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, Rational):
            return QC(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return QC(self.re / other, self.im / other)
        if isinstance(other, QC):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by zero scalar")
            return (self * other.conjugate()) / d
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        if isinstance(other, Rational):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __float__(self):
        return float(self.as_fraction())

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


ZERO = QC(0)
ONE = QC(1)


@dataclass(frozen=True)
class EGFSeries:
    """Truncated EGF: coeffs (a_0..a_J) for sum a_j z^j/j!."""

    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", tuple(QC.of(v) for v in self.coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int):
        return self.coeffs[j]

    def __mul__(self, other):
        if isinstance(other, EGFSeries):
            return egf_mul(self, other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, EGFSeries):
            return egf_add(self, other)
        return NotImplemented


def egf_zero(order: int) -> EGFSeries:
    return EGFSeries((0,) * (order + 1))


def egf_one(order: int) -> EGFSeries:
    return EGFSeries((1,) + (0,) * order)


def _check_compatible(a: EGFSeries, b: EGFSeries):
    if a.order != b.order:
        raise SeriesMismatchError(f"order mismatch: {a.order} vs {b.order}")


def egf_add(a: EGFSeries, b: EGFSeries) -> EGFSeries:
    _check_compatible(a, b)
    return EGFSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def egf_scale(a: EGFSeries, c) -> EGFSeries:
    """Multiply every coefficient by the exact scalar c."""
    c = QC.of(c)
    return EGFSeries(tuple(c * x for x in a.coeffs))


def egf_mul(a: EGFSeries, b: EGFSeries) -> EGFSeries:
    """Binomial convolution: c_j = sum_k C(j,k) a_k b_{j-k}.

    This is the product of the underlying functions, truncated at the
    common order; with moment sequences as inputs it multiplies MGFs.
    """
    _check_compatible(a, b)
    av, bv = a.coeffs, b.coeffs
    out = []
    for j in range(a.order + 1):
        acc = av[0] * bv[j]
        for k in range(1, j + 1):
            acc = acc + comb(j, k) * (av[k] * bv[j - k])
        out.append(acc)
    return EGFSeries(tuple(out))


def egf_pow(a: EGFSeries, n: int) -> EGFSeries:
    """n-fold egf_mul; egf_pow(a, 0) is the series of e^0."""
    if n < 0:
        raise DomainError("negative powers are not defined for truncated EGFs")
    result = egf_one(a.order)
    base = a
    while n:
        if n & 1:
            result = egf_mul(result, base)
        n >>= 1
        if n:
            base = egf_mul(base, base)
    return result


def egf_log(a: EGFSeries) -> EGFSeries:
    """Series L with L_0 = 0 and egf_exp(L) = a, requiring a_0 = 1.

    Solves a_{j+1} = sum_k C(j,k) L_{k+1} a_{j-k} for L_{j+1}, which is
    the coefficient form of a' = L' a.
    """
    if a.coeffs[0] != ONE:
        raise DomainError("egf_log needs constant coefficient 1")
    av = a.coeffs
    lv = [ZERO]
    for j in range(a.order):
        acc = av[j + 1]
        for k in range(j):
            acc = acc - comb(j, k) * (lv[k + 1] * av[j - k])
        lv.append(acc)
    return EGFSeries(tuple(lv))


def egf_exp(a: EGFSeries) -> EGFSeries:
    """Inverse of egf_log: series E with E_0 = 1, egf_log(E) = a; needs a_0 = 0."""
    if a.coeffs[0] != ZERO:
        raise DomainError("egf_exp needs constant coefficient 0")
    av = a.coeffs
    ev = [ONE]
    for j in range(a.order):
        acc = av[1] * ev[j]
        for k in range(1, j + 1):
            acc = acc + comb(j, k) * (av[k + 1] * ev[j - k])
        ev.append(acc)
    return EGFSeries(tuple(ev))
