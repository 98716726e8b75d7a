"""Truncated exponential-generating-function arithmetic.

A series of order J represents sum_{j<=J} a_j z^j / j!.  Coefficients are
complex numbers with rational real/imaginary parts (:class:`QC`), so every
operation is exact.  All binary operations require equal truncation
orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb, gcd, lcm
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
        # a Fraction part is immutable, so it is kept rather than copied
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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
    da, ar, ai = numerators(a)
    db, br, bi = numerators(b)
    re, im = zip(*(_product(_binomials(j), j, j + 1, ar, ai, br, bi) for j in range(len(ar))))
    return _series(re, im, repeat(da * db))


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
    dens, ar, ai = _dilated(a)
    # lr[k], li[k]: the numerators of L_{k+1}
    lr, li = [], (None if ai is None else [])
    for j in range(a.order):
        re, im = _product(_binomials(j), j, j, lr, li, ar, ai)
        lr.append(ar[j + 1] - re)
        if li is not None:
            li.append(ai[j + 1] - im)
    return _series([0] + lr, li and [0] + li, dens)


def egf_exp(a: EGFSeries) -> EGFSeries:
    """Inverse of egf_log: series E with E_0 = 1, egf_log(E) = a; needs a_0 = 0."""
    if a.coeffs[0] != ZERO:
        raise DomainError("egf_exp needs constant coefficient 0")
    dens, ar, ai = _dilated(a)
    # E_{j+1} = sum_k C(j,k) a_{k+1} E_{j-k}, the coefficient form of E' = a' E
    xr, xi = ar[1:], ai and ai[1:]
    er, ei = [1], (None if ai is None else [0])
    for j in range(a.order):
        re, im = _product(_binomials(j), j, j + 1, xr, xi, er, ei)
        er.append(re)
        if ei is not None:
            ei.append(im)
    return _series(er, ei, dens)


# --- the integer kernel -----------------------------------------------------
#
# Series arithmetic runs on Python ints.  An operand enters as integer
# numerators over one common denominator (the layout of FLINT's
# fmpq_poly; log and exp use the powers c**j of one integer instead), a
# complex operand as two numerator vectors, and each output coefficient
# becomes a QC, reduced once, only at the end.


@lru_cache(maxsize=None)
def _binomials(j: int) -> tuple:
    """Row j of Pascal's triangle, built on first use."""
    return tuple(comb(j, k) for k in range(j + 1))


def numerators(a: EGFSeries):
    """(d, re, im) with a_j = (re[j] + i im[j]) / d over the lcm d of all denominators.

    ``im`` is None when every imaginary part is zero.
    """
    re = [v.re for v in a.coeffs]
    im = [v.im for v in a.coeffs]
    if not any(im):
        im = None
    d = lcm(*(q.denominator for q in re), *(q.denominator for q in im or ()))
    return d, _scaled(re, repeat(d)), im and _scaled(im, repeat(d))


def _dilated(a: EGFSeries):
    """(dens, re, im) with a_j = (re[j] + i im[j]) / dens[j], dens[j] = c**j, for a_0 of 0 or 1.

    These are the integer coefficients of a(c z), so a recursion over them
    (log, exp) never divides.  c grows one coefficient at a time, by just
    the factor that a_j's denominator still lacks in c**j: series whose
    denominators grow like d**j, as outputs of log, exp and powers do,
    keep c near d rather than near their lcm.  ``im`` is None when every
    imaginary part is zero.
    """
    c = 1
    for j, v in enumerate(a.coeffs[1:], 1):
        g = lcm(v.re.denominator, v.im.denominator)
        c *= g // gcd(g, pow(c, j, g))
    dens = [c**j for j in range(len(a.coeffs))]
    im = [v.im for v in a.coeffs]
    re = _scaled([v.re for v in a.coeffs], dens)
    return dens, re, (_scaled(im, dens) if any(im) else None)


def _scaled(parts, dens) -> list:
    """Numerators of the rationals ``parts`` over ``dens``, which each denominator divides."""
    return [q.numerator * (d // q.denominator) for q, d in zip(parts, dens)]


def _dot(row, x, y, j: int, stop: int) -> int:
    """sum_{k < stop} row[k] x[k] y[j-k] over ints, skipping zero terms."""
    return sum(row[k] * x[k] * y[j - k] for k in range(stop) if x[k] and y[j - k])


def _product(row, j: int, stop: int, xr, xi, yr, yi):
    """Numerators (re, im) of sum_{k < stop} row[k] x_k y_{j-k}; xi, yi None when zero."""
    re = _dot(row, xr, yr, j, stop)
    im = 0
    if xi is not None:
        im += _dot(row, xi, yr, j, stop)
        if yi is not None:
            re -= _dot(row, xi, yi, j, stop)
    if yi is not None:
        im += _dot(row, xr, yi, j, stop)
    return re, im


def _series(re, im, dens) -> EGFSeries:
    """The series with coefficients (re[j] + i im[j]) / dens[j]; im None when zero."""
    zero = ZERO.im  # shared, so a real coefficient builds one Fraction, not two
    return EGFSeries(
        tuple(
            QC(Fraction(r, d), Fraction(i, d) if i else zero)
            for r, i, d in zip(re, im or repeat(0), dens)
        )
    )
