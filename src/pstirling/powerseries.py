"""Truncated exponential-generating-function arithmetic.

A series of order J represents sum_{j<=J} a_j z^j / j!.  Coefficients are
complex numbers with rational real/imaginary parts, stored as integer
numerators over one denominator, so every operation is exact.  A value
leaves a series as a :class:`QC`, either one coefficient (``s[j]``) or an
integer combination of series (``egf_combination``).  Every product
multiplies by the binomial-weighted rows of its right operand, which a
series builds the first time it is one and keeps, so that a series that
several products share, such as the base of a ladder of powers, builds
them once.
All binary operations require equal truncation orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from numbers import Rational
from operator import add, attrgetter, mul, or_


class SeriesMismatchError(ValueError):
    """Order mismatch between series operands."""


class DomainError(ValueError):
    """Operand outside an operation's domain (e.g. log of a_0 != 1)."""


def exact_rational(value) -> Fraction:
    """An int or other Rational as a Fraction; a float, complex or str raises TypeError."""
    if type(value) is int or isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"cannot build exact scalar from {type(value).__name__}")


class Record:
    """Base of the package's immutable value classes, whose fields are their ``__slots__``.

    A slot named ``_...`` is a cache, not a field; a class that declares no
    fields has its parent's.  A subclass's ``__init__`` sets the fields
    once, with ``_init``; assigning or deleting one afterwards raises
    AttributeError.  Values of one class are equal, and hash alike, when
    their fields are equal; a value of another class never compares equal.
    QC, the one scalar, keeps its own equality and hash, under which QC(2) == 2.
    A copy or a pickle (``__reduce__``) rebuilds the value from its fields
    through its class, so it is checked again and carries no cache; a
    subclass's ``__init__`` therefore takes its fields in their slot order.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")
        if names:
            # one C-level getter of the fields, as a tuple; every class with fields has two or more
            cls._names, cls._getter = names, staticmethod(attrgetter(*names))

    def _init(self, *values):
        for name, value in zip(self._names, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._getter(self) == other._getter(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._getter(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._getter(self)


class QC(Record):
    """Complex scalar with exact rational real and imaginary parts.

    Fraction keeps both parts normalized (gcd 1, positive denominator).
    Construction and arithmetic accept int/Fraction; floats, complex and
    strings are rejected (TypeError) so that inexact values cannot enter
    silently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction part is immutable, so it is kept rather than copied; the parts are
        # set directly, not through Record._init, as QC arithmetic builds one per operation
        # (read-outs build theirs in qc_from_numerators, which skips this check)
        object.__setattr__(self, "re", re if type(re) is Fraction else exact_rational(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else exact_rational(im))

    @classmethod
    def of(cls, value) -> "QC":
        return value if isinstance(value, QC) else cls(value)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise DomainError(f"{self!r} has a nonzero imaginary part")
        return self.re

    def __add__(self, other):
        if isinstance(other, QC):
            return QC(self.re + other.re, self.im + other.im)
        if isinstance(other, Rational):
            return QC(self.re + other, self.im)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, (QC, Rational)):
            return self + (-other if isinstance(other, QC) else QC(-other))
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

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


_ZERO = Fraction(0)  # every zero part a series reads out, as a Fraction is immutable
# the read-out's unchecked constructor: a bare QC and the setters of its two slots
_new, _set_re, _set_im = object.__new__, QC.re.__set__, QC.im.__set__


class EGFSeries(Record):
    """Truncated EGF sum_{j<=J} a_j z^j / j! with a_j = (re[j] + i im[j]) / den.

    ``re`` and ``im`` are tuples of ints over one denominator, the layout
    of FLINT's fmpq_poly.  The form is canonical: den > 0,
    gcd(den, *re, *im) == 1, and ``im`` is None exactly when every a_j is
    real.  So den is the lcm of the coefficients' reduced denominators, and
    equal series have equal fields.  ``s[j]`` and ``coeffs`` build QC
    values when read.  The hash of the fields is computed once, on first
    use, and kept in the cache slot ``_hash``, so a cache keyed by a
    series costs one tuple hash per series, not one per lookup.
    """

    # int, tuple of ints, tuple of ints or None; then the caches of _operand_rows and __hash__
    __slots__ = ("den", "re", "im", "_operand", "_hash")

    def __init__(self, coeffs):
        values = [QC.of(v) for v in coeffs]
        if not values:
            raise ValueError("series needs at least the order-0 coefficient")
        parts = [v.re for v in values] + [v.im for v in values]
        den = lcm(*(q.denominator for q in parts))
        nums = [q.numerator * (den // q.denominator) for q in parts]
        _canonical(self, den, nums[: len(values)], nums[len(values) :])

    @property
    def order(self) -> int:
        return len(self.re) - 1

    @property
    def is_real(self) -> bool:
        return self.im is None

    @property
    def coeffs(self) -> tuple:
        return tuple(self[j] for j in range(len(self.re)))

    def __getitem__(self, j: int) -> QC:
        return qc_from_numerators(self.den, self.re[j], self.im[j] if self.im else 0)

    @classmethod
    def from_numerators(cls, den: int, re, im):
        """The series with coefficients (re[j] + i im[j]) / den, den > 0; im None when zero."""
        return _canonical(object.__new__(cls), den, re, im)

    def _check(self) -> None:
        """Raise DomainError unless the canonical fields meet the class's own conditions."""

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._getter(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self).from_numerators, (self.den, self.re, self.im)


def _canonical(s: EGFSeries, den: int, re, im) -> EGFSeries:
    """Store (re[j] + i im[j]) / den in s, reduced to the canonical form, and check it; den > 0."""
    if not any(im or ()):
        im = None
    g = gcd(den, *re, *(im or ()))
    object.__setattr__(s, "den", den // g)
    object.__setattr__(s, "re", tuple(x // g for x in re))
    object.__setattr__(s, "im", im and tuple(x // g for x in im))
    object.__setattr__(s, "_operand", None)
    object.__setattr__(s, "_hash", None)
    s._check()
    return s


def egf_one(order: int) -> EGFSeries:
    return EGFSeries.from_numerators(1, (1,) + (0,) * order, None)


def _check_compatible(a: EGFSeries, b: EGFSeries):
    if a.order != b.order:
        raise SeriesMismatchError(f"order mismatch: {a.order} vs {b.order}")


def egf_mul(a: EGFSeries, b: EGFSeries, den: int = 1) -> EGFSeries:
    """Binomial convolution over den > 0: c_j = sum_k C(j,k) a_k b_{j-k} / den.

    This is the product of the underlying functions, truncated at the
    common order; with moment sequences as inputs it multiplies MGFs.
    b keeps the rows that its first product as a right operand builds,
    for as long as b lives, so later products by b build none.  den
    scales the result within its one reduction.
    """
    _check_compatible(a, b)
    vb, rows = _operand_rows(b)
    va = _valuation(a)
    # c_j is 0 for j < va + vb; otherwise only the k in [va, j - vb] can contribute
    n = len(a.re)
    xr, xi = a.re[va:], a.im and a.im[va:]
    re, im = [0] * n, [0] * n
    for j, (wr, wi) in enumerate(rows[va:], va + vb):
        re[j], im[j] = _product(xr, xi, wr[va:], wi and wi[va:])
    return EGFSeries.from_numerators(a.den * b.den * den, re, im)


def egf_pow(a: EGFSeries, n: int) -> EGFSeries:
    """n-fold egf_mul; egf_pow(a, 0) is the series of e^0."""
    if n < 0:
        raise DomainError("negative powers are not defined for truncated EGFs")
    result = egf_one(a.order)
    base = EGFSeries.from_numerators(a.den, a.re, a.im)  # a copy, so that a keeps no rows
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
    the coefficient form of a' = L' a, over one denominator that grows to
    the lcm of the L_k's own (``_append``).
    """
    if a[0] != 1:
        raise DomainError("egf_log needs constant coefficient 1")
    ar, ai = a.re, a.im
    # lr[k], li[k]: the numerators of L_{k+1} over den; row j's k = j term, a_0, meets no L
    lr, li, den = [], (None if ai is None else []), 1
    for j, (wr, wi) in zip(range(a.order), _rows(ar, ai, 0, ai is not None)):
        # L_{j+1} = a_{j+1} - (re + i im) / (den a.den)
        re, im = _product(lr, li, wr, wi)
        im = 0 if li is None else ai[j + 1] * den - im
        den = _append(lr, li, den, ar[j + 1] * den - re, im, den * a.den)
    return EGFSeries.from_numerators(den, [0] + lr, li and [0] + li)


def egf_exp(a: EGFSeries) -> EGFSeries:
    """Inverse of egf_log, over one growing denominator: E_0 = 1, egf_log(E) = a; needs a_0 = 0."""
    if a[0] != 0:
        raise DomainError("egf_exp needs constant coefficient 0")
    ai = a.im
    # E_{j+1} = sum_k C(j,k) E_k a_{j+1-k}, the coefficient form of E' = a' E:
    # row j of the series a_1, a_2, ...
    er, ei, den = [1], (None if ai is None else [0]), 1
    for wr, wi in _rows(a.re[1:], ai and ai[1:], 0, ai is not None):
        re, im = _product(er, ei, wr, wi)
        den = _append(er, ei, den, re, im, den * a.den)
    return EGFSeries.from_numerators(den, er, ei)


def egf_combination(series, weights, j: int, den: int = 1) -> QC:
    """sum_i weights[i] series[i][j] / den as one QC, for int weights and den > 0.

    The terms meet over the lcm of the series' denominators as Python
    ints, real and imaginary parts apart; only coefficient j is read.
    """
    d = lcm(*(s.den for s in series))
    re = im = 0
    for s, w in zip(series, weights, strict=True):
        c = w * (d // s.den)
        re += c * s.re[j]
        if s.im is not None:
            im += c * s.im[j]
    return qc_from_numerators(d * den, re, im)


def qc_from_numerators(den: int, re: int, im: int) -> QC:
    """(re + i im) / den as one QC, den > 0; a zero part is the shared zero, which costs no gcd.

    The parts are Fractions built here, so the QC is made without QC.__init__,
    whose check is for a caller's values: its two slots are set directly.
    """
    q = _new(QC)
    _set_re(q, Fraction(re, den) if re else _ZERO)
    _set_im(q, Fraction(im, den) if im else _ZERO)
    return q


def egf_lincomb(series, weights, den: int = 1) -> EGFSeries:
    """sum_i weights[i] series[i] / den as one series, for int weights, den > 0 and equal orders.

    The series meet over the lcm of their denominators; numerator j is one
    C-level dot product of the weights with the series' numerators j.
    """
    d = lcm(*(s.den for s in series))
    scaled = [w * (d // s.den) for s, w in zip(series, weights, strict=True)]
    re = [sum(map(mul, scaled, xs)) for xs in zip(*(s.re for s in series), strict=True)]
    im = None
    if any(s.im for s in series):
        zeros = (0,) * len(re)
        im = [sum(map(mul, scaled, xs)) for xs in zip(*(s.im or zeros for s in series), strict=True)]
    return EGFSeries.from_numerators(d * den, re, im)


# --- the integer kernel -----------------------------------------------------
#
# Series arithmetic runs on the Python ints of EGFSeries.  Products, log
# and exp all sum x_k w_k over the binomial-weighted rows w of one fixed
# operand (``_rows``), in ``_product``.  A complex operand has a second
# numerator vector, so a product of real series runs one convolution.
# A product is reduced once, by one gcd over its denominator and all its
# numerators.  Log and exp reduce each coefficient as they build it, over a
# denominator that grows to the lcm of those built so far (``_append``).


def triangle_rows(step):
    """The row reader of an integer triangle: row 0 is (1,), row j + 1 is step(j, row j).

    A read of row j grows the kept rows through j, so each row is built once.
    """
    rows = [(1,)]

    def row(j: int) -> tuple:
        while len(rows) <= j:
            rows.append(step(len(rows) - 1, rows[-1]))
        return rows[j]

    return row


# C(j, k), k = 0..j, by Pascal's rule
_binomials = triangle_rows(lambda j, row: (1, *map(add, row, row[1:]), 1))


def _valuation(a: EGFSeries) -> int:
    """Index of a's first nonzero coefficient, real or imaginary; len(a.re) for zero."""
    nonzero = map(or_, a.re, a.im) if a.im else a.re
    return next(compress(count(), nonzero), len(a.re))


def _operand_rows(b: EGFSeries) -> tuple:
    """(v, rows): b's valuation, and its rows j = v, v + 1, ... (``_rows``), built once and kept.

    A product by b then costs one multiplication per coefficient pair.
    """
    if b._operand is None:
        v = _valuation(b)
        object.__setattr__(b, "_operand", (v, tuple(_rows(b.re, b.im, v, True))))
    return b._operand


def _rows(re, im, vb, reused):
    """Rows j = vb, ..., len(re) - 1 of the weighted C(j,k) y_{j-k}, k = 0..j - vb.

    y_i = re[i] + i im[i] is 0 for i < vb.  Each row is a pair of real
    and imaginary parts, the second None when im is.  A row that is
    ``reused`` (read twice, by a complex operand) is built as a tuple;
    otherwise it is an iterator that its one reader consumes.
    """
    n = len(re)
    # y reversed, so that y_{j-k} for k = 0, 1, ... is a forward slice
    yr, yi = re[::-1], im and im[::-1]
    for j in range(vb, n):
        row, s = _binomials(j), n - 1 - j
        wr, wi = map(mul, row, yr[s : n - vb]), yi and map(mul, row, yi[s : n - vb])
        yield (tuple(wr), wi and tuple(wi)) if reused else (wr, wi)


def _append(xr, xi, den: int, re: int, im: int, d: int) -> int:
    """Append (re + i im) / d to the numerators xr, xi (None if real) over den; return the new den.

    den grows to the lcm of itself and d reduced, rescaling xr and xi only if it grows.
    """
    g = gcd(d, re, im)
    d //= g
    grow = d // gcd(den, d)
    if grow != 1:
        xr[:] = [x * grow for x in xr]
        if xi is not None:
            xi[:] = [x * grow for x in xi]
        den *= grow
    scale = den // d
    xr.append(re // g * scale)
    if xi is not None:
        xi.append(im // g * scale)
    return den


def _product(xr, xi, wr, wi):
    """Numerators (re, im) of sum_k x_k w_k, k below the shorter length; xi, wi None when zero."""
    re = sum(map(mul, xr, wr))
    if xi is None:
        return re, (0 if wi is None else sum(map(mul, xr, wi)))
    im = sum(map(mul, xi, wr))
    if wi is None:
        return re, im
    return re - sum(map(mul, xi, wi)), im + sum(map(mul, xr, wi))
