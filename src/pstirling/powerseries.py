"""Truncated exponential-generating-function arithmetic.

A series of order J represents sum_{j<=J} a_j z^j / j!.  Coefficients are
complex numbers with rational real/imaginary parts, stored as integer
numerators over one denominator, so every operation is exact.  A value
leaves a series as a :class:`QC`, either one coefficient (``s[j]``) or an
integer combination of series (``egf_combination``), read out of its
integers by ``qc_from_numerators``: each nonzero part is one gcd and a
Fraction whose two slots are set, with no call to Fraction's
constructor.  Every product
multiplies by the binomial-weighted rows of its right operand, which a
series builds the first time it is one and keeps, so that a series that
several products share, such as the base of a ladder of powers, builds
them once.  A product computes each part of its result, real or
imaginary, as one C-level pass over all those rows, and a product of
two complex series takes three real passes, not four.
All binary operations require equal truncation orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, repeat, tee
from math import gcd, lcm
from numbers import Rational
from operator import add, attrgetter, floordiv, getitem, itemgetter, mul, or_, sub


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

    Both parts are normalized Fractions (gcd 1, positive denominator):
    Fraction keeps them so in arithmetic, and a read-out
    (``qc_from_numerators``) builds them reduced.  Construction and
    arithmetic accept int/Fraction; floats, complex and strings are
    rejected (TypeError) so that inexact values cannot enter silently.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
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
    values when read.  What is derived from a series (its product rows, a
    moment sequence's table and ladders) is kept in its one cache slot
    ``_kept`` (``kept``), so it dies with the series.
    """

    # int, tuple of ints, tuple of ints or None; then the cache: None, or a dict (``kept``)
    __slots__ = ("den", "re", "im", "_kept")

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

    def __reduce__(self):
        return type(self).from_numerators, (self.den, self.re, self.im)


def _canonical(s: EGFSeries, den: int, re, im) -> EGFSeries:
    """Store (re[j] + i im[j]) / den in s, reduced to the canonical form, and check it; den > 0."""
    if not any(im or ()):
        im = None
    g = gcd(den, *re, *(im or ()))
    object.__setattr__(s, "den", den // g)
    object.__setattr__(s, "re", tuple(map(floordiv, re, repeat(g))))
    object.__setattr__(s, "im", im and tuple(map(floordiv, im, repeat(g))))
    object.__setattr__(s, "_kept", None)
    s._check()
    return s


def kept(series: EGFSeries, key, build, *args):
    """What series keeps under key: build(series, *args), built on first use, and dying with series."""
    store = series._kept
    if store is None:
        object.__setattr__(series, "_kept", store := {})
    value = store.get(key)
    if value is None:
        value = store[key] = build(series, *args)
    return value


def egf_one(order: int) -> EGFSeries:
    return EGFSeries.from_numerators(1, (1,) + (0,) * order, None)


def egf_mul(a: EGFSeries, b: EGFSeries, den: int = 1) -> EGFSeries:
    """Binomial convolution over den > 0: c_j = sum_k C(j,k) a_k b_{j-k} / den.

    This is the product of the underlying functions, truncated at the
    common order; with moment sequences as inputs it multiplies MGFs.
    b keeps the rows that its first product as a right operand builds,
    for as long as b lives, so later products by b build none.  The
    whole product is one ``_product`` over those rows.  den scales the
    result within its one reduction.
    """
    n = len(a.re)
    if n != len(b.re):
        raise SeriesMismatchError(f"order mismatch: {a.order} vs {b.order}")
    vb, (wr, wi, ws) = kept(b, "rows", _operand_rows)
    va = _valuation(a)
    xr, xi = a.re, a.im
    if va:
        # c_j is 0 for j < va + vb; otherwise only the k in [va, j - vb] can contribute
        cut = itemgetter(slice(va, None))
        xr, xi, wr = xr[va:], xi and xi[va:], map(cut, wr[va:])
        if wi is not None:
            wi, ws = map(cut, wi[va:]), map(cut, ws[va:])
    # the sum of a's parts is read only by a complex b's sum rows
    xs = None if xi is None or wi is None else tuple(map(add, xr, xi))
    re, im = _product((xr, xi, xs), (wr, wi, ws))
    zeros = [0] * min(va + vb, n)
    return EGFSeries.from_numerators(a.den * b.den * den, [*zeros, *re], im and [*zeros, *im])


def egf_pow(a: EGFSeries, n: int) -> EGFSeries:
    """n-fold egf_mul; egf_pow(a, 0) is the series of e^0."""
    if n < 0:
        raise DomainError("negative powers are not defined for truncated EGFs")
    if not n:
        return egf_one(a.order)
    base = EGFSeries.from_numerators(a.den, a.re, a.im)  # a copy, so that a keeps no rows
    while not n & 1:
        base, n = egf_mul(base, base), n >> 1
    # the result starts as the base at n's lowest set bit, not as a product by one
    result, n = base, n >> 1
    while n:
        base = egf_mul(base, base)
        if n & 1:
            result = egf_mul(result, base)
        n >>= 1
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
    # the numerators of L_1, L_2, ... over den, in three parts (``_product``), which grow in
    # place; row j's k = j term, a_0, meets no L
    x = ([], None, None) if ai is None else ([], [], [])
    den = 1
    sums_re, sums_im = _product(x, _rows(ar, ai, 0))
    for j, re in zip(range(a.order), sums_re):
        # L_{j+1} = a_{j+1} - (re + i im) / (den a.den)
        im = 0 if ai is None else ai[j + 1] * den - next(sums_im)
        den = _append(x, den, ar[j + 1] * den - re, im, den * a.den)
    lr, li, _ = x
    return EGFSeries.from_numerators(den, [0] + lr, li and [0] + li)


def egf_exp(a: EGFSeries) -> EGFSeries:
    """Inverse of egf_log, over one growing denominator: E_0 = 1, egf_log(E) = a; needs a_0 = 0."""
    if a[0] != 0:
        raise DomainError("egf_exp needs constant coefficient 0")
    ai = a.im
    # E_{j+1} = sum_k C(j,k) E_k a_{j+1-k}, the coefficient form of E' = a' E:
    # row j of the series a_1, a_2, ...
    x = ([1], None, None) if ai is None else ([1], [0], [1])
    den = 1
    sums_re, sums_im = _product(x, _rows(a.re[1:], ai and ai[1:], 0))
    for re in sums_re:
        den = _append(x, den, re, 0 if ai is None else next(sums_im), den * a.den)
    er, ei, _ = x
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

    Each nonzero part is a reduced Fraction built as ``reduced_fraction``
    builds one, inline, so a read-out makes no Python call per part.  The
    parts are Fractions built here, so the QC is made without QC.__init__,
    whose check is for a caller's values: its two slots are set directly.
    """
    q = _new(QC)
    if re:
        g = gcd(re, den)
        part = _new(Fraction)
        part._numerator, part._denominator = re // g, den // g
        _set_re(q, part)
    else:
        _set_re(q, _ZERO)
    if im:
        g = gcd(im, den)
        part = _new(Fraction)
        part._numerator, part._denominator = im // g, den // g
        _set_im(q, part)
    else:
        _set_im(q, _ZERO)
    return q


def reduced_fraction(num: int, den: int) -> Fraction:
    """num / den as a Fraction, den > 0: one gcd and the Fraction's two slots set, with no checks.

    The result is the normalized Fraction (gcd 1, den > 0) that
    Fraction(num, den) builds, without Fraction's Python-level constructor.
    """
    g = gcd(num, den)
    part = _new(Fraction)
    part._numerator, part._denominator = num // g, den // g
    return part


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
# operand (``_rows``), in ``_product``, the one multiplying kernel.  Both
# sides come in three parts: real, imaginary and their sum, the last two
# None for a real side.  A product of real series runs one pass, a real
# by a complex two, and two complex ones Gauss's three; each pass is one
# C-level pipeline over every row.  A product is reduced once, by one gcd
# over its denominator and all its numerators.  Log and exp pull one
# value a row from the same lazy pipelines while their own side grows,
# and reduce each coefficient as they build it, over a denominator that
# grows to the lcm of those built so far (``_append``).


def triangle_rows(step, first=(1,)):
    """The row reader of a triangle: row 0 is first, row j + 1 is step(j, row j).

    A read of row j grows the kept rows through j, so each row is built
    once; the rows are the integer triangles' tuples or a sequence's series.
    """
    rows = [first]

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
    """(v, (wr, wi, ws)): b's valuation and its rows j = v, v + 1, ... (``_rows``), which b keeps.

    Each part is a tuple of row tuples; wi and ws are None for a real b.
    """
    v = _valuation(b)
    return v, tuple(part and tuple(map(tuple, part)) for part in _rows(b.re, b.im, v))


def _rows(re, im, vb):
    """Rows j = vb, ..., len(re) - 1 of the weighted C(j,k) y_{j-k}, k = 0..j - vb, in three parts.

    y_i = re[i] + i im[i] is 0 for i < vb.  The parts are iterators of the
    rows' real parts, imaginary parts and the sums of the two, each row an
    iterator that its one reader consumes; the last two are None when im is.
    """
    n = len(re)
    binomials = list(map(_binomials, range(vb, n)))
    # row j reads y reversed from n - 1 - j, so that y_{j-k} for k = 0, 1, ... is a forward slice
    cuts = list(map(slice, range(n - 1 - vb, -1, -1), repeat(n - vb)))

    def part(y):
        return map(map, repeat(mul), binomials, map(getitem, repeat(y[::-1]), cuts))

    if im is None:
        return part(re), None, None
    return part(re), part(im), part(tuple(map(add, re, im)))


def _append(x, den: int, re: int, im: int, d: int) -> int:
    """Append (re + i im) / d to x's parts (``_product``), numerators over den; return the new den.

    den grows to the lcm of itself and d reduced, rescaling x only if it
    grows.  Each part grows in place, so that x's pipelines read it.
    """
    g = gcd(d, re, im)
    d //= g
    grow = d // gcd(den, d)
    if grow != 1:
        for part in x:
            if part is not None:
                part[:] = map(mul, part, repeat(grow))
        den *= grow
    scale = den // d
    re, im = re // g * scale, im // g * scale
    xr, xi, xs = x
    xr.append(re)
    if xi is not None:
        xi.append(im)
        xs.append(re + im)
    return den


def _product(x, rows):
    """Numerators re and im of sum_k x_k w_k, k below the shorter length, for each row w, lazily.

    x = (xr, xi, xs) is a vector in three parts: real, imaginary and their
    sum; rows = (wr, wi, ws) holds rows in the same three parts (``_rows``).
    A part past the first is None when zero, and so is im.  Each part of
    the result is one C-level pipeline over every row.  A complex x by a
    complex w takes Gauss's three passes: p = xr wr, q = xi wi and
    s = xs ws, with re = p - q and im = s - p - q.  The pipelines are lazy:
    a value reads x when it is pulled, so egf_log and egf_exp, whose x
    grows in place, pull one value a row, and egf_mul pulls them all.
    """
    xr, xi, xs = x
    wr, wi, ws = rows
    if wi is None:
        if xi is None:
            return _dots(xr, wr), None
        wr, wr2 = tee(wr)
        return _dots(xr, wr), _dots(xi, wr2)
    if xi is None:
        return _dots(xr, wr), _dots(xr, wi)
    (p, p2), (q, q2) = tee(_dots(xr, wr)), tee(_dots(xi, wi))
    return map(sub, p, q), map(sub, map(sub, _dots(xs, ws), p2), q2)


def _dots(x, rows):
    """sum_k x_k w_k for each row w of rows, lazily, in one pass."""
    return map(sum, map(map, repeat(mul), repeat(x), rows))
