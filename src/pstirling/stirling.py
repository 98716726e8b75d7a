"""Stirling numbers of the second kind, classical and probabilistic.

The probabilistic number S_Y(j,m) is the alternating binomial transform
of the partial-sum moments E S_k^j of i.i.d. copies of Y; it reduces to
the classical S(j,m) for Y = 1.  Four routes are provided, over four
independent data paths:

* ``psn_egf`` -- coefficient extraction from (M(z)-1)^m / m!, the
  production route;
* ``psn_direct`` -- the defining alternating sum over E S_k^j;
* ``psn_via_classical`` -- factorial-moment decomposition through the
  classical numbers of both kinds;
* ``psn_gr_rep`` -- the beta-weighted-sum representation available when
  the first r moments vanish.

Each list that grows as it is read is a ``triangle_rows`` reader: the
classical rows, the table's columns (``table_columns``) and the rungs of
a ladder (``Ladder``), the powers G^0, G^1, ... of one series G, each one
product by G, which keeps its rows from the first of them.  A ladder also
keeps one alternating column (1/m!) sum_k C(m,k)(-1)^{m-k} G^k per m, one
``egf_lincomb`` of rungs 0..m.  ``psn_direct`` reads coefficient j of that
column on ``ladder(m, 0, 0)``, where G is M(z) and rung k holds E S_k^j.
``psn_via_classical`` reads the column of ``factorial_ladder(m)``, where G
is the EGF F(u) = E (1+u)^Y of the factorial moments: M(z) = F(e^z - 1),
so S_Y(j,m) = sum_l S(j,l) T_F(l,m) for T_F(., m) that column.
``psn_gr_rep`` and the Levy moment functions read E W_m(r)^p off ladder
(s, r) of G_k = E beta(r)^k mu_{k+s}; ``psn_gr_rep`` reads it as one scaled
coefficient of rung m (``qc_from_numerators``).  Each ladder is built from
the moments alone, never from the table.  A sequence keeps its column
reader and its ladders side by side (``kept``), so they die with it, and
an equal sequence builds its own; a column or a rung is built when it is
first read, so a sum moment builds only the columns it sums.  Every
structural value a route returns, zero above the diagonal and the m = 0
one, is one shared QC.
All arithmetic is exact; no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from .powerseries import QC, EGFSeries, egf_lincomb, egf_mul, egf_one
from .powerseries import egf_pow, kept, qc_from_numerators, triangle_rows
from .randomvars import DistSpec, MomentSeq, UnsupportedSpecError, abs_moments_of, beta_moments
from .randomvars import moments_of, vanishing_order


# the structural values the routes return, built once: a QC is immutable, so one can be shared
_QC_ZERO, _QC_ONE = qc_from_numerators(1, 0, 0), qc_from_numerators(1, 1, 0)


def alternating(e: int, value):
    """(-1)^e * value: the sign of alternating sums and binomial transforms."""
    return -value if e % 2 else value


def classical_s2(j: int, m: int) -> int:
    """Classical second-kind number: partitions of a j-set into m blocks.

    Evaluated by the explicit alternating sum (1/m!) sum_k C(m,k)(-1)^{m-k} k^j;
    returns 0 for m > j.  The reference that the rows of ``_s2_row`` are tested against.
    """
    if j < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    total = sum(alternating(m - k, comb(m, k)) * k**j for k in range(m + 1))
    q, rem = divmod(total, factorial(m))
    assert rem == 0
    return q


# s(l, 0..l), the coefficients of (x)_l = x(x-1)...(x-l+1): s(l+1,i) = s(l,i-1) - l s(l,i)
_s1_row = triangle_rows(lambda l, row: tuple(a - l * b for a, b in zip((0, *row), (*row, 0))))
# S(j, 0..j): S(j+1,l) = l S(j,l) + S(j,l-1)
_s2_row = triangle_rows(lambda j, row: (0, *(l * row[l] + row[l - 1] for l in range(1, j + 1)), 1))


def classical_s1_signed(l: int, i: int) -> int:
    """Signed first-kind number s(l,i): coefficient of x^i in (x)_l."""
    if l < 0 or i < 0:
        raise ValueError("indices must be nonnegative")
    return _s1_row(l)[i] if i <= l else 0


def _entry(column, order: int, j: int, m: int) -> QC:
    """S_Y(j, m) off the column reader of a table of that order: zero above the diagonal."""
    if j < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if j > order:
        raise ValueError(f"j = {j} exceeds the table order {order}")
    return column(m)[j] if m <= j else _QC_ZERO


class StirlingTable(NamedTuple):
    """S_Y(j,m) for 0 <= m <= j <= J, held as its column series.

    Column m is the EGF sum_j S_Y(j,m) z^j/j! = (M(z)-1)^m/m!, an
    EGFSeries in canonical form; its entries below j = m are zero.
    Lookups above the diagonal return the structural zero, and a row j
    beyond J raises ValueError.
    """

    columns: tuple  # columns[m] = (M(z)-1)^m / m!

    @property
    def order(self) -> int:
        return len(self.columns) - 1

    def entry(self, j: int, m: int) -> QC:
        return _entry(self.columns.__getitem__, self.order, j, m)

    @property
    def is_real(self) -> bool:
        return all(column.is_real for column in self.columns)


def table_columns(m: MomentSeq):
    """The reader of m's table columns k -> (M(z)-1)^k / k!, grown as it is read.

    Column 1 is a copy of M(z)-1, and column k + 1 is column k times
    M(z)-1, over k + 1: one binomial convolution per column, O(J^2) exact
    operations each, by the rows of M(z)-1 that its first product builds
    and the others reuse.  Once column J is built the reader drops M(z)-1
    and those rows, and keeps the columns alone.
    """
    shifted = EGFSeries.from_numerators(m.den, (0,) + m.re[1:], m.im)  # M(z) - 1; im[0] is 0
    last = m.order

    def step(k: int, column: EGFSeries) -> EGFSeries:
        nonlocal shifted
        # column 1 is a copy, so that the rows the operand keeps stay out of the table
        if k:
            column = egf_mul(column, shifted, k + 1)
        else:
            column = EGFSeries.from_numerators(shifted.den, shifted.re, shifted.im)
        if k + 1 == last:
            shifted = None  # column J is built, and no read needs M(z)-1 or its rows again
        return column

    return triangle_rows(step, egf_one(last))


def psn_egf(m: MomentSeq) -> StirlingTable:
    """Full table via coefficient extraction from (M(z)-1)^m / m!: columns 0..J, and m keeps nothing."""
    return StirlingTable(tuple(map(table_columns(m), range(m.order + 1))))


def psn_egf_cached(m: MomentSeq):
    """The column reader ``table_columns(m)`` that m keeps: a caller's read builds only what it reads."""
    return kept(m, "table", table_columns)


def weighted_series(m: MomentSeq, shift: int, r: int, order=None) -> EGFSeries:
    """The series G with G_k = mu_{k+shift} / C(k+r, r) for k = 0..order <= J - shift (None: J - shift).

    1/C(k+r, r) = E beta(r)^k, so G_k = E beta(r)^k mu_{k+shift}; at
    (shift, r) = (0, 0) G is M(z) itself.  G multiplies m's numerators by
    those of ``beta_moments(r, order)``, over the product of the two
    denominators, with no QC in between.
    """
    b = beta_moments(r, m.order - shift if order is None else order)

    def scaled(nums):
        return list(map(mul, nums[shift:], b.re))

    return EGFSeries.from_numerators(m.den * b.den, scaled(m.re), m.im and scaled(m.im))


class Ladder:
    """The powers G^0, G^1, ... of one series G = series(m, *args), built from m.

    ``rung(k)`` reads G^k, a ``triangle_rows`` reader: rung 1 is G and
    each later rung is one egf_mul by G, so G builds its rows at the first
    and keeps them for the ladder's life.  ``columns`` maps m to the
    alternating column of ``column(m)``, built on first read.
    """

    __slots__ = ("rung", "columns")

    def __init__(self, m: MomentSeq, series, *args):
        g = series(m, *args)
        self.rung = triangle_rows(lambda k, rung: egf_mul(rung, g) if k else g, egf_one(g.order))
        self.columns = {}

    def column(self, m: int) -> EGFSeries:
        """(1/m!) sum_k C(m,k)(-1)^{m-k} G^k, built once from rungs 0..m over their lcm.

        On ladder (0, 0) its coefficient j is S_Y(j, m) by the defining sum.
        """
        column = self.columns.get(m)
        if column is None:
            weights = [alternating(m - k, comb(m, k)) for k in range(m + 1)]
            column = self.columns[m] = egf_lincomb([*map(self.rung, range(m + 1))], weights, factorial(m))
        return column


def ladder(m: MomentSeq, shift: int, r: int) -> Ladder:
    """m's one ladder of G = ``weighted_series(m, shift, r)``, of order J - shift, kept as (shift, r).

    Ladder (0, 0) holds M(z)^k, the EGFs of E S_k^j; ladder (s, r) holds
    G^m, whose coefficient p is E W_m(r)^p over the shifted moments.  A
    sequence is powered at its full order J - shift, so a caller that
    holds more moments than it reads cuts them first.
    The ladder is built from the moments alone, never from psn_egf or its
    columns, so the routes that read it stay independent of the table
    they check.
    """
    return kept(m, (shift, r), Ladder, weighted_series, shift, r)


def _in_range(m: MomentSeq, j: int, m_idx: int) -> bool:
    """Whether S_Y(j, m_idx) can be nonzero (m_idx <= j); raises on indices m cannot serve."""
    if j < 0 or m_idx < 0:
        raise ValueError("indices must be nonnegative")
    if j >= len(m.re):
        raise ValueError("j exceeds the available moment order")
    return m_idx <= j


def psn_direct(m: MomentSeq, j: int, m_idx: int) -> QC:
    """Defining route: (1/m!) sum_k C(m,k)(-1)^{m-k} E S_k^j, coefficient j of the alternating column.

    Returns the structural zero for m_idx > j.
    """
    return ladder(m, 0, 0).column(m_idx)[j] if _in_range(m, j, m_idx) else _QC_ZERO


def factorial_moments(m: MomentSeq) -> MomentSeq:
    """Factorial moments E (Y)_l = sum_i s(l,i) mu_i, l = 0..J, on m's numerators: F(u) = E (1+u)^Y."""

    def combine(nums):
        return [sum(map(mul, _s1_row(l), nums)) for l in range(len(nums))]

    return MomentSeq.from_numerators(m.den, combine(m.re), m.im and combine(m.im))


def factorial_ladder(m: MomentSeq) -> Ladder:
    """The ladder of F = ``factorial_moments(m)``, rung k holding E (S_k)_l, from m alone; kept by m."""
    return kept(m, "factorial", Ladder, factorial_moments)


def psn_via_classical(m: MomentSeq, j: int, m_idx: int) -> QC:
    """Cross-check route through classical numbers of both kinds: sum_l S(j,l) T_F(l,m).

    T_F(., m) is column m of F's own ladder, and M(z) = F(e^z - 1); one
    dot product of the row S(j, 0..j) with that column's numerators.
    """
    if not _in_range(m, j, m_idx):
        return _QC_ZERO
    column, row = factorial_ladder(m).column(m_idx), _s2_row(j)
    im = sum(map(mul, row, column.im)) if column.im else 0
    return qc_from_numerators(column.den, sum(map(mul, row, column.re)), im)


def weighted_sum_moment(m: MomentSeq, r: int, m_idx: int, p: int) -> QC:
    """E W_m(r,Y)^p for W_m(r,Y) = beta_1(r) Y_1 + ... + beta_m(r) Y_m.

    Each summand contributes the EGF with entries E beta(r)^k mu_k, where
    E beta(r)^k = 1/C(k+r, r), so the moment is the p-th entry of the m-th
    binomial-convolution power.  W_m(0,Y) is the plain partial sum S_m.
    This route runs its own egf_pow on the order-p prefix; it is the
    reference the kept ``ladder`` is checked against.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if m_idx < 0 or p < 0:
        raise ValueError("indices must be nonnegative")
    if m_idx == 0:
        return _QC_ONE if p == 0 else _QC_ZERO
    if p > m.order:
        raise ValueError("p exceeds the available moment order")
    return egf_pow(weighted_series(m, 0, r, p), m_idx)[p]


def psn_gr_rep(m: MomentSeq, r: int, j: int, m_idx: int) -> QC:
    """Weighted-sum route, valid when the first r moments of Y vanish.

    S_Y(j,m) vanishes for j < m(r+1); otherwise it equals
    (m(r+1))!/(m!((r+1)!)^m) C(j, m(r+1)) E (Y_1...Y_m)^{r+1} W_m(r+1,Y)^p
    with p = j - m(r+1), and the expectation is the p-th entry of the m-th
    power of the EGF with entries E beta(r+1)^k mu_{k+r+1}, where
    E beta(r+1)^k = 1/C(k+r+1, r+1); that power is read off the
    sequence's ladder (r+1, r+1), and the value is its numerator p times
    the integer weight, over its denominator times the factorials: one
    ``qc_from_numerators``, with no series combination in between.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if j < 0 or m_idx < 0:
        raise ValueError("indices must be nonnegative")
    if vanishing_order(m) < r:
        raise ValueError(f"moment sequence does not vanish through order {r}")
    if m_idx == 0:
        return _QC_ONE if j == 0 else _QC_ZERO
    k = m_idx * (r + 1)
    if j < k:
        return _QC_ZERO
    p = j - k
    if p + r + 1 > m.order:
        raise ValueError("j exceeds the available moment order for this route")
    power = ladder(m, r + 1, r + 1).rung(m_idx)
    # w power[p] / den, read off the one rung's numerators
    w, den = factorial(k) * comb(j, k), factorial(m_idx) * factorial(r + 1) ** m_idx
    return qc_from_numerators(power.den * den, w * power.re[p], w * power.im[p] if power.im else 0)


class BoundCheck(NamedTuple):
    """Outcome of the triangle-style bound |S_Y(j,m)| <= E(|Y_1|+..+|Y_m|)^j/m!.

    ``rhs`` is the exact right side when absolute moments are rational;
    for symmetric specs with irrational absolute moments it is the exact
    even-term lower bound E S_m^j/m!, flagged by ``rhs_is_lower_bound``
    (the lower bound already dominating the left side certifies the full
    inequality).
    """

    holds: bool
    lhs: Fraction
    rhs: Fraction
    rhs_is_lower_bound: bool


def bound_check_from_moments(m: MomentSeq, abs_m: MomentSeq, j: int, m_idx: int) -> BoundCheck:
    """Exact comparison given an explicit absolute-moment sequence."""
    if not m.is_real:
        raise ValueError("the bound applies to real-valued distributions")
    lhs = abs(_entry(psn_egf_cached(m), m.order, j, m_idx).as_fraction())
    rhs = egf_pow(abs_m, m_idx)[j].as_fraction() / factorial(m_idx)
    return BoundCheck(lhs <= rhs, lhs, rhs, False)


def bound_holds(spec: DistSpec, j: int, m_idx: int) -> BoundCheck:
    """Check the bound for a catalog spec, exactly.

    Specs with exact rational absolute moments compare both sides
    directly.  The symmetric specs whose odd absolute moments are
    irrational (standardized uniform, normal) are certified through the
    even-term lower bound: dropping all terms with an odd power from the
    multinomial expansion of E(|Y_1|+...+|Y_m|)^j leaves exactly E S_m^j,
    which already dominates m! S_Y(j,m) because every table entry of a
    symmetric distribution is nonnegative for even j and zero for odd j.
    Entry (j, m) and coefficient j of the power read moments through j only,
    so those are the moments built.
    """
    mom = moments_of(spec, j)
    try:
        abs_m = abs_moments_of(spec, j)
    except UnsupportedSpecError:
        if not spec.symmetric:
            raise
        return bound_check_from_moments(mom, mom, j, m_idx)._replace(rhs_is_lower_bound=True)
    return bound_check_from_moments(mom, abs_m, j, m_idx)
