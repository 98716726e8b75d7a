"""Explicit Edgeworth expansions driven by the Stirling table of Y + iZ.

For a standardized Y whose first r moments match the standard normal,
the distribution function of S_n/sqrt(n) expands as G(y) minus g(y)
times a series in n^{-1/2} whose coefficients are exact rationals: the
table entries of the complexified variable Y + iZ divided by j!, times
the exact factor (n)_m/n^m, times Hermite values.  Floats enter only
through g(y), H(y) and the half-integer powers of n.
"""

from __future__ import annotations

import math
import warnings
from math import factorial, perm
from typing import NamedTuple

from .powerseries import QC, DomainError, Record
from .randomvars import DistSpec, MomentSeq, hat_transform, moments_of, vanishing_order
from .stirling import StirlingTable, psn_egf


class LatticeWarning(UserWarning):
    """The expansion was evaluated for a lattice distribution.

    The expansion's validity needs an integrable characteristic function,
    which moment data cannot certify; results are produced anyway.
    """


def hermite_eval(n: int, y: float) -> float:
    """Probabilists' Hermite H_n(y) via H_{k+1} = y H_k - k H_{k-1}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return _hermite_values(n, y)[n]


def _hermite_values(n: int, y: float) -> list:
    """H_0(y), ..., H_n(y), n >= 0, by the recurrence; at least H_0 and H_1."""
    h = [1.0, float(y)]
    for k in range(1, n):
        h.append(y * h[k] - k * h[k - 1])
    return h


def normal_pdf(y: float) -> float:
    return math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)


def normal_cdf(y: float) -> float:
    # erfc form keeps full accuracy in the left tail
    return 0.5 * math.erfc(-y / math.sqrt(2.0))


def delta_set(r: int, n: int, k: int) -> list:
    """Index pairs (m, j): 1 <= m <= n, j = 2m + k, j >= m(r+1).

    Equivalently m runs to min(n, floor(k/(r-1))); empty for k < r - 1.
    """
    if r < 2:
        raise ValueError("matching order r must be at least 2")
    if k < r - 1:
        return []
    return [(m, 2 * m + k) for m in range(1, min(n, k // (r - 1)) + 1)]


class EdgeworthModel(Record):
    """Expansion state: matching order r, hat table (of the moment order), truncation K."""

    __slots__ = ("r", "hat_table", "K", "lattice")

    def __init__(self, r: int, hat_table: StirlingTable, K: int, lattice: bool = False):
        self._init(r, hat_table, K, lattice)
        if self.r < 2:
            raise DomainError("expansion needs matching order r >= 2")
        if not self.hat_table.is_real:
            raise DomainError("hat table must be real")
        # S(j,m) = 0 for j < m(r+1): column m's real numerators below that index
        for m, column in enumerate(self.hat_table.columns):
            if any(column.re[: m * (self.r + 1)]):
                raise DomainError("hat table violates the vanishing structure")
        max_m = self.K // (self.r - 1)
        if 2 * max_m + self.K > self.hat_table.order:
            raise DomainError(f"truncation K={self.K} needs moment order >= {2 * max_m + self.K}")


def edgeworth_model(source, K: int) -> EdgeworthModel:
    """Build the expansion model from a spec or a standardized moment sequence.

    The source must have mean 0 and variance 1; the matching order is
    read off the hat-transformed sequence.  K terms read the moments
    through order 3K: a spec gives its first max(3K, 4), or all that a
    custom list carries when that is fewer, and a sequence gives its own.
    """
    if K < 0:
        raise ValueError(f"K must be at least 0, not {K}")
    lattice = False
    if isinstance(source, DistSpec):
        order = max(3 * K, 4)
        if source.custom_moments is not None:
            order = min(order, source.custom_moments.order)
        mom = moments_of(source, order)
        lattice = source.lattice
    else:
        mom = source
    if mom.order < 2:
        raise DomainError(f"expansion needs moment order >= 2, not {mom.order}")
    if mom[1] != 0 or mom[2] != 1:
        raise DomainError("expansion needs a standardized source (mean 0, variance 1)")
    # mean 0 and variance 1 make the first two hat moments zero, so r >= 2
    hat = hat_transform(mom)
    return EdgeworthModel(r=vanishing_order(hat), hat_table=psn_egf(hat), K=K, lattice=lattice)


def edgeworth_term(model: EdgeworthModel, k: int, n: int, y: float) -> float:
    """The order-n^{-k/2} correction term at y.

    -g(y) n^{-k/2} sum_{(m,j)} S(j,m)/j! * (n)_m/n^m * H_{j-1}(y): each
    coefficient is one quotient of integers, S(j,m)'s numerator over its
    column's denominator, rounded once to a float; a coefficient beyond
    float range raises DomainError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not model.r - 1 <= k <= model.K:
        raise ValueError(f"k must lie in [{model.r - 1}, {model.K}]")
    pairs = delta_set(model.r, n, k)
    hermite = _hermite_values(pairs[-1][1] if pairs else 0, y)
    total = 0.0
    for m, j in pairs:
        column = model.hat_table.columns[m]
        if not column.re[j]:
            continue
        try:
            c = column.re[j] * perm(n, m) / (column.den * factorial(j) * n**m)
        except OverflowError:
            raise DomainError(f"the Edgeworth term k = {k} at n = {n} has a coefficient beyond "
                              f"float range, at (j, m) = ({j}, {m})") from None
        total += c * hermite[j - 1]
    # where g(y) underflows to 0.0 the term is 0.0, though a Hermite value may have overflowed
    g = normal_pdf(y)
    return -g * float(n) ** (-k / 2.0) * total if g else 0.0


def edgeworth_cdf(model: EdgeworthModel, n: int, y: float) -> float:
    """G(y) plus all correction terms k = r-1 .. K."""
    if n < 1:
        raise ValueError("n must be positive")
    if model.lattice:
        warnings.warn(
            "expansion evaluated for a lattice distribution; the integrable-"
            "characteristic-function hypothesis cannot hold",
            LatticeWarning,
            stacklevel=2,
        )
    total = normal_cdf(y)
    for k in range(model.r - 1, model.K + 1):
        total += edgeworth_term(model, k, n, y)
    return total


class HatEvenMoment(NamedTuple):
    value: QC
    matched: bool


def hat_even_moment(m: MomentSeq, s: int) -> HatEvenMoment:
    """E (Y+iZ)^{2s}, coefficient 2s of the product series ``hat_transform`` builds.

    When the hat sequence vanishes through order 2s-1 (``matched``), the
    value equals E Y^{2s} - E Z^{2s}; otherwise the computed value is
    returned with the flag lowered.
    """
    if s < 0:
        raise ValueError("indices must be nonnegative")
    if 2 * s > m.order:
        raise ValueError("2s exceeds the available moment order")
    hat = hat_transform(m)
    return HatEvenMoment(hat[2 * s], vanishing_order(hat) >= 2 * s - 1)
