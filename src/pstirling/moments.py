"""Moments of i.i.d. partial sums and cumulants, by independent routes.

E S_n^j collapses to a finite sum over the Stirling table with at most
floor(j/(r+1)) + 1 terms when the first r moments of Y vanish, r read off
the sequence as its vanishing order; a finite recursion expresses E S_n^j
for large n through the values at n < tau.
Cumulants come from the table, from an alternating binomial over sum
moments, and from the series logarithm, and all three must agree.  The
table and ladder routes read their values out as integer combinations of
columns or rungs (``egf_combination``, ``egf_lincomb``); every cumulant route
returns a ``CumulantSeq``.  The CLI's sweep is exp(n log M) (``sum_moments``).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial, lcm, perm
from operator import mul

from .powerseries import QC, egf_combination, egf_lincomb, egf_log, egf_pow
from .randomvars import CumulantSeq, MomentSeq, moments_of, normal, vanishing_order
from .stirling import _in_range, alternating, ladder, psn_egf_cached


def _tau(m: MomentSeq, j: int) -> int:
    """tau = floor(j/(r+1)), r the vanishing order, once j is checked."""
    _in_range(m, j, 0)
    return j // (vanishing_order(m) + 1)


def sum_moment(m: MomentSeq, n: int, j: int) -> QC:
    """E S_n^j = sum_{m <= n ^ tau} S_Y(j,m) (n)_m with tau = floor(j/(r+1)).

    r is the vanishing order of the sequence, which gives the tightest tau;
    a smaller r would only add terms whose table entries are zero.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = min(n, _tau(m, j))
    # (n)_0, (n)_1, ..., (n)_top
    weights = accumulate(range(n, n - top, -1), mul, initial=1)
    return egf_combination([*map(psn_egf_cached(m), range(top + 1))], weights, j)


def sum_moments(m: MomentSeq, n: int) -> MomentSeq:
    """E S_n^0..E S_n^J as one sequence: exp(n log M), the n-fold cumulants of Y."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return cumulants_oracle(m).moments(n)


def sum_moment_egf(m: MomentSeq, n: int, j: int) -> QC:
    """Oracle route: coefficient j of the n-th MGF power."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _in_range(m, j, 0)
    return egf_pow(m, n)[j]


def sum_moment_recursion(m: MomentSeq, n: int, j: int) -> QC:
    """E S_n^j for n >= tau from the moments at k < tau and S_Y(j,tau), tau as in ``sum_moment``.

    Evaluates (n)_tau * [ S_Y(j,tau)
        + (1/(tau-1)!) sum_{k<tau} C(tau-1,k) (-1)^{tau-k-1}/(n-k) E S_k^j ]
    over the common denominator d = (tau-1)! lcm(n-k : k < tau).
    """
    tau = _tau(m, j)
    if tau < 1:
        raise ValueError("recursion needs tau >= 1, i.e. j >= r + 1")
    if n < tau:
        raise ValueError(f"recursion needs n >= tau = {tau}")
    nf, l = perm(n, tau), lcm(*range(n - tau + 1, n + 1))
    d = factorial(tau - 1) * l
    weights = [d] + [alternating(tau - 1 - k, comb(tau - 1, k)) * (l // (n - k)) for k in range(tau)]
    series = [psn_egf_cached(m)(tau), *map(ladder(m, 0, 0).rung, range(tau))]
    return egf_combination(series, [nf * w for w in weights], j, d)


def even_moment_sequence(m: MomentSeq, j: int, n_max: int):
    """The non-increasing sequence E S_n^{2j}/(n)_j for n = j..n_max, plus its limit.

    Requires a real centered sequence; the limit is the 2j-th moment of a
    centered normal with the same variance, sigma^{2j} E Z^{2j}.
    """
    if not m.is_real:
        raise ValueError("even-moment sequence needs real moments")
    if vanishing_order(m) < 1:
        raise ValueError("even-moment sequence needs a centered distribution")
    if 2 * j > m.order:
        raise ValueError("2j exceeds the available moment order")
    sigma2 = m[2].as_fraction()
    values = [
        sum_moment(m, n, 2 * j).as_fraction() / perm(n, j)
        for n in range(j, n_max + 1)
    ]
    limit = sigma2**j * moments_of(normal(), 2 * j)[2 * j].re
    return values, limit


def cumulants_from_stirling(m: MomentSeq) -> CumulantSeq:
    """kappa_j = sum_m (-1)^{m-1} (m-1)! S_Y(j,m): one combination of the table's columns.

    Column m's weight is the same for every j, S_Y(j,m) = 0 for m > j, and column 0 weighs 0.
    """
    weights = [0] + [alternating(mm - 1, factorial(mm - 1)) for mm in range(1, m.order + 1)]
    k = egf_lincomb([*map(psn_egf_cached(m), range(m.order + 1))], weights)
    return CumulantSeq.from_numerators(k.den, k.re, k.im)


def cumulants_from_sum_moments(m: MomentSeq) -> CumulantSeq:
    """kappa_j = sum_k C(j,k) (-1)^{k-1}/k * E S_k^j, the binomial route."""
    pows = [*map(ladder(m, 0, 0).rung, range(m.order + 1))]
    kappa = []
    for j in range(1, m.order + 1):
        d = lcm(*range(1, j + 1))
        weights = [alternating(k - 1, comb(j, k)) * (d // k) for k in range(1, j + 1)]
        kappa.append(egf_combination(pows[1 : j + 1], weights, j, d))
    return CumulantSeq([0, *kappa])


def cumulants_oracle(m: MomentSeq) -> CumulantSeq:
    """Reference route: the series logarithm of the MGF.

    It is what the ``cumulants`` command prints and what ``sum_moments`` exponentiates.
    """
    k = egf_log(m)
    return CumulantSeq.from_numerators(k.den, k.re, k.im)
