"""Independent ground-truth engines: exact Irwin-Hall, Monte Carlo, validation.

The Irwin-Hall CDF gives the exact law of a sum of standard uniforms and
hence an exact reference curve for the standardized-uniform Edgeworth
tests.  The Monte Carlo estimators provide distribution-free stochastic
checks at 4-sigma / DKW tolerances with pinned seeds, so failures signal
formula regressions rather than noise.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice, repeat
from math import comb, factorial
from operator import add, mul
from typing import NamedTuple

# the engines need only randomvars and the powerseries it imports; the validation
# suite imports the modules it checks, so a process that reads the Irwin-Hall CDF
# loads none of them
from .powerseries import DomainError
from .randomvars import DistSpec, moments_of, point_mass, sample_sums, uniform_std
from . import randomvars

_SQRT3N_DIGITS = 40
_CHUNK = 100_000
_BLOCK = 1024  # powers held at once while a stream is reduced


def irwin_hall_cdf(n: int, x):
    """CDF of U_1 + ... + U_n for standard uniforms, by inclusion-exclusion, as a Fraction.

    x is read exactly (a float as the dyadic rational it is), and the
    alternating sum (1/n!) sum_{k<=floor(x)} (-1)^k C(n,k) (x-k)^n
    suffers no cancellation in exact arithmetic.  With x = p/q it is
    summed over the integers, sum_k (-1)^k C(n,k) (p-kq)^n, and divided by
    q^n n! once.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if isinstance(x, float) and not math.isfinite(x):
        if math.isnan(x):
            raise ValueError("points must be numbers, not nan")
        return Fraction(x > 0)
    x = Fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    p, q = x.numerator, x.denominator
    total = 0
    for k in range(int(x) + 1):
        term = comb(n, k) * (p - k * q) ** n
        total += -term if k % 2 else term
    return Fraction(total, q**n * factorial(n))


def _sqrt_fraction(m: int) -> Fraction:
    # rational sqrt(m) accurate to ~10^-_SQRT3N_DIGITS
    scale = 10**_SQRT3N_DIGITS
    return Fraction(math.isqrt(m * scale * scale), scale)


def uniform_fn_exact(n: int, y) -> float:
    """Exact CDF at y of S_n/sqrt(n) for S_n a sum of n uniforms on [-sqrt3, sqrt3].

    The argument passed to the Irwin-Hall CDF is n/2 + y sqrt(3n)/6; the
    irrational factor is replaced by a 40-digit rational approximation and
    the alternating sum is evaluated exactly, so the result is correct to
    far below float resolution for every n the package targets.
    """
    if isinstance(y, float) and not math.isfinite(y):
        return float(irwin_hall_cdf(n, y))  # the limits at +-inf; nan is refused there
    yq = Fraction(y)  # floats are dyadic rationals, so this is exact
    x = Fraction(n, 2) + yq * _sqrt_fraction(3 * n) / 6
    return float(irwin_hall_cdf(n, x))


class MCEstimate(NamedTuple):
    value: float
    stderr: float
    n_samples: int
    seed: int


def _stream_sums(spec: DistSpec, n: int, n_samples: int, seed: int):
    """Per stream, the lazy sums of S_n it draws: chunks of _CHUNK, stream i seeded seed + i."""
    for stream, done in enumerate(range(0, n_samples, _CHUNK)):
        yield sample_sums(spec, n, min(_CHUNK, n_samples - done), random.Random(seed + stream))


def mc_sum_moment(spec: DistSpec, n: int, j: int, n_samples: int, seed: int) -> MCEstimate:
    """Sample mean of S_n^j over independent replicas, with standard error.

    Replicas are split into chunks of fixed size, each driven by its own
    stream seeded seed + index, and reduced in stream order, making the
    result a pure function of (spec, n, j, n_samples, seed).  A power
    S_n^j or a sum of their squares that a float cannot hold raises
    DomainError, checked once after the loop rather than per sample.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if j < 0:
        raise ValueError("indices must be nonnegative")
    total = 0.0
    total_sq = 0.0
    try:
        for sums in _stream_sums(spec, n, n_samples, seed):
            powers = map(pow, sums, repeat(j))
            chunk = chunk_sq = 0.0
            # reduce(add) adds as `chunk += v` did, left to right, a block of powers at a time
            while block := list(islice(powers, _BLOCK)):
                chunk = reduce(add, block, chunk)
                chunk_sq = reduce(add, map(mul, block, block), chunk_sq)
            total += chunk
            total_sq += chunk_sq
    except OverflowError:
        total_sq = math.inf
    if not math.isfinite(total_sq):
        raise DomainError(f"S_n^j overflows a float at j = {j}, n = {n}")
    mean = total / n_samples
    if n_samples > 1:
        var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    else:
        var = 0.0
    return MCEstimate(mean, math.sqrt(var / n_samples), n_samples, seed)


class EmpiricalCdf(NamedTuple):
    """Empirical CDF of S_n/sqrt(n mu_2) on a grid, with its DKW radius."""

    points: tuple  # ((y, F_hat(y)), ...)
    dkw_bound: float
    n_samples: int
    delta: float


def mc_empirical_cdf(
    spec: DistSpec, n: int, grid, n_samples: int, seed: int, delta: float = 1e-3
) -> EmpiricalCdf:
    """Empirical CDF of the standardized sum at the grid points.

    The attached bound sqrt(ln(2/delta)/(2 n_samples)) bounds the sup
    deviation from the true CDF with probability 1 - delta.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    cuts = sorted({float(y) for y in grid})
    if any(map(math.isnan, cuts)):
        raise ValueError("grid points must be numbers, not nan")
    mu2 = float(moments_of(spec, 2)[2].as_fraction())
    scale = 1.0 / math.sqrt(n * mu2)
    # counts[i]: the samples in (cuts[i-1], cuts[i]]; counts[len(cuts)] those above every cut
    counts = Counter()
    for sums in _stream_sums(spec, n, n_samples, seed):
        counts.update(map(bisect_left, repeat(cuts), map(mul, sums, repeat(scale))))
    at_most = dict(zip(cuts, accumulate(counts[i] for i in range(len(cuts)))))
    points = tuple((float(y), at_most[float(y)] / n_samples) for y in grid)
    bound = math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))
    return EmpiricalCdf(points, bound, n_samples, delta)


# --- validation suite --------------------------------------------------------


class ValidationReport(NamedTuple):
    """One checked quantity: reference vs computed, deviations, verdict."""

    name: str
    expected: str
    computed: str
    abs_dev: float
    rel_dev: float
    tolerance: float
    passed: bool


def _report(name: str, expected, computed, tolerance: float = 0.0) -> ValidationReport:
    if isinstance(expected, float) or isinstance(computed, float):
        e, c = float(expected), float(computed)
        abs_dev = abs(e - c)
        expected_s, computed_s = repr(e), repr(c)
    else:
        abs_dev = float(abs(Fraction(expected) - Fraction(computed)))
        expected_s, computed_s = str(expected), str(computed)
    rel_dev = abs_dev / max(abs(float(expected)), 1.0)
    return ValidationReport(
        name=name,
        expected=expected_s,
        computed=computed_s,
        abs_dev=abs_dev,
        rel_dev=rel_dev,
        tolerance=tolerance,
        passed=abs_dev <= tolerance,
    )


def exact_checks() -> list:
    """Deterministic identity checks spanning every module."""
    from .edgeworth import edgeworth_model, edgeworth_term, hermite_eval, normal_pdf
    from .levy import (
        compensated_unit_jump,
        gamma_subordinator,
        levy_cumulant,
        poisson_subordinator,
        subordinator_moment_h,
    )
    from .moments import cumulants_from_stirling, cumulants_from_sum_moments, cumulants_oracle, sum_moment
    from .stirling import (
        classical_s2,
        psn_direct,
        psn_egf,
        psn_gr_rep,
        psn_via_classical,
        weighted_sum_moment,
    )

    reports = []
    one_mass = moments_of(point_mass(1), 6)
    table = psn_egf(one_mass)
    reports.append(
        _report("stirling/classical-recovery S(4,2)", classical_s2(4, 2), table.entry(4, 2).as_fraction())
    )
    rad = moments_of(randomvars.rademacher(), 8)
    routes = {
        "egf": psn_egf(rad).entry(4, 2),
        "direct": psn_direct(rad, 4, 2),
        "via-classical": psn_via_classical(rad, 4, 2),
        "gr-rep": psn_gr_rep(rad, 1, 4, 2),
    }
    for tag, value in routes.items():
        reports.append(_report(f"stirling/rademacher S(4,2) {tag}", Fraction(3), value.as_fraction()))
    reports.append(
        _report(
            "stirling/sun-formula S(4,2)",
            Fraction(classical_s2(4, 2)),
            comb(4, 2) * weighted_sum_moment(one_mass, 1, 2, 2).as_fraction(),
        )
    )
    reports.append(
        _report("moments/rademacher E S_3^4", Fraction(21), sum_moment(rad, 3, 4).as_fraction())
    )
    poi = moments_of(randomvars.poisson(1), 6)
    for tag, seq in (
        ("stirling-route", cumulants_from_stirling(poi)),
        ("binomial-route", cumulants_from_sum_moments(poi)),
        ("series-log", cumulants_oracle(poi)),
    ):
        ok = all(v == 1 for v in seq.kappa)
        reports.append(_report(f"cumulants/poisson all-ones {tag}", Fraction(1), Fraction(int(ok))))
    psub = poisson_subordinator(8)
    t = Fraction(1, 2)
    reports.append(_report("levy/poisson h_3", Fraction(1), subordinator_moment_h(psub, 3, t)))
    reports.append(_report("levy/poisson h_4", 3 + 1 / t, subordinator_moment_h(psub, 4, t)))
    gsub = gamma_subordinator(8)
    reports.append(_report("levy/gamma h_3", Fraction(2), subordinator_moment_h(gsub, 3, t)))
    cuj = compensated_unit_jump(8)
    reports.append(_report("levy/unit-jump kappa_5", t, levy_cumulant(cuj, 5, t)))
    model = edgeworth_model(uniform_std(), K=2)
    lead = edgeworth_term(model, 2, 16, 1.0)
    expected = normal_pdf(1.0) * hermite_eval(3, 1.0) * (6.0 / 5.0) / 24.0 / 16.0
    reports.append(_report("edgeworth/leading-term n=16 y=1", expected, lead, 1e-12))
    reports.append(_report("oracle/irwin-hall CDF(2,1/2)", Fraction(1, 8), irwin_hall_cdf(2, Fraction(1, 2))))
    ih_sym = irwin_hall_cdf(3, Fraction(3, 4)) + irwin_hall_cdf(3, Fraction(9, 4))
    reports.append(_report("oracle/irwin-hall symmetry n=3", Fraction(1), ih_sym))
    return reports


_MC_MOMENT_CHECKS = (
    (randomvars.rademacher(), 2, 4),
    (uniform_std(), 4, 2),
    (randomvars.poisson(1), 2, 2),
    (randomvars.exponential(), 2, 3),
    (randomvars.normal(1), 3, 4),
)


def mc_checks(seed: int, n_samples: int) -> list:
    """Stochastic checks at 4-sigma (moments) and DKW (CDF) tolerances."""
    from .moments import sum_moment

    reports = []
    for spec, n, j in _MC_MOMENT_CHECKS:
        mom = moments_of(spec, 2 * j)
        exact = sum_moment(mom, n, j).as_fraction()
        second = sum_moment(mom, n, 2 * j).as_fraction()
        sd = math.sqrt(float(second - exact * exact))
        est = mc_sum_moment(spec, n, j, n_samples, seed)
        tol = 4.0 * sd / math.sqrt(n_samples)
        reports.append(_report(f"mc/{spec.kind} n={n} j={j}", float(exact), est.value, tol))
    grid = [x / 2.0 for x in range(-6, 7)]
    emp = mc_empirical_cdf(uniform_std(), 4, grid, n_samples, seed)
    worst = max(abs(f - uniform_fn_exact(4, y)) for y, f in emp.points)
    reports.append(_report("mc/uniformstd empirical-cdf sup-dev", 0.0, worst, emp.dkw_bound))
    mid = dict(emp.points)[0.0]
    # DKW radius is 0.002 at the default million samples
    reports.append(_report("mc/uniformstd empirical-cdf at 0", 0.5, mid, emp.dkw_bound))
    return reports


def run_validation(suite: str = "all", seed: int = 7, n_samples: int = 10**6) -> list:
    if suite not in {"all", "exact", "mc"}:
        raise ValueError(f"unknown suite {suite!r}")
    reports = []
    if suite in {"all", "exact"}:
        reports.extend(exact_checks())
    if suite in {"all", "mc"}:
        reports.extend(mc_checks(seed, n_samples))
    return reports
