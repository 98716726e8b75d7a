"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's production code paths:
lattice sums are enumerated state by state, Bell/Poisson values come from
the Touchard recurrence, beta moments from term-by-term integration, the
normal's moments from the closed form (2m)!/(m! 2^m), the
Irwin-Hall CDF from piecewise-polynomial convolution, the normal CDF
from a rational Maclaurin series with Machin's formula for pi, and the
series product, log and exp from term-by-term loops over the exact
scalar ``QC``, which bypass the integer kernel that ``powerseries`` uses.
The Monte Carlo reference draws each Y by one closure call and reduces
the sums in a Python loop, one sample at a time.  One reference reads
the library's own series: the Levy coefficients as Fraction products of
read-outs, which checks only the step that forms each coefficient.
"""

import math
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice, product, repeat
from math import comb, factorial

from pstirling.levy import _variance_and_t
from pstirling.powerseries import QC, EGFSeries
from pstirling.randomvars import moments_of, normal
from pstirling.stirling import ladder


def enum_sum_moment(support, n, j):
    """E (X_1+...+X_n)^j by full enumeration of i.i.d. lattice draws.

    ``support`` is a list of (value, probability) pairs with rational
    entries; cost is len(support)**n.
    """
    total = Fraction(0)
    for draws in product(support, repeat=n):
        s = sum((v for v, _ in draws), Fraction(0))
        p = Fraction(1)
        for _, q in draws:
            p *= q
        total += p * s**j
    return total


RADEMACHER_SUPPORT = [(Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]


def touchard_moments(lam, order):
    """Poisson(lam) raw moments via mu_{n+1} = lam * sum_k C(n,k) mu_k."""
    mu = [Fraction(1)]
    for n in range(order):
        mu.append(Fraction(lam) * sum(comb(n, k) * mu[k] for k in range(n + 1)))
    return mu


def bell_numbers(order):
    return [int(v) for v in touchard_moments(1, order)]


def beta_moment_integral(r, k):
    """E beta(r)^k = r * int_0^1 t^k (1-t)^{r-1} dt, expanded termwise."""
    if r == 0:
        return Fraction(1)
    total = Fraction(0)
    for i in range(r):
        total += Fraction(comb(r - 1, i) * (-1) ** i, k + i + 1)
    return r * total


def shift_moments(mu, c):
    """Moments of Y + c from the moments of Y, exact."""
    c = Fraction(c)
    out = []
    for k in range(len(mu)):
        acc = Fraction(0)
        for i in range(k + 1):
            acc += comb(k, i) * Fraction(mu[i]) * c ** (k - i)
        out.append(acc)
    return out


def gamma_raw_moments(t, order):
    """Gamma(shape=t, rate=1) raw moments: rising factorial t(t+1)...(t+k-1)."""
    mu = [Fraction(1)]
    for k in range(order):
        mu.append(mu[-1] * (Fraction(t) + k))
    return mu


def normal_even_moment(l):
    """E Z^l for a standard normal Z: (2m)!/(m! 2^m) at l = 2m, 0 for odd l."""
    if l % 2:
        return Fraction(0)
    m = l // 2
    return Fraction(factorial(2 * m), factorial(m) * 2**m)


class PiecewisePoly:
    """CDF of a sum of standard uniforms as polynomials on [k, k+1]."""

    def __init__(self, n):
        # density of one uniform: 1 on [0,1]
        dens = [[Fraction(1)]]
        for _ in range(n - 1):
            dens = _convolve_with_uniform(dens)
        self.cdf_pieces = _integrate_pieces(dens)
        self.n = n

    def cdf(self, x):
        x = Fraction(x)
        if x <= 0:
            return Fraction(0)
        if x >= self.n:
            return Fraction(1)
        piece = int(x) if x != int(x) else int(x) - (0 if x < self.n else 1)
        if piece >= len(self.cdf_pieces):
            piece = len(self.cdf_pieces) - 1
        return _eval_poly(self.cdf_pieces[piece], x)


def _eval_poly(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _antiderivative(coeffs):
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]


def _convolve_with_uniform(pieces):
    # density of (sum + U): g(x) = int_{x-1}^{x} f(u) du = F(x) - F(x-1)
    cdf_pieces = _integrate_pieces(pieces)
    m = len(pieces)
    out = []
    for k in range(m + 1):
        # on [k, k+1]: F(x) - F(x-1) with F clamped to its support
        upper = cdf_pieces[k] if k < m else [Fraction(1)]
        lower = [Fraction(0)] if k == 0 else _shift_poly(cdf_pieces[k - 1], 1)
        out.append(_poly_sub(upper, lower))
    return out


def _integrate_pieces(pieces):
    # cumulative integral, continuous across the breakpoints
    out = []
    running = Fraction(0)
    for k, poly in enumerate(pieces):
        anti = _antiderivative(poly)
        offset = running - _eval_poly(anti, Fraction(k))
        piece = anti[:]
        piece[0] += offset
        out.append(piece)
        running = _eval_poly(piece, Fraction(k + 1))
    return out


def _shift_poly(coeffs, h):
    # p(x - h) expanded in x
    out = [Fraction(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            out[k] += c * comb(i, k) * Fraction(-h) ** (i - k)
    return out


def _poly_sub(a, b):
    size = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(size)
    ]


def machin_pi(digits=45):
    """Rational pi via 16 atan(1/5) - 4 atan(1/239), alternating series."""
    def atan_inv(q, terms):
        total = Fraction(0)
        for k in range(terms):
            term = Fraction(1, (2 * k + 1) * q ** (2 * k + 1))
            total += -term if k % 2 else term
        return total

    terms = digits // 1 + 5
    return 16 * atan_inv(5, terms) - 4 * atan_inv(239, terms)


def erf_series(x, terms=120):
    """erf(x) = (2/sqrt(pi)) sum (-1)^k x^{2k+1} / (k! (2k+1)), rational x."""
    x = Fraction(x)
    total = Fraction(0)
    fact = 1
    for k in range(terms):
        term = x ** (2 * k + 1) / (fact * (2 * k + 1))
        total += -term if k % 2 else term
        fact *= k + 1
    pi = machin_pi()
    # 2/sqrt(pi) via isqrt on a large scaled integer
    import math as _math

    scale = 10**50
    sqrt_pi = Fraction(_math.isqrt(int(pi * scale * scale)), scale)
    return 2 * total / sqrt_pi


def normal_cdf_series(x):
    """Reference standard normal CDF via the rational erf series."""
    import math as _math

    half_scaled = erf_series(Fraction(x) / Fraction(_math.isqrt(2 * 10**60), 10**30))
    return float(Fraction(1, 2) + half_scaled / 2)


def schoolbook_egf_mul(a, b):
    """Coefficients of the binomial convolution c_j = sum_k C(j,k) a_k b_{j-k}, term by term."""
    av, bv = a.coeffs, b.coeffs
    out = []
    for j in range(len(av)):
        acc = av[0] * bv[j]
        for k in range(1, j + 1):
            acc = acc + comb(j, k) * (av[k] * bv[j - k])
        out.append(acc)
    return tuple(out)


def schoolbook_egf_log(a):
    """Coefficients of L with L_0 = 0 from a_{j+1} = sum_k C(j,k) L_{k+1} a_{j-k}; a_0 = 1."""
    av = a.coeffs
    lv = [QC(0)]
    for j in range(len(av) - 1):
        acc = av[j + 1]
        for k in range(j):
            acc = acc - comb(j, k) * (lv[k + 1] * av[j - k])
        lv.append(acc)
    return tuple(lv)


def schoolbook_egf_exp(a):
    """Coefficients of E with E_0 = 1 from E_{j+1} = sum_k C(j,k) a_{k+1} E_{j-k}; a_0 = 0."""
    av = a.coeffs
    ev = [QC(1)]
    for j in range(len(av) - 1):
        acc = av[1] * ev[j]
        for k in range(1, j + 1):
            acc = acc + comb(j, k) * (av[k + 1] * ev[j - k])
        ev.append(acc)
    return tuple(ev)


def schoolbook_sum_moment_powers(m, k_max):
    """E S_k^j for k = 0..k_max as coefficient tuples, by repeated schoolbook products of M."""
    pows = [(QC(1),) + (QC(0),) * m.order]
    for _ in range(k_max):
        pows.append(schoolbook_egf_mul(EGFSeries(pows[-1]), m))
    return pows


def schoolbook_hat_transform(m):
    """E (Y+iZ)^s = sum_k C(s,k) mu_k i^{s-k} E Z^{s-k} for s = 0..J, term by term over QC.

    Z is standard normal: i^l E Z^l = (-1)^{l/2} E Z^l for even l, 0 for odd l.
    """
    mu = m.coeffs
    out = []
    for s in range(len(mu)):
        acc = QC(0)
        for k in range(s + 1):
            l = s - k
            if l % 2 == 0:
                acc = acc + (-1) ** (l // 2) * normal_even_moment(l) * comb(s, k) * mu[k]
        out.append(acc)
    return tuple(out)


def stirling2_triangle(j):
    """Rows 0..j of S(n,k) from S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    rows = [[1]]
    for n in range(1, j + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    return rows


def stirling1_signed_triangle(j):
    """Rows 0..j of s(n,k) from s(n,k) = s(n-1,k-1) - (n-1) s(n-1,k)."""
    rows = [[1]]
    for n in range(1, j + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[k - 1] - (n - 1) * prev[k] for k in range(1, n + 1)])
    return rows


def schoolbook_psn_direct(m, j, m_idx):
    """(1/m!) sum_k C(m,k)(-1)^{m-k} E S_k^j, term by term over QC."""
    if m_idx > j:
        return QC(0)
    pows = schoolbook_sum_moment_powers(m, m_idx)
    acc = QC(0)
    for k in range(m_idx + 1):
        sign = -1 if (m_idx - k) % 2 else 1
        acc = acc + sign * comb(m_idx, k) * pows[k][j]
    return acc / factorial(m_idx)


def schoolbook_psn_via_classical(m, j, m_idx):
    """(1/m!) sum_l S(j,l) sum_k C(m,k)(-1)^{m-k} E (S_k)_l, term by term over QC."""
    if m_idx > j:
        return QC(0)
    pows = schoolbook_sum_moment_powers(m, m_idx)
    s1 = stirling1_signed_triangle(j)
    s2 = stirling2_triangle(j)[j]

    def falling_moment(k, l):
        acc = QC(0)
        for i in range(l + 1):
            acc = acc + s1[l][i] * pows[k][i]
        return acc

    acc = QC(0)
    for l in range(j + 1):
        if s2[l] == 0:
            continue
        inner = QC(0)
        for k in range(m_idx + 1):
            sign = -1 if (m_idx - k) % 2 else 1
            inner = inner + sign * comb(m_idx, k) * falling_moment(k, l)
        acc = acc + s2[l] * inner
    return acc / factorial(m_idx)


def fraction_product_levy_coefficients(spec, j):
    """The 1/t-polynomial coefficients of a Levy process's or a subordinator's j-th moment function.

    Each coefficient C(j,2m) var^m E Z^{2m} E W_m(2)^{j-2m} is formed from two
    read-outs, moment 2m of the normal and coefficient j-2m of rung m, by two
    Fraction products; ``levy._moment_coefficients``, which forms it from the
    two series' numerators in one reduction, is tested against this.
    """
    if j < 0:
        raise ValueError("indices must be nonnegative")
    var2, tm = _variance_and_t(spec, j - 2)
    rung = ladder(tm, 0, 2).rung
    gauss = moments_of(normal(var2), j)
    out = [Fraction(1 if j == 0 else 0)]
    for m in range(1, j // 2 + 1):
        w_mom = rung(m)[j - 2 * m].as_fraction()
        out.append(comb(j, 2 * m) * gauss[2 * m].re * w_mom)
    return out


# --- Monte Carlo, one draw and one sample at a time ---------------------------
# Each kind's sampler returns a zero-argument draw over rng.random; a sum of n
# draws is sum() of n successive calls, and the estimators add one sample at a
# time over streams of ``chunk`` samples, stream i seeded seed + i.

SQRT3 = math.sqrt(3.0)


def _bernoulli_sampler(spec, random):
    # for a float u, u < p exactly iff u < t, the least float >= p; float(p)
    # alone could round below p and flip a draw on the boundary
    t = float(spec.param)
    if t < spec.param:
        t = math.nextafter(t, math.inf)
    return lambda: 1.0 if random() < t else 0.0


def _poisson_sampler(spec, random):
    limit = math.exp(-float(spec.param))

    def draw():
        k = 0
        p = random()
        while p > limit:
            k += 1
            p *= random()
        return float(k)

    return draw


def _gamma_sampler(spec, random):
    whole = int(spec.param)
    frac = float(spec.param - whole)

    def draw():
        total = 0.0
        for _ in range(whole):
            total += -math.log(1.0 - random())
        if frac > 0.0:
            # Johnk rejection for the fractional shape in (0,1).
            while True:
                x = random() ** (1.0 / frac)
                y = random() ** (1.0 / (1.0 - frac))
                if x + y <= 1.0:
                    break
            total += -math.log(1.0 - random()) * x / (x + y)
        return total

    return draw


def _normal_sampler(spec, random):
    sigma = math.sqrt(float(spec.param))

    def draw():
        u1 = 1.0 - random()
        u2 = random()
        return sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    return draw


REFERENCE_SAMPLERS = {
    "pointmass": lambda spec, random: repeat(float(spec.param)).__next__,
    "rademacher": lambda spec, random: lambda: 1.0 if random() < 0.5 else -1.0,
    "bernoulli": _bernoulli_sampler,
    "uniformstd": lambda spec, random: lambda: SQRT3 * (2.0 * random() - 1.0),
    "poisson": _poisson_sampler,
    "exponential": lambda spec, random: lambda: -math.log(1.0 - random()),
    "gamma": _gamma_sampler,
    "normal": _normal_sampler,
}


def reference_sample_sums(spec, n, count, rng):
    """``count`` sums of n draws, each sum() of n successive draw() calls."""
    draws = iter(REFERENCE_SAMPLERS[spec.kind](spec, rng.random), None)
    return map(sum, map(islice, repeat(draws, count), repeat(n)))


def _reference_streams(spec, n, n_samples, seed, chunk):
    for stream, done in enumerate(range(0, n_samples, chunk)):
        yield reference_sample_sums(spec, n, min(chunk, n_samples - done), random.Random(seed + stream))


def reference_mc_sum_moment(spec, n, j, n_samples, seed, chunk):
    """(mean, stderr) of S_n^j, each power added to its stream's total one at a time."""
    total = 0.0
    total_sq = 0.0
    for sums in _reference_streams(spec, n, n_samples, seed, chunk):
        chunk_total = 0.0
        chunk_sq = 0.0
        for s in sums:
            v = s**j
            chunk_total += v
            chunk_sq += v * v
        total += chunk_total
        total_sq += chunk_sq
    mean = total / n_samples
    if n_samples > 1:
        var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    else:
        var = 0.0
    return mean, math.sqrt(var / n_samples)


def reference_mc_empirical_cdf(spec, n, grid, n_samples, seed, chunk, mu2):
    """((y, F_hat(y)), ...) for S_n / sqrt(n mu2), one count per sample."""
    cuts = sorted({float(y) for y in grid})
    scale = 1.0 / math.sqrt(n * mu2)
    counts = [0] * (len(cuts) + 1)
    for sums in _reference_streams(spec, n, n_samples, seed, chunk):
        for s in sums:
            counts[bisect_left(cuts, s * scale)] += 1
    at_most = dict(zip(cuts, accumulate(counts)))
    return tuple((float(y), at_most[float(y)] / n_samples) for y in grid)
