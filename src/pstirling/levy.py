"""Moment functions for centered Levy processes and centered subordinators.

A centered square-integrable Levy process enters through its Gaussian
variance sigma^2, jump variance kappa^2, and the moments of the
jump-size-biased variable U; the indicator-mixing construction
T = U 1{V < kappa^2/(sigma^2+kappa^2)} reduces both parts to a single
moment sequence.  A centered subordinator enters through tau^2 and the
moments of the size-biased jump T*.  Every moment of the process is a
polynomial in 1/t with nonnegative coefficients built from beta(2)-
weighted sums, which is what the complete-monotonicity check certifies.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .powerseries import Record, exact_rational, reduced_fraction
from .randomvars import CumulantSeq, MomentSeq
from .randomvars import bernoulli, gamma_shape, moments_of, normal, point_mass  # the catalog's laws
from .stirling import ladder


class LevySpec(Record):
    """Centered Levy process Y(t) parameterized by (sigma^2, kappa^2, U-moments)."""

    __slots__ = ("sigma2", "kappa2", "u_moments", "_t")  # _t: T's moments, built once

    def __init__(self, sigma2: Fraction, kappa2: Fraction, u_moments: MomentSeq):
        self._init(exact_rational(sigma2), exact_rational(kappa2), u_moments)
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")
        if self.kappa2 <= 0:
            raise ValueError("kappa2 must be positive")
        if not self.u_moments.is_real:
            raise ValueError("U must be real-valued")
        object.__setattr__(self, "_t", tstar_moments(self, self.u_moments.order))


class SubordinatorSpec(Record):
    """Centered subordinator X(t) parameterized by (tau^2, T*-moments)."""

    __slots__ = ("tau2", "tstar_moments")

    def __init__(self, tau2: Fraction, tstar_moments: MomentSeq):
        self._init(exact_rational(tau2), tstar_moments)
        if self.tau2 < 0:
            raise ValueError("tau2 must be nonnegative")
        if not self.tstar_moments.is_real:
            raise ValueError("T* must be real-valued")
        if any(x < 0 for x in self.tstar_moments.re):
            raise ValueError("T* moments must be nonnegative")


def tstar_moments(spec: LevySpec, order: int) -> MomentSeq:
    """Moments of T = U 1{V < w} with mixing weight w = kappa^2/(sigma^2+kappa^2).

    T = U B for B ~ Bernoulli(w) independent of U, so E T^k = E U^k E B^k:
    U's numerators times those of B's moments, over the product of the
    two denominators.
    """
    u = spec.u_moments
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > u.order:
        raise ValueError("U moments do not reach the requested order")
    b = moments_of(bernoulli(spec.kappa2 / (spec.sigma2 + spec.kappa2)), order)
    return MomentSeq.from_numerators(u.den * b.den, list(map(mul, u.re, b.re)), None)


def _variance_and_t(spec, order: int):
    """(variance, moments of T) of a spec: T = U 1{V < w} of a Levy process, T* of a subordinator.

    The moments must reach ``order``; they are the spec's own, at its full
    order, so every j reads the same sequence and the same ladder.
    """
    if isinstance(spec, LevySpec):
        if order > spec.u_moments.order:
            raise ValueError("U moments do not reach the requested order")
        return spec.sigma2 + spec.kappa2, spec._t
    if isinstance(spec, SubordinatorSpec):
        if order > spec.tstar_moments.order:
            raise ValueError("moment sequence does not reach the requested order")
        return spec.tau2, spec.tstar_moments
    raise TypeError("spec must be a LevySpec or SubordinatorSpec")


def _moment_coefficients(spec, j: int) -> list:
    # coefficient of t^{-(floor(j/2)-m)} for m = 0..floor(j/2); the m=0
    # entry vanishes for j >= 1 since W_0 = 0.  E W_m(2)^{j-2m} is
    # coefficient j-2m of G^m on ladder (0, 2) of the T moments, read at
    # their full order; var2^m E Z^{2m} is moment 2m of the normal of variance var2
    if j < 0:
        raise ValueError("indices must be nonnegative")
    var2, tm = _variance_and_t(spec, j - 2)
    rung = ladder(tm, 0, 2).rung
    gauss = moments_of(normal(var2), j)
    out = [Fraction(1 if j == 0 else 0)]
    for m in range(1, j // 2 + 1):
        # C(j, 2m) var2^m E Z^{2m} E W_m(2)^{j-2m} off the two real series' numerators, one reduction
        power = rung(m)
        num = comb(j, 2 * m) * gauss.re[2 * m] * power.re[j - 2 * m]
        out.append(reduced_fraction(num, gauss.den * power.den))
    return out


def cm_coefficients(spec, j: int) -> list:
    """Coefficients of the 1/t-polynomial t^{floor(j/2)-m}, m = 1..floor(j/2).

    Nonnegativity of every entry certifies complete monotonicity of the
    moment function.  Levy specs are restricted to even j: odd powers of
    a signed T can carry odd weighted-sum moments of unknown sign.
    """
    if isinstance(spec, LevySpec) and j % 2 == 1:
        raise ValueError("complete-monotonicity check applies to even j only")
    return _moment_coefficients(spec, j)[1:]


def _time(t) -> Fraction:
    """A positive time t as a Fraction; a float t is taken at its exact value, a str is a TypeError."""
    t = Fraction(t) if isinstance(t, float) else exact_rational(t)
    if t <= 0:
        raise ValueError("t must be positive")
    return t


def levy_moment_g(spec: LevySpec, j: int, t):
    """g_j(t) = E Y(t)^j / t^{floor(j/2)}, exact for rational t."""
    coeffs = _moment_coefficients(spec, j)
    t = _time(t)
    return sum(c * t ** (m - j // 2) for m, c in enumerate(coeffs))


def subordinator_moment_h(spec: SubordinatorSpec, j: int, t):
    """h_j(t) = E (X(t)-t)^j / t^{floor(j/2)}, exact for rational t."""
    return levy_moment_g(spec, j, t)


def _cumulant_series(spec, order: int) -> CumulantSeq:
    """The cumulants at t = 1 through ``order``: K_j = var2 E T^{j-2}, K_0 = K_1 = 0."""
    var2, tm = _variance_and_t(spec, order - 2)
    k = [0, 0, *(var2.numerator * x for x in tm.re)][: order + 1]
    return CumulantSeq.from_numerators(var2.denominator * tm.den, k, None)


def levy_process_moments(spec: LevySpec, order: int, t: Fraction) -> MomentSeq:
    """Moments of Y(t), rational t > 0: exp(t K), K the cumulants at t = 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _cumulant_series(spec, order).moments(_time(t))


def levy_cumulant(spec, j: int, t):
    """kappa_j(Y(t)) = t (sigma^2+kappa^2) E T^{j-2}, or kappa_j(X(t)) = t tau^2 E T*^{j-2}, j >= 2."""
    if j < 2:
        raise ValueError("the cumulant formula applies for j >= 2")
    return _cumulant_series(spec, j)[j].as_fraction() * _time(t)


# --- named processes ---------------------------------------------------------


def compensated_unit_jump(order: int) -> LevySpec:
    """Unit jumps compensated to zero mean: sigma^2 = 0, kappa^2 = 1, U = 1."""
    return LevySpec(0, 1, moments_of(point_mass(1), order))


def gaussian_part_only(order: int, sigma2=1, kappa2=1) -> LevySpec:
    """U = 0: only the Gaussian part contributes beyond the variance."""
    return LevySpec(sigma2, kappa2, moments_of(point_mass(0), order))


def poisson_subordinator(order: int) -> SubordinatorSpec:
    """Standard Poisson process: T = T* = 1, tau^2 = 1."""
    return SubordinatorSpec(1, moments_of(point_mass(1), order))


def gamma_subordinator(order: int) -> SubordinatorSpec:
    """Gamma process: T* has density theta e^{-theta}, gamma of shape 2, so E T*^k = (k+1)!."""
    return SubordinatorSpec(1, moments_of(gamma_shape(2), order))
