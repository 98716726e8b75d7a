"""Distribution catalog as truncated moment sequences, plus transforms.

Every distribution is represented only by its moments E Y^k up to a
truncation order; all catalog moments are exact rationals, and a custom
spec holds its list as the MomentSeq it makes.  The normal kind is the
one place the package computes E Z^l: the hat transform, the Levy
Gaussian factor and the even-moment limit all read it.  The module also
provides the x^2-biased (tilde) transform, the Y+iZ (hat) transform
against an independent standard normal, vanishing-order classification,
beta(r) moments, and seeded samplers for the Monte Carlo oracle.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import comb, lcm
from itertools import accumulate, count, islice, repeat
from operator import mul
from typing import Callable, Iterator, NamedTuple, Optional

from .powerseries import DomainError, EGFSeries, Record, egf_exp, egf_lincomb, egf_mul, exact_rational

SQRT3 = math.sqrt(3.0)

_Draw = Callable[[], float]  # a zero-argument source of floats, such as rng.random

POINT_MASS = "pointmass"
RADEMACHER = "rademacher"
BERNOULLI = "bernoulli"
UNIFORM_STD = "uniformstd"
POISSON = "poisson"
EXPONENTIAL = "exponential"
GAMMA_SHAPE = "gamma"
NORMAL = "normal"
CUSTOM = "custom"


class UnsupportedSpecError(ValueError):
    """Requested operation is not available for this distribution spec."""


class MomentSeq(EGFSeries):
    """Truncated moment sequence mu_k = E Y^k, k = 0..J, with mu_0 = 1.

    It is the EGF of M(z) = E e^{zY}, so every series operation takes it
    as it is.
    """

    __slots__ = ()

    def __init__(self, mu):
        # an empty sequence fails the mu_0 check, as one starting with 0 does
        super().__init__(mu or (0,))

    def _check(self) -> None:
        if self.re[0] != self.den or self.im and self.im[0]:
            raise DomainError("moment sequence must start with mu_0 = 1")


class CumulantSeq(EGFSeries):
    """Truncated cumulant series K = log M: K_0 = 0 and K_j = kappa_j, j = 1..J."""

    __slots__ = ()

    def _check(self) -> None:
        if self.re[0] or self.im and self.im[0]:
            raise DomainError("cumulant series must start with K_0 = 0")

    @property
    def kappa(self) -> tuple:
        """kappa_1..kappa_J; kappa[i] is kappa_{i+1}."""
        return self.coeffs[1:]

    def moments(self, c) -> MomentSeq:
        """exp(c K), rational c >= 0: the moments of c summands, or of a Levy process at time c."""
        c = exact_rational(c)
        if c < 0:
            raise DomainError(f"c must be nonnegative, not {c}")
        e = egf_exp(egf_lincomb([self], [c.numerator], c.denominator))
        return MomentSeq.from_numerators(e.den, e.re, e.im)


class DistSpec(Record):
    """Catalog distribution: a variant tag plus at most one rational parameter.

    The kind's record in ``_KINDS`` names the parameter.  Custom specs
    carry an explicit moment list instead, held as the MomentSeq it makes.
    """

    __slots__ = ("kind", "param", "custom_moments")

    def __init__(self, kind: str, param: Optional[Fraction] = None, custom_moments=None):
        record = kind_record(kind)
        _require(param is None or record.key is not None, f"{kind} spec takes no parameter")
        _require(param is not None or record.key is None, f"{kind} spec needs its parameter")
        _require(custom_moments is None or record.moment_list, f"{kind} spec takes no moment list")
        if param is not None:
            param = exact_rational(param)
        if custom_moments is not None:
            custom_moments = MomentSeq(custom_moments)
        self._init(kind, param, custom_moments)
        record.check(self)

    @property
    def lattice(self) -> bool:
        return _KINDS[self.kind].lattice

    @property
    def symmetric(self) -> bool:
        return _KINDS[self.kind].symmetric(self)


def point_mass(c) -> DistSpec:
    return DistSpec(POINT_MASS, c)


def rademacher() -> DistSpec:
    return DistSpec(RADEMACHER)


def bernoulli(p) -> DistSpec:
    return DistSpec(BERNOULLI, p)


def uniform_std() -> DistSpec:
    """Uniform on [-sqrt(3), sqrt(3)]: variance 1, all moments rational."""
    return DistSpec(UNIFORM_STD)


def poisson(lam) -> DistSpec:
    return DistSpec(POISSON, lam)


def exponential() -> DistSpec:
    return DistSpec(EXPONENTIAL)


def gamma_shape(a) -> DistSpec:
    return DistSpec(GAMMA_SHAPE, a)


def normal(sigma2=1) -> DistSpec:
    return DistSpec(NORMAL, sigma2)


def custom(moments) -> DistSpec:
    return DistSpec(CUSTOM, custom_moments=tuple(moments))


def moments_of(spec: DistSpec, order: int) -> MomentSeq:
    """Exact rational moments mu_0..mu_J for a catalog spec."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return _KINDS[spec.kind].moments(spec, order)


def abs_moments_of(spec: DistSpec, order: int) -> MomentSeq:
    """E |Y|^k where these are exact rationals; raises otherwise.

    Nonnegative catalog variants reuse their plain moments; point masses
    and Rademacher take absolute parameter values.  The standardized
    uniform and the normal have irrational odd absolute moments, and
    custom specs carry no support information.
    """
    abs_spec = _KINDS[spec.kind].abs_spec
    if abs_spec is None:
        raise UnsupportedSpecError(
            f"exact absolute moments are unavailable for {spec.kind!r}"
        )
    return moments_of(abs_spec(spec), order)


def beta_moments(r: int, order: int) -> MomentSeq:
    """Moments of beta(r) with density r(1-t)^{r-1} on [0,1]; beta(0) = 1.

    E beta(r)^k = k! r!/(k+r)! = 1/C(k+r, r), which is 1 at r = 0; the
    moments are built on numerators over the lcm of the C(k+r, r).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    binomials = [comb(k + r, r) for k in range(order + 1)]
    d = lcm(*binomials)
    return MomentSeq.from_numerators(d, [d // c for c in binomials], None)


def tilde_transform(m: MomentSeq) -> MomentSeq:
    """x^2-biased moments nu_k = mu_{k+2}/mu_2, dropping two orders.

    The degenerate mu_2 = 0 case maps to the point mass at 0.
    """
    if not m.is_real:
        raise DomainError("tilde transform is defined for real moment sequences")
    if m.order < 2:
        raise DomainError("tilde transform needs order >= 2")
    mu2 = m.re[2]  # mu_2's numerator, so nu_k = re[k+2]/re[2]
    if mu2 == 0:
        return moments_of(point_mass(0), m.order - 2)
    if mu2 < 0:
        raise DomainError("second moment must be nonnegative")
    return MomentSeq.from_numerators(mu2, m.re[2:], None)


def hat_transform(m: MomentSeq) -> MomentSeq:
    """Moments of Y + iZ for Z standard normal independent of Y.

    M_{Y+iZ}(z) = M_Y(z) M_{iZ}(z), a product of series, with
    E (iZ)^l = (-1)^{l/2} E Z^l for even l and 0 for odd l; those moments
    are integers, so real input yields a real output sequence.
    """
    z = moments_of(normal(), m.order)
    iz = [(-1) ** (l // 2) * x for l, x in enumerate(z.re)]
    product = egf_mul(m, EGFSeries.from_numerators(z.den, iz, None))
    return MomentSeq.from_numerators(product.den, product.re, product.im)


def vanishing_order(m: MomentSeq) -> int:
    """Largest r <= J with mu_1 = ... = mu_r = 0 (0 when mu_1 != 0)."""
    r = 0
    while r < m.order and not (m.re[r + 1] or m.im and m.im[r + 1]):
        r += 1
    return r


def standardize_moments(m: MomentSeq) -> MomentSeq:
    """Moments of (Y - mu_1)/sigma, exact; needs sigma rational.

    Raises DomainError when the variance is zero or has no rational
    square root, since the scaled odd moments would leave the rationals.
    """
    if not m.is_real:
        raise DomainError("standardization is defined for real moment sequences")
    if m.order < 2:
        raise DomainError("standardization needs order >= 2")
    # M(z) e^{-mu_1 z}, e^{-mu_1 z} being the MGF of the point mass at -mu_1
    J = m.order
    centered = egf_mul(m, moments_of(point_mass(-m[1].re), J))
    var = centered[2].re
    if var == 0:
        raise DomainError("cannot standardize a degenerate distribution")
    s, t = math.isqrt(abs(var.numerator)), math.isqrt(var.denominator)
    if var < 0 or s * s != var.numerator or t * t != var.denominator:
        raise DomainError("variance has no rational square root")
    # sigma = s/t: c_k / sigma^k is c_k times the k-th moment of the point mass at t/s
    scale = moments_of(point_mass(Fraction(t, s)), J)
    nums = list(map(mul, centered.re, scale.re))
    return MomentSeq.from_numerators(centered.den * scale.den, nums, None)


# --- samplers ---------------------------------------------------------------
#
# All samplers draw from a caller-owned random.Random instance so that a
# fixed seed fixes the entire stream.  A kind's ``draws(spec, random, size)``
# converts the exact parameter once and returns a lazy iterator of exactly
# ``size`` draws of Y over the rng's bound ``random`` method, which calls
# it only as each draw is read.  The normal sampler is Box-Muller on two
# uniforms; Poisson uses the product method; gamma sums whole
# exponentials and handles a fractional shape by beta rejection.


def sample_sums(spec: DistSpec, n: int, count: int, rng: random.Random) -> Iterator[float]:
    """Lazily, ``count`` successive draws of S_n = Y_1 + ... + Y_n from one rng.

    Each sum is ``sum()`` of the next n draws of Y, so the stream is fixed
    by the rng state, and ``count`` calls with count 1 on the same rng
    draw the same sums.  ``n`` and the spec are checked here, not when the
    iterator is first read.
    """
    if n < 1:
        raise ValueError("n must be positive")
    draws = _KINDS[spec.kind].draws
    if draws is None:
        raise UnsupportedSpecError(f"{spec.kind!r} specs cannot be sampled")
    # n references to one iterator: zip reads each sum's n draws in turn
    return map(sum, zip(*[draws(spec, rng.random, n * count)] * n))


# --- the distribution kinds -------------------------------------------------
# One record per kind holds all that the package knows of it.


def _products(c: Fraction, order: int, factors) -> MomentSeq:
    """mu_k = f_0 ... f_{k-1} / q^k, k = 0..order, over q^order, for ints f_i = factors(p, q), c = p/q."""
    nums = accumulate(islice(factors(c.numerator, c.denominator), order), mul, initial=1)
    scale = list(accumulate(repeat(c.denominator, order), mul, initial=1))  # q^0, ..., q^order
    return MomentSeq.from_numerators(scale[-1], list(map(mul, nums, reversed(scale))), None)


def _even(order: int, half: MomentSeq) -> MomentSeq:
    """The moments mu_{2i} = half[i], i = 0..order // 2, every odd moment being 0."""
    nums = [0] * (order + 1)
    nums[::2] = half.re
    return MomentSeq.from_numerators(half.den, nums, None)


def _uniform_std_moments(spec: DistSpec, order: int) -> MomentSeq:
    # mu_{2i} = 3^i / (2i + 1), over the lcm of the 2i + 1
    d = lcm(*range(1, order + 2, 2))
    half = [3**i * d // (2 * i + 1) for i in range(order // 2 + 1)]
    return _even(order, MomentSeq.from_numerators(d, half, None))


def _bernoulli_draws(spec: DistSpec, random: _Draw, size: int) -> Iterator[float]:
    # for a float u, u < p exactly iff u < t, the least float >= p; float(p)
    # alone could round below p and flip a draw on the boundary
    t = float(spec.param)
    if t < spec.param:
        t = math.nextafter(t, math.inf)
    return (1.0 if random() < t else 0.0 for _ in repeat(None, size))


def _poisson_draws(spec: DistSpec, random: _Draw, size: int) -> Iterator[float]:
    limit = math.exp(-float(spec.param))
    if limit < sys.float_info.min:  # a subnormal limit would stop every product near 745 factors
        raise UnsupportedSpecError(f"poisson rate {spec.param} cannot be sampled: exp(-lambda) underflows")
    return _product_counts(limit, random, size)


def _product_counts(limit: float, random: _Draw, size: int) -> Iterator[float]:
    for _ in repeat(None, size):
        k = 0.0  # counted in floats, exact below 2**53, so no draw needs float(k)
        p = random()
        while p > limit:
            k += 1.0
            p *= random()
        yield k


def _gamma_draws(spec: DistSpec, random: _Draw, size: int) -> Iterator[float]:
    whole, log = int(spec.param), math.log
    frac = float(spec.param - whole)
    # Johnk rejection for the fractional shape in (0,1), by its two exponents
    ex, ey = (1.0 / frac, 1.0 / (1.0 - frac)) if frac > 0.0 else (None, None)
    for _ in repeat(None, size):
        total = 0.0
        for _ in range(whole):
            total += -log(1.0 - random())
        if frac > 0.0:
            while True:
                x = random() ** ex
                y = random() ** ey
                if x + y <= 1.0:
                    break
            total += -log(1.0 - random()) * x / (x + y)
        yield total


def _normal_draws(spec: DistSpec, random: _Draw, size: int) -> Iterator[float]:
    # u1 = 1 - random() is drawn before u2 = random(), left to right
    sigma = math.sqrt(float(spec.param))
    return (sigma * math.sqrt(-2.0 * math.log(1.0 - random())) * math.cos(2.0 * math.pi * random())
            for _ in repeat(None, size))


def _custom_moments(spec: DistSpec, order: int) -> MomentSeq:
    m = spec.custom_moments
    _require(order <= m.order, "custom spec does not carry that many moments")
    return MomentSeq.from_numerators(m.den, m.re[: order + 1], m.im and m.im[: order + 1])


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ValueError(message)


def _check_custom(spec: DistSpec) -> None:
    _require(spec.custom_moments is not None, "custom spec needs a moment list")


class _Kind(NamedTuple):
    """How one distribution kind is parameterized, described and sampled."""

    moments: Callable[[DistSpec, int], MomentSeq]  # exact mu_0..mu_order
    key: Optional[str] = None  # the CLI's JSON and --param name of the rational parameter
    default: Optional[Fraction] = None  # the parameter when a spec omits its key
    check: Callable[[DistSpec], None] = lambda spec: None  # rejects a parameter off the domain
    abs_spec: Optional[Callable[[DistSpec], DistSpec]] = None  # |Y|, when E|Y|^k is rational
    # (spec, rng.random, size) -> a lazy iterator of size draws of Y; None: not samplable
    draws: Optional[Callable[[DistSpec, _Draw, int], Iterator[float]]] = None
    lattice: bool = False
    symmetric: Callable[[DistSpec], bool] = lambda spec: False
    moment_list: bool = False  # carries its moments (JSON "moments") instead of a parameter


_KINDS = {
    POINT_MASS: _Kind(
        lambda spec, order: _products(spec.param, order, lambda p, q: repeat(p)),
        key="c",
        abs_spec=lambda spec: point_mass(abs(spec.param)),
        draws=lambda spec, random, size: repeat(float(spec.param), size),
        lattice=True,
        symmetric=lambda spec: spec.param == 0,
    ),
    RADEMACHER: _Kind(
        lambda spec, order: MomentSeq.from_numerators(1, [1 - k % 2 for k in range(order + 1)], None),
        abs_spec=lambda spec: point_mass(1),
        draws=lambda spec, random, size: (1.0 if random() < 0.5 else -1.0 for _ in repeat(None, size)),
        lattice=True,
        symmetric=lambda spec: True,
    ),
    BERNOULLI: _Kind(
        # Y^k = Y: mu_k = p for k >= 1
        lambda spec, order: MomentSeq.from_numerators(
            spec.param.denominator, [spec.param.denominator] + [spec.param.numerator] * order, None),
        key="p",
        check=lambda spec: _require(
            0 <= spec.param <= 1, "bernoulli parameter must satisfy 0 <= p <= 1"
        ),
        abs_spec=lambda spec: spec,
        draws=_bernoulli_draws,
        lattice=True,
    ),
    UNIFORM_STD: _Kind(
        _uniform_std_moments,
        draws=lambda spec, random, size: (SQRT3 * (2.0 * random() - 1.0) for _ in repeat(None, size)),
        symmetric=lambda spec: True,
    ),
    POISSON: _Kind(
        # M(z) = exp(lambda (e^z - 1)): every cumulant is lambda
        lambda spec, order: CumulantSeq.from_numerators(1, (0,) + (1,) * order, None).moments(spec.param),
        key="lambda",
        check=lambda spec: _require(spec.param > 0, "poisson rate must be positive"),
        abs_spec=lambda spec: spec,
        draws=_poisson_draws,
        lattice=True,
    ),
    EXPONENTIAL: _Kind(
        lambda spec, order: _products(Fraction(1), order, lambda p, q: count(1)),
        abs_spec=lambda spec: spec,
        draws=lambda spec, random, size: (-math.log(1.0 - random()) for _ in repeat(None, size)),
    ),
    GAMMA_SHAPE: _Kind(
        # the rising factorial: mu_{k+1} = mu_k (a + k), (p + kq) / q for a = p/q
        lambda spec, order: _products(spec.param, order, lambda p, q: count(p, q)),
        key="a",
        check=lambda spec: _require(spec.param > 0, "gamma shape must be positive"),
        abs_spec=lambda spec: spec,
        draws=_gamma_draws,
    ),
    NORMAL: _Kind(
        # mu_{2i} = sigma2^i (2i - 1)!!, the products of (2i + 1) p / q for sigma2 = p/q
        lambda spec, order: _even(order, _products(spec.param, order // 2, lambda p, q: count(p, 2 * p))),
        key="sigma2",
        default=Fraction(1),
        check=lambda spec: _require(spec.param >= 0, "normal variance must be nonnegative"),
        draws=_normal_draws,
        symmetric=lambda spec: True,
    ),
    CUSTOM: _Kind(_custom_moments, check=_check_custom, moment_list=True),
}


def kind_record(name) -> _Kind:
    """The record of the distribution kind ``name``; ValueError for any other name."""
    if not (isinstance(name, str) and name in _KINDS):
        raise ValueError(f"unknown distribution kind {name!r}")
    return _KINDS[name]
