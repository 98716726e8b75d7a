import math
import random
from fractions import Fraction as F

import pytest

from pstirling.cli import MAX_RATIONAL_DIGITS, dist_from_json
from pstirling.levy import LevySpec, tstar_moments
from pstirling.powerseries import DomainError, EGFSeries, QC, egf_exp, egf_mul
from pstirling.randomvars import (
    DistSpec,
    MomentSeq,
    UnsupportedSpecError,
    abs_moments_of,
    bernoulli,
    beta_moments,
    custom,
    exponential,
    gamma_shape,
    hat_transform,
    kind_record,
    moments_of,
    normal,
    point_mass,
    poisson,
    rademacher,
    sample_sums,
    standardize_moments,
    tilde_transform,
    uniform_std,
    vanishing_order,
)
from pstirling.stirling import classical_s2

from oracles import (
    REFERENCE_SAMPLERS,
    beta_moment_integral,
    normal_even_moment,
    reference_sample_sums,
    shift_moments,
    touchard_moments,
)
from test_properties import unrelated_sequence

CATALOG = [
    point_mass(2),
    point_mass(F(-1, 3)),
    rademacher(),
    bernoulli(F(1, 2)),
    uniform_std(),
    poisson(1),
    poisson(F(3, 2)),
    exponential(),
    gamma_shape(F(5, 2)),
    normal(1),
    normal(F(1, 4)),
]


class TestMomentsOf:
    def test_normal_unit(self):
        assert [v.re for v in moments_of(normal(1), 6).coeffs] == [1, 0, 1, 0, 3, 0, 15]

    def test_exponential_factorials(self):
        assert [v.re for v in moments_of(exponential(), 4).coeffs] == [1, 1, 2, 6, 24]

    def test_uniform_std(self):
        # int_{-sqrt3}^{sqrt3} x^k dx/(2 sqrt3) = 3^{k/2}/(k+1) for even k
        assert [v.re for v in moments_of(uniform_std(), 6).coeffs] == [
            1, 0, 1, 0, F(9, 5), 0, F(27, 7),
        ]

    def test_point_mass_powers(self):
        assert [v.re for v in moments_of(point_mass(F(-2, 3)), 3).coeffs] == [
            1, F(-2, 3), F(4, 9), F(-8, 27),
        ]

    def test_poisson_touchard_vs_stirling_sum(self):
        # dual routes: recurrence vs sum_m S(k,m) lambda^m
        for lam in (F(1), F(3, 2)):
            mu = moments_of(poisson(lam), 8)
            for k in range(9):
                direct = sum(classical_s2(k, m) * lam**m for m in range(k + 1))
                assert mu[k] == direct
        assert [v.re for v in moments_of(poisson(1), 6).coeffs] == touchard_moments(1, 6)

    @pytest.mark.parametrize(
        "lam", [F(99999999999999999999, 7), F(3141592653589793239, 2718281828459045235)]
    )
    def test_poisson_exp_route_matches_touchard(self, lam):
        # moments_of takes exp of lambda (e^z - 1); the oracle runs the Touchard recurrence
        assert [v.re for v in moments_of(poisson(lam), 60).coeffs] == touchard_moments(lam, 60)

    @pytest.mark.parametrize(
        "lam", [F(3, 2), F(12345678901234567891, 98765432109876543211)]
    )
    def test_poisson_moments_skip_the_qc_round_trip(self, lam):
        # the series exp's numerators become the MomentSeq as they are; Record
        # equality compares the canonical fields with those of the QC rebuild
        exponent = EGFSeries.from_numerators(lam.denominator, (0,) + (lam.numerator,) * 60, None)
        rebuilt = MomentSeq(tuple(egf_exp(exponent).coeffs))
        assert moments_of(poisson(lam), 60) == rebuilt

    def test_gamma_rising_factorial(self):
        mu = moments_of(gamma_shape(F(5, 2)), 3)
        assert [v.re for v in mu.coeffs] == [1, F(5, 2), F(35, 4), F(315, 8)]
        assert moments_of(gamma_shape(1), 6).coeffs == moments_of(exponential(), 6).coeffs

    def test_catalog_exact_and_normalized(self):
        for spec in CATALOG:
            mu = moments_of(spec, 12)
            assert mu[0] == 1
            assert mu.is_real

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bernoulli(F(3, 2))
        with pytest.raises(ValueError):
            poisson(0)
        with pytest.raises(ValueError):
            gamma_shape(-1)
        with pytest.raises(ValueError):
            DistSpec("pointmass")
        with pytest.raises(ValueError):
            custom([F(2), F(1)])
        with pytest.raises(ValueError):
            custom([])
        with pytest.raises(ValueError, match="'lambda'"):
            dist_from_json({"dist": "poisson"})
        with pytest.raises(ValueError, match="'moments'"):
            dist_from_json({"dist": "custom"})
        with pytest.raises(ValueError, match="unknown"):
            dist_from_json({"dist": ["poisson"]})

    @pytest.mark.parametrize(
        "make, value",
        [(bernoulli, 0.3), (point_mass, 0.1), (bernoulli, "1/3"), (gamma_shape, "5/2"), (normal, 2.5)],
        ids=lambda x: getattr(x, "__name__", repr(x)),
    )
    def test_inexact_parameter_is_refused(self, make, value):
        # a float or str used to become a Fraction: 0.3 as 5404319552844595/2^54
        with pytest.raises(TypeError, match="exact"):
            make(value)

    def test_parameter_of_a_kind_without_one_is_refused(self):
        # DistSpec("rademacher", 3) used to be accepted, and unequal to rademacher()
        with pytest.raises(ValueError, match="rademacher spec takes no parameter"):
            DistSpec("rademacher", 3)

    def test_moment_list_of_a_kind_without_one_is_refused(self):
        # a rational kind's one parameter is a rational, and a custom spec's is its moment list
        with pytest.raises(TypeError, match="cannot build exact scalar from tuple"):
            DistSpec("poisson", (1, 2))
        with pytest.raises(TypeError, match="not iterable"):
            DistSpec("custom", F(1, 2))


# mu_0..mu_J of each kind as Fractions, by the textbook formulas
FRACTION_FORMULAS = {
    "pointmass": lambda c, J: [c**k for k in range(J + 1)],
    "rademacher": lambda c, J: [F(1 - k % 2) for k in range(J + 1)],
    "bernoulli": lambda p, J: [F(1)] + [p] * J,
    "uniformstd": lambda c, J: [F(3 ** (k // 2), k + 1) if k % 2 == 0 else F(0) for k in range(J + 1)],
    "exponential": lambda c, J: [F(math.factorial(k)) for k in range(J + 1)],
    "gamma": lambda a, J: [math.prod(a + i for i in range(k)) for k in range(J + 1)],
    "normal": lambda s2, J: [s2 ** (k // 2) * normal_even_moment(k) for k in range(J + 1)],
}


@pytest.mark.parametrize(
    "spec",
    CATALOG[:5] + CATALOG[7:]
    + [point_mass(0), bernoulli(0), bernoulli(1), bernoulli(F(3, 7)), gamma_shape(2),
       gamma_shape(F(1, 3)), normal(0), normal(F(9, 4))],
    ids=lambda spec: f"{spec.kind}({spec.param})",
)
def test_kind_moments_equal_the_fraction_formulas(spec):
    # every kind but Poisson (exp of its cumulants) builds its MomentSeq on numerators
    for J in range(61):
        mu = moments_of(spec, J)
        assert type(mu) is MomentSeq
        assert mu == MomentSeq(FRACTION_FORMULAS[spec.kind](spec.param, J)), J


# spec, --param/JSON key, lattice, symmetric, samplable, exact absolute moments
KIND_RECORDS = [
    (point_mass(0), "c", True, True, True, True),
    (point_mass(2), "c", True, False, True, True),
    (rademacher(), None, True, True, True, True),
    (bernoulli(F(1, 2)), "p", True, False, True, True),
    (uniform_std(), None, False, True, True, False),
    (poisson(1), "lambda", True, False, True, True),
    (exponential(), None, False, False, True, True),
    (gamma_shape(F(5, 2)), "a", False, False, True, True),
    (normal(1), "sigma2", False, True, True, False),
    (custom([1, 0, 1]), "moments", False, False, False, False),
]


def _supported(call) -> bool:
    try:
        call()
    except UnsupportedSpecError:
        return False
    return True


@pytest.mark.parametrize(
    "spec, key, lattice, symmetric, samplable, exact_abs",
    KIND_RECORDS,
    ids=[f"{row[0].kind}({row[0].param})" for row in KIND_RECORDS],
)
def test_kind_record(spec, key, lattice, symmetric, samplable, exact_abs):
    assert kind_record(spec.kind).key == key
    if key == "moments":
        assert dist_from_json({"dist": spec.kind, key: [str(mu.re) for mu in spec.param.coeffs]}) == spec
    elif key is not None:
        assert dist_from_json({"dist": spec.kind, key: str(spec.param)}) == spec
    assert (spec.lattice, spec.symmetric) == (lattice, symmetric)
    assert _supported(lambda: next(sample_sums(spec, 1, 1, random.Random(0)))) == samplable
    assert _supported(lambda: abs_moments_of(spec, 4)) == exact_abs
    assert type(moments_of(spec, 2)) is MomentSeq  # every kind's record builds the sequence


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: moments_of(rademacher(), -1), ValueError, "^order must be nonnegative$"),
        (lambda: beta_moments(-1, 3), ValueError, "^r must be nonnegative$"),
        (lambda: tilde_transform(MomentSeq([1, 0])), DomainError, "^tilde transform needs order >= 2$"),
        (lambda: tilde_transform(MomentSeq([1, 0, -1])), DomainError,
         "^second moment must be nonnegative$"),
        (lambda: standardize_moments(MomentSeq([1, QC(0, 1), 1])), DomainError,
         "^standardization is defined for real moment sequences$"),
    ],
    ids=["moments-order", "beta-r", "tilde-order", "tilde-mu2", "standardize-complex"],
)
def test_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestMomentSeq:
    """A MomentSeq is the EGFSeries of M(z), and a value of its own class."""

    @pytest.mark.parametrize(
        "mu", [(QC(1, 1), 0, 1), (2, 1), (F(1, 2),), (0, 1)], ids=repr
    )
    def test_mu0_must_be_one(self, mu):
        with pytest.raises(DomainError, match="^moment sequence must start with mu_0 = 1$"):
            MomentSeq(mu)

    @pytest.mark.parametrize("mu", [0, 1, None], ids=repr)
    def test_a_scalar_is_a_type_error(self, mu):
        # 0 and None were read as an empty list, and refused as not starting at mu_0 = 1
        with pytest.raises(TypeError):
            MomentSeq(mu)
        if mu is None:  # a custom spec refuses a missing list before it builds the sequence
            with pytest.raises(ValueError, match="^custom spec needs its parameter$"):
                DistSpec("custom", mu)
        else:
            with pytest.raises(TypeError):
                DistSpec("custom", mu)

    def test_an_empty_list_is_no_series(self):
        # it was refused as not starting at mu_0 = 1
        for build in (MomentSeq, lambda mu: DistSpec("custom", mu)):
            with pytest.raises(ValueError, match="^series needs at least the order-0 coefficient$") as raised:
                build([])
            assert type(raised.value) is ValueError

    @pytest.mark.parametrize(
        "den, re, im", [(1, (2,), None), (2, (1, 1), None), (1, (1, 0), (1, 0))], ids=repr
    )
    def test_mu0_is_checked_from_numerators_too(self, den, re, im):
        with pytest.raises(DomainError, match="mu_0 = 1"):
            MomentSeq.from_numerators(den, re, im)

    def test_values_compare_and_hash_apart(self):
        values = [(1, 0, 1), (1, 0, 2), (1, 1, 1), (1, QC(0, 1), 1), (1, 0, 1, 0), (1, F(1, 2))]
        seqs = [MomentSeq(mu) for mu in values]
        assert len(set(seqs)) == len({hash(s) for s in seqs}) == len(values)
        assert seqs == [MomentSeq(list(mu)) for mu in values]

    def test_built_from_numerators_as_from_coefficients(self):
        # hat_transform and levy.tstar_moments build from numerators what the
        # coefficient route MomentSeq(x.coeffs) builds
        i_z = EGFSeries([(-1) ** (l // 2) * normal_even_moment(l) for l in range(9)])  # E (iZ)^l
        complex_custom = custom([1, QC(F(1, 2), F(1, 3)), 2, QC(0, -1), F(5, 7), 0, 1, 0, 3])
        for spec in (*CATALOG, complex_custom):
            m = moments_of(spec, 8)
            hat = hat_transform(m)
            assert type(hat) is MomentSeq
            assert hat == MomentSeq(egf_mul(m, i_z).coeffs), spec
            if not m.is_real:
                continue
            w = F(5, 7) / (F(2, 3) + F(5, 7))
            for order in range(9):
                tm = tstar_moments(LevySpec(F(2, 3), F(5, 7), moments_of(spec, order)))
                assert type(tm) is MomentSeq
                assert tm == MomentSeq([1] + [w * m[k] for k in range(1, order + 1)]), (spec, order)

    def test_never_equals_its_series(self):
        for spec in CATALOG:
            m = moments_of(spec, 6)
            series = EGFSeries(m.coeffs)
            assert isinstance(m, EGFSeries) and (m.den, m.re, m.im) == (series.den, series.re, series.im)
            assert m != series and series != m


class TestTilde:
    def test_rademacher_fixed_point(self):
        m = moments_of(rademacher(), 8)
        assert tilde_transform(m).coeffs == moments_of(rademacher(), 6).coeffs

    def test_uniform_shift(self):
        m = moments_of(uniform_std(), 6)
        assert [v.re for v in tilde_transform(m).coeffs] == [1, 0, F(9, 5), 0, F(27, 7)]

    def test_degenerate_zero(self):
        m = moments_of(point_mass(0), 5)
        assert [v.re for v in tilde_transform(m).coeffs] == [1, 0, 0, 0]

    def test_biasing_identity(self):
        for spec in CATALOG:
            m = moments_of(spec, 10)
            nu = tilde_transform(m)
            mu2 = m[2].re
            for k in range(nu.order + 1):
                assert nu[k] * mu2 == m[k + 2]

    def test_complex_rejected(self):
        m = MomentSeq((QC(1), QC(0, 1), QC(1)))
        with pytest.raises(DomainError):
            tilde_transform(m)


class TestHat:
    def test_normal_vanishes(self):
        hat = hat_transform(moments_of(normal(1), 12))
        assert all(hat[k] == 0 for k in range(1, 13))

    def test_rademacher_values(self):
        hat = hat_transform(moments_of(rademacher(), 8))
        assert [v.re for v in hat.coeffs] == [1, 0, 0, 0, -2, 0, 16, 0, -132]

    def test_uniform_fourth(self):
        hat = hat_transform(moments_of(uniform_std(), 6))
        assert hat[4] == F(-6, 5)

    def test_real_output(self):
        for spec in CATALOG:
            assert hat_transform(moments_of(spec, 10)).is_real


class TestVanishingOrder:
    def test_examples(self):
        assert vanishing_order(moments_of(point_mass(1), 6)) == 0
        assert vanishing_order(moments_of(rademacher(), 6)) == 1
        assert vanishing_order(hat_transform(moments_of(uniform_std(), 8))) == 3

    def test_imaginary_parts_count(self):
        assert vanishing_order(MomentSeq((1, QC(0, 1), 1))) == 0
        assert vanishing_order(MomentSeq((1, 0, QC(0, F(-1, 2)), 1))) == 1

    def test_all_zero_sequence(self):
        assert vanishing_order(moments_of(point_mass(0), 6)) == 6

    def test_hat_matches_normal_matching(self):
        # the hat vanishing order equals the number of leading moments
        # shared with the standard normal, for standardized sources
        J = 10
        for spec in CATALOG:
            try:
                std = standardize_moments(moments_of(spec, J))
            except DomainError:
                continue
            hat = hat_transform(std)
            r = vanishing_order(hat)
            for k in range(1, r + 1):
                assert std[k].re == normal_even_moment(k)
            if r < J:
                assert std[r + 1].re != normal_even_moment(r + 1)


class TestBetaMoments:
    def test_first_moment_r2(self):
        assert beta_moments(2, 1)[1] == F(1, 3)

    def test_uniform_case(self):
        assert [v.re for v in beta_moments(1, 3).coeffs] == [1, F(1, 2), F(1, 3), F(1, 4)]

    def test_r0_all_ones(self):
        assert all(v == 1 for v in beta_moments(0, 5).coeffs)

    @pytest.mark.parametrize("r", [0, 2])
    def test_negative_order_is_refused(self, r):
        # it ended in DomainError("moment sequence must start with mu_0 = 1")
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            beta_moments(r, -1)

    def test_against_integral(self):
        for r in range(5):
            bm = beta_moments(r, 8)
            for k in range(9):
                assert bm[k] == beta_moment_integral(r, k)


class TestAbsMoments:
    def test_signed_point_mass(self):
        assert [v.re for v in abs_moments_of(point_mass(-2), 3).coeffs] == [1, 2, 4, 8]

    def test_nonnegative_reuse(self):
        assert abs_moments_of(exponential(), 6).coeffs == moments_of(exponential(), 6).coeffs

    def test_unavailable(self):
        with pytest.raises(UnsupportedSpecError):
            abs_moments_of(normal(1), 4)
        with pytest.raises(UnsupportedSpecError):
            abs_moments_of(uniform_std(), 4)


class TestStandardize:
    def test_poisson_unit(self):
        std = standardize_moments(moments_of(poisson(1), 6))
        assert std[1] == 0 and std[2] == 1

    def test_irrational_sigma_rejected(self):
        with pytest.raises(DomainError):
            standardize_moments(moments_of(poisson(F(1, 2)), 4))

    def test_order_below_two_rejected(self):
        # (1, 0) lacks mu_2; it is not a degenerate distribution
        for m in (MomentSeq((1,)), MomentSeq((1, 0)), MomentSeq((1, F(3, 7)))):
            with pytest.raises(DomainError, match="needs order >= 2"):
                standardize_moments(m)

    def test_recovers_x_from_affine_image(self):
        # X standardized with unrelated denominators; Y = c + s X, its moments by the oracle
        J, c, s = 40, F(-123456789, 98765431), F(271828183, 314159)
        tail = unrelated_sequence(4040, 2, False, J).coeffs[3:]
        x = [F(1), F(0), F(1)] + [v.re for v in tail]
        y = shift_moments([s**k * v for k, v in enumerate(x)], c)
        assert [v.re for v in standardize_moments(MomentSeq(tuple(y))).coeffs] == x


# The first six draws of Y from random.Random(2020), as float.hex.
GOLDEN_DRAWS = [
    (point_mass(F(-3, 2)), ["-0x1.8000000000000p+0"] * 6),
    (rademacher(), ["-0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0",
                    "-0x1.0000000000000p+0", "0x1.0000000000000p+0", "-0x1.0000000000000p+0"]),
    (bernoulli(F(1, 3)), ["0x0.0p+0", "0x1.0000000000000p+0"] + ["0x0.0p+0"] * 4),
    (uniform_std(), ["0x1.a87ee19d6375fp-2", "-0x1.20a2afd4e757fp+0", "0x1.dc2d41cc3f0aap-1",
                     "0x1.8b3ed3ff508f0p+0", "-0x1.6ea11df0d7f43p-4", "0x1.808e7253dcd59p+0"]),
    (poisson(F(3, 2)), ["0x1.0000000000000p+0", "0x1.0000000000000p+2", "0x1.0000000000000p+1",
                        "0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0"]),
    (exponential(), ["0x1.eef525568c43bp-1", "0x1.88cbc73749b9ap-3", "0x1.768c3f9f07465p+0",
                     "0x1.74e0cedd4bd56p+1", "0x1.4917d9a03a853p-1", "0x1.5b388bd6e3aa9p+1"]),
    (gamma_shape(F(5, 2)), ["0x1.6ceb1efa99179p+0", "0x1.b901ca73e7b7ap-1",
                            "0x1.3e4791e0f2923p+0", "0x1.0dd2bb416c724p+2",
                            "0x1.0699f2e7cb71dp+1", "0x1.7804cc2ed2ee0p+0"]),
    (normal(4), ["0x1.451a6d08da2bap+0", "0x1.9caac654bd47ap+1", "0x1.096357a64b59cp+1",
                 "-0x1.da01bf3a91727p+0", "0x1.1ae4ce9c5e528p-3", "-0x1.517104003f717p-1"]),
]

# every samplable kind, and gamma with a whole shape, a fractional one and both
SAMPLED_SPECS = [spec for spec, _ in GOLDEN_DRAWS] + [gamma_shape(2), gamma_shape(F(1, 2))]


class TestSamplers:
    def test_point_mass_deterministic(self):
        rng = random.Random(1)
        assert next(sample_sums(point_mass(F(3, 2)), 4, 1, rng)) == 6.0

    def test_rademacher_support(self):
        rng = random.Random(2)
        for _ in range(50):
            v = next(sample_sums(rademacher(), 5, 1, rng))
            assert v in {-5.0, -3.0, -1.0, 1.0, 3.0, 5.0}

    def test_bernoulli_compares_exactly(self):
        # float(1/3) lies below 1/3, so a draw of exactly that value is a success
        class FixedDraw:
            def random(self):
                return float(F(1, 3))

        assert next(sample_sums(bernoulli(F(1, 3)), 1, 1, FixedDraw())) == 1.0
        assert next(sample_sums(bernoulli(F(2, 3)), 1, 1, FixedDraw())) == 1.0
        assert next(sample_sums(bernoulli(F(1, 4)), 1, 1, FixedDraw())) == 0.0

    def test_seed_determinism(self):
        a = [next(sample_sums(normal(1), 1, 1, random.Random(99))) for _ in range(3)]
        b = [next(sample_sums(normal(1), 1, 1, random.Random(99))) for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize(
        "spec, expected", GOLDEN_DRAWS, ids=[spec.kind for spec, _ in GOLDEN_DRAWS]
    )
    def test_golden_stream(self, spec, expected):
        # The seeded Monte Carlo reports repeat only while these draws do.
        # Sums are compared with sum() of the pinned draws, because sum()
        # rounds differently from Python 3.12 on.
        rng = random.Random(2020)
        assert [next(sample_sums(spec, 1, 1, rng)).hex() for _ in expected] == expected
        draws = [float.fromhex(h) for h in expected]
        rng = random.Random(2020)
        sums = [next(sample_sums(spec, 3, 1, rng)) for _ in range(2)]
        assert sums == [sum(draws[:3]), sum(draws[3:])]

    def test_custom_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            next(sample_sums(custom([1, 0, 1]), 2, 1, random.Random(0)))

    @pytest.mark.parametrize("count", [0, 1, 5])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("spec", [spec for spec, _ in GOLDEN_DRAWS], ids=lambda s: s.kind)
    def test_sample_sums_equal_sample_sum_calls(self, spec, n, count):
        rng, twin = random.Random(2020), random.Random(2020)
        sums = list(sample_sums(spec, n, count, rng))
        assert sums == [next(sample_sums(spec, n, 1, twin)) for _ in range(count)]
        # both consumed exactly n * count draws of Y
        assert rng.random() == twin.random()

    def test_sample_sums_checks_on_call(self):
        # raised by the call itself, before the iterator is read
        with pytest.raises(UnsupportedSpecError):
            sample_sums(custom([1, 0, 1]), 2, 5, random.Random(0))
        with pytest.raises(ValueError, match="n must be positive"):
            sample_sums(rademacher(), 0, 5, random.Random(0))

    @pytest.mark.parametrize("lam", [709, 800, 2000, F(10**20 - 1, 7), 10**400])
    def test_a_poisson_rate_past_the_float_range_is_refused_on_call(self, lam):
        # exp(-lambda) is subnormal or 0.0 there, so every product stopped near 745 factors:
        # poisson(800) drew a mean of 746.9, and poisson(2000) the same stream; float(10**400)
        # raised OverflowError before the refusal
        with pytest.raises(UnsupportedSpecError, match=f"^poisson rate {lam} cannot be sampled"):
            sample_sums(poisson(lam), 1, 2000, random.Random(3))
        assert moments_of(poisson(lam), 2)[1] == lam  # exact moments take any rate

    def test_a_poisson_rate_within_the_float_range_samples(self):
        draws = list(sample_sums(poisson(708), 1, 400, random.Random(3)))
        assert abs(sum(draws) / 400 - 708) <= 6 * math.sqrt(708 / 400)

    def test_sample_sums_draw_on_demand(self):
        rng, twin = random.Random(4), random.Random(4)
        sums = sample_sums(uniform_std(), 2, 1000, rng)
        assert next(sums) == next(sample_sums(uniform_std(), 2, 1, twin))
        # the first sum has taken two draws, not the 2000 of the whole batch
        assert rng.random() == twin.random()

    def test_the_reference_samples_every_samplable_kind(self):
        samplable = {row[0].kind for row in KIND_RECORDS if row[4]}
        assert {spec.kind for spec in SAMPLED_SPECS} == set(REFERENCE_SAMPLERS) == samplable

    @pytest.mark.parametrize("count", [0, 1, 7, 20])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=lambda s: f"{s.kind}({s.param})")
    def test_sample_sums_equal_the_per_draw_reference(self, spec, n, count):
        # each sum is sum() of the same n draws, and the rng is left where one call per draw leaves it
        rng, twin = random.Random(2020 + n), random.Random(2020 + n)
        sums = [s.hex() for s in sample_sums(spec, n, count, rng)]
        assert sums == [s.hex() for s in reference_sample_sums(spec, n, count, twin)]
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize(
        "spec",
        [
            rademacher(),
            bernoulli(F(1, 3)),
            uniform_std(),
            poisson(F(3, 2)),
            exponential(),
            gamma_shape(F(5, 2)),
            normal(F(4)),
        ],
        ids=lambda s: s.kind,
    )
    def test_first_two_moments_at_4_sigma(self, spec):
        n_samples = 100_000
        rng = random.Random(31)
        mu = moments_of(spec, 4)
        draws = [next(sample_sums(spec, 1, 1, rng)) for _ in range(n_samples)]
        for k in (1, 2):
            mean_k = sum(v**k for v in draws) / n_samples
            sd = math.sqrt(float(mu[2 * k].re - mu[k].re ** 2))
            assert abs(mean_k - float(mu[k].re)) <= 4 * sd / math.sqrt(n_samples)

    def test_uniform_sum_mean(self):
        # CLT error bar at 4 standard deviations for the mean of S_4
        n_samples = 200_000
        rng = random.Random(8)
        total = sum(next(sample_sums(uniform_std(), 4, 1, rng)) for _ in range(n_samples))
        assert abs(total / n_samples) <= 4 * math.sqrt(4 / n_samples)


class TestJson:
    def test_round_trip(self):
        # the wire form of each catalog spec parses back to that spec
        wire = [
            {"dist": "pointmass", "c": "2"},
            {"dist": "pointmass", "c": "-1/3"},
            {"dist": "rademacher"},
            {"dist": "bernoulli", "p": "1/2"},
            {"dist": "uniformstd"},
            {"dist": "poisson", "lambda": "1"},
            {"dist": "poisson", "lambda": "3/2"},
            {"dist": "exponential"},
            {"dist": "gamma", "a": "5/2"},
            {"dist": "normal", "sigma2": "1"},
            {"dist": "normal", "sigma2": "1/4"},
        ]
        assert [dist_from_json(data) for data in wire] == CATALOG

    def test_custom_complex_round_trip(self):
        moments = ["1", {"re": "0", "im": "1/2"}, {"re": "-2/3", "im": "1"}]
        spec = custom([QC(1), QC(0, F(1, 2)), QC(F(-2, 3), 1)])
        assert dist_from_json({"dist": "custom", "moments": moments}) == spec

    def test_rationals_as_strings(self):
        # "p/q" strings, plain decimals and JSON ints
        assert dist_from_json({"dist": "bernoulli", "p": "1/2"}) == bernoulli(F(1, 2))
        assert dist_from_json({"dist": "bernoulli", "p": "0.25"}) == bernoulli(F(1, 4))
        assert dist_from_json({"dist": "poisson", "lambda": "3/2"}) == poisson(F(3, 2))
        assert dist_from_json({"dist": "poisson", "lambda": 2}) == poisson(2)
        top = "9" * MAX_RATIONAL_DIGITS
        assert dist_from_json({"dist": "poisson", "lambda": f"{top}/7"}) == poisson(F(int(top), 7))
