import pickle
import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from pstirling.levy import (
    LevySpec,
    SubordinatorSpec,
    cm_coefficients,
    compensated_unit_jump,
    gamma_subordinator,
    gaussian_part_only,
    levy_cumulant,
    levy_moment_g,
    levy_process_moments,
    poisson_subordinator,
    subordinator_moment_h,
    tstar_moments,
)
from pstirling import levy
from pstirling.cli import process_from_json
from pstirling.moments import cumulants_oracle
from pstirling.powerseries import QC, EGFSeries
from pstirling.randomvars import MomentSeq, moments_of, poisson
from pstirling.stirling import ladder

from oracles import (
    fraction_product_levy_coefficients,
    gamma_raw_moments,
    normal_even_moment,
    schoolbook_egf_exp,
    shift_moments,
    touchard_moments,
)
from test_powerseries import count_row_builds

TIMES = [F(1, 2), F(1), F(5)]


def centered_poisson_moments(t, order):
    return shift_moments(touchard_moments(t, order), -t)


def centered_gamma_moments(t, order):
    return shift_moments(gamma_raw_moments(t, order), -t)


class TestTstar:
    def test_no_gaussian_part(self):
        spec = LevySpec(0, 1, MomentSeq([F(1), F(2), F(5), F(14)]))
        tm = tstar_moments(spec, 3)
        assert [v.re for v in tm.coeffs] == [1, 2, 5, 14]

    def test_equal_parts_halve(self):
        spec = LevySpec(1, 1, MomentSeq([F(1), F(2), F(5), F(14)]))
        tm = tstar_moments(spec, 3)
        assert [v.re for v in tm.coeffs] == [1, 1, F(5, 2), 7]

    def test_zeroth_stays_one(self):
        spec = LevySpec(3, 2, MomentSeq([F(1), F(2)]))
        assert tstar_moments(spec, 1)[0] == 1

    def test_negative_order_is_refused(self):
        # it sliced from the end: order -3 of the order-4 sequence gave order 2
        with pytest.raises(ValueError, match="order must be nonnegative"):
            tstar_moments(compensated_unit_jump(4), -3)

    def test_an_order_past_u_is_refused(self):
        spec = compensated_unit_jump(4)
        assert tstar_moments(spec, 4).order == 4
        with pytest.raises(ValueError, match="^U moments do not reach the requested order$"):
            tstar_moments(spec, 5)


class TestLevyMoments:
    def test_unit_jump_small_orders(self):
        spec = compensated_unit_jump(8)
        for t in TIMES:
            assert levy_moment_g(spec, 3, t) == 1
            assert levy_moment_g(spec, 4, t) == 3 + 1 / t
            assert levy_moment_g(spec, 0, t) == 1
            assert levy_moment_g(spec, 1, t) == 0
            assert levy_moment_g(spec, 2, t) == 1

    def test_unit_jump_matches_centered_poisson(self):
        # Y(t) is a compensated Poisson(t) process
        spec = compensated_unit_jump(10)
        for t in TIMES:
            reference = centered_poisson_moments(t, 8)
            computed = levy_process_moments(spec, 8, t)
            assert [v.re for v in computed.coeffs] == reference

    def test_gaussian_only(self):
        spec = gaussian_part_only(10, F(1, 2), F(1, 3))
        var = F(1, 2) + F(1, 3)
        for j in range(11):
            g = levy_moment_g(spec, j, F(2))
            if j % 2:
                assert g == 0
            else:
                assert g == var ** (j // 2) * normal_even_moment(j)

    def test_float_time(self):
        spec = compensated_unit_jump(8)
        assert levy_moment_g(spec, 4, 2.0) == pytest.approx(3.5)

    @pytest.mark.parametrize("t", ["1/2", "1e5000000"])
    def test_str_time_is_a_type_error(self, t):
        # "1/2" returned g_4(1/2) = 5, and "1e5000000" built a 16.6-million-bit int first
        spec = compensated_unit_jump(8)
        with pytest.raises(TypeError):
            levy_moment_g(spec, 4, t)
        with pytest.raises(TypeError):
            levy_process_moments(spec, 4, t)
        assert levy_moment_g(spec, 4, 0.5) == levy_moment_g(spec, 4, F(1, 2)) == 5

    def test_rejects_bad_time(self):
        spec = compensated_unit_jump(8)
        with pytest.raises(ValueError):
            levy_moment_g(spec, 3, F(-1))
        for t in (0, F(-1, 3)):  # the levy command relies on this check
            with pytest.raises(ValueError, match="^t must be positive$"):
                levy_process_moments(spec, 4, t)


class TestSubordinatorMoments:
    def test_poisson_process(self):
        spec = poisson_subordinator(8)
        for t in TIMES:
            assert subordinator_moment_h(spec, 3, t) == 1
            assert subordinator_moment_h(spec, 4, t) == 3 + 1 / t

    def test_poisson_matches_touchard(self):
        spec = poisson_subordinator(10)
        for t in TIMES:
            reference = centered_poisson_moments(t, 8)
            computed = levy_process_moments(spec, 8, t)
            assert [v.re for v in computed.coeffs] == reference

    def test_gamma_process(self):
        spec = gamma_subordinator(10)
        for t in TIMES:
            assert subordinator_moment_h(spec, 3, t) == 2
            reference = centered_gamma_moments(t, 8)
            computed = levy_process_moments(spec, 8, t)
            assert [v.re for v in computed.coeffs] == reference

    def test_trivial_orders(self):
        spec = gamma_subordinator(6)
        assert subordinator_moment_h(spec, 0, F(3)) == 1
        assert subordinator_moment_h(spec, 1, F(3)) == 0


@pytest.mark.parametrize(
    "moment",
    [lambda j: levy_moment_g(compensated_unit_jump(8), j, F(1, 2)),
     lambda j: subordinator_moment_h(gamma_subordinator(8), j, F(1, 2)),
     lambda j: cm_coefficients(gamma_subordinator(8), j)],
    ids=["g", "h", "cm"],
)
def test_negative_j_is_refused(moment):
    with pytest.raises(ValueError, match="indices must be nonnegative"):
        moment(-1)


@pytest.mark.parametrize(
    "spec", [compensated_unit_jump(8), gamma_subordinator(8)], ids=["levy", "subordinator"]
)
def test_negative_order_is_refused(spec):
    # it ended in DomainError("moment sequence must start with mu_0 = 1")
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        levy_process_moments(spec, -1, F(1, 2))
    # order 0 is the boundary that is served: E Y(t)^0 = 1
    assert levy_process_moments(spec, 0, F(1, 2)) == MomentSeq([1])


class TestCompleteMonotonicity:
    def test_poisson_fourth(self):
        assert cm_coefficients(poisson_subordinator(8), 4) == [1, 3]

    def test_gamma_third(self):
        assert cm_coefficients(gamma_subordinator(8), 3) == [2]

    def test_gaussian_single_term(self):
        spec = gaussian_part_only(12, 1, 1)
        for jp in range(1, 6):
            coeffs = cm_coefficients(spec, 2 * jp)
            assert coeffs[:-1] == [0] * (jp - 1)
            assert coeffs[-1] == 2**jp * normal_even_moment(2 * jp)

    def test_nonnegative_catalog(self):
        for spec in (poisson_subordinator(10), gamma_subordinator(10)):
            for j in range(2, 11):
                assert all(c >= 0 for c in cm_coefficients(spec, j))
        for spec in (compensated_unit_jump(10), gaussian_part_only(10, 1, 2)):
            for j in range(2, 11, 2):
                assert all(c >= 0 for c in cm_coefficients(spec, j))

    def test_levy_odd_rejected(self):
        with pytest.raises(ValueError):
            cm_coefficients(compensated_unit_jump(8), 3)

    def test_a_levy_spec_builds_the_rows_of_g_once(self, monkeypatch):
        """The spec keeps one T sequence, so every j reads one ladder and G builds its rows once."""
        spec = LevySpec(F(1, 2), F(3, 4), MomentSeq(random_tail(43, 20, signed=True)))
        assert spec._t == tstar_moments(spec, 20) and spec._t._kept is None
        builds = count_row_builds(monkeypatch)
        for j in range(2, 21, 2):
            cm_coefficients(spec, j)
            levy_moment_g(spec, j, F(2, 3))
        assert len(builds) == 1 and builds[0] is ladder(spec._t, 0, 2).rung(1)
        # a copy is rebuilt through LevySpec, which builds its own T
        twin = pickle.loads(pickle.dumps(spec))
        assert twin == spec and twin._t == spec._t and twin._t is not spec._t


def nineteen_digit_tstar(seed, order):
    """A subordinator whose T* moments are seeded nonnegative 19-digit rationals, tau^2 = 3/7."""
    rng = random.Random(seed)
    digits = range(10**18, 10**19)
    return SubordinatorSpec(F(3, 7), MomentSeq([1] + [F(rng.choice(digits), rng.choice(digits))
                                                      for _ in range(order)]))


@pytest.mark.parametrize(
    "build",
    [poisson_subordinator, gamma_subordinator,
     lambda order: LevySpec(F(1, 2), F(3, 4), MomentSeq(random_tail(44, order, signed=True))),
     lambda order: nineteen_digit_tstar(19, order)],
    ids=["poisson", "gamma", "levy-spec", "19-digit-tstar"],
)
def test_coefficients_equal_the_fraction_products(build):
    """Each coefficient, read off the numerators in one reduction, is the Fraction-product value."""
    spec = build(12)
    for j in range(13):
        expected = fraction_product_levy_coefficients(spec, j)
        got = levy._moment_coefficients(spec, j)
        assert got == expected and len(got) == j // 2 + 1, j
        for c, e in zip(got, expected):
            assert type(c) is F and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1
            assert (c.numerator, c.denominator, hash(c), repr(c)) == (e.numerator, e.denominator,
                                                                       hash(e), repr(e))
        if isinstance(spec, SubordinatorSpec) or j % 2 == 0:
            assert cm_coefficients(spec, j) == expected[1:]
        for t in TIMES:
            g = sum(c * t ** (m - j // 2) for m, c in enumerate(expected))
            assert levy_moment_g(spec, j, t) == g
            if isinstance(spec, SubordinatorSpec):
                assert subordinator_moment_h(spec, j, t) == g


def moments_by_cumulants(var2, tail, t, order):
    """E Z(t)^j, j <= order, for the centered process with kappa_1 = 0 and
    kappa_i = t var2 E T^{i-2} (i >= 2): the coefficients of exp of the cumulant series."""
    kappa = [0, 0] + [t * var2 * tail[i - 2] for i in range(2, order + 1)]
    return [c.as_fraction() for c in schoolbook_egf_exp(EGFSeries(kappa))]


def random_tail(seed, order, signed):
    """E T^0 = 1, then random rationals, nonnegative unless signed."""
    rng = random.Random(seed)
    return [F(1)] + [F(rng.randint(-9 if signed else 0, 9), rng.randint(1, 9)) for _ in range(order)]


class TestAgainstCumulants:
    # every j <= ORDER, so one ladder is read at every order up to ORDER - 2
    ORDER = 40

    def check(self, fn, spec, var2, tail, t):
        reference = moments_by_cumulants(var2, tail, t, self.ORDER)
        for j in range(self.ORDER + 1):
            assert fn(spec, j, t) * t ** (j // 2) == reference[j], j
        assert list(levy_process_moments(spec, self.ORDER, t).coeffs) == reference

    @pytest.mark.parametrize("build", [gamma_subordinator, poisson_subordinator])
    def test_named_subordinators(self, build):
        spec = build(self.ORDER - 2)
        tail = [spec.tstar_moments[k].as_fraction() for k in range(self.ORDER - 1)]
        self.check(subordinator_moment_h, spec, spec.tau2, tail, F(2, 7))

    def test_custom_subordinator(self):
        tail = random_tail(41, self.ORDER - 2, signed=False)
        spec = SubordinatorSpec(F(5, 3), MomentSeq(tail))
        self.check(subordinator_moment_h, spec, F(5, 3), tail, F(9, 4))

    def test_levy_process(self):
        u = random_tail(42, self.ORDER - 2, signed=True)
        spec = LevySpec(F(1, 2), F(3, 4), MomentSeq(u))
        w = F(3, 4) / (F(1, 2) + F(3, 4))
        tail = [F(1)] + [w * x for x in u[1:]]
        self.check(levy_moment_g, spec, F(1, 2) + F(3, 4), tail, F(3, 5))

    def test_orders_past_the_sequence_raise(self):
        # j - 2 may reach the sequence order 5, not pass it
        sub, proc = gamma_subordinator(5), compensated_unit_jump(5)
        tail = [F(factorial(k + 1)) for k in range(6)]
        assert len(cm_coefficients(sub, 7)) == 3
        assert subordinator_moment_h(sub, 7, F(1)) == moments_by_cumulants(1, tail, F(1), 7)[7]
        assert levy_moment_g(proc, 7, F(1)) == moments_by_cumulants(1, [F(1)] * 6, F(1), 7)[7]
        for fn, spec, message in [
            (cm_coefficients, sub, "moment sequence does not reach the requested order"),
            (lambda s, j: subordinator_moment_h(s, j, F(1)), sub,
             "moment sequence does not reach the requested order"),
            (cm_coefficients, proc, "U moments do not reach the requested order"),
            (lambda s, j: levy_moment_g(s, j, F(1)), proc, "U moments do not reach the requested order"),
            (lambda s, j: levy_cumulant(s, j, F(1)), sub,
             "moment sequence does not reach the requested order"),
            (lambda s, j: levy_cumulant(s, j, F(1)), proc, "U moments do not reach the requested order"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(spec, 8)


class TestLevyCumulant:
    def test_unit_jump_all_t(self):
        spec = compensated_unit_jump(10)
        for t in TIMES:
            for j in range(2, 9):
                assert levy_cumulant(spec, j, t) == t

    def test_gaussian_only(self):
        spec = gaussian_part_only(8, 2, 1)
        assert levy_cumulant(spec, 2, F(3)) == 9
        for j in range(3, 8):
            assert levy_cumulant(spec, j, F(3)) == 0

    def test_second_cumulant_generic(self):
        spec = LevySpec(F(1, 2), F(3, 2), MomentSeq([F(1), F(4), F(20)]))
        assert levy_cumulant(spec, 2, F(7)) == 14

    def test_matches_series_log(self):
        # the moments of the paper's 1/t-polynomials: levy_process_moments is exp of these cumulants
        for spec in [compensated_unit_jump(10), gamma_subordinator(10), poisson_subordinator(10)]:
            for t in TIMES:
                mu = MomentSeq([levy_moment_g(spec, j, t) * t ** (j // 2) for j in range(9)])
                kappa = cumulants_oracle(mu)
                for j in range(2, 9):
                    assert kappa.kappa[j - 1] == levy_cumulant(spec, j, t)

    def test_non_spec_is_a_type_error(self):
        # levy_cumulant raised AttributeError here, as it did on a subordinator
        for fn in (levy_cumulant, levy_moment_g):
            with pytest.raises(TypeError, match="^spec must be a LevySpec or SubordinatorSpec$"):
                fn(MomentSeq([F(1), F(0), F(1)]), 2, F(1))

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            levy_cumulant(compensated_unit_jump(4), 1, F(1))

    @pytest.mark.parametrize("t", [-1, 0, F(-1, 3)])
    def test_nonpositive_t_rejected(self, t):
        # as levy_moment_g and subordinator_moment_h do; it returned -1 at t = -1
        with pytest.raises(ValueError, match="^t must be positive$"):
            levy_cumulant(compensated_unit_jump(8), 5, t)


class TestConsistency:
    def test_levy_equals_subordinator_when_nonnegative(self):
        # sigma^2 = 0 and nonnegative U make T nonnegative, so the g and h
        # routes describe the same process
        u = MomentSeq([F(1), F(2), F(6), F(24), F(120), F(720), F(5040)])
        levy = LevySpec(0, F(3, 4), u)
        tm = tstar_moments(levy, 6)
        sub = SubordinatorSpec(F(3, 4), tm)
        for t in TIMES:
            for j in range(7):
                assert levy_moment_g(levy, j, t) == subordinator_moment_h(sub, j, t)


class TestValidationAndJson:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LevySpec(-1, 1, MomentSeq([F(1)]))
        with pytest.raises(ValueError):
            LevySpec(0, 0, MomentSeq([F(1)]))
        with pytest.raises(ValueError):
            SubordinatorSpec(1, MomentSeq([F(1), F(-2)]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda m: LevySpec(0.1, 1, m),
            lambda m: LevySpec(0, "1/2", m),
            lambda m: SubordinatorSpec(0.5, m),
        ],
        ids=["sigma2-float", "kappa2-str", "tau2-float"],
    )
    def test_inexact_parameter_is_refused(self, build):
        # LevySpec(0.1, ...) used to hold sigma2 = 3602879701896397/2^55
        with pytest.raises(TypeError, match="exact"):
            build(MomentSeq([1, 1]))

    def test_round_trips(self):
        levy = LevySpec(F(1, 2), F(3, 2), MomentSeq([F(1), F(4), F(20)]))
        data = {"sigma2": "1/2", "kappa2": "3/2", "u_moments": ["1", "4", "20"]}
        assert process_from_json(data, 2) == levy
        data = {"tau2": "1", "tstar_moments": ["1", "2", "6", "24", "120"]}
        assert process_from_json(data, 4) == gamma_subordinator(4)

    def test_moments_past_the_order_are_checked_then_cut(self):
        data = {"tau2": "1", "tstar_moments": ["1", "2", "6", "24", "120"]}
        assert process_from_json(data, 2) == gamma_subordinator(2)
        assert process_from_json(data, 9) == gamma_subordinator(4)  # nothing to cut
        data = {"sigma2": "0", "kappa2": "1", "u_moments": ["1", "1/2", "3"]}
        assert process_from_json(data, 1) == LevySpec(0, 1, MomentSeq([F(1), F(1, 2)]))
        for data, message in [
            ({"tau2": "1", "tstar_moments": ["1", "2", "-6"]}, "T\\* moments must be nonnegative"),
            ({"tau2": "1", "tstar_moments": ["1", "2", "x"]}, "tstar_moments entry"),
            ({"sigma2": "0", "kappa2": "1", "u_moments": ["1", "0", "1+"]}, "u_moments entry"),
        ]:
            with pytest.raises(ValueError, match=message):
                process_from_json(data, 1)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LevySpec(0, 1, MomentSeq([1, QC(1, 1)])), "^U must be real-valued$"),
            (lambda: SubordinatorSpec(-1, MomentSeq([1, 2])), "^tau2 must be nonnegative$"),
            (lambda: SubordinatorSpec(1, MomentSeq([1, QC(2, 1)])), "^T\\* must be real-valued$"),
        ],
        ids=["complex-U", "negative-tau2", "complex-T*"],
    )
    def test_refusal_names_its_fault(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_zero_variances_are_accepted(self):
        # zero is the boundary of the nonnegative variances: tau2 = 0 and sigma2 = 0 are specs
        sub = SubordinatorSpec(0, MomentSeq([1, 2]))
        assert sub.tau2 == 0 and levy_cumulant(sub, 2, 1) == 0
        assert LevySpec(0, 1, MomentSeq([1, 2])).sigma2 == 0

    def test_gaussian_builder_defaults_to_unit_variances(self):
        spec = gaussian_part_only(4)
        assert (spec.sigma2, spec.kappa2) == (1, 1) and spec == gaussian_part_only(4, 1, 1)

    def test_gamma_builder_moments(self):
        sub = gamma_subordinator(5)
        assert [v.re for v in sub.tstar_moments.coeffs] == [factorial(k + 1) for k in range(6)]

    def test_bad_json(self):
        with pytest.raises(ValueError):
            process_from_json({"sigma2": "1"}, 4)
