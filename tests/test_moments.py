import tracemalloc
from fractions import Fraction as F
from math import perm

import pytest

from pstirling.moments import (
    CumulantSeq,
    cumulants_from_stirling,
    cumulants_from_sum_moments,
    cumulants_oracle,
    even_moment_sequence,
    sum_moment,
    sum_moment_egf,
    sum_moment_recursion,
)
from pstirling.randomvars import (
    MomentSeq,
    bernoulli,
    custom,
    exponential,
    moments_of,
    normal,
    point_mass,
    poisson,
    rademacher,
    uniform_std,
)
from pstirling.powerseries import QC, DomainError
from pstirling.stirling import psn_egf

from oracles import (
    RADEMACHER_SUPPORT,
    enum_sum_moment,
    normal_even_moment,
    shift_moments,
    touchard_moments,
)
from test_properties import unrelated_sequence

SPECS = [
    point_mass(1),
    rademacher(),
    bernoulli(F(1, 2)),
    uniform_std(),
    poisson(1),
    exponential(),
    normal(1),
]


class TestSumMoment:
    def test_rademacher_closed_form(self):
        m = moments_of(rademacher(), 4)
        for n in range(21):
            assert sum_moment(m, n, 4) == 3 * n**2 - 2 * n
        assert sum_moment(m, 3, 4) == enum_sum_moment(RADEMACHER_SUPPORT, 3, 4)

    def test_zeroth_moment(self):
        for spec in SPECS:
            assert sum_moment(moments_of(spec, 4), 5, 0) == 1

    def test_poisson_additivity(self):
        # S_2 for Poisson(1) is Poisson(2)
        m = moments_of(poisson(1), 6)
        poisson2 = touchard_moments(2, 6)
        for j in range(7):
            assert sum_moment(m, 2, j) == poisson2[j]
        assert sum_moment(m, 2, 2) == 6

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_equals_egf_route(self, spec):
        m = moments_of(spec, 8)
        for j in range(9):
            for n in range(13):
                assert sum_moment(m, n, j) == sum_moment_egf(m, n, j)

    def test_r_override(self):
        m = moments_of(rademacher(), 8)
        for j in range(9):
            for n in range(9):
                assert sum_moment(m, n, j, r=0) == sum_moment(m, n, j, r=1)
        with pytest.raises(ValueError):
            sum_moment(m, 3, 4, r=2)

    def test_negative_r_is_refused(self):
        # r = -2 used to give QC(0) for E S_3^4 = 21, and r = -1 a ZeroDivisionError
        m = moments_of(rademacher(), 8)
        for r in (-1, -2):
            with pytest.raises(ValueError, match="r must be nonnegative"):
                sum_moment(m, 3, 4, r=r)

    def test_negative_j_is_refused(self):
        m = moments_of(rademacher(), 8)
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            sum_moment(m, 3, -1)

    def test_egf_route_refuses_negative_j(self):
        m = moments_of(rademacher(), 8)
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            sum_moment_egf(m, 3, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: sum_moment(m, -1, 2), "^n must be nonnegative$"),
        (lambda m: sum_moment_egf(m, -1, 2), "^n must be nonnegative$"),
        (lambda m: sum_moment_egf(m, 3, 5), "^j exceeds the available moment order$"),
        (lambda m: even_moment_sequence(MomentSeq([1, QC(0, 1), 1]), 1, 3), "needs real moments"),
        (lambda m: even_moment_sequence(m, 3, 5), "^2j exceeds the available moment order$"),
    ],
    ids=["sum-n", "egf-n", "egf-j", "even-complex", "even-2j"],
)
def test_refusal_names_its_fault(call, message):
    # sum_moment_egf(m, -1, j) raised DomainError from inside egf_pow
    with pytest.raises(ValueError, match=message) as raised:
        call(moments_of(rademacher(), 4))
    assert type(raised.value) is ValueError


class TestRecursion:
    def test_rademacher_closed_form(self):
        m = moments_of(rademacher(), 8)
        # E S_n^4/(n)_2 = 3 + 1/(n-1)
        assert sum_moment_recursion(m, 3, 4) == (3 + F(1, 2)) * perm(3, 2) == 21
        assert sum_moment_recursion(m, 10, 4) == (3 + F(1, 9)) * perm(10, 2) == 280

    def test_boundary_reduces_to_definition(self):
        m = moments_of(rademacher(), 8)
        assert sum_moment_recursion(m, 2, 4) == sum_moment_egf(m, 2, 4) == 8

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_matches_sum_moment(self, spec):
        m = moments_of(spec, 8)
        from pstirling.randomvars import vanishing_order

        r = vanishing_order(m)
        for j in range(1, 9):
            tau = j // (r + 1)
            if tau < 1:
                continue
            for n in range(tau, 16):
                assert sum_moment_recursion(m, n, j) == sum_moment(m, n, j)

    def test_precondition(self):
        m = moments_of(rademacher(), 8)
        with pytest.raises(ValueError):
            sum_moment_recursion(m, 1, 4)  # tau = 2 > n
        with pytest.raises(ValueError):
            sum_moment_recursion(m, 5, 1)  # tau = 0
        short = moments_of(rademacher(), 4)
        with pytest.raises(ValueError, match="j exceeds the available moment order"):
            sum_moment_recursion(short, 9, 6)
        # all three were refused before a table or a ladder was built
        assert m._kept is None and short._kept is None

    def test_negative_r_is_refused(self):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            sum_moment_recursion(moments_of(rademacher(), 8), 3, 4, r=-1)


class TestEvenMomentSequence:
    def test_rademacher(self):
        m = moments_of(rademacher(), 8)
        values, limit = even_moment_sequence(m, 2, 6)
        assert values[0] == 4 and values[1] == F(7, 2)
        assert limit == 3
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= limit for v in values)

    def test_first_moment_constant(self):
        for spec in (rademacher(), uniform_std(), normal(F(1, 4))):
            m = moments_of(spec, 4)
            values, limit = even_moment_sequence(m, 1, 10)
            sigma2 = m[2].re
            assert all(v == sigma2 for v in values)
            assert limit == sigma2

    @pytest.mark.parametrize(
        "spec", [rademacher(), uniform_std(), normal(1)], ids=lambda s: s.kind
    )
    def test_monotone_to_limit(self, spec):
        m = moments_of(spec, 8)
        for j in (1, 2, 3, 4):
            values, limit = even_moment_sequence(m, j, 20)
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v >= limit for v in values)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError):
            even_moment_sequence(moments_of(poisson(1), 8), 2, 10)

    def test_negative_second_moment_keeps_its_algebraic_limit(self):
        # a signed list with mu_2 = -1 is no law, but its limit is still sigma2^j E Z^{2j}
        m = moments_of(custom([1, 0, -1, F(1, 2), 2, 0, -3]), 6)
        expected = {
            1: ([-1] * 6, -1),
            2: ([5, 4, F(11, 3), F(7, 2), F(17, 5)], 3),
            3: ([-44, F(-117, 4), F(-293, 12), F(-881, 40)], -15),
        }
        for j, (values, limit) in expected.items():
            assert even_moment_sequence(m, j, 6) == (values, limit)
            assert limit == (-1) ** j * normal_even_moment(2 * j)


class TestOddMomentOrder:
    def test_skewed_leading_coefficient(self):
        # centered Bernoulli(1/3) has mu_3 = 2/27 - ... != 0
        bern = moments_of(bernoulli(F(1, 3)), 12)
        m = MomentSeq(tuple(shift_moments([v.re for v in bern.coeffs], F(-1, 3))))
        table = psn_egf(m)
        for j in (1, 2, 3):
            lead = table.entry(2 * j + 1, j).as_fraction()
            assert lead != 0
            diffs = []
            for n in (100, 10_000):
                ratio = sum_moment(m, n, 2 * j + 1).as_fraction() / perm(n, j)
                diffs.append(abs(ratio - lead))
            assert diffs[1] <= diffs[0] / 50  # 1/n decay (exactly 0 for j = 1)

    def test_symmetric_coefficient_vanishes(self):
        for spec in (rademacher(), uniform_std(), normal(1)):
            table = psn_egf(moments_of(spec, 9))
            for j in (1, 2, 3, 4):
                assert table.entry(2 * j + 1, j) == 0


class TestCumulants:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_three_route_equality(self, spec):
        m = moments_of(spec, 8)
        a = cumulants_from_stirling(m)
        b = cumulants_from_sum_moments(m)
        c = cumulants_oracle(m)
        assert a.kappa == b.kappa == c.kappa

    def test_every_route_returns_one_cumulant_series(self):
        for spec in SPECS:
            m = moments_of(spec, 8)
            routes = [cumulants_from_stirling(m), cumulants_from_sum_moments(m), cumulants_oracle(m)]
            assert all(type(k) is CumulantSeq for k in routes), spec
            assert routes[0] == routes[1] == routes[2], spec
            assert routes[0][0] == 0 and routes[0].order == 8, spec

    @pytest.mark.parametrize("coeffs", [(1, 2), (QC(0, 1), 1), (F(1, 2),)], ids=repr)
    def test_k0_must_be_zero(self, coeffs):
        with pytest.raises(DomainError):
            CumulantSeq(coeffs)

    @pytest.mark.parametrize(
        "den, re, im", [(1, (1,), None), (3, (1, 0), None), (1, (0, 1), (1, 0))], ids=repr
    )
    def test_k0_is_checked_from_numerators_too(self, den, re, im):
        with pytest.raises(DomainError, match="K_0 = 0"):
            CumulantSeq.from_numerators(den, re, im)

    @pytest.mark.parametrize("c, error", [(0.5, TypeError), ("2", TypeError), (-1, DomainError),
                                          (F(-1, 3), DomainError)], ids=repr)
    def test_moments_take_a_rational_c_at_least_zero(self, c, error):
        # a float or str c raised AttributeError, and c < 0 returned exp(-|c| K)
        seq = cumulants_oracle(moments_of(poisson(1), 4))
        with pytest.raises(error):
            seq.moments(c)
        assert seq.moments(F(1, 2)) == moments_of(poisson(F(1, 2)), 4)
        assert seq.moments(0) == moments_of(point_mass(0), 4)

    def test_poisson_all_ones(self):
        seq = cumulants_from_stirling(moments_of(poisson(1), 6))
        assert all(v == 1 for v in seq.kappa)

    def test_normal(self):
        for s2 in (F(1), F(1, 4)):
            seq = cumulants_from_stirling(moments_of(normal(s2), 8))
            assert seq.kappa[1] == s2
            assert all(v == 0 for i, v in enumerate(seq.kappa) if i != 1)

    def test_rademacher_fourth(self):
        seq = cumulants_from_stirling(moments_of(rademacher(), 6))
        assert seq.kappa[1] == 1 and seq.kappa[3] == -2

    def test_point_mass(self):
        seq = cumulants_oracle(moments_of(point_mass(F(5, 3)), 6))
        assert seq.kappa[0] == F(5, 3)
        assert all(v == 0 for v in seq.kappa[1:])

    def test_bernoulli_half(self):
        seq = cumulants_oracle(moments_of(bernoulli(F(1, 2)), 4))
        assert seq.kappa[0] == F(1, 2)
        assert seq.kappa[1] == F(1, 4)
        assert seq.kappa[2] == 0

    def test_centered_fourth_cumulant_identity(self):
        # kappa_4 = mu_4 - 3 mu_2^2 for centered variables
        for spec in (rademacher(), uniform_std(), normal(1)):
            m = moments_of(spec, 6)
            seq = cumulants_oracle(m)
            assert seq.kappa[3] == m[4].re - 3 * m[2].re ** 2


def test_a_dropped_sequence_frees_its_table_and_ladders():
    """A sequence keeps its table and ladders, so they go when the caller drops it: eight
    19-digit sequences at J = 30 run through both consumers leave no table behind."""

    def run(seed):
        m = unrelated_sequence(seed, 0, False, 30, digits=19)
        sum_moment(m, 3, 30)
        cumulants_from_sum_moments(m)
        return m

    run(4100)  # the binomial rows through 30, which every product shares and keeps
    mib = 2**20
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = run(4101)
        holding = tracemalloc.get_traced_memory()[0] - base
        del held
        for seed in range(4102, 4109):
            run(seed)
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # one held sequence keeps about 1 MiB; the eight dropped ones leave almost nothing
    assert holding > 0.8 * mib and left < 0.5 * mib, (holding / mib, left / mib)
