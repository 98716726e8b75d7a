from fractions import Fraction as F
from math import comb, factorial

import pytest

from pstirling import powerseries, stirling
from pstirling.powerseries import QC, EGFSeries, egf_pow
from pstirling.randomvars import (
    MomentSeq,
    UnsupportedSpecError,
    abs_moments_of,
    bernoulli,
    custom,
    exponential,
    gamma_shape,
    hat_transform,
    moments_of,
    normal,
    point_mass,
    poisson,
    rademacher,
    uniform_std,
    vanishing_order,
)
from pstirling.stirling import (
    StirlingTable,
    bound_check_from_moments,
    bound_holds,
    classical_s1_signed,
    classical_s2,
    factorial_ladder,
    factorial_moments,
    ladder,
    psn_direct,
    psn_egf,
    psn_egf_cached,
    psn_gr_rep,
    psn_via_classical,
    weighted_sum_moment,
)

from oracles import (
    RADEMACHER_SUPPORT,
    bell_numbers,
    enum_sum_moment,
    shift_moments,
    stirling1_signed_triangle,
)


class TestClassical:
    def test_values(self):
        assert classical_s2(4, 2) == 7
        assert classical_s2(5, 3) == 25
        assert classical_s2(3, 2) == 3

    def test_diagonal_and_above(self):
        for j in range(11):
            assert classical_s2(j, j) == 1
        assert classical_s2(3, 5) == 0

    def test_pascal_style_recurrence(self):
        for j in range(1, 10):
            for m in range(1, j + 1):
                assert classical_s2(j, m) == m * classical_s2(j - 1, m) + classical_s2(j - 1, m - 1)

    def test_rows_grow_by_the_recurrence_to_the_alternating_sums(self):
        # the rows psn_via_classical reads, against the explicit sum; S(j, j-1) = C(j, 2)
        for j in (60, 7, 0, 61, 1):
            assert stirling._s2_row(j) == tuple(classical_s2(j, m) for m in range(j + 1))
        assert stirling._s2_row(250)[249] == comb(250, 2)

    def test_the_kept_triangles_equal_their_references_through_row_200(self):
        # Pascal, first-kind and second-kind rows, each grown by its recurrence in one helper
        s1 = stirling1_signed_triangle(200)
        for j in range(201):
            assert powerseries._binomials(j) == tuple(comb(j, k) for k in range(j + 1))
            assert stirling._s1_row(j) == tuple(s1[j])
            assert stirling._s2_row(j) == tuple(classical_s2(j, m) for m in range(j + 1))

    def test_row_sums_are_bell_numbers(self):
        bells = bell_numbers(8)
        for j in range(9):
            assert sum(classical_s2(j, m) for m in range(j + 1)) == bells[j]


class TestFirstKind:
    def test_values(self):
        assert classical_s1_signed(3, 2) == -3  # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert classical_s1_signed(4, 1) == -6
        for l in range(8):
            assert classical_s1_signed(l, l) == 1

    def test_inverse_of_second_kind(self):
        # sum_l S(j,l) s(l,i) = delta_{ij}
        for j in range(8):
            for i in range(8):
                total = sum(classical_s2(j, l) * classical_s1_signed(l, i) for l in range(j + 1))
                assert total == (1 if i == j else 0)


class TestEgfRoute:
    def test_classical_recovery(self):
        table = psn_egf(moments_of(point_mass(1), 12))
        for j in range(13):
            for m in range(j + 1):
                assert table.entry(j, m) == classical_s2(j, m)

    def test_rademacher_value(self):
        # (E S_2^4 - 2 E S_1^4)/2 by enumeration
        expected = (enum_sum_moment(RADEMACHER_SUPPORT, 2, 4) - 2 * enum_sum_moment(RADEMACHER_SUPPORT, 1, 4)) / 2
        assert expected == 3
        table = psn_egf(moments_of(rademacher(), 8))
        assert table.entry(4, 2) == expected

    def test_exponential_gives_lah_numbers(self):
        table = psn_egf(moments_of(exponential(), 8))
        assert table.entry(3, 2) == 6
        for j in range(1, 9):
            for m in range(1, j + 1):
                lah = F(factorial(j), factorial(m)) * comb(j - 1, m - 1)
                assert table.entry(j, m) == lah

    def test_columns_are_the_powers_over_factorials(self):
        # one spec of each kind, the custom one complex
        specs = [point_mass(F(-1, 3)), rademacher(), bernoulli(F(1, 3)), uniform_std(),
                 poisson(F(3, 2)), exponential(), gamma_shape(F(5, 2)), normal(F(1, 4)),
                 custom([1, QC(F(1, 2), F(1, 3)), 2, QC(0, -1), F(5, 7), 0, QC(3, 1)])]
        for spec in specs:
            m = moments_of(spec, 6)
            table = psn_egf(m)
            assert StirlingTable._fields == ("columns",) and len(table.columns) == 7
            shifted = EGFSeries([0, *m.coeffs[1:]])
            for k, column in enumerate(table.columns):
                power = egf_pow(shifted, k).coeffs
                assert column == EGFSeries([c / factorial(k) for c in power]), (spec, k)

    def test_cache_hits_on_an_equal_sequence(self):
        first = moments_of(rademacher(), 6)
        second = MomentSeq([QC(v.re) for v in first.coeffs])
        assert second is not first and second == first
        table = psn_egf_cached(first)
        assert psn_egf_cached(second) is table
        assert psn_egf_cached.cache_info().hits == 1

    def test_structural_zeros(self):
        table = psn_egf(moments_of(rademacher(), 6))
        assert table.entry(2, 5) == QC(0)
        assert table.entry(0, 0) == 1

    def test_row_beyond_the_order(self):
        table = psn_egf(moments_of(rademacher(), 4))
        for j, m in ((5, 0), (6, 2), (9, 10)):
            with pytest.raises(ValueError, match=f"j = {j} exceeds the table order 4"):
                table.entry(j, m)
        with pytest.raises(ValueError, match="j = 6 exceeds the table order 4"):
            bound_check_from_moments(
                moments_of(rademacher(), 4), abs_moments_of(rademacher(), 4), 6, 2
            )

    def test_scaling_covariance(self):
        # S_{cY}(j,m) = c^j S_Y(j,m)
        base = psn_egf(moments_of(point_mass(1), 6))
        scaled = psn_egf(moments_of(point_mass(2), 6))
        for j in range(7):
            for m in range(j + 1):
                assert scaled.entry(j, m) == 2**j * base.entry(j, m)


class TestRouteAgreement:
    SPECS = [rademacher(), bernoulli(F(1, 2)), exponential(), poisson(1), normal(1)]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_three_routes_match(self, spec):
        m = moments_of(spec, 8)
        table = psn_egf(m)
        for j in range(9):
            for mm in range(j + 1):
                assert psn_direct(m, j, mm) == table.entry(j, mm)
                assert psn_via_classical(m, j, mm) == table.entry(j, mm)

    def test_direct_point_mass_scaling(self):
        m = moments_of(point_mass(2), 6)
        assert psn_direct(m, 3, 2) == 24

    def test_above_diagonal_zero(self):
        m = moments_of(poisson(1), 6)
        assert psn_direct(m, 3, 5) == QC(0)
        assert psn_via_classical(m, 3, 5) == QC(0)


class TestGrRepresentation:
    def test_rademacher(self):
        m = moments_of(rademacher(), 8)
        assert psn_gr_rep(m, 1, 4, 2) == 3

    def test_vanishing_region(self):
        m = moments_of(rademacher(), 8)
        for j in range(8):
            for mm in range(j + 1):
                if j < 2 * mm:
                    assert psn_gr_rep(m, 1, j, mm) == QC(0)

    def test_hat_uniform_first_column(self):
        hat = hat_transform(moments_of(uniform_std(), 8))
        assert psn_gr_rep(hat, 3, 4, 1) == F(-6, 5)
        assert psn_gr_rep(hat, 3, 4, 1) == psn_egf(hat).entry(4, 1)

    def test_matches_egf_wherever_defined(self):
        for spec in (rademacher(), uniform_std(), normal(1)):
            m = moments_of(spec, 10)
            r = vanishing_order(m)
            table = psn_egf(m)
            for j in range(11):
                for mm in range(j + 1):
                    p = j - mm * (r + 1)
                    if mm and p >= 0 and p + r + 1 > m.order:
                        continue  # route needs moments beyond the truncation
                    assert psn_gr_rep(m, r, j, mm) == table.entry(j, mm)

    def test_precondition(self):
        with pytest.raises(ValueError):
            psn_gr_rep(moments_of(poisson(1), 6), 1, 4, 1)

    def test_negative_r_is_refused(self):
        # r = -1 used to give QC(4) for S(4,2) = 3
        with pytest.raises(ValueError, match="r must be nonnegative"):
            psn_gr_rep(moments_of(rademacher(), 8), -1, 4, 2)


def _off_by_one(s: EGFSeries) -> EGFSeries:
    """s with 1 added to every coefficient: a wrong series of the same order."""
    return EGFSeries.from_numerators(s.den, [x + s.den for x in s.re], s.im)


class TestRouteIndependence:
    """A corrupted piece that routes share must make some cross-check fail.

    Each test corrupts a cached ladder or table; the autouse ``cold_caches``
    fixture empties the caches before the next test.
    """

    @pytest.fixture
    def m(self):
        return moments_of(gamma_shape(F(5, 2)), 12)

    def _corrupt_column_3(self, m, lad):
        table = psn_egf(m)
        for j in range(3, 13):
            assert psn_direct(m, j, 3) == psn_via_classical(m, j, 3) == table.entry(j, 3), j
        lad.columns[3] = _off_by_one(lad.column(3))
        return table

    def test_corrupt_column_is_caught_by_the_table(self, m):
        table = self._corrupt_column_3(m, ladder(m, 0, 0))
        for j in range(3, 13):
            assert psn_direct(m, j, 3) != table.entry(j, 3), j

    def test_corrupt_rung_is_caught_by_the_table(self, m):
        # r = 0 reads G^2 of ladder (1, 1) for S_Y(6, 2)
        table = psn_egf(m)
        assert psn_gr_rep(m, 0, 6, 2) == table.entry(6, 2)
        rungs = ladder(m, 1, 1).through(2)
        rungs[2] = _off_by_one(rungs[2])
        assert psn_gr_rep(m, 0, 6, 2) != table.entry(6, 2)

    def test_corrupt_column_is_caught_by_the_classical_route(self, m):
        # psn_via_classical reads the factorial moments' ladder, not the column psn_direct reads
        self._corrupt_column_3(m, ladder(m, 0, 0))
        for j in range(3, 13):
            assert psn_via_classical(m, j, 3) != psn_direct(m, j, 3), j

    def test_corrupt_factorial_column_is_caught_by_the_other_routes(self, m):
        # each coefficient off by one puts sum_l S(j,l), the Bell number B_j, on the value
        table = self._corrupt_column_3(m, factorial_ladder(m))
        for j in range(3, 13):
            value = psn_via_classical(m, j, 3)
            assert value != psn_direct(m, j, 3) and value != table.entry(j, 3), j

    def test_corrupt_table_column_is_caught_by_the_ladder_routes(self, m, monkeypatch):
        table = psn_egf(m)
        columns = list(table.columns)
        columns[3] = _off_by_one(columns[3])
        monkeypatch.setattr(stirling, "psn_egf_cached", lambda seq: StirlingTable(tuple(columns)))
        corrupt = stirling.psn_egf_cached(m)
        for j in range(13):
            for mm in range(j + 1):
                entry = corrupt.entry(j, mm)
                for route in (psn_direct, psn_via_classical):
                    assert (route(m, j, mm) == entry) == (mm != 3), (route.__name__, j, mm)

    @pytest.mark.parametrize(
        "seq",
        [moments_of(gamma_shape(F(5, 2)), 12),
         MomentSeq([1, QC(F(1, 2), F(-2, 3)), QC(F(7, 5)), QC(F(-1, 9), F(4, 7)), QC(2, 1), F(3, 8)])],
        ids=["gamma", "complex"],
    )
    def test_classical_route_reads_neither_ladder_0_0_nor_the_table(self, seq, monkeypatch):
        table = psn_egf(seq)

        def unavailable(*args):
            raise AssertionError("the classical route read ladder (0, 0) or the table")

        for name in ("ladder", "psn_egf", "psn_egf_cached"):
            monkeypatch.setattr(stirling, name, unavailable)
        for j in range(seq.order + 1):
            for mm in range(seq.order + 2):
                assert psn_via_classical(seq, j, mm) == table.entry(j, mm), (j, mm)


class TestWarmReads:
    """Once its ladders are built, a read is one cache lookup and one read-out."""

    @staticmethod
    def read_all(m, table):
        values = [weighted_sum_moment(m, 1, 0, p) for p in (0, 3)]
        for j in range(m.order + 1):
            for mm in range(m.order + 2):  # past the diagonal, into the structural zeros
                values += [table.entry(j, mm), psn_direct(m, j, mm), psn_via_classical(m, j, mm)]
                values += [psn_gr_rep(m, r, j, mm) for r in (0, 1)]
        return values

    @pytest.mark.parametrize("spec", [rademacher(), custom([1, 0, F(1, 2), QC(0, 1), 3, 1, F(-2, 7)])],
                             ids=["rademacher", "complex"])
    def test_build_no_checked_scalar(self, spec, monkeypatch):
        m = moments_of(spec, 6)
        table = psn_egf_cached(m)
        cold = self.read_all(m, table)
        calls, real = [], QC.__init__

        def counting(self, *args):
            calls.append(args)
            real(self, *args)

        monkeypatch.setattr(QC, "__init__", counting)
        assert self.read_all(m, table) == cold and calls == []

    def test_structural_values_are_shared(self):
        m = moments_of(rademacher(), 6)
        zero, one = stirling._QC_ZERO, stirling._QC_ONE
        assert (zero, one) == (QC(0), QC(1)) and (hash(zero), hash(one)) == (hash(QC(0)), hash(QC(1)))
        for value in (psn_egf(m).entry(2, 5), psn_direct(m, 2, 5), psn_via_classical(m, 2, 5),
                      psn_gr_rep(m, 1, 3, 2), psn_gr_rep(m, 1, 3, 0), weighted_sum_moment(m, 0, 0, 2)):
            assert value is zero
        assert psn_gr_rep(m, 1, 0, 0) is one and weighted_sum_moment(m, 2, 0, 0) is one
        for value in (zero, one):
            for name in ("re", "im"):
                with pytest.raises(AttributeError):
                    setattr(value, name, F(5))
                with pytest.raises(AttributeError):
                    delattr(value, name)
        assert (zero, one) == (QC(0), QC(1))

    def test_equal_sequences_share_their_ladders(self):
        a = moments_of(exponential(), 8)
        b = MomentSeq(list(a.coeffs))
        assert b is not a and b == a
        assert ladder(b, 0, 0) is ladder(a, 0, 0) and ladder(b, 2, 2) is ladder(a, 2, 2)
        assert factorial_ladder(b) is factorial_ladder(a)
        assert a._hash == b._hash == hash((a.den, a.re, a.im))


class TestFactorialMoments:
    def test_poisson_factorial_moments_are_powers_of_the_rate(self):
        lam = F(3, 2)
        f = factorial_moments(moments_of(poisson(lam), 12))
        assert type(f) is MomentSeq and f.coeffs == tuple(QC(lam**l) for l in range(13))

    def test_bernoulli_has_two(self):
        f = factorial_moments(moments_of(bernoulli(F(2, 7)), 9))
        assert f.coeffs == (QC(1), QC(F(2, 7))) + (QC(0),) * 8

    def test_signed_first_kind_combination(self):
        m = MomentSeq([1, QC(F(1, 2), F(-2, 3)), QC(F(7, 5)), QC(F(-1, 9), F(4, 7)), QC(2, 1)])
        expected = []
        for l in range(5):
            acc = QC(0)
            for i in range(l + 1):
                acc = acc + classical_s1_signed(l, i) * m[i]
            expected.append(acc)
        assert factorial_moments(m).coeffs == tuple(expected)


@pytest.mark.parametrize(
    "route",
    [psn_direct, psn_via_classical, lambda m, j, mm: psn_gr_rep(m, 1, j, mm)],
    ids=["direct", "via-classical", "gr-rep"],
)
def test_negative_indices_are_refused(route):
    m = moments_of(rademacher(), 8)
    for j, mm in ((-1, 0), (3, -1), (-1, -1)):
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            route(m, j, mm)


def test_weighted_sum_moment_refuses_negative_arguments():
    m = moments_of(rademacher(), 8)
    # p = -1 used to raise SeriesMismatchError from inside egf_pow
    for m_idx, p in ((2, -1), (-1, 2), (0, -1), (-1, -1)):
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            weighted_sum_moment(m, 1, m_idx, p)
    with pytest.raises(ValueError, match="r must be nonnegative"):
        weighted_sum_moment(m, -1, 2, 2)


# a complex sequence, and a real one of order 4 that every route below reads past
_COMPLEX, _M4 = MomentSeq([1, QC(0, 1), 1]), MomentSeq([1, 0, 1, 0, 3])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classical_s2(-1, 0), "indices must be nonnegative"),
        (lambda: classical_s2(2, -1), "indices must be nonnegative"),
        (lambda: classical_s1_signed(-1, 0), "indices must be nonnegative"),
        (lambda: classical_s1_signed(2, -1), "indices must be nonnegative"),
        (lambda: psn_egf(_M4).entry(-1, 0), "indices must be nonnegative"),
        (lambda: psn_egf(_M4).entry(2, -1), "indices must be nonnegative"),
        (lambda: psn_direct(_M4, 5, 1), "^j exceeds the available moment order$"),
        (lambda: psn_via_classical(_M4, 5, 1), "^j exceeds the available moment order$"),
        (lambda: weighted_sum_moment(_M4, 1, 2, 5), "^p exceeds the available moment order$"),
        # m = 1, r = 1: p = 3 reads mu_{p+2} = mu_5
        (lambda: psn_gr_rep(_M4, 1, 5, 1), "^j exceeds the available moment order for this route$"),
        (lambda: bound_check_from_moments(_COMPLEX, _M4, 2, 1), "applies to real-valued distributions"),
    ],
    ids=["s2-j", "s2-m", "s1-l", "s1-i", "entry-j", "entry-m", "direct-j", "via-classical-j",
         "weighted-p", "gr-rep-j", "bound-complex"],
)
def test_refusal_names_its_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestWeightedSumMoment:
    def test_r0_is_plain_sum(self):
        m = moments_of(rademacher(), 8)
        assert weighted_sum_moment(m, 0, 2, 4) == enum_sum_moment(RADEMACHER_SUPPORT, 2, 4)

    def test_two_uniform_weights(self):
        # E(beta_1 + beta_2)^2 = 2/3 + 1/2 = 7/6 for uniform beta(1)
        m = moments_of(point_mass(1), 6)
        assert weighted_sum_moment(m, 1, 2, 2) == F(7, 6)

    def test_zero_power(self):
        m = moments_of(exponential(), 4)
        assert weighted_sum_moment(m, 2, 3, 0) == 1
        assert weighted_sum_moment(m, 2, 0, 0) == 1
        assert weighted_sum_moment(m, 2, 0, 3) == QC(0)

    def test_sun_formula(self):
        m = moments_of(point_mass(1), 10)
        for j in range(11):
            for mm in range(j + 1):
                value = comb(j, mm) * weighted_sum_moment(m, 1, mm, j - mm)
                assert value == classical_s2(j, mm)
        assert 6 * weighted_sum_moment(m, 1, 2, 2) == 7


class TestVanishingStructure:
    @pytest.mark.parametrize(
        "spec",
        [point_mass(1), rademacher(), uniform_std(), normal(1), poisson(1)],
        ids=lambda s: s.kind,
    )
    def test_table_zeros(self, spec):
        m = moments_of(spec, 10)
        r = vanishing_order(m)
        table = psn_egf(m)
        for j in range(11):
            for mm in range(j + 1):
                if j < mm * (r + 1):
                    assert table.entry(j, mm) == QC(0)


class TestSpecialValues:
    def _centered_specs(self):
        # the shifted Bernoulli has a nonzero third moment
        bern = moments_of(bernoulli(F(1, 3)), 12)
        shifted = MomentSeq(tuple(shift_moments([v.re for v in bern.coeffs], F(-1, 3))))
        return [
            moments_of(rademacher(), 12),
            moments_of(uniform_std(), 12),
            moments_of(normal(1), 12),
            shifted,
        ]

    def test_diagonal_and_near_diagonal(self):
        for m in self._centered_specs():
            sigma2 = m[2].re
            mu3 = m[3].re
            table = psn_egf(m)
            for j in range(1, 5):
                gauss = F(factorial(2 * j), factorial(j) * 2**j)
                assert table.entry(2 * j, j) == sigma2**j * gauss
                if 2 * j + 1 <= m.order:
                    expected = j * (2 * j + 1) * sigma2 ** (j - 1) * gauss * mu3 / 3
                    assert table.entry(2 * j + 1, j) == expected


class TestReality:
    @pytest.mark.parametrize(
        "spec", [rademacher(), uniform_std(), normal(1)], ids=lambda s: s.kind
    )
    def test_hat_tables_real(self, spec):
        table = psn_egf(hat_transform(moments_of(spec, 10)))
        assert table.is_real


class TestBound:
    def test_rademacher_witness(self):
        check = bound_holds(rademacher(), 4, 2)
        assert check.holds and check.lhs == 3 and check.rhs == 8
        assert not check.rhs_is_lower_bound

    def test_point_mass_classical_bound(self):
        for j in range(9):
            for mm in range(j + 1):
                check = bound_holds(point_mass(1), j, mm)
                assert check.holds
                assert check.rhs == F(mm**j, factorial(mm))

    def test_empty_sum_column(self):
        for j in range(1, 6):
            check = bound_holds(exponential(), j, 0)
            assert check.holds and check.lhs == 0 and check.rhs == 0

    def test_symmetric_certificate(self):
        for spec in (uniform_std(), normal(1)):
            for j in range(9):
                for mm in range(j + 1):
                    check = bound_holds(spec, j, mm)
                    assert check.holds
                    assert check.rhs_is_lower_bound

    def test_explicit_abs_moments(self):
        m = moments_of(point_mass(-2), 6)
        abs_m = moments_of(point_mass(2), 6)
        check = bound_check_from_moments(m, abs_m, 3, 2)
        assert check.holds

    def test_unsupported(self):
        with pytest.raises(UnsupportedSpecError):
            bound_holds(custom([1, 0, 1, 0, 3]), 2, 1)
