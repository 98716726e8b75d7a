import copy
import hashlib
import math
import pickle
import random
from fractions import Fraction as F
from math import factorial, gcd

import pytest

from pstirling import powerseries, stirling
from pstirling.powerseries import (
    DomainError,
    EGFSeries,
    QC,
    Record,
    SeriesMismatchError,
    egf_combination,
    egf_exp,
    egf_lincomb,
    egf_log,
    egf_mul,
    egf_one,
    egf_pow,
    kept,
    qc_from_numerators,
    reduced_fraction,
    triangle_rows,
)
from pstirling.randomvars import CumulantSeq, MomentSeq, custom, hat_transform
from pstirling.randomvars import moments_of, normal, uniform_std
from pstirling.stirling import psn_egf

from oracles import (
    RADEMACHER_SUPPORT,
    bell_numbers,
    enum_sum_moment,
    schoolbook_egf_exp,
    schoolbook_egf_log,
    schoolbook_egf_mul,
)


def coeffs(series):
    return list(series.coeffs)


class TestQC:
    def test_normalized_parts(self):
        v = QC(F(2, 4), F(-3, -6))
        assert v.re == F(1, 2) and v.im == F(1, 2)

    def test_arithmetic(self):
        a, b = QC(1, 2), QC(3, -1)
        assert a * b == QC(5, 5)
        assert a + b == QC(4, 1)
        assert a - b == QC(-2, 3)

    def test_rational_interop(self):
        assert 2 * QC(1, 1) == QC(2, 2)
        assert QC(1, 0) == 1
        assert QC(F(1, 2)) + F(1, 2) == 1

    def test_float_mixing_rejected(self):
        with pytest.raises(TypeError):
            QC(1) + 0.5
        with pytest.raises(TypeError):
            0.5 * QC(1)
        # the constructor refuses inexact parts too: QC(0.1) stored 3602879701896397/2^55
        for part in (0.1, 1.0, 1j, "1/3", None):
            with pytest.raises(TypeError, match="cannot build exact scalar"):
                QC(part)
            with pytest.raises(TypeError, match="cannot build exact scalar"):
                QC(1, part)
        assert QC(3, F(1, 2)) == QC(F(3), F(1, 2)) and type(QC(3).re) is F

    def test_immutable(self):
        v = QC(1)
        with pytest.raises(AttributeError):
            v.re = F(2)

    def test_a_real_value_hashes_as_its_rational(self):
        # QC(2) == 2 == F(2), so a set or a dict must see them as one key
        assert hash(QC(2)) == hash(2) == hash(F(2))
        assert len({QC(2), 2, F(2)}) == 1
        q = qc_from_numerators(6, -4, 0)
        assert q == F(-2, 3) and hash(q) == hash(F(-2, 3)) and {F(-2, 3): "read"}[q] == "read"
        assert hash(QC(2, 1)) == hash((F(2), F(1)))

    def test_the_real_part_is_required(self):
        with pytest.raises(TypeError):
            QC()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QC(1, 2).as_fraction(), DomainError, r"^QC\(1, 2\) has a nonzero imaginary part$"),
        (lambda: QC(1) - 0.5, TypeError, "unsupported operand type"),
        (lambda: QC(1) / 0.5, TypeError, "unsupported operand type"),
        (lambda: EGFSeries([]), ValueError, "^series needs at least the order-0 coefficient$"),
        (lambda: egf_pow(egf_one(3), -1), DomainError,
         "^negative powers are not defined for truncated EGFs$"),
    ],
    ids=["complex-as-fraction", "minus-float", "over-float", "empty-series", "negative-power"],
)
def test_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def assert_is_the_fraction(part, num: int, den: int):
    """part is exactly Fraction(num, den): normalized, and alike in value, hash, repr, str and float."""
    expected = F(num, den)
    assert type(part) is F, (num, den)
    assert part.denominator > 0 and gcd(part.numerator, part.denominator) == 1, (num, den)
    assert (part.numerator, part.denominator) == (expected.numerator, expected.denominator)
    assert part == expected and hash(part) == hash(expected)
    assert repr(part) == repr(expected) and str(part) == str(expected)
    assert float(part) == float(expected)


# (den, re, im): den 1, negative numerators, a gcd > 1 in each part, zero parts, and 10^30-size values
READ_OUTS = [(1, 7, -7), (1, 0, -1), (6, -4, 9), (12, 18, -30), (7, 0, 14), (5, -10, 0),
             (10**30 + 2, 10**30, -(10**30 + 4)), (3 * 10**30, -6 * 10**30, 9 * 10**29 + 3),
             (1, -(10**30) - 1, 10**30), (2**100, 3 * 2**99, -(2**101))]


class TestReadOut:
    """qc_from_numerators builds, without QC's checks, the value QC builds with them."""

    def test_equals_the_checked_value(self):
        rng = random.Random("read-out")

        def numerator():
            return rng.choice((0, rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))

        cases = [(1, 0, 0), (1, 5, -3), *READ_OUTS]
        cases += [(rng.choice((1, rng.randint(1, 10**12))), numerator(), numerator()) for _ in range(300)]
        for den, re, im in cases:
            q, expected = qc_from_numerators(den, re, im), QC(F(re, den), F(im, den))
            assert type(q) is QC and q == expected and hash(q) == hash(expected), (den, re, im)
            assert repr(q) == repr(expected) and str(q) == str(expected)
            assert complex(q) == complex(expected)
            assert_is_the_fraction(q.re, re, den)
            assert_is_the_fraction(q.im, im, den)
            assert_is_the_fraction(reduced_fraction(re, den), re, den)

    def test_a_zero_part_is_the_shared_zero(self):
        for den in (1, 6, 10**30):
            q = qc_from_numerators(den, 0, 0)
            assert q.re is q.im is powerseries._ZERO
            assert_is_the_fraction(q.re, 0, den)

    @pytest.mark.parametrize("den, re, im", READ_OUTS)
    def test_parts_work_in_fraction_arithmetic(self, den, re, im):
        q = qc_from_numerators(den, re, im)
        for part, num in ((q.re, re), (q.im, im), (reduced_fraction(re, den), re)):
            expected = F(num, den)
            for other in (F(-5, 3), F(10**31, 7), 2):
                assert part + other == expected + other and other - part == other - expected
                assert part * other == expected * other and part / other == expected / other
                assert (part < other) == (expected < other) and (part >= other) == (expected >= other)
            assert -part == -expected and abs(part) == abs(expected) and part**3 == expected**3
            for read in (int, round, math.floor, math.ceil):
                assert read(part) == read(expected)
            assert part.as_integer_ratio() == expected.as_integer_ratio()
            assert part.limit_denominator(1000) == expected.limit_denominator(1000)
            assert {expected: "key"}[part] == "key"
        # QC arithmetic on the read-out equals it on the checked value
        checked = QC(F(re, den), F(im, den))
        assert q * q == checked * checked and q + q == 2 * checked and q - checked == 0

    @pytest.mark.parametrize("den, re, im", READ_OUTS)
    def test_parts_survive_copy_deepcopy_and_pickle(self, den, re, im):
        q = qc_from_numerators(den, re, im)
        for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert type(clone) is QC and clone == q and hash(clone) == hash(q) and repr(clone) == repr(q)
            assert_is_the_fraction(clone.re, re, den)
            assert_is_the_fraction(clone.im, im, den)
        for part, num in ((q.re, re), (q.im, im)):
            for clone in (copy.copy(part), copy.deepcopy(part), pickle.loads(pickle.dumps(part))):
                assert_is_the_fraction(clone, num, den)

    def test_is_immutable(self):
        q = qc_from_numerators(3, 1, 2)
        for name in ("re", "im"):
            with pytest.raises(AttributeError):
                setattr(q, name, F(1))
            with pytest.raises(AttributeError):
                delattr(q, name)
        assert q == QC(F(1, 3), F(2, 3))


class TestMul:
    def test_exp_squared(self):
        # e^z * e^z = e^{2z}: coefficients 2^j
        a = EGFSeries([1, 1, 1])
        assert coeffs(egf_mul(a, a)) == [QC(1), QC(2), QC(4)]

    def test_rademacher_fourth_moment(self):
        # frozen from enumerating S_2 over {-2, 0, 2}
        expected = enum_sum_moment(RADEMACHER_SUPPORT, 2, 4)
        assert expected == 8
        a = EGFSeries([1, 0, 1, 0, 1])
        assert egf_mul(a, a)[4] == expected

    def test_zero_annihilates(self):
        a = EGFSeries([1, 2, 3])
        zero = EGFSeries([0, 0, 0])
        assert egf_mul(a, zero) == zero

    def test_order_mismatch(self):
        with pytest.raises(SeriesMismatchError):
            egf_mul(EGFSeries([1, 1]), EGFSeries([1, 1, 1]))


class TestPow:
    def test_point_mass_triple(self):
        a = EGFSeries([F(1), F(1), F(1), F(1)])
        assert coeffs(egf_pow(a, 3)) == [QC(3**j) for j in range(4)]

    def test_rademacher_cubed(self):
        expected = enum_sum_moment(RADEMACHER_SUPPORT, 3, 4)
        assert expected == 21
        a = EGFSeries([1, 0, 1, 0, 1])
        assert egf_pow(a, 3)[4] == expected

    def test_identity_power(self):
        a = EGFSeries([1, 2, 5, 9])
        assert egf_pow(a, 1) == a

    def test_zeroth_power(self):
        a = EGFSeries([1, 2, 5, 9])
        assert egf_pow(a, 0) == egf_one(3)

    def test_power_matches_repeated_mul(self):
        rng = random.Random(11)
        a = EGFSeries([F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(7)])
        acc = egf_one(6)
        for n in range(1, 9):
            acc = egf_mul(acc, a)
            assert egf_pow(a, n) == acc


class TestLogExp:
    def test_bell_series_gives_unit_cumulants(self):
        bells = bell_numbers(4)
        assert bells == [1, 1, 2, 5, 15]
        assert coeffs(egf_log(EGFSeries(bells))) == [QC(0), QC(1), QC(1), QC(1), QC(1)]

    def test_normal_moment_series(self):
        s2 = F(1, 4)
        a = EGFSeries([1, 0, s2, 0, 3 * s2**2])
        assert coeffs(egf_log(a)) == [QC(0), QC(0), QC(s2), QC(0), QC(0)]
        assert egf_exp(egf_log(a)) == a

    def test_exp_of_half_square(self):
        # E Z^{2m} = (2m)!/(m! 2^m) for the standard normal
        a = EGFSeries([0, 0, 1, 0, 0, 0, 0])
        assert coeffs(egf_exp(a)) == [QC(v) for v in (1, 0, 1, 0, 3, 0, 15)]

    def test_exp_of_z(self):
        a = EGFSeries([0, 1, 0, 0])
        assert coeffs(egf_exp(a)) == [QC(1)] * 4

    def test_exp_of_zero(self):
        assert egf_exp(EGFSeries([0] * 6)) == egf_one(5)

    def test_round_trips(self):
        rng = random.Random(23)
        for _ in range(10):
            l = EGFSeries([0] + [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)])
            assert egf_log(egf_exp(l)) == l
            a = EGFSeries([1] + [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)])
            assert egf_exp(egf_log(a)) == a

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            egf_log(EGFSeries([2, 1]))
        with pytest.raises(DomainError):
            egf_exp(EGFSeries([1, 1]))


class TestRingLaws:
    def _random_series(self, rng, complex_parts=False):
        def scalar():
            re = F(rng.randint(-5, 5), rng.randint(1, 6))
            im = F(rng.randint(-5, 5), rng.randint(1, 6)) if complex_parts else 0
            return QC(re, im)

        return EGFSeries([scalar() for _ in range(6)])

    @pytest.mark.parametrize("complex_parts", [False, True])
    def test_commutative_associative_distributive(self, complex_parts):
        rng = random.Random(7)
        for _ in range(8):
            a = self._random_series(rng, complex_parts)
            b = self._random_series(rng, complex_parts)
            c = self._random_series(rng, complex_parts)
            assert egf_mul(a, b) == egf_mul(b, a)
            assert egf_mul(egf_mul(a, b), c) == egf_mul(a, egf_mul(b, c))
            b_plus_c = EGFSeries([x + y for x, y in zip(b.coeffs, c.coeffs)])
            ab, ac = egf_mul(a, b).coeffs, egf_mul(a, c).coeffs
            assert egf_mul(a, b_plus_c).coeffs == tuple(x + y for x, y in zip(ab, ac))



# Pairwise coprime denominators, so a series' common denominator is their product.
BIG_DENOMINATORS = (998_244_353, 1_000_000_007, 2**61 - 1, 3**20, 7**11, 10**9 + 9)
KINDS = ("real", "complex", "sparse", "zero")


def random_series(rng, order, kind, head=None, small=False):
    """Seeded series with signed numerators over large or coprime denominators.

    ``small`` draws parts p/q with |p|, q <= 9 instead, whose log and exp
    stay cheap enough for the schoolbook loops at order 40.
    """

    def part():
        if small:
            return F(rng.randint(-9, 9), rng.randint(1, 9))
        den = rng.choice(BIG_DENOMINATORS) if rng.random() < 0.5 else rng.randint(1, 10**9)
        return F(rng.randint(-(10**12), 10**12), den)

    def scalar():
        if kind == "zero" or (kind == "sparse" and rng.random() < 0.7):
            return QC(0)
        return QC(part(), part() if kind != "real" else 0)

    values = [scalar() for _ in range(order + 1)]
    if head is not None:
        values[0] = QC(head)
    return EGFSeries(values)


def assert_schoolbook(series, expected):
    """series has the schoolbook coefficients ``expected`` and the canonical fields.

    den > 0, gcd(den, *re, *im) == 1 and im None exactly for a real series,
    so a kernel result and the series built from ``expected`` have equal
    fields and hashes.
    """
    assert series.coeffs == expected
    assert series.den > 0 and gcd(series.den, *series.re, *(series.im or ())) == 1
    assert (series.im is None) == all(v.is_real for v in series.coeffs)
    twin = EGFSeries(expected)
    assert (series.den, series.re, series.im) == (twin.den, twin.re, twin.im)
    assert series == twin and hash(series) == hash(twin)


class TestKernelAgainstSchoolbook:
    """The integer kernel equals the schoolbook QC loops exactly."""

    @pytest.mark.parametrize("kind_b", KINDS)
    @pytest.mark.parametrize("kind_a", KINDS)
    def test_mul(self, kind_a, kind_b):
        rng = random.Random(f"mul {kind_a} {kind_b}")
        for order in (0, 1, 2, 3, rng.randint(4, 39), 40):
            a = random_series(rng, order, kind_a)
            b = random_series(rng, order, kind_b)
            assert_schoolbook(egf_mul(a, b), schoolbook_egf_mul(a, b))

    def test_combinations(self):
        # whole (egf_lincomb) and one coefficient at a time (egf_combination), against QC sums
        rng = random.Random("combinations")
        for order in (0, 1, 7, 30):
            series = [random_series(rng, order, kind) for kind in KINDS]
            weights = [rng.randint(-(10**6), 10**6) for _ in series]
            den = rng.randint(1, 10**4)
            expected = tuple(sum((w * s[j] for w, s in zip(weights, series)), QC(0)) / den
                             for j in range(order + 1))
            assert_schoolbook(egf_lincomb(series, weights, den), expected)
            assert tuple(egf_combination(series, weights, j, den) for j in range(order + 1)) == expected
        with pytest.raises(ValueError):
            egf_lincomb([egf_one(2), egf_one(3)], [1, 1])

    def test_mul_every_order(self):
        rng = random.Random(40)
        for order in range(41):
            a = random_series(rng, order, "complex")
            b = random_series(rng, order, KINDS[order % len(KINDS)])
            assert_schoolbook(egf_mul(a, b), schoolbook_egf_mul(a, b))
            assert_schoolbook(egf_mul(b, a), schoolbook_egf_mul(b, a))

    @pytest.mark.parametrize("kind", KINDS)
    def test_pow(self, kind):
        rng = random.Random(f"pow {kind}")
        for order in (0, 1, 6, 12):
            a = random_series(rng, order, kind)
            expected = egf_one(order)
            for n in range(6):
                assert_schoolbook(egf_pow(a, n), expected.coeffs)
                expected = EGFSeries(schoolbook_egf_mul(expected, a))

    @pytest.mark.parametrize("imaginary", (False, True))
    @pytest.mark.parametrize("kind", KINDS)
    def test_mul_leading_zeros(self, kind, imaginary):
        """Leading zeros on one side or both, and products that vanish below the order."""
        rng = random.Random(f"leading zeros {kind} {imaginary}")
        for order in (0, 1, 2, 7, 20, 33):
            h = order // 2 + 1
            for va, vb in ((0, h), (h, 0), (1, 1), (h - 1, h), (1, order - 1), (h, order), (order + 1, 0)):
                a = with_head(random_series(rng, order, kind), va, imaginary)
                b = with_head(random_series(rng, order, KINDS[order % len(KINDS)]), vb, imaginary)
                for x, y in ((a, b), (b, a)):
                    product = egf_mul(x, y)
                    assert_schoolbook(product, schoolbook_egf_mul(x, y))
                    if va + vb > order:
                        assert product == EGFSeries([0] * (order + 1))

    def test_mul_imaginary_lead_behind_real_zeros(self):
        """The valuation counts a purely imaginary coefficient whose real part is 0."""
        rng = random.Random("imaginary lead")
        for order in (3, 12, 33):
            for v in (1, order // 2):
                a = with_head(random_series(rng, order, "real"), v, imaginary=True)
                b = with_head(random_series(rng, order, "complex"), 1, imaginary=True)
                assert a.re[v] == 0 and a.im[v] != 0
                assert_schoolbook(egf_mul(a, b), schoolbook_egf_mul(a, b))
                assert_schoolbook(egf_mul(a, a), schoolbook_egf_mul(a, a))
                assert_schoolbook(egf_pow(a, 2), schoolbook_egf_mul(a, a))

    def test_zero_series(self):
        rng = random.Random("zero series")
        for order in (0, 1, 12):
            zero, one = EGFSeries([0] * (order + 1)), egf_one(order)
            for other in (zero, one, random_series(rng, order, "complex")):
                assert_schoolbook(egf_mul(zero, other), schoolbook_egf_mul(zero, other))
                assert egf_mul(other, zero) == zero
            assert egf_pow(zero, 0) == one and egf_pow(zero, 3) == zero
            assert egf_exp(zero) == one and egf_log(one) == zero

    def test_log_exp_zero_runs(self):
        rng = random.Random("zero runs")
        for order in (1, 5, 17, 40):
            for count in (1, 2, 4):
                a = sparse_series(rng, order, 1, count)
                l = sparse_series(rng, order, 0, count)
                assert_schoolbook(egf_log(a), schoolbook_egf_log(a))
                assert_schoolbook(egf_exp(l), schoolbook_egf_exp(l))
                assert egf_exp(egf_log(a)) == a
                assert egf_log(egf_exp(l)) == l

    @pytest.mark.parametrize("kind_b", KINDS)
    @pytest.mark.parametrize("kind_a", KINDS)
    def test_mul_by_a_factor(self, monkeypatch, kind_a, kind_b):
        """One right operand's kept rows serve products with operands of every valuation, and a
        divisor, as rows built afresh for one product do."""
        builds = count_row_builds(monkeypatch)
        rng = random.Random(f"factor {kind_a} {kind_b}")
        for order in (0, 1, 7, 33):
            h = order // 2 + 1
            for vb in (0, 1, h, order + 1):
                b = with_head(random_series(rng, order, kind_b), vb, imaginary=vb % 2 == 1)
                for va in (0, 1, h, order + 1):
                    a = with_head(random_series(rng, order, kind_a), va)
                    expected = schoolbook_egf_mul(a, b)
                    assert_schoolbook(egf_mul(a, b), expected)
                    den = rng.choice((2, 6, 33, 10**9 + 7))
                    assert_schoolbook(egf_mul(a, b, den), tuple(v / den for v in expected))
                    assert egf_mul(a, b, den) == egf_mul(a, copy_of(b), den)
                assert sum(x is b for x in builds) == 1

    def test_psn_egf_with_imaginary_mean(self):
        """psn_egf at J = 33 with mu_1 purely imaginary equals the schoolbook powers of M - 1."""
        rng = random.Random("imaginary mean")
        parts = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(64)]
        mu = [QC(1), QC(0, F(1, 2))] + [QC(parts[2 * i], parts[2 * i + 1]) for i in range(32)]
        assert_columns_are_schoolbook_powers(MomentSeq(mu))

    @pytest.mark.parametrize("name", ["unrelated-real", "uniformstd", "normal1", "hat-uniformstd"])
    def test_psn_egf_at_order_33(self, name):
        if name == "unrelated-real":
            # unrelated 4-digit denominators: column m's denominator grows like their lcm^m
            rng = random.Random(name)
            m = MomentSeq([1] + [F(rng.randint(-9999, 9999), rng.randint(1000, 9999)) for _ in range(33)])
        else:
            m = moments_of(normal(1) if name == "normal1" else uniform_std(), 33)
            if name == "hat-uniformstd":
                m = hat_transform(m)
        assert_columns_are_schoolbook_powers(m)

    def test_log_exp(self):
        rng = random.Random(2020)
        for order in range(41):
            kind = ("complex", "real", "sparse")[order % 3]
            a = random_series(rng, order, kind, head=1, small=order > 12)
            l = random_series(rng, order, kind, head=0, small=order > 12)
            assert_schoolbook(egf_log(a), schoolbook_egf_log(a))
            assert_schoolbook(egf_exp(l), schoolbook_egf_exp(l))
            assert egf_exp(egf_log(a)) == a
            assert egf_log(egf_exp(l)) == l


def nineteen_digit_series(rng, order, kind, v=0):
    """Unrelated 19-digit numerators and denominators, zero below v; ``kind`` real, complex or
    imaginary (every real part zero, so only the imaginary numerators are nonzero)."""

    def part():
        return F(rng.randint(-(10**19), 10**19), rng.randint(10**18, 10**19))

    def scalar():
        return QC(0 if kind == "imaginary" else part(), 0 if kind == "real" else part())

    return EGFSeries([QC(0)] * min(v, order + 1) + [scalar() for _ in range(order + 1 - v)])


class TestProductPipeline:
    """egf_mul builds each part of a product in one pass over its operand's kept rows, and a
    complex by a complex product in Gauss's three; every result is the schoolbook one."""

    PARTS = ("real", "complex", "imaginary")

    @pytest.mark.parametrize("kind_b", PARTS)
    @pytest.mark.parametrize("kind_a", PARTS)
    def test_every_pairing_and_leading_zeros(self, kind_a, kind_b):
        rng = random.Random(f"pipeline {kind_a} {kind_b}")
        for order in (0, 1, 5, 16):
            # the product is all zeros, and keeps order J, once va + vb >= J + 1
            for va, vb in ((0, 0), (1, 0), (0, 2), (2, 3), (order, 1), (1, order), (order + 1, 0)):
                a = nineteen_digit_series(rng, order, kind_a, va)
                b = nineteen_digit_series(rng, order, kind_b, vb)
                product = egf_mul(a, b)
                assert product.order == order
                assert_schoolbook(product, schoolbook_egf_mul(a, b))
                assert_schoolbook(egf_mul(b, a, 7), tuple(v / 7 for v in schoolbook_egf_mul(b, a)))

    def test_kept_rows_serve_every_valuation(self):
        # one operand's rows, cut at each left operand's valuation in turn, as psn_egf cuts them
        rng = random.Random("every valuation")
        order = 12
        b = nineteen_digit_series(rng, order, "complex", 1)
        for kind in self.PARTS:
            for va in range(order + 2):
                a = nineteen_digit_series(rng, order, kind, va)
                assert_schoolbook(egf_mul(a, b), schoolbook_egf_mul(a, b))
        assert list(b._kept) == ["rows"]

    @pytest.mark.parametrize("kind", PARTS)
    def test_pow_is_the_schoolbook_power(self, kind):
        rng = random.Random(f"pipeline pow {kind}")
        for order in (0, 3, 9):
            a = nineteen_digit_series(rng, order, kind)
            power = egf_one(order).coeffs
            for n in range(7):
                assert_schoolbook(egf_pow(a, n), power)
                power = schoolbook_egf_mul(EGFSeries(power), a)
            assert a._kept is None

    def test_pow_starts_from_the_base(self, monkeypatch):
        # one product fewer than a start from egf_one: a^1 takes none, a^6 two squarings and one
        calls, real = [], powerseries.egf_mul

        def counting(a, b, *den):
            calls.append((a, b))
            return real(a, b, *den)

        monkeypatch.setattr(powerseries, "egf_mul", counting)
        a = nineteen_digit_series(random.Random("pow count"), 6, "complex")
        for n, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (6, 3), (7, 4)):
            calls.clear()
            egf_pow(a, n)
            assert len(calls) == products, n
            assert all(left != egf_one(6) for left, _ in calls)

    def test_psn_egf_columns_are_unchanged(self):
        """Every column's fields on seeded complex customs at J = 30, two of small rationals and
        one of 19-digit parts, hash as the four-pass kernel's did."""
        digest = hashlib.sha256()
        for seed in range(3):
            rng = random.Random(f"columns {seed}")
            digits = 10**19 if seed == 2 else 10

            def part():
                return F(rng.randint(1 - digits, digits - 1), rng.randint(1, digits - 1))

            m = MomentSeq([QC(1)] + [QC(part(), part()) for _ in range(30)])
            for column in psn_egf(m).columns:
                digest.update(repr((column.den, column.re, column.im)).encode())
        assert digest.hexdigest() == "def8c5478d2b8c1accc9dc3f03563c0c426d82ce124e90e6dc33db7979b4e96f"


def count_row_builds(monkeypatch):
    """Each series that builds its rows as a right operand from here on, once per build."""
    builds, real = [], powerseries._operand_rows

    def counting(b):
        builds.append(b)
        return real(b)

    monkeypatch.setattr(powerseries, "_operand_rows", counting)
    return builds


def copy_of(b):
    """A series equal to b that has served in no product."""
    return EGFSeries.from_numerators(b.den, b.re, b.im)


class TestKeptRows:
    """A series keeps the rows it is multiplied by, and they are no part of its value."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_are_built_once(self, monkeypatch, kind):
        rng = random.Random(f"kept {kind}")
        b = random_series(rng, 12, kind)
        calls, real = [], powerseries._rows

        def counting(re, im, vb):
            calls.append(re)
            return real(re, im, vb)

        monkeypatch.setattr(powerseries, "_rows", counting)
        operands = [random_series(rng, 12, "complex") for _ in range(5)]
        products = [egf_mul(a, b) for a in operands]
        assert calls == [b.re]
        assert products == [egf_mul(a, copy_of(b)) for a in operands]
        assert len(calls) == 1 + len(operands)

    @pytest.mark.parametrize("kind", KINDS)
    def test_value_is_unchanged_by_serving(self, kind):
        b = random_series(random.Random(f"value {kind}"), 9, kind)
        before = ((b.den, b.re, b.im), hash(b), repr(b))
        egf_mul(b, b)
        assert list(b._kept) == ["rows"]
        assert ((b.den, b.re, b.im), hash(b), repr(b)) == before
        twin = copy_of(b)
        assert twin._kept is None and b == twin and twin == b and hash(b) == hash(twin)

    def test_pow_leaves_its_argument_without_rows(self, monkeypatch):
        builds = count_row_builds(monkeypatch)
        a = random_series(random.Random("pow"), 8, "complex")
        m = MomentSeq([1, F(1, 2), QC(0, 3), 7])
        for n in range(6):
            assert egf_pow(a, n) == egf_pow(copy_of(a), n)
            egf_pow(m, n)
        assert a._kept is None and m._kept is None
        assert all(b is not a and b is not m for b in builds)


class TestTriangleRows:
    def test_each_row_is_built_once_and_kept(self):
        steps = []

        def step(j, row):
            steps.append(j)
            return (*row, j + 1)

        rows = triangle_rows(step)
        assert rows(3) == (1, 1, 2, 3)
        assert rows(0) == (1,) and rows(1) == (1, 1) and rows(3) is rows(3)
        assert rows(5) == (1, 1, 2, 3, 4, 5)
        assert steps == [0, 1, 2, 3, 4]

    def test_the_package_triangles_are_its_row_readers(self):
        # one helper's closure each: no lru_cache, and no second way to keep rows
        row_reader = triangle_rows(None).__code__
        m = moments_of(uniform_std(), 6)
        for rows in (powerseries._binomials, stirling._s1_row, stirling._s2_row,
                     stirling.psn_egf_cached(m), stirling.ladder(m, 0, 0).rung,
                     stirling.factorial_ladder(m).rung):
            assert rows.__code__ is row_reader and not hasattr(rows, "cache_info")

    def test_a_series_triangle_starts_at_its_own_row_0(self):
        one = egf_one(3)
        g = EGFSeries([0, 1, F(1, 2), 3])
        powers = triangle_rows(lambda k, row: egf_mul(row, g) if k else g, one)
        assert powers(0) is one and powers(1) is g
        assert [powers(k) for k in range(5)] == [egf_pow(g, k) for k in range(5)]


class TestKeptSlot:
    """A series keeps what is derived from it in one cache slot, which is no part of its value."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_hash_is_the_hash_of_the_fields(self, kind):
        b = random_series(random.Random(f"hash {kind}"), 9, kind)
        before = ((b.den, b.re, b.im), repr(b))
        h = hash(b)
        assert h == hash((b.den, b.re, b.im)) and b._kept is None
        kept(b, "key", lambda s: ["derived"])
        assert hash(b) == h and ((b.den, b.re, b.im), repr(b)) == before and "_kept" not in repr(b)
        twin = copy_of(b)
        assert twin._kept is None and twin == b and b == twin and hash(twin) == h

    def test_each_key_is_built_once(self):
        b = MomentSeq([1, F(1, 2), QC(0, 3)])
        builds = []

        def build(key):
            def run(s):
                builds.append((s, key))
                return [key]
            return run

        first = kept(b, "a", build("a"))
        assert kept(b, "a", build("again")) is first and kept(b, ("b", 1), build("b")) == ["b"]
        assert kept(b, "c", lambda s, *args: [s, *args], 2, 3) == [b, 2, 3]
        assert builds == [(b, "a"), (b, "b")] and list(b._kept) == ["a", ("b", 1), "c"]

    def test_sequences_keep_it_in_the_series_slot(self):
        assert MomentSeq.__slots__ == () and CumulantSeq.__slots__ == ()
        assert EGFSeries.__slots__ == ("den", "re", "im", "_kept")
        m = MomentSeq([1, F(1, 2), QC(0, 3)])
        egf_mul(m, m)
        assert not hasattr(m, "__dict__") and list(m._kept) == ["rows"]
        assert m._names == ("den", "re", "im")


def assert_columns_are_schoolbook_powers(m):
    """Column col of psn_egf(m) is the col-th schoolbook power of M - 1, over col!."""
    table = psn_egf(m)
    shifted = EGFSeries((QC(0),) + m.coeffs[1:])
    power = egf_one(m.order).coeffs
    for col in range(m.order + 1):
        for j in range(m.order + 1):
            assert table.entry(j, col) == power[j] / factorial(col), (col, j)
        power = schoolbook_egf_mul(EGFSeries(power), shifted)


def with_head(series, v, imaginary=False):
    """series with its coefficients below v zeroed; coefficient v made purely imaginary if asked."""
    values = list(series.coeffs)
    values[:v] = [QC(0)] * min(v, len(values))
    if imaginary and v < len(values):
        values[v] = QC(0, values[v].re or F(-3, 7))
    return EGFSeries(values)


def sparse_series(rng, order, head, count):
    """head plus ``count`` small coefficients at random places, zeros between; some purely imaginary."""
    values = [QC(head)] + [QC(0)] * order
    for j in rng.sample(range(1, order + 1), min(count, order)):
        re, im = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        values[j] = rng.choice((QC(re), QC(0, im or 1), QC(re, im)))
    return EGFSeries(values)


def _record_values():
    """(class, a builder of fresh values, a field, a value of another class)."""
    from pstirling.edgeworth import EdgeworthModel, edgeworth_model
    from pstirling.levy import LevySpec, SubordinatorSpec
    from pstirling.moments import CumulantSeq, cumulants_oracle
    from pstirling.oracle import (
        EmpiricalCdf,
        MCEstimate,
        ValidationReport,
        mc_empirical_cdf,
        mc_sum_moment,
    )
    from pstirling.randomvars import DistSpec, MomentSeq, moments_of, rademacher
    from pstirling.stirling import BoundCheck, StirlingTable, bound_holds, psn_egf

    mu = (1, 0, 1, 0, 1)
    seq = MomentSeq(mu)
    estimate = mc_sum_moment(rademacher(), 2, 2, 10, 1)
    return [
        (QC, lambda: QC(1, F(1, 2)), "re", seq),
        (EGFSeries, lambda: EGFSeries([1, F(1, 2), QC(0, 1)]), "den", seq),
        (MomentSeq, lambda: MomentSeq(list(mu)), "den", cumulants_oracle(seq)),
        (DistSpec, lambda: DistSpec("poisson", 2), "param", seq),
        (LevySpec, lambda: LevySpec(1, F(2), MomentSeq([1, 1, 2])), "sigma2",
         SubordinatorSpec(1, seq)),
        (SubordinatorSpec, lambda: SubordinatorSpec(1, MomentSeq([1, 2, 6])), "tau2",
         LevySpec(1, 1, seq)),
        (EdgeworthModel, lambda: edgeworth_model(DistSpec("uniformstd"), 2), "K", psn_egf(seq)),
        (StirlingTable, lambda: psn_egf(moments_of(rademacher(), 4)), "columns", seq),
        (BoundCheck, lambda: bound_holds(rademacher(), 4, 2), "holds", seq),
        (CumulantSeq, lambda: cumulants_oracle(MomentSeq(mu)), "kappa", seq),
        (MCEstimate, lambda: mc_sum_moment(rademacher(), 2, 2, 10, 1), "value",
         mc_empirical_cdf(rademacher(), 2, [0.0], 10, 1)),
        (EmpiricalCdf, lambda: mc_empirical_cdf(rademacher(), 2, [0.0], 10, 1), "points",
         estimate),
        (ValidationReport, lambda: ValidationReport("x", "1", "1", 0.0, 0.0, 0.0, True), "passed",
         estimate),
    ]


RECORDS = _record_values()


class TestRecords:
    """The value classes are frozen, equal by fields within a class, and hash alike."""

    @pytest.mark.parametrize(
        "cls, build, field, other", RECORDS, ids=[row[0].__name__ for row in RECORDS]
    )
    def test_value_semantics(self, cls, build, field, other):
        a, b = build(), build()
        assert type(a) is cls and a is not b
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        assert a != other and other != a

    # the NamedTuple records compare as tuples, as every NamedTuple does
    SLOTS = [row for row in RECORDS if issubclass(row[0], Record)]

    @pytest.mark.parametrize(
        "cls, build, field, other", SLOTS, ids=[row[0].__name__ for row in SLOTS]
    )
    def test_slots_records_are_not_tuples(self, cls, build, field, other):
        a = build()
        fields = tuple(getattr(a, name) for name in a._names)
        assert a != fields and fields != a
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert repr(a).startswith(cls.__name__ + "(")

    @pytest.mark.parametrize(
        "cls, build, field, other", SLOTS, ids=[row[0].__name__ for row in SLOTS]
    )
    def test_slots_records_have_no_instance_dict(self, cls, build, field, other):
        a = build()
        assert not hasattr(a, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(a, "stray", 1)

    COPIES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    }

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize(
        "cls, build, field, other", RECORDS, ids=[row[0].__name__ for row in RECORDS]
    )
    def test_copies_are_equal_values(self, cls, build, field, other, how):
        # the default reduce restores slots by setattr, which a Record refuses
        a = build()
        b = self.COPIES[how](a)
        assert type(b) is cls and b == a and a == b and hash(b) == hash(a)

    def test_a_custom_spec_pickles(self):
        spec = custom([1, F(1, 2), QC(0, 3)])
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_a_series_pickles_without_its_caches(self):
        m = MomentSeq([1, F(1, 2), QC(0, 3), 7])
        egf_mul(m, m)
        assert m._kept is not None
        assert pickle.dumps(m) == pickle.dumps(MomentSeq([1, F(1, 2), QC(0, 3), 7]))
        loaded = pickle.loads(pickle.dumps(m))
        assert loaded._kept is None and loaded == m
        # the copy is rebuilt through the class's checked path
        assert m.__reduce__() == (MomentSeq.from_numerators, (m.den, m.re, m.im))
