"""Seeded property tests on fresh custom moment sequences, real and complex.

Each sequence has mu_1 = ... = mu_r = 0 and random small rationals after
that, for vanishing orders r = 0, 1, 2.  The identities are the ones the
acceptance suite checks on catalog sequences, by exact equality.
"""

import copy
import random
from fractions import Fraction as F
from itertools import chain, repeat
from math import comb, factorial
from operator import add

import pytest

from pstirling import levy, moments, randomvars, stirling
from pstirling.powerseries import QC, EGFSeries, egf_exp, egf_log, egf_one, egf_pow
from pstirling.randomvars import MomentSeq, hat_transform, vanishing_order

from oracles import (
    schoolbook_egf_exp,
    schoolbook_egf_log,
    schoolbook_egf_mul,
    schoolbook_hat_transform,
    schoolbook_psn_direct,
    schoolbook_psn_via_classical,
    schoolbook_sum_moment_powers,
)
from test_powerseries import count_row_builds

J = 10
CASES = [(r, is_complex) for r in (0, 1, 2) for is_complex in (False, True)]
CASE_IDS = [f"r{r}-{'complex' if c else 'real'}" for r, c in CASES]


def fresh_sequence(seed, r, is_complex, order=J):
    """mu_0 = 1, mu_1..mu_r = 0, then nonzero-led random rationals (complex ones too)."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    def scalar():
        return QC(rational(), rational() if is_complex else 0)

    lead = scalar()
    while not lead:
        lead = scalar()
    mu = [QC(1)] + [QC(0)] * r + [lead] + [scalar() for _ in range(order - r - 1)]
    return MomentSeq(tuple(mu))


@pytest.fixture(params=CASES, ids=CASE_IDS)
def seq(request):
    # (r, is_complex), or (r, is_complex, order, digits) for an unrelated_sequence
    r, is_complex, *unrelated = request.param
    if unrelated:
        m = unrelated_sequence(1000 + 10 * r + is_complex, r, is_complex, *unrelated)
    else:
        m = fresh_sequence(1000 + 10 * r + is_complex, r, is_complex)
    assert vanishing_order(m) == r and m.is_real != is_complex
    return m


# the column's lcm over rung denominators meets large, unrelated ones at J = 12
@pytest.mark.parametrize(
    "seq", CASES + [(1, True, 12, 19)], ids=CASE_IDS + ["r1-complex-19-digit"], indirect=True
)
def test_four_routes_equal_the_table(seq):
    table = stirling.psn_egf(seq)
    v, order = vanishing_order(seq), seq.order
    for j in range(order + 1):
        for mm in range(j + 1):
            expected = table.entry(j, mm)
            assert stirling.psn_direct(seq, j, mm) == expected, (j, mm)
            assert stirling.psn_via_classical(seq, j, mm) == expected, (j, mm)
            p = j - mm * (v + 1)
            if mm == 0 or p < 0 or p + v + 1 <= order:
                assert stirling.psn_gr_rep(seq, v, j, mm) == expected, (j, mm)


def test_three_cumulant_routes_agree(seq):
    kappa = moments.cumulants_oracle(seq).kappa
    assert moments.cumulants_from_stirling(seq).kappa == kappa
    assert moments.cumulants_from_sum_moments(seq).kappa == kappa


def test_recursion_equals_table_route(seq):
    v = vanishing_order(seq)
    checked = 0
    for j in range(1, J + 1):
        tau = j // (v + 1)
        if tau < 1:
            continue
        for n in sorted({tau, 2 * tau + 1, 20}):
            assert moments.sum_moment_recursion(seq, n, j) == moments.sum_moment(seq, n, j)
            checked += 1
    assert checked > 0


def test_hat_transform_is_the_binomial_sum(seq):
    hat = hat_transform(seq)
    assert type(hat) is MomentSeq and hat.is_real == seq.is_real
    assert hat.coeffs == schoolbook_hat_transform(seq)


def test_vanishing_structure(seq):
    table = stirling.psn_egf(seq)
    v = vanishing_order(seq)
    for j in range(J + 1):
        for mm in range(1, j + 1):
            if j < mm * (v + 1):
                assert table.entry(j, mm) == 0, (j, mm)


class TestLadder:
    """The ladder cache, at every key its callers read: (0, 0) is M(z)^k for psn_direct, the
    recursion and the binomial cumulant route; (1, 1) and (2, 2) are psn_gr_rep's at vanishing
    orders 0 and 1; (0, 2) is the Levy moment functions'.  psn_via_classical reads the powers of
    the factorial moments' series F instead, from a cache of its own (factorial_ladder)."""

    KEYS = [(0, 0), (1, 1), (2, 2), (0, 2)]
    KEY_IDS = [f"{s}-{r}" for s, r in KEYS]
    # (route, j, m_idx), with m_idx rising; walked forwards and backwards
    CALLS = [
        (stirling.psn_via_classical, 4, 1),
        (stirling.psn_direct, 7, 3),
        (stirling.psn_via_classical, 9, 5),
        (stirling.psn_direct, 10, 8),
    ]

    def test_growth_order_does_not_matter(self, monkeypatch):
        m = fresh_sequence(77, 1, True)
        expected = {}
        for route, j, m_idx in self.CALLS:
            oracle = (schoolbook_psn_direct if route is stirling.psn_direct
                      else schoolbook_psn_via_classical)
            expected[route, j, m_idx] = oracle(m, j, m_idx)
        products, _ = count_products(monkeypatch)
        for calls in (self.CALLS[::-1], self.CALLS):
            m = copy.copy(m)  # an equal sequence that keeps no ladder yet
            products.clear()
            for route, j, m_idx in calls:
                assert route(m, j, m_idx) == expected[route, j, m_idx], (route.__name__, j, m_idx)
            # rungs 0..8 of ladder (0, 0), of which G^0 and G^1 take no product
            assert sum(b.coeffs == m.coeffs for b in products) == 7

    @pytest.mark.parametrize("is_complex", (False, True), ids=("real", "complex"))
    def test_rungs_after_growth_in_random_order(self, is_complex):
        m = fresh_sequence(88, 2, is_complex)
        expected = schoolbook_sum_moment_powers(m, J)
        for seed in range(3):
            m = copy.copy(m)
            for k in random.Random(seed).sample(range(J + 1), J + 1):
                rung = stirling.ladder(m, 0, 0).rung
                assert [rung(i).coeffs for i in range(k + 1)] == expected[: k + 1], (seed, k)
            assert [rung(i).coeffs for i in range(J + 1)] == expected

    # (0, 0) is M(z)^k, checked against its own oracle above
    @pytest.mark.parametrize("key", KEYS[1:], ids=KEY_IDS[1:])
    def test_rungs_after_reads_in_random_order(self, key):
        shift, r = key
        for m in (fresh_sequence(88, 2, False), fresh_sequence(88, 2, True)):
            expected = schoolbook_weighted_powers(m, shift, r, J)
            for seed in range(3):
                m = copy.copy(m)
                for k in random.Random(seed).sample(range(J + 1), J + 1):
                    rung = stirling.ladder(m, shift, r).rung
                    assert [rung(i).coeffs for i in range(k + 1)] == expected[: k + 1], (seed, k)
                assert [rung(i).coeffs for i in range(J + 1)] == expected

    @pytest.mark.parametrize("key", KEYS, ids=KEY_IDS)
    def test_one_row_build_and_one_product_per_rung(self, monkeypatch, key):
        shift, r = key
        m = fresh_sequence(81, 0, False)
        calls, builds = count_products(monkeypatch)
        ladder = stirling.ladder(m, shift, r)
        g = ladder.rung(1)
        assert g == stirling.weighted_series(m, shift, r, J - shift)
        # G^0 and G^1 take no product, so a ladder read only there builds no rows
        assert [ladder.rung(0), ladder.rung(1)] == [egf_one(J - shift), g]
        assert builds == [] and calls == []
        ladder.rung(5)
        # the rows of G, from the moments alone, built at the first product
        assert len(calls) == 4 and len(builds) == 1 and builds[0] is g
        ladder.rung(3)  # a read within the ladder grows nothing
        assert len(calls) == 4
        assert stirling.ladder(m, shift, r).rung is ladder.rung
        ladder.rung(7)
        assert len(calls) == 6 and all(b is g for b in calls) and len(builds) == 1
        assert all(ladder.rung(k).order == J - shift for k in range(8)) and len(calls) == 6

    def test_grows_lazily_by_one_product_per_step(self, monkeypatch):
        m = fresh_sequence(78, 0, False)
        f = stirling.factorial_moments(m)
        stirling.psn_egf_cached(m)(5)  # the recursion below reads column 5 of the table
        calls, builds = count_products(monkeypatch)

        def products_by(g):
            return sum(b.coeffs == g.coeffs for b in calls)

        stirling.psn_direct(m, 6, 4)
        assert len(calls) == 3 and [b.coeffs for b in builds] == [m.coeffs]
        moments.sum_moment_recursion(m, 9, 5)
        assert len(calls) == 3
        # the classical route grows F's own ladder, by the rows of F, and not ladder (0, 0)
        stirling.psn_via_classical(m, 6, 3)
        assert products_by(f) == 2 and products_by(m) == 3
        assert [b.coeffs for b in builds] == [m.coeffs, f.coeffs]
        stirling.psn_via_classical(m, 9, 2)
        assert products_by(f) == 2
        stirling.psn_direct(m, 8, 6)
        assert products_by(m) == 5 and products_by(f) == 2
        moments.cumulants_from_sum_moments(m)
        assert products_by(m) == J - 1 and products_by(f) == 2 and len(builds) == 2


def count_products(monkeypatch):
    """Record stirling's products, each by its right operand, and each series that builds rows."""
    calls, real_mul = [], stirling.egf_mul

    def counting_mul(a, b, *den):
        calls.append(b)
        return real_mul(a, b, *den)

    monkeypatch.setattr(stirling, "egf_mul", counting_mul)
    return calls, count_row_builds(monkeypatch)


@pytest.mark.parametrize("is_complex", (False, True), ids=("real", "complex"))
def test_table_builds_the_rows_of_m_minus_1_once(monkeypatch, is_complex):
    m = fresh_sequence(87, 1, is_complex)
    expected = stirling.psn_egf(m)
    calls, builds = count_products(monkeypatch)
    table = stirling.psn_egf(m)
    assert table == expected
    assert len(builds) == 1 and builds[0].coeffs == (QC(0),) + m.coeffs[1:]
    # column 1 is M - 1 itself, so the table takes J - 1 products, and it keeps no rows
    assert len(calls) == J - 1 and all(b is builds[0] for b in calls)
    assert table.columns[1] == builds[0] and all(column._kept is None for column in table.columns)
    assert m._kept is None  # psn_egf keeps neither its reader nor the rows of M - 1 in m


@pytest.mark.parametrize("is_complex", (False, True), ids=("real", "complex"))
def test_a_sum_moment_builds_only_the_columns_it_sums(monkeypatch, is_complex):
    """The kept table grows as it is read: E S_3^J sums columns 0..3, the recursion column tau."""
    m = fresh_sequence(90, 0, is_complex)
    assert m[1] != 0 and vanishing_order(m) == 0  # tau = j, so the sums reach past column 3
    expected = [moments.sum_moment_egf(m, 3, J), moments.sum_moment_egf(m, 9, 5)]
    calls, builds = count_products(monkeypatch)
    assert moments.sum_moment(m, 3, J) == expected[0]
    # columns 2 and 3, by the rows of M - 1; columns 0 and 1 take no product
    assert len(calls) == 2 and len(builds) == 1 and all(b is builds[0] for b in calls)
    assert builds[0].coeffs == (QC(0),) + m.coeffs[1:]
    calls.clear()
    # tau = 5: table columns 4 and 5, and rungs 2..4 of ladder (0, 0), by the rows of M
    assert moments.sum_moment_recursion(m, 9, 5) == expected[1]
    assert [b is builds[0] for b in calls] == [True, True, False, False, False]
    assert all(b.coeffs == m.coeffs for b in calls[2:]) and len(builds) == 2
    columns = stirling.psn_egf_cached(m)
    assert [*map(columns, range(6))] == list(stirling.psn_egf(m).columns[:6])
    assert len(calls) == 5 + J - 1  # psn_egf's own J - 1 products: columns 0..5 were kept, not rebuilt


def test_routes_never_read_the_table(monkeypatch):
    """The ladder is built from M alone: with psn_egf unusable the routes still agree."""
    m = fresh_sequence(79, 1, True)
    table = stirling.psn_egf(m)
    kappa = moments.cumulants_oracle(m).kappa

    def unavailable(*args, **kwargs):
        raise AssertionError("a cross-check route read the table it checks")

    real = stirling.egf_mul

    f = stirling.factorial_moments(m)

    def powers_of_m_only(a, b):
        # the ladders multiply powers of M, or of the factorial moments' F, by the rows of M or F
        # itself, whose constant term is 1; M - 1 has 0
        assert b.coeffs in (m.coeffs, f.coeffs)
        assert a[0] == 1 and b[0] == 1
        return real(a, b)

    for module, name in [(stirling, "psn_egf"), (stirling, "psn_egf_cached"),
                         (moments, "psn_egf_cached"), (stirling, "egf_pow")]:
        monkeypatch.setattr(module, name, unavailable)
    monkeypatch.setattr(stirling, "egf_mul", powers_of_m_only)
    assert m._kept is None  # the table and the oracle left m no ladder
    for j in range(J + 1):
        for mm in range(j + 1):
            assert stirling.psn_direct(m, j, mm) == table.entry(j, mm)
            assert stirling.psn_via_classical(m, j, mm) == table.entry(j, mm)
    assert moments.cumulants_from_sum_moments(m).kappa == kappa


def test_classical_route_reads_the_classical_numbers(monkeypatch):
    """With one wrong S(j,l) the classical route goes wrong and the defining one does not:
    the route is not x[j] of the column psn_direct reads."""
    m = fresh_sequence(80, 0, True)
    table = stirling.psn_egf(m)
    j, mm = 8, 3
    real_row = stirling._s2_row

    def wrong_row(jj):
        row = real_row(jj)
        return row[:5] + (row[5] + 1,) + row[6:] if jj == j else row

    monkeypatch.setattr(stirling, "_s2_row", wrong_row)
    assert stirling.psn_via_classical(m, j, mm) != table.entry(j, mm)
    assert stirling.psn_direct(m, j, mm) == table.entry(j, mm)


def test_a_kernel_fault_is_caught_by_the_schoolbook_oracles(monkeypatch):
    """Every route in src multiplies through powerseries._product, so with one coefficient
    off by one they can still agree with each other; the schoolbook oracles build with QC
    arithmetic and read series only through .coeffs, so they never call it and disagree."""
    from pstirling import powerseries

    real, armed = powerseries._product, []

    def faulty(x, rows):
        re, im = real(x, rows)
        if armed:  # the first product after arming, one coefficient, is off by one
            armed.pop()
            re = map(add, re, chain((1,), repeat(0)))
        return re, im

    monkeypatch.setattr(powerseries, "_product", faulty)
    a, b = fresh_sequence(3101, 0, True), fresh_sequence(3102, 1, False)
    j, mm = J, 3
    routes = [
        (lambda a: powerseries.egf_mul(a, b).coeffs, lambda a: schoolbook_egf_mul(a, b)),
        (lambda a: stirling.psn_egf(a).entry(j, mm), lambda a: schoolbook_psn_direct(a, j, mm)),
        (lambda a: stirling.psn_direct(a, j, mm), lambda a: schoolbook_psn_direct(a, j, mm)),
        (lambda a: stirling.psn_via_classical(a, j, mm),
         lambda a: schoolbook_psn_via_classical(a, j, mm)),
    ]
    for route, oracle in routes:
        # an equal sequence that keeps no ladder, so that the route builds its rungs through
        # the faulty kernel
        fresh = copy.copy(a)
        expected = oracle(fresh)
        armed.append(True)
        got = route(fresh)
        assert not armed  # the fault fired
        assert got != expected
        armed.append(True)
        assert oracle(fresh) == expected and armed  # the oracle never reached the kernel
        armed.clear()


def schoolbook_weighted_powers(m, shift, r, k_max):
    """G^0..G^k_max as coefficient tuples, G_k = mu_{k+shift}/C(k+r, r), by schoolbook products."""
    g = EGFSeries([m[k + shift] / comb(k + r, r) for k in range(m.order - shift + 1)])
    pows = [(QC(1),) + (QC(0),) * g.order]
    for _ in range(k_max):
        pows.append(schoolbook_egf_mul(EGFSeries(pows[-1]), g))
    return pows


class TestWeightedLadder:
    """Weighted ladders against the per-call routes they replace: weighted_sum_moment's own
    egf_pow, and the table through psn_gr_rep's prefactor."""

    def test_entries_equal_the_per_call_routes(self, seq):
        for r in (0, 1, 2):
            for m_idx in range(J + 1):
                for p in range(J + 1):
                    rung = stirling.ladder(seq, 0, r).rung(m_idx)
                    assert rung[p] == stirling.weighted_sum_moment(seq, r, m_idx, p), (r, m_idx, p)
        # psn_gr_rep's shift: the prefactor times coefficient p of G^m is S_Y(j, m)
        table = stirling.psn_egf(seq)
        s = vanishing_order(seq) + 1
        for j in range(J + 1):
            for mm in range(1, j // s + 1):
                p = j - mm * s
                if p + s > J:
                    continue
                pref = F(factorial(mm * s), factorial(mm) * factorial(s) ** mm) * comb(j, mm * s)
                rung = stirling.ladder(seq, s, s).rung(mm)
                assert pref * rung[p] == table.entry(j, mm), (j, mm)


def test_weighted_routes_never_read_the_table(monkeypatch):
    """The weighted ladder is built from the moments alone: with psn_egf and egf_pow unusable
    psn_gr_rep and the subordinator moments still work."""
    m = fresh_sequence(83, 1, True)
    table = stirling.psn_egf(m)
    rng = random.Random(84)
    sub = levy.SubordinatorSpec(F(3, 2), MomentSeq([1] + [F(rng.randint(1, 9), rng.randint(1, 9))
                                                          for _ in range(J)]))
    t = F(2, 3)
    h = [levy.subordinator_moment_h(sub, j, t) for j in range(J + 1)]

    def unavailable(*args, **kwargs):
        raise AssertionError("a weighted-sum route read the table or ran egf_pow")

    for module, name in [(stirling, "psn_egf"), (stirling, "psn_egf_cached"),
                         (moments, "psn_egf_cached"), (stirling, "egf_pow")]:
        monkeypatch.setattr(module, name, unavailable)
    # an equal spec over an equal sequence, which keeps no ladder yet, and m, which the table left
    # with none
    sub = copy.deepcopy(sub)
    assert m._kept is None and sub.tstar_moments._kept is None
    for j in range(J + 1):
        for mm in range(j + 1):
            p = j - mm * 2
            if mm == 0 or p < 0 or p + 2 <= J:
                assert stirling.psn_gr_rep(m, 1, j, mm) == table.entry(j, mm), (j, mm)
        assert levy.subordinator_moment_h(sub, j, t) == h[j]


def test_table_and_ladder_consumers_do_no_qc_arithmetic(monkeypatch):
    """Every table and ladder consumer, and standardization, sums integer numerators and builds
    QC values only at the end: with QC's arithmetic unusable each returns what it did before."""

    def cases(m):
        return {
            "sum_moment": lambda: [moments.sum_moment(m, n, j)
                                   for n in (0, 3, 20) for j in range(J + 1)],
            "sum_moment_recursion": lambda: [moments.sum_moment_recursion(m, n, j)
                                             for j in range(2, J + 1) for n in (j // 2, 20)],
            "cumulants_from_stirling": lambda: moments.cumulants_from_stirling(m),
            "cumulants_from_sum_moments": lambda: moments.cumulants_from_sum_moments(m),
            "psn_direct": lambda: [stirling.psn_direct(m, j, mm)
                                   for j in range(J + 1) for mm in range(j + 1)],
            "psn_via_classical": lambda: [stirling.psn_via_classical(m, j, mm)
                                          for j in range(J + 1) for mm in range(j + 1)],
            "psn_gr_rep": lambda: [stirling.psn_gr_rep(m, 1, j, mm) for j in range(J + 1)
                                   for mm in range(j + 1) if j - 2 * mm <= J - 2],
            # gamma(9/4): mean 9/4 and sigma 3/2, so every factor of the rescaling is nontrivial
            "standardize_moments": lambda: randomvars.standardize_moments(
                randomvars.moments_of(randomvars.gamma_shape(F(9, 4)), J)),
        }
    m = fresh_sequence(85, 1, True)
    expected = {name: route() for name, route in cases(m).items()}

    def unavailable(*args, **kwargs):
        raise AssertionError("a consumer did arithmetic on QC values")

    for name in ("__add__", "__mul__", "__rmul__", "__sub__", "__truediv__"):
        monkeypatch.setattr(QC, name, unavailable)
    # on an equal sequence, which keeps no table or ladder yet
    for name, route in cases(copy.copy(m)).items():
        assert route() == expected[name], name


def unrelated_sequence(seed, r, is_complex, order, digits=9):
    """mu_1..mu_r = 0, then random rationals with unrelated numerators and denominators.

    Each numerator and denominator has ``digits`` digits.
    """
    rng = random.Random(seed)

    def rational():
        low, high = 10 ** (digits - 1), 10**digits
        return F(rng.randint(low, high) * rng.choice((-1, 1)), rng.randint(low, high))

    mu = [QC(1)] + [QC(0)] * r
    mu += [QC(rational(), rational() if is_complex else 0) for _ in range(order - r)]
    return MomentSeq(tuple(mu))


@pytest.mark.parametrize("r, is_complex", [(1, False), (2, True)], ids=["r1-real", "r2-complex"])
def test_consumers_on_unrelated_denominators(r, is_complex):
    order = 30
    m = unrelated_sequence(86 + r, r, is_complex, order)
    assert vanishing_order(m) == r
    kappa = moments.cumulants_from_stirling(m).kappa
    assert kappa == moments.cumulants_from_sum_moments(m).kappa
    assert kappa == schoolbook_egf_log(m)[1:]
    for n in (0, 1, 2, 7, 1000):
        power = egf_pow(m, n)  # sum_moment_egf(m, n, j) is power[j]; built once per n
        assert moments.sum_moment_egf(m, n, order) == power[order]
        sweep = moments.sum_moments(m, n)  # exp(n log M), what the CLI prints
        assert sweep.coeffs == power.coeffs, n
        for j in range(order + 1):
            for rr in range(r + 1):
                assert moments.sum_moment(m, n, j, r=rr) == sweep[j], (n, j, rr)
    for j in range(r + 1, order + 1):
        tau = j // (r + 1)
        for n in sorted({tau, 2 * tau + 1, 20}):
            assert moments.sum_moment_recursion(m, n, j) == moments.sum_moment(m, n, j), (n, j)


@pytest.mark.parametrize(
    "digits, is_complex", [(19, False), (9, True)], ids=["19-digit-real", "9-digit-complex"]
)
def test_log_exp_on_unrelated_denominators(digits, is_complex):
    """egf_log and egf_exp at J = 60 equal the schoolbook on random, unrelated denominators."""
    m = unrelated_sequence(60 + digits, 0, is_complex, 60, digits)
    assert egf_log(m) == EGFSeries(schoolbook_egf_log(m))
    a = EGFSeries((QC(0),) + m.coeffs[1:])
    assert egf_exp(a) == EGFSeries(schoolbook_egf_exp(a))
