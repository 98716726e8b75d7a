"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import functools
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from math import comb, factorial, perm

import pytest

import pstirling as ps
from pstirling.levy import (
    compensated_unit_jump,
    gamma_subordinator,
    poisson_subordinator,
)
from pstirling.randomvars import hat_transform, standardize_moments

from test_properties import unrelated_sequence


def specs_by_name():
    """The eight acceptance sequences at J = 10, built anew by each criterion that reads them.

    A sequence keeps its tables and ladders, so fresh ones make each
    criterion, and its budget, measure cold work in any test order.
    """
    return {
        "rademacher": ps.moments_of(ps.rademacher(), 10),
        "bernoulli(1/2)": ps.moments_of(ps.bernoulli(F(1, 2)), 10),
        "uniformstd": ps.moments_of(ps.uniform_std(), 10),
        "poisson(1)": ps.moments_of(ps.poisson(1), 10),
        "exponential": ps.moments_of(ps.exponential(), 10),
        "normal(1)": ps.moments_of(ps.normal(1), 10),
        "hat(uniformstd)": hat_transform(ps.moments_of(ps.uniform_std(), 10)),
        "hat(rademacher)": hat_transform(ps.moments_of(ps.rademacher(), 10)),
    }


REAL_CATALOG = [
    ps.point_mass(2),
    ps.point_mass(F(-3, 2)),
    ps.rademacher(),
    ps.bernoulli(F(1, 2)),
    ps.uniform_std(),
    ps.poisson(1),
    ps.exponential(),
    ps.gamma_shape(F(5, 2)),
    ps.normal(1),
]


def criterion(num, desc, budget=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL: {desc}")
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {num:2d} PASS ({elapsed:6.2f}s): {desc}")
            if budget is not None:
                assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"

        return wrapper

    return deco


@criterion(1, "classical recovery on the full triangle, J=12", budget=1.0)
def test_criterion_01_classical_recovery():
    table = ps.psn_egf(ps.moments_of(ps.point_mass(1), 12))
    for j in range(13):
        for m in range(j + 1):
            assert table.entry(j, m) == ps.classical_s2(j, m)
    assert table.entry(4, 2) == 7
    assert table.entry(5, 3) == 25


@criterion(2, "four-route Stirling agreement, 8 sequences, J=10", budget=10.0)
def test_criterion_02_four_routes():
    for name, m in specs_by_name().items():
        r = ps.vanishing_order(m)
        table = ps.psn_egf(m)
        for j in range(11):
            for mm in range(j + 1):
                reference = table.entry(j, mm)
                assert ps.psn_direct(m, j, mm) == reference, (name, j, mm)
                assert ps.psn_via_classical(m, j, mm) == reference, (name, j, mm)
                p = j - mm * (r + 1)
                if mm == 0 or p < 0 or p + r + 1 <= m.order:
                    assert ps.psn_gr_rep(m, r, j, mm) == reference, (name, j, mm)


@criterion(3, "vanishing structure S_Y(j,m) = 0 for j < m(r+1)")
def test_criterion_03_vanishing():
    for name, m in specs_by_name().items():
        r = ps.vanishing_order(m)
        table = ps.psn_egf(m)
        for j in range(11):
            for mm in range(j + 1):
                if j < mm * (r + 1):
                    assert table.entry(j, mm) == ps.QC(0), (name, j, mm)


@criterion(4, "moment identity sum_moment == MGF power, j<=10, n<=20")
def test_criterion_04_moment_identity():
    specs = specs_by_name()
    for name, m in specs.items():
        for n in range(21):
            power = ps.egf_pow(m, n)
            for j in range(11):
                assert ps.sum_moment(m, n, j) == power[j], (name, n, j)
    rad = specs["rademacher"]
    for n in range(21):
        assert ps.sum_moment(rad, n, 4) == 3 * n**2 - 2 * n


@criterion(5, "finite recursion equals the direct identity, j<=8, n<=20")
def test_criterion_05_recursion():
    specs = specs_by_name()
    for name, m in specs.items():
        r = ps.vanishing_order(m)
        for j in range(1, 9):
            tau = j // (r + 1)
            if tau < 1:
                continue
            for n in range(tau, 21):
                assert ps.sum_moment_recursion(m, n, j) == ps.sum_moment(m, n, j), (name, n, j)
    rad = specs["rademacher"]
    for n in range(2, 21):
        assert ps.sum_moment_recursion(rad, n, 4) == (3 + F(1, n - 1)) * perm(n, 2)


@criterion(6, "monotone even-moment convergence with exact limits, n<=50")
def test_criterion_06_monotone():
    limits = {1: F(1), 2: F(3), 3: F(15), 4: F(105)}
    for spec in (ps.rademacher(), ps.uniform_std(), ps.normal(1)):
        m = ps.moments_of(spec, 8)
        for j in (1, 2, 3, 4):
            values, limit = ps.even_moment_sequence(m, j, 50)
            assert limit == limits[j]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(v >= limit for v in values)


@criterion(7, "triangle bound holds on all real catalog specs, j<=10")
def test_criterion_07_bound():
    for spec in REAL_CATALOG:
        for j in range(11):
            for mm in range(j + 1):
                check = ps.bound_holds(spec, j, mm)
                assert check.holds, (spec.kind, j, mm)


@criterion(8, "cumulant three-route equality, J=8")
def test_criterion_08_cumulants():
    for spec in REAL_CATALOG:
        m = ps.moments_of(spec, 8)
        a = ps.cumulants_from_stirling(m)
        b = ps.cumulants_from_sum_moments(m)
        c = ps.cumulants_oracle(m)
        assert a.kappa == b.kappa == c.kappa, spec.kind
    poi = ps.cumulants_from_stirling(ps.moments_of(ps.poisson(1), 8))
    assert all(v == 1 for v in poi.kappa)
    for s2 in (F(1), F(2)):
        nrm = ps.cumulants_from_stirling(ps.moments_of(ps.normal(s2), 8))
        assert nrm.kappa[1] == s2
        assert all(v == 0 for i, v in enumerate(nrm.kappa) if i != 1)
    rad = ps.cumulants_from_stirling(ps.moments_of(ps.rademacher(), 8))
    assert rad.kappa[3] == -2


@criterion(9, "Levy/subordinator moments, monotonicity certificates, cumulants")
def test_criterion_09_levy():
    times = (F(1, 2), F(1), F(5))
    psub = poisson_subordinator(10)
    gsub = gamma_subordinator(10)
    for t in times:
        assert ps.subordinator_moment_h(psub, 3, t) == 1
        assert ps.subordinator_moment_h(psub, 4, t) == 3 + 1 / t
        assert ps.subordinator_moment_h(gsub, 3, t) == 2
    for spec in (psub, gsub):
        for j in range(2, 11):
            assert all(c >= 0 for c in ps.cm_coefficients(spec, j))
    for spec in (compensated_unit_jump(10), ps.LevySpec(1, 2, ps.moments_of(ps.point_mass(0), 10))):
        for j in range(2, 11, 2):
            assert all(c >= 0 for c in ps.cm_coefficients(spec, j))
    cuj = compensated_unit_jump(10)
    for t in times:
        for j in range(2, 9):
            assert ps.levy_cumulant(cuj, j, t) == t


@criterion(10, "Edgeworth leading term within 1e-12; uniform coefficient 1/20")
def test_criterion_10_leading_term():
    from pstirling.edgeworth import hermite_eval, normal_pdf

    for source in (ps.uniform_std(), ps.rademacher()):
        mom = ps.moments_of(source, 12)
        model = ps.edgeworth_model(mom, K=2)
        hat = hat_transform(mom)
        r = model.r
        for n in (4, 16, 64):
            for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
                expected = (
                    -normal_pdf(y)
                    * hermite_eval(r, y)
                    * float(hat[r + 1].as_fraction())
                    / factorial(r + 1)
                    * n ** (-(r - 1) / 2)
                )
                assert ps.edgeworth_term(model, r - 1, n, y) == pytest.approx(
                    expected, rel=1e-12, abs=1e-15
                )
    model = ps.edgeworth_model(ps.uniform_std(), K=2)
    assert -model.hat_table.entry(4, 1).as_fraction() / factorial(4) == F(1, 20)


@criterion(11, "Edgeworth sup-error rate in [0.175, 0.7]; K=4 strictly better", budget=30.0)
def test_criterion_11_rate():
    grid = [F(k, 10) for k in range(-30, 31)]
    model2 = ps.edgeworth_model(ps.uniform_std(), K=2)
    model4 = ps.edgeworth_model(ps.uniform_std(), K=4)

    def sup_err(model, n):
        return max(
            abs(ps.edgeworth_cdf(model, n, float(y)) - ps.uniform_fn_exact(n, y))
            for y in grid
        )

    errs2 = {n: sup_err(model2, n) for n in (8, 16, 32)}
    for small, big in ((8, 16), (16, 32)):
        ratio = errs2[big] / errs2[small]
        assert 0.25 * 0.7 <= ratio <= 0.5 * 1.4, (small, big, ratio)
    for n in (16, 32):
        assert sup_err(model4, n) < errs2[n]


@criterion(12, "Monte Carlo concordance at 4-sigma / DKW, N=1e6, seed 7", budget=60.0)
def test_criterion_12_monte_carlo():
    reports = ps.run_validation("mc", seed=7, n_samples=10**6)
    assert reports
    for report in reports:
        assert report.passed, report


CRITERION_13_RUNS = [
    ["stirling", "--dist", "uniformstd", "--jmax", "8"],
    ["moments", "--dist", "poisson", "--param", "1", "--n", "7", "--jmax", "8"],
    ["cumulants", "--dist", "rademacher", "--jmax", "8"],
    ["levy", "--dist", "gamma", "--t", "1/2", "--jmax", "8"],
    ["edgeworth", "--dist", "uniformstd", "--n", "16", "--K", "2", "--grid=-2:2:1/2"],
    ["validate", "--suite", "exact"],
]


@criterion(13, "byte-identical repeated exact-mode CLI runs")
def test_criterion_13_determinism(tmp_path):
    from pstirling.cli import main

    for i, argv in enumerate(CRITERION_13_RUNS):
        paths = [tmp_path / f"run{i}_{k}.out" for k in (0, 1)]
        for path in paths:
            assert main(argv + ["--out", str(path)]) == 0
        first, second = (p.read_bytes() for p in paths)
        assert first == second and first, argv


@pytest.mark.parametrize("argv", CRITERION_13_RUNS, ids=lambda argv: argv[0])
def test_criterion_13_in_fresh_processes_under_two_hash_seeds(argv):
    """Criterion 13 as a user runs it: each run a new process with cold caches, and str hashing
    seeded 0 and then 1, so no output may depend on a set's or a dict's hash order."""
    src = os.path.dirname(os.path.dirname(ps.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-m", "pstirling.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), (argv, seed)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0], argv


def test_cumulants_on_unrelated_denominators_within_budget():
    # the series log of 101 moments with random 19-digit parts takes about 1 s;
    # over a dilated input, whose numerators grew like the product of the
    # denominators, it took 24.5 s
    m = unrelated_sequence(101, 0, False, 100, digits=19)
    start = time.perf_counter()
    kappa = ps.cumulants_oracle(m).kappa
    elapsed = time.perf_counter() - start
    assert kappa[0] == m[1] and len(kappa) == 100
    assert elapsed < 10.0, f"cumulants_oracle took {elapsed:.1f}s, over its 10s budget"


def test_standardization_helper_for_criterion_context():
    # the hat-based matching order used throughout assumes standardized
    # inputs; make sure the helper agrees with the two standardized specs
    for spec in (ps.rademacher(), ps.uniform_std()):
        m = ps.moments_of(spec, 8)
        assert standardize_moments(m).coeffs == m.coeffs
