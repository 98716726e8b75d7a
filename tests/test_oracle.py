import math
import tracemalloc
from fractions import Fraction as F

import pytest

from pstirling import oracle
from pstirling.oracle import (
    EmpiricalCdf,
    irwin_hall_cdf,
    mc_empirical_cdf,
    mc_sum_moment,
    run_validation,
    uniform_fn_exact,
)
from pstirling.powerseries import DomainError
from pstirling.randomvars import (
    UnsupportedSpecError,
    bernoulli,
    custom,
    exponential,
    gamma_shape,
    moments_of,
    normal,
    point_mass,
    poisson,
    rademacher,
    uniform_std,
)

from oracles import (
    PiecewisePoly,
    RADEMACHER_SUPPORT,
    enum_sum_moment,
    reference_mc_empirical_cdf,
    reference_mc_sum_moment,
)
from test_randomvars import SAMPLED_SPECS


class TestIrwinHall:
    def test_single_uniform_is_identity(self):
        for x in (F(0), F(1, 4), F(1, 2), F(7, 8), F(1)):
            assert irwin_hall_cdf(1, x) == x

    def test_pinned_values(self):
        assert irwin_hall_cdf(2, F(1, 2)) == F(1, 8)
        assert irwin_hall_cdf(3, F(3, 2)) == F(1, 2)

    def test_support_ends(self):
        assert irwin_hall_cdf(4, F(-1)) == 0
        assert irwin_hall_cdf(4, F(0)) == 0
        assert irwin_hall_cdf(4, F(4)) == 1
        assert irwin_hall_cdf(4, F(9, 2)) == 1

    def test_symmetry_exact(self):
        for n in (2, 3, 5, 8, 13):
            for num in range(0, 4 * n + 1):
                x = F(num, 4)
                assert irwin_hall_cdf(n, x) + irwin_hall_cdf(n, n - x) == 1

    def test_monotone(self):
        for n in (2, 5):
            values = [irwin_hall_cdf(n, F(num, 8)) for num in range(8 * n + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_against_convolution_oracle(self):
        for n in (1, 2, 3, 4, 5):
            pp = PiecewisePoly(n)
            # sixths, then points with large unrelated numerator and denominator
            xs = [F(num, 6) for num in range(0, 6 * n + 1)]
            xs += [F(k * 10**19 + 7, 2 * 10**19 + 3) for k in range(1, 2 * n)]
            for x in xs:
                assert irwin_hall_cdf(n, x) == pp.cdf(x), x

    def test_float_path_tracks_exact(self):
        # a float is read as the dyadic rational it is, so the value is exact
        for n in (2, 5, 8):
            for num in range(1, 2 * n):
                x = F(num, 2)
                assert irwin_hall_cdf(n, float(x)) == irwin_hall_cdf(n, x)
                y = num / 10
                assert irwin_hall_cdf(n, y) == irwin_hall_cdf(n, F(y))


class TestUniformFn:
    def test_midpoint(self):
        for n in (1, 2, 7, 16, 33):
            assert uniform_fn_exact(n, 0.0) == 0.5

    def test_support_edge(self):
        assert uniform_fn_exact(1, math.sqrt(3)) == 1.0

    def test_frozen_value_n2(self):
        # 1 - (2-x)^2/2 at x = 1 + 1/sqrt(6)
        expected = 1 - (1 - 1 / math.sqrt(6)) ** 2 / 2
        assert uniform_fn_exact(2, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_normal_for_large_n(self):
        from pstirling.edgeworth import normal_cdf

        assert uniform_fn_exact(64, 1.0) == pytest.approx(normal_cdf(1.0), abs=2e-3)

    def test_rational_argument(self):
        assert uniform_fn_exact(4, F(1, 2)) == pytest.approx(uniform_fn_exact(4, 0.5), abs=1e-15)


class TestMcSumMoment:
    def test_point_mass_exact(self):
        est = mc_sum_moment(point_mass(2), 3, 2, 20_000, seed=1)
        assert est.value == 36.0 and est.stderr == 0.0

    def test_rademacher_within_4_sigma(self):
        exact = enum_sum_moment(RADEMACHER_SUPPORT, 2, 4)
        est = mc_sum_moment(rademacher(), 2, 4, 100_000, seed=7)
        spread = enum_sum_moment(RADEMACHER_SUPPORT, 2, 8) - exact**2
        tol = 4 * math.sqrt(float(spread) / est.n_samples)
        assert abs(est.value - float(exact)) <= tol

    def test_deterministic(self):
        a = mc_sum_moment(uniform_std(), 3, 2, 30_000, seed=11)
        b = mc_sum_moment(uniform_std(), 3, 2, 30_000, seed=11)
        assert a == b

    def test_custom_rejected(self):
        with pytest.raises(UnsupportedSpecError):
            mc_sum_moment(custom([1, 0, 1]), 2, 2, 10_000, seed=0)

    def test_poisson_rate_past_the_float_range_rejected(self):
        # it reported 746.89 +- 0.62 for a mean of 800
        with pytest.raises(UnsupportedSpecError, match="poisson rate 800"):
            mc_sum_moment(poisson(800), 1, 1, 2000, seed=3)

    @pytest.mark.parametrize("spec", [rademacher(), exponential()], ids=["rademacher", "exponential"])
    def test_negative_j_is_refused_before_sampling(self, spec, monkeypatch):
        # rademacher raised ZeroDivisionError; exponential estimated E S^-1 as 1.48
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(oracle, "_stream_sums", no_sampling)
        with pytest.raises(ValueError, match="^indices must be nonnegative$"):
            mc_sum_moment(spec, 2, -1, 10_000, seed=0)

    @pytest.mark.parametrize("j", [320, 350, 500, 1000])
    def test_a_power_a_float_cannot_hold_is_a_domain_error(self, j):
        # j = 320..500: v * v overflows to inf, which would read stderr 0.0; j = 1000: s**j overflows
        with pytest.raises(DomainError, match=f"j = {j}, n = 2$"):
            mc_sum_moment(exponential(), 2, j, 10, 1)

    def test_the_largest_finite_powers_keep_their_values(self):
        # the last j of this stream whose squares a float holds, as computed with no overflow check
        est = mc_sum_moment(exponential(), 2, 300, 10, 1)
        assert (est.value.hex(), est.stderr.hex()) == ("0x1.4781e4a073a17p+495",) * 2

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: irwin_hall_cdf(0, F(1, 2)), "^n must be positive$"),
            (lambda: mc_sum_moment(uniform_std(), 2, 2, 0, seed=1), "^need at least one sample$"),
        ],
        ids=["irwin-hall-n", "mc-no-samples"],
    )
    def test_refusal_names_its_fault(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_one_sample_has_stderr_zero(self):
        est = mc_sum_moment(uniform_std(), 2, 2, 1, seed=1)
        assert est.n_samples == 1 and est.stderr == 0.0 and est.value > 0.0

    def test_stderr_shrinks_with_n(self):
        # averaged over seeds, doubling the sample count cuts SE by ~sqrt(2)
        small = [mc_sum_moment(uniform_std(), 2, 2, 3_000, seed=s).stderr for s in range(10)]
        big = [mc_sum_moment(uniform_std(), 2, 2, 6_000, seed=s + 100).stderr for s in range(10)]
        assert sum(big) / 10 <= 0.8 * (sum(small) / 10)


class TestMcEmpiricalCdf:
    GRID = [x / 2 for x in range(-5, 6)]

    def test_monotone_and_bounded(self):
        emp = mc_empirical_cdf(rademacher(), 4, self.GRID, 50_000, seed=3)
        values = [f for _, f in emp.points]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= f <= 1.0 for f in values)

    def test_symmetric_midpoint(self):
        emp = mc_empirical_cdf(uniform_std(), 4, [0.0], 100_000, seed=5)
        assert abs(emp.points[0][1] - 0.5) <= emp.dkw_bound

    def test_matches_exact_cdf_within_dkw(self):
        emp = mc_empirical_cdf(uniform_std(), 4, self.GRID, 100_000, seed=9)
        worst = max(abs(f - uniform_fn_exact(4, y)) for y, f in emp.points)
        assert worst <= emp.dkw_bound

    def test_unsorted_grid_with_repeats(self):
        # each point reads the count at its own value, whatever the grid's order
        grid = [0.5, -1.0, 0.5, 0.0, -0.0, 4.0, -1.0, 1.0]
        emp = mc_empirical_cdf(uniform_std(), 4, grid, 5_000, seed=4)
        ref = dict(mc_empirical_cdf(uniform_std(), 4, sorted(set(grid)), 5_000, seed=4).points)
        assert emp.points == tuple((y, ref[y]) for y in grid)
        assert ref[-1.0] < ref[0.0] < ref[0.5] < ref[1.0] < ref[4.0] == 1.0

    def test_dkw_radius_formula(self):
        emp = mc_empirical_cdf(rademacher(), 2, [0.0], 10_000, seed=2)
        assert emp.dkw_bound == pytest.approx(math.sqrt(math.log(2000) / 20_000))

    def test_custom_rejected(self):
        with pytest.raises(UnsupportedSpecError):
            mc_empirical_cdf(custom([1, 0, 1]), 2, [0.0], 10_000, seed=0)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_needs_a_sample(self, n_samples):
        with pytest.raises(ValueError, match="at least one sample"):
            mc_empirical_cdf(uniform_std(), 2, [0.0], n_samples, seed=1)

    def test_nan_grid_point_rejected(self):
        # a NaN cut sorts anywhere, and its point read (nan, 1.0)
        with pytest.raises(ValueError, match="not nan"):
            mc_empirical_cdf(uniform_std(), 2, [0.0, math.nan, 1.0], 1_000, seed=1)


# mc_sum_moment(spec, 2, 3, 20, seed=5) value and stderr, then the
# mc_empirical_cdf(spec, 2, GOLDEN_GRID, 20, seed=5) values, as float.hex, read
# with _CHUNK = 7: each call draws 7 + 7 + 6 samples from streams 5, 6 and 7.
# n = 2 because a sum of two floats rounds once however sum() accumulates,
# and Python 3.12 changed how it does.
GOLDEN_GRID = [-1.0, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
GOLDEN_ESTIMATES = [
    (point_mass(F(-3, 2)), "-0x1.b000000000000p+4", "0x0.0p+0", [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ]),
    (rademacher(), "0x1.999999999999ap-2", "0x1.5ba702ba3f7a3p+0", [
        "0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.6666666666666p-1",
        "0x1.6666666666666p-1", "0x1.6666666666666p-1", "0x1.6666666666666p-1",
        "0x1.6666666666666p-1", "0x1.6666666666666p-1",
    ]),
    (bernoulli(F(1, 3)), "0x1.4000000000000p+0", "0x1.0e189b885dbf5p-1", [
        "0x0.0p+0", "0x0.0p+0", "0x1.ccccccccccccdp-2",
        "0x1.ccccccccccccdp-2", "0x1.ccccccccccccdp-2", "0x1.ccccccccccccdp-2",
        "0x1.ccccccccccccdp-2", "0x1.ccccccccccccdp-1",
    ]),
    (uniform_std(), "0x1.302877884b19ap-7", "0x1.dd3f00c87aab5p+0", [
        "0x1.0000000000000p-2", "0x1.ccccccccccccdp-2", "0x1.0000000000000p-1",
        "0x1.3333333333333p-1", "0x1.6666666666666p-1", "0x1.8000000000000p-1",
        "0x1.999999999999ap-1", "0x1.999999999999ap-1",
    ]),
    (poisson(F(3, 2)), "0x1.42ccccccccccdp+6", "0x1.890868251cef8p+5", [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.0000000000000p-2", "0x1.ccccccccccccdp-2",
        "0x1.ccccccccccccdp-2", "0x1.6666666666666p-1",
    ]),
    (exponential(), "0x1.eb51496713bbbp+3", "0x1.6791518dac4e0p+2", [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.999999999999ap-5", "0x1.6666666666666p-2", "0x1.0000000000000p-1",
        "0x1.4cccccccccccdp-1", "0x1.999999999999ap-1",
    ]),
    (gamma_shape(F(5, 2)), "0x1.630fa053494a8p+7", "0x1.347bbc331978fp+5", [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.3333333333333p-3", "0x1.3333333333333p-2",
        "0x1.999999999999ap-2", "0x1.0000000000000p-1",
    ]),
    (normal(4), "0x1.5687c53b2716ap+2", "0x1.ce942b52aeacap+2", [
        "0x1.3333333333333p-3", "0x1.3333333333333p-2", "0x1.3333333333333p-2",
        "0x1.0000000000000p-1", "0x1.4cccccccccccdp-1", "0x1.8000000000000p-1",
        "0x1.999999999999ap-1", "0x1.b333333333333p-1",
    ]),
]


@pytest.mark.parametrize(
    "spec, value, stderr, cdf", GOLDEN_ESTIMATES, ids=[row[0].kind for row in GOLDEN_ESTIMATES]
)
def test_golden_estimates(monkeypatch, spec, value, stderr, cdf):
    # The validation reports repeat only while these estimates do.
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    est = mc_sum_moment(spec, 2, 3, 20, seed=5)
    assert (est.value.hex(), est.stderr.hex()) == (value, stderr)
    emp = mc_empirical_cdf(spec, 2, GOLDEN_GRID, 20, seed=5)
    assert [y for y, _ in emp.points] == GOLDEN_GRID
    assert [f.hex() for _, f in emp.points] == cdf


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=lambda s: f"{s.kind}({s.param})")
def test_estimators_equal_the_per_sample_reference(monkeypatch, spec, n):
    # 20 samples in streams of 7, 7 and 6; both sides read the running Python's sum()
    monkeypatch.setattr(oracle, "_CHUNK", 7)
    for j in (0, 3):
        est = mc_sum_moment(spec, n, j, 20, seed=5)
        mean, stderr = reference_mc_sum_moment(spec, n, j, 20, seed=5, chunk=7)
        assert (est.value.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex())
    grid = [0.5, -1.0, 0.0, -0.0, 0.5, 1.25, -3.0, 0.0, 3.0]
    mu2 = float(moments_of(spec, 2)[2].as_fraction())
    emp = mc_empirical_cdf(spec, n, grid, 20, seed=5)
    ref = reference_mc_empirical_cdf(spec, n, grid, 20, seed=5, chunk=7, mu2=mu2)
    assert [(y.hex(), f.hex()) for y, f in emp.points] == [(y.hex(), f.hex()) for y, f in ref]


@pytest.mark.parametrize(
    "estimate",
    [
        lambda: mc_sum_moment(uniform_std(), 4, 2, 250_000, 1),
        lambda: mc_empirical_cdf(uniform_std(), 4, [0.0, 1.0], 250_000, 1),
    ],
    ids=["mc_sum_moment", "mc_empirical_cdf"],
)
def test_estimators_keep_no_per_sample_list(estimate):
    # a list of a stream's 100,000 samples would take about 3 MB
    tracemalloc.start()
    try:
        estimate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


class TestValidationSuite:
    def test_exact_suite_passes(self):
        reports = run_validation("exact")
        assert reports and all(r.passed for r in reports)

    def test_report_consistency(self):
        for r in run_validation("mc", seed=3, n_samples=50_000):
            assert r.passed == (r.abs_dev <= r.tolerance)
            payload = r._asdict()
            assert set(payload) == {
                "name", "expected", "computed", "abs_dev", "rel_dev", "tolerance", "passed",
            }

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_validation("everything")
