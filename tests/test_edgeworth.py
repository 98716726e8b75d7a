import math
from fractions import Fraction as F

import pytest

from pstirling.edgeworth import (
    EdgeworthModel,
    LatticeWarning,
    delta_set,
    edgeworth_cdf,
    edgeworth_model,
    edgeworth_term,
    hat_even_moment,
    hermite_eval,
    normal_cdf,
    normal_pdf,
)
from pstirling.oracle import uniform_fn_exact
from pstirling.powerseries import DomainError
from pstirling.randomvars import (
    MomentSeq,
    custom,
    exponential,
    hat_transform,
    moments_of,
    normal,
    rademacher,
    standardize_moments,
    uniform_std,
)

from oracles import normal_cdf_series, normal_even_moment

# explicit probabilists' Hermite polynomials, ascending coefficients
HERMITE_COEFFS = {
    0: [1],
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
    6: [-15, 0, 45, 0, -15, 0, 1],
}


class TestHermite:
    def test_degree_zero(self):
        for y in (-2.0, 0.0, 3.5):
            assert hermite_eval(0, y) == 1.0

    def test_pinned_values(self):
        assert hermite_eval(3, 2.0) == 2.0  # 8 - 6
        assert hermite_eval(2, 0.0) == -1.0  # y^2 - 1

    def test_against_explicit_polynomials(self):
        for n, coeffs in HERMITE_COEFFS.items():
            for y in (-2.5, -1.0, 0.0, 0.5, 2.0):
                explicit = sum(c * y**i for i, c in enumerate(coeffs))
                assert hermite_eval(n, y) == pytest.approx(explicit, rel=1e-12, abs=1e-12)

    def test_recurrence_invariant(self):
        for y in (-2.0, -0.5, 1.0, 3.0):
            for n in range(1, 12):
                lhs = hermite_eval(n + 1, y)
                rhs = y * hermite_eval(n, y) - n * hermite_eval(n - 1, y)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNormalCdf:
    def test_symmetry(self):
        assert normal_cdf(0.0) == 0.5
        for y in (0.3, 1.0, 1.96, 2.5, 4.0):
            assert normal_cdf(-y) + normal_cdf(y) == pytest.approx(1.0, abs=1e-13)

    def test_against_series_oracle(self):
        for y in (F(-3, 2), F(0), F(1, 2), F(196, 100), F(3)):
            assert normal_cdf(float(y)) == pytest.approx(normal_cdf_series(y), abs=1e-13)

    def test_quantile_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-13)

    def test_pdf(self):
        assert normal_pdf(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)


class TestDeltaSet:
    def test_examples(self):
        assert delta_set(3, 5, 2) == [(1, 4)]
        assert delta_set(3, 5, 4) == [(1, 6), (2, 8)]
        assert delta_set(2, 5, 1) == [(1, 3)]

    def test_below_range_empty(self):
        assert delta_set(3, 5, 1) == []
        assert delta_set(4, 5, 2) == []

    def test_n_caps_m(self):
        assert delta_set(2, 1, 4) == [(1, 6)]
        assert delta_set(2, 10, 4) == [(1, 6), (2, 8), (3, 10), (4, 12)]

    def test_membership_condition(self):
        for r in (2, 3, 4):
            for k in range(r - 1, 9):
                for m, j in delta_set(r, 6, k):
                    assert 1 <= m <= 6 and j == 2 * m + k and j >= m * (r + 1)


class TestModel:
    def test_uniform_matching_order(self):
        model = edgeworth_model(uniform_std(), K=2)
        assert model.r == 3
        assert not model.lattice

    def test_rademacher_lattice_flag(self):
        model = edgeworth_model(rademacher(), K=2)
        assert model.r == 3
        assert model.lattice

    def test_standardized_exponential_r2(self):
        std = standardize_moments(moments_of(exponential(), 12))
        model = edgeworth_model(std, K=1)
        assert model.r == 2

    def test_rejects_unstandardized(self):
        with pytest.raises(DomainError):
            edgeworth_model(exponential(), K=2)

    def test_rejects_insufficient_order(self):
        with pytest.raises(DomainError, match="^truncation K=4 needs moment order >= 8$"):
            edgeworth_model(moments_of(uniform_std(), 6), K=4)

    @pytest.mark.parametrize("K, order", [(0, 4), (1, 4), (2, 6), (5, 15)])
    def test_a_spec_gives_the_moments_k_terms_read(self, K, order):
        # K terms read the hat moments through order 3K, and never fewer than 4 are taken
        assert edgeworth_model(uniform_std(), K=K).hat_table.order == order

    @pytest.mark.parametrize("carried, K, order", [(4, 2, 4), (7, 2, 6), (12, 5, 12)])
    def test_a_custom_list_gives_at_most_what_it_carries(self, carried, K, order):
        spec = custom(moments_of(uniform_std(), carried).coeffs)
        model = edgeworth_model(spec, K=K)
        assert model.hat_table.order == order
        assert model == edgeworth_model(moments_of(uniform_std(), order), K=K)

    def test_rejects_negative_truncation(self):
        with pytest.raises(ValueError, match="K must be at least 0"):
            edgeworth_model(uniform_std(), K=-1)
        assert edgeworth_model(uniform_std(), K=0).K == 0

    def test_vanishing_structure_enforced(self):
        hat = hat_transform(moments_of(uniform_std(), 8))
        from pstirling.stirling import psn_egf

        with pytest.raises(DomainError):
            # r=4 overstates the matching order: S(4,1) = -6/5 != 0
            EdgeworthModel(r=4, hat_table=psn_egf(hat), K=2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: hermite_eval(-1, 0.5), ValueError, "^degree must be nonnegative$"),
        (lambda: delta_set(1, 4, 3), ValueError, "^matching order r must be at least 2$"),
        (lambda: EdgeworthModel(1, edgeworth_model(uniform_std(), K=2).hat_table, 2), DomainError,
         "^expansion needs matching order r >= 2$"),
        # a custom list gives the moments it carries, however many K terms read
        (lambda: edgeworth_model(custom([1, 0]), K=2), DomainError,
         "^expansion needs moment order >= 2, not 1$"),
        (lambda: hat_even_moment(moments_of(uniform_std(), 4), 3), ValueError,
         "^2s exceeds the available moment order$"),
    ],
    ids=["hermite-degree", "delta-r", "model-r", "model-short-list", "hat-even-2s"],
)
def test_refusal_names_its_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestTerms:
    def test_leading_term_formula(self):
        # term at k = r-1 is -g(y) H_r(y) E hat^{r+1}/(r+1)! n^{-(r-1)/2}
        for source, n in ((uniform_std(), 16), (rademacher(), 9)):
            mom = moments_of(source, 12)
            model = edgeworth_model(mom, K=2)
            hat = hat_transform(mom)
            r = model.r
            for y in (-2.0, -1.0, 0.0, 1.0, 2.0):
                expected = (
                    -normal_pdf(y)
                    * hermite_eval(r, y)
                    * float(hat[r + 1].as_fraction())
                    / math.factorial(r + 1)
                    * n ** (-(r - 1) / 2)
                )
                got = edgeworth_term(model, r - 1, n, y)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_uniform_coefficient_is_one_twentieth(self):
        model = edgeworth_model(uniform_std(), K=2)
        coeff = -model.hat_table.entry(4, 1).as_fraction() / math.factorial(4)
        assert coeff == F(1, 20)
        n, y = 16, 1.0
        assert edgeworth_term(model, 2, n, y) == pytest.approx(
            normal_pdf(y) * hermite_eval(3, y) / (20 * n), rel=1e-12
        )

    def test_uniform_k3_vanishes(self):
        model = edgeworth_model(moments_of(uniform_std(), 10), K=3)
        for y in (-1.0, 0.5, 2.0):
            assert edgeworth_term(model, 3, 16, y) == 0.0

    def test_out_of_range(self):
        model = edgeworth_model(uniform_std(), K=2)
        with pytest.raises(ValueError):
            edgeworth_term(model, 1, 16, 0.0)
        with pytest.raises(ValueError):
            edgeworth_term(model, 3, 16, 0.0)

    def test_coefficient_beyond_float_range_is_a_domain_error(self):
        # 20-digit moments: term 16 still converts, term 17 holds a coefficient past 2^1024
        model = edgeworth_model(MomentSeq([1, 0, 1] + [10**20 - 1] * 67), K=17)
        assert math.isfinite(edgeworth_term(model, 16, 64, 0.0))
        # every coefficient is formed before the term reads g(y), so y = +-1e9, where g underflows, too
        for y in (0.0, 1e9, -1e9):
            with pytest.raises(DomainError, match=r"k = 17 at n = 64 .* \(j, m\) = \(51, 17\)"):
                edgeworth_term(model, 17, 64, y)
        with pytest.raises(DomainError):
            edgeworth_cdf(model, 64, 0.0)


class TestCdf:
    def test_empty_truncation_is_normal(self):
        model = edgeworth_model(uniform_std(), K=1)  # K < r-1: no terms
        for y in (-1.5, 0.0, 2.0):
            assert edgeworth_cdf(model, 8, y) == normal_cdf(y)

    def test_uniform_frozen_point(self):
        model = edgeworth_model(uniform_std(), K=2)
        value = edgeworth_cdf(model, 16, 1.0)
        expected = normal_cdf(1.0) - 2 * normal_pdf(1.0) / 320
        assert value == pytest.approx(expected, rel=1e-13)
        assert abs(value - uniform_fn_exact(16, 1.0)) < 1e-4

    @pytest.mark.parametrize("y", [1e9, -1e9])
    def test_far_tail_is_the_normal_cdf(self, y):
        # g(y) is 0.0 there and H_89(y) overflows, to inf - inf = nan; 0 * inf made such rows nan
        model = edgeworth_model(uniform_std(), K=30)
        assert normal_pdf(y) == 0.0 and not math.isfinite(hermite_eval(89, y))
        for k in range(model.r - 1, model.K + 1):
            assert edgeworth_term(model, k, 16, y) == 0.0
        assert edgeworth_cdf(model, 16, y) == normal_cdf(y) == (1.0 if y > 0 else 0.0)

    @pytest.mark.parametrize("K", (1, 4))  # K = 1 has no terms, so edgeworth_cdf reads y itself
    @pytest.mark.parametrize("y, cdf", [(math.inf, 1.0), (-math.inf, 0.0), (math.nan, None)],
                             ids=["inf", "-inf", "nan"])
    def test_the_limits_at_infinity_and_nan_refused(self, y, cdf, K):
        # nan made g(y), G(y) and so every term and the CDF nan
        model = edgeworth_model(uniform_std(), K=K)
        terms = range(model.r - 1, model.K + 1)
        if cdf is None:
            with pytest.raises(ValueError, match="^points must be numbers, not nan$"):
                edgeworth_cdf(model, 16, y)
            for k in terms:
                with pytest.raises(ValueError, match="^points must be numbers, not nan$"):
                    edgeworth_term(model, k, 16, y)
        else:
            assert edgeworth_cdf(model, 16, y) == cdf
            assert all(edgeworth_term(model, k, 16, y) == 0.0 for k in terms)

    def test_symmetric_midpoint(self):
        model = edgeworth_model(moments_of(uniform_std(), 12), K=4)
        assert edgeworth_cdf(model, 8, 0.0) == 0.5
        assert uniform_fn_exact(8, 0.0) == 0.5

    def test_normal_source_reduces_to_gaussian(self):
        model = edgeworth_model(normal(1), K=3)
        for y in (-2.0, 0.7):
            assert edgeworth_cdf(model, 5, y) == normal_cdf(y)

    @pytest.mark.parametrize("K", (1, 2))  # K = 1 has no terms, so edgeworth_cdf checks n itself
    @pytest.mark.parametrize("n", (0, -1))
    def test_nonpositive_n_is_refused(self, n, K):
        # n = 0 divided by zero and n = -1 returned G(y)
        model = edgeworth_model(uniform_std(), K=K)
        with pytest.raises(ValueError, match="n must be positive"):
            edgeworth_cdf(model, n, 1.0)
        if K == 2:
            with pytest.raises(ValueError, match="n must be positive"):
                edgeworth_term(model, 2, n, 1.0)

    def test_lattice_warns_but_evaluates(self):
        model = edgeworth_model(rademacher(), K=2)
        with pytest.warns(LatticeWarning):
            value = edgeworth_cdf(model, 16, 1.0)
        assert 0.0 < value < 1.0

    def test_accuracy_improves_with_n(self):
        model = edgeworth_model(uniform_std(), K=2)
        errs = []
        for n in (8, 32):
            err = max(
                abs(edgeworth_cdf(model, n, y / 10) - uniform_fn_exact(n, F(y, 10)))
                for y in range(-30, 31, 5)
            )
            errs.append(err)
        assert errs[1] < errs[0] / 8


class TestHatEvenMoment:
    def test_rademacher(self):
        res = hat_even_moment(moments_of(rademacher(), 8), 2)
        assert res.value == -2 and res.matched

    def test_uniform(self):
        res = hat_even_moment(moments_of(uniform_std(), 8), 2)
        assert res.value == F(-6, 5) and res.matched

    def test_normal_vanishes(self):
        for s in (1, 2, 3):
            res = hat_even_moment(moments_of(normal(1), 8), s)
            assert res.value == 0 and res.matched

    def test_flagged_when_precondition_fails(self):
        res = hat_even_moment(moments_of(uniform_std(), 8), 3)
        assert not res.matched
        assert res.value == F(48, 7)  # still the true E hat^6

    def test_matched_value_is_moment_difference(self):
        for spec in (rademacher(), uniform_std()):
            m = moments_of(spec, 8)
            res = hat_even_moment(m, 2)
            assert res.matched
            assert res.value == m[4].re - normal_even_moment(4)

    def test_negative_s_is_refused(self):
        # s = -1 used to read hat[-2] and return 0 with matched=True
        with pytest.raises(ValueError, match="indices must be nonnegative"):
            hat_even_moment(moments_of(uniform_std(), 8), -1)
