"""Probabilistic Stirling numbers of the second kind and their applications.

Exact-arithmetic toolkit for the Stirling numbers attached to a random
variable through the moments of its i.i.d. partial sums, with the moment,
cumulant, Levy-process, and Edgeworth-expansion machinery built on top of
them, plus independent oracles (Irwin-Hall, Monte Carlo) for validation.

Names are resolved on first use (PEP 562): ``import pstirling`` loads no
submodule, and ``pstirling.X`` or ``from pstirling import X`` loads only
the module that defines X.
"""

from importlib import import_module

# each public name and the submodule that defines it
_PUBLIC = {
    "DomainError": "powerseries",
    "EGFSeries": "powerseries",
    "QC": "powerseries",
    "SeriesMismatchError": "powerseries",
    "egf_exp": "powerseries",
    "egf_log": "powerseries",
    "egf_mul": "powerseries",
    "egf_pow": "powerseries",
    "CumulantSeq": "randomvars",
    "DistSpec": "randomvars",
    "MomentSeq": "randomvars",
    "UnsupportedSpecError": "randomvars",
    "bernoulli": "randomvars",
    "beta_moments": "randomvars",
    "custom": "randomvars",
    "exponential": "randomvars",
    "gamma_shape": "randomvars",
    "hat_transform": "randomvars",
    "moments_of": "randomvars",
    "normal": "randomvars",
    "point_mass": "randomvars",
    "poisson": "randomvars",
    "rademacher": "randomvars",
    "sample_sums": "randomvars",
    "standardize_moments": "randomvars",
    "tilde_transform": "randomvars",
    "uniform_std": "randomvars",
    "vanishing_order": "randomvars",
    "BoundCheck": "stirling",
    "StirlingTable": "stirling",
    "bound_holds": "stirling",
    "classical_s1_signed": "stirling",
    "classical_s2": "stirling",
    "psn_direct": "stirling",
    "psn_egf": "stirling",
    "psn_gr_rep": "stirling",
    "psn_via_classical": "stirling",
    "weighted_sum_moment": "stirling",
    "cumulants_from_stirling": "moments",
    "cumulants_from_sum_moments": "moments",
    "cumulants_oracle": "moments",
    "even_moment_sequence": "moments",
    "sum_moment": "moments",
    "sum_moment_egf": "moments",
    "sum_moment_recursion": "moments",
    "sum_moments": "moments",
    "LevySpec": "levy",
    "SubordinatorSpec": "levy",
    "cm_coefficients": "levy",
    "levy_cumulant": "levy",
    "levy_moment_g": "levy",
    "levy_process_moments": "levy",
    "subordinator_moment_h": "levy",
    "tstar_moments": "levy",
    "EdgeworthModel": "edgeworth",
    "LatticeWarning": "edgeworth",
    "delta_set": "edgeworth",
    "edgeworth_cdf": "edgeworth",
    "edgeworth_model": "edgeworth",
    "edgeworth_term": "edgeworth",
    "hat_even_moment": "edgeworth",
    "hermite_eval": "edgeworth",
    "normal_cdf": "edgeworth",
    "normal_pdf": "edgeworth",
    "EmpiricalCdf": "oracle",
    "MCEstimate": "oracle",
    "ValidationReport": "oracle",
    "irwin_hall_cdf": "oracle",
    "mc_empirical_cdf": "oracle",
    "mc_sum_moment": "oracle",
    "run_validation": "oracle",
    "uniform_fn_exact": "oracle",
}
_SUBMODULES = {*_PUBLIC.values(), "cli"}

__all__ = list(_PUBLIC)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it here, so this runs once per submodule
        return import_module(f"{__name__}.{name}")
    module = _PUBLIC.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_PUBLIC, *_SUBMODULES})
