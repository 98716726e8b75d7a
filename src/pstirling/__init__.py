"""Probabilistic Stirling numbers of the second kind and their applications.

Exact-arithmetic toolkit for the Stirling numbers attached to a random
variable through the moments of its i.i.d. partial sums, with the moment,
cumulant, Levy-process, and Edgeworth-expansion machinery built on top of
them, plus independent oracles (Irwin-Hall, Monte Carlo) for validation.
"""

from .powerseries import (
    DomainError,
    EGFSeries,
    QC,
    SeriesMismatchError,
    egf_add,
    egf_exp,
    egf_log,
    egf_mul,
    egf_pow,
)
from .randomvars import (
    DistSpec,
    MomentSeq,
    UnsupportedSpecError,
    bernoulli,
    beta_moments,
    custom,
    exponential,
    gamma_shape,
    hat_transform,
    moments_of,
    normal,
    point_mass,
    poisson,
    rademacher,
    sample_sum,
    sample_sums,
    tilde_transform,
    uniform_std,
    vanishing_order,
)
from .stirling import (
    BoundCheck,
    StirlingTable,
    bound_holds,
    classical_s1_signed,
    classical_s2,
    psn_direct,
    psn_egf,
    psn_gr_rep,
    psn_via_classical,
    weighted_sum_moment,
)
from .moments import (
    CumulantSeq,
    cumulants_from_stirling,
    cumulants_from_sum_moments,
    cumulants_oracle,
    even_moment_sequence,
    sum_moment,
    sum_moment_egf,
    sum_moment_recursion,
)
from .levy import (
    LevySpec,
    SubordinatorSpec,
    cm_coefficients,
    levy_cumulant,
    levy_moment_g,
    subordinator_moment_h,
    tstar_moments,
)
from .edgeworth import (
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
from .oracle import (
    EmpiricalCdf,
    MCEstimate,
    ValidationReport,
    irwin_hall_cdf,
    mc_empirical_cdf,
    mc_sum_moment,
    run_validation,
    uniform_fn_exact,
)

__version__ = "0.1.0"
