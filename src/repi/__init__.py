"""Lower bounds on Renyi entropy powers of sums of independent random vectors.

The package computes three families of constants c certifying

    N_alpha(X_1 + ... + X_n) >= c * (N_alpha(X_1) + ... + N_alpha(X_n)),

plus the max-power bound, for orders alpha > 1 including alpha = inf:

* ``bc_constant``: n-free, alpha^(1/(alpha-1)) / e.
* ``sharpened_constant``: n-aware, strictly better for every finite n.
* ``optimized_constant``: instance optimal given the individual powers.

``bound_report`` assembles all four bounds for one power vector, and every
other consumer reads them from it. ``repi.verify`` certifies the bounds
numerically on grid densities, ``repi.filters.filter_bounds`` turns them
into linear filter output entropies, and ``repi.diagnostics`` checks the
curvature structure behind the optimizer.
"""

from .bounds import (
    bc_constant,
    binary_kl,
    bv_bound,
    log_constant,
    sharpened_constant,
    weight_kernel,
    young_constant,
)
from .core import (
    BoundReport,
    Order,
    PowerVector,
    SimplexWeights,
    as_order,
    as_power_vector,
    as_simplex_weights,
    entropy_from_power,
    holder_conjugate,
    power_from_entropy,
)
from .diagnostics import (
    CurvatureSlackReport,
    EigenvalueMismatchError,
    RankOneSymmetric,
    concavity_slacks,
    curvature,
    jacobi_eigenvalues,
    max_eigenvalue,
    reduced_hessian,
    secular_max_eigenvalue,
)
from .filters import FilterSpec, filter_bounds, gaussian_reference
from .optimizer import (
    DegeneratePowersError,
    RatioVector,
    RootBracketError,
    bound_report,
    bv_asymptotically_tight,
    companion_weight,
    normalize_ratios,
    optimal_weights,
    optimized_constant,
    solve_leading_weight,
    two_summand_constant,
    two_summand_weight,
    weight_sum,
    weight_sum_derivative,
    weight_sum_grid,
)
from .verify import (
    Certification,
    CorpusInstance,
    GridDensity,
    certify,
    collision_bound,
    convolve,
    convolve_many,
    entropy_power,
    exponential_density,
    from_function,
    gaussian_density,
    gaussian_mixture_density,
    gaussian_renyi_entropy,
    random_corpus,
    renyi_entropy,
    uniform_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Order",
    "as_order",
    "holder_conjugate",
    "power_from_entropy",
    "entropy_from_power",
    "PowerVector",
    "as_power_vector",
    "SimplexWeights",
    "as_simplex_weights",
    "BoundReport",
    # bounds
    "bc_constant",
    "sharpened_constant",
    "young_constant",
    "weight_kernel",
    "log_constant",
    "binary_kl",
    "bv_bound",
    # optimizer
    "DegeneratePowersError",
    "RootBracketError",
    "RatioVector",
    "normalize_ratios",
    "companion_weight",
    "weight_sum",
    "weight_sum_derivative",
    "weight_sum_grid",
    "solve_leading_weight",
    "optimal_weights",
    "optimized_constant",
    "two_summand_weight",
    "two_summand_constant",
    "bv_asymptotically_tight",
    "bound_report",
    # diagnostics
    "EigenvalueMismatchError",
    "curvature",
    "RankOneSymmetric",
    "reduced_hessian",
    "jacobi_eigenvalues",
    "secular_max_eigenvalue",
    "max_eigenvalue",
    "CurvatureSlackReport",
    "concavity_slacks",
    # verify
    "GridDensity",
    "from_function",
    "gaussian_density",
    "uniform_density",
    "exponential_density",
    "gaussian_mixture_density",
    "gaussian_renyi_entropy",
    "renyi_entropy",
    "entropy_power",
    "convolve",
    "convolve_many",
    "Certification",
    "certify",
    "collision_bound",
    "CorpusInstance",
    "random_corpus",
    # filters
    "FilterSpec",
    "filter_bounds",
    "gaussian_reference",
]
