"""Lower bounds on Renyi entropy powers of sums of independent random vectors.

The package computes three families of constants c certifying

    N_alpha(X_1 + ... + X_n) >= c * (N_alpha(X_1) + ... + N_alpha(X_n)),

plus the max-power bound, for orders alpha > 1 including alpha = inf:

* ``bc_constant``: n-free, alpha^(1/(alpha-1)) / e.
* ``sharpened_constant``: n-aware, strictly better for every finite n.
* ``optimized_constant``: instance optimal given the individual powers.

``bound_report`` assembles all four bounds for one power vector, and every
other consumer reads them from it. ``repi.verify`` certifies the bounds
on histogram densities, ``repi.filters.filter_bounds`` turns them
into linear filter output entropies, and ``repi.diagnostics`` checks the
curvature structure behind the optimizer. The package namespace is exactly
the union of the modules' ``__all__`` lists.
"""

from . import bounds, core, diagnostics, filters, optimizer, verify
from .bounds import *
from .core import *
from .diagnostics import *
from .filters import *
from .optimizer import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *bounds.__all__,
    *optimizer.__all__,
    *diagnostics.__all__,
    *verify.__all__,
    *filters.__all__,
]
