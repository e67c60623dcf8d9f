"""rcmlab: a random connection model laboratory.

Simulates Poisson random connection models under truncated/scaled connection
functions, evaluates the closed-form and limiting moment formulas of the
isolated-vertex and component counting statistics by deterministic
quadrature, and statistically verifies the central limit behaviour, the
degenerate swapped-truncation limit, the domination bound, the martingale
variance identity, and the quadratic variance lower bound.

The package root exports the formula layer (connection functions,
quadrature and moment formulas) and loads nothing else.  The simulation API
lives in ``rcmlab.simulator`` and ``rcmlab.stats``; import it from there.
Neither loads scipy on import: a pair search in d >= 2 loads
``scipy.spatial`` when it first runs.
"""

from .connfn import (
    ConnectionFunction,
    ConnFnError,
    exponential,
    gaussian,
    hard_disk,
    table_function,
)
from .moments import (
    DominationConstant,
    ModelConfig,
    ModelError,
    domination_constants,
    isolation_prob,
    limit_mean_excess,
    limit_var_excess,
    limit_var_isolated,
    mean_excess,
    mean_isolated,
    pair_factor,
    swapped_mean_density,
    var_excess,
    var_isolated,
    variance_ratio,
)
from .quadrature import (
    QuadratureError,
    QuadratureSpec,
    QuadResult,
    Region,
    double_region_integral,
    overlap_integral,
    radial_integral,
    unit_box,
)
__version__ = "0.1.0"
