"""Numerical laboratory for homogenization of oriented max-min Hamiltonians.

Random running costs with a certified finite dependence range, exact
finite-action game Hamiltonians, monotone PDE solvers on shrinking boxes,
and Monte-Carlo extraction of the effective Hamiltonian with honest error
bands.
"""

__version__ = "0.1.0"

from .env import (
    BUMP_LIP,
    BUMP_MASS_1D,
    ConstantEnvironment,
    DomainError,
    EnvSpec,
    Environment,
    replace_on_strip,
    sample_environment,
    shift_view,
    with_seed,
)
from .game import (
    GameHamiltonian,
    HamiltonianConstants,
    OrientationError,
    ball_grid,
    certify_constants,
    eval_H,
    localize,
    shift_momentum,
    verify_localization,
)
from .pde import (
    CFLError,
    Field,
    Grid,
    SolveConfig,
    SolveResult,
    check_comparison,
    check_lipschitz,
    check_scaling,
    linear_datum,
    solve,
    solve_effective,
    solve_lf,
    solve_sl,
    zero_datum,
)
from .homog import (
    EffectiveEstimate,
    UTable,
    azuma_bound,
    check_concentration,
    check_subadditivity,
    effective_H_properties,
    estimate_U,
    extract_effective_H,
    general_datum_homogenization,
    rate_experiment,
    strip_experiment,
)
from . import families

__all__ = [name for name in dir() if not name.startswith("_")]
