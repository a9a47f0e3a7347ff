"""Numerical laboratory for homogenization of oriented max-min Hamiltonians.

Random running costs with a certified finite dependence range, exact
finite-action game Hamiltonians, monotone PDE solvers on shrinking boxes,
and Monte-Carlo extraction of the effective Hamiltonian with honest error
bands.  The package exports the refusals a caller catches; the rest lives
in its submodules (``from hjhomog import homog``).
"""

__version__ = "0.1.0"

from .env import DomainError
from .game import OrientationError
from .pde import CFLError

__all__ = ["__version__", "CFLError", "DomainError", "OrientationError"]
