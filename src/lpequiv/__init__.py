"""Exact desk-scale l0/lp minimization for underdetermined linear systems.

Given A x = b with more unknowns than equations, this package solves the
sparsest-solution problem and the concave power-objective relaxations
min sum(|x_i|^p) (0 < p <= 1) exactly by enumerating basic solutions, and
certifies an exponent threshold below which every relaxation minimizer is a
sparsest solution.

Each library module declares its public names in its own ``__all__``; the
package re-exports them all.
"""

from . import config, equivalence, errors, polytope, solvers, system
from .config import *
from .equivalence import *
from .errors import *
from .polytope import *
from .solvers import *
from .system import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (config, equivalence, errors, polytope, solvers, system)
    for name in module.__all__
)
