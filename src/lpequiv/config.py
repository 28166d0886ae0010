"""Centralized tolerance and size-cap configuration.

The feasibility, rank, support-counting and vertex-identity decisions go
through these knobs. Some fixed literals still bypass them (ROADMAP item 13
replaces them with exact decisions):

- the 1e-10 relative objective tie in ``BasicTable.minimizers``;
- the 1e-12 cutoffs on ``|u_i|`` of a coordinate that varies along a
  corank-1 line (``solvers._line_breakpoints``), on the p_bound denominator
  in ``compute_bound`` and on the Hadamard-scaled determinant of a
  candidate vertex system in polytope;
- the 1e-14 strict-improvement margin in ``solve_lp_corank1``;
- the 1e-9 breakpoint merge in ``curve``;
- in polytope, the 12-decimal rounding that merges duplicate half-space
  rows, the 10-decimal rounding that merges duplicate vertices, the 1e-13
  coefficient snap and the 1e-10 recession-ray cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Tolerances", "Caps", "DEFAULT_TOLERANCES", "DEFAULT_CAPS"]


@dataclass(frozen=True)
class Tolerances:
    """Tolerance coefficients.

    The scaled helpers multiply by (1 + magnitude) of the data they guard, so
    the stored values are relative coefficients, not absolute thresholds.
    """

    feas: float = 1e-9   # feasibility of Ax=b and of half-space rows
    rank: float = 1e-10  # relative singular-value cutoff for rank decisions
    orth: float = 1e-10  # orthonormality slack of the null basis
    zero: float = 1e-8   # support counting: |x_i| above this counts as nonzero
    dedup: float = 1e-8  # vertex identity

    def feas_tol(self, scale: float) -> float:
        return self.feas * (1.0 + scale)

    def zero_tol(self, x_inf: float) -> float:
        return self.zero * (1.0 + x_inf)

    def dedup_tol(self, scale: float) -> float:
        return self.dedup * (1.0 + scale)


@dataclass(frozen=True)
class Caps:
    """Hard size limits.

    Exceeding any of them raises BlowupLimit; the library never silently
    approximates past its exact regime.
    """

    n_max: int = 10           # unknowns
    d_max: int = 4            # corank (null-space dimension)
    fm_row_cap: int = 20000   # rows allowed during Fourier-Motzkin elimination
    subset_cap: int = 5_000_000  # row subsets allowed during vertex enumeration


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_CAPS = Caps()
