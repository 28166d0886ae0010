"""Exact desk-scale l0/lp minimization for underdetermined linear systems.

Given A x = b with more unknowns than equations, this package solves the
sparsest-solution problem and the concave power-objective relaxations
min sum(|x_i|^p) (0 < p <= 1) exactly by enumerating basic solutions, and
certifies an exponent threshold below which every relaxation minimizer is a
sparsest solution.
"""

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .equivalence import (
    EquivalenceCertificate,
    PVerification,
    ScanResult,
    certificate_report,
    compute_bound,
    compute_radii,
    compute_rm,
    scan_pstar,
    verify_equivalence,
)
from .errors import (
    BlowupLimit,
    CorankMismatch,
    DimensionMismatch,
    InconsistentSystem,
    InstanceParseError,
    LpEquivError,
    NoNonzeroCoordinate,
    NotUnderdetermined,
    NumericalRankFailure,
    SignRecoveryFailure,
    Unbounded,
    ZeroRhs,
)
from .polytope import (
    HPolyhedron,
    VertexSet,
    build_lambda,
    dump_text,
    enumerate_vertices,
    feasible,
    fm_eliminate,
    g_of_r,
    g_vertices,
    omega_of_r,
)
from .solvers import (
    BasicTable,
    LpSolution,
    SparseSolution,
    basic_table,
    lp_objective,
    solve_l0,
    solve_lp_corank1,
    solve_lp_extreme,
)
from .system import (
    Instance,
    SolutionParam,
    decompose,
    load_and_reduce,
    load_instance,
    parse_instance_text,
    solution_at,
)

__version__ = "0.1.0"

__all__ = [
    "BasicTable",
    "BlowupLimit",
    "Caps",
    "CorankMismatch",
    "DEFAULT_CAPS",
    "DEFAULT_TOLERANCES",
    "DimensionMismatch",
    "EquivalenceCertificate",
    "HPolyhedron",
    "InconsistentSystem",
    "Instance",
    "InstanceParseError",
    "LpEquivError",
    "LpSolution",
    "NoNonzeroCoordinate",
    "NotUnderdetermined",
    "NumericalRankFailure",
    "PVerification",
    "ScanResult",
    "SignRecoveryFailure",
    "SolutionParam",
    "SparseSolution",
    "Tolerances",
    "Unbounded",
    "VertexSet",
    "ZeroRhs",
    "basic_table",
    "build_lambda",
    "certificate_report",
    "compute_bound",
    "compute_radii",
    "compute_rm",
    "decompose",
    "dump_text",
    "enumerate_vertices",
    "feasible",
    "fm_eliminate",
    "g_of_r",
    "g_vertices",
    "load_and_reduce",
    "load_instance",
    "lp_objective",
    "omega_of_r",
    "parse_instance_text",
    "scan_pstar",
    "solution_at",
    "solve_l0",
    "solve_lp_corank1",
    "solve_lp_extreme",
    "verify_equivalence",
]
