"""Public surface: every exported name resolves, and the package exports
exactly the names its library modules declare."""
import importlib
import pkgutil

import pytest

import lpequiv

MODULES = [
    importlib.import_module(f"lpequiv.{info.name}")
    for info in pkgutil.iter_modules(lpequiv.__path__)
]

LIBRARY_MODULES = ("config", "equivalence", "errors", "polytope", "solvers", "system")

PUBLIC_NAMES = [
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
    "enumerate_vertices",
    "feasible",
    "fm_eliminate",
    "g_of_r",
    "g_vertices",
    "load_and_reduce",
    "load_instance",
    "lp_objective",
    "parse_instance_text",
    "scan_pstar",
    "solution_at",
    "solve_l0",
    "solve_lp_corank1",
    "solve_lp_extreme",
    "verify_equivalence",
]


@pytest.mark.parametrize("module", [lpequiv, *MODULES], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_public_names_pinned():
    assert lpequiv.__all__ == PUBLIC_NAMES


def test_package_exports_union_of_library_modules():
    modules = [importlib.import_module(f"lpequiv.{name}") for name in LIBRARY_MODULES]
    declared = {name for module in modules for name in module.__all__}
    assert set(lpequiv.__all__) == declared
    assert len(lpequiv.__all__) == len(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(lpequiv, name) is getattr(module, name)
