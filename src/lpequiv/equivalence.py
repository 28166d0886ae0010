"""Certified equivalence between sparse and concave-power minimization.

For an instance with minimum support size k0, bounding radius r and
modulus-polytope granularity r_m (the smallest nonzero coordinate over the
extreme points of G(r1)), every minimizer of sum(|x_i|^p) is a sparsest
solution whenever

    p < (ln(k0 + 1) - ln k0) / (ln r - ln r_m).

This module computes the radii, the granularity constant, the bound, and
verifies the claim empirically over user-chosen exponent grids. A command
builds one basic-solution table per instance: k0, r0 and every exponent's
minimizers are read from it, so the only polytope work is the single
vertex enumeration of G(r1) behind r_m, and a scan's cost does not grow
with the length of its grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_CAPS, DEFAULT_TOLERANCES, Caps, Tolerances
from .errors import NoNonzeroCoordinate
from .polytope import g_vertices
from .solvers import BasicTable, basic_table
from .system import Instance, SolutionParam, decompose

__all__ = [
    "PVerification",
    "EquivalenceCertificate",
    "ScanResult",
    "compute_radii",
    "compute_rm",
    "compute_bound",
    "verify_equivalence",
    "scan_pstar",
    "certificate_report",
]

RADIUS_DEFAULT = "default"
RADIUS_OVERRIDE = "override"


@dataclass(frozen=True)
class PVerification:
    """Outcome of checking one exponent.

    ``holds`` is true when every minimizer has support size k0. ``lp_l0`` is
    the worst (largest) support size among the minimizers. ``in_box`` records
    whether all minimizers stayed inside the certified radius; a False here
    invalidates the certificate for this exponent rather than crashing.
    """

    p: float
    holds: bool
    lp_l0: int
    in_box: bool


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Radii, granularity constant, bound and verification outcomes."""

    k0: int
    r0: float
    r1: float
    r_used: float
    r_m: float
    p_bound: float
    capped: bool
    radius_source: str
    verifications: tuple[PVerification, ...] = ()


@dataclass(frozen=True)
class ScanResult:
    """Per-exponent table plus summary markers.

    The equivalence region need not be an interval, so the summary reports
    only grid facts: the largest grid value up to which every grid point
    holds, and the smallest failing grid value.
    """

    certificate: EquivalenceCertificate
    table: tuple[PVerification, ...]
    largest_prefix_hold: float | None
    smallest_fail: float | None


def _radii(table: BasicTable) -> tuple[int, float, float]:
    """(k0, r0, r1) read from an instance's basic-solution table."""
    k0 = int(np.min(table.l0))
    r0 = float(np.max(np.abs(table.x[table.l0 == k0])))
    r1 = table.x.shape[1] * float(np.max(np.abs(table.param.x_ls)))
    return k0, r0, r1


def compute_radii(
    inst: Instance, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float, float]:
    """(r0, r1, r): sparsest-solution reach, least-norm box, their max.

    r1 = n * ||x_ls||_inf bounds the p=1 minimizers; r0 is the largest
    magnitude appearing in any sparsest solution; r = max(r0, r1) bounds
    both problems at once.
    """
    _, r0, r1 = _radii(basic_table(inst, tol=tol))
    return r0, r1, max(r0, r1)


def compute_rm(
    inst: Instance,
    r: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
    *,
    param: SolutionParam | None = None,
) -> float:
    """Smallest nonzero coordinate over all extreme points of G(r).

    ``param`` is the instance's parameterization, if the caller has it.
    """
    if param is None:
        param = decompose(inst, tol=tol)
    Z = np.abs(g_vertices(param, r, tol=tol, caps=caps).points)
    nonzero = Z > tol.zero_tol(np.max(Z, axis=1, initial=0.0))[:, None]
    if not np.any(nonzero):
        raise NoNonzeroCoordinate(
            "all vertices are numerically zero; upstream fault"
        )
    return float(np.min(Z[nonzero]))


def compute_bound(
    inst: Instance,
    radius_override: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
    *,
    table: BasicTable | None = None,
) -> EquivalenceCertificate:
    """Assemble the equivalence certificate.

    The granularity constant r_m is always evaluated on G(r1): it is a
    property of the default bounding box, while a radius override only
    substitutes a tighter bound for the numerator radius in the exponent
    formula. An override must genuinely bound the minimizers for the
    certificate to be sound; verify_equivalence flags violations.

    When r_used <= r_m the bound degenerates: the sufficient inequality holds
    for every exponent in (0, 1), so p_bound is 1 with ``capped`` set.
    ``table`` is the instance's basic-solution table, if the caller has it.
    """
    if table is None:
        table = basic_table(inst, tol=tol, caps=caps)
    k0, r0, r1 = _radii(table)
    r = max(r0, r1)
    if radius_override is not None:
        r_used = float(radius_override)
        if not 0.0 < r_used < math.inf:
            raise ValueError(f"radius override must be a positive finite number, got {r_used}")
        source = RADIUS_OVERRIDE
    else:
        r_used = r
        source = RADIUS_DEFAULT
    r_m = compute_rm(inst, r1, tol=tol, caps=caps, param=table.param)
    denom = math.log(r_used) - math.log(r_m)
    # denominators within roundoff of zero mean r_used == r_m for all
    # practical purposes: the sufficient inequality then holds for every p
    if denom <= 1e-12 * (1.0 + abs(math.log(r_used))):
        capped = True
        p_bound = 1.0
    else:
        capped = False
        p_bound = min(1.0, (math.log(k0 + 1) - math.log(k0)) / denom)
    return EquivalenceCertificate(
        k0=k0,
        r0=r0,
        r1=r1,
        r_used=r_used,
        r_m=r_m,
        p_bound=p_bound,
        capped=capped,
        radius_source=source,
    )


def verify_equivalence(
    inst: Instance,
    p_list,
    radius_override: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
    *,
    table: BasicTable | None = None,
) -> EquivalenceCertificate:
    """Score the power objective for each exponent and compare supports.

    For each p, all minimizers are read from one basic-solution table;
    ``holds`` requires every one of them to have support size k0. Minimizers
    escaping the certified box are recorded as in_box=False (a soundness
    warning for the certificate, not an error). ``table`` is the instance's
    basic-solution table, if the caller has it.
    """
    p_list = [float(p) for p in p_list]
    if not p_list:
        raise ValueError("p_list must be nonempty")
    if table is None:
        table = basic_table(inst, tol=tol, caps=caps)
    cert = compute_bound(
        inst, radius_override=radius_override, tol=tol, caps=caps, table=table
    )
    reach = np.max(np.abs(table.x), axis=1)
    box = cert.r_used + tol.feas_tol(cert.r_used)
    vers = []
    for p in p_list:
        idx = table.minimizers(p)
        counts = table.l0[idx]
        vers.append(
            PVerification(
                p=p,
                holds=bool(np.all(counts == cert.k0)),
                lp_l0=int(np.max(counts)),
                in_box=bool(np.all(reach[idx] <= box)),
            )
        )
    return replace(cert, verifications=tuple(vers))


def scan_pstar(
    inst: Instance,
    grid,
    radius_override: float | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    caps: Caps = DEFAULT_CAPS,
) -> ScanResult:
    """Run verify_equivalence over an ascending exponent grid and summarize."""
    grid = [float(p) for p in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(not 0.0 < p <= 1.0 for p in grid):
        raise ValueError("grid values must lie in (0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly ascending")
    cert = verify_equivalence(
        inst, grid, radius_override=radius_override, tol=tol, caps=caps
    )
    largest_prefix: float | None = None
    for v in cert.verifications:
        if not v.holds:
            break
        largest_prefix = v.p
    smallest_fail = next(
        (v.p for v in cert.verifications if not v.holds), None
    )
    return ScanResult(
        certificate=cert,
        table=cert.verifications,
        largest_prefix_hold=largest_prefix,
        smallest_fail=smallest_fail,
    )


def certificate_report(cert: EquivalenceCertificate) -> dict:
    """Flat key/value view of a certificate for serialization."""
    return {
        "k0": cert.k0,
        "r0": cert.r0,
        "r1": cert.r1,
        "r_used": cert.r_used,
        "r_m": cert.r_m,
        "p_bound": cert.p_bound,
        "capped": cert.capped,
        "radius_source": cert.radius_source,
        "verifications": [
            {"p": v.p, "holds": v.holds, "lp_l0": v.lp_l0, "in_box": v.in_box}
            for v in cert.verifications
        ],
    }
