"""Exact answer oracle for the benchmark; it shares no code with ``lpequiv``.

It reads the same instance file the program reads and works in exact
rationals. For ``A x = b`` with full row rank m, every sparsest solution and,
for 0 < p <= 1, every vertex minimizer of ``sum |x_i|^p`` is a basic solution
``x_B = A_B^{-1} b`` for some nonsingular m-column block ``B`` (Ge, Jiang and
Ye, "A note on the complexity of Lp minimization", Math. Prog. 2011). So one
enumeration of the C(n, m) column blocks gives:

- k0 and the set of sparsest solutions, exactly;
- the minimizers of each power objective, hence each ``holds``/``lp_l0`` row;
- an upper bound on ``r_m``: |x| is an extreme point of G(r1) for every basic
  x inside [0, r1]^n, so ``r_m`` is at most the smallest nonzero coordinate
  of those basic solutions. There is no exact ``r_m`` at this size, so only
  ``0 < r_m <= that bound`` is checked.

``check_command`` returns a list of disagreements; an empty list means the
command's report is right.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import lcm

# Reported floats carry 17 significant digits of a float computation;
# exact values are compared with these relative slacks.
VALUE_RTOL = 1e-7
RADIUS_RTOL = 1e-9
FORMULA_RTOL = 1e-12
# Objective values of distinct basic solutions closer than the solver's own
# tie rule are ambiguous in floating point, so a row is accepted when it
# matches the minimizer set taken at either of these relative tie widths.
TIE_RTOLS = (1e-12, 1e-9)


def parse_instance(text: str):
    """(A, b) as lists of Fractions from the instance text format."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    m, n = int(rows[0][0]), int(rows[0][1])
    if len(rows) != m + 2 or any(len(r) != n for r in rows[1 : m + 1]) or len(rows[-1]) != m:
        raise ValueError("malformed instance text")
    A = [[Fraction(t) for t in r] for r in rows[1 : m + 1]]
    b = [Fraction(t) for t in rows[-1]]
    return A, b


def exact_rank(A) -> int:
    M = [list(map(Fraction, row)) for row in A]
    rank, cols = 0, len(M[0]) if M else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][c] / M[rank][c]
            if f:
                M[i] = [a - f * p for a, p in zip(M[i], M[rank])]
        rank += 1
    return rank


def _integer_rows(A, b):
    """Rows of [A | b] scaled to integers; the solution set is unchanged."""
    out = []
    for row, rhs in zip(A, b):
        vals = list(row) + [rhs]
        s = lcm(*(v.denominator for v in vals))
        out.append([int(v * s) for v in vals])
    return out


def _solve_block(aug):
    """Solve a square integer system given as augmented rows, or None if singular.

    Fraction-free (Bareiss) elimination keeps every intermediate an integer,
    and the last pivot is the determinant d. By Cramer's rule each d * x_i
    is an integer, so back substitution stays in integers too.
    """
    M = [row[:] for row in aug]
    m = len(M)
    prev = 1
    for k in range(m):
        piv = next((i for i in range(k, m) if M[i][k]), None)
        if piv is None:
            return None
        M[k], M[piv] = M[piv], M[k]
        rk = M[k]
        pk = rk[k]
        for i in range(k + 1, m):
            ri = M[i]
            a = ri[k]
            for j in range(k + 1, m + 1):
                ri[j] = (ri[j] * pk - a * rk[j]) // prev
            ri[k] = 0
        prev = pk
    d = prev
    y = [0] * m
    for i in range(m - 1, -1, -1):
        ri = M[i]
        y[i] = (ri[m] * d - sum(ri[j] * y[j] for j in range(i + 1, m))) // ri[i]
    return [Fraction(v, d) for v in y]


def basic_solutions(A, b):
    """Every distinct basic solution of a full-row-rank system, exactly."""
    m, n = len(A), len(A[0])
    rows = _integer_rows(A, b)
    found = {}
    zero = Fraction(0)
    for block in combinations(range(n), m):
        xb = _solve_block([[row[j] for j in block] + [row[n]] for row in rows])
        if xb is None:
            continue
        x = [zero] * n
        for j, v in zip(block, xb):
            x[j] = v
        found.setdefault(tuple(x), None)
    return list(found)


def least_norm(A, b):
    """x_ls = A^T (A A^T)^{-1} b, exactly."""
    m, n = len(A), len(A[0])
    gram = [[sum(A[i][k] * A[j][k] for k in range(n)) for j in range(m)] for i in range(m)]
    y = _solve_block(_integer_rows(gram, b))
    return [sum(A[i][k] * y[i] for i in range(m)) for k in range(n)]


def _support(x) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(x) if v)


def _rel_close(reported: float, exact, rtol: float) -> bool:
    exact = float(exact)
    return abs(reported - exact) <= rtol * max(1.0, abs(exact))


@dataclass
class InstanceFacts:
    """Exact quantities of one instance, computed once and shared by checks.

    The radii are computed on first use: ``solve --l0`` needs none of them.
    """

    A: list
    b: list
    basics: list
    k0: int
    sparsest: list

    @classmethod
    def from_text(cls, text: str) -> "InstanceFacts":
        A, b = parse_instance(text)
        if exact_rank(A) != len(A):
            raise ValueError("oracle needs a full-row-rank system")
        basics = basic_solutions(A, b)
        k0 = min(len(_support(x)) for x in basics)
        sparsest = [x for x in basics if len(_support(x)) == k0]
        return cls(A, b, basics, k0, sparsest)

    @cached_property
    def r0(self) -> Fraction:
        return max(abs(v) for x in self.sparsest for v in x)

    @cached_property
    def r1(self) -> Fraction:
        return len(self.A[0]) * max(abs(v) for v in least_norm(self.A, self.b))

    @cached_property
    def rm_upper(self) -> Fraction | None:
        r1 = self.r1
        inside = [abs(v) for x in self.basics if max(abs(v) for v in x) <= r1 for v in x if v]
        return min(inside) if inside else None

    def row_outcomes(self, p: float, r_used: float) -> set[tuple[bool, int, bool]]:
        """Acceptable (holds, lp_l0, in_box) for exponent p."""
        objs = [
            (math.fsum(float(abs(v)) ** p for v in x if v), x) for x in self.basics
        ]
        best = min(o for o, _ in objs)
        out = set()
        for rtol in TIE_RTOLS:
            mins = [x for o, x in objs if o <= best * (1.0 + rtol)]
            sizes = [len(_support(x)) for x in mins]
            in_box = all(float(max(abs(v) for v in x)) <= r_used * (1.0 + RADIUS_RTOL) for x in mins)
            out.add((all(s == self.k0 for s in sizes), max(sizes), in_box))
        return out


def expected_p_bound(k0: int, r_used: float, r_m: float) -> tuple[float, bool]:
    """The exponent bound (ln(k0+1) - ln k0) / (ln r - ln r_m), capped at 1."""
    denom = math.log(r_used) - math.log(r_m)
    if denom <= 1e-12 * (1.0 + abs(math.log(r_used))):
        return 1.0, True
    return min(1.0, (math.log(k0 + 1) - math.log(k0)) / denom), False


def _check_sparsest(k0, solutions, facts: InstanceFacts) -> list[str]:
    errs = []
    if k0 != facts.k0:
        errs.append(f"k0 {k0} != {facts.k0}")
        return errs
    if len(solutions) != len(facts.sparsest):
        errs.append(f"{len(solutions)} sparsest solutions reported, {len(facts.sparsest)} exist")
    by_support = {_support(x): x for x in facts.sparsest}
    seen = set()
    for sol in solutions:
        supp = tuple(sol["support"])
        exact = by_support.get(supp)
        if exact is None or supp in seen:
            errs.append(f"reported support {supp} is not a distinct sparsest support")
            continue
        seen.add(supp)
        if sol["l0"] != facts.k0 or not all(
            _rel_close(v, e, VALUE_RTOL) for v, e in zip(sol["x"], exact)
        ):
            errs.append(f"solution on support {supp} differs from the exact one")
    return errs


def _check_certificate(cert: dict, facts: InstanceFacts, p_list) -> list[str]:
    errs = [] if cert["k0"] == facts.k0 else [f"certificate k0 {cert['k0']} != {facts.k0}"]
    if not _rel_close(cert["r0"], facts.r0, RADIUS_RTOL):
        errs.append(f"r0 {cert['r0']} != {float(facts.r0)}")
    if not _rel_close(cert["r1"], facts.r1, RADIUS_RTOL):
        errs.append(f"r1 {cert['r1']} != {float(facts.r1)}")
    if cert["radius_source"] == "default" and not _rel_close(
        cert["r_used"], max(facts.r0, facts.r1), RADIUS_RTOL
    ):
        errs.append(f"r_used {cert['r_used']} != max(r0, r1)")
    r_m = cert["r_m"]
    if not r_m > 0.0 or (
        facts.rm_upper is not None and r_m > float(facts.rm_upper) * (1.0 + RADIUS_RTOL)
    ):
        errs.append(f"r_m {r_m} outside (0, {float(facts.rm_upper)}]")
    else:
        bound, capped = expected_p_bound(cert["k0"], cert["r_used"], r_m)
        if cert["capped"] != capped or not _rel_close(cert["p_bound"], bound, FORMULA_RTOL):
            errs.append(f"p_bound {cert['p_bound']} != formula value {bound}")
    rows = cert["verifications"]
    if [v["p"] for v in rows] != [float(p) for p in p_list]:
        errs.append("verification exponents differ from the request")
        return errs
    for v in rows:
        got = (v["holds"], v["lp_l0"], v["in_box"])
        if got not in facts.row_outcomes(v["p"], cert["r_used"]):
            errs.append(f"row p={v['p']}: (holds, lp_l0, in_box) = {got} is wrong")
    return errs


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def check_command(argv, text: str, facts: InstanceFacts) -> list[str]:
    """Disagreements between a command's JSON report and the exact answers."""
    report = json.loads(text)
    cmd = argv[0]
    if cmd == "solve" and "--l0" in argv:
        return _check_sparsest(report["k0"], report["solutions"], facts)
    if cmd == "analyze":
        p_list = [float(p) for p in _option(argv, "--p").split(",")]
        sp = report["sparsest"]
        return _check_sparsest(sp["k0"], sp["solutions"], facts) + _check_certificate(
            report["certificate"], facts, p_list
        )
    if cmd == "scan":
        grid = [float(p) for p in _option(argv, "--p-grid").split(",")]
        cert = dict(report["certificate"], verifications=report["table"])
        errs = _check_certificate(cert, facts, grid)
        holds = [v["holds"] for v in report["table"]]
        prefix = None
        for p, h in zip(grid, holds):
            if not h:
                break
            prefix = p
        fail = next((p for p, h in zip(grid, holds) if not h), None)
        if report["largest_prefix_hold"] != prefix or report["smallest_fail"] != fail:
            errs.append("scan summary does not match its table")
        return errs
    raise ValueError(f"no oracle for command {argv}")
