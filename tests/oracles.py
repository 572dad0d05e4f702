"""Earlier forms of package code, kept as oracles for their replacements.

``build_parser`` is the argparse tree that ``maschke-kit`` parsed its argv
with before the table-driven ``cli.parse_argv``; ``check_weak_bialgebra``
is the weak bialgebra check before its loops were made sparse.  The tests
run both forms on the same inputs and compare.
"""

import argparse

from maschke_kit.cli import GENERATORS, UsageError
from maschke_kit.finalg import (AxiomFailure, AxiomReport, _comult_by_source,
                                _sparse_products, check_algebra, check_coalgebra)
from maschke_kit.weakhopf import WeakHopfPresentation, _counit_pairing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="maschke-kit",
                     description="Exact feasibility solvers for integrals, "
                                 "cointegrals and (co)separability structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, side=False, variant=False, normalized=False, assert_=True):
        p.add_argument("--structure", required=True, help="structure file path")
        if side:
            p.add_argument("--side", choices=("left", "right"), required=True)
        if variant:
            p.add_argument("--variant", choices=("primed", "duoidal"),
                           default="primed")
        if normalized:
            p.add_argument("--normalized", action="store_true",
                           help="add the normalization rows")
        if assert_:
            p.add_argument("--assert", dest="assertion",
                           choices=("feasible", "infeasible"),
                           help="exit 2 unless the verdict matches")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default="-", help="report destination (- = stdout)")

    add_common(sub.add_parser("validate", help="run every axiom check"),
               assert_=False)
    add_common(sub.add_parser("integrals", help="solve the integral conditions"),
               side=True, variant=True, normalized=True)
    add_common(sub.add_parser("cointegrals", help="solve the cointegral conditions"),
               side=True, variant=True, normalized=True)
    add_common(sub.add_parser("separability", help="solve for a bimodule section"))
    add_common(sub.add_parser("coseparability",
                              help="solve for a bicomodule retraction"))
    add_common(sub.add_parser("maschke",
                              help="run all solvers and certify the equivalences"),
               assert_=False)

    gen = sub.add_parser("generate", help="emit a canonical structure file")
    gen.add_argument("family", choices=sorted(GENERATORS))
    gen.add_argument("--group", help="group name (C<n>, K4, S3, D<n>)")
    gen.add_argument("--groupoid",
                     help="groupoid name (pair:<n>, one:<g>, sum:<g>,<g>, conn:<g>:<n>)")
    gen.add_argument("--base", help="base algebra name (k, dual, kxk)")
    gen.add_argument("--field", help="Q or Fp:<p>")
    gen.add_argument("--out", default="-")
    return parser


def check_weak_bialgebra(w: WeakHopfPresentation) -> AxiomReport:
    """Component axioms plus the three weakened compatibility diagrams,
    with a loop over every term pair (n^4 on a dual group algebra)."""
    report = check_algebra(w.algebra).merged(check_coalgebra(w.coalgebra))
    if not report.ok():
        return report
    f = w.field
    n = w.dim
    alg, coa = w.algebra, w.coalgebra
    add, mul = f.add, f.mul
    zero = f.zero()
    failures = []
    prod = _sparse_products(alg)
    by_source = _comult_by_source(coa)

    # comultiplication is multiplicative: delta(hk) = delta(h) delta(k)
    for i in range(n):
        for j in range(n):
            lhs = [zero] * (n * n)
            for m, t in prod[i][j]:
                for a, b, s in by_source[m]:
                    lhs[a * n + b] = add(lhs[a * n + b], mul(t, s))
            rhs = [zero] * (n * n)
            for a, b, s1 in by_source[i]:
                for c, d, s2 in by_source[j]:
                    s12 = mul(s1, s2)
                    for p, t1 in prod[a][c]:
                        for q, t2 in prod[b][d]:
                            idx = p * n + q
                            rhs[idx] = add(rhs[idx], mul(s12, mul(t1, t2)))
            if lhs != rhs:
                failures.append(AxiomFailure("comultiplicativity", (i, j)))

    # weak unit: (1 (x) mu (x) 1) and (1 (x) mu_op (x) 1) on delta(1) (x) delta(1)
    # both equal the double comultiplication of 1
    u = coa.comult_vec(alg.unit)
    d2 = [zero] * (n ** 3)
    for ab in range(n * n):
        c0 = u[ab]
        if c0 == 0:
            continue
        a, b = divmod(ab, n)
        for p, q, s in by_source[a]:
            idx = (p * n + q) * n + b
            d2[idx] = add(d2[idx], mul(c0, s))
    v_straight = [zero] * (n ** 3)
    v_twisted = [zero] * (n ** 3)
    nz_u = [(divmod(ab, n), c) for ab, c in enumerate(u) if c != 0]
    for (a, b), c1 in nz_u:
        for (c, d), c2 in nz_u:
            c12 = mul(c1, c2)
            for k, t in prod[b][c]:
                idx = (a * n + k) * n + d
                v_straight[idx] = add(v_straight[idx], mul(c12, t))
            for k, t in prod[c][b]:
                idx = (a * n + k) * n + d
                v_twisted[idx] = add(v_twisted[idx], mul(c12, t))
    if v_straight != d2:
        failures.append(AxiomFailure("weak unit (straight)", ()))
    if v_twisted != d2:
        failures.append(AxiomFailure("weak unit (twisted)", ()))

    # weak counit: eps(fgh) = sum eps(f g1) eps(g2 h) = sum eps(f g2) eps(g1 h)
    eps2 = _counit_pairing(w)
    for i in range(n):
        eps2_i = eps2[i]
        for j in range(n):
            for k in range(n):
                lhs = zero
                for m, t in prod[i][j]:
                    if eps2[m][k] != 0:
                        lhs = add(lhs, mul(t, eps2[m][k]))
                straight = zero
                twisted = zero
                for a, b, s in by_source[j]:
                    x, y = eps2_i[a], eps2[b][k]
                    if x != 0 and y != 0:
                        straight = add(straight, mul(s, mul(x, y)))
                    x, y = eps2_i[b], eps2[a][k]
                    if x != 0 and y != 0:
                        twisted = add(twisted, mul(s, mul(x, y)))
                if lhs != straight:
                    failures.append(AxiomFailure("weak counit (straight)", (i, j, k)))
                if lhs != twisted:
                    failures.append(AxiomFailure("weak counit (twisted)", (i, j, k)))
    return report.merged(AxiomReport(tuple(failures)))
