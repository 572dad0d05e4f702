"""Earlier forms of package code, kept as oracles for their replacements.

``build_parser`` is the argparse tree that ``maschke-kit`` parsed its argv
with before the table-driven ``cli.parse_argv``; ``check_weak_bialgebra``
is the weak bialgebra check before its loops were made sparse, and
``check_algebra`` and ``check_coalgebra`` are the component checks before
their sums were taken raw; all three add each term through FieldSpec.add and
FieldSpec.mul; ``holds`` is ``ConstraintSystem.satisfied_by`` before each row
became one native integer sum; ``balanced_system`` is the row builder before
it made its rows in one pass, with one dictionary per side;
``composition_associativity`` is the associativity loop of
``hopfcat.check_hopf_category`` before its two sides were taken as raw sums,
two compositions through the field operations per basis triple, and
``composition_comultiplicativity`` is its loop for Delta(pq) = p1 q1 (x)
p2 q2 before both sides were taken as raw sums through
``finalg._comult_products``.  The tests run both forms on the same inputs and
compare.
"""

import argparse
import itertools

from maschke_kit.cli import GENERATORS, UsageError
from maschke_kit.exactlin import ConstraintSystem, unit_vec
from maschke_kit.finalg import (AxiomFailure, AxiomReport, _apply_sparse,
                                _comult_by_source, _comult_sum, _nonzero_entries,
                                _sparse_products, _terms)
from maschke_kit.weakhopf import WeakHopfPresentation, _counit_pairing

from denselin import comult_vec, sparse_cols


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


def check_algebra(a) -> AxiomReport:
    """Associativity on all basis triples plus two-sided unitality."""
    f, n = a.field, a.dim
    add, mul, zero = f.add, f.mul, f.zero()
    prod = _sparse_products(a)
    unit = [(m, u) for m, u in enumerate(a.unit) if u != 0]
    failures = []
    for i in range(n):
        # 1 e_i and e_i 1, summed over the unit's nonzeros
        left = [zero] * n
        right = [zero] * n
        for m, u in unit:
            for k, t in prod[m][i]:
                left[k] = add(left[k], mul(u, t))
            for k, t in prod[i][m]:
                right[k] = add(right[k], mul(u, t))
        e = list(unit_vec(f, n, i))
        if left != e:
            failures.append(AxiomFailure("left unit", (i,), a.labels[i]))
        if right != e:
            failures.append(AxiomFailure("right unit", (i,), a.labels[i]))
    for i in range(n):
        prod_i = prod[i]
        for j in range(n):
            prod_ij = prod_i[j]
            for k in range(n):
                # (e_i e_j) e_k and e_i (e_j e_k), summed over product terms
                lhs = [zero] * n
                for m, t in prod_ij:
                    for c, s in prod[m][k]:
                        lhs[c] = add(lhs[c], mul(t, s))
                rhs = [zero] * n
                for m, t in prod[j][k]:
                    for c, s in prod_i[m]:
                        rhs[c] = add(rhs[c], mul(t, s))
                if lhs != rhs:
                    failures.append(AxiomFailure(
                        "associativity", (i, j, k),
                        f"({a.labels[i]}*{a.labels[j]})*{a.labels[k]}"))
    return AxiomReport(tuple(failures))


def check_coalgebra(c) -> AxiomReport:
    """Coassociativity on all basis elements plus two-sided counitality."""
    f, n = c.field, c.dim
    add, mul, zero = f.add, f.mul, f.zero()
    eps = c.counit
    delta = _comult_by_source(c)
    failures = []
    for i in range(n):
        # counit laws: (eps (x) 1) delta = id = (1 (x) eps) delta
        left = [zero] * n
        right = [zero] * n
        for j, k, t in delta[i]:
            left[k] = add(left[k], mul(t, eps[j]))
            right[j] = add(right[j], mul(t, eps[k]))
        e = list(unit_vec(f, n, i))
        if left != e:
            failures.append(AxiomFailure("left counit", (i,)))
        if right != e:
            failures.append(AxiomFailure("right counit", (i,)))
    for i in range(n):
        # (delta (x) 1) delta and (1 (x) delta) delta, keyed by (p * n + q) * n + r
        lhs = {}
        rhs = {}
        for j, k, t in delta[i]:
            for p, q, s in delta[j]:
                idx = (p * n + q) * n + k
                lhs[idx] = add(lhs.get(idx, zero), mul(t, s))
            for p, q, s in delta[k]:
                idx = (j * n + p) * n + q
                rhs[idx] = add(rhs.get(idx, zero), mul(t, s))
        if _nonzero_entries(lhs) != _nonzero_entries(rhs):
            failures.append(AxiomFailure("coassociativity", (i,)))
    return AxiomReport(tuple(failures))


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
    u = comult_vec(coa, alg.unit)
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


def holds(system, x, homogeneous=False) -> bool:
    """Every stored row of system holds at x, against right-hand side zero
    when homogeneous: each term through FieldSpec.mul and FieldSpec.add."""
    f = system.field
    xs = [f.coerce(v) for v in x]
    add, mul, zero = f.add, f.mul, f.zero()
    for coeffs, rhs in system.rows:
        acc = zero
        for c, v in coeffs.items():
            xv = xs[c]
            if xv != 0:
                acc = add(acc, mul(v, xv))
        if acc != (zero if homogeneous else rhs):
            return False
    return True


def balanced_system(f, nvars: int, norm, rhs, products) -> ConstraintSystem:
    """The rows of finalg._balanced_system, summed in one dictionary per
    side, the side-1 one subtracted afterwards."""
    add, sub, neg = f.add, f.sub, f.neg
    # the normalization rows are side 0 at g = None, which no product uses
    sides = ({}, {})
    for side, g, out, var, t in itertools.chain(
            products, ((0, None, out, var, t) for out, var, t in norm)):
        rows = sides[side]
        row = rows.get((g, out))
        if row is None:
            rows[g, out] = {var: t}
        else:
            row[var] = add(row[var], t) if var in row else t
    rows = sides[0]
    for key, other in sides[1].items():
        row = rows.setdefault(key, {})
        for var, t in other.items():
            row[var] = sub(row[var], t) if var in row else neg(t)
    last = [(rows.pop((None, out), {}), value) for out, value in enumerate(rhs)]
    sys = ConstraintSystem(f, nvars)
    zero = f.zero()
    for row, value in [(row, zero) for row in rows.values()] + last:
        if row and (min(row) < 0 or max(row) >= nvars):
            bad = next(var for var in row if not 0 <= var < nvars)
            raise ValueError(f"variable index {bad} out of range")
        if zero in row.values():
            row = {var: t for var, t in row.items() if t != 0}
        if row or value != 0:
            sys.rows.append((row, value))
    return sys


def composition_associativity(h) -> list:
    """The object quadruples (x, y, z, w), in order, at which (pq)r and
    p(qr) differ for some basis triple p, q, r of a(x,y), a(y,z), a(z,w):
    each side composed through FieldSpec.add and FieldSpec.mul."""
    f = h.field
    one = f.one()
    cols = {key: sparse_cols(m) for key, m in h.comps.items()}

    def compose(key, u, v):
        dyz = h.dim(key[1], key[2])
        return _apply_sparse(f, cols[key], [(a * dyz + b, f.mul(ua, vb))
                                            for a, ua in u for b, vb in v])

    found = []
    for x, y, z, w in itertools.product(range(h.n_objects), repeat=4):
        dyz, dzw = h.dim(y, z), h.dim(z, w)
        if any(compose((x, z, w), cols[(x, y, z)][p * dyz + q], [(r, one)])
               != compose((x, y, w), [(p, one)], cols[(y, z, w)][q * dzw + r])
               for p in range(h.dim(x, y)) for q in range(dyz) for r in range(dzw)):
            found.append((x, y, z, w))
    return found


def composition_comultiplicativity(h) -> list:
    """The object triples (x, y, z), in order, at which Delta(pq) and
    p1 q1 (x) p2 q2 differ for some basis pair p, q of a(x,y), a(y,z): the
    right side summed through FieldSpec.add and FieldSpec.mul over the
    composition columns, the left side through finalg._comult_sum."""
    f = h.field
    found = []
    for x, y, z in itertools.product(range(h.n_objects), repeat=3):
        col, dyz, dxz = sparse_cols(h.comps[(x, y, z)]), h.dim(y, z), h.dim(x, z)
        delta_xy, delta_yz, delta_xz = (_comult_by_source(h.homs[key])
                                        for key in ((x, y), (y, z), (x, z)))
        for p, q in itertools.product(range(h.dim(x, y)), range(dyz)):
            rhs = [f.zero()] * (dxz * dxz)
            for (p1, p2, s), (q1, q2, t) in itertools.product(delta_xy[p], delta_yz[q]):
                for m1, t1 in col[p1 * dyz + q1]:
                    for m2, t2 in col[p2 * dyz + q2]:
                        idx = m1 * dxz + m2
                        rhs[idx] = f.add(rhs[idx], f.mul(f.mul(s, t), f.mul(t1, t2)))
            if _comult_sum(f, delta_xz, col[p * dyz + q]) != dict(_terms(rhs)):
                found.append((x, y, z))
                break
    return found
