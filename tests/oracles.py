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
``finalg._comult_products``; ``category_unit_laws`` is its unit-law loop
before both sides were taken as raw sums through ``finalg._unit_failures``,
one ``finalg._product`` per basis element and side;
``algebroid_coassociativity`` and ``algebroid_comult_multiplicative`` are
the coassociativity and "Delta is multiplicative" loops of
``hopfalgd.check_hopf_algebroid`` before they read the raw walks
``finalg._coassociativity_sides`` and ``finalg._comult_products``: a gap
added up through FieldSpec.add and FieldSpec.sub, and the lift in
circ-quotient coordinates applied to each product e_i e_j; ``read_array`` is ``structfile._array_in``
before it flattened a table one axis at a time, a recursive walk in document
order that parses each token through a cache of the distinct tokens; and
``convert_cointegral`` is the sum of ``weakhopf.convert_cointegral`` before
it made one covector per unit leg, one ``finalg._product`` per basis element
and term of Delta(1).  ``group_algebra``, ``dual_group_algebra``,
``groupoid_algebra``, ``hopf_category_from_groupoid``, ``pair_groupoid``,
``one_object_groupoid``, ``connected_groupoid`` and ``mutate`` are the
generators of ``examples`` before one groupoid linearization built the weak
Hopf families and the pair and one-object groupoids became connected
groupoids: a hand-written builder per family, a connected groupoid that
tested every pair of morphisms for composability, and a five-branch
mutation.  The tests run both forms on the same inputs and compare.
"""

import argparse
import itertools
import random

from maschke_kit.cli import GENERATORS, UsageError
from maschke_kit.examples import GroupoidPresentation, GroupPresentation
from maschke_kit.exactlin import (ConstraintSystem, FieldSpec, Matrix, Tensor3, _row_space,
                                   unit_vec)
from maschke_kit.finalg import (AlgebraPresentation, AxiomFailure, AxiomReport,
                                CoalgebraPresentation, _apply_sparse,
                                _comult_by_source, _comult_sum, _dot, _nonzero_entries,
                                _product, _sparse_products, _terms)
from maschke_kit.hopfalgd import CIRC, _comult_terms, circ_relations, tensor_over_R
from maschke_kit.hopfcat import HopfCategoryPresentation, _composition_tables
from maschke_kit.structfile import _EXPECTED, _fail
from maschke_kit.weakhopf import WeakHopfPresentation, _unit_comult, projections

from denselin import comult_vec, sparse_cols


def add_to(row: dict, var: int, value, f: FieldSpec):
    """Add value to row[var] through FieldSpec.add, from zero when absent."""
    row[var] = f.add(row.get(var, f.zero()), value)


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

    # weak counit: eps(fgh) = sum eps(f g1) eps(g2 h) = sum eps(f g2) eps(g1 h),
    # with eps2[i][j] = eps(e_i e_j)
    eps2 = [[zero] * n for _ in range(n)]
    for i, j, k, t in alg.mult.nonzeros():
        eps2[i][j] = add(eps2[i][j], mul(t, coa.counit[k]))
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


def category_unit_laws(h) -> list:
    """The unit-law failures of a Hopf category, in order: (x, y) fails the
    left law when u_x p != p and the right law when p u_y != p for some
    basis element p of a(x,y), each product through finalg._product."""
    f = h.field
    one = f.one()
    tables = _composition_tables(h)
    failures = []
    for x, y in itertools.product(range(h.n_objects), repeat=2):
        ux, uy, basis = _terms(h.units[x]), _terms(h.units[y]), range(h.dim(x, y))
        if any(_product(f, tables[(x, x, y)], ux, [(p, one)]) != {p: one} for p in basis):
            failures.append(AxiomFailure("left unit law", (x, y)))
        if any(_product(f, tables[(x, y, y)], [(p, one)], uy) != {p: one} for p in basis):
            failures.append(AxiomFailure("right unit law", (x, y)))
    return failures


def algebroid_coassociativity(h) -> list:
    """The witnesses (i,), in order, at which (Delta (x) 1) Delta(e_i) -
    (1 (x) Delta) Delta(e_i), summed through FieldSpec.add and FieldSpec.sub
    over the terms of the lift, is not in the relations of the double circ
    quotient."""
    f, n = h.field, h.total.dim
    n2 = n * n
    terms = _comult_terms(h)
    rows3 = []
    for r in circ_relations(h).row_terms:
        for k in range(n):
            rows3.append({ab * n + k: c for ab, c in r})
            rows3.append({k * n2 + ab: c for ab, c in r})
    rel3 = _row_space(f, n2 * n, rows3)
    found = []
    for i in range(n):
        gap = [f.zero()] * (n2 * n)
        for a, b, c in terms[i]:
            for p, q, c2 in terms[a]:
                idx = (p * n + q) * n + b
                gap[idx] = f.add(gap[idx], f.mul(c, c2))
            for p, q, c2 in terms[b]:
                idx = (a * n + p) * n + q
                gap[idx] = f.sub(gap[idx], f.mul(c, c2))
        if not rel3.contains(tuple(gap)):
            found.append((i,))
    return found


def algebroid_comult_multiplicative(h) -> list:
    """The witnesses (i, j), in order, at which the lift in circ-quotient
    coordinates applied to e_i e_j differs from the projection of Delta(e_i)
    Delta(e_j), the factorwise product summed through the field operations."""
    f, n = h.field, h.total.dim
    prod, terms = _sparse_products(h.total), _comult_terms(h)
    pcols = tensor_over_R(h, CIRC).projection.columns()
    dq = [_apply_sparse(f, pcols, lift).items() for lift in h.comult_lift.columns()]
    found = []
    for i, j in itertools.product(range(n), repeat=2):
        factorwise = {}
        for (a, b, s1), (c, d, s2) in itertools.product(terms[i], terms[j]):
            for p, t1 in prod[a][c]:
                for q, t2 in prod[b][d]:
                    add_to(factorwise, p * n + q, f.mul(f.mul(s1, s2), f.mul(t1, t2)), f)
        if _apply_sparse(f, dq, prod[i][j]) != _apply_sparse(f, pcols, factorwise.items()):
            found.append((i, j))
    return found


def _token_parser(field):
    """field.parse_scalar that parses each distinct text token once.

    Anything but text goes straight to parse_scalar, which refuses it; a
    failing token raises before it is stored.
    """
    parsed = {}

    def parse(x):
        if type(x) is not str:
            return field.parse_scalar(x)
        value = parsed.get(x)
        if value is None:
            value = parsed[x] = field.parse_scalar(x)
        return value

    return parse


def read_array(field, obj, shape, path):
    """The nested JSON array obj of the given shape: a vector (a tuple) for
    one axis, a Matrix for two, a Tensor3 for three.  A list of the wrong
    length, or a token that does not parse, fails at the path of its list."""
    parse, entries, last = _token_parser(field), [], len(shape) - 1
    expected = _EXPECTED[len(shape)]

    def read(node, axis, path):
        if not isinstance(node, list) or len(node) != shape[axis]:
            _fail(path, "expected " + expected[axis].format(shape[axis]))
        if axis < last:
            for i, item in enumerate(node):
                read(item, axis + 1, f"{path}[{i}]")
            return
        try:
            entries.extend(map(parse, node))
        except (ValueError, TypeError) as exc:
            _fail(path, str(exc))

    read(obj, 0, path)
    if last == 0:
        return tuple(entries)
    return (Matrix if last == 1 else Tensor3)(field, *shape, tuple(entries))


def convert_cointegral(w, tau_prime, side) -> tuple:
    """The duoidal cointegral of the primed tau_prime, without the membership
    tests: out[j] = sum over the terms c e_a (x) e_b of Delta(1) of
    c tau'((e_a e_j) piR(e_b)) (left) or c tau'(piL(e_a) (e_j e_b)) (right),
    one finalg._product per j and term."""
    f, maps, left = w.field, projections(w), side == "left"
    pi_cols = (maps.piR if left else maps.piL).columns()
    prod = _sparse_products(w.algebra)
    tau_prime = tuple(f.coerce(x) for x in tau_prime)
    out = []
    for j in range(w.dim):
        acc = f.zero()
        for a, b, c in _unit_comult(w):
            vec = _product(f, prod, prod[a][j], pi_cols[b]) if left else \
                _product(f, prod, pi_cols[a], prod[j][b])
            acc = f.add(acc, f.mul(c, _dot(f, tau_prime, vec.items())))
        out.append(acc)
    return tuple(out)


# the generators before one linearization built them all


def connected_groupoid(g: GroupPresentation, n_objects: int) -> GroupoidPresentation:
    """Every hom-set a torsor over g: morphisms are (src, tgt, group element)."""
    if n_objects < 1:
        raise ValueError("need at least one object")
    objects = tuple(f"x{i}" for i in range(n_objects))
    morphs = [(s, t, a) for s in range(n_objects) for t in range(n_objects)
              for a in range(g.order)]
    index = {m: i for i, m in enumerate(morphs)}
    source = tuple(m[0] for m in morphs)
    target = tuple(m[1] for m in morphs)
    compose = {}
    for f, (sf, tf, af) in enumerate(morphs):
        for h, (sh, th, ah) in enumerate(morphs):
            if sf == th:
                compose[(f, h)] = index[(sh, tf, g.table[af][ah])]
    identity = tuple(index[(x, x, g.identity)] for x in range(n_objects))
    inverse = tuple(index[(t, s, g.inverse[a])] for (s, t, a) in morphs)
    labels = tuple(f"f{i}:{objects[source[i]]}>{objects[target[i]]}"
                   for i in range(len(source)))
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, labels)


def pair_groupoid(n: int) -> GroupoidPresentation:
    """Objects 0..n-1 with exactly one morphism between any ordered pair."""
    if n < 1:
        raise ValueError("need at least one object")
    objects = tuple(f"x{i}" for i in range(n))
    morphs = [(s, t) for s in range(n) for t in range(n)]
    index = {m: i for i, m in enumerate(morphs)}
    source = tuple(s for s, _ in morphs)
    target = tuple(t for _, t in morphs)
    compose = {}
    for f, (sf, tf) in enumerate(morphs):
        for h, (sh, th) in enumerate(morphs):
            if sf == th:
                compose[(f, h)] = index[(sh, tf)]
    identity = tuple(index[(x, x)] for x in range(n))
    inverse = tuple(index[(t, s)] for (s, t) in morphs)
    labels = tuple(f"f{i}:{objects[source[i]]}>{objects[target[i]]}"
                   for i in range(len(source)))
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, labels)


def one_object_groupoid(g: GroupPresentation) -> GroupoidPresentation:
    objects = ("x0",)
    n = g.order
    compose = {(f, h): g.table[f][h] for f in range(n) for h in range(n)}
    return GroupoidPresentation(objects, (0,) * n, (0,) * n, compose,
                                (g.identity,), g.inverse,
                                tuple(f"f{i}:x0>x0" for i in range(n)))


def group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """kG with grouplike comultiplication and inversion antipode."""
    n = g.order
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for i in range(n):
        for j in range(n):
            mult[(i * n + j) * n + g.table[i][j]] = o
        comult[(i * n + i) * n + i] = o
        anti[g.inverse[i] * n + i] = o
    unit = tuple(o if i == g.identity else z for i in range(n))
    algebra = AlgebraPresentation(field, n, g.labels,
                                  Tensor3(field, n, n, n, tuple(mult)), unit)
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)),
                                      (o,) * n)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def dual_group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """Functions on G: pointwise product, convolution-dual comultiplication."""
    n = g.order
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for i in range(n):
        mult[(i * n + i) * n + i] = o
        anti[g.inverse[i] * n + i] = o
        for j in range(n):
            # delta(d_i) = sum over factorizations j * (j^-1 i) = i
            comult[(i * n + j) * n + g.table[g.inverse[j]][i]] = o
    counit = tuple(o if i == g.identity else z for i in range(n))
    algebra = AlgebraPresentation(field, n, tuple(f"d{l}" for l in g.labels),
                                  Tensor3(field, n, n, n, tuple(mult)), (o,) * n)
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)), counit)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def groupoid_algebra(gd: GroupoidPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """Basis = morphisms, f*h = composite when composable else 0; unit sums ids."""
    n = gd.n_morphisms
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for f in range(n):
        comult[(f * n + f) * n + f] = o
        anti[gd.inverse[f] * n + f] = o
        for h in range(n):
            fh = gd.compose.get((f, h))
            if fh is not None:
                mult[(f * n + h) * n + fh] = o
    unit = [z] * n
    for e in gd.identity:
        unit[e] = o
    algebra = AlgebraPresentation(field, n, gd.labels,
                                  Tensor3(field, n, n, n, tuple(mult)), tuple(unit))
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)),
                                      (o,) * n)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def hopf_category_from_groupoid(gd: GroupoidPresentation,
                                field: FieldSpec) -> HopfCategoryPresentation:
    """Hom spans linearized: a(x,y) = span of morphisms x -> y, grouplike."""
    nobj = len(gd.objects)
    z, o = field.zero(), field.one()
    hom_elems = {}
    for x in range(nobj):
        for y in range(nobj):
            elems = gd.hom(x, y)
            if not elems:
                raise ValueError(f"empty hom-set {gd.objects[x]} -> {gd.objects[y]}; "
                                 "every hom must carry a counit")
            hom_elems[(x, y)] = elems
    objects = gd.objects
    homs = {}
    for (x, y), elems in hom_elems.items():
        d = len(elems)
        comult = [z] * (d ** 3)
        for i in range(d):
            comult[(i * d + i) * d + i] = o
        homs[(x, y)] = CoalgebraPresentation(field, d,
                                             Tensor3(field, d, d, d, tuple(comult)),
                                             (o,) * d)
    comps = {}
    for x in range(nobj):
        for y in range(nobj):
            for zz in range(nobj):
                exy, eyz, exz = hom_elems[(x, y)], hom_elems[(y, zz)], hom_elems[(x, zz)]
                dxy, dyz, dxz = len(exy), len(eyz), len(exz)
                ent = [z] * (dxz * dxy * dyz)
                for i, fi in enumerate(exy):
                    for j, gj in enumerate(eyz):
                        m = exz.index(gd.compose[(gj, fi)])
                        ent[m * (dxy * dyz) + i * dyz + j] = o
                comps[(x, y, zz)] = Matrix(field, dxz, dxy * dyz, tuple(ent))
    units = {}
    for x in range(nobj):
        exx = hom_elems[(x, x)]
        units[x] = tuple(o if m == gd.identity[x] else z for m in exx)
    antipode = {}
    for (x, y), elems in hom_elems.items():
        eyx = hom_elems[(y, x)]
        ent = [z] * (len(eyx) * len(elems))
        for j, fj in enumerate(elems):
            ent[eyx.index(gd.inverse[fj]) * len(elems) + j] = o
        antipode[(x, y)] = Matrix(field, len(eyx), len(elems), tuple(ent))
    return HopfCategoryPresentation(objects, homs, comps, units, antipode)


def _mutant_value(field, rng, old):
    if field.characteristic == 0:
        pool = [-2, -1, 0, 1, 2, 3]
        new = field.coerce(rng.choice(pool))
    else:
        new = rng.randrange(field.characteristic)
    return new


def mutate(w: WeakHopfPresentation, seed: int) -> WeakHopfPresentation:
    """Perturb one structure-constant entry, chosen deterministically by seed.

    Dimensions never change; validity of the result is not guaranteed, by
    design.  A draw that would leave the entry unchanged is redrawn from
    seed + 1.
    """
    if not isinstance(w, WeakHopfPresentation):
        raise TypeError("mutate expects a WeakHopfPresentation")
    rng = random.Random(seed)
    f = w.field
    n = w.dim
    sites = [("mult", n ** 3), ("unit", n), ("comult", n ** 3), ("counit", n)]
    if w.antipode is not None:
        sites.append(("antipode", n * n))
    total = sum(c for _, c in sites)
    pick = rng.randrange(total)
    for name, count in sites:
        if pick < count:
            break
        pick -= count
    new = _mutant_value(f, rng, None)

    def redraw():
        return mutate(w, seed + 1)

    alg, coa = w.algebra, w.coalgebra
    if name == "mult":
        i, rest = divmod(pick, n * n)
        j, k = divmod(rest, n)
        if alg.mult.at(i, j, k) == new:
            return redraw()
        alg = AlgebraPresentation(f, n, alg.labels,
                                  alg.mult.with_entry(i, j, k, new), alg.unit)
    elif name == "unit":
        if alg.unit[pick] == new:
            return redraw()
        unit = list(alg.unit)
        unit[pick] = new
        if all(x == 0 for x in unit):
            return redraw()
        alg = AlgebraPresentation(f, n, alg.labels, alg.mult, tuple(unit))
    elif name == "comult":
        i, rest = divmod(pick, n * n)
        j, k = divmod(rest, n)
        if coa.comult.at(i, j, k) == new:
            return redraw()
        coa = CoalgebraPresentation(f, n, coa.comult.with_entry(i, j, k, new),
                                    coa.counit)
    elif name == "counit":
        if coa.counit[pick] == new:
            return redraw()
        counit = list(coa.counit)
        counit[pick] = new
        coa = CoalgebraPresentation(f, n, coa.comult, tuple(counit))
    else:
        i, j = divmod(pick, n)
        if w.antipode.at(i, j) == new:
            return redraw()
        ent = list(w.antipode.entries)
        ent[i * n + j] = new
        return WeakHopfPresentation(alg, coa, Matrix(f, n, n, tuple(ent)))
    return WeakHopfPresentation(alg, coa, w.antipode)
