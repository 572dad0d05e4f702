"""The algebra, coalgebra and weak Hopf layers read stored sparse tables.

``finalg.check_algebra``, ``finalg.check_coalgebra``, the product of two
term lists (``finalg._product``), the weak Hopf base algebra, (co)integral
systems and conversions are computed from the product table, the
comultiplication grouped by source and the sparse columns of the
projections.  The oracles below are the earlier forms, which multiply unit
vectors with a dense scan of the structure constants or apply dense matrices;
reports, systems, solutions, base algebras and conversions must agree with
them exactly.  The duoidal (co)integral solves resume the solved primed
elimination, and must agree with the full duoidal systems solved from scratch.
"""

import functools
import os
import random
import subprocess
import sys

import maschke_kit
from maschke_kit import weakhopf
from maschke_kit.examples import (
    connected_groupoid,
    cyclic_group,
    disjoint_union,
    dual_group_algebra,
    group_algebra,
    groupoid_algebra,
    klein_four_group,
    mutate,
    one_object_groupoid,
    pair_groupoid,
    symmetric_group_s3,
)
from maschke_kit.exactlin import (
    ConstraintSystem,
    FieldSpec,
    Matrix,
    Tensor3,
    unit_vec,
    vec_sub,
)
from maschke_kit.finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    CoalgebraPresentation,
    check_algebra,
    check_coalgebra,
)
from maschke_kit.weakhopf import (
    BaseAlgebraInfo,
    ProjectionMaps,
    StructureDefectError,
    WeakHopfPresentation,
    base_algebra,
    check_antipode,
    check_weak_bialgebra,
    cointegral_system,
    convert_cointegral,
    convert_integral,
    integral_system,
    projections,
    solve_cointegral,
    solve_integral,
)

from denselin import (NON_SCALAR_Q, add_matrix_rows, add_row, apply, comult_vec, dense_col,
                      identity, left_mult_matrix, matrix_pair_weak_hopf, mult_vec, rebased,
                      right_mult_matrix, row_multiset, sparse_cols,
                      subspace_from_rows, transpose, vec_add, vec_scale, zero_vec)
from oracles import convert_cointegral as product_form_convert_cointegral

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)
SIDES = ("left", "right")
VARIANTS = ("primed", "duoidal")


# ---------------------------------------------------------------------------
# oracles: the earlier per-unit-vector forms


def oracle_mult_vec(a, u, v) -> tuple:
    f = a.field
    out = [f.zero()] * a.dim
    for i, x in enumerate(u):
        if x == 0:
            continue
        for j, y in enumerate(v):
            if y == 0:
                continue
            c = f.mul(x, y)
            for k in range(a.dim):
                t = a.mult.at(i, j, k)
                if t != 0:
                    out[k] = f.add(out[k], f.mul(c, t))
    return tuple(out)


def oracle_check_algebra(a) -> AxiomReport:
    n = a.dim
    failures = []
    basis = [unit_vec(a.field, n, i) for i in range(n)]
    for i in range(n):
        if oracle_mult_vec(a, a.unit, basis[i]) != basis[i]:
            failures.append(AxiomFailure("left unit", (i,), a.labels[i]))
        if oracle_mult_vec(a, basis[i], a.unit) != basis[i]:
            failures.append(AxiomFailure("right unit", (i,), a.labels[i]))
    prods = [[oracle_mult_vec(a, basis[i], basis[j]) for j in range(n)]
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = oracle_mult_vec(a, prods[i][j], basis[k])
                rhs = oracle_mult_vec(a, basis[i], prods[j][k])
                if lhs != rhs:
                    failures.append(AxiomFailure(
                        "associativity", (i, j, k),
                        f"({a.labels[i]}*{a.labels[j]})*{a.labels[k]}"))
    return AxiomReport(tuple(failures))


def oracle_check_coalgebra(c) -> AxiomReport:
    n = c.dim
    f = c.field
    failures = []
    for i in range(n):
        left = [f.zero()] * n
        right = [f.zero()] * n
        for i0, j, k, t in c.comult.nonzeros():
            if i0 != i:
                continue
            left[k] = f.add(left[k], f.mul(t, c.counit[j]))
            right[j] = f.add(right[j], f.mul(t, c.counit[k]))
        e = unit_vec(f, n, i)
        if tuple(left) != e:
            failures.append(AxiomFailure("left counit", (i,)))
        if tuple(right) != e:
            failures.append(AxiomFailure("right counit", (i,)))
    for i in range(n):
        lhs = [f.zero()] * (n ** 3)
        rhs = [f.zero()] * (n ** 3)
        for i0, j, k, t in c.comult.nonzeros():
            if i0 != i:
                continue
            for j0, p, q, s in c.comult.nonzeros():
                if j0 == j:
                    idx = (p * n + q) * n + k
                    lhs[idx] = f.add(lhs[idx], f.mul(t, s))
                if j0 == k:
                    idx = (j * n + p) * n + q
                    rhs[idx] = f.add(rhs[idx], f.mul(t, s))
        if lhs != rhs:
            failures.append(AxiomFailure("coassociativity", (i,)))
    return AxiomReport(tuple(failures))


def oracle_integral_system(w, side, variant, normalized) -> ConstraintSystem:
    f = w.field
    n = w.dim
    alg = w.algebra
    maps = projections(w)
    sys = ConstraintSystem(f, n)
    basis = [unit_vec(f, n, i) for i in range(n)]
    if side == "left":
        for i in range(n):
            add_matrix_rows(sys, left_mult_matrix(alg, vec_sub(f, basis[i],
                                                               dense_col(maps.piL, i))))
        if normalized:
            add_matrix_rows(sys, maps.piR_bar, alg.unit)
    else:
        for i in range(n):
            add_matrix_rows(sys, right_mult_matrix(alg, vec_sub(f, basis[i],
                                                                dense_col(maps.piR, i))))
        if normalized:
            add_matrix_rows(sys, maps.piR, alg.unit)
    if variant == "duoidal":
        info = base_algebra(w)
        for i in range(info.subspace.dim):
            x = info.subspace.basis.row(i)
            if side == "left":
                y = vec_sub(f, apply(maps.piL, x),
                            apply(maps.piR_bar, apply(maps.piL_bar, x)))
                add_matrix_rows(sys, right_mult_matrix(alg, y))
            else:
                y = vec_sub(f, apply(maps.piL_bar, x), apply(maps.piR, apply(maps.piL, x)))
                add_matrix_rows(sys, left_mult_matrix(alg, y))
    return sys


def oracle_cointegral_system(w, side, variant, normalized) -> ConstraintSystem:
    f = w.field
    n = w.dim
    alg, coa = w.algebra, w.coalgebra
    maps = projections(w)
    sys = ConstraintSystem(f, n)
    by_source = [[] for _ in range(n)]
    for i, a, b, t in coa.comult.nonzeros():
        by_source[i].append((a, b, t))
    if side == "left":
        for i in range(n):
            rows = [dict() for _ in range(n)]
            for a, b, t in by_source[i]:
                for m in range(n):
                    c = f.mul(t, f.sub(f.one() if a == m else f.zero(),
                                       maps.piL.at(m, a)))
                    if c != 0:
                        row = rows[m]
                        row[b] = f.add(row.get(b, f.zero()), c)
            for row in rows:
                add_row(sys, row, f.zero())
        if normalized:
            for j in range(n):
                coeffs = {a: maps.piL.at(a, j) for a in range(n)
                          if maps.piL.at(a, j) != 0}
                add_row(sys, coeffs, coa.counit[j])
    else:
        for i in range(n):
            rows = [dict() for _ in range(n)]
            for a, b, t in by_source[i]:
                for m in range(n):
                    c = f.mul(t, f.sub(f.one() if b == m else f.zero(),
                                       maps.piR.at(m, b)))
                    if c != 0:
                        row = rows[m]
                        row[a] = f.add(row.get(a, f.zero()), c)
            for row in rows:
                add_row(sys, row, f.zero())
        if normalized:
            for j in range(n):
                coeffs = {a: maps.piR.at(a, j) for a in range(n)
                          if maps.piR.at(a, j) != 0}
                add_row(sys, coeffs, coa.counit[j])
    if variant == "duoidal":
        info = base_algebra(w)
        basis = [unit_vec(f, n, i) for i in range(n)]
        for i in range(info.subspace.dim):
            x = info.subspace.basis.row(i)
            for j in range(n):
                if side == "left":
                    v1 = oracle_mult_vec(alg, x, basis[j])
                    v2 = oracle_mult_vec(alg, basis[j],
                                         apply(maps.piR, apply(maps.piL, x)))
                else:
                    v1 = oracle_mult_vec(alg, basis[j], apply(maps.piL_bar, x))
                    v2 = oracle_mult_vec(alg, apply(maps.piL, x), basis[j])
                coeffs = {}
                for m in range(n):
                    c = f.sub(v1[m], v2[m])
                    if c != 0:
                        coeffs[m] = c
                add_row(sys, coeffs, f.zero())
    return sys


def _oracle_image(field, m: Matrix):
    return subspace_from_rows(field, m.rows, [dense_col(m, j) for j in range(m.cols)])


def oracle_base_algebra(w) -> BaseAlgebraInfo:
    """The base algebra with dense matrices and products.  It reads the
    projections through the module, so a test may replace them."""
    weakhopf.check_weak_bialgebra(w).require("weak bialgebra")
    maps = weakhopf.projections(w)
    f = w.field
    n = w.dim
    alg = w.algebra
    base = _oracle_image(f, maps.piR)
    cobase = _oracle_image(f, maps.piL)
    if _oracle_image(f, maps.piR_bar).basis != base.basis:
        raise StructureDefectError("images of piR and piR_bar differ")
    if _oracle_image(f, maps.piL_bar).basis != cobase.basis:
        raise StructureDefectError("images of piL and piL_bar differ")
    if not base.contains(alg.unit):
        raise StructureDefectError("unit escapes the base algebra")
    rows = [base.basis.row(i) for i in range(base.dim)]
    corows = [cobase.basis.row(i) for i in range(cobase.dim)]
    for u in rows:
        for v in rows:
            if not base.contains(mult_vec(alg, u, v)):
                raise StructureDefectError("base not closed under multiplication")
    for x in corows:
        for y in rows:
            if mult_vec(alg, x, y) != mult_vec(alg, y, x):
                raise StructureDefectError("commutant fails to commute with the base")
    for y in rows:
        if apply(maps.piR, apply(maps.piL_bar, y)) != y:
            raise StructureDefectError("piR . piL_bar is not the identity on the base")
        if apply(maps.piR_bar, apply(maps.piL, y)) != y:
            raise StructureDefectError("piR_bar . piL is not the identity on the base")
    for x in corows:
        if apply(maps.piL_bar, apply(maps.piR, x)) != x:
            raise StructureDefectError("piL_bar . piR is not the identity on the commutant")
        if apply(maps.piL, apply(maps.piR_bar, x)) != x:
            raise StructureDefectError("piL . piR_bar is not the identity on the commutant")
    for u in rows:
        for v in rows:
            lhs = apply(maps.piL_bar, mult_vec(alg, u, v))
            rhs = mult_vec(alg, apply(maps.piL_bar, v), apply(maps.piL_bar, u))
            if lhs != rhs:
                raise StructureDefectError("piL_bar is not anti-multiplicative on the base")
    d = base.dim
    ent = []
    for u in rows:
        for v in rows:
            coords = base.coords(mult_vec(alg, u, v))
            if coords is None:
                raise StructureDefectError("base product left the base")
            ent.extend(coords)
    induced = Tensor3(f, d, d, d, tuple(ent))
    u_vec = comult_vec(w.coalgebra, alg.unit)
    fe = [f.zero()] * (n * n)
    for ab, c in enumerate(u_vec):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        col = dense_col(maps.piR, b)
        for k in range(n):
            if col[k] != 0:
                fe[a * n + k] = f.add(fe[a * n + k], f.mul(c, col[k]))
    eps = w.coalgebra.counit
    left = zero_vec(f, n)
    right = zero_vec(f, n)
    for ab, c in enumerate(fe):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        if eps[a] != 0:
            left = vec_add(f, left, vec_scale(f, f.mul(c, eps[a]), unit_vec(f, n, b)))
        if eps[b] != 0:
            right = vec_add(f, right, vec_scale(f, f.mul(c, eps[b]), unit_vec(f, n, a)))
    if left != alg.unit or right != alg.unit:
        raise StructureDefectError("Frobenius functional identity fails on the base")
    return BaseAlgebraInfo(base, induced, tuple(fe), eps)


def oracle_convert_integral(w, t_prime, side) -> tuple:
    f = w.field
    n = w.dim
    alg = w.algebra
    maps = projections(w)
    t_prime = tuple(f.coerce(x) for x in t_prime)
    u = comult_vec(w.coalgebra, alg.unit)
    basis = [unit_vec(f, n, i) for i in range(n)]
    out = zero_vec(f, n)
    comp = maps.piL @ maps.piR if side == "left" else maps.piR @ maps.piL
    for ab, c in enumerate(u):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        if side == "left":
            term = oracle_mult_vec(alg, oracle_mult_vec(alg, t_prime, basis[a]),
                                   dense_col(comp, b))
        else:
            term = oracle_mult_vec(alg, oracle_mult_vec(alg, dense_col(comp, a), basis[b]),
                                   t_prime)
        out = vec_add(f, out, vec_scale(f, c, term))
    return out


def oracle_convert_cointegral(w, tau_prime, side) -> tuple:
    f = w.field
    n = w.dim
    alg = w.algebra
    maps = projections(w)
    tau_prime = tuple(f.coerce(x) for x in tau_prime)
    u = comult_vec(w.coalgebra, alg.unit)
    basis = [unit_vec(f, n, i) for i in range(n)]
    out = []
    for j in range(n):
        acc = f.zero()
        for ab, c in enumerate(u):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            if side == "left":
                vec = oracle_mult_vec(alg, oracle_mult_vec(alg, basis[a], basis[j]),
                                      dense_col(maps.piR, b))
            else:
                vec = oracle_mult_vec(alg, oracle_mult_vec(alg, dense_col(maps.piL, a), basis[j]),
                                      basis[b])
            dot = f.zero()
            for x, y in zip(tau_prime, vec):
                dot = f.add(dot, f.mul(x, y))
            acc = f.add(acc, f.mul(c, dot))
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# corpus


def groupoids():
    return [pair_groupoid(2),
            disjoint_union(one_object_groupoid(cyclic_group(2)),
                           one_object_groupoid(cyclic_group(2))),
            connected_groupoid(cyclic_group(2), 2),
            pair_groupoid(3)]


def criterion04_corpus():
    """The 72 criterion-04 cases: group, dual group and groupoid algebras
    over Q, F2, F3 and F5."""
    groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + \
        [klein_four_group(), symmetric_group_s3()]
    for field in (QQ, F2, F3, F5):
        yield from (group_algebra(g, field) for g in groups)
        yield from (dual_group_algebra(g, field) for g in groups)
        yield from (groupoid_algebra(gd, field) for gd in groupoids())


def mutants():
    """Seeds 0..149 of QC2 and of the pair:2 groupoid algebra over Q, valid
    or not."""
    for base in (group_algebra(cyclic_group(2), QQ),
                 groupoid_algebra(pair_groupoid(2), QQ)):
        for seed in range(150):
            yield mutate(base, seed)


def rebased_presentations():
    """Isomorphic copies whose structure constants are not all 0 and 1, and
    their mutants."""
    for w in (group_algebra(cyclic_group(3), QQ),
              dual_group_algebra(symmetric_group_s3(), F5),
              groupoid_algebra(pair_groupoid(2), QQ),
              groupoid_algebra(connected_groupoid(cyclic_group(2), 2), F3)):
        r = rebased(w, 1)
        yield r
        for seed in range(40):
            yield mutate(r, seed)


def dual(w):
    """The dual weak Hopf algebra on the dual basis: its multiplication is the
    transposed comultiplication and the other way round.  The duals of
    groupoid algebras have a Delta(1) that is not symmetric in its legs."""
    f, n = w.field, w.dim
    a, c = w.algebra, w.coalgebra
    mult, comult = [f.zero()] * n ** 3, [f.zero()] * n ** 3
    for i, j, k, t in c.comult.nonzeros():
        mult[(j * n + k) * n + i] = t
    for i, j, k, t in a.mult.nonzeros():
        comult[(k * n + i) * n + j] = t
    return WeakHopfPresentation(
        AlgebraPresentation(f, n, a.labels, Tensor3(f, n, n, n, tuple(mult)), c.counit),
        CoalgebraPresentation(f, n, Tensor3(f, n, n, n, tuple(comult)), a.unit),
        None if w.antipode is None else transpose(w.antipode))


def dual_presentations():
    """Duals of the criterion-04 groupoid algebras and of two rebased ones."""
    for field in (QQ, F2, F3, F5):
        yield from (dual(groupoid_algebra(gd, field)) for gd in groupoids())
    yield dual(rebased(groupoid_algebra(pair_groupoid(2), QQ), 1))
    yield dual(rebased(groupoid_algebra(connected_groupoid(cyclic_group(2), 2), F5), 2))


def raised_copies(w, rng):
    """Copies of w with one entry of mult, comult, unit or counit raised by 1."""
    f, n = w.field, w.dim
    a, c = w.algebra, w.coalgebra
    i, j, k = (rng.randrange(n) for _ in range(3))
    mult = a.mult.with_entry(i, j, k, f.add(a.mult.at(i, j, k), f.one()))
    yield WeakHopfPresentation(AlgebraPresentation(f, n, a.labels, mult, a.unit),
                               c, w.antipode)
    comult = c.comult.with_entry(i, j, k, f.add(c.comult.at(i, j, k), f.one()))
    yield WeakHopfPresentation(a, CoalgebraPresentation(f, n, comult, c.counit),
                               w.antipode)
    unit = list(a.unit)
    unit[i] = f.add(unit[i], f.one())
    if any(x != 0 for x in unit):
        yield WeakHopfPresentation(
            AlgebraPresentation(f, n, a.labels, a.mult, tuple(unit)), c, w.antipode)
    counit = list(c.counit)
    counit[i] = f.add(counit[i], f.one())
    yield WeakHopfPresentation(a, CoalgebraPresentation(f, n, c.comult, tuple(counit)),
                               w.antipode)


def tensor(w1, w2):
    """The tensor product of two weak Hopf algebras over one field, on the
    basis e_i (x) e_j at index i * dim2 + j, with the antipode S1 (x) S2."""
    f, n1, n2 = w1.field, w1.dim, w2.dim
    n = n1 * n2
    mult, comult = [f.zero()] * n ** 3, [f.zero()] * n ** 3
    for t1, t2, out in ((w1.algebra.mult, w2.algebra.mult, mult),
                        (w1.coalgebra.comult, w2.coalgebra.comult, comult)):
        for i1, j1, k1, a in t1.nonzeros():
            for i2, j2, k2, b in t2.nonzeros():
                i, j, k = i1 * n2 + i2, j1 * n2 + j2, k1 * n2 + k2
                out[(i * n + j) * n + k] = f.mul(a, b)
    unit, counit = ([f.mul(x, y) for x in u1 for y in u2] for u1, u2 in (
        (w1.algebra.unit, w2.algebra.unit), (w1.coalgebra.counit, w2.coalgebra.counit)))
    s1, s2 = w1.antipode, w2.antipode
    antipode = Matrix(f, n, n, tuple(f.mul(s1.at(a1, b1), s2.at(a2, b2))
                                     for a1 in range(n1) for a2 in range(n2)
                                     for b1 in range(n1) for b2 in range(n2)))
    labels = tuple(f"{x}*{y}" for x in w1.labels for y in w2.labels)
    return WeakHopfPresentation(
        AlgebraPresentation(f, n, labels, Tensor3(f, n, n, n, tuple(mult)), tuple(unit)),
        CoalgebraPresentation(f, n, Tensor3(f, n, n, n, tuple(comult)), tuple(counit)),
        antipode)


def tensor_presentations():
    """Noncommutative weak Hopf algebras whose duoidal rows are not all zero:
    the dual of a groupoid algebra (a commutative algebra with a nontrivial
    base) times a rebased groupoid algebra, in both orders.  Without the
    change of basis a symmetry of the matrix units maps the rows of t y onto
    those of y t, and the row multisets could not tell the sides apart."""
    for field in (QQ, F3):
        w1, w2 = dual(groupoid_algebra(pair_groupoid(2), field)), \
            rebased(groupoid_algebra(pair_groupoid(2), field), 1)
        yield tensor(w1, w2)
        yield tensor(w2, w1)


def oracle_corpus():
    rng = random.Random(7)
    for w in criterion04_corpus():
        yield w
        for _ in range(2):
            yield from raised_copies(w, rng)
    yield from mutants()
    yield from rebased_presentations()
    yield from dual_presentations()


@functools.cache
def valid_corpus() -> tuple:
    """The weak bialgebras of the corpus, the tensor products, and
    M_2(k) (x) M_2(k)^op over Q, F3 and F5, whose base algebra M_2(k) is
    noncommutative, with Q = 2 1 and with Q not scalar (NON_SCALAR_Q), where
    the antipode is not involutive on the base."""
    corpus = tuple(w for w in oracle_corpus() if check_weak_bialgebra(w).ok())
    extra = tuple(tensor_presentations()) + \
        tuple(matrix_pair_weak_hopf(2, f, q) for f in (QQ, F3, F5)
              for q in (None, NON_SCALAR_Q[f.characteristic]))
    if not all(check_weak_bialgebra(w).ok() for w in extra):
        raise AssertionError("a tensor product or matrix pair is no weak bialgebra")
    return corpus + extra


# ---------------------------------------------------------------------------
# tests


class TestFinalgMatchesOracles:
    def test_reports_match_oracle(self):
        laws = set()
        for w in oracle_corpus():
            a, c = w.algebra, w.coalgebra
            report = check_algebra(a)
            assert report == oracle_check_algebra(a)
            coreport = check_coalgebra(c)
            assert coreport == oracle_check_coalgebra(c)
            laws.update(fl.law for fl in report.failures + coreport.failures)
        assert laws == {"left unit", "right unit", "associativity",
                        "left counit", "right counit", "coassociativity"}

    def test_mult_vec_matches_oracle(self):
        # denselin.mult_vec multiplies through finalg._product
        rng = random.Random(3)
        for w in oracle_corpus():
            a, f, n = w.algebra, w.field, w.dim
            rand = [tuple(f.coerce(rng.randint(-2, 2)) for _ in range(n)) for _ in range(3)]
            pairs = [(unit_vec(f, n, i), rand[0]) for i in range(n)] + \
                [(rand[0], rand[1]), (rand[1], rand[2]), (a.unit, rand[2])]
            for u, v in pairs:
                assert mult_vec(a, u, v) == oracle_mult_vec(a, u, v)


class TestWeakHopfMatchesOracles:
    def test_stored_columns_match_a_fresh_grouping(self):
        # Matrix.columns against the dense columns grouped afresh: every
        # antipode of the corpus and the four projections of its weak bialgebras
        maps = [w.antipode for w in oracle_corpus() if w.antipode is not None]
        for w in valid_corpus():
            maps += [getattr(projections(w), name) for name in ProjectionMaps._fields]
        for m in maps:
            assert m.columns() == tuple(map(tuple, sparse_cols(m)))
            assert m.columns() is m.columns()
        assert len(maps) > 1000

    def test_systems_match_oracle(self):
        cases = 0
        for w in valid_corpus():
            for side in SIDES:
                for variant in VARIANTS:
                    for normalized in (True, False):
                        for build, oracle in (
                                (integral_system, oracle_integral_system),
                                (cointegral_system, oracle_cointegral_system)):
                            got = build(w, side, variant, normalized)
                            want = oracle(w, side, variant, normalized)
                            # the same rows in any order, and the same solution
                            assert row_multiset(got) == row_multiset(want)
                            assert got.solve() == want.solve()
            cases += 1
        assert cases > 100

    def test_conversions_match_oracle(self):
        conversions = 0
        for w in valid_corpus():
            for side in SIDES:
                sol = solve_integral(w, side, "primed", True)
                if sol is not None:
                    assert convert_integral(w, sol.element, side) == \
                        oracle_convert_integral(w, sol.element, side)
                    conversions += 1
                csol = solve_cointegral(w, side, "primed", True)
                if csol is not None:
                    assert convert_cointegral(w, csol.functional, side) == \
                        oracle_convert_cointegral(w, csol.functional, side)
                    conversions += 1
        assert conversions > 400

    def test_cointegral_conversion_matches_the_product_form(self):
        # one covector per unit leg gives what one _product per basis element
        # and term of Delta(1) gave, on both sides
        converted = set()
        for w in valid_corpus():
            for side in SIDES:
                csol = solve_cointegral(w, side, "primed", True)
                if csol is not None:
                    assert convert_cointegral(w, csol.functional, side) == \
                        product_form_convert_cointegral(w, csol.functional, side)
                    converted.add((w, side))
        # H_Q, and dual group algebras in a characteristic prime to the order
        # of the group (the others have no normalized cointegral)
        wanted = [matrix_pair_weak_hopf(2, f, q) for f in (QQ, F3, F5)
                  for q in (None, NON_SCALAR_Q[f.characteristic])] + \
            [dual_group_algebra(g, f) for g, fields in ((cyclic_group(4), (QQ, F3, F5)),
                                                        (symmetric_group_s3(), (QQ, F5)))
             for f in fields]
        assert {(w, side) for w in wanted for side in SIDES} <= converted
        assert len(converted) > 200


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name; returns the list that collects them."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNoUnitVectorProducts:
    def test_check_algebra_makes_no_mult_vec_call(self, monkeypatch):
        # the dense product of two vectors is gone from the package, and the
        # check reads the product table: it makes no Matrix at all
        assert not hasattr(AlgebraPresentation, "mult_vec")
        a = group_algebra(symmetric_group_s3(), QQ).algebra
        calls = [counting(monkeypatch, Matrix, name) for name in ("__matmul__", "__post_init__")]
        assert check_algebra(a).ok()
        assert calls == [[], []]

    def test_primed_integral_system_makes_no_mult_matrix(self, monkeypatch):
        # the rows read the product table: building them makes no Matrix at all
        w = groupoid_algebra(pair_groupoid(3), QQ)
        projections(w)
        built = counting(monkeypatch, Matrix, "__post_init__")
        systems = [integral_system(w, side, "primed", True) for side in SIDES]
        assert built == []
        assert all(system.solve() is not None for system in systems)

    def test_duoidal_rows_make_no_mult_vec_call(self, monkeypatch):
        assert not hasattr(AlgebraPresentation, "mult_vec")
        w = groupoid_algebra(pair_groupoid(3), QQ)
        base_algebra(w)
        calls = [counting(monkeypatch, Matrix, name) for name in ("__matmul__", "__post_init__")]
        for side in SIDES:
            integral_system(w, side, "duoidal", True)
            cointegral_system(w, side, "duoidal", True)
        assert calls == [[], []]

    def test_conversions_build_no_basis_vector(self, monkeypatch):
        w = groupoid_algebra(pair_groupoid(3), QQ)
        base_algebra(w)
        primed = {side: (solve_integral(w, side, "primed", True),
                         solve_cointegral(w, side, "primed", True)) for side in SIDES}
        # no basis vector, dense product or composite of the projections: the
        # conversions read the product table and the projections' sparse columns
        assert not hasattr(AlgebraPresentation, "mult_vec")
        assert not any(hasattr(Matrix, name) for name in ("apply", "transpose"))
        calls = counting(monkeypatch, Matrix, "__matmul__")
        for side in SIDES:
            sol, csol = primed[side]
            convert_integral(w, sol.element, side)
            convert_cointegral(w, csol.functional, side)
        assert calls == []


def _outcome(fn, w):
    """fn(w), or the message of the StructureDefectError it raises."""
    try:
        return fn(w)
    except StructureDefectError as exc:
        return str(exc)


def _diagonal(f, n, ones, value=1):
    """The diagonal matrix with 1 at the indices in ones and value elsewhere."""
    return Matrix(f, n, n, tuple((f.one() if i in ones else f.coerce(value)) if i == j
                                 else f.zero() for i in range(n) for j in range(n)))


def damaged_projections(w):
    """(label, ProjectionMaps) with some of the four maps of w replaced: by
    the identity, zero, twice itself or another of the four; a pair with one
    image by zero,
    the identity or the projection onto the unit's support and one more basis
    element; and piR, piL_bar by mutually inverse non-multiplicative maps."""
    maps = projections(w)
    f, n = w.field, w.dim
    names = ProjectionMaps._fields
    current = {name: getattr(maps, name) for name in names}
    zero = Matrix(f, n, n, (f.zero(),) * (n * n))
    unit_support = {k for k, c in enumerate(w.algebra.unit) if c != 0}
    for name in names:
        twice = Matrix(f, n, n, tuple(f.add(x, x) for x in current[name].entries))
        for label, m in [("identity", identity(f, n)), ("zero", zero), ("twice", twice)] + \
                [(other, current[other]) for other in names if other != name]:
            yield f"{name}={label}", ProjectionMaps(**{**current, name: m})
    for pair in (("piR", "piR_bar"), ("piL", "piL_bar")):
        pieces = [("zero", zero), ("identity", identity(f, n))] + \
            [(f"unit+{g}", _diagonal(f, n, unit_support | {g}, 0)) for g in range(n)]
        for label, m in pieces:
            yield f"{pair}={label}", ProjectionMaps(**{**current, **dict.fromkeys(pair, m)})
    if f.characteristic != 2:
        for g in range(n):
            if g not in unit_support:
                half = f.inv(f.coerce(2))
                yield f"scaled {g}", ProjectionMaps(
                    _diagonal(f, n, set(range(n)) - {g}, half), identity(f, n),
                    identity(f, n), _diagonal(f, n, set(range(n)) - {g}, 2))


class TestBaseAlgebraMatchesOracle:
    def test_base_algebra_matches_oracle(self):
        for w in valid_corpus():
            assert _outcome(base_algebra, w) == _outcome(oracle_base_algebra, w)
        assert all(isinstance(base_algebra(w), BaseAlgebraInfo) for w in valid_corpus())

    def test_damaged_projections_give_the_oracles_first_message(self, monkeypatch):
        messages = set()
        for w in valid_corpus()[::3]:
            for label, maps in damaged_projections(w):
                monkeypatch.setattr(weakhopf, "projections", lambda _, maps=maps: maps)
                # a fresh presentation: nothing derived from the true maps is stored
                fresh = WeakHopfPresentation(w.algebra, w.coalgebra, w.antipode)
                got = _outcome(base_algebra, fresh)
                assert got == _outcome(oracle_base_algebra, fresh), (w, label)
                if isinstance(got, str):
                    messages.add(got)
                monkeypatch.undo()
        assert messages == {
            "images of piR and piR_bar differ", "images of piL and piL_bar differ",
            "unit escapes the base algebra", "base not closed under multiplication",
            "commutant fails to commute with the base",
            "piR . piL_bar is not the identity on the base",
            "piR_bar . piL is not the identity on the base",
            "piL_bar . piR is not the identity on the commutant",
            "piL_bar is not anti-multiplicative on the base"}


class TestResumedDuoidalSolve:
    def test_resumed_solutions_equal_solves_from_scratch(self):
        outcomes = set()
        for w in valid_corpus():
            for side in SIDES:
                for normalized in (True, False):
                    for solve, build in ((solve_integral, integral_system),
                                         (solve_cointegral, cointegral_system)):
                        got = solve(w, side, "duoidal", normalized)
                        want = build(w, side, "duoidal", normalized).solve()
                        # the particular solution and the kernel
                        assert (None if got is None else got.solutions) == want
                        outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_infeasible_primed_system_builds_no_duoidal_rows(self, monkeypatch):
        built = counting(monkeypatch, weakhopf, "_balanced_system")
        w = group_algebra(cyclic_group(2), F2)
        assert solve_integral(w, "left", "duoidal") is None
        assert len(built) == 1 and "_once_base_algebra" not in vars(w)
        assert integral_system(w, "left", "duoidal", True).solve() is None

    def test_inconsistent_extra_rows(self, monkeypatch):
        # extra rows t = 0 contradict the normalization of a feasible primed system
        monkeypatch.setattr(weakhopf, "_duoidal_products", lambda w, kind, left: (
            (0, ("zero", k), 0, k, w.field.one()) for k in range(w.dim)))
        w = groupoid_algebra(pair_groupoid(2), QQ)
        for solve, build in ((solve_integral, integral_system),
                             (solve_cointegral, cointegral_system)):
            for side in SIDES:
                assert solve(w, side, "primed") is not None
                assert solve(w, side, "duoidal") is None
                assert build(w, side, "duoidal", True).solve() is None


TAMPERED_PRIMED_ROW = """
from maschke_kit import weakhopf
from maschke_kit.examples import groupoid_algebra, pair_groupoid
from maschke_kit.exactlin import FieldSpec

assert False, "assert statements must be stripped in this run"
w = groupoid_algebra(pair_groupoid(2), FieldSpec.rationals())
for kind, solve in (("integral", weakhopf.solve_integral),
                    ("cointegral", weakhopf.solve_cointegral)):
    for side in ("left", "right"):
        solve(w, side, "primed")
        primed, _ = weakhopf._solved(w, kind, side, "primed", True)
        row, rhs = primed.rows[0]
        primed.rows[0] = (row, rhs + 1)
        try:
            solve(w, side, "duoidal")
            print("unverified result returned")
        except ArithmeticError:
            print("ArithmeticError")
"""


def test_tampered_primed_row_raises_under_optimization():
    # the resumed solve certifies against the stored primed rows as well
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    run = subprocess.run([sys.executable, "-O", "-c", TAMPERED_PRIMED_ROW],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ArithmeticError"] * 4


class TestWeakHopfDuality:
    """The dual of a weak Hopf algebra is an oracle that shares no code path
    with the cointegral solver: the cointegrals of w are the integrals of its
    dual, on the same side, in the same variant and with the same
    normalization, and the dual's projections are w's transposed, with the
    two barred ones swapped."""

    def test_cointegrals_are_integrals_of_the_dual(self):
        solved = converted = 0
        for w in valid_corpus():
            d = dual(w)
            p, q = projections(w), projections(d)
            assert (q.piL, q.piR, q.piL_bar, q.piR_bar) == \
                (transpose(p.piL), transpose(p.piR), transpose(p.piR_bar),
                 transpose(p.piL_bar))
            for side in ("left", "right"):
                for variant in ("primed", "duoidal"):
                    for normalized in (True, False):
                        tau = solve_cointegral(w, side, variant, normalized)
                        t = solve_integral(d, side, variant, normalized)
                        assert (tau is None) == (t is None)
                        assert tau is None or tau.solutions == t.solutions
                        solved += tau is not None
                tau = solve_cointegral(w, side, "primed", True)
                if tau is not None:
                    assert convert_cointegral(w, tau.functional, side) == \
                        convert_integral(d, tau.functional, side)
                    converted += 1
        assert len(valid_corpus()) == 148 and converted == 274
        assert 0 < solved < 148 * 8

    def test_a_mutant_and_its_dual_pass_the_same_checks(self):
        seen = set()
        for w in valid_corpus():
            for m in (w, *(mutate(w, seed) for seed in range(8))):
                try:
                    d = dual(m)
                except ValueError:   # the counit became zero: the dual has no unit
                    continue
                bialgebra, antipode = check_weak_bialgebra(m).ok(), None
                assert check_weak_bialgebra(d).ok() == bialgebra, m
                if bialgebra and m.antipode is not None:
                    antipode = check_antipode(m).ok()
                    assert check_antipode(d).ok() == antipode, m
                seen.add((bialgebra, antipode))
        assert seen == {(False, None), (True, True), (True, False)}
