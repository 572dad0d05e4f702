import random

import pytest

from maschke_kit import hopfcat
from maschke_kit.exactlin import ConstraintSystem, FieldSpec, Matrix, Tensor3, unit_vec
from maschke_kit.examples import (
    connected_groupoid,
    cyclic_group,
    dual_group_algebra,
    group_algebra,
    hopf_category_from_groupoid,
    one_object_groupoid,
    groupoid_by_name,
    pair_groupoid,
    symmetric_group_s3,
)
from maschke_kit.finalg import (
    AxiomFailure,
    AxiomReport,
    CoalgebraPresentation,
    InvalidPresentationError,
    check_coalgebra,
    solve_coseparability,
    solve_separability,
)
from maschke_kit.hopfcat import (
    HopfCategoryPresentation,
    _offsets,
    check_hom_coseparability,
    check_hopf_category,
    integral_family_system,
    maschke_report,
    retraction_system,
    separability_family_system,
    solve_integral_family,
    solve_retraction_family,
    solve_separability_family,
)
from maschke_kit.weakhopf import solve_cointegral, solve_integral

from denselin import (add_matrix_rows, add_row, apply, comult_matrix, counit_matrix,
                      flip_matrix, identity, kron, matrix_from_rows, mult_matrix, rebased,
                      row_multiset, solve_affine, transpose)
from oracles import category_unit_laws, composition_associativity, \
    composition_comultiplicativity

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def one_object_category(w) -> HopfCategoryPresentation:
    """Any Hopf-algebra presentation as a single-object Hopf category."""
    return HopfCategoryPresentation(
        objects=("x",),
        homs={(0, 0): w.coalgebra},
        comps={(0, 0, 0): mult_matrix(w.algebra)},
        units={0: tuple(w.algebra.unit)},
        antipode=None if w.antipode is None else {(0, 0): w.antipode},
    )


def kron_chain_category_report(h) -> AxiomReport:
    """check_hopf_category's report on valid homs, every law a dense
    Kronecker chain."""
    f = h.field
    nobj = h.n_objects
    failures = []

    def eye(x, y):
        return identity(f, h.dim(x, y))

    def unit(x):
        return Matrix(f, h.dim(x, x), 1, tuple(h.units[x]))

    for x in range(nobj):
        for y in range(nobj):
            for z in range(nobj):
                for w in range(nobj):
                    lhs = h.comps[(x, z, w)] @ kron(h.comps[(x, y, z)], eye(z, w))
                    rhs = h.comps[(x, y, w)] @ kron(eye(x, y), h.comps[(y, z, w)])
                    if lhs != rhs:
                        failures.append(AxiomFailure("composition associativity",
                                                     (x, y, z, w)))
    for x in range(nobj):
        for y in range(nobj):
            if h.comps[(x, x, y)] @ kron(unit(x), eye(x, y)) != eye(x, y):
                failures.append(AxiomFailure("left unit law", (x, y)))
            if h.comps[(x, y, y)] @ kron(eye(x, y), unit(y)) != eye(x, y):
                failures.append(AxiomFailure("right unit law", (x, y)))
    for x in range(nobj):
        for y in range(nobj):
            for z in range(nobj):
                cxy, cyz, cxz = h.homs[(x, y)], h.homs[(y, z)], h.homs[(x, z)]
                m = h.comps[(x, y, z)]
                middle = kron(eye(x, y),
                              kron(flip_matrix(f, cxy.dim, cyz.dim), eye(y, z)))
                rhs = kron(m, m) @ middle @ kron(comult_matrix(cxy),
                                                 comult_matrix(cyz))
                if comult_matrix(cxz) @ m != rhs:
                    failures.append(AxiomFailure("composition comultiplicativity",
                                                 (x, y, z)))
                if counit_matrix(cxz) @ m != kron(counit_matrix(cxy),
                                                  counit_matrix(cyz)):
                    failures.append(AxiomFailure("composition counit law", (x, y, z)))
    for x in range(nobj):
        cxx, u = h.homs[(x, x)], unit(x)
        if comult_matrix(cxx) @ u != kron(u, u):
            failures.append(AxiomFailure("unit grouplike", (x,)))
        if counit_matrix(cxx) @ u != identity(f, 1):
            failures.append(AxiomFailure("unit counit", (x,)))
    if h.antipode is not None:
        for x in range(nobj):
            for y in range(nobj):
                cxy = h.homs[(x, y)]
                s = h.antipode[(x, y)]
                delta = comult_matrix(cxy)
                left = h.comps[(x, y, x)] @ kron(eye(x, y), s) @ delta
                if left != unit(x) @ counit_matrix(cxy):
                    failures.append(AxiomFailure(
                        "antipode left composite (external-definition check)", (x, y)))
                right = h.comps[(y, x, y)] @ kron(s, eye(x, y)) @ delta
                if right != unit(y) @ counit_matrix(cxy):
                    failures.append(AxiomFailure(
                        "antipode right composite (external-definition check)", (x, y)))
    return AxiomReport(tuple(failures))


def with_entry(table, key, index, field):
    """A copy of a table of matrices with one entry of table[key] raised by 1."""
    m = table[key]
    entries = list(m.entries)
    entries[index] = field.add(entries[index], field.one())
    return {**table, key: Matrix(field, m.rows, m.cols, tuple(entries))}


def spread(n, count=2):
    """About count indices spread over range(n)."""
    return range(0, n, max(1, n // count))


def damaged(h, count=2):
    """h, and copies with one comps entry, one antipode entry or one unit
    damaged."""
    f = h.field
    yield h
    for key in sorted(h.comps)[::3]:
        for index in spread(len(h.comps[key].entries), count):
            yield HopfCategoryPresentation(h.objects, h.homs,
                                           with_entry(h.comps, key, index, f),
                                           h.units, h.antipode)
    for key in sorted(h.antipode)[::2]:
        for index in spread(len(h.antipode[key].entries), count):
            yield HopfCategoryPresentation(h.objects, h.homs, h.comps, h.units,
                                           with_entry(h.antipode, key, index, f))
    units = {**h.units, 0: tuple(f.add(c, c) for c in h.units[0])}
    yield HopfCategoryPresentation(h.objects, h.homs, h.comps, units, h.antipode)


def rebased_category(h, seed):
    """h in new coordinates v -> T v on each hom, T unitriangular with small
    integers drawn from seed: an isomorphic Hopf category whose structure
    constants are not 0 and 1 and differ from hom to hom."""
    f = h.field
    rng = random.Random(seed)
    t, t_inv = {}, {}
    for p in h.hom_pairs():
        d = h.dim(*p)
        t[p] = matrix_from_rows(f, [[1 if i == j else rng.randint(-2, 2) if i < j else 0
                                     for j in range(d)] for i in range(d)])
        t_inv[p] = transpose(matrix_from_rows(
            f, [solve_affine(t[p], unit_vec(f, d, j)).particular for j in range(d)]))
    homs = {}
    for p, c in h.homs.items():
        d = c.dim
        delta = kron(t[p], t[p]) @ comult_matrix(c) @ t_inv[p]
        homs[p] = CoalgebraPresentation(
            f, d, Tensor3(f, d, d, d, transpose(delta).entries),
            (counit_matrix(c) @ t_inv[p]).entries)
    comps = {(x, y, z): t[(x, z)] @ m @ kron(t_inv[(x, y)], t_inv[(y, z)])
             for (x, y, z), m in h.comps.items()}
    units = {x: apply(t[(x, x)], u) for x, u in h.units.items()}
    antipode = {(x, y): t[(y, x)] @ s @ t_inv[(x, y)] for (x, y), s in h.antipode.items()}
    return HopfCategoryPresentation(h.objects, homs, comps, units, antipode)


def shaped_category(field, dims, seed):
    """A presentation with hom dimensions dims[x][y] and random structure
    constants: no axiom holds, but every table has its shape, which is all
    that the system builders read."""
    rng = random.Random(seed)
    objs = range(len(dims))

    def scalars(count):
        return tuple(field.coerce(rng.choice((0, 0, 1, 2, -1))) for _ in range(count))

    homs = {(x, y): CoalgebraPresentation(
        field, dims[x][y], Tensor3(field, dims[x][y], dims[x][y], dims[x][y],
                                   scalars(dims[x][y] ** 3)), scalars(dims[x][y]))
        for x in objs for y in objs}
    comps = {(x, y, z): Matrix(field, dims[x][z], dims[x][y] * dims[y][z],
                               scalars(dims[x][z] * dims[x][y] * dims[y][z]))
             for x in objs for y in objs for z in objs}
    units = {x: scalars(dims[x][x]) for x in objs}
    return HopfCategoryPresentation(tuple(f"o{x}" for x in objs), homs, comps, units)


def oracle_categories():
    for field in (QQ, F2, F3, F5):
        for name in ("pair:1", "pair:2", "pair:3", "conn:C2:2"):
            yield from damaged(hopf_category_from_groupoid(groupoid_by_name(name), field))
        for w in (group_algebra(cyclic_group(3), field),
                  dual_group_algebra(cyclic_group(3), field)):
            yield one_object_category(w)
    yield from damaged(hopf_category_from_groupoid(groupoid_by_name("conn:C3:2"), F3))
    # neither commutative nor cocommutative, structure constants not 0 and 1
    w = rebased(dual_group_algebra(symmetric_group_s3(), F5), 1)
    yield from damaged(one_object_category(w), count=1)


class TestCheck:
    def test_matches_kron_chains(self):
        laws = set()
        for h in oracle_categories():
            report = check_hopf_category(h)
            assert report == kron_chain_category_report(h)
            laws |= {fail.law for fail in report.failures}
        assert {"composition associativity", "left unit law", "right unit law",
                "composition comultiplicativity", "composition counit law",
                "unit grouplike", "unit counit"} <= laws
        assert any(law.startswith("antipode left") for law in laws)
        assert any(law.startswith("antipode right") for law in laws)

    def test_groupoid_categories_pass_over_every_field(self):
        for field in (QQ, F2, F3):
            for gd in (pair_groupoid(2), pair_groupoid(3),
                       connected_groupoid(cyclic_group(2), 2)):
                assert check_hopf_category(
                    hopf_category_from_groupoid(gd, field)).ok()

    def test_one_object_reduction_passes(self):
        assert check_hopf_category(
            one_object_category(group_algebra(cyclic_group(2), QQ))).ok()

    def test_mutated_unit_fails_counit_compatibility(self):
        h = hopf_category_from_groupoid(pair_groupoid(2), QQ)
        units = dict(h.units)
        units[0] = tuple(QQ.mul(QQ.coerce(2), c) for c in units[0])
        bad = HopfCategoryPresentation(h.objects, h.homs, h.comps, units, h.antipode)
        report = check_hopf_category(bad)
        assert any(f.law == "unit counit" for f in report.failures)

    def test_validation_is_stored_and_failure_raises_every_call(self):
        h = hopf_category_from_groupoid(pair_groupoid(2), QQ)
        assert check_hopf_category(h) is check_hopf_category(h)
        units = dict(h.units)
        units[0] = tuple(QQ.mul(QQ.coerce(2), c) for c in units[0])
        bad = HopfCategoryPresentation(h.objects, h.homs, h.comps, units, h.antipode)
        for _ in range(2):
            with pytest.raises(InvalidPresentationError):
                solve_integral_family(bad, "left")

    def test_empty_category_is_refused_at_construction(self):
        # no hom could carry the field, and no solver handles zero objects
        with pytest.raises(ValueError, match="^a Hopf category needs at least one object$"):
            HopfCategoryPresentation((), {}, {}, {}, None)

    def test_side_is_checked_before_the_category(self):
        h = hopf_category_from_groupoid(pair_groupoid(2), QQ)
        units = dict(h.units)
        units[0] = tuple(QQ.mul(QQ.coerce(2), c) for c in units[0])
        bad = HopfCategoryPresentation(h.objects, h.homs, h.comps, units, h.antipode)
        for solve in (solve_integral_family, solve_retraction_family):
            assert solve(h, "left").side == "left"
            for category in (h, bad):
                with pytest.raises(ValueError, match="^side must be left or right$"):
                    solve(category, "up")


def raw_sum_categories():
    """The oracle categories, then damaged rebased copies whose structure
    constants are not 0 and 1."""
    yield from oracle_categories()
    for name, field in (("conn:C2:2", QQ), ("conn:C2:2", F3), ("pair:2", F5)):
        yield from damaged(rebased_category(
            hopf_category_from_groupoid(groupoid_by_name(name), field), 1), count=1)


def associativity_witnesses(h) -> list:
    return [fail.witness for fail in check_hopf_category(h).failures
            if fail.law == "composition associativity"]


class TestAssociativityRawSums:
    """check_hopf_category compares (pq)r with p(qr) as raw sums over the
    composition columns and reduces only when they differ; the loop that
    composed both sides through the field operations is the oracle."""

    def test_matches_field_operation_loop(self):
        failing = 0
        for h in raw_sum_categories():
            got = associativity_witnesses(h)
            assert got == composition_associativity(h)
            failing += bool(got)
        assert failing >= 50

    def test_raw_sums_that_agree_mod_p_pass(self):
        for p in (3, 5):
            f = FieldSpec.gf(p)
            calls = [0]

            def counted(x, plain=f.reduce):
                calls[0] += 1
                return plain(x)

            object.__setattr__(f, "reduce", counted)
            h = rebased_category(
                hopf_category_from_groupoid(groupoid_by_name("conn:C2:2"), f), 1)
            assert h.field is f
            for c in h.homs.values():
                assert check_coalgebra(c).ok()
            # the hom checks are stored, so only associativity reduces now
            calls[0] = 0
            assert check_hopf_category(h).ok()
            assert calls[0] > 0


class TestComultiplicativityRawSums:
    """check_hopf_category compares Delta(pq) with p1 q1 (x) p2 q2 as raw sums
    (finalg._comult_products) and reduces only when they differ; the loop
    that summed the right side through the field operations is the oracle."""

    def test_matches_field_operation_loop(self):
        failing = 0
        for h in raw_sum_categories():
            got = [fail.witness for fail in check_hopf_category(h).failures
                   if fail.law == "composition comultiplicativity"]
            assert got == composition_comultiplicativity(h)
            failing += bool(got)
        assert failing >= 50


class TestUnitLawRawSums:
    """check_hopf_category compares u_x p with p and p u_y with p as raw sums
    (finalg._unit_failures) and reduces only when they differ; the loop with
    one finalg._product per basis element is the oracle."""

    def test_matches_field_operation_loop(self):
        failing = 0
        for h in raw_sum_categories():
            got = [fail for fail in check_hopf_category(h).failures
                   if fail.law in ("left unit law", "right unit law")]
            assert got == category_unit_laws(h)
            failing += bool(got)
        assert failing >= 80


class TestSparseReads:
    def test_integral_and_retraction_rows_match_entry_scans(self):
        shaped = [shaped_category(field, ((1, 2, 3), (3, 1, 2), (2, 4, 2)), seed)
                  for field in (QQ, F3) for seed in range(3)]
        for h in [*oracle_categories(), *shaped]:
            for side in ("left", "right"):
                # the same rows in any order, and the same solution
                pairs = [(integral_family_system(h, side),
                          oracle_integral_family_system(h, side))]
                pairs += [(retraction_system(h, x, side), oracle_retraction_system(h, x, side))
                          for x in range(h.n_objects)]
                for got, want in pairs:
                    assert row_multiset(got) == row_multiset(want)
                    assert got.solve() == want.solve()


class TestRetractionFamilies:
    def test_groupoid_dual_identity_vector(self):
        gd = pair_groupoid(2)
        for field in (QQ, F2, F3):
            h = hopf_category_from_groupoid(gd, field)
            fam = solve_retraction_family(h, "left")
            assert fam is not None
            for x in range(2):
                # dual vector of the identity morphism satisfies the system
                d = h.dim(x, x)
                idx = list(gd.hom(x, x)).index(gd.identity[x])
                assert retraction_system(h, x, "left").satisfied_by(
                    unit_vec(field, d, idx))

    def test_one_dim_hom(self):
        h = hopf_category_from_groupoid(pair_groupoid(1), QQ)
        fam = solve_retraction_family(h, "right")
        assert fam.table[0] == (1,)

    def test_matches_hom_coseparability(self):
        for field in (QQ, F2, F3):
            for w in (group_algebra(cyclic_group(2), field),
                      dual_group_algebra(cyclic_group(2), field),
                      dual_group_algebra(cyclic_group(3), field)):
                h = one_object_category(w)
                left = solve_retraction_family(h, "left") is not None
                right = solve_retraction_family(h, "right") is not None
                cosep = check_hom_coseparability(h).all_coseparable
                assert left == right == cosep


class TestIntegralFamilies:
    def test_pair_groupoid_unique_morphisms(self):
        for field in (QQ, F2, F3):
            h = hopf_category_from_groupoid(pair_groupoid(2), field)
            fam = solve_integral_family(h, "left")
            assert fam is not None
            assert all(v == (field.one(),) for v in fam.table.values())

    def test_one_object_group_reduction(self):
        h3 = one_object_category(group_algebra(cyclic_group(3), F3))
        assert solve_integral_family(h3, "left") is None
        hq = one_object_category(group_algebra(cyclic_group(3), QQ))
        fam = solve_integral_family(hq, "left")
        from fractions import Fraction
        assert fam.table[(0, 0)] == (Fraction(1, 3),) * 3

    def test_one_dim(self):
        h = one_object_category(group_algebra(cyclic_group(1), QQ))
        fam = solve_integral_family(h, "left")
        assert fam.table[(0, 0)] == (1,)


class TestSeparabilityFamilies:
    def test_matches_splitting_map_system(self):
        feasible = infeasible = 0
        for h in separability_oracle_categories():
            old = oracle_separability_family_system(h)
            want = old.solve()
            got = separability_family_system(h).solve()
            assert (got is None) == (want is None)
            fam = solve_separability_family(h)
            assert (fam is None) == (want is None)
            if want is None:
                infeasible += 1
                continue
            feasible += 1
            assert got.homogeneous.dim == want.homogeneous.dim
            # the table in the old layout: triples in order, each matrix row-major
            flat = tuple(v for key in sorted(fam.table) for v in fam.table[key].entries)
            assert old.satisfied_by(flat)
            assert flat == want.particular
        assert feasible and infeasible

    def test_element_that_does_not_commute_raises(self, monkeypatch):
        # the rows mu(e) = u alone: their particular solution 1 (x) 1 in
        # kC2 (x) kC2 multiplies to the unit but is no separability element
        def unit_rows_only(h):
            sys = ConstraintSystem(h.field, h.dim(0, 0) ** 2)
            add_matrix_rows(sys, h.comps[(0, 0, 0)], h.units[0])
            return sys

        monkeypatch.setattr(hopfcat, "separability_family_system", unit_rows_only)
        with pytest.raises(ArithmeticError, match="commute"):
            solve_separability_family(
                one_object_category(group_algebra(cyclic_group(2), QQ)))

    def test_unknowns_are_the_elements(self):
        h = hopf_category_from_groupoid(groupoid_by_name("conn:C4:3"), F5)
        assert separability_family_system(h).nvars == sum(
            h.dim(x, v) * h.dim(v, x) for x, v in h.hom_pairs()) == 144

    def test_hom_of_dimension_17(self):
        # a(0,0) (x) a(0,0) by a(0,0) has 17^3 entries, above MAX_AXIS:
        # each table is built per triple, 289 x 17
        h = hopf_category_from_groupoid(groupoid_by_name("one:C17"), F5)
        fam = solve_separability_family(h)
        assert fam is not None
        assert (fam.table[(0, 0, 0)].rows, fam.table[(0, 0, 0)].cols) == (289, 17)
        # kC17 over F5 is commutative and separable: its separability element
        # is unique, so the family is the algebra's section
        a = group_algebra(cyclic_group(17), F5)
        fam = solve_separability_family(one_object_category(a))
        assert fam.table[(0, 0, 0)] == solve_separability(a.algebra).map

    def test_pair_groupoid_feasible(self):
        for field in (QQ, F2, F3):
            h = hopf_category_from_groupoid(pair_groupoid(2), field)
            fam = solve_separability_family(h)
            assert fam is not None
            # singleton homs force every splitting map to be the unit scalar
            assert all(m.entries == (field.one(),) for m in fam.table.values())

    def test_one_object_f3c3_infeasible(self):
        h = one_object_category(group_algebra(cyclic_group(3), F3))
        assert solve_separability_family(h) is None

    def test_one_object_one_dim_feasible(self):
        h = one_object_category(group_algebra(cyclic_group(1), QQ))
        assert solve_separability_family(h) is not None


def oracle_retraction_system(h: HopfCategoryPresentation, x: int,
                             side: str) -> ConstraintSystem:
    """retraction_system with every comultiplication entry read by at()."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    c = h.homs[(x, x)]
    u = h.units[x]
    d = c.dim
    sys = ConstraintSystem(f, d)
    for i in range(d):
        for m in range(d):
            coeffs = {}
            for b in range(d):
                t = c.comult.at(i, m, b) if side == "left" else c.comult.at(i, b, m)
                if t != 0:
                    coeffs[b] = f.add(coeffs.get(b, f.zero()), t)
            if u[m] != 0:
                coeffs[i] = f.sub(coeffs.get(i, f.zero()), u[m])
            add_row(sys, coeffs, f.zero())
    add_row(sys, {m: u[m] for m in range(d) if u[m] != 0}, f.one())
    return sys


def oracle_integral_family_system(h: HopfCategoryPresentation,
                                  side: str) -> ConstraintSystem:
    """integral_family_system with every composition entry read by at()."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    pairs = h.hom_pairs()
    offsets, total = _offsets(pairs, lambda p: h.dim(*p))
    sys = ConstraintSystem(f, total)
    nobj = h.n_objects
    for x in range(nobj):
        for y in range(nobj):
            for z in range(nobj):
                m = h.comps[(x, y, z)]
                dxy, dyz, dxz = h.dim(x, y), h.dim(y, z), h.dim(x, z)
                if side == "left":
                    # mu(h (x) theta_{y,z}) = eps(h) theta_{x,z}, h in a(x,y)
                    eps = h.homs[(x, y)].counit
                    for i in range(dxy):
                        for out in range(dxz):
                            coeffs = {}
                            for c in range(dyz):
                                t = m.at(out, i * dyz + c)
                                if t != 0:
                                    key = offsets[(y, z)] + c
                                    coeffs[key] = f.add(coeffs.get(key, f.zero()), t)
                            if eps[i] != 0:
                                key = offsets[(x, z)] + out
                                coeffs[key] = f.sub(coeffs.get(key, f.zero()), eps[i])
                            add_row(sys, coeffs, f.zero())
                else:
                    # mu(theta_{x,y} (x) h) = eps(h) theta_{x,z}, h in a(y,z)
                    eps = h.homs[(y, z)].counit
                    for j in range(dyz):
                        for out in range(dxz):
                            coeffs = {}
                            for c in range(dxy):
                                t = m.at(out, c * dyz + j)
                                if t != 0:
                                    key = offsets[(x, y)] + c
                                    coeffs[key] = f.add(coeffs.get(key, f.zero()), t)
                            if eps[j] != 0:
                                key = offsets[(x, z)] + out
                                coeffs[key] = f.sub(coeffs.get(key, f.zero()), eps[j])
                            add_row(sys, coeffs, f.zero())
    for (x, y) in pairs:
        eps = h.homs[(x, y)].counit
        add_row(sys, {offsets[(x, y)] + m_: eps[m_] for m_ in range(h.dim(x, y))
                      if eps[m_] != 0}, f.one())
    return sys


def oracle_separability_family_system(h: HopfCategoryPresentation) -> ConstraintSystem:
    """One coupled feasibility over all splitting maps d_{x,v,y}: the system
    that separability_family_system's element system replaces.

    Variable layout per triple (x, v, y): matrix a(x,y) -> a(x,v) (x) a(v,y),
    entry ((p, q), j) at offset + (p*dim(v,y) + q)*dim(x,y) + j.
    """
    f = h.field
    nobj = h.n_objects
    triples = [(x, v, y) for x in range(nobj) for v in range(nobj)
               for y in range(nobj)]
    offsets, total = _offsets(
        triples, lambda t: h.dim(t[0], t[1]) * h.dim(t[1], t[2]) * h.dim(t[0], t[2]))
    sys = ConstraintSystem(f, total)

    def var(x, v, y, p, q, j):
        return offsets[(x, v, y)] + (p * h.dim(v, y) + q) * h.dim(x, y) + j

    # retraction triangles: mu_{x,v,y} . d_{x,v,y} = id
    for (x, v, y) in triples:
        m = h.comps[(x, v, y)]
        dxv, dvy, dxy = h.dim(x, v), h.dim(v, y), h.dim(x, y)
        for j in range(dxy):
            for out in range(dxy):
                coeffs = {}
                for p in range(dxv):
                    for q in range(dvy):
                        t = m.at(out, p * dvy + q)
                        if t != 0:
                            key = var(x, v, y, p, q, j)
                            coeffs[key] = f.add(coeffs.get(key, f.zero()), t)
                add_row(sys, coeffs, f.one() if out == j else f.zero())
    # the two square families over object quadruples
    for x in range(nobj):
        for y in range(nobj):
            for v in range(nobj):
                for z in range(nobj):
                    dxy, dyz = h.dim(x, y), h.dim(y, z)
                    dxv, dvz = h.dim(x, v), h.dim(v, z)
                    dvy, dyv = h.dim(v, y), h.dim(y, v)
                    m_xyz = h.comps[(x, y, z)]
                    m_vyz = h.comps[(v, y, z)]
                    m_xyv = h.comps[(x, y, v)]
                    for i in range(dxy):
                        for j in range(dyz):
                            diag = {}
                            for mm in range(h.dim(x, z)):
                                t = m_xyz.at(mm, i * dyz + j)
                                if t != 0:
                                    diag[mm] = t
                            for p in range(dxv):
                                for w in range(dvz):
                                    # (1 (x) mu_{v,y,z})(d_{x,v,y} (x) 1) = d_{x,v,z} mu
                                    coeffs = {}
                                    for q in range(dvy):
                                        t = m_vyz.at(w, q * dyz + j)
                                        if t != 0:
                                            key = var(x, v, y, p, q, i)
                                            coeffs[key] = f.add(
                                                coeffs.get(key, f.zero()), t)
                                    for mm, t in diag.items():
                                        key = var(x, v, z, p, w, mm)
                                        coeffs[key] = f.sub(
                                            coeffs.get(key, f.zero()), t)
                                    add_row(sys, coeffs, f.zero())
                                    # (mu_{x,y,v} (x) 1)(1 (x) d_{y,v,z}) = d_{x,v,z} mu
                                    coeffs = {}
                                    for q in range(dyv):
                                        t = m_xyv.at(p, i * dyv + q)
                                        if t != 0:
                                            key = var(y, v, z, q, w, j)
                                            coeffs[key] = f.add(
                                                coeffs.get(key, f.zero()), t)
                                    for mm, t in diag.items():
                                        key = var(x, v, z, p, w, mm)
                                        coeffs[key] = f.sub(
                                            coeffs.get(key, f.zero()), t)
                                    add_row(sys, coeffs, f.zero())
    return sys


def separability_oracle_categories():
    for field in (QQ, F2, F3, F5):
        for name in ("pair:2", "conn:C2:2", "conn:C3:2", "conn:C2:3", "one:S3"):
            yield hopf_category_from_groupoid(groupoid_by_name(name), field)
    yield hopf_category_from_groupoid(groupoid_by_name("conn:C4:3"), F5)
    # structure constants that differ from hom to hom (kernel 0 here; on a
    # rebased one:S3, kernel 3, the two systems pick different witnesses)
    for name, field in (("conn:C2:2", QQ), ("conn:C2:2", F2), ("conn:C3:2", F5)):
        h = rebased_category(hopf_category_from_groupoid(groupoid_by_name(name), field), 1)
        assert check_hopf_category(h).ok()
        yield h


def category_corpus():
    for field in (QQ, F2, F3):
        yield hopf_category_from_groupoid(pair_groupoid(2), field)
        yield hopf_category_from_groupoid(connected_groupoid(cyclic_group(2), 2), field)
        yield one_object_category(group_algebra(cyclic_group(2), field))
        yield one_object_category(group_algebra(cyclic_group(3), field))
        yield one_object_category(dual_group_algebra(cyclic_group(3), field))


class TestEquivalences:
    def test_integral_family_equivalence(self):
        for h in category_corpus():
            left = solve_integral_family(h, "left") is not None
            right = solve_integral_family(h, "right") is not None
            sep = solve_separability_family(h) is not None
            assert left == right == sep

    def test_retraction_equivalence(self):
        for h in category_corpus():
            left = solve_retraction_family(h, "left") is not None
            right = solve_retraction_family(h, "right") is not None
            cosep = check_hom_coseparability(h).all_coseparable
            assert left == right == cosep


class TestOneObjectAgreement:
    def test_verdicts_match_weak_hopf_solvers(self):
        for field in (QQ, F2, F3):
            for w in (group_algebra(cyclic_group(2), field),
                      group_algebra(cyclic_group(3), field),
                      dual_group_algebra(cyclic_group(3), field)):
                h = one_object_category(w)
                assert (solve_integral_family(h, "left") is not None) == \
                    (solve_integral(w, "left", "primed") is not None)
                assert (solve_retraction_family(h, "left") is not None) == \
                    (solve_cointegral(w, "left", "primed") is not None)
                assert (solve_separability_family(h) is not None) == \
                    (solve_separability(w.algebra) is not None)
                assert check_hom_coseparability(h).all_coseparable == \
                    (solve_coseparability(w.coalgebra) is not None)


class TestMaschkeReport:
    def test_verdicts_over_corpus(self):
        for h in category_corpus():
            rep = maschke_report(h)
            assert rep.verdict
            assert rep.integral_flags["left"] == (rep.separability is not None)
            assert rep.cointegral_flags["left"] == \
                check_hom_coseparability(h).all_coseparable

    def test_requires_antipode(self):
        h = hopf_category_from_groupoid(pair_groupoid(2), QQ)
        bare = HopfCategoryPresentation(h.objects, h.homs, h.comps, h.units, None)
        with pytest.raises(ValueError, match="antipode"):
            maschke_report(bare)
