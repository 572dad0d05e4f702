import pytest

from maschke_kit.exactlin import FieldSpec, Matrix, unit_vec
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
    InvalidPresentationError,
    solve_coseparability,
    solve_separability,
)
from maschke_kit.hopfcat import (
    HopfCategoryPresentation,
    check_hom_coseparability,
    check_hopf_category,
    integral_family_system,
    maschke_report,
    retraction_system,
    solve_integral_family,
    solve_retraction_family,
    solve_separability_family,
)
from maschke_kit.weakhopf import solve_cointegral, solve_integral

from denselin import counit_matrix, flip_matrix, kron, rebased

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def one_object_category(w) -> HopfCategoryPresentation:
    """Any Hopf-algebra presentation as a single-object Hopf category."""
    return HopfCategoryPresentation(
        objects=("x",),
        homs={(0, 0): w.coalgebra},
        comps={(0, 0, 0): w.algebra.mult_matrix()},
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
        return Matrix.identity(f, h.dim(x, y))

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
                rhs = kron(m, m) @ middle @ kron(cxy.comult_matrix(),
                                                 cyz.comult_matrix())
                if cxz.comult_matrix() @ m != rhs:
                    failures.append(AxiomFailure("composition comultiplicativity",
                                                 (x, y, z)))
                if counit_matrix(cxz) @ m != kron(counit_matrix(cxy),
                                                  counit_matrix(cyz)):
                    failures.append(AxiomFailure("composition counit law", (x, y, z)))
    for x in range(nobj):
        cxx, u = h.homs[(x, x)], unit(x)
        if cxx.comult_matrix() @ u != kron(u, u):
            failures.append(AxiomFailure("unit grouplike", (x,)))
        if counit_matrix(cxx) @ u != Matrix.identity(f, 1):
            failures.append(AxiomFailure("unit counit", (x,)))
    if h.antipode is not None:
        for x in range(nobj):
            for y in range(nobj):
                cxy = h.homs[(x, y)]
                s = h.antipode[(x, y)]
                delta = cxy.comult_matrix()
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

    def test_empty_category_vacuously_valid(self):
        empty = HopfCategoryPresentation((), {}, {}, {}, None)
        assert check_hopf_category(empty).ok()
        assert check_hom_coseparability(empty).all_coseparable


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
