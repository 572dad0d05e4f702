import pytest

from maschke_kit.exactlin import FieldSpec, unit_vec
from maschke_kit.examples import (
    connected_groupoid,
    cyclic_group,
    dual_group_algebra,
    group_algebra,
    hopf_category_from_groupoid,
    one_object_groupoid,
    pair_groupoid,
)
from maschke_kit.finalg import (
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

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)


def one_object_category(w) -> HopfCategoryPresentation:
    """Any Hopf-algebra presentation as a single-object Hopf category."""
    return HopfCategoryPresentation(
        objects=("x",),
        homs={(0, 0): w.coalgebra},
        comps={(0, 0, 0): w.algebra.mult_matrix()},
        units={0: tuple(w.algebra.unit)},
        antipode=None if w.antipode is None else {(0, 0): w.antipode},
    )


class TestCheck:
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
