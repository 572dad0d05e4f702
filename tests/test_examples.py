import pytest

from maschke_kit.exactlin import FieldSpec
from maschke_kit.examples import (
    MAX_GENERATED_ORDER,
    GroupPresentation,
    connected_groupoid,
    cyclic_group,
    dihedral_group,
    disjoint_union,
    dual_group_algebra,
    group_algebra,
    group_by_name,
    groupoid_algebra,
    groupoid_by_name,
    hopf_category_from_groupoid,
    klein_four_group,
    mutate,
    one_object_groupoid,
    pair_groupoid,
    pair_hopf_algebroid,
    split_pair_algebra,
    symmetric_group_s3,
)
from maschke_kit.finalg import solve_separability
from maschke_kit.hopfalgd import check_hopf_algebroid
from maschke_kit.hopfcat import check_hopf_category
from maschke_kit.weakhopf import check_antipode, check_weak_bialgebra, maschke_report

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)
FIELDS = (QQ, F2, F3, F5)


class TestGroups:
    def test_tables_verified(self):
        for g in (cyclic_group(1), cyclic_group(6), klein_four_group(),
                  symmetric_group_s3(), dihedral_group(4)):
            assert g.table[g.identity][0] == 0

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            GroupPresentation.from_table([[0, 1], [1, 1]])

    def test_names(self):
        assert group_by_name("C4").order == 4
        assert group_by_name("S3").order == 6
        assert group_by_name("K4").order == 4
        assert group_by_name("D4").order == 8
        with pytest.raises(ValueError):
            group_by_name("E8")


class TestGroupoids:
    def test_pair_groupoid_shape(self):
        gd = pair_groupoid(3)
        assert gd.n_morphisms == 9
        assert len(gd.hom(0, 1)) == 1

    def test_connected_groupoid_shape(self):
        gd = connected_groupoid(cyclic_group(2), 2)
        assert gd.n_morphisms == 8
        assert len(gd.hom(0, 1)) == 2

    def test_disjoint_union(self):
        gd = disjoint_union(one_object_groupoid(cyclic_group(2)),
                            one_object_groupoid(cyclic_group(2)))
        assert gd.n_morphisms == 4 and len(gd.objects) == 2
        assert gd.hom(0, 1) == ()

    def test_names(self):
        assert groupoid_by_name("pair:2").n_morphisms == 4
        assert groupoid_by_name("one:C3").n_morphisms == 3
        assert groupoid_by_name("sum:C2,C2").n_morphisms == 4
        assert groupoid_by_name("conn:C2:2").n_morphisms == 8

    def test_order_cap(self):
        cap = MAX_GENERATED_ORDER
        assert group_by_name(f"C{cap}").order == cap
        assert groupoid_by_name("pair:8").n_morphisms == cap
        for name in (f"C{cap + 1}", f"D{cap // 2 + 1}"):
            with pytest.raises(ValueError, match="above the limit"):
                group_by_name(name)
        for name in ("pair:9", "conn:C2:6", f"sum:C{cap},C1", f"one:C{cap + 1}"):
            with pytest.raises(ValueError, match="above the limit"):
                groupoid_by_name(name)


class TestGeneratorsAreValid:
    def test_group_algebras_pass_all_validators(self):
        for field in FIELDS:
            for g in (cyclic_group(3), klein_four_group(), symmetric_group_s3()):
                w = group_algebra(g, field)
                assert check_weak_bialgebra(w).ok()
                assert check_antipode(w).ok()

    def test_dual_group_algebras_pass(self):
        for field in FIELDS:
            for g in (cyclic_group(4), symmetric_group_s3()):
                w = dual_group_algebra(g, field)
                assert check_weak_bialgebra(w).ok()
                assert check_antipode(w).ok()

    def test_groupoid_algebras_pass(self):
        for field in (QQ, F2, F3):
            for gd in (pair_groupoid(2), disjoint_union(
                    one_object_groupoid(cyclic_group(2)),
                    one_object_groupoid(cyclic_group(2))),
                    connected_groupoid(cyclic_group(2), 2)):
                w = groupoid_algebra(gd, field)
                assert check_weak_bialgebra(w).ok()
                assert check_antipode(w).ok()

    def test_hopf_categories_pass(self):
        for field in (QQ, F2):
            assert check_hopf_category(
                hopf_category_from_groupoid(pair_groupoid(2), field)).ok()
            assert check_hopf_category(
                hopf_category_from_groupoid(one_object_groupoid(cyclic_group(2)),
                                            field)).ok()

    def test_hopf_category_rejects_empty_homs(self):
        gd = disjoint_union(one_object_groupoid(cyclic_group(2)),
                            one_object_groupoid(cyclic_group(2)))
        with pytest.raises(ValueError, match="empty hom"):
            hopf_category_from_groupoid(gd, QQ)

    def test_pair_algebroids_pass(self):
        from maschke_kit.examples import dual_number_algebra, ground_field_algebra
        for field in (QQ, F2):
            for mk in (ground_field_algebra, dual_number_algebra, split_pair_algebra):
                assert check_hopf_algebroid(pair_hopf_algebroid(mk(field))).ok()


class TestAgreementAndDeterminism:
    def test_one_object_groupoid_matches_group_algebra(self):
        g = cyclic_group(4)
        w1 = group_algebra(g, F3)
        w2 = groupoid_algebra(one_object_groupoid(g), F3)
        assert w1.algebra.mult == w2.algebra.mult
        assert w1.algebra.unit == w2.algebra.unit
        assert w1.coalgebra.comult == w2.coalgebra.comult
        assert w1.coalgebra.counit == w2.coalgebra.counit
        assert w1.antipode == w2.antipode

    def test_generators_deterministic(self):
        a = group_algebra(symmetric_group_s3(), QQ)
        b = group_algebra(symmetric_group_s3(), QQ)
        assert a == b
        assert pair_hopf_algebroid(split_pair_algebra(F2)) == \
            pair_hopf_algebroid(split_pair_algebra(F2))


class TestMaschkeBaseline:
    def test_group_algebra_separability_iff_char_does_not_divide_order(self):
        groups = [cyclic_group(n) for n in range(1, 9)]
        groups += [klein_four_group(), symmetric_group_s3(), dihedral_group(4)]
        for field in FIELDS:
            p = field.characteristic
            for g in groups:
                feasible = solve_separability(group_algebra(g, field).algebra) is not None
                expected = (p == 0) or (g.order % p != 0)
                assert feasible == expected, (field, g.order)


class TestMutation:
    def test_single_entry_changed(self):
        w = group_algebra(cyclic_group(2), QQ)
        m = mutate(w, 0)
        diff = 0
        diff += sum(a != b for a, b in zip(w.algebra.mult.entries,
                                           m.algebra.mult.entries))
        diff += sum(a != b for a, b in zip(w.algebra.unit, m.algebra.unit))
        diff += sum(a != b for a, b in zip(w.coalgebra.comult.entries,
                                           m.coalgebra.comult.entries))
        diff += sum(a != b for a, b in zip(w.coalgebra.counit, m.coalgebra.counit))
        diff += sum(a != b for a, b in zip(w.antipode.entries, m.antipode.entries))
        assert diff == 1

    def test_deterministic(self):
        w = group_algebra(cyclic_group(2), QQ)
        assert mutate(w, 7) == mutate(w, 7)

    def test_no_silent_inconsistency_on_seed_sweep(self):
        # every mutant is either rejected by a validator or still passes the
        # equivalence suite; never a failed equivalence on unvalidated data
        for base in (group_algebra(cyclic_group(2), QQ),
                     groupoid_algebra(pair_groupoid(2), QQ)):
            for seed in range(30):
                m = mutate(base, seed)
                rep = check_weak_bialgebra(m)
                if not rep.ok():
                    assert rep.failures
                    continue
                anti = check_antipode(m)
                if not anti.ok():
                    assert anti.failures
                    continue
                assert maschke_report(m).verdict
