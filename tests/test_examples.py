import ast
import inspect
import re

import pytest

import oracles
from maschke_kit import examples
from maschke_kit.exactlin import FieldSpec
from maschke_kit.examples import (
    MAX_GENERATED_ORDER,
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
from maschke_kit.structfile import serialize_structure
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


def _changed(record, **changes):
    """record rebuilt with some fields replaced, through its own checks."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


C3 = cyclic_group(3)
PAIR2 = pair_groupoid(2)   # f0: x0 -> x0, f1: x0 -> x1, f2: x1 -> x0, f3: x1 -> x1
ONE_C3 = one_object_groupoid(C3)


def _recomposed(gd, changes):
    """gd.compose with the composites of changes set, or unset where None."""
    compose = {**gd.compose, **changes}
    return {pair: fh for pair, fh in compose.items() if fh is not None}


# every refusal of the group and groupoid records, with the call that reaches it
LAW_REFUSALS = [
    pytest.param(lambda: _changed(C3, table=C3.table[:2]),
                 "table must be order x order", id="group-shape"),
    pytest.param(lambda: _changed(C3, labels=("e",)),
                 "label count mismatch", id="group-labels"),
    pytest.param(lambda: _changed(C3, inverse=(0, 2)),
                 "morphism table lengths differ", id="group-lengths"),
    pytest.param(lambda: _changed(C3, identity=3),
                 "morphism index out of range", id="group-index"),
    pytest.param(lambda: _changed(C3, identity=1),
                 "identity law fails at 0", id="group-identity-law"),
    pytest.param(lambda: _changed(C3, inverse=(0, 1, 2)),
                 "inverse law fails at 1", id="group-inverse-law"),
    pytest.param(lambda: _changed(C3, table=((0, 1, 2), (1, 1, 0), (2, 0, 1))),
                 "associativity fails at (1, 1, 2)", id="group-associativity"),
    pytest.param(lambda: connected_groupoid(C3, 0),
                 "a groupoid needs at least one object", id="no-object"),
    pytest.param(lambda: _changed(PAIR2, labels=PAIR2.labels[:3]),
                 "label count mismatch", id="groupoid-labels"),
    pytest.param(lambda: _changed(PAIR2, objects=("x0", "x1", "x2")),
                 "2 identities for 3 objects", id="identity-count"),
    pytest.param(lambda: _changed(PAIR2, source=(0, 0, 1, 2)),
                 "object index out of range", id="object-index"),
    pytest.param(lambda: _changed(PAIR2, compose=_recomposed(PAIR2, {(4, 0): 0})),
                 "morphism index out of range", id="compose-key"),
    pytest.param(lambda: _changed(PAIR2, compose=_recomposed(PAIR2, {(0, 2): None})),
                 "composition partiality wrong at (0, 2)", id="partiality"),
    pytest.param(lambda: _changed(PAIR2, compose=_recomposed(PAIR2, {(0, 2): 3})),
                 "composite (0, 2) has wrong endpoints", id="composite-endpoints"),
    pytest.param(lambda: _changed(PAIR2, identity=(0, 1)),
                 "identity of object 1 has wrong endpoints", id="identity-endpoints"),
    pytest.param(lambda: _changed(ONE_C3, compose=_recomposed(ONE_C3, {(0, 0): 1})),
                 "identity law fails at 0", id="groupoid-identity-law"),
    pytest.param(lambda: _changed(ONE_C3, inverse=(0, 1, 2)),
                 "inverse law fails at 1", id="groupoid-inverse-law"),
    pytest.param(lambda: _changed(ONE_C3, compose=_recomposed(ONE_C3, {(1, 1): 1})),
                 "associativity fails at (1, 1, 2)", id="groupoid-associativity"),
]


class TestOneLawCheck:
    """A group is checked as the groupoid of one object, by one function."""

    @pytest.mark.parametrize("build, message", LAW_REFUSALS)
    def test_refusal(self, build, message):
        with pytest.raises(ValueError) as caught:
            build()
        assert str(caught.value) == message

    def test_every_refusal_is_reached(self):
        # each ValueError message of the group and groupoid records and of
        # the law check, read from the source, matches one case above
        tree = ast.parse(inspect.getsource(examples))
        scopes = [node for node in tree.body
                  if getattr(node, "name", None) in (
                      "_check_groupoid", "GroupPresentation", "GroupoidPresentation")]
        patterns = set()
        for node in (n for scope in scopes for n in ast.walk(scope)):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                [arg] = node.exc.args
                parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
                patterns.add("".join(re.escape(p.value) if isinstance(p, ast.Constant)
                                     else ".+" for p in parts))
        assert len(scopes) == 3 and len(patterns) == 13
        messages = [case.values[1] for case in LAW_REFUSALS]
        assert all(any(re.fullmatch(p, m) for m in messages) for p in patterns), patterns


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


GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3", "D4")
GROUPOIDS = ("pair:1", "pair:2", "pair:3", "one:S3", "sum:C2,C3", "conn:C2:2",
             "conn:S3:2")


def oracle_groupoid(name):
    """The groupoid of a name, built by the oracle constructors."""
    kind, _, rest = name.partition(":")
    if kind == "pair":
        return oracles.pair_groupoid(int(rest))
    if kind == "one":
        return oracles.one_object_groupoid(group_by_name(rest))
    if kind == "sum":
        left, right = (group_by_name(g) for g in rest.split(","))
        return disjoint_union(oracles.one_object_groupoid(left),
                              oracles.one_object_groupoid(right))
    gname, n = rest.split(":")
    return oracles.connected_groupoid(group_by_name(gname), int(n))


def oracle_outcome(build, *args) -> str:
    """The serialized structure that build makes, or its ValueError's text."""
    try:
        return serialize_structure(build(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestAgainstTheHandWrittenBuilders:
    """Every family and mutant serializes to the bytes that the hand-written
    builders of tests/oracles.py give."""

    def test_groupoids_equal(self):
        for name in GROUPOIDS:
            gd, old = groupoid_by_name(name), oracle_groupoid(name)
            assert gd == old, name
            assert serialize_structure(gd) == serialize_structure(old), name
        assert pair_groupoid(4) == oracles.pair_groupoid(4)
        for g, n in ((cyclic_group(1), 1), (klein_four_group(), 3), (dihedral_group(3), 2)):
            assert connected_groupoid(g, n) == oracles.connected_groupoid(g, n)
        assert one_object_groupoid(dihedral_group(3)) == \
            oracles.one_object_groupoid(dihedral_group(3))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_every_family_serializes_the_same(self, field):
        for name in GROUPS:
            g = group_by_name(name)
            for new, old in ((group_algebra, oracles.group_algebra),
                             (dual_group_algebra, oracles.dual_group_algebra)):
                assert serialize_structure(new(g, field)) == \
                    serialize_structure(old(g, field)), (new.__name__, name)
        for name in GROUPOIDS:
            gd, old_gd = groupoid_by_name(name), oracle_groupoid(name)
            for new, old in ((groupoid_algebra, oracles.groupoid_algebra),
                             (hopf_category_from_groupoid,
                              oracles.hopf_category_from_groupoid)):
                assert oracle_outcome(new, gd, field) == \
                    oracle_outcome(old, old_gd, field), (new.__name__, name)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_mutants_serialize_the_same(self, field):
        bases = (group_algebra(cyclic_group(3), field),
                 dual_group_algebra(symmetric_group_s3(), field),
                 groupoid_algebra(pair_groupoid(2), field))
        for base in bases:
            for seed in range(100):
                assert serialize_structure(mutate(base, seed)) == \
                    serialize_structure(oracles.mutate(base, seed)), (base.labels, seed)

    def test_mutant_without_antipode(self):
        w = group_algebra(cyclic_group(2), F3)
        bare = type(w)(w.algebra, w.coalgebra)
        for seed in range(100):
            assert mutate(bare, seed) == oracles.mutate(bare, seed)
