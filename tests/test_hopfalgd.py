from fractions import Fraction

import pytest

from maschke_kit.exactlin import (ConstraintSystem, FieldSpec, Matrix, membership,
                                   unit_vec, vec_sub)
from maschke_kit.finalg import InvalidPresentationError
from maschke_kit.examples import (
    cyclic_group,
    dual_group_algebra,
    dual_number_algebra,
    ground_field_algebra,
    group_algebra,
    groupoid_algebra,
    pair_groupoid,
    pair_hopf_algebroid,
    split_pair_algebra,
)
from maschke_kit.hopfalgd import (
    BULLET,
    CIRC,
    HopfAlgebroidPresentation,
    bullet_relations,
    check_hopf_algebroid,
    circ_relations,
    ideal_subspace,
    integral_system_hgd,
    maschke_report,
    separability_system_hgd,
    solve_cointegral_hgd,
    solve_coseparability_hgd,
    solve_integral_hgd,
    solve_separability_hgd,
    tensor_over_R,
)

from denselin import counit_matrix, kron, rebased, unit_matrix

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def hopf_algebra_as_algebroid(w) -> HopfAlgebroidPresentation:
    """Base k: source and target both the unit, comultiplication as lift."""
    return HopfAlgebroidPresentation(
        base=ground_field_algebra(w.field),
        total=w.algebra,
        src=unit_matrix(w.algebra),
        tgt=unit_matrix(w.algebra),
        comult_lift=w.coalgebra.comult_matrix(),
        counit=counit_matrix(w.coalgebra),
        antipode=w.antipode,
    )


BASES = (ground_field_algebra, dual_number_algebra, split_pair_algebra)


def perturbed_lift(h, trial):
    """h with a multiple of one circ relation added to one column of its
    comultiplication lift; every verdict must stay the same."""
    f = h.field
    rel = circ_relations(h)
    n = h.total.dim
    ent = list(h.comult_lift.entries)
    row = rel.basis.row(trial % rel.dim)
    col = trial % n
    for rr in range(n * n):
        idx = rr * n + col
        ent[idx] = f.add(ent[idx], f.mul(f.coerce(trial + 1), row[rr]))
    return HopfAlgebroidPresentation(h.base, h.total, h.src, h.tgt,
                                     Matrix(f, n * n, n, tuple(ent)), h.counit,
                                     h.antipode)


def kron_separability_system_hgd(h, q) -> ConstraintSystem:
    """separability_system_hgd with each action through the quotient a dense
    chain q.projection @ kron(...) @ q.section."""
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    sys = ConstraintSystem(f, qd * n)
    ms = alg.mult_matrix() @ q.section
    for j in range(n):
        for m in range(n):
            coeffs = {r * n + j: ms.at(m, r) for r in range(qd) if ms.at(m, r) != 0}
            sys.add_row(coeffs, f.one() if m == j else f.zero())
    eye = Matrix.identity(f, n)
    for i in range(n):
        left = q.projection @ kron(alg.left_mult_matrix(unit_vec(f, n, i)), eye) \
            @ q.section
        right = q.projection @ kron(eye, alg.right_mult_matrix(unit_vec(f, n, i))) \
            @ q.section
        for j in range(n):
            # (mu bullet 1)(1 bullet nabla) on e_i (x) e_j and
            # (1 bullet mu)(nabla bullet 1) on e_j (x) e_i
            for act, var, target in ((left, j, alg.mult_vec(unit_vec(f, n, i),
                                                            unit_vec(f, n, j))),
                                     (right, j, alg.mult_vec(unit_vec(f, n, j),
                                                             unit_vec(f, n, i)))):
                for r in range(qd):
                    coeffs = {rp * n + var: act.at(r, rp) for rp in range(qd)
                              if act.at(r, rp) != 0}
                    for m, c in enumerate(target):
                        if c != 0:
                            coeffs[r * n + m] = f.sub(coeffs.get(r * n + m, f.zero()), c)
                    sys.add_row(coeffs, f.zero())
    return sys


class TestValidation:
    def test_pair_algebroids_valid(self):
        for field in (QQ, F2):
            for mk in BASES:
                assert check_hopf_algebroid(pair_hopf_algebroid(mk(field))).ok()

    def test_identity_antipode_fails_composite_at_one_tensor_x(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift, h.counit,
            Matrix.identity(QQ, h.total.dim))
        report = check_hopf_algebroid(broken)
        fails = [f for f in report.failures if f.law == "antipode left composite"]
        assert any(1 in f.witness for f in fails)   # basis element 1 (x) x

    def test_group_algebra_as_algebroid_valid(self):
        for field in (QQ, F3):
            w = group_algebra(cyclic_group(2), field)
            assert check_hopf_algebroid(hopf_algebra_as_algebroid(w)).ok()

    def test_validation_and_relations_are_stored(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        for fn in (check_hopf_algebroid, circ_relations, bullet_relations,
                   ideal_subspace):
            assert fn(h) is fn(h)

    def test_invalid_presentation_raises_on_every_call(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift, h.counit,
            Matrix.identity(QQ, h.total.dim))
        for _ in range(2):
            with pytest.raises(InvalidPresentationError):
                solve_integral_hgd(broken, "left")

    def test_mutated_counit_reported(self):
        h = pair_hopf_algebroid(split_pair_algebra(QQ))
        ent = list(h.counit.entries)
        ent[0] = QQ.coerce(5)
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift,
            Matrix(QQ, h.counit.rows, h.counit.cols, tuple(ent)), h.antipode)
        assert not check_hopf_algebroid(broken).ok()


class TestQuotients:
    def test_trivial_base(self):
        h = pair_hopf_algebroid(ground_field_algebra(QQ))
        assert tensor_over_R(h, CIRC).dim == 1
        assert tensor_over_R(h, BULLET).dim == 1
        assert ideal_subspace(h).dim == 0

    def test_dual_number_dimensions(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        assert tensor_over_R(h, CIRC).dim == 8      # dim R^3
        assert tensor_over_R(h, BULLET).dim == 4    # A (x)_A A = A
        assert ideal_subspace(h).dim == 2

    def test_base_k_ideal_is_zero(self):
        w = group_algebra(cyclic_group(3), QQ)
        assert ideal_subspace(hopf_algebra_as_algebroid(w)).dim == 0

    def test_bad_product_name(self):
        h = pair_hopf_algebroid(ground_field_algebra(QQ))
        with pytest.raises(ValueError):
            tensor_over_R(h, "star")

    def test_ideal_is_two_sided(self):
        for mk in (dual_number_algebra, split_pair_algebra):
            h = pair_hopf_algebroid(mk(QQ))
            ideal = ideal_subspace(h)
            n = h.total.dim
            for i in range(ideal.dim):
                v = ideal.basis.row(i)
                for k in range(n):
                    e = unit_vec(QQ, n, k)
                    assert membership(h.total.mult_vec(e, v), ideal)
                    assert membership(h.total.mult_vec(v, e), ideal)


class TestIntegrals:
    def test_unit_element_is_left_integral_of_pair_algebroid(self):
        for field in (QQ, F2):
            for mk in BASES:
                h = pair_hopf_algebroid(mk(field))
                one = tuple(h.total.unit)
                assert integral_system_hgd(h, "left", True).satisfied_by(one)
                sol = solve_integral_hgd(h, "left")
                assert sol is not None

    def test_integral_membership_verified(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        sol = solve_integral_hgd(h, "left")
        ideal = ideal_subspace(h)
        n = h.total.dim
        for i in range(n):
            e = unit_vec(QQ, n, i)
            lhs = h.total.mult_vec(e, sol.element)
            rhs = h.total.mult_vec(h.src.apply(h.counit.apply(e)), sol.element)
            assert membership(vec_sub(QQ, lhs, rhs), ideal)

    def test_group_algebra_reduction(self):
        h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), QQ))
        sol = solve_integral_hgd(h, "left")
        third = Fraction(1, 3)
        assert sol.element == (third, third, third)
        assert solve_integral_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), F3)),
            "left") is None


class TestCointegrals:
    def test_group_algebra_counit_dual(self):
        for field in (QQ, F2):
            h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
            sol = solve_cointegral_hgd(h, "left")
            assert sol is not None
            assert sol.map.to_rows() == [[1, 0]]    # delta_e

    def test_dual_group_algebra_obstruction(self):
        h = hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), F3))
        assert solve_cointegral_hgd(h, "left") is None
        assert solve_cointegral_hgd(h, "right") is None

    def test_pair_algebroid_split_functional_certificate(self):
        # nu(x (x) y) = x phi(y) with phi the coefficient of the unit entry;
        # a normalized left cointegral for every commutative base
        from maschke_kit.hopfalgd import cointegral_system_hgd
        for mk in BASES:
            h = pair_hopf_algebroid(mk(QQ))
            d = h.base.dim
            n = h.total.dim
            f = h.field
            ent = [f.zero()] * (d * n)
            for a in range(d):
                for b in range(d):
                    # phi picks the coefficient of 1 in the second leg
                    if b == 0:
                        for r in range(d):
                            ent[r * n + (a * d + b)] = f.one() if r == a else f.zero()
            cand = tuple(ent)
            assert cointegral_system_hgd(h, "left", True).satisfied_by(cand)


class TestSeparability:
    def test_matches_kron_chain_system(self):
        cases = []
        for field in (QQ, F3, F5):
            for mk in BASES:
                h = pair_hopf_algebroid(mk(field))
                cases.append(h)
                if mk is not ground_field_algebra:
                    cases += [perturbed_lift(h, trial) for trial in range(3)]
        # a noncommutative total algebra, 2x2 matrices, with structure constants
        # not 0 and 1; only the two systems are compared, so it need not be valid
        for field in (QQ, F5):
            w = rebased(groupoid_algebra(pair_groupoid(2), field), 1)
            cases.append(hopf_algebra_as_algebroid(w))
        cases.append(hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), F2)))
        for h in cases:
            q = tensor_over_R(h, BULLET)
            got = separability_system_hgd(h, q).solve()
            want = kron_separability_system_hgd(h, q).solve()
            if want is None:
                assert got is None
            else:
                assert got.particular == want.particular
                assert got.homogeneous == want.homogeneous
        assert separability_system_hgd(cases[-1], tensor_over_R(cases[-1], BULLET)) \
            .solve() is None

    def test_pair_algebroid_always_separable_over_bullet(self):
        # includes the non-semisimple total algebra over the dual numbers
        for field in (QQ, F2):
            for mk in BASES:
                assert solve_separability_hgd(pair_hopf_algebroid(mk(field))) is not None

    def test_plain_algebra_separability_can_fail_while_bullet_succeeds(self):
        from maschke_kit.finalg import solve_separability
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        assert solve_separability(h.total) is None       # nilpotents in A
        assert solve_separability_hgd(h) is not None     # but A (x)_{R(x)R} A splits

    def test_group_algebra_reduction(self):
        assert solve_separability_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), F2))) is None
        assert solve_separability_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), QQ))) is not None


class TestCoseparability:
    def test_group_algebra_reduction(self):
        for field in (QQ, F2):
            h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
            assert solve_coseparability_hgd(h) is not None

    def test_dual_group_algebra_obstruction(self):
        h = hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), F3))
        assert solve_coseparability_hgd(h) is None


def corpus():
    for field in (QQ, F2):
        for mk in BASES:
            yield pair_hopf_algebroid(mk(field))
    for field in (QQ, F2, F3):
        yield hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
        yield hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), field))
        yield hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), field))


class TestEquivalences:
    def test_integral_sides_match_separability(self):
        for h in corpus():
            left = solve_integral_hgd(h, "left") is not None
            right = solve_integral_hgd(h, "right") is not None
            sep = solve_separability_hgd(h) is not None
            assert left == right == sep

    def test_cointegral_sides_match_coseparability(self):
        for h in corpus():
            left = solve_cointegral_hgd(h, "left") is not None
            right = solve_cointegral_hgd(h, "right") is not None
            cosep = solve_coseparability_hgd(h) is not None
            assert left == right == cosep


class TestCrossModuleAgreement:
    def test_base_k_algebroid_matches_weak_hopf_solvers(self):
        from maschke_kit.finalg import solve_coseparability, solve_separability
        from maschke_kit.weakhopf import solve_cointegral, solve_integral
        for field in (QQ, F2, F3):
            for w in (group_algebra(cyclic_group(2), field),
                      group_algebra(cyclic_group(3), field),
                      dual_group_algebra(cyclic_group(3), field)):
                h = hopf_algebra_as_algebroid(w)
                assert (solve_integral_hgd(h, "left") is not None) == \
                    (solve_integral(w, "left", "primed") is not None)
                assert (solve_cointegral_hgd(h, "left") is not None) == \
                    (solve_cointegral(w, "left", "primed") is not None)
                assert (solve_separability_hgd(h) is not None) == \
                    (solve_separability(w.algebra) is not None)
                assert (solve_coseparability_hgd(h) is not None) == \
                    (solve_coseparability(w.coalgebra) is not None)


class TestLiftIndependence:
    def test_relation_perturbations_change_nothing(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        baseline = (
            check_hopf_algebroid(h).ok(),
            solve_integral_hgd(h, "left") is not None,
            solve_cointegral_hgd(h, "left") is not None,
            solve_cointegral_hgd(h, "right") is not None,
            solve_coseparability_hgd(h) is not None,
        )
        assert baseline[0]
        for trial in range(3):
            perturbed = perturbed_lift(h, trial)
            assert (
                check_hopf_algebroid(perturbed).ok(),
                solve_integral_hgd(perturbed, "left") is not None,
                solve_cointegral_hgd(perturbed, "left") is not None,
                solve_cointegral_hgd(perturbed, "right") is not None,
                solve_coseparability_hgd(perturbed) is not None,
            ) == baseline


class TestMaschkeReport:
    def test_pair_algebroids_pass(self):
        for field in (QQ, F2):
            for mk in BASES:
                rep = maschke_report(pair_hopf_algebroid(mk(field)))
                assert rep.verdict
                assert set(rep.integral_flags) == {"left", "right"}

    def test_requires_antipode(self):
        h = pair_hopf_algebroid(split_pair_algebra(QQ))
        bare = HopfAlgebroidPresentation(h.base, h.total, h.src, h.tgt,
                                         h.comult_lift, h.counit, None)
        with pytest.raises(ValueError, match="antipode"):
            maschke_report(bare)
