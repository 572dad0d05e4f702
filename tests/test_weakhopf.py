import collections
from fractions import Fraction

import pytest

from maschke_kit import weakhopf
from maschke_kit.exactlin import AffineSolution, ConstraintSystem, FieldSpec, Subspace, \
    unit_vec
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
from maschke_kit.finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    CoalgebraPresentation,
    InvalidPresentationError,
    _balanced_system,
)
from maschke_kit.weakhopf import (
    SIDES,
    VARIANTS,
    IntegralSolution,
    StructureDefectError,
    WeakHopfPresentation,
    base_algebra,
    check_antipode,
    check_weak_bialgebra,
    cointegral_system,
    convert_cointegral,
    convert_integral,
    integral_system,
    maschke_report,
    projections,
    solve_cointegral,
    solve_integral,
)

from denselin import (NON_SCALAR_Q, add_matrix_rows, add_row, apply, comult_matrix,
                      comult_vec, counit_matrix, dense_col, flip_matrix, identity, kron,
                      left_mult_matrix, mat_sub, matrix_pair_weak_hopf, mult_matrix, mult_vec,
                      rebased, to_rows, unit_matrix, vec_add, zero_matrix, zero_vec)
from oracles import check_weak_bialgebra as oracle_check_weak_bialgebra

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def sweedler_piR(w, j):
    """pi^R(e_j) = 1_1 eps(e_j 1_2), computed by raw Sweedler loops."""
    f, n = w.field, w.dim
    alg, coa = w.algebra, w.coalgebra
    u = comult_vec(coa, alg.unit)
    out = [f.zero()] * n
    for ab, c in enumerate(u):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        prod = mult_vec(alg, unit_vec(f, n, j), unit_vec(f, n, b))
        scal = f.zero()
        for m, cv in enumerate(prod):
            scal = f.add(scal, f.mul(cv, coa.counit[m]))
        out[a] = f.add(out[a], f.mul(c, scal))
    return tuple(out)


def kron_chain_projections(w):
    """piR, piR_bar, piL, piL_bar as composites of the dense structure maps."""
    f, n = w.field, w.dim
    eye = identity(f, n)
    mu = mult_matrix(w.algebra)
    nu = unit_matrix(w.algebra)
    delta = comult_matrix(w.coalgebra)
    eps = counit_matrix(w.coalgebra)
    mu_op = mu @ flip_matrix(f, n, n)
    return (kron(eye, eps) @ kron(eye, mu_op) @ kron(delta, eye) @ kron(nu, eye),
            kron(eye, eps) @ kron(eye, mu) @ kron(delta, eye) @ kron(nu, eye),
            kron(eps, eye) @ kron(mu_op, eye) @ kron(eye, delta) @ kron(eye, nu),
            kron(eps, eye) @ kron(mu, eye) @ kron(eye, delta) @ kron(eye, nu))


def kron_chain_antipode_report(w):
    """check_antipode's report, with every composite a dense Kronecker chain."""
    f, n, s = w.field, w.dim, w.antipode
    alg = w.algebra
    maps = projections(w)
    eye = identity(f, n)
    mu = mult_matrix(alg)
    delta = comult_matrix(w.coalgebra)
    failures = []
    left = mu @ kron(eye, s) @ delta
    right = mu @ kron(s, eye) @ delta
    third = mu @ kron(right, s) @ delta
    for law, got, want in (("antipode left diagram", left, maps.piL),
                           ("antipode right diagram", right, maps.piR),
                           ("antipode S(h1) h2 S(h3) = S(h)", third, s)):
        cols = tuple(j for j in range(n) if dense_col(got, j) != dense_col(want, j))
        if cols:
            failures.append(AxiomFailure(law, cols))
    warnings = []
    for i in range(n):
        for j in range(n):
            ei, ej = unit_vec(f, n, i), unit_vec(f, n, j)
            if apply(s, mult_vec(alg, ei, ej)) != mult_vec(alg, apply(s, ej), apply(s, ei)):
                warnings.append(AxiomFailure("antipode anti-multiplicativity", (i, j)))
    if apply(s, alg.unit) != alg.unit:
        warnings.append(AxiomFailure("antipode unit", ()))
    if delta @ s != kron(s, s) @ flip_matrix(f, n, n) @ delta:
        warnings.append(AxiomFailure("antipode coalgebra anti-homomorphy", ()))
    eps = counit_matrix(w.coalgebra)
    if eps @ s != eps:
        warnings.append(AxiomFailure("antipode counit", ()))
    return AxiomReport(tuple(failures), tuple(warnings))


def defect_presentations():
    """Group algebras with a doubled unit or a doubled counit."""
    for field in (QQ, F3, F5):
        for g in (cyclic_group(3), cyclic_group(4), symmetric_group_s3()):
            w = group_algebra(g, field)
            two = field.coerce(2)
            a, c = w.algebra, w.coalgebra
            yield WeakHopfPresentation(
                AlgebraPresentation(field, a.dim, a.labels, a.mult,
                                    tuple(field.mul(two, x) for x in a.unit)),
                c, w.antipode)
            yield WeakHopfPresentation(
                a, CoalgebraPresentation(field, c.dim, c.comult,
                                         tuple(field.mul(two, x) for x in c.counit)),
                w.antipode)


def weak_hopf_corpus(seeds=60):
    """The criterion-04 corpus (72 cases) and the valid mutants among the
    first ``seeds`` seeds of QC2 and of the pair:2 groupoid algebra over Q."""
    groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + \
        [klein_four_group(), symmetric_group_s3()]
    groupoids = [pair_groupoid(2),
                 disjoint_union(one_object_groupoid(cyclic_group(2)),
                                one_object_groupoid(cyclic_group(2))),
                 connected_groupoid(cyclic_group(2), 2),
                 pair_groupoid(3)]
    for field in (QQ, F2, F3, F5):
        yield from (group_algebra(g, field) for g in groups)
        yield from (dual_group_algebra(g, field) for g in groups)
        yield from (groupoid_algebra(gd, field) for gd in groupoids)
    for base in (group_algebra(cyclic_group(2), QQ),
                 groupoid_algebra(pair_groupoid(2), QQ)):
        for seed in range(seeds):
            m = mutate(base, seed)
            if check_weak_bialgebra(m).ok():
                yield m


def rebased_corpus():
    """Presentations whose structure constants are not all 0 and 1, and their
    mutants that are still weak bialgebras."""
    for w in (group_algebra(cyclic_group(3), QQ),
              dual_group_algebra(symmetric_group_s3(), F5),
              groupoid_algebra(pair_groupoid(2), QQ),
              groupoid_algebra(connected_groupoid(cyclic_group(2), 2), F3)):
        r = rebased(w, 1)
        yield r
        for seed in range(40):
            m = mutate(r, seed)
            if check_weak_bialgebra(m).ok():
                yield m


class TestCheckWeakBialgebra:
    def test_group_bialgebra_passes(self):
        assert check_weak_bialgebra(group_algebra(cyclic_group(2), QQ)).ok()

    def test_pair_groupoid_passes_and_is_genuinely_weak(self):
        w = groupoid_algebra(pair_groupoid(2), QQ)
        assert check_weak_bialgebra(w).ok()
        u = comult_vec(w.coalgebra, w.algebra.unit)
        outer = [QQ.zero()] * (w.dim ** 2)
        for i, a in enumerate(w.algebra.unit):
            for j, b in enumerate(w.algebra.unit):
                outer[i * w.dim + j] = a * b
        assert u != tuple(outer)   # delta(1) != 1 (x) 1

    def test_mutated_counit_fails(self):
        w = group_algebra(cyclic_group(2), QQ)
        bad = WeakHopfPresentation(
            w.algebra,
            CoalgebraPresentation(w.field, w.dim, w.coalgebra.comult, (1, 0)),
            w.antipode)
        report = check_weak_bialgebra(bad)
        assert not report.ok()

    def test_rescaled_square_caught_by_comultiplicativity(self):
        w = group_algebra(cyclic_group(2), QQ)
        from maschke_kit.finalg import AlgebraPresentation
        alg = AlgebraPresentation(w.field, w.dim, w.labels,
                                  w.algebra.mult.with_entry(1, 1, 0, 2),
                                  w.algebra.unit)
        report = check_weak_bialgebra(WeakHopfPresentation(alg, w.coalgebra))
        assert any(f.law == "comultiplicativity" for f in report.failures)


    def test_matches_the_check_over_every_term_pair(self):
        # the sparse sums, compared raw first, give the report of the loops
        # over every pair of terms with each term through the field
        # operations (tests/oracles.py, its component checks included): the
        # same failures, in the same order, with the same witnesses, on the
        # criterion-04 corpus, the criterion-08 mutants, and mismatched pairs
        # over Q, F3 and F5.  A mutant mostly fails as an algebra or coalgebra
        # and stops there; the algebra of one weak Hopf algebra with the
        # coalgebra of another passes both and reaches every law.
        bases = (group_algebra(cyclic_group(2), QQ),
                 groupoid_algebra(pair_groupoid(2), QQ))
        cases = list(weak_hopf_corpus(seeds=0))
        cases += [mutate(base, seed) for base in bases for seed in range(100)]
        for field in (QQ, F3, F5):
            for same_dim in (
                    [group_algebra(cyclic_group(4), field),
                     dual_group_algebra(klein_four_group(), field),
                     groupoid_algebra(pair_groupoid(2), field)],
                    [group_algebra(symmetric_group_s3(), field),
                     dual_group_algebra(symmetric_group_s3(), field),
                     dual_group_algebra(cyclic_group(6), field)]):
                same_dim += [rebased(w, 1) for w in same_dim]
                cases += [WeakHopfPresentation(a.algebra, c.coalgebra)
                          for a in same_dim for c in same_dim if a is not c]
        laws = collections.Counter()
        for w in cases:
            report = check_weak_bialgebra(w)
            assert report == oracle_check_weak_bialgebra(w)
            laws.update(f.law for f in report.failures)
        assert len(cases) == 72 + 200 + 6 * 30
        assert all(laws[law] for law in (
            "comultiplicativity", "weak unit (straight)", "weak unit (twisted)",
            "weak counit (straight)", "weak counit (twisted)"))


class TestProjections:
    def test_group_algebra_formula(self):
        # for kG all four projections send h to eps(h) * 1
        for field in (QQ, F3):
            w = group_algebra(cyclic_group(3), field)
            maps = projections(w)
            for j in range(w.dim):
                expected = tuple(w.coalgebra.counit[j] * x for x in w.algebra.unit) \
                    if field is QQ else w.algebra.unit
                for m in (maps.piR, maps.piR_bar, maps.piL, maps.piL_bar):
                    assert dense_col(m, j) == tuple(
                        field.mul(w.coalgebra.counit[j], x) for x in w.algebra.unit)

    def test_pair_groupoid_source_target(self):
        gd = pair_groupoid(2)
        w = groupoid_algebra(gd, QQ)
        maps = projections(w)
        for j in range(w.dim):
            src_id = gd.identity[gd.source[j]]
            tgt_id = gd.identity[gd.target[j]]
            assert dense_col(maps.piR, j) == unit_vec(QQ, w.dim, src_id)
            assert dense_col(maps.piR_bar, j) == unit_vec(QQ, w.dim, tgt_id)
            assert dense_col(maps.piL, j) == unit_vec(QQ, w.dim, tgt_id)
            assert dense_col(maps.piL_bar, j) == unit_vec(QQ, w.dim, src_id)

    def test_one_dim_all_identity(self):
        w = group_algebra(cyclic_group(1), QQ)
        maps = projections(w)
        eye = identity(QQ, 1)
        assert maps.piR == maps.piR_bar == maps.piL == maps.piL_bar == eye

    def test_maps_that_are_not_idempotent_raise(self, monkeypatch):
        # twice the pairing eps(e_i e_j) doubles all four maps, and 2P is not
        # idempotent unless 2P = 0, as over F2; piR is checked first
        pairing = weakhopf._counit_pairing
        monkeypatch.setattr(weakhopf, "_counit_pairing", lambda w: tuple(
            tuple(tuple((h, w.field.add(x, x)) for h, x in terms) for terms in part)
            for part in pairing(w)))
        for field in (QQ, F3, F5):
            w = groupoid_algebra(pair_groupoid(2), field)
            with pytest.raises(StructureDefectError, match="^piR is not idempotent$"):
                projections(w)
        maps = projections(groupoid_algebra(pair_groupoid(2), F2))
        assert all(m == zero_matrix(F2, 4, 4) for m in
                   (maps.piR, maps.piR_bar, maps.piL, maps.piL_bar))

    def test_matches_kron_chains_on_corpus(self):
        count = 0
        for w in weak_hopf_corpus():
            maps = projections(w)
            assert (maps.piR, maps.piR_bar, maps.piL, maps.piL_bar) == \
                kron_chain_projections(w)
            count += 1
        assert count > 72

    def test_matches_sweedler_formula(self):
        for w in (group_algebra(cyclic_group(4), F5),
                  dual_group_algebra(cyclic_group(3), QQ),
                  groupoid_algebra(pair_groupoid(3), F2)):
            maps = projections(w)
            for j in range(w.dim):
                assert dense_col(maps.piR, j) == sweedler_piR(w, j)


class TestBaseAlgebra:
    def test_group_algebra_base_is_scalars(self):
        w = group_algebra(cyclic_group(3), QQ)
        info = base_algebra(w)
        assert info.subspace.dim == 1
        assert info.subspace.contains(w.algebra.unit)
        # frobenius element 1 (x) piR(1) = 1 (x) 1
        fe = [QQ.zero()] * (w.dim ** 2)
        fe[0] = QQ.one()
        assert info.frobenius_element == tuple(fe)

    def test_pair_groupoid_base_dim_matches_objects(self):
        for n in (2, 3):
            w = groupoid_algebra(pair_groupoid(n), QQ)
            assert base_algebra(w).subspace.dim == n

    def test_induced_mult_is_unital_algebra(self):
        from maschke_kit.finalg import AlgebraPresentation, check_algebra
        w = groupoid_algebra(pair_groupoid(2), F3)
        info = base_algebra(w)
        coords = info.subspace.coords(w.algebra.unit)
        alg = AlgebraPresentation(F3, info.subspace.dim,
                                  tuple(f"r{i}" for i in range(info.subspace.dim)),
                                  info.induced_mult, coords)
        assert check_algebra(alg).ok()


class TestCheckAntipode:
    def test_group_and_groupoid_antipodes_pass(self):
        for w in (group_algebra(cyclic_group(4), QQ),
                  group_algebra(cyclic_group(2), F2),
                  groupoid_algebra(pair_groupoid(2), F3),
                  dual_group_algebra(cyclic_group(3), F3)):
            report = check_antipode(w)
            assert report.ok()
            assert not report.warnings

    def test_wrong_antipode_fails_diagrams(self):
        w = group_algebra(cyclic_group(3), QQ)
        bad = WeakHopfPresentation(w.algebra, w.coalgebra, identity(QQ, 3))
        report = check_antipode(bad)
        assert any(f.law.startswith("antipode") for f in report.failures)

    def test_third_axiom_mutant_rejected_with_witness(self):
        # antipode entry (2, 2) set to 1: both composite diagrams still hold
        m = mutate(groupoid_algebra(pair_groupoid(2), QQ), 1290)
        assert check_weak_bialgebra(m).ok()
        report = check_antipode(m)
        assert [f.law for f in report.failures] == ["antipode S(h1) h2 S(h3) = S(h)"]
        assert report.failures[0].witness == (2,)

    def test_matches_kron_chains(self):
        cases = list(weak_hopf_corpus(seeds=150)) + list(rebased_corpus())
        reports = [check_antipode(w) for w in cases]
        assert reports == [kron_chain_antipode_report(w) for w in cases]
        assert sum(not r.ok() for r in reports) >= 10
        assert sum(bool(r.warnings) for r in reports) >= 10
        for w in defect_presentations():
            with pytest.raises(InvalidPresentationError):
                check_antipode(w)

    def test_missing_antipode_raises(self):
        w = group_algebra(cyclic_group(2), QQ)
        with pytest.raises(ValueError):
            check_antipode(WeakHopfPresentation(w.algebra, w.coalgebra, None))


class TestOncePerPresentation:
    def test_validation_and_derived_maps_are_stored(self):
        w = groupoid_algebra(pair_groupoid(2), QQ)
        for fn in (check_weak_bialgebra, check_antipode, projections, base_algebra):
            assert fn(w) is fn(w)

    def test_invalid_presentation_raises_on_every_call(self):
        w = group_algebra(cyclic_group(2), QQ)
        bad = WeakHopfPresentation(
            w.algebra,
            CoalgebraPresentation(w.field, w.dim, w.coalgebra.comult, (1, 0)),
            w.antipode)
        for _ in range(2):
            with pytest.raises(InvalidPresentationError):
                solve_integral(bad, "left")
            with pytest.raises(InvalidPresentationError):
                base_algebra(bad)
        assert check_weak_bialgebra(bad) is check_weak_bialgebra(bad)


class TestStoredSolutions:
    def test_equal_arguments_return_the_same_record(self):
        for w in (groupoid_algebra(pair_groupoid(2), QQ),
                  group_algebra(cyclic_group(2), F2)):
            for side in SIDES:
                for variant in VARIANTS:
                    for normalized in (True, False):
                        sol = solve_integral(w, side, variant, normalized)
                        assert solve_integral(w, side, variant, normalized) is sol
                        co = solve_cointegral(w, side, variant, normalized)
                        assert solve_cointegral(w, side, variant, normalized) is co
            assert solve_integral(w, "left") is solve_integral(w, "left", "primed", 1)
            assert solve_integral(w, "left", "primed", False) is not None

    def test_bad_arguments_raise_on_every_call(self):
        w = group_algebra(cyclic_group(2), QQ)
        for _ in range(2):
            with pytest.raises(ValueError, match="side"):
                solve_integral(w, "up")
            with pytest.raises(ValueError, match="variant"):
                solve_cointegral(w, "left", "plain")


class TestIntegrals:
    def test_qc2_exact_value(self):
        sol = solve_integral(group_algebra(cyclic_group(2), QQ), "left", "primed")
        half = Fraction(1, 2)
        assert sol.element == (half, half)
        assert sol.solutions.homogeneous.dim == 0

    def test_f2c2_infeasible(self):
        assert solve_integral(group_algebra(cyclic_group(2), F2), "left", "primed") is None

    def test_pair_groupoid_integral_certificate(self):
        gd = pair_groupoid(2)
        for field in (QQ, F2, F3):
            w = groupoid_algebra(gd, field)
            sol = solve_integral(w, "left", "primed")
            assert sol is not None
            # t = id_0 + (morphism 0 -> 1) satisfies the system
            cand = [field.zero()] * w.dim
            cand[gd.identity[0]] = field.one()
            g01 = next(i for i in range(w.dim)
                       if gd.source[i] == 0 and gd.target[i] == 1)
            cand[g01] = field.one()
            assert integral_system(w, "left", "primed", True).satisfied_by(tuple(cand))

    def test_weak_regime_obstruction_in_characteristic_two(self):
        # genuinely weak presentations whose vertex groups have even order
        from maschke_kit.examples import (connected_groupoid, disjoint_union,
                                          one_object_groupoid)
        for gd in (disjoint_union(one_object_groupoid(cyclic_group(2)),
                                  one_object_groupoid(cyclic_group(2))),
                   connected_groupoid(cyclic_group(2), 2)):
            assert solve_integral(groupoid_algebra(gd, F2), "left", "primed") is None
            assert solve_integral(groupoid_algebra(gd, QQ), "left", "primed") is not None

    def test_unnormalized_returns_solution_space(self):
        w = group_algebra(cyclic_group(2), F2)
        sol = solve_integral(w, "left", "primed", normalized=False)
        assert sol is not None
        assert sol.element == zero_vec(F2, 2)
        assert sol.solutions.homogeneous.dim == 1   # span of e + g

    def test_sides_and_variants_agree_for_groups(self):
        for field in (QQ, F2, F3, F5):
            w = group_algebra(cyclic_group(3), field)
            flags = {(s, v): solve_integral(w, s, v) is not None
                     for s in ("left", "right") for v in ("primed", "duoidal")}
            assert len(set(flags.values())) == 1

    def test_larson_sweedler_reduction(self):
        # base dim 1: the system has the same solution set as
        # {h t = eps(h) t, eps(t) = 1} assembled directly
        from maschke_kit.exactlin import ConstraintSystem
        w = group_algebra(cyclic_group(3), QQ)
        n = w.dim
        direct = ConstraintSystem(QQ, n)
        for i in range(n):
            diff = mat_sub(left_mult_matrix(w.algebra, unit_vec(QQ, n, i)),
                           left_mult_matrix(w.algebra, tuple(QQ.mul(w.coalgebra.counit[i], x)
                                                             for x in w.algebra.unit)))
            add_matrix_rows(direct, diff)
        add_row(direct, {m: w.coalgebra.counit[m] for m in range(n)}, QQ.one())
        ds = direct.solve()
        ws = integral_system(w, "left", "primed", True).solve()
        assert ds.particular == ws.particular
        assert ds.homogeneous.basis == ws.homogeneous.basis


class TestCointegrals:
    def test_delta_e_right_cointegral_for_group_algebras(self):
        for field in (QQ, F2, F3, F5):
            for n in (2, 3, 4):
                g = cyclic_group(n)
                w = group_algebra(g, field)
                delta_e = unit_vec(field, n, g.identity)
                assert cointegral_system(w, "right", "primed", True).satisfied_by(delta_e)
                sol = solve_cointegral(w, "right", "primed")
                assert sol is not None and sol.functional == delta_e

    def test_dual_c3_over_f3_infeasible(self):
        w = dual_group_algebra(cyclic_group(3), F3)
        assert solve_cointegral(w, "right", "primed") is None
        assert solve_cointegral(w, "left", "duoidal") is None

    def test_one_dim_counit_is_cointegral(self):
        w = group_algebra(cyclic_group(1), QQ)
        sol = solve_cointegral(w, "left", "primed")
        assert sol.functional == (1,)


class TestConversions:
    def test_qc2_integral_conversion_is_identity(self):
        w = group_algebra(cyclic_group(2), QQ)
        half = Fraction(1, 2)
        assert convert_integral(w, (half, half), "left") == (half, half)
        assert convert_integral(w, (half, half), "right") == (half, half)

    def test_kc2_cointegral_conversion_is_identity(self):
        for field in (QQ, F3):
            w = group_algebra(cyclic_group(2), field)
            delta_e = unit_vec(field, 2, 0)
            assert convert_cointegral(w, delta_e, "left") == delta_e
            assert convert_cointegral(w, delta_e, "right") == delta_e

    def test_one_dim_trivial(self):
        w = group_algebra(cyclic_group(1), QQ)
        assert convert_integral(w, (1,), "left") == (Fraction(1),)
        assert convert_cointegral(w, (1,), "right") == (Fraction(1),)

    def test_pair_groupoid_conversion_verified(self):
        for field in (QQ, F2, F3):
            w = groupoid_algebra(pair_groupoid(2), field)
            for side in ("left", "right"):
                t = solve_integral(w, side, "primed").element
                out = convert_integral(w, t, side)
                assert integral_system(w, side, "duoidal", True).satisfied_by(out)
                tau = solve_cointegral(w, side, "primed").functional
                out = convert_cointegral(w, tau, side)
                assert cointegral_system(w, side, "duoidal", True).satisfied_by(out)

    def test_bad_input_rejected(self):
        w = group_algebra(cyclic_group(2), QQ)
        with pytest.raises(ValueError, match="fails the primed integral conditions"):
            convert_integral(w, (1, 7), "left")

    def test_bad_cointegral_input_rejected(self):
        w = group_algebra(cyclic_group(2), QQ)
        with pytest.raises(ValueError, match="fails the primed cointegral conditions"):
            convert_cointegral(w, (1, 7), "left")

    def test_input_without_a_primed_solution_rejected(self):
        # no stored solution set: the stored primed rows refuse the input
        w = group_algebra(cyclic_group(2), F2)
        assert solve_integral(w, "left", "primed") is None
        with pytest.raises(ValueError, match="fails the primed integral conditions"):
            convert_integral(w, (1, 1), "left")
        with pytest.raises(ValueError, match="candidate length mismatch"):
            convert_integral(w, (1,), "left")

    def test_conversions_build_no_system(self, monkeypatch):
        # after the four primed and duoidal solves the conversions test
        # membership in the stored solution sets and build no system
        built = []

        def counted(*args):
            built.append(args[1])
            return _balanced_system(*args)

        monkeypatch.setattr(weakhopf, "_balanced_system", counted)
        for field in (QQ, F3):
            built.clear()
            w = groupoid_algebra(pair_groupoid(2), field)
            sols = {(side, variant): (solve_integral(w, side, variant),
                                      solve_cointegral(w, side, variant))
                    for side in SIDES for variant in VARIANTS}
            assert len(built) == 8
            built.clear()
            outs = {}
            for side in SIDES:
                t, tau = sols[side, "primed"]
                outs[side] = (convert_integral(w, t.element, side),
                              convert_cointegral(w, tau.functional, side))
            assert built == []
            for side, (t, tau) in outs.items():
                assert integral_system(w, side, "duoidal", True).satisfied_by(t)
                assert cointegral_system(w, side, "duoidal", True).satisfied_by(tau)

    def test_shrunken_stored_kernel_raises(self):
        # t' = particular + kernel vector is a primed integral; a stored
        # solution set that lost the kernel misses it, and the stored rows
        # accept it, so the eliminator is at fault
        w = groupoid_algebra(pair_groupoid(2), QQ)
        for side in SIDES:
            sol = solve_integral(w, side, "primed")
            kernel = sol.solutions.homogeneous
            assert kernel.dim == 1
            t = vec_add(QQ, sol.element, kernel.basis.row(0))
            assert integral_system(w, side, "duoidal", True).satisfied_by(
                convert_integral(w, t, side))
            shrunk = IntegralSolution(side, "primed", True, AffineSolution(
                sol.element, Subspace(QQ, w.dim, ())))
            stored = vars(w)["_once__solved"]
            system, _ = stored["integral", side, "primed", True]
            stored["integral", side, "primed", True] = system, shrunk
            assert solve_integral(w, side, "primed") is shrunk
            with pytest.raises(ArithmeticError, match="missed a solution"):
                convert_integral(w, t, side)

    def test_a_miss_is_confirmed_on_the_stored_rows(self, monkeypatch):
        # on M_2 (x) M_2^op a primed (co)integral off the particular one is not
        # duoidal: the miss is confirmed on the stored primed rows, which
        # accept it, and the stored duoidal extras, which refuse it, and no
        # system is built
        w = matrix_pair_weak_hopf(2, QQ)
        built, checked = [], []

        def counted(*args):
            built.append(args[1])
            return _balanced_system(*args)

        check = ConstraintSystem.satisfied_by

        def recorded(system, x, homogeneous=False):
            checked.append(system)
            return check(system, x, homogeneous)

        monkeypatch.setattr(weakhopf, "_balanced_system", counted)
        monkeypatch.setattr(ConstraintSystem, "satisfied_by", recorded)
        for kind, solve in (("integral", solve_integral), ("cointegral", solve_cointegral)):
            for side in SIDES:
                sol = solve(w, side, "primed").solutions
                assert solve(w, side, "duoidal").solutions.homogeneous.dim == 0
                x = vec_add(QQ, sol.particular, sol.homogeneous.basis.row(0))
                built.clear()
                checked.clear()
                assert weakhopf._solves(w, x, kind, side, "primed")
                assert not weakhopf._solves(w, x, kind, side, "duoidal")
                stored = [weakhopf._solved(w, kind, side, variant, True)[0]
                          for variant in VARIANTS]
                assert list(map(id, checked)) == list(map(id, stored))
                assert built == []

    def test_stored_rows_that_accept_a_non_member_raise(self, monkeypatch):
        # a stored set that misses its own particular solution: the stored
        # primed rows and duoidal extras both accept it
        w = matrix_pair_weak_hopf(2, QQ)
        sols = [(kind, side, solve(w, side, variant))
                for kind, solve in (("integral", solve_integral),
                                    ("cointegral", solve_cointegral))
                for side in SIDES for variant in VARIANTS]
        monkeypatch.setattr(Subspace, "contains", lambda self, v: False)
        for kind, side, sol in sols:
            with pytest.raises(ArithmeticError, match="missed a solution"):
                weakhopf._solves(w, sol.solutions.particular, kind, side, sol.variant)


class TestMaschkeReport:
    def test_qc3_all_feasible(self):
        rep = maschke_report(group_algebra(cyclic_group(3), QQ))
        assert rep.verdict
        assert all(rep.integral_flags.values())
        assert all(rep.cointegral_flags.values())
        assert rep.separability is not None and rep.coseparability is not None

    def test_f3c3_mixed_families(self):
        rep = maschke_report(group_algebra(cyclic_group(3), F3))
        assert rep.verdict
        assert not any(rep.integral_flags.values())
        assert rep.separability is None
        assert all(rep.cointegral_flags.values())
        assert rep.coseparability is not None

    def test_dual_group_algebra_opposite_mix(self):
        rep = maschke_report(dual_group_algebra(cyclic_group(3), F3))
        assert rep.verdict
        assert all(rep.integral_flags.values())
        assert not any(rep.cointegral_flags.values())

    def test_one_dim(self):
        rep = maschke_report(group_algebra(cyclic_group(1), QQ))
        assert rep.verdict and all(rep.integral_flags.values())

    def test_requires_antipode(self):
        w = group_algebra(cyclic_group(2), QQ)
        with pytest.raises(ValueError, match="antipode"):
            maschke_report(WeakHopfPresentation(w.algebra, w.coalgebra, None))


class TestNoncommutativeBase:
    """H_Q = M_2(k) (x) M_2(k)^op (Nikshych-Vainerman 2002, section 2, for
    Q = 2 1; Boehm-Nill-Szlachanyi 1999 for any Q with Tr(Q^-1) = 1), whose
    base algebra M_2(k) is noncommutative; S^2 is the identity on the base
    exactly when Q is scalar."""

    @pytest.mark.parametrize("field", [QQ, F3, F5], ids=str)
    def test_axioms_base_and_verdict(self, field):
        for q in (None, NON_SCALAR_Q[field.characteristic]):
            w = matrix_pair_weak_hopf(2, field, q)
            assert check_weak_bialgebra(w) == check_antipode(w) == AxiomReport()
            assert check_weak_bialgebra(w) == oracle_check_weak_bialgebra(w)
            info = base_algebra(w)
            d, m = info.subspace.dim, info.induced_mult
            assert d == 4
            assert any(m.at(i, j, k) != m.at(j, i, k)
                       for i in range(d) for j in range(d) for k in range(d))
            s = w.antipode
            assert all(list(apply(s, apply(s, x))) == x
                       for x in to_rows(info.subspace.basis)) == (q is None)
            rep = maschke_report(w)
            assert rep.verdict
            flags = [*rep.integral_flags.values(), *rep.cointegral_flags.values()]
            assert len(flags) == 8 and all(flags)
            assert rep.separability is not None and rep.coseparability is not None
