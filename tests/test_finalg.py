import os
import subprocess
import sys
from fractions import Fraction

import pytest

import maschke_kit
from maschke_kit import finalg
from maschke_kit.examples import (
    cyclic_group,
    dihedral_group,
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
from maschke_kit.exactlin import ConstraintSystem, FieldSpec, Matrix
from maschke_kit.finalg import (
    AlgebraPresentation,
    CoalgebraPresentation,
    InvalidPresentationError,
    check_algebra,
    check_coalgebra,
    coseparability_system,
    separability_system,
    solve_coseparability,
    solve_separability,
)

from denselin import (add_row, comult_matrix, dual_algebra, generated_dim, identity, kron,
                      mult_matrix, rebased, to_rows)
from test_acceptance import FIELDS, weak_hopf_corpus

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def c2_algebra(field):
    # basis (e, g) with g*g = e
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    return AlgebraPresentation.make(field, mult, (1, 0), labels=("e", "g"))


def one_dim_algebra(field):
    return AlgebraPresentation.make(field, [[[1]]], (1,))


def grouplike_coalgebra(field, n):
    comult = [[[1 if i == j == k else 0 for k in range(n)] for j in range(n)]
              for i in range(n)]
    return CoalgebraPresentation.make(field, comult, (1,) * n)


def dual_cyclic_coalgebra(field, n):
    # coalgebra of functions on C_n: delta(d_i) = sum_{j+k=i} d_j (x) d_k
    comult = [[[1 if (j + k) % n == i else 0 for k in range(n)] for j in range(n)]
              for i in range(n)]
    counit = tuple(1 if i == 0 else 0 for i in range(n))
    return CoalgebraPresentation.make(field, comult, counit)


# ---------------------------------------------------------------------------
# n^3 oracles: the section and retraction systems that the n^2 systems of
# finalg replace


def section_system(a: AlgebraPresentation) -> ConstraintSystem:
    """Oracle: constraint rows for a bimodule section N of the multiplication,
    with the section's n^3 entries as unknowns.

    Unknowns: section entries N[(k,l), j], variable index (k*n+l)*n + j.
    Rows: mu . N = id plus the two bimodule squares quantified over all basis
    pairs and output components.
    """
    f = a.field
    n = a.dim
    one = f.one()
    sys = ConstraintSystem(f, n ** 3)
    nz = a.mult.nonzeros()
    # mu . N = id
    for j in range(n):
        rows = [dict() for _ in range(n)]
        for i, l, k, t in nz:
            var = (i * n + l) * n + j
            row = rows[k]
            row[var] = f.add(row.get(var, f.zero()), t)
        for m in range(n):
            add_row(sys, rows[m], one if m == j else f.zero())
    by_first = [[] for _ in range(n)]
    by_second = [[] for _ in range(n)]
    for i, j, k, t in nz:
        by_first[i].append((j, k, t))
        by_second[j].append((i, k, t))
    prods = [[[(k, t) for (jj, k, t) in by_first[i] if jj == j] for j in range(n)]
             for i in range(n)]
    for i in range(n):
        for j in range(n):
            # left square: (mu (x) 1)(1 (x) N) e_i(x)e_j = N(e_i e_j)
            rows = {}
            for k, m, t in by_first[i]:
                for l in range(n):
                    var = (k * n + l) * n + j
                    row = rows.setdefault((m, l), {})
                    row[var] = f.add(row.get(var, f.zero()), t)
            for q, t in prods[i][j]:
                for m in range(n):
                    for l in range(n):
                        var = (m * n + l) * n + q
                        row = rows.setdefault((m, l), {})
                        row[var] = f.sub(row.get(var, f.zero()), t)
            for row in rows.values():
                add_row(sys, row, f.zero())
            # right square: (1 (x) mu)(N (x) 1) e_i(x)e_j = N(e_i e_j)
            rows = {}
            for l, m, t in by_second[j]:
                for k in range(n):
                    var = (k * n + l) * n + i
                    row = rows.setdefault((k, m), {})
                    row[var] = f.add(row.get(var, f.zero()), t)
            for q, t in prods[i][j]:
                for k in range(n):
                    for m in range(n):
                        var = (k * n + m) * n + q
                        row = rows.setdefault((k, m), {})
                        row[var] = f.sub(row.get(var, f.zero()), t)
            for row in rows.values():
                add_row(sys, row, f.zero())
    return sys


def retraction_system(c: CoalgebraPresentation) -> ConstraintSystem:
    """Oracle: constraint rows for a bicomodule retraction P of the
    comultiplication, with the retraction's n^3 entries as unknowns.

    Unknowns: retraction entries P[m, (i,j)], variable index m*n^2 + i*n + j.
    Rows: P . delta = id plus the two bicomodule squares.
    """
    f = c.field
    n = c.dim
    one = f.one()
    sys = ConstraintSystem(f, n ** 3)
    nz = c.comult.nonzeros()
    # P . delta = id
    for i in range(n):
        rows = [dict() for _ in range(n)]
        for i0, j, k, t in nz:
            if i0 != i:
                continue
            for m in range(n):
                var = m * n * n + j * n + k
                row = rows[m]
                row[var] = f.add(row.get(var, f.zero()), t)
        for m in range(n):
            add_row(sys, rows[m], one if m == i else f.zero())
    by_source = [[] for _ in range(n)]
    for i, j, k, t in nz:
        by_source[i].append((j, k, t))
    for i in range(n):
        for j in range(n):
            # left square: (1 (x) P)(delta (x) 1) = delta . P on e_i (x) e_j
            rows = {}
            for a_, b, t in by_source[i]:
                for m in range(n):
                    var = m * n * n + b * n + j
                    row = rows.setdefault((a_, m), {})
                    row[var] = f.add(row.get(var, f.zero()), t)
            for q in range(n):
                var_base = q * n * n + i * n + j
                for a_, b, t in by_source[q]:
                    row = rows.setdefault((a_, b), {})
                    row[var_base] = f.sub(row.get(var_base, f.zero()), t)
            for row in rows.values():
                add_row(sys, row, f.zero())
            # right square: (P (x) 1)(1 (x) delta) = delta . P on e_i (x) e_j
            rows = {}
            for a_, b, t in by_source[j]:
                for m in range(n):
                    var = m * n * n + i * n + a_
                    row = rows.setdefault((m, b), {})
                    row[var] = f.add(row.get(var, f.zero()), t)
            for q in range(n):
                var_base = q * n * n + i * n + j
                for a_, b, t in by_source[q]:
                    row = rows.setdefault((a_, b), {})
                    row[var_base] = f.sub(row.get(var_base, f.zero()), t)
            for row in rows.values():
                add_row(sys, row, f.zero())
    return sys


class TestCheckAlgebra:
    def test_c2_passes(self):
        assert check_algebra(c2_algebra(QQ)).ok()

    def test_one_dim_passes(self):
        assert check_algebra(one_dim_algebra(QQ)).ok()

    def test_mutated_fails_with_witness(self):
        # e*g = 0 kills the left unit law
        a = c2_algebra(QQ)
        bad = AlgebraPresentation(a.field, a.dim, a.labels,
                                  a.mult.with_entry(0, 1, 1, 0), a.unit)
        report = check_algebra(bad)
        assert not report.ok()
        assert all(f.witness for f in report.failures)

    def test_rescaled_square_is_still_an_algebra(self):
        # g*g = 2e is the valid algebra Q[g]/(g^2 - 2); only the
        # bialgebra-level checks reject this mutation
        a = c2_algebra(QQ)
        resc = AlgebraPresentation(a.field, a.dim, a.labels,
                                   a.mult.with_entry(1, 1, 0, 2), a.unit)
        assert check_algebra(resc).ok()

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            AlgebraPresentation.make(QQ, [], ())


class TestCheckCoalgebra:
    def test_grouplike_passes(self):
        assert check_coalgebra(grouplike_coalgebra(QQ, 2)).ok()

    def test_one_dim_passes(self):
        assert check_coalgebra(grouplike_coalgebra(QQ, 1)).ok()

    def test_mutated_counit_fails(self):
        c = grouplike_coalgebra(QQ, 2)
        bad = CoalgebraPresentation(c.field, c.dim, c.comult, (1, 0))
        report = check_coalgebra(bad)
        assert not report.ok()
        assert any(f.law.endswith("counit") and f.witness == (1,)
                   for f in report.failures)

    def test_dual_cyclic_passes(self):
        assert check_coalgebra(dual_cyclic_coalgebra(F3, 3)).ok()


def matrix_separability_identities(a, section):
    """Independent composite-level check of the bimodule-section laws."""
    n = a.dim
    eye = identity(a.field, n)
    mu = mult_matrix(a)
    mid = section.map @ mu
    assert mu @ section.map == eye
    assert kron(mu, eye) @ kron(eye, section.map) == mid
    assert kron(eye, mu) @ kron(section.map, eye) == mid


class TestSolveSeparability:
    def test_qc2_exact_element(self):
        a = c2_algebra(QQ)
        section = solve_separability(a)
        assert section is not None
        half = Fraction(1, 2)
        assert section.element == (half, 0, 0, half)
        matrix_separability_identities(a, section)

    def test_f2c2_infeasible(self):
        assert solve_separability(c2_algebra(F2)) is None

    def test_one_dim(self):
        section = solve_separability(one_dim_algebra(QQ))
        assert section.element == (1,)

    def test_invalid_input_raises(self):
        a = c2_algebra(QQ)
        bad = AlgebraPresentation(a.field, a.dim, a.labels,
                                  a.mult.with_entry(0, 1, 1, 0), a.unit)
        with pytest.raises(InvalidPresentationError):
            solve_separability(bad)

    def test_section_satisfies_its_system(self):
        a = c2_algebra(F3)
        section = solve_separability(a)
        assert separability_system(a).satisfied_by(section.element)
        assert section_system(a).satisfied_by(section.map.entries)

    def test_noncentral_element_raises(self, monkeypatch):
        # with only the rows mu(e) = 1, the particular element of kS3 does not
        # commute with the basis; the certificate must catch it
        a = group_algebra(symmetric_group_s3(), QQ).algebra

        def unit_rows_only(alg):
            # the normalization terms through the row builder, no products
            norm, rhs, _ = finalg._separability_terms(alg.dim, alg.mult.nonzeros(), alg.unit)
            return finalg._balanced_system(alg.field, alg.dim ** 2, norm, rhs, ())

        monkeypatch.setattr(finalg, "separability_system", unit_rows_only)
        with pytest.raises(ArithmeticError, match="commute"):
            solve_separability(a)


def matrix_coseparability_identities(c, retraction):
    n = c.dim
    eye = identity(c.field, n)
    delta = comult_matrix(c)
    mid = delta @ retraction.map
    assert retraction.map @ delta == eye
    assert kron(eye, retraction.map) @ kron(delta, eye) == mid
    assert kron(retraction.map, eye) @ kron(eye, delta) == mid


class TestSolveCoseparability:
    def test_grouplike_any_field(self):
        for field in (QQ, F2, F3):
            c = grouplike_coalgebra(field, 2)
            r = solve_coseparability(c)
            assert r is not None
            matrix_coseparability_identities(c, r)
            assert retraction_system(c).satisfied_by(r.map.entries)
            # the diagonal functional sigma(g (x) h) = [g = h] is a solution
            n = 2
            diag = [field.zero()] * (n * n)
            for g in range(n):
                diag[g * n + g] = field.one()
            assert coseparability_system(c).satisfied_by(tuple(diag))

    def test_grouplike_c3_over_f3_feasible(self):
        assert solve_coseparability(grouplike_coalgebra(F3, 3)) is not None

    def test_dual_c3_over_f3_infeasible(self):
        assert solve_coseparability(dual_cyclic_coalgebra(F3, 3)) is None

    def test_dual_c3_over_q_feasible(self):
        assert solve_coseparability(dual_cyclic_coalgebra(QQ, 3)) is not None

    def test_one_dim(self):
        r = solve_coseparability(grouplike_coalgebra(QQ, 1))
        assert to_rows(r.map) == [[1]]

    def test_invalid_input_raises(self):
        c = grouplike_coalgebra(QQ, 2)
        bad = CoalgebraPresentation(c.field, c.dim, c.comult, (1, 0))
        with pytest.raises(InvalidPresentationError):
            solve_coseparability(bad)

    def test_unbalanced_functional_raises(self, monkeypatch):
        # with only the rows sigma . delta = eps, P . delta = id still holds,
        # but the particular functional of Q^C3 is not balanced
        c = dual_cyclic_coalgebra(QQ, 3)

        def counit_rows_only(coalg):
            # the normalization terms through the row builder, no products
            norm, rhs, _ = finalg._dual_terms(coalg)
            return finalg._balanced_system(coalg.field, coalg.dim ** 2, norm, rhs, ())

        monkeypatch.setattr(finalg, "coseparability_system", counit_rows_only)
        with pytest.raises(ArithmeticError, match="balanced"):
            solve_coseparability(c)


class TestEnumerationOracle:
    """Exhaustive search over GF(2) as a solver-independent route."""

    @staticmethod
    def _enumerate(system):
        import itertools
        hits = []
        for cand in itertools.product((0, 1), repeat=system.nvars):
            if system.satisfied_by(cand):
                hits.append(cand)
        return hits

    def test_f2c2_separability_infeasible_by_enumeration(self):
        for build in (separability_system, section_system):
            system = build(c2_algebra(F2))
            assert self._enumerate(system) == []
            assert system.solve() is None

    def test_grouplike_coseparability_count_matches_nullity(self):
        for build in (coseparability_system, retraction_system):
            system = build(grouplike_coalgebra(F2, 2))
            hits = self._enumerate(system)
            sol = system.solve()
            assert sol is not None
            assert len(hits) == 2 ** sol.homogeneous.dim
            assert tuple(sol.particular) in hits


def small_corpus():
    """The criterion-04 cases of dimension at most 6 over Q, F2, F3, F5, and
    the valid mutants among seeds 0..59 of QC2 and of the pair:2 groupoid
    algebra over Q."""
    groups = [cyclic_group(n) for n in (2, 3, 4, 5, 6)] + \
        [klein_four_group(), symmetric_group_s3()]
    groupoids = [pair_groupoid(2),
                 disjoint_union(one_object_groupoid(cyclic_group(2)),
                                one_object_groupoid(cyclic_group(2)))]
    for field in (QQ, F2, F3, FieldSpec.gf(5)):
        yield from (group_algebra(g, field) for g in groups)
        yield from (dual_group_algebra(g, field) for g in groups)
        yield from (groupoid_algebra(gd, field) for gd in groupoids)
    for base in (group_algebra(cyclic_group(2), QQ),
                 groupoid_algebra(pair_groupoid(2), QQ)):
        for seed in range(60):
            m = mutate(base, seed)
            if check_algebra(m.algebra).ok() and check_coalgebra(m.coalgebra).ok():
                yield m


def _shape(solution):
    return None if solution is None else solution.homogeneous.dim


class TestBalancedRows:
    def test_variable_range_is_checked(self):
        for var in (2, -1):
            with pytest.raises(ValueError, match=f"variable index {var} out of range"):
                finalg._balanced_system(QQ, 2, (), (), [(0, 0, 0, 1, 1), (0, 0, 0, var, 1)])

    def test_rows_keep_no_zero_entries(self):
        # x0 - x0 cancels to an empty row, which is dropped; x1 - x1 + x0 keeps x0
        products = [(0, 0, 0, 0, 1), (1, 0, 0, 0, 1),
                    (0, 1, 0, 1, 2), (1, 1, 0, 1, 2), (0, 1, 0, 0, 3)]
        system = finalg._balanced_system(QQ, 2, [(0, 1, 1)], (5,), products)
        assert sorted(system.rows, key=repr) == [({0: 3}, 0), ({1: 1}, 5)]


class TestReducedSystemsMatchOracles:
    """The n^2 systems and the n^3 oracles agree on feasibility and nullity,
    and the returned section and retraction satisfy the oracle rows."""

    def test_corpus(self):
        cases = 0
        for w in small_corpus():
            a, c = w.algebra, w.coalgebra
            assert _shape(separability_system(a).solve()) == \
                _shape(section_system(a).solve())
            assert _shape(coseparability_system(c).solve()) == \
                _shape(retraction_system(c).solve())
            section = solve_separability(a)
            if section is not None:
                assert section_system(a).satisfied_by(section.map.entries)
            retraction = solve_coseparability(c)
            if retraction is not None:
                assert retraction_system(c).satisfied_by(retraction.map.entries)
            cases += 1
        assert cases > 64


def full_separability_system(a) -> ConstraintSystem:
    """separability_system with the rows of every basis element."""
    return finalg._balanced_system(a.field, a.dim ** 2, *finalg._separability_terms(
        a.dim, a.mult.nonzeros(), a.unit))


def full_coseparability_system(c) -> ConstraintSystem:
    """coseparability_system with the rows of every basis element."""
    return finalg._balanced_system(c.field, c.dim ** 2, *finalg._dual_terms(c))


def generator_corpus():
    """The criterion-04 corpus over Q, F2, F3 and F5, and presentations in a
    basis whose structure constants are not 0 and 1."""
    for field in FIELDS:
        yield from weak_hopf_corpus(field)
    for field in (QQ, F5):
        for seed in (1, 2):
            yield rebased(group_algebra(symmetric_group_s3(), field), seed)
            yield rebased(groupoid_algebra(pair_groupoid(2), field), seed)
            yield rebased(dual_group_algebra(cyclic_group(3), field), seed)


class TestGenerators:
    def test_counts(self):
        assert finalg._generators(group_algebra(cyclic_group(12), QQ).algebra) == (1,)
        assert len(finalg._generators(group_algebra(dihedral_group(6), QQ).algebra)) == 2
        dual = dual_group_algebra(cyclic_group(12), QQ)
        assert len(finalg._dual_generators(dual.coalgebra)) == 1
        # the idempotent basis of k^C12: each e_g but the last is new
        assert finalg._generators(dual.algebra) == tuple(range(11))

    def test_stored_once_per_presentation(self):
        w = group_algebra(symmetric_group_s3(), F3)
        gens = finalg._generators(w.algebra)
        assert type(gens) is tuple and finalg._generators(w.algebra) is gens
        dual = finalg._dual_generators(w.coalgebra)
        assert type(dual) is tuple and finalg._dual_generators(w.coalgebra) is dual

    def test_each_set_generates_and_each_generator_is_new(self):
        cases = 0
        for w in generator_corpus():
            for alg, gens in ((w.algebra, finalg._generators(w.algebra)),
                              (dual_algebra(w.coalgebra),
                               finalg._dual_generators(w.coalgebra))):
                assert generated_dim(alg, gens) == alg.dim
                # e_g is outside the subalgebra of the generators before it
                for k, g in enumerate(gens):
                    assert generated_dim(alg, gens[:k] + (g,)) > generated_dim(alg, gens[:k])
            cases += 1
        assert cases == 4 * 18 + 12

    def test_generator_rows_solve_like_all_rows(self):
        # equal solution sets: the same particular solution and kernel basis
        feasible = infeasible = 0
        for w in generator_corpus():
            for reduced, full in (
                    (separability_system(w.algebra), full_separability_system(w.algebra)),
                    (coseparability_system(w.coalgebra),
                     full_coseparability_system(w.coalgebra))):
                assert len(reduced.rows) <= len(full.rows)
                got, want = reduced.solve(), full.solve()
                assert got == want
                feasible += got is not None
                infeasible += got is None
        assert feasible and infeasible


UNVERIFIED_SOLVE = """
from maschke_kit import exactlin, finalg, hopfalgd, hopfcat
from maschke_kit.exactlin import ConstraintSystem, FieldSpec
from maschke_kit.examples import (base_by_name, cyclic_group, dual_group_algebra,
                                  group_algebra, groupoid_by_name,
                                  hopf_category_from_groupoid, pair_hopf_algebroid)

from denselin import add_row, comult_matrix, counit_matrix, unit_matrix

assert False, "assert statements must be stripped in this run"
Q = FieldSpec.rationals()
w = group_algebra(cyclic_group(2), Q)
# generators that generate nothing: only the normalization rows are left, and
# the certificate on the whole basis must refuse their solution.  kC2 over F2
# is infeasible with the true generators, and no longer a verdict without them
kc2_f2 = group_algebra(cyclic_group(2), FieldSpec.gf(2)).algebra
print(finalg.solve_separability(kc2_f2))
generators = finalg._generators, finalg._dual_generators, hopfalgd._generators
finalg._generators = finalg._dual_generators = hopfalgd._generators = lambda a: ()
for solve, arg in ((finalg.solve_separability, w.algebra),
                   # the dual algebra of the coalgebra of k^C2 is kC2
                   (finalg.solve_coseparability,
                    dual_group_algebra(cyclic_group(2), Q).coalgebra),
                   # kC2 as a Hopf algebroid over k
                   (hopfalgd.solve_separability_hgd, hopfalgd.HopfAlgebroidPresentation(
                       base_by_name("k", Q), w.algebra, unit_matrix(w.algebra),
                       unit_matrix(w.algebra), comult_matrix(w.coalgebra),
                       counit_matrix(w.coalgebra), w.antipode)),
                   (finalg.solve_separability, kc2_f2)):
    try:
        solve(arg)
        print("unverified result returned")
    except ArithmeticError:
        print("ArithmeticError")
finalg._generators, finalg._dual_generators, hopfalgd._generators = generators
# systems without rows: the zero solution solves them, but is no section,
# retraction, separability element, coseparability functional or normalized
# integral
finalg.separability_system = lambda a: ConstraintSystem(a.field, a.dim ** 2)
finalg.coseparability_system = lambda c: ConstraintSystem(c.field, c.dim ** 2)
hopfcat.separability_family_system = lambda h: ConstraintSystem(
    h.field, sum(h.dim(x, v) * h.dim(v, x) for x, v in h.hom_pairs()))
hopfalgd.separability_system_hgd = lambda h, q: ConstraintSystem(h.field, q.dim)
hopfalgd.coseparability_system_hgd = lambda h, q: ConstraintSystem(
    h.field, h.base.dim * q.dim)
hopfalgd.integral_system_hgd = lambda h, side, normalized: ConstraintSystem(
    h.field, h.total.dim)
for solve, arg in ((finalg.solve_separability, w.algebra),
                   (finalg.solve_coseparability, w.coalgebra),
                   (hopfcat.solve_separability_family,
                    hopf_category_from_groupoid(groupoid_by_name("conn:C2:2"), Q)),
                   (hopfalgd.solve_separability_hgd,
                    pair_hopf_algebroid(base_by_name("dual", Q))),
                   (hopfalgd.solve_coseparability_hgd,
                    pair_hopf_algebroid(base_by_name("dual", Q))),
                   (lambda h: hopfalgd.solve_integral_hgd(h, "left"),
                    pair_hopf_algebroid(base_by_name("dual", Q)))):
    try:
        solve(arg)
        print("unverified result returned")
    except ArithmeticError:
        print("ArithmeticError")
# a kernel basis vector that fails the row x0 + x1 = 2
row_space = exactlin._row_space
exactlin._row_space = lambda f, dim, rows: row_space(f, dim, [*rows, {0: f.one()}])
system = ConstraintSystem(Q, 2)
add_row(system, {0: 1, 1: 1}, 2)
try:
    system.solve()
    print("unverified kernel returned")
except ArithmeticError:
    print("ArithmeticError")
"""


def test_unverified_solutions_raise_under_optimization():
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, os.path.dirname(__file__))))
    run = subprocess.run([sys.executable, "-O", "-c", UNVERIFIED_SOLVE],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["None"] + ["ArithmeticError"] * 11
