import os
import subprocess
import sys
from fractions import Fraction

import pytest

import maschke_kit
from maschke_kit.exactlin import FieldSpec, Matrix, kron
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

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)


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
    eye = Matrix.identity(a.field, n)
    mu = a.mult_matrix()
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
        flat = tuple(section.map.entries)
        assert separability_system(a).satisfied_by(flat)


def matrix_coseparability_identities(c, retraction):
    n = c.dim
    eye = Matrix.identity(c.field, n)
    delta = c.comult_matrix()
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
            # the diagonal retraction pi(g (x) h) = [g = h] g is a solution
            n = 2
            diag = [field.zero()] * (n * n * n)
            for g in range(n):
                diag[g * n * n + g * n + g] = field.one()
            assert coseparability_system(c).satisfied_by(tuple(diag))

    def test_grouplike_c3_over_f3_feasible(self):
        assert solve_coseparability(grouplike_coalgebra(F3, 3)) is not None

    def test_dual_c3_over_f3_infeasible(self):
        assert solve_coseparability(dual_cyclic_coalgebra(F3, 3)) is None

    def test_dual_c3_over_q_feasible(self):
        assert solve_coseparability(dual_cyclic_coalgebra(QQ, 3)) is not None

    def test_one_dim(self):
        r = solve_coseparability(grouplike_coalgebra(QQ, 1))
        assert r.map.to_rows() == [[1]]

    def test_invalid_input_raises(self):
        c = grouplike_coalgebra(QQ, 2)
        bad = CoalgebraPresentation(c.field, c.dim, c.comult, (1, 0))
        with pytest.raises(InvalidPresentationError):
            solve_coseparability(bad)


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
        a = c2_algebra(F2)
        system = separability_system(a)
        assert self._enumerate(system) == []
        assert system.solve() is None

    def test_grouplike_coseparability_count_matches_nullity(self):
        c = grouplike_coalgebra(F2, 2)
        system = coseparability_system(c)
        hits = self._enumerate(system)
        sol = system.solve()
        assert sol is not None
        assert len(hits) == 2 ** sol.homogeneous.dim
        assert tuple(sol.particular) in hits


UNVERIFIED_SOLVE = """
from maschke_kit import finalg
from maschke_kit.exactlin import ConstraintSystem, FieldSpec
from maschke_kit.examples import cyclic_group, group_algebra

assert False, "assert statements must be stripped in this run"
w = group_algebra(cyclic_group(2), FieldSpec.rationals())
# systems without rows: the zero map solves them, but is no section/retraction
finalg.separability_system = lambda a: ConstraintSystem(a.field, a.dim ** 3)
finalg.coseparability_system = lambda c: ConstraintSystem(c.field, c.dim ** 3)
for solve, arg in ((finalg.solve_separability, w.algebra),
                   (finalg.solve_coseparability, w.coalgebra)):
    try:
        solve(arg)
        print("unverified result returned")
    except ArithmeticError:
        print("ArithmeticError")
"""


def test_unverified_solutions_raise_under_optimization():
    src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", UNVERIFIED_SOLVE],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["ArithmeticError", "ArithmeticError"]
