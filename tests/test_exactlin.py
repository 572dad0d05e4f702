import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maschke_kit import exactlin
from maschke_kit.exactlin import (
    MAX_SCALAR_DIGITS,
    AffineSolution,
    ConstraintSystem,
    FieldSpec,
    Frozen,
    FrozenInstanceError,
    Matrix,
    Subspace,
    Tensor3,
    quotient_space,
    unit_vec,
)
from maschke_kit.examples import (cyclic_group, dual_group_algebra, group_algebra,
                                  groupoid_algebra, pair_groupoid, symmetric_group_s3)
from maschke_kit.finalg import AlgebraPresentation, AxiomFailure, AxiomReport, \
    _once, check_algebra, solve_separability
from maschke_kit.weakhopf import SIDES, VARIANTS, cointegral_system, integral_system, \
    solve_integral

from denselin import (add_matrix_rows, add_row, apply, dense_reduce, flip_matrix, identity,
                      is_zero, kernel, kron, mat_sub, matrix_from_rows, membership, project,
                      section, solve_affine, subspace_from_rows, to_rows, transpose, zero_vec)

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)

FIELDS = [QQ, F2, F3, F5, FieldSpec.gf(7)]


def rref(m: Matrix) -> tuple:
    """Dense reduced row echelon form and pivot columns: an oracle written
    apart from the package's sparse eliminator."""
    f = m.field
    sub, mul, inv = f.sub, f.mul, f.inv
    rows = to_rows(m)
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = inv(rows[r][c])
        rows[r] = [mul(s, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                t = rows[i][c]
                rows[i] = [sub(x, mul(t, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return matrix_from_rows(f, rows) if nr else m, tuple(pivots)


def dense_solve(m: Matrix, b):
    """(particular, homogeneous basis) of m.x = b from dense rref, or None.

    The particular solution sets free variables to zero; the homogeneous
    basis is the rref of the null-space vectors, one per free column.
    """
    f = m.field
    red, piv = rref(matrix_from_rows(f, [list(m.row(i)) + [b[i]] for i in range(m.rows)]))
    if m.cols in piv:
        return None
    x = [f.zero()] * m.cols
    for i, p in enumerate(piv):
        x[p] = red.at(i, m.cols)
    kern = []
    for fc in (c for c in range(m.cols) if c not in piv):
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for i, p in enumerate(piv):
            v[p] = f.neg(red.at(i, fc))
        kern.append(v)
    basis = rref(matrix_from_rows(f, kern))[0] if kern else Matrix.zeros(f, 0, m.cols)
    return tuple(x), basis


def brute_force_solutions(field, m, b):
    """Enumerate all solutions of m.x = b over a small prime field."""
    p = field.characteristic
    sols = []
    for cand in itertools.product(range(p), repeat=m.cols):
        if apply(m, cand) == tuple(field.coerce(x) for x in b):
            sols.append(cand)
    return sols


class TestFieldSpec:
    def test_rationals(self):
        assert QQ.kind == "Q"
        assert QQ.coerce("3/2") == Fraction(3, 2)
        assert QQ.format_scalar(Fraction(-3, 2)) == "-3/2"
        assert QQ.parse_scalar("2") == 2

    def test_prime_field(self):
        assert F5.coerce(7) == 2
        assert F5.inv(2) == 3
        assert F5.coerce(Fraction(1, 2)) == 3
        assert F5.format_scalar(9) == "4"

    def test_nonprime_rejected(self):
        for bad in (1, 4, 6, 9, 2**31):
            with pytest.raises(ValueError):
                FieldSpec.gf(bad)

    def test_large_prime_ok(self):
        FieldSpec.gf(2**31 - 1)

    def test_canonical_scalars_pass_through(self):
        half = Fraction(1, 2)
        assert QQ.coerce(half) is half
        assert F5.coerce(4) == 4 and F5.coerce(5) == 0
        assert F5.coerce(7) == 2 and F5.coerce(-1) == 4
        assert type(QQ.coerce(3)) is int
        assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(Fraction(6, 3)) == 2
        for field in (QQ, F5):
            for flag in (True, False):
                with pytest.raises(TypeError):
                    field.coerce(flag)

    @given(st.fractions(max_denominator=4), st.fractions(max_denominator=4))
    @settings(max_examples=200, deadline=None)
    def test_q_arithmetic_is_fraction_arithmetic_on_canonical_scalars(self, a, b):
        # int exactly when integral, otherwise a Fraction in lowest terms
        def canonical(x, want):
            return x == want and type(x) is (int if want.denominator == 1 else Fraction)

        ca, cb = QQ.coerce(a), QQ.coerce(b)
        assert canonical(ca, a) and canonical(cb, b)
        assert canonical(QQ.coerce(str(a)), a)
        assert canonical(QQ.add(ca, cb), a + b)
        assert canonical(QQ.sub(ca, cb), a - b)
        assert canonical(QQ.mul(ca, cb), a * b)
        assert canonical(QQ.neg(ca), -a)
        if a:
            assert canonical(QQ.inv(ca), 1 / a)
        else:
            with pytest.raises(ZeroDivisionError):
                QQ.inv(ca)
        assert QQ.format_scalar(ca) == str(a)

    def test_q_solver_outputs_are_canonical(self):
        def assert_canonical(entries):
            entries = list(entries)
            assert entries
            for x in entries:
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x
            return entries

        w = group_algebra(symmetric_group_s3(), QQ)
        integral = solve_integral(w, "left", "primed", True)
        assert set(assert_canonical(integral.solutions.particular)) == {Fraction(1, 6)}
        sep = solve_separability(w.algebra)
        assert set(assert_canonical(sep.element)) == {0, Fraction(1, 6)}
        assert_canonical(sep.map.entries)
        sys = ConstraintSystem(QQ, 4)
        add_row(sys, {0: 2, 1: 4, 3: Fraction(1, 3)}, 6)
        add_row(sys, {1: Fraction(3, 2), 2: 3}, Fraction(1, 2))
        sol = sys.solve()
        assert_canonical(sol.particular)
        assert_canonical(sol.homogeneous.basis.entries)
        assert {type(x) for x in sol.particular + sol.homogeneous.basis.entries} \
            == {int, Fraction}

    def test_denominator_vanishing_mod_p(self):
        with pytest.raises(ValueError):
            F2.coerce(Fraction(1, 2))

    def test_scalar_token_size_is_capped(self):
        cap = MAX_SCALAR_DIGITS
        for field in (QQ, F5):
            assert field.parse_scalar(f"1e{cap}") == field.coerce(10 ** cap)
            assert field.parse_scalar("9" * cap) == field.coerce(int("9" * cap))
            for token in (f"1e{cap + 1}", f"1E-{cap + 1}", "9" * (cap + 1),
                          "1/" + "7" * (cap + 1)):
                with pytest.raises(ValueError, match=str(cap)):
                    field.parse_scalar(token)
        assert QQ.parse_scalar(f"1e-{cap}") == Fraction(1, 10 ** cap)

    @pytest.mark.parametrize("token", [
        "7", "007", "-3", "+3", "-0", " 5 ", "1_000", "\u0663", "3.0", "1e2",
        "1/2", "2/4", "1/0", "5/5", "", "abc", "9" * (MAX_SCALAR_DIGITS + 1),
        f"1e{MAX_SCALAR_DIGITS + 1}",
    ], ids=["7", "007", "-3", "+3", "-0", "spaced-5", "1_000", "arabic-indic-3",
            "3.0", "1e2", "1/2", "2/4", "1/0", "5/5", "empty", "abc",
            "4001-digits", "exponent-4001"])
    def test_integer_tokens_parse_as_through_fraction(self, token):
        # parse_scalar reads a signed ASCII-digit token with int(); every
        # token must come out as it does through Fraction, value and type,
        # or fail with the same exception type
        def through_fraction(field, text):
            try:
                x = Fraction(exactlin._bounded_token(text.strip()))
            except ZeroDivisionError:
                raise ValueError("zero denominator") from None
            p = field.characteristic
            if p == 0:
                return x.numerator if x.denominator == 1 else x
            if x.denominator % p == 0:
                raise ValueError("denominator vanishes")
            return x.numerator * pow(x.denominator, -1, p) % p

        def outcome(parse):
            try:
                value = parse()
            except Exception as exc:  # noqa: BLE001 - the type is compared
                return type(exc)
            return type(value), value

        for field in (QQ, F2, F5):
            assert outcome(lambda: field.parse_scalar(token)) == \
                outcome(lambda: through_fraction(field, token)), (str(field), token)


class TestMatrix:
    def test_mixed_field_rejected(self):
        a = identity(QQ, 2)
        b = identity(F2, 2)
        with pytest.raises(ValueError):
            a @ b
        with pytest.raises(ValueError):
            mat_sub(a, b)
        with pytest.raises(ValueError):
            kron(a, b)

    def test_matmul_and_apply(self):
        a = matrix_from_rows(QQ, [[1, 2], [3, 4]])
        b = matrix_from_rows(QQ, [[0, 1], [1, 0]])
        assert to_rows(a @ b) == [[2, 1], [4, 3]]
        assert apply(a, (1, 1)) == (3, 7)

    def test_transpose_roundtrip(self):
        a = matrix_from_rows(F3, [[1, 2, 0], [0, 1, 1]])
        assert transpose(transpose(a)) == a

    def test_columns_are_built_once(self):
        a = matrix_from_rows(F5, [[1, 0, 2], [0, 0, 3], [4, 0, 0]])
        cols = a.columns()
        assert cols == (((0, 1), (2, 4)), (), ((0, 2), (1, 3)))
        assert a.columns() is cols
        assert Matrix.zeros(QQ, 2, 0).columns() == ()
        assert Matrix.zeros(QQ, 0, 2).columns() == ((), ())

    def test_stored_columns_leave_equality_hash_and_repr(self):
        rows = [[1, Fraction(1, 2)], [0, -3]]
        a, b = matrix_from_rows(QQ, rows), matrix_from_rows(QQ, rows)
        a.columns()
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert a != matrix_from_rows(QQ, [[1, 0], [0, -3]])

    def test_empty_shapes(self):
        a = Matrix.zeros(QQ, 0, 3)
        b = Matrix.zeros(QQ, 3, 0)
        assert (a @ transpose(transpose(b))).rows == 0
        assert apply(a, (1, 2, 3)) == ()


class TestRref:
    def test_zero_matrix(self):
        m = Matrix.zeros(QQ, 2, 2)
        red, piv = rref(m)
        assert red == m and piv == ()

    def test_identity(self):
        m = identity(QQ, 2)
        red, piv = rref(m)
        assert red == m and piv == (0, 1)

    def test_rank_one(self):
        # hand Gaussian elimination: [[2,4],[1,2]] -> [[1,2],[0,0]]
        m = matrix_from_rows(QQ, [[2, 4], [1, 2]])
        red, piv = rref(m)
        assert to_rows(red) == [[1, 2], [0, 0]]
        assert piv == (0,)

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, nr, nc, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 6 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        m = matrix_from_rows(field, rows)
        red, piv = rref(m)
        red2, piv2 = rref(red)
        assert red2 == red and piv2 == piv


class TestKernel:
    def test_identity_kernel_zero(self):
        assert kernel(identity(QQ, 3)).dim == 0

    def test_zero_matrix_full_kernel(self):
        k = kernel(Matrix.zeros(QQ, 2, 3))
        assert k.dim == 3

    def test_gf2_line(self):
        # enumerate the 4 vectors of GF(2)^2: kernel of [1 1] is {00, 11}
        m = matrix_from_rows(F2, [[1, 1]])
        k = kernel(m)
        assert k.dim == 1
        assert k.contains((1, 1))
        assert not k.contains((1, 0))
        enumerated = [v for v in itertools.product(range(2), repeat=2)
                      if apply(m, v) == (0,)]
        assert enumerated == [(0, 0), (1, 1)]

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, nr, nc, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 6 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        m = matrix_from_rows(field, rows)
        _, piv = rref(m)
        assert len(piv) + kernel(m).dim == nc


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(identity(QQ, 1), (5,))
        assert sol.particular == (Fraction(5),)
        assert sol.homogeneous.dim == 0

    def test_gf2_affine_line(self):
        sol = solve_affine(matrix_from_rows(F2, [[1, 1]]), (1,))
        assert sol.particular == (1, 0)
        assert to_rows(sol.homogeneous.basis) == [[1, 1]]

    def test_infeasible(self):
        assert solve_affine(matrix_from_rows(QQ, [[0]]), (1,)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_affine(identity(QQ, 2), (1,))

    @given(st.integers(1, 3), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_over_gf(self, nr, nc, data):
        field = data.draw(st.sampled_from([F2, F3, F5, FieldSpec.gf(7)]))
        p = field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=nr, max_size=nr))
        m = matrix_from_rows(field, rows)
        sol = solve_affine(m, tuple(b))
        enumerated = brute_force_solutions(field, m, b)
        if sol is None:
            assert enumerated == []
        else:
            assert apply(m, sol.particular) == tuple(field.coerce(x) for x in b)
            for i in range(sol.homogeneous.dim):
                assert apply(m, sol.homogeneous.basis.row(i)) == zero_vec(field, nr)
            # solution-set size: p ** (kernel dim)
            assert len(enumerated) == p ** sol.homogeneous.dim
            assert tuple(sol.particular) in enumerated

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_verified_exactly(self, nr, nc, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 6 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        b = data.draw(st.lists(st.integers(-hi, hi), min_size=nr, max_size=nr))
        m = matrix_from_rows(field, rows)
        sol = solve_affine(m, tuple(field.coerce(x) for x in b))
        if sol is not None:
            assert apply(m, sol.particular) == tuple(field.coerce(x) for x in b)
            for i in range(sol.homogeneous.dim):
                assert apply(m, sol.homogeneous.basis.row(i)) == zero_vec(field, nr)
        else:
            red, piv = rref(m)
            aug = matrix_from_rows(field, [list(m.row(i)) + [b[i]] for i in range(nr)])
            _, piv_aug = rref(aug)
            assert len(piv_aug) != len(piv)


class TestMembership:
    def test_zero_in_anything(self):
        s = subspace_from_rows(QQ, 2, [[1, 1]])
        assert membership((0, 0), s)

    def test_line_membership(self):
        s = subspace_from_rows(QQ, 2, [[1, 1]])
        assert not membership((1, 0), s)
        assert membership((2, 2), s)

    def test_dimension_mismatch(self):
        s = subspace_from_rows(QQ, 2, [[1, 1]])
        with pytest.raises(ValueError):
            membership((1, 0, 0), s)


class TestQuotientSpace:
    def test_trivial_relations(self):
        q = quotient_space(3, Subspace(QQ, 3, ()))
        assert q.free == (0, 1, 2)
        assert q.projection == identity(QQ, 3)
        assert section(q) == identity(QQ, 3)

    def test_line_quotient(self):
        rel = subspace_from_rows(QQ, 2, [[1, -1]])
        q = quotient_space(2, rel)
        assert q.dim == 1
        assert q.free == (1,)
        assert q.projection @ section(q) == identity(QQ, 1)
        for i in range(rel.dim):
            assert project(q, rel.basis.row(i)) == zero_vec(QQ, 1)

    def test_full_relations(self):
        rel = subspace_from_rows(QQ, 2, [[1, 0], [0, 1]])
        q = quotient_space(2, rel)
        assert q.dim == 0

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_projection_section_laws(self, amb, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 4 if field.characteristic == 0 else field.characteristic
        nrel = data.draw(st.integers(0, amb))
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=amb, max_size=amb),
                     min_size=nrel, max_size=nrel))
        rel = subspace_from_rows(field, amb, rows) if rows else Subspace(field, amb, ())
        q = quotient_space(amb, rel)
        assert q.dim == amb - rel.dim
        assert q.projection @ section(q) == identity(field, q.dim)
        assert kernel(q.projection).basis == rel.basis


class TestKron:
    def test_identities(self):
        assert kron(identity(QQ, 2), identity(QQ, 3)) == identity(QQ, 6)

    def test_zero_factor(self):
        a = matrix_from_rows(QQ, [[1, 2]])
        z = Matrix.zeros(QQ, 2, 2)
        assert is_zero(kron(a, z))

    def test_direct_expansion(self):
        a = matrix_from_rows(QQ, [[1, 2]])
        b = matrix_from_rows(QQ, [[3], [4]])
        assert to_rows(kron(a, b)) == [[3, 6], [4, 8]]

    def test_flip_is_involution(self):
        fl = flip_matrix(QQ, 2, 3)
        fl2 = flip_matrix(QQ, 3, 2)
        assert fl2 @ fl == identity(QQ, 6)

    def test_mixed_product_law(self):
        a = matrix_from_rows(QQ, [[1, 1], [0, 2]])
        b = matrix_from_rows(QQ, [[2, 0], [1, 1]])
        c = matrix_from_rows(QQ, [[1], [3]])
        d = matrix_from_rows(QQ, [[0], [1]])
        assert kron(a @ c, b @ d) == kron(a, b) @ kron(c, d)


class TestTensor3:
    def test_shape_and_access(self):
        t = Tensor3.from_nested(QQ, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        assert t.at(0, 0, 0) == 1 and t.at(1, 1, 1) == 1
        assert set(t.nonzeros()) == {(0, 0, 0, Fraction(1)), (1, 1, 1, Fraction(1))}

    def test_with_entry(self):
        t = Tensor3.zeros(F3, 2, 2, 2)
        t2 = t.with_entry(1, 0, 1, 5)
        assert t2.at(1, 0, 1) == 2
        assert t.at(1, 0, 1) == 0


class TestConstraintSystem:
    def test_matches_dense_solver(self):
        m = matrix_from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        b = (1, 2, 0)
        particular, basis = dense_solve(m, b)
        sys = ConstraintSystem(QQ, 3)
        add_matrix_rows(sys, m, b)
        sparse = sys.solve()
        assert particular == sparse.particular
        assert basis == sparse.homogeneous.basis

    def test_infeasible_detection(self):
        sys = ConstraintSystem(F3, 2)
        add_row(sys, {0: 1, 1: 1}, 1)
        add_row(sys, {0: 2, 1: 2}, 1)
        assert sys.solve() is None

    def test_no_vars(self):
        sys = ConstraintSystem(QQ, 0)
        add_row(sys, {}, 0)
        sol = sys.solve()
        assert sol.particular == ()
        sys2 = ConstraintSystem(QQ, 0)
        add_row(sys2, {}, 1)
        assert sys2.solve() is None

    def test_satisfied_by(self):
        sys = ConstraintSystem(QQ, 2)
        add_row(sys, {0: 1, 1: 1}, 3)
        assert sys.satisfied_by((1, 2))
        assert not sys.satisfied_by((1, 1))

    def test_kernel_is_certified_against_every_row(self, monkeypatch):
        # a kernel basis vector that fails a row raises, as a wrong particular
        # solution does: once with a kernel (x0 + x1 = 2) and once without
        row_space = exactlin._row_space
        monkeypatch.setattr(exactlin, "_row_space", lambda f, dim, rows: row_space(
            f, dim, [*rows, {0: f.one()}]))
        for rows in (({0: 1, 1: 1}, 2),), (({0: 1}, 1), ({1: 1}, 2)):
            sys = ConstraintSystem(QQ, 2)
            for row, rhs in rows:
                add_row(sys, row, rhs)
            with pytest.raises(ArithmeticError, match="kernel"):
                sys.solve()
        monkeypatch.setattr(exactlin, "_row_space", row_space)
        assert sys.solve().homogeneous.dim == 0

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_dense_on_random_systems(self, nr, nc, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 5 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        b = data.draw(st.lists(st.integers(-hi, hi), min_size=nr, max_size=nr))
        m = matrix_from_rows(field, rows)
        b = tuple(field.coerce(x) for x in b)
        dense = dense_solve(m, b)
        sys = ConstraintSystem(field, nc)
        add_matrix_rows(sys, m, b)
        sparse = sys.solve()
        if dense is None:
            assert sparse is None
        else:
            assert sparse.particular == dense[0]
            assert sparse.homogeneous.basis == dense[1]

    def test_row_order_does_not_change_the_solution(self):
        # solve() ends in the reduced echelon form of the rows, which no
        # permutation of the rows changes: every shuffle gives an equal
        # AffineSolution, or None again
        rng = random.Random(14)
        systems = []
        for field in (QQ, F2, F3, F5):
            for _ in range(30):
                nvars = rng.randint(1, 6)
                sys = ConstraintSystem(field, nvars)
                for _ in range(rng.randint(1, 8)):
                    cols = rng.sample(range(nvars), rng.randint(1, nvars))
                    add_row(sys, {c: rng.randint(-3, 3) for c in cols}, rng.randint(-2, 2))
                systems.append(sys)
            for w in (group_algebra(cyclic_group(3), field),
                      dual_group_algebra(cyclic_group(2), field),
                      groupoid_algebra(pair_groupoid(2), field)):
                for side, variant, normalized in itertools.product(
                        SIDES, VARIANTS, (True, False)):
                    systems += [integral_system(w, side, variant, normalized),
                                cointegral_system(w, side, variant, normalized)]
        outcomes = set()
        for sys in systems:
            want = sys.solve()
            outcomes.add(want is None)
            for _ in range(5):
                shuffled = ConstraintSystem(sys.field, sys.nvars)
                for row, rhs in rng.sample(sys.rows, len(sys.rows)):
                    add_row(shuffled, row, rhs)
                assert shuffled.solve() == want
        assert outcomes == {True, False}


    def test_resumed_solve_equals_solve_from_scratch(self):
        # the rows of a solved system, then more rows resumed from its pivots:
        # the same solution set as all rows at once, or None again
        rng = random.Random(20)
        outcomes = set()
        for field in (QQ, F2, F3, F5):
            for _ in range(60):
                nvars = rng.randint(1, 6)
                primed, extras, full = (ConstraintSystem(field, nvars) for _ in range(3))
                for target in [primed] * rng.randint(1, 5) + [extras] * rng.randint(0, 5):
                    cols = rng.sample(range(nvars), rng.randint(1, nvars))
                    row, rhs = {c: rng.randint(-3, 3) for c in cols}, rng.randint(-2, 2)
                    add_row(target, row, rhs)
                    add_row(full, row, rhs)
                if primed.solve() is None:
                    continue
                pivots = {c: (dict(row), rhs) for c, (row, rhs) in primed.pivots.items()}
                want = full.solve()
                assert extras.solve(primed) == want
                # the primed pivot rows are copied, not changed
                assert primed.pivots == pivots
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_resumed_solve_is_certified_against_the_primed_rows(self):
        primed = ConstraintSystem(QQ, 2)
        add_row(primed, {0: 1, 1: 1}, 2)
        primed.solve()
        primed.rows[0] = ({0: 1, 1: 1}, 3)
        extras = ConstraintSystem(QQ, 2)
        add_row(extras, {0: 1, 1: -1}, 0)
        with pytest.raises(ArithmeticError, match="unverified solution"):
            extras.solve(primed)

    def test_resume_needs_a_solved_primed_system_on_the_same_unknowns(self):
        primed = ConstraintSystem(QQ, 2)
        add_row(primed, {0: 1}, 1)
        with pytest.raises(ValueError, match="solved feasible system"):
            ConstraintSystem(QQ, 2).solve(primed)
        primed.solve()
        with pytest.raises(ValueError, match="same unknowns"):
            ConstraintSystem(QQ, 3).solve(primed)
        assert ConstraintSystem(QQ, 2).solve(primed).particular == (1, 0)


LARGE_P = 2**31 - 1


@st.composite
def subspace_and_vectors(draw):
    """A subspace over Q or GF(2, 3, 5, 2^31 - 1), and vectors in and out of
    it whose entries are not always canonical: over GF(p) ints outside
    [0, p) and Fractions whose denominators p does not divide, over Q
    integral Fractions."""
    field = draw(st.sampled_from([QQ, F2, F3, F5, FieldSpec.gf(LARGE_P)]))
    p = field.characteristic
    amb = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(small, min_size=amb, max_size=amb), max_size=amb))
    s = subspace_from_rows(field, amb, rows) if rows else Subspace(field, amb, ())

    def disguise(x):
        # another name for the scalar x of field
        how = draw(st.integers(0, 2))
        if how == 1:
            return Fraction(x) if p == 0 else x + draw(st.integers(-3, 3)) * p
        if how == 2 and p:
            d = draw(st.sampled_from([d for d in (1, 3, 7, 11) if d % p]))
            return Fraction(x * d + draw(st.integers(-2, 2)) * p, d)
        return x

    vectors = []
    for _ in range(3):
        coeffs = [field.coerce(c) for c in draw(st.lists(small, min_size=s.dim,
                                                          max_size=s.dim))]
        member = [field.zero()] * amb
        for c, i in zip(coeffs, range(s.dim)):
            member = [field.add(a, field.mul(c, b)) for a, b in zip(member, s.basis.row(i))]
        vectors.append(member)
        noise = draw(st.lists(small, min_size=amb, max_size=amb))
        vectors.append([field.add(a, field.coerce(b)) for a, b in zip(member, noise)])
    return s, [tuple(map(disguise, v)) for v in vectors]


class TestSubspace:
    @given(subspace_and_vectors())
    @settings(max_examples=300, deadline=None)
    def test_coords_and_contains_match_the_dense_reduction(self, drawn):
        s, vectors = drawn
        f = s.field
        for v in vectors:
            member = all(x == 0 for x in dense_reduce(s, v))
            assert s.contains(v) is member
            coords = s.coords(v)
            if not member:
                assert coords is None
                continue
            assert coords == tuple(f.coerce(v[p]) for p in s.pivots)
            assert all(f.coerce(c) == c and type(c) is type(f.coerce(c)) for c in coords)

    def test_row_terms_are_the_nonzeros_of_the_basis_rows(self):
        s = subspace_from_rows(F3, 4, [[1, 2, 0, 1], [0, 0, 1, 2]])
        assert s.row_terms == (((0, 1), (1, 2), (3, 1)), ((2, 1), (3, 2)))
        assert Subspace(QQ, 3, ()).row_terms == ()

    def test_coords_roundtrip(self):
        s = subspace_from_rows(QQ, 3, [[1, 0, 2], [0, 1, -1]])
        v = (2, 3, 1)
        coords = s.coords(v)
        assert coords == (2, 3)
        rebuilt = [QQ.zero()] * 3
        for c, i in zip(coords, range(s.dim)):
            for j in range(3):
                rebuilt[j] += c * s.basis.at(i, j)
        assert tuple(rebuilt) == tuple(map(Fraction, v))

    def test_invalid_basis_rejected(self):
        with pytest.raises(ValueError, match="pivot entry must be 1"):
            Subspace(QQ, 2, (((0, 2),),))
        with pytest.raises(ValueError, match="strictly increasing"):
            Subspace(QQ, 2, (((1, 1),), ((0, 1),)))
        with pytest.raises(ValueError):
            subspace_from_rows(QQ, 2, [[1, 0], [0, 0, 1]])
        with pytest.raises(ValueError, match="zero row"):
            Subspace(QQ, 2, (((0, 1),), ()))
        with pytest.raises(ValueError, match="not reduced"):
            Subspace(QQ, 3, (((0, 1), (1, 1)), ((1, 1),)))
        with pytest.raises(ValueError, match="not reduced"):
            Subspace(QQ, 3, (((0, 1), (2, 2)), ((1, 1),), ((2, 1),)))

    def test_rows_outside_the_ambient_space_rejected(self):
        # the sparse counterpart of a dense basis of the wrong width
        for rows in ((((0, 1), (2, 1)),), (((-1, 1),),), (((0, 1),), ((2, 1),))):
            with pytest.raises(ValueError, match="outside ambient_dim"):
                Subspace(QQ, 2, rows)
        with pytest.raises(ValueError, match="ambient dimension"):
            Subspace(QQ, exactlin.MAX_AXIS + 1, ())

    @given(st.integers(0, 5), st.integers(0, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_space_matches_the_dense_rref(self, nr, nc, data):
        # no rows, zero rows and dependent rows (a row repeated, or a sum of
        # two drawn rows) over Q and GF(2, 3, 5)
        field = data.draw(st.sampled_from([QQ, F2, F3, F5]))
        hi = 4 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     max_size=nr))
        rows = [[field.coerce(x) for x in r] for r in rows]
        if rows and data.draw(st.booleans()):
            rows.append([0] * nc)
        if len(rows) > 1 and data.draw(st.booleans()):
            i, j = data.draw(st.tuples(st.integers(0, len(rows) - 1),
                                       st.integers(0, len(rows) - 1)))
            rows.append([field.add(a, b) for a, b in zip(rows[i], rows[j])])
        s = exactlin._row_space(field, nc, [{j: v for j, v in enumerate(r) if v != 0}
                                            for r in rows])
        echelon, pivots = rref(matrix_from_rows(field, rows)) if rows else \
            (Matrix.zeros(field, 0, nc), ())
        rank = len(pivots)
        assert s.basis == Matrix(field, rank, nc, echelon.entries[:rank * nc])
        assert s.pivots == pivots and s.dim == rank
        assert s.row_terms == tuple(
            tuple((j, v) for j, v in enumerate(s.basis.row(i)) if v != 0)
            for i in range(rank))
        assert s == Subspace(field, nc, s.row_terms)

    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pivots_are_the_leading_columns(self, nr, nc, data):
        field = data.draw(st.sampled_from(FIELDS))
        hi = 6 if field.characteristic == 0 else field.characteristic
        rows = data.draw(
            st.lists(st.lists(st.integers(-hi, hi), min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr))
        s = subspace_from_rows(field, nc, rows)
        assert s.pivots == rref(matrix_from_rows(field, rows))[1]
        assert s.pivots is s.pivots


def test_unit_vec():
    assert unit_vec(QQ, 3, 1) == (0, 1, 0)


class TestFrozenRecords:
    def test_equality_and_hash_by_value(self):
        a = Matrix(QQ, 1, 2, (Fraction(1), Fraction(2)))
        b = matrix_from_rows(QQ, [[1, 2]])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != matrix_from_rows(QQ, [[1, 3]])
        assert FieldSpec(5) == FieldSpec.gf(5) != FieldSpec(7)
        assert len({FieldSpec(0), FieldSpec.rationals(), F5}) == 2

    def test_inequality_across_classes(self):
        class Twin(Frozen):
            characteristic: int

        assert Twin(5) != FieldSpec(5) and FieldSpec(5) != Twin(5)
        assert AxiomReport() != ()

    def test_keyword_positional_and_defaults(self):
        assert AxiomFailure("law", (0,)) == \
            AxiomFailure(witness=(0,), law="law", detail="")
        assert AxiomFailure("law", (0,)).detail == ""
        assert AxiomReport() == AxiomReport((), ()) == AxiomReport(warnings=())
        assert Matrix(QQ, 0, 0, ()) == Matrix(field=QQ, rows=0, cols=0, entries=())

    @pytest.mark.parametrize("args, kwargs", [
        ((QQ, 1, 1), {}),
        ((QQ, 1, 1, (1,), 5), {}),
        ((QQ, 1, 1), {"entry": (1,)}),
        ((QQ, 1, 1, (1,)), {"rows": 1}),
        ((), {"field": QQ}),
    ])
    def test_wrong_arity_or_keyword_raises(self, args, kwargs):
        with pytest.raises(TypeError):
            Matrix(*args, **kwargs)

    def test_assignment_and_deletion_raise(self):
        f = FieldSpec(3)
        for act in (lambda: setattr(f, "characteristic", 5),
                    lambda: setattr(f, "other", 1),
                    lambda: delattr(f, "characteristic")):
            with pytest.raises(FrozenInstanceError):
                act()
        assert issubclass(FrozenInstanceError, AttributeError)
        assert f.characteristic == 3

    def test_post_init_still_validates(self):
        with pytest.raises(ValueError, match="not prime"):
            FieldSpec(4)
        with pytest.raises(ValueError, match="entry count"):
            Matrix(QQ, 2, 2, (1, 2, 3))

    def test_repr_matches_field_order(self):
        assert repr(FieldSpec(5)) == "FieldSpec(characteristic=5)"
        assert repr(AxiomFailure("law", (1, 2))) == \
            "AxiomFailure(law='law', witness=(1, 2), detail='')"

    def test_records_cannot_be_subclassed(self):
        with pytest.raises(TypeError):
            class Wider(FieldSpec):
                pass

    def test_stored_results_on_frozen_presentation(self):
        a = AlgebraPresentation.make(QQ, [[[1]]], [1])
        assert check_algebra(a) is check_algebra(a)
        assert vars(a)["_once_check_algebra"][()] is check_algebra(a)
        assert a == AlgebraPresentation.make(QQ, [[[1]]], [1])

    def test_stored_results_keyed_by_arguments(self):
        w = group_algebra(cyclic_group(2), QQ)
        sol = solve_integral(w, "left", "primed", True)
        stored = vars(w)["_once__integral_solution"]
        assert stored[("left", "primed", True)] is sol
        assert ("right", "primed", True) not in stored
        with pytest.raises(TypeError, match="str or bool"):
            _once(lambda presentation, arg: arg)(w, 1)

    def test_stored_results_keep_argument_tuples_apart(self):
        # joined into one attribute name, ("x_y",) and ("x", "y") met, and so
        # did (True,) and ("True",): the second call got the first one's result
        calls = []

        def args(presentation, *rest):
            calls.append(rest)
            return rest

        stored = _once(args)
        w = group_algebra(cyclic_group(2), QQ)
        keys = [("x_y",), ("x", "y"), (True,), ("True",), ("1",), ()]
        for _ in range(2):
            assert [stored(w, *key) for key in keys] == keys
        assert calls == keys
        with pytest.raises(TypeError, match="str or bool"):
            stored(w, None)

    def test_cli_import_skips_dataclasses_and_inspect(self):
        import maschke_kit
        src = os.path.dirname(os.path.dirname(maschke_kit.__file__))
        code = ("import sys, maschke_kit.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src),
                             timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"


def test_dense_kron_machinery_left_the_package():
    import maschke_kit
    from maschke_kit import exactlin
    for name in ("kron", "flip_matrix", "kernel", "solve_affine"):
        assert not hasattr(exactlin, name), name
    assert not hasattr(exactlin.Matrix, "from_cols")
    src = os.path.dirname(maschke_kit.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                assert "kron(" not in fh.read(), name
