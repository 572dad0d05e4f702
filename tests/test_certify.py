"""The exact certificate of ConstraintSystem.solve, and the solvers' own.

``satisfied_by`` takes each row as one native integer sum; ``oracles.holds``
is the same check with every term through the field operations.  The two are
compared on random sparse systems, and ``solve`` is shown to raise on a
damaged elimination, for fresh and for resumed solves.  The checks that the
solvers run on a solution after ``solve`` are shown to raise on a damaged
solution.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maschke_kit import finalg
from maschke_kit.examples import base_by_name, cyclic_group, group_algebra, pair_hopf_algebroid
from maschke_kit.exactlin import AffineSolution, ConstraintSystem, FieldSpec
from maschke_kit.finalg import _balanced_certificate, solve_coseparability
from maschke_kit.hopfalgd import solve_integral_hgd

from denselin import add_row
from oracles import holds
from test_hopfalgd import hopf_algebra_as_algebroid

QQ = FieldSpec.rationals()
LARGE_P = 2**31 - 1   # the largest prime modulus FieldSpec takes
FIELDS = [QQ, FieldSpec.gf(2), FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(LARGE_P)]


def scalars(field):
    """Q: integers and fractions with mixed denominators; GF(p): residues,
    with the largest ones often, so that raw sums pass p."""
    p = field.characteristic
    if p == 0:
        return st.one_of(st.integers(-6, 6),
                         st.fractions(min_value=-4, max_value=4, max_denominator=12))
    return st.one_of(st.integers(0, p - 1), st.sampled_from((p - 1, p // 2 + 1)))


@st.composite
def systems(draw):
    """(system, x): sparse rows whose right-hand side is the row's value at x
    (exact), zero after one coefficient is changed to make the value zero
    (zero), or the value plus a nonzero scalar (off)."""
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(1, 6))
    x = draw(st.lists(scalars(field), min_size=nvars, max_size=nvars))
    xs = [field.coerce(v) for v in x]
    system = ConstraintSystem(field, nvars)
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.lists(st.integers(0, nvars - 1), max_size=nvars, unique=True))
        row = {c: field.coerce(draw(scalars(field))) for c in cols}
        mode = draw(st.sampled_from(("exact", "zero", "off")))
        support = [c for c in range(nvars) if xs[c] != 0]
        if mode == "zero" and support:
            c = draw(st.sampled_from(support))
            rest = sum_at(field, {k: v for k, v in row.items() if k != c}, xs)
            row[c] = field.neg(field.mul(rest, field.inv(xs[c])))
        rhs = sum_at(field, row, xs)
        if mode == "off":
            delta = field.coerce(draw(scalars(field)))
            rhs = field.add(rhs, delta if delta != 0 else field.one())
        add_row(system, row, rhs)
    return system, x


def sum_at(field, row, xs):
    acc = field.zero()
    for c, v in row.items():
        acc = field.add(acc, field.mul(v, xs[c]))
    return acc


def one_row(system, row):
    single = ConstraintSystem(system.field, system.nvars)
    single.rows = [row]
    return single


class TestAgainstFieldOperations:
    @given(systems(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_field_op_check(self, drawn, homogeneous):
        system, x = drawn
        assert system.satisfied_by(x, homogeneous) == holds(system, x, homogeneous)
        for row in system.rows:
            single = one_row(system, row)
            assert single.satisfied_by(x, homogeneous) == holds(single, x, homogeneous)

    def test_raw_sums_that_are_multiples_of_p(self):
        # 4*4 + 3*4 = 28 = 3 mod 5, and 2*1 + 3*1 = 5 = 0 mod 5: each row is
        # reduced before the comparison, never compared raw
        f5 = FieldSpec.gf(5)
        system = ConstraintSystem(f5, 2)
        add_row(system, {0: 4, 1: 3}, 3)
        assert system.satisfied_by((4, 4)) and holds(system, (4, 4))
        homogeneous = ConstraintSystem(f5, 2)
        add_row(homogeneous, {0: 2, 1: 3})
        assert homogeneous.satisfied_by((1, 1), True) and holds(homogeneous, (1, 1), True)
        big = FieldSpec.gf(LARGE_P)
        wide = ConstraintSystem(big, 3)
        add_row(wide, {0: LARGE_P - 1, 1: LARGE_P - 1, 2: 2})
        assert wide.satisfied_by((LARGE_P - 1, LARGE_P - 1, LARGE_P - 1), True)
        assert not wide.satisfied_by((LARGE_P - 1, LARGE_P - 1, 1), True)

    def test_rational_rows_and_mixed_denominators(self):
        # 1/2 * 2/3 + 1/3 * 3/4 + 5 * 1/7 = 1/3 + 1/4 + 5/7, with D = 84
        system = ConstraintSystem(QQ, 3)
        value = Fraction(1, 3) + Fraction(1, 4) + Fraction(5, 7)
        add_row(system, {0: Fraction(1, 2), 1: Fraction(1, 3), 2: 5}, value)
        x = (Fraction(2, 3), Fraction(3, 4), Fraction(1, 7))
        assert system.satisfied_by(x) and holds(system, x)
        assert not system.satisfied_by(x, True)
        off = (Fraction(2, 3), Fraction(3, 4), Fraction(1, 8))
        assert not system.satisfied_by(off) and not holds(system, off)
        # a candidate is coerced: Fraction(4, 2) is the integer 2
        assert system.satisfied_by((Fraction(4, 6), "3/4", Fraction(2, 14)))

    def test_candidate_length_is_checked(self):
        with pytest.raises(ValueError, match="length"):
            ConstraintSystem(QQ, 2).satisfied_by((1,))

    def test_candidates_in_other_int_and_fraction_forms(self):
        # ints of any size and Q Fractions are read without coercion, and give
        # the verdicts of their canonical forms; over GF(p) a Fraction is
        # taken to its residue; a bool or a float is refused
        f5 = FieldSpec.gf(5)
        system = ConstraintSystem(f5, 2)
        add_row(system, {0: 4, 1: 3}, 3)
        rational = ConstraintSystem(QQ, 2)
        add_row(rational, {0: Fraction(1, 2), 1: 3}, 4)
        for s, x, canon in ((system, (-1, 4), (4, 4)), (system, (9, -6), (4, 4)),
                            (system, (-1, 3), (4, 3)), (system, (Fraction(1, 4), 4), (4, 4)),
                            (rational, (Fraction(4, 2), 1), (2, 1)),
                            (rational, (Fraction(4, 2), Fraction(2, 2)), (2, 1)),
                            (rational, (Fraction(6, 2), 1), (3, 1)),
                            (rational, (Fraction(4, 2), Fraction(1, 3)), (2, Fraction(1, 3)))):
            for homogeneous in (False, True):
                assert s.satisfied_by(x, homogeneous) == s.satisfied_by(canon, homogeneous) \
                    == holds(s, canon, homogeneous), (x, homogeneous)
        assert system.satisfied_by((-1, 4)) and not system.satisfied_by((-1, 3))
        assert rational.satisfied_by((Fraction(4, 2), 1))
        for s in (system, rational):
            for bad in ((True, 1), (1, 1.0)):
                with pytest.raises(TypeError):
                    s.satisfied_by(bad)


class TestBalancedCertificate:
    ERRORS = ("normalization", "sides differ")

    def test_each_entry_is_reduced_once(self):
        # over F5 at x = (3, 4): at (7, 0) side 0 is 2*3 + 4*4 = 22 and side 1
        # is 4*3 = 12, both 2; at (8, 1) both are 15, which is 0 and dropped;
        # the normalization 1*3 + 2*4 = 11 is 1
        f5 = FieldSpec.gf(5)
        products = [(0, 7, 0, 0, 2), (0, 7, 0, 1, 4), (1, 7, 0, 0, 4),
                    (0, 8, 1, 0, 1), (0, 8, 1, 1, 3), (1, 8, 1, 1, 3), (1, 8, 1, 0, 1)]
        norm = [(0, 0, 1), (0, 1, 2)]
        table = _balanced_certificate(f5, (3, 4), norm, (1,), products, self.ERRORS)
        assert table == {(7, 0): 2}
        with pytest.raises(ArithmeticError, match="normalization"):
            _balanced_certificate(f5, (3, 4), norm, (2,), products, self.ERRORS)
        with pytest.raises(ArithmeticError, match="sides differ"):
            _balanced_certificate(f5, (3, 4), norm, (1,), products[:-1], self.ERRORS)

    def test_rational_entries_are_canonical(self):
        # 1/2 + 1/2 is the integer 1, and 1/3 - 1/3 drops out
        half, third = Fraction(1, 2), Fraction(1, 3)
        products = [(0, 0, 0, 0, half), (0, 0, 0, 1, half), (1, 0, 0, 0, 1),
                    (0, 1, 0, 0, third), (0, 1, 0, 1, -third)]
        table = _balanced_certificate(QQ, (1, 1), [(0, 0, half)], (half,), products,
                                      self.ERRORS)
        assert table == {(0, 0): 1} and type(table[0, 0]) is int


def _calls(monkeypatch):
    """Record (system, homogeneous) for every satisfied_by call."""
    seen = []
    check = ConstraintSystem.satisfied_by

    def recorded(self, x, homogeneous=False):
        seen.append((self, homogeneous))
        return check(self, x, homogeneous)

    monkeypatch.setattr(ConstraintSystem, "satisfied_by", recorded)
    return seen


def _primed_and_extras(field):
    """x0 + x1 = 2 (solved, one free column), then x2 = 1 on three unknowns."""
    primed = ConstraintSystem(field, 3)
    add_row(primed, {0: 1, 1: 1}, 2)
    primed.solve()
    extras = ConstraintSystem(field, 3)
    add_row(extras, {2: 1}, 1)
    return primed, extras


class TestSolveIsCertified:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_through_satisfied_by_on_every_system(self, field, monkeypatch):
        # the particular solution, then each kernel vector homogeneous; a
        # resumed solve checks the primed rows first, then its own
        primed, extras = _primed_and_extras(field)
        seen = _calls(monkeypatch)
        assert primed.solve().homogeneous.dim == 2
        assert seen == [(primed, False), (primed, True), (primed, True)]
        seen.clear()
        assert extras.solve(primed).homogeneous.dim == 1
        assert seen == [(primed, False), (extras, False), (primed, True), (extras, True)]

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("resumed", (False, True))
    def test_perturbed_pivots_raise(self, field, resumed, monkeypatch):
        # column 0 leads x0 + x1 = 2: a wrong right-hand side breaks the
        # particular solution; losing its free entry breaks the kernel vector
        # of column 1.  On a resumed solve that row is a primed row.
        eliminate = ConstraintSystem._eliminate
        for damage, message in (("rhs", "unverified solution"),
                                ("row", "unverified kernel vector")):
            primed, extras = _primed_and_extras(field)
            solved = extras if resumed else primed

            def damaged(self, primed=None):
                pivots = eliminate(self, primed)
                if self is solved:   # not the kernel's row space
                    row, rhs = pivots[0]
                    pivots[0] = (row, field.add(rhs, 1)) if damage == "rhs" else ({}, rhs)
                return pivots

            target = (lambda: extras.solve(primed)) if resumed else primed.solve
            monkeypatch.setattr(ConstraintSystem, "_eliminate", damaged)
            with pytest.raises(ArithmeticError, match=message):
                target()
            monkeypatch.setattr(ConstraintSystem, "_eliminate", eliminate)
            assert target() is not None


def _perturbed_solve(monkeypatch, change):
    """Make ConstraintSystem.solve return change(particular) in place of its
    particular solution."""
    solve = ConstraintSystem.solve

    def damaged(self, primed=None):
        sol = solve(self, primed)
        return None if sol is None else AffineSolution(change(sol.particular), sol.homogeneous)

    monkeypatch.setattr(ConstraintSystem, "solve", damaged)


class TestSolverCertificates:
    @pytest.mark.parametrize("side", ("left", "right"))
    def test_integral_without_counit_one(self, side, monkeypatch):
        # twice the normalized integral of the dual-numbers pair algebroid is
        # an integral, of counit 2
        h = pair_hopf_algebroid(base_by_name("dual", QQ))
        assert solve_integral_hgd(h, side) is not None
        _perturbed_solve(monkeypatch, lambda x: tuple(QQ.mul(2, v) for v in x))
        with pytest.raises(ArithmeticError, match="integral does not have counit 1"):
            solve_integral_hgd(h, side)

    @pytest.mark.parametrize("side", ("left", "right"))
    def test_integral_outside_the_ideal(self, side, monkeypatch):
        # kC2 over k, where the ideal is zero: (1 + g)/2 moved by g - 1 keeps
        # counit 1 but is no integral, since g (3g - 1)/2 = (3 - g)/2
        h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), QQ))
        assert solve_integral_hgd(h, side) is not None
        _perturbed_solve(monkeypatch, lambda x: (QQ.sub(x[0], 1), QQ.add(x[1], 1)))
        with pytest.raises(ArithmeticError, match="integral escaped the ideal after solving"):
            solve_integral_hgd(h, side)

    def test_coseparability_map_not_a_retraction(self, monkeypatch):
        # a functional that passes its own certificate always gives a
        # retraction, so the check is reached with that certificate's table
        # damaged: twice the retraction sends delta(e_i) to 2 e_i
        c = group_algebra(cyclic_group(2), QQ).coalgebra
        assert solve_coseparability(c) is not None
        certificate = finalg._balanced_certificate

        def doubled(*args):
            return {key: QQ.mul(2, v) for key, v in certificate(*args).items()}

        monkeypatch.setattr(finalg, "_balanced_certificate", doubled)
        with pytest.raises(ArithmeticError,
                           match="coseparability map is not a retraction of delta"):
            solve_coseparability(c)
