"""Validation compares raw sums and reduces only on a mismatch.

Associativity (``check_algebra``), coassociativity (``check_coalgebra``) and
comultiplicativity (``check_weak_bialgebra``) add up raw int and Fraction
products and call ``FieldSpec.reduce`` only when the raw sums differ.  Over
GF(p) raw sums may differ and still agree mod p: such inputs must pass.  On
failing inputs the reports equal, in order, those of the forms that add each
term through the field operations: ``tests/test_weakhopf.py`` compares them
with ``tests/oracles.py`` on the criterion-08 mutants and the mismatched
algebra/coalgebra pairs, and ``tests/test_sparse_tables.py`` on mutants of
rebased copies over F3 and F5.
"""

from maschke_kit.examples import (connected_groupoid, cyclic_group, dual_group_algebra,
                                  group_algebra, groupoid_algebra, klein_four_group,
                                  pair_groupoid, symmetric_group_s3)
from maschke_kit.exactlin import FieldSpec, Matrix
from maschke_kit.finalg import AlgebraPresentation, CoalgebraPresentation, check_algebra, \
    check_coalgebra
from maschke_kit.weakhopf import WeakHopfPresentation, check_antipode, check_weak_bialgebra

from denselin import rebased

QQ = FieldSpec.rationals()


def counting_field(p):
    """A fresh GF(p) whose reduce counts its calls in .reductions[0]."""
    f = FieldSpec.gf(p)
    plain = f.reduce
    calls = [0]

    def reduce(x):
        calls[0] += 1
        return plain(x)

    object.__setattr__(f, "reduce", reduce)
    object.__setattr__(f, "reductions", calls)
    return f


def functions_on_c2(f, minus_one):
    """The Hopf algebra of functions on C2 in the basis e0 = f0, e1 = f0 - f1,
    for f_x the indicator of x: e1 e1 = 2 e0 - e1, Delta(e0) = 2 e0 (x) e0 -
    e0 (x) e1 - e1 (x) e0 + e1 (x) e1, Delta(e1) = e1 (x) e1, unit 2 e0 - e1,
    counit (1, 1) and antipode the identity; minus_one stands for -1."""
    mult = [[[1, 0], [1, 0]], [[1, 0], [2, minus_one]]]
    comult = [[[2, minus_one], [minus_one, 1]], [[0, 0], [0, 1]]]
    return WeakHopfPresentation(
        AlgebraPresentation.make(f, mult, (2, minus_one)),
        CoalgebraPresentation.make(f, comult, (1, 1)),
        Matrix(f, 2, 2, (1, 0, 0, 1)))


def reports(w):
    return check_algebra(w.algebra), check_coalgebra(w.coalgebra), check_weak_bialgebra(w)


class TestSumsThatAgreeModP:
    def test_hand_built_table_with_constants_p_minus_one(self):
        # (e1 e1) e0 sums 2 + (p - 1) = p + 1 raw against e1 (e1 e0) = 1
        for p in (3, 5):
            f = counting_field(p)
            w = functions_on_c2(f, p - 1)
            f.reductions[0] = 0
            assert all(r.ok() for r in reports(w))
            assert check_antipode(w).ok()
            assert f.reductions[0] > 0
        w = functions_on_c2(QQ, -1)
        assert all(r.ok() for r in reports(w)) and check_antipode(w).ok()

    def test_rebased_copies(self):
        # unitriangular changes of basis give constants whose raw sums pass p
        reduced = 0
        for p in (3, 5):
            for make in (lambda f: group_algebra(cyclic_group(3), f),
                         lambda f: group_algebra(klein_four_group(), f),
                         lambda f: dual_group_algebra(symmetric_group_s3(), f),
                         lambda f: groupoid_algebra(pair_groupoid(2), f),
                         lambda f: groupoid_algebra(connected_groupoid(cyclic_group(2), 2), f)):
                for seed in (1, 2, 3):
                    f = counting_field(p)
                    w = rebased(make(f), seed)
                    f.reductions[0] = 0
                    assert all(r.ok() for r in reports(w)), (p, seed)
                    reduced += f.reductions[0]
        assert reduced > 0
