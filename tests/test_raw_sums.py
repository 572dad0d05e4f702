"""Validation compares raw sums and reduces only on a mismatch.

Associativity (``check_algebra``), coassociativity (``check_coalgebra``),
comultiplicativity (``check_weak_bialgebra``) and the composition
associativity and comultiplicativity of ``check_hopf_category`` add up raw
int and Fraction products and call ``FieldSpec.reduce`` only when the raw
sums differ.  Over
GF(p) raw sums may differ and still agree mod p: such inputs must pass.  On
failing inputs the reports equal, in order, those of the forms that add each
term through the field operations: ``tests/test_weakhopf.py`` compares them
with ``tests/oracles.py`` on the criterion-08 mutants and the mismatched
algebra/coalgebra pairs, and ``tests/test_sparse_tables.py`` on mutants of
rebased copies over F3 and F5.
"""

import itertools

from maschke_kit.examples import (connected_groupoid, cyclic_group, dual_group_algebra,
                                  group_algebra, groupoid_algebra, groupoid_by_name,
                                  hopf_category_from_groupoid, klein_four_group,
                                  pair_groupoid, symmetric_group_s3)
from maschke_kit.exactlin import FieldSpec, Matrix
from maschke_kit.finalg import AlgebraPresentation, CoalgebraPresentation, _comult_by_source, \
    check_algebra, check_coalgebra
from maschke_kit.hopfcat import check_hopf_category
from maschke_kit.weakhopf import WeakHopfPresentation, check_antipode, check_weak_bialgebra

from denselin import rebased
from test_hopfcat import rebased_category

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


def mismatched_entries(h) -> tuple:
    """(associativity, comultiplicativity): the entries of the raw sums of
    each composition law of h that belong to a mismatched pair of sides,
    both sides summed here over the composition columns and Delta by source,
    unreduced."""
    objs = range(h.n_objects)
    cols = {key: m.columns() for key, m in h.comps.items()}
    assoc = comult = 0
    for x, y, z, w in itertools.product(objs, repeat=4):
        dyz, dzw, dyw, dxw = h.dim(y, z), h.dim(z, w), h.dim(y, w), h.dim(x, w)
        for p, q, r in itertools.product(range(h.dim(x, y)), range(dyz), range(dzw)):
            lhs, rhs = [0] * dxw, [0] * dxw
            for m, t in cols[(x, y, z)][p * dyz + q]:
                for c, s in cols[(x, z, w)][m * dzw + r]:
                    lhs[c] += t * s
            for m, t in cols[(y, z, w)][q * dzw + r]:
                for c, s in cols[(x, y, w)][p * dyw + m]:
                    rhs[c] += t * s
            assoc += dxw if lhs != rhs else 0
    for x, y, z in itertools.product(objs, repeat=3):
        col, dyz, dxz = cols[(x, y, z)], h.dim(y, z), h.dim(x, z)
        delta_xy, delta_yz, delta_xz = (_comult_by_source(h.homs[key])
                                        for key in ((x, y), (y, z), (x, z)))
        for p, q in itertools.product(range(h.dim(x, y)), range(dyz)):
            lhs, rhs = [0] * (dxz * dxz), [0] * (dxz * dxz)
            for m, t in col[p * dyz + q]:
                for a, b, s in delta_xz[m]:
                    lhs[a * dxz + b] += t * s
            for (p1, p2, s), (q1, q2, t) in itertools.product(delta_xy[p], delta_yz[q]):
                for m1, t1 in col[p1 * dyz + q1]:
                    for m2, t2 in col[p2 * dyz + q2]:
                        rhs[m1 * dxz + m2] += s * t * t1 * t2
            comult += dxz * dxz if lhs != rhs else 0
    return assoc, comult


class TestHopfCategoryLaws:
    def test_reductions_only_on_raw_mismatches(self):
        # each side of a mismatch is reduced entry by entry, and nothing else
        # in the check reduces: the plain groupoid categories have 0 and 1
        # constants and make no reduce call; their rebased copies have raw
        # sums that differ in both laws and still agree mod p, and must pass
        seen = [0, 0]
        for p in (3, 5):
            for name in ("pair:2", "conn:C2:2"):
                for seed in (None, 1, 2):
                    f = counting_field(p)
                    h = hopf_category_from_groupoid(groupoid_by_name(name), f)
                    if seed is not None:
                        h = rebased_category(h, seed)
                    assert h.field is f
                    assert all(check_coalgebra(c).ok() for c in h.homs.values())
                    assoc, comult = mismatched_entries(h)
                    f.reductions[0] = 0
                    assert check_hopf_category(h).ok(), (p, name, seed)
                    assert f.reductions[0] == 2 * (assoc + comult), (p, name, seed)
                    if seed is None:
                        assert assoc == comult == 0
                    seen[0] += assoc
                    seen[1] += comult
        assert seen[0] > 0 and seen[1] > 0
