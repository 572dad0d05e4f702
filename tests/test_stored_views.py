"""The sparse views that checks, walks and system builders read are built
once per presentation, each by one builder.

Delta grouped by first leg (``finalg._comult_by_leg``, stored on the coalgebra),
the nonzero rows of a product table (``finalg._nonzero_rows``), the counit
pairing eps(e_i e_j) as sparse rows and columns
(``weakhopf._counit_pairing``), the algebroid's actions s(x) e_j, t(x) e_j,
e_j s(x) and e_j t(x) (``hopfalgd._actions``), the columns s(eps(e_i)) e_j
of the algebroid's integral system (``hopfalgd._counit_actions``) and the
Hopf-category composition tables (``hopfcat._composition_tables``).  Each is
compared with the construction that its readers made for themselves before,
or with the dense tables, and the number of builds is counted.
"""

import functools

from maschke_kit import finalg, hopfalgd, weakhopf
from maschke_kit.examples import (
    dual_number_algebra,
    groupoid_algebra,
    groupoid_by_name,
    hopf_category_from_groupoid,
    pair_groupoid,
    pair_hopf_algebroid,
)
from maschke_kit.exactlin import FieldSpec
from maschke_kit.finalg import (_comult_by_leg, _comult_by_source, _dot, _mult_cols,
                                _nonzero_entries, _nonzero_rows, _sparse_products, _terms)
from maschke_kit.hopfalgd import _actions, _counit_actions, _counit_images, maschke_report
from maschke_kit.hopfcat import _composition_tables, check_hopf_category
from maschke_kit.weakhopf import _counit_pairing, check_weak_bialgebra

from test_hopfalgd import oracle_cases as algebroid_cases
from test_hopfcat import oracle_categories
from test_sparse_tables import counting, oracle_corpus

QQ = FieldSpec.rationals()


def old_grouped(terms) -> dict:
    """{x: [(y, value), ...]} of the terms (x, y, value), as the checks and
    the comultiplicativity walk grouped Delta(e_j) on every call."""
    groups = {}
    for x, y, value in terms:
        groups.setdefault(x, []).append((y, value))
    return groups


def as_dict(groups) -> dict:
    return {a: list(g) for a, g in enumerate(groups) if g}


def test_weak_hopf_views_match_the_per_call_constructions():
    count = 0
    for w in oracle_corpus():
        alg, coa = w.algebra, w.coalgebra
        prod, by_source = _sparse_products(alg), _comult_by_source(coa)
        assert _nonzero_rows(prod) == tuple(
            tuple((c, terms) for c, terms in enumerate(row) if terms) for row in prod)
        n = w.dim
        assert _nonzero_rows(zip(*prod)) == tuple(
            tuple((c, prod[c][b]) for c in range(n) if prod[c][b]) for b in range(n))
        assert [as_dict(g) for g in _comult_by_leg(coa)] == \
            [old_grouped(terms) for terms in by_source]
        eps2 = [[_dot(w.field, coa.counit, terms) for terms in row] for row in prod]
        rows, cols = _counit_pairing(w)
        assert rows == tuple(tuple(_terms(row)) for row in eps2)
        assert cols == tuple(tuple(_terms(col)) for col in zip(*eps2))
        count += 1
    assert count > 1000


def test_algebroid_actions_match_the_per_call_constructions():
    count = 0
    for h in algebroid_cases():
        f, prod = h.field, _sparse_products(h.total)
        smul, tmul, s_right, t_right = _actions(h)
        for got, m, u_first in ((smul, h.src, True), (tmul, h.tgt, True),
                                (s_right, h.src, False), (t_right, h.tgt, False)):
            assert got == tuple(tuple(tuple(_nonzero_entries(col).items())
                                      for col in _mult_cols(f, prod, v, u_first))
                                for v in m.columns())
        # s(eps(e_i)) e_j, from the dense tables
        n, dr = h.total.dim, h.base.dim

        def total(values):
            return functools.reduce(f.add, values, f.zero())

        for i, cols in enumerate(_counit_actions(h)):
            s = [total(f.mul(h.src.at(k, r), h.counit.at(r, i)) for r in range(dr))
                 for k in range(n)]
            for j, col in enumerate(cols):
                want = {k: total(f.mul(s[a], h.total.mult.at(a, j, k)) for a in range(n))
                        for k in range(n)}
                assert _nonzero_entries(dict(col)) == _nonzero_entries(want)
        count += 1
    assert count > 100


def test_composition_tables_match_the_composition_columns():
    count = 0
    for h in oracle_categories():
        tables = _composition_tables(h)
        assert set(tables) == set(h.comps)
        for (x, y, z), m in h.comps.items():
            d = h.dim(y, z)
            assert [col for row in tables[(x, y, z)] for col in row] == list(m.columns())
            assert all(len(row) == d for row in tables[(x, y, z)])
            count += 1
    assert count > 100


def test_algebroid_actions_are_built_once_per_presentation(monkeypatch):
    # before, one report on the dual-numbers pair algebroid made 56 _mult_cols
    # calls, 28 of them on a source or target column; now each of s(x) e_j,
    # t(x) e_j, e_j s(x) and e_j t(x) is built once, 4 dim R calls, and the
    # columns of s(eps(e_i)) e_j once for both sides of the integral system,
    # dim A calls (24 calls in all before, 2 dim A of them for s(eps(e_i)))
    h = pair_hopf_algebroid(dual_number_algebra(QQ))
    columns = h.src.columns() + h.tgt.columns()
    calls = counting(monkeypatch, hopfalgd, "_mult_cols")
    assert maschke_report(h).verdict
    on_columns = [args for args in calls if any(args[2] is col for col in columns)]
    assert len(on_columns) == 4 * h.base.dim == 8
    counit_images = _counit_images(h)[0]
    on_counit = [args for args in calls if any(args[2] is s for s in counit_images)]
    assert len(on_counit) == h.total.dim == 4
    assert len(calls) == 20


def test_each_hom_is_grouped_by_leg_once(monkeypatch):
    # before, Delta of each hom of a(y,z) was grouped once per object x: 48
    # groupings for the 24 basis elements of conn:S3:2
    h = hopf_category_from_groupoid(groupoid_by_name("conn:S3:2"), QQ)
    calls = counting(monkeypatch, finalg, "_by_leg")
    assert check_hopf_category(h).ok()
    assert len(calls) == len(h.homs) == 4
    assert sum(len(delta) for delta, n in calls) == 24


def test_weak_hopf_check_builds_each_view_once(monkeypatch):
    # the nonzero product rows and Delta by first leg were built by the check
    # and again by the comultiplicativity walk
    w = groupoid_algebra(pair_groupoid(2), QQ)
    rows = counting(monkeypatch, weakhopf, "_nonzero_rows")
    legs = [counting(monkeypatch, module, "_by_leg") for module in (finalg, weakhopf)]
    assert check_weak_bialgebra(w).ok()
    # the rows, and the columns for the twisted weak unit
    assert len(rows) == 2
    assert sum(args[0] is _sparse_products(w.algebra) for args in rows) == 1
    # Delta by first leg, and Delta(1) by first leg; the weak counit sums over
    # Delta by source, so Delta is not grouped by its second leg
    assert sorted(len(delta) for calls in legs for delta, n in calls) == [1, w.dim]
