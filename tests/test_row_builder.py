"""finalg._balanced_system against the two-dictionary builder it replaced.

Every system builder's terms are recorded as it runs and fed to both the
one-pass builder and ``oracles.balanced_system``: the rows must agree as
multisets (row order is not behaviour, since solve() ends in the unique
reduced echelon form), and a variable out of range must raise the same
ValueError text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from maschke_kit import finalg, hopfalgd, hopfcat, weakhopf
from maschke_kit.examples import (base_by_name, groupoid_by_name, hopf_category_from_groupoid,
                                  pair_hopf_algebroid)
from maschke_kit.exactlin import FieldSpec
from maschke_kit.hopfalgd import (BULLET, CIRC, cointegral_system_hgd,
                                  coseparability_system_hgd, integral_system_hgd,
                                  separability_system_hgd, tensor_over_R)
from maschke_kit.hopfcat import (integral_family_system, retraction_system,
                                 separability_family_system)
from maschke_kit.weakhopf import SIDES, VARIANTS, cointegral_system, integral_system

from denselin import row_multiset
from oracles import balanced_system
from test_sparse_tables import oracle_corpus, valid_corpus

BUILDER = finalg._balanced_system
FIELDS = (FieldSpec.rationals(), FieldSpec.gf(2), FieldSpec.gf(3), FieldSpec.gf(5))


def _raised(build, terms):
    """The text of the ValueError that build(*terms) raises."""
    with pytest.raises(ValueError) as info:
        build(*terms)
    return str(info.value)


def _bad_variable_cases(f, nvars, norm, rhs, products):
    """The terms with one variable moved out of range, to nvars and to -1:
    in the first product term, the first side-1 one, the last one and the
    first normalization term."""
    side1 = [k for k, term in enumerate(products) if term[0] == 1]
    spots = sorted({0, len(products) - 1, *side1[:1]}) if products else []
    for bad in (nvars, -1):
        for k in spots:
            side, g, out, _, t = products[k]
            yield f, nvars, norm, rhs, products[:k] + [(side, g, out, bad, t)] + products[k + 1:]
        if norm:
            out, _, t = norm[0]
            yield f, nvars, [(out, bad, t)] + norm[1:], rhs, products


class Recorder:
    """Runs builders while every _balanced_system call goes through both
    builders; keeps the fields seen and the terms of each builder's first
    call."""

    def __init__(self):
        self.builder, self.fields, self.firsts = None, set(), {}

    def __call__(self, f, nvars, norm, rhs, products):
        norm, rhs, products = list(norm), tuple(rhs), list(products)
        got = BUILDER(f, nvars, norm, rhs, products)
        assert row_multiset(got) == row_multiset(balanced_system(f, nvars, norm, rhs, products))
        self.fields.add(f)
        self.firsts.setdefault(self.builder, (f, nvars, norm, rhs, products))
        return got

    def build(self, name, fn, *args):
        self.builder = name
        fn(*args)

    def check_bad_variables(self):
        for terms in self.firsts.values():
            cases = list(_bad_variable_cases(*terms))
            assert cases
            for case in cases:
                assert _raised(BUILDER, case) == _raised(balanced_system, case)


@pytest.fixture
def recorder(monkeypatch):
    rec = Recorder()
    for module in (finalg, weakhopf, hopfcat, hopfalgd):
        monkeypatch.setattr(module, "_balanced_system", rec)
    return rec


@st.composite
def random_terms(draw):
    """Terms with repeated keys and variables, some cancelling: (field,
    nvars, norm, rhs, products) over Q or GF(5)."""
    field = draw(st.sampled_from(FIELDS[:1] + FIELDS[3:]))
    nvars = draw(st.integers(1, 5))
    scalar = st.integers(-3, 3).map(field.coerce)
    var = st.integers(0, nvars - 1)
    products = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2),
                                       var, scalar), max_size=30))
    rhs = tuple(draw(st.lists(scalar, max_size=3)))
    norm = draw(st.lists(st.tuples(st.integers(0, len(rhs) - 1), var, scalar), max_size=12)) \
        if rhs else []
    return field, nvars, norm, rhs, products


@given(random_terms())
@settings(max_examples=300, deadline=None)
def test_random_terms_match_the_oracle(terms):
    assert row_multiset(BUILDER(*terms)) == row_multiset(balanced_system(*terms))


def test_weak_hopf_builders_match_the_oracle(recorder):
    for w in oracle_corpus():
        recorder.build("separability", finalg.separability_system, w.algebra)
        recorder.build("coseparability", finalg.coseparability_system, w.coalgebra)
    for w in valid_corpus():
        for side in SIDES:
            for variant in VARIANTS:
                for normalized in (True, False):
                    recorder.build(f"integral {variant}", integral_system,
                                   w, side, variant, normalized)
                    recorder.build(f"cointegral {variant}", cointegral_system,
                                   w, side, variant, normalized)
    assert recorder.fields == set(FIELDS)
    assert len(recorder.firsts) == 6
    recorder.check_bad_variables()


def test_category_and_algebroid_builders_match_the_oracle(recorder):
    build = recorder.build
    for field in FIELDS:
        for name in ("pair:2", "conn:C2:2", "one:S3"):
            h = hopf_category_from_groupoid(groupoid_by_name(name), field)
            build("separability family", separability_family_system, h)
            for side in SIDES:
                build("integral family", integral_family_system, h, side)
                for x in range(h.n_objects):
                    build("retraction", retraction_system, h, x, side)
        for base in ("k", "dual", "kxk"):
            h = pair_hopf_algebroid(base_by_name(base, field))
            build("algebroid separability", separability_system_hgd, h,
                  tensor_over_R(h, BULLET))
            build("algebroid coseparability", coseparability_system_hgd, h,
                  tensor_over_R(h, CIRC))
            for side in SIDES:
                for normalized in (True, False):
                    build("algebroid integral", integral_system_hgd, h, side, normalized)
                    build("algebroid cointegral", cointegral_system_hgd, h, side, normalized)
    assert recorder.fields == set(FIELDS)
    assert len(recorder.firsts) == 7
    recorder.check_bad_variables()
