"""The field operations that FieldSpec binds once per field.

``add``, ``sub``, ``mul``, ``neg`` and ``reduce`` are compared with int and
Fraction arithmetic over Q, GF(2), GF(3), GF(5) and GF(2^31 - 1); every
result must be canonical (an ``int`` for an integral Q value, a residue in
[0, p) over GF(p)).  Binding them leaves a FieldSpec's equality, hash and
repr as they were.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maschke_kit.exactlin import FieldSpec, FrozenInstanceError

QQ = FieldSpec.rationals()
LARGE_P = 2**31 - 1   # the largest prime modulus FieldSpec takes
FIELDS = [QQ, FieldSpec.gf(2), FieldSpec.gf(3), FieldSpec.gf(5), FieldSpec.gf(LARGE_P)]


def scalars(field):
    """Canonical scalars: over Q integers, some large, and fractions in
    lowest terms that are integral now and then; over GF(p) residues, with
    p - 1 often."""
    p = field.characteristic
    if p == 0:
        return st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70),
                         st.fractions(min_value=-4, max_value=4, max_denominator=12)
                         .map(lambda q: q.numerator if q.denominator == 1 else q))
    return st.one_of(st.integers(0, p - 1), st.just(p - 1))


@st.composite
def field_and(draw, count):
    field = draw(st.sampled_from(FIELDS))
    return field, [draw(scalars(field)) for _ in range(count)]


def canonical(field, q) -> bool:
    """q is the canonical scalar of its value in field."""
    p = field.characteristic
    if p:
        return type(q) is int and 0 <= q < p
    return type(q) is int or (type(q) is Fraction and q.denominator != 1)


def expected(field, q):
    """The canonical scalar of the exact value q (an int or a Fraction)."""
    q = Fraction(q)
    p = field.characteristic
    if p:
        return q.numerator * pow(q.denominator, -1, p) % p
    return q.numerator if q.denominator == 1 else q


@given(field_and(2))
@settings(max_examples=400, deadline=None)
def test_binary_operations_match_exact_arithmetic(drawn):
    field, (a, b) = drawn
    fa, fb = Fraction(a), Fraction(b)
    for got, want in ((field.add(a, b), fa + fb), (field.sub(a, b), fa - fb),
                      (field.mul(a, b), fa * fb), (field.neg(a), -fa)):
        assert canonical(field, got)
        assert got == expected(field, want)


@given(field_and(8))
@settings(max_examples=300, deadline=None)
def test_reduce_of_a_raw_sum_of_products(drawn):
    # reduce takes an int or Fraction sum of products of canonical scalars,
    # which over GF(p) may lie far outside [0, p)
    field, xs = drawn
    raw = sum(a * b for a, b in zip(xs[::2], xs[1::2]))
    got = field.reduce(raw)
    assert canonical(field, got)
    assert got == expected(field, sum(Fraction(a) * b for a, b in zip(xs[::2], xs[1::2])))


def test_integral_rational_results_are_ints():
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int and QQ.add(half, half) == 1
    assert type(QQ.sub(half, half)) is int and QQ.sub(half, half) == 0
    assert type(QQ.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert type(QQ.reduce(Fraction(4, 2))) is int
    assert QQ.neg(half) == Fraction(-1, 2)


def test_each_field_binds_its_own_operations():
    f3, f5 = FieldSpec.gf(3), FieldSpec.gf(5)
    assert f3.add(2, 2) == 1 and f5.add(2, 2) == 4
    assert f3.mul(2, 2) == 1 and f5.mul(2, 2) == 4
    assert f3.neg(1) == 2 and f5.neg(1) == 4
    assert f3.reduce(-7) == 2 and f5.reduce(-7) == 3


def test_equality_hash_and_repr_are_those_of_the_characteristic():
    for p in (0, 2, 3, 5, LARGE_P):
        f = FieldSpec(p)
        assert f == FieldSpec(p) and hash(f) == hash(FieldSpec(p)) == hash(p)
        assert repr(f) == f"FieldSpec(characteristic={p})"
        assert f._fields == ("characteristic",)
        assert {f: 1}[FieldSpec(p)] == 1
    assert FieldSpec.gf(3) != FieldSpec.gf(5) and FieldSpec.gf(3) != QQ
    assert str(QQ) == "Q" and str(FieldSpec.gf(5)) == "F5"


def test_fields_stay_frozen():
    with pytest.raises(FrozenInstanceError):
        FieldSpec.gf(3).add = None
    with pytest.raises(FrozenInstanceError):
        FieldSpec.gf(3).characteristic = 5
    for bad in (4, 1, -3, 2**31):
        with pytest.raises(ValueError):
            FieldSpec(bad)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coerce_refuses_bool(field):
    for value in (True, False):
        with pytest.raises(TypeError, match="bool is not a scalar"):
            field.coerce(value)
