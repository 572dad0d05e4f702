"""structfile._array_in reads a table as the ordered walk did.

The reader flattens a table one axis at a time and parses each distinct
token once; on a fault it walks the table in document order to name the
first faulty list.  ``oracles.read_array`` is the walk that read every table
before: on a catalogue of damaged tables, and on random damage, both must
give the same record or the same message, and every serialized presentation
of the weak Hopf oracle corpus must parse to the same records.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from maschke_kit import structfile
from maschke_kit.exactlin import FieldSpec
from maschke_kit.structfile import (StructureFileError, _array_in,
                                    parse_structure_text_unvalidated, serialize_structure)

from oracles import read_array
from test_sparse_tables import valid_corpus

FIELDS = (FieldSpec.rationals(), FieldSpec.gf(2), FieldSpec.gf(5))

# one table of each number of axes; "1/2" does not parse over GF(2)
TABLES = {
    (3,): ["1", "-2", "3/2"],
    (2, 3): [["1", "0", "2"], ["0", "1", "-1"]],
    (2, 2, 3): [[["1", "0", "0"], ["0", "1", "0"]],
                [["0", "0", "1"], ["1/2", "0", "0"]]],
}


def _outcome(read, field, table, shape):
    """The record read, or the message of the StructureFileError raised."""
    try:
        return read(field, table, shape, "$.t")
    except StructureFileError as exc:
        return ("error", str(exc))


def _row(table, shape):
    """The last-axis list that holds the first entry: the table itself for a
    vector."""
    return table if len(shape) == 1 else table[0] if len(shape) == 2 else table[0][0]


def _last_row(table, shape):
    return table if len(shape) == 1 else table[-1] if len(shape) == 2 else table[-1][-1]


def _set(index):
    """A damage that puts value at the entry index of the first row."""
    def damage(table, shape, value):
        _row(table, shape)[index] = value
    return damage


def _short_row(table, shape, value):
    _last_row(table, shape).pop()


def _long_row(table, shape, value):
    _last_row(table, shape).append("0")


def _short_plane(table, shape, value):
    # the outermost list loses its last item
    table.pop()


def _long_plane(table, shape, value):
    table.append(copy.deepcopy(table[0]))


def _non_list_node(table, shape, value):
    # the last item of the outermost list is a scalar, an object or a token
    table[-1] = value


def _bad_token_then_short_row(table, shape, value):
    # two faults: the bad token comes first in document order
    _row(table, shape)[1] = "x"
    _last_row(table, shape).pop()


def _short_row_then_bad_token(table, shape, value):
    if len(shape) > 1:
        _row(table, shape).pop()
    _last_row(table, shape)[-1] = "1/0"


def _bad_token_then_short_plane(table, shape, value):
    # a bad token in the first row, and an outermost list one item short
    _row(table, shape)[0] = "x"
    table.pop()


def _two_bad_tokens_in_a_row(table, shape, value):
    row = _row(table, shape)
    row[0], row[1] = "1/0", "x"


DAMAGES = {
    "short row": (_short_row, None),
    "long row": (_long_row, None),
    "short plane": (_short_plane, None),
    "long plane": (_long_plane, None),
    "non-list node int": (_non_list_node, 3),
    "non-list node object": (_non_list_node, {"a": "1"}),
    "non-list node token": (_non_list_node, "1"),
    "JSON int token": (_set(0), 1),
    "JSON float token": (_set(1), 1.5),
    "true token": (_set(1), True),
    "false token": (_set(0), False),
    "null token": (_set(2), None),
    "list token": (_set(1), ["1"]),
    "object token": (_set(1), {"1": "1"}),
    "bad token": (_set(2), "x"),
    "zero denominator": (_set(0), "1/0"),
    "empty token": (_set(0), ""),
    "oversized token": (_set(1), "9" * 5000),
    "oversized exponent": (_set(2), "1e999999999"),
    "bad token then short row": (_bad_token_then_short_row, None),
    "short row then bad token": (_short_row_then_bad_token, None),
    "bad token then short plane": (_bad_token_then_short_plane, None),
    "two bad tokens in a row": (_two_bad_tokens_in_a_row, None),
}


@pytest.mark.parametrize("shape", sorted(TABLES, key=len), ids=lambda s: f"{len(s)}-axis")
@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_damaged_tables_raise_the_walks_message(shape, damage):
    fn, value = DAMAGES[damage]
    for field in FIELDS:
        table = copy.deepcopy(TABLES[shape])
        fn(table, shape, value)
        got = _outcome(_array_in, field, table, shape)
        assert got == _outcome(read_array, field, table, shape)
        # a token in place of the last entry of a vector leaves it whole
        assert got[0] == "error" or (len(shape), damage) == (1, "non-list node token")


@pytest.mark.parametrize("shape", sorted(TABLES, key=len), ids=lambda s: f"{len(s)}-axis")
def test_whole_tables_read_as_the_walk_read_them(shape):
    for field in FIELDS:
        table = TABLES[shape]
        got = _outcome(_array_in, field, table, shape)
        assert got == _outcome(read_array, field, table, shape)
    # "1/2" does not parse over GF(2) alone
    assert _outcome(_array_in, FIELDS[1], TABLES[(2, 2, 3)], (2, 2, 3)) == \
        ("error", "$.t[1][1]: denominator of 1/2 vanishes mod 2")


def test_the_first_fault_in_document_order_is_named():
    field = FIELDS[0]
    table = copy.deepcopy(TABLES[(2, 2, 3)])
    table[0][1][2] = "x"     # first in document order
    table[1][0].pop()        # a short row later on
    table[1][1] = "0"        # and a non-list row after it
    assert _outcome(_array_in, field, table, (2, 2, 3)) == \
        ("error", "$.t[0][1]: Invalid literal for Fraction: 'x'")


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(1.5),
    st.sampled_from(["0", "1", "-1", "3/2", "1/2", " 2 ", "x", "", "1/0", "4",
                     "9" * 4001, "1e4001"]),
    st.lists(st.sampled_from(["0", "1"]), max_size=4),
    st.lists(st.lists(st.sampled_from(["0", "1"]), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "1"]), st.just("1"), max_size=1),
)


def _node_paths(node, prefix=()):
    """Every index path into the nested lists of node, in document order."""
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield prefix + (i,)
            yield from _node_paths(child, prefix + (i,))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(shape=st.sampled_from(sorted(TABLES)), field=st.sampled_from(FIELDS),
       data=st.data())
def test_random_damage_gives_the_walks_outcome(shape, field, data):
    table = copy.deepcopy(TABLES[shape])
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_node_paths(table))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = table
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    assert _outcome(_array_in, field, table, shape) == \
        _outcome(read_array, field, table, shape)


def test_serialized_corpus_parses_to_the_walks_records(monkeypatch):
    texts = [serialize_structure(w) for w in valid_corpus()]
    new = [parse_structure_text_unvalidated(text) for text in texts]
    monkeypatch.setattr(structfile, "_array_in", read_array)
    old = [parse_structure_text_unvalidated(text) for text in texts]
    assert new == old
    # the stored nonzeros of each tensor, in index order
    for w in new:
        for t in (w.algebra.mult, w.coalgebra.comult):
            assert t.nonzeros() == tuple(
                (idx // (t.d1 * t.d2), idx // t.d2 % t.d1, idx % t.d2, v)
                for idx, v in enumerate(t.entries) if v != 0)
    assert len(texts) > 100
