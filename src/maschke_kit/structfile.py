"""Structure-file I/O: canonical JSON for every presentation kind.

Files carry a format version, a field descriptor, a kind tag and a
kind-specific payload of structure constants.  Scalars are text tokens
("3/2", "-1", "4"), so files stay exact and human-diffable.  Serialization
is canonical: parse-then-serialize is byte-stable.

One table, ``KINDS``, describes each kind tag: whether its file carries a
field, and the functions that parse its payload, write it and validate the
presentation.  Reading, writing and validating look the kind up there.  A
kind's module (``weakhopf``, ``hopfalgd``, ``hopfcat``, or ``examples`` for
groups and groupoids) is imported only inside those functions, so a one-shot
process loads only the kind it reads.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

from .exactlin import MAX_AXIS, FieldSpec, Frozen, Matrix, Tensor3
from .finalg import MAX_GENERATED_ORDER, AlgebraPresentation, AxiomReport, \
    CoalgebraPresentation

FORMAT_VERSION = "maschke-kit/1"


class StructureFileError(ValueError):
    """Schema or axiom failure while reading a structure file."""


def _fail(path, message):
    raise StructureFileError(f"{path}: {message}")


def _is_int(v) -> bool:
    # JSON true and false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _get(d, key, path, kind=None):
    if not isinstance(d, dict) or key not in d:
        _fail(f"{path}.{key}", "missing key")
    v = d[key]
    if kind is not None and not (_is_int(v) if kind is int else isinstance(v, kind)):
        _fail(f"{path}.{key}", f"expected {kind.__name__}")
    return v


def _ints(d, key, path) -> tuple:
    v = _get(d, key, path, list)
    if not all(_is_int(x) for x in v):
        _fail(f"{path}.{key}", "expected a list of integers")
    return tuple(v)


def field_to_json(field: FieldSpec) -> dict:
    if field.characteristic == 0:
        return {"kind": "Q"}
    return {"kind": "Fp", "p": field.characteristic}


def field_from_json(obj, path) -> FieldSpec:
    kind = _get(obj, "kind", path, str)
    if kind == "Q":
        return FieldSpec.rationals()
    if kind == "Fp":
        p = _get(obj, "p", path, int)
        try:
            return FieldSpec.gf(p)
        except ValueError as exc:
            _fail(f"{path}.p", str(exc))
    _fail(f"{path}.kind", f"unknown field kind {kind!r}")


def array_to_json(field, value):
    """The text tokens of a vector, of a Matrix by rows or of a Tensor3 by
    planes of rows, as nested JSON lists; structure files and reports write
    every scalar through it.  An integer of more digits than the interpreter
    writes as text is refused as invalid input."""
    if isinstance(value, Matrix):
        shape, value = (value.rows, value.cols), value.entries
    elif isinstance(value, Tensor3):
        shape, value = (value.d0, value.d1, value.d2), value.entries
    else:
        shape = (len(value),)
    try:
        nested = [field.format_scalar(v) for v in value]
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise StructureFileError(f"an output scalar has more than {limit} digits, the "
                                 "limit of sys.get_int_max_str_digits()") from None
    for axis in range(len(shape) - 1, 0, -1):
        size = shape[axis]
        nested = [nested[i * size:(i + 1) * size] for i in range(math.prod(shape[:axis]))]
    return nested


# what each list of an array of 1, 2 or 3 axes must hold, outermost first
_EXPECTED = {1: ("a list of {} scalars",), 2: ("{} rows", "{} entries"),
             3: ("{} planes", "{} rows", "{} entries")}


def _array_in(field, obj, shape, path):
    """The nested JSON array obj of the given shape: a vector (a tuple) for
    one axis, a Matrix for two, a Tensor3 for three.  A list of the wrong
    length, or a token that does not parse, fails at the path of its list.

    The table is flattened one axis at a time, with every list of the axis
    checked at once, and each distinct token is parsed once.  On any fault
    _raise_first_fault walks the table in document order, so the message
    names the first faulty list.
    """
    nodes = [obj]
    try:
        for size in shape:
            if not (set(map(type, nodes)) <= {list} and
                    set(map(len, nodes)) <= {size}):
                raise ValueError("misshapen")
            nodes = list(itertools.chain.from_iterable(nodes))
        tokens = dict.fromkeys(nodes)   # TypeError on a list or object token
        parse = field.parse_scalar
        for token in tokens:
            tokens[token] = parse(token)
    except (ValueError, TypeError):
        _raise_first_fault(field, obj, shape, path)
        raise
    entries = tuple(map(tokens.__getitem__, nodes))
    if len(shape) == 1:
        return entries
    return (Matrix if len(shape) == 2 else Tensor3)(field, *shape, entries)


def _raise_first_fault(field, obj, shape, path):
    """Raise StructureFileError at the first list of obj, in document order,
    that has the wrong length or holds a token that does not parse."""
    last, expected = len(shape) - 1, _EXPECTED[len(shape)]

    def walk(node, axis, path):
        if not isinstance(node, list) or len(node) != shape[axis]:
            _fail(path, "expected " + expected[axis].format(shape[axis]))
        if axis < last:
            for i, item in enumerate(node):
                walk(item, axis + 1, f"{path}[{i}]")
            return
        try:
            for token in node:
                field.parse_scalar(token)
        except (ValueError, TypeError) as exc:
            _fail(path, str(exc))

    walk(obj, 0, path)


def _dim_in(obj, path, key="dim", what="dimension") -> int:
    """The declared dimension (or a group order), refused below 1, and above
    the limit on generated orders before any table of that size is read."""
    dim = _get(obj, key, path, int)
    if dim < 1:
        _fail(f"{path}.{key}", f"{what} {dim} is below 1")
    if dim > MAX_GENERATED_ORDER:
        _fail(f"{path}.{key}", f"{what} {dim} is above the limit of "
                               f"{MAX_GENERATED_ORDER}")
    return dim


def _labels_in(obj, dim, path):
    if not isinstance(obj, list) or len(obj) != dim or \
            not all(isinstance(x, str) for x in obj):
        _fail(path, f"expected {dim} text labels")
    return tuple(obj)


# ---------------------------------------------------------------------------
# payloads per kind


def _algebra_out(field, a: AlgebraPresentation) -> dict:
    return {
        "dim": a.dim,
        "labels": list(a.labels),
        "mult": array_to_json(field, a.mult),
        "unit": array_to_json(field, a.unit),
    }


def _algebra_in(field, obj, path) -> AlgebraPresentation:
    dim = _dim_in(obj, path)
    labels = _labels_in(_get(obj, "labels", path), dim, f"{path}.labels")
    mult = _array_in(field, _get(obj, "mult", path), (dim, dim, dim), f"{path}.mult")
    unit = _array_in(field, _get(obj, "unit", path), (dim,), f"{path}.unit")
    try:
        return AlgebraPresentation(field, dim, labels, mult, unit)
    except ValueError as exc:
        _fail(path, str(exc))


def _weakhopf_payload(w) -> dict:
    f = w.field
    payload = _algebra_out(f, w.algebra)
    payload["comult"] = array_to_json(f, w.coalgebra.comult)
    payload["counit"] = array_to_json(f, w.coalgebra.counit)
    payload["antipode"] = None if w.antipode is None else array_to_json(f, w.antipode)
    return payload


def _weakhopf_parse(field, obj, path):
    from .weakhopf import WeakHopfPresentation
    algebra = _algebra_in(field, obj, path)
    n = algebra.dim
    comult = _array_in(field, _get(obj, "comult", path), (n, n, n), f"{path}.comult")
    counit = _array_in(field, _get(obj, "counit", path), (n,), f"{path}.counit")
    coalgebra = CoalgebraPresentation(field, n, comult, counit)
    anti = obj.get("antipode")
    antipode = None if anti is None else _array_in(field, anti, (n, n),
                                                   f"{path}.antipode")
    return WeakHopfPresentation(algebra, coalgebra, antipode)


def _algebroid_payload(h) -> dict:
    f = h.field
    return {
        "base": _algebra_out(f, h.base.algebra),
        "total": _algebra_out(f, h.total),
        "src": array_to_json(f, h.src),
        "tgt": array_to_json(f, h.tgt),
        "comult_lift": array_to_json(f, h.comult_lift),
        "counit": array_to_json(f, h.counit),
        "antipode": None if h.antipode is None else array_to_json(f, h.antipode),
    }


def _algebroid_parse(field, obj, path):
    from .hopfalgd import CommAlgebraPresentation, HopfAlgebroidPresentation
    base_alg = _algebra_in(field, _get(obj, "base", path), f"{path}.base")
    try:
        base = CommAlgebraPresentation(base_alg)
    except ValueError as exc:
        _fail(f"{path}.base", str(exc))
    total = _algebra_in(field, _get(obj, "total", path), f"{path}.total")
    dr, n = base.dim, total.dim
    if n ** 3 > MAX_AXIS:
        _fail(f"{path}.total.dim", f"dimension {n} is above the algebroid limit: "
                                   f"A (x) A (x) A has {n}^3 coordinates, over {MAX_AXIS}")
    src = _array_in(field, _get(obj, "src", path), (n, dr), f"{path}.src")
    tgt = _array_in(field, _get(obj, "tgt", path), (n, dr), f"{path}.tgt")
    lift = _array_in(field, _get(obj, "comult_lift", path), (n * n, n),
                     f"{path}.comult_lift")
    counit = _array_in(field, _get(obj, "counit", path), (dr, n), f"{path}.counit")
    anti = obj.get("antipode")
    antipode = None if anti is None else _array_in(field, anti, (n, n),
                                                   f"{path}.antipode")
    return HopfAlgebroidPresentation(base, total, src, tgt, lift, counit, antipode)


def _hopfcat_payload(h) -> dict:
    f = h.field
    homs = []
    for (x, y) in sorted(h.homs):
        c = h.homs[(x, y)]
        homs.append({
            "source": x,
            "target": y,
            "dim": c.dim,
            "comult": array_to_json(f, c.comult),
            "counit": array_to_json(f, c.counit),
        })
    comps = [{"path": list(key), "matrix": array_to_json(f, h.comps[key])}
             for key in sorted(h.comps)]
    units = [{"object": x, "vector": array_to_json(f, h.units[x])}
             for x in sorted(h.units)]
    antipode = None
    if h.antipode is not None:
        antipode = [{"source": x, "target": y,
                     "matrix": array_to_json(f, h.antipode[(x, y)])}
                    for (x, y) in sorted(h.antipode)]
    return {"objects": list(h.objects), "homs": homs, "comps": comps,
            "units": units, "antipode": antipode}


def _hopfcat_parse(field, obj, path):
    from .hopfcat import HopfCategoryPresentation
    objects = _get(obj, "objects", path, list)
    if not all(isinstance(x, str) for x in objects):
        _fail(f"{path}.objects", "object labels must be text")
    if not objects:
        _fail(f"{path}.objects", "a Hopf category needs at least one object")
    nobj = len(objects)
    homs = {}
    for i, entry in enumerate(_get(obj, "homs", path, list)):
        p = f"{path}.homs[{i}]"
        x, y = _get(entry, "source", p, int), _get(entry, "target", p, int)
        if not (0 <= x < nobj and 0 <= y < nobj):
            _fail(p, "object index out of range")
        if (x, y) in homs:
            _fail(p, f"repeats the hom ({x}, {y})")
        d = _dim_in(entry, p)
        comult = _array_in(field, _get(entry, "comult", p), (d, d, d), f"{p}.comult")
        counit = _array_in(field, _get(entry, "counit", p), (d,), f"{p}.counit")
        homs[(x, y)] = CoalgebraPresentation(field, d, comult, counit)
    comps = {}
    for i, entry in enumerate(_get(obj, "comps", path, list)):
        p = f"{path}.comps[{i}]"
        key = _get(entry, "path", p, list)
        if len(key) != 3 or not all(_is_int(k) for k in key):
            _fail(f"{p}.path", "expected three object indices")
        x, y, z = key
        if (x, y) not in homs or (y, z) not in homs or (x, z) not in homs:
            _fail(f"{p}.path", "refers to a missing hom")
        if (x, y, z) in comps:
            _fail(f"{p}.path", f"repeats the composition ({x}, {y}, {z})")
        comps[(x, y, z)] = _array_in(
            field, _get(entry, "matrix", p),
            (homs[(x, z)].dim, homs[(x, y)].dim * homs[(y, z)].dim), f"{p}.matrix")
    units = {}
    for i, entry in enumerate(_get(obj, "units", path, list)):
        p = f"{path}.units[{i}]"
        x = _get(entry, "object", p, int)
        if (x, x) not in homs:
            _fail(p, "unit object has no hom")
        if x in units:
            _fail(f"{p}.object", f"repeats the unit of object {x}")
        units[x] = _array_in(field, _get(entry, "vector", p),
                             (homs[(x, x)].dim,), f"{p}.vector")
    antipode = None
    if obj.get("antipode") is not None:
        antipode = {}
        for i, entry in enumerate(_get(obj, "antipode", path, list)):
            p = f"{path}.antipode[{i}]"
            x, y = _get(entry, "source", p, int), _get(entry, "target", p, int)
            if (x, y) not in homs or (y, x) not in homs:
                _fail(p, "refers to a missing hom")
            if (x, y) in antipode:
                _fail(p, f"repeats the antipode ({x}, {y})")
            antipode[(x, y)] = _array_in(
                field, _get(entry, "matrix", p),
                (homs[(y, x)].dim, homs[(x, y)].dim), f"{p}.matrix")
    try:
        return HopfCategoryPresentation(tuple(objects), homs, comps, units, antipode)
    except ValueError as exc:
        _fail(path, str(exc))


def _group_payload(g) -> dict:
    return {
        "order": g.order,
        "identity": g.identity,
        "table": [list(r) for r in g.table],
        "inverse": list(g.inverse),
        "labels": list(g.labels),
    }


def _group_parse(field, obj, path):
    from .examples import GroupPresentation
    order = _dim_in(obj, path, "order", "order")
    table = _get(obj, "table", path, list)
    if not all(isinstance(row, list) and all(_is_int(x) for x in row) for row in table):
        _fail(f"{path}.table", "expected rows of integers")
    if len(table) != order or any(len(row) != order for row in table):
        _fail(f"{path}.table", "table must be order x order")
    labels = _labels_in(_get(obj, "labels", path), order, f"{path}.labels")
    identity = _get(obj, "identity", path, int)
    inverse = _ints(obj, "inverse", path)
    try:
        return GroupPresentation(order, tuple(map(tuple, table)), identity, inverse,
                                 labels)
    except ValueError as exc:
        _fail(f"{path}.table", str(exc))


def _groupoid_payload(g) -> dict:
    return {
        "objects": list(g.objects),
        "source": list(g.source),
        "target": list(g.target),
        "compose": [[f, h, fh] for (f, h), fh in sorted(g.compose.items())],
        "identity": list(g.identity),
        "inverse": list(g.inverse),
        "labels": list(g.labels),
    }


def _groupoid_parse(field, obj, path):
    from .examples import GroupoidPresentation
    objects = tuple(_get(obj, "objects", path, list))
    if not all(isinstance(x, str) for x in objects):
        _fail(f"{path}.objects", "object labels must be text")
    source = _ints(obj, "source", path)
    if len(source) > MAX_GENERATED_ORDER:
        _fail(f"{path}.source", f"more than {MAX_GENERATED_ORDER} morphisms")
    target = _ints(obj, "target", path)
    compose = {}
    for i, item in enumerate(_get(obj, "compose", path, list)):
        if not (isinstance(item, list) and len(item) == 3 and
                all(_is_int(m) for m in item)):
            _fail(f"{path}.compose[{i}]", "expected [f, h, composite]")
        if (item[0], item[1]) in compose:
            _fail(f"{path}.compose[{i}]", f"repeats the pair ({item[0]}, {item[1]})")
        compose[(item[0], item[1])] = item[2]
    identity = _ints(obj, "identity", path)
    inverse = _ints(obj, "inverse", path)
    labels = _labels_in(_get(obj, "labels", path), len(source), f"{path}.labels")
    try:
        return GroupoidPresentation(objects, source, target, compose,
                                    identity, inverse, labels)
    except ValueError as exc:
        _fail(path, str(exc))


def _commalgebra_payload(c) -> dict:
    return _algebra_out(c.field, c.algebra)


def _commalgebra_parse(field, obj, path):
    from .hopfalgd import CommAlgebraPresentation
    algebra = _algebra_in(field, obj, path)
    try:
        return CommAlgebraPresentation(algebra)
    except ValueError as exc:
        _fail(path, str(exc))


def _weakhopf_check(w) -> AxiomReport:
    from .weakhopf import check_antipode, check_weak_bialgebra
    report = check_weak_bialgebra(w)
    if report.ok() and w.antipode is not None:
        report = report.merged(check_antipode(w))
    return report


def _algebroid_check(h) -> AxiomReport:
    from .hopfalgd import check_hopf_algebroid
    return check_hopf_algebroid(h)


def _hopfcat_check(h) -> AxiomReport:
    from .hopfcat import check_hopf_category
    return check_hopf_category(h)


class FileKind(Frozen):
    """How the structure file of one kind is read, written and validated."""

    fielded: bool    # whether the file carries a field descriptor
    parse: object    # parse(field, payload, path), field None when not fielded
    payload: object  # payload(presentation) -> the JSON payload
    check: object    # check(presentation) -> AxiomReport; None when the
                     # constructor checked every axiom


KINDS = {
    "weakhopf": FileKind(True, _weakhopf_parse, _weakhopf_payload, _weakhopf_check),
    "algebroid": FileKind(True, _algebroid_parse, _algebroid_payload, _algebroid_check),
    "hopfcat": FileKind(True, _hopfcat_parse, _hopfcat_payload, _hopfcat_check),
    "group": FileKind(False, _group_parse, _group_payload, None),
    "groupoid": FileKind(False, _groupoid_parse, _groupoid_payload, None),
    "commalgebra": FileKind(True, _commalgebra_parse, _commalgebra_payload, None),
}


# ---------------------------------------------------------------------------
# top level


def kind_of(presentation) -> str:
    """The kind tag of the presentation's structure file, read from its class."""
    kind = getattr(type(presentation), "FILE_KIND", None)
    if kind is None:
        raise TypeError(f"not a serializable presentation: {type(presentation)!r}")
    return kind


def presentation_field(presentation):
    """The field of the presentation; None for a kind whose file has none."""
    return presentation.field if KINDS[kind_of(presentation)].fielded else None


def serialize_structure(presentation) -> str:
    """Canonical JSON text for any presentation kind."""
    kind = kind_of(presentation)
    field = presentation_field(presentation)
    doc = {
        "format_version": FORMAT_VERSION,
        "field": None if field is None else field_to_json(field),
        "kind": kind,
        "payload": KINDS[kind].payload(presentation),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def check_presentation(presentation) -> AxiomReport:
    """Every axiom check that applies to the presentation's kind."""
    check = KINDS[kind_of(presentation)].check
    return AxiomReport() if check is None else check(presentation)


def parse_structure_text(text: str):
    """Parse and eagerly validate; returns the presentation of the declared kind."""
    presentation = parse_structure_text_unvalidated(text)
    report = check_presentation(presentation)
    if not report.ok():
        raise StructureFileError("axiom failure:\n" + report.render())
    return presentation


def read_structure_text(path) -> str:
    """The text of one structure file; StructureFileError when it cannot be
    read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from exc


def parse_structure_file(path):
    """Load, parse and validate one structure file."""
    return parse_structure_text(read_structure_text(path))


def parse_structure_text_unvalidated(text: str):
    """Parse without running axiom validators (version, kind and shape checks)."""
    return _parse_doc(_load_json(text))


def _load_json(text: str):
    """The JSON document of text; StructureFileError when it is not JSON or
    an object in it repeats a key, which plain json.loads would let the last
    value win."""
    repeats = []

    def pairs_hook(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs) and not repeats:
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    repeats.append((obj, key))
                    break
                seen.add(key)
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=pairs_hook)
    except ValueError as exc:
        raise StructureFileError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructureFileError("not valid JSON: nested too deeply") from exc
    if repeats:
        obj, key = repeats[0]
        _fail(_path_of(doc, obj), f"repeats the key {key!r}")
    return doc


def _path_of(doc, target) -> str:
    """The path of the node target (by identity) in doc.  The walk does not
    recurse: from Python 3.12 the parser's nesting limit is the C recursion
    limit, above the limit on nested Python calls."""
    stack = [("$", doc)]
    while stack:
        path, node = stack.pop()
        if node is target:
            return path
        if isinstance(node, dict):
            stack.extend((f"{path}.{k}", v) for k, v in node.items())
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", v) for i, v in enumerate(node))


def _parse_doc(doc):
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")
    version = _get(doc, "format_version", "$", str)
    if version != FORMAT_VERSION:
        _fail("$.format_version", f"unsupported version {version!r}")
    tag = _get(doc, "kind", "$", str)
    kind = KINDS.get(tag)
    if kind is None:
        _fail("$.kind", f"unknown kind {tag!r}")
    payload = _get(doc, "payload", "$", dict)
    field = field_from_json(_get(doc, "field", "$", dict), "$.field") if kind.fielded \
        else None
    return kind.parse(field, payload, "$.payload")
