"""Structure-file I/O: canonical JSON for every presentation kind.

Files carry a format version, a field descriptor, a kind tag and a
kind-specific payload of structure constants.  Scalars are text tokens
("3/2", "-1", "4"), so files stay exact and human-diffable.  Serialization
is canonical: parse-then-serialize is byte-stable.
"""

from __future__ import annotations

import json

from .examples import MAX_GENERATED_ORDER, GroupPresentation, GroupoidPresentation
from .exactlin import MAX_AXIS, FieldSpec, Matrix, Tensor3
from .finalg import AlgebraPresentation, AxiomReport, CoalgebraPresentation
from .hopfalgd import CommAlgebraPresentation, HopfAlgebroidPresentation, \
    check_hopf_algebroid
from .hopfcat import HopfCategoryPresentation, check_hopf_category
from .weakhopf import WeakHopfPresentation, check_antipode, check_weak_bialgebra

FORMAT_VERSION = "maschke-kit/1"
KINDS = ("weakhopf", "algebroid", "hopfcat", "group", "groupoid", "commalgebra")


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


def field_from_json(obj, path="field") -> FieldSpec:
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


def _scalar_out(field, v):
    return field.format_scalar(v)


def _vector_out(field, vec):
    return [_scalar_out(field, v) for v in vec]


def _matrix_out(field, m: Matrix):
    return [[_scalar_out(field, m.at(i, j)) for j in range(m.cols)]
            for i in range(m.rows)]


def _tensor_out(field, t: Tensor3):
    return [[[_scalar_out(field, t.at(i, j, k)) for k in range(t.d2)]
             for j in range(t.d1)] for i in range(t.d0)]


def _token_parser(field):
    """field.parse_scalar that parses each distinct text token once.

    Anything but text goes straight to parse_scalar, which refuses it; a
    failing token raises before it is stored.
    """
    parsed = {}

    def parse(x):
        if type(x) is not str:
            return field.parse_scalar(x)
        value = parsed.get(x)
        if value is None:
            value = parsed[x] = field.parse_scalar(x)
        return value

    return parse


def _vector_in(field, obj, length, path):
    if not isinstance(obj, list) or len(obj) != length:
        _fail(path, f"expected a list of {length} scalars")
    try:
        return tuple(map(_token_parser(field), obj))
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


def _matrix_in(field, obj, rows, cols, path):
    if not isinstance(obj, list) or len(obj) != rows:
        _fail(path, f"expected {rows} rows")
    parse = _token_parser(field)
    ent = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            _fail(f"{path}[{i}]", f"expected {cols} entries")
        try:
            ent.extend(map(parse, row))
        except (ValueError, TypeError) as exc:
            _fail(f"{path}[{i}]", str(exc))
    return Matrix(field, rows, cols, tuple(ent))


def _tensor_in(field, obj, d0, d1, d2, path):
    if not isinstance(obj, list) or len(obj) != d0:
        _fail(path, f"expected {d0} planes")
    parse = _token_parser(field)
    ent = []
    for i, plane in enumerate(obj):
        if not isinstance(plane, list) or len(plane) != d1:
            _fail(f"{path}[{i}]", f"expected {d1} rows")
        for j, row in enumerate(plane):
            if not isinstance(row, list) or len(row) != d2:
                _fail(f"{path}[{i}][{j}]", f"expected {d2} entries")
            try:
                ent.extend(map(parse, row))
            except (ValueError, TypeError) as exc:
                _fail(f"{path}[{i}][{j}]", str(exc))
    return Tensor3(field, d0, d1, d2, tuple(ent))


def _dim_in(obj, path) -> int:
    """The declared dimension, refused above the limit on generated orders
    before any table of that size is read."""
    dim = _get(obj, "dim", path, int)
    if dim > MAX_GENERATED_ORDER:
        _fail(f"{path}.dim", f"dimension {dim} is above the limit of "
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
        "mult": _tensor_out(field, a.mult),
        "unit": _vector_out(field, a.unit),
    }


def _algebra_in(field, obj, path) -> AlgebraPresentation:
    dim = _dim_in(obj, path)
    labels = _labels_in(_get(obj, "labels", path), dim, f"{path}.labels")
    mult = _tensor_in(field, _get(obj, "mult", path), dim, dim, dim, f"{path}.mult")
    unit = _vector_in(field, _get(obj, "unit", path), dim, f"{path}.unit")
    try:
        return AlgebraPresentation(field, dim, labels, mult, unit)
    except ValueError as exc:
        _fail(path, str(exc))


def _weakhopf_payload(w: WeakHopfPresentation) -> dict:
    f = w.field
    payload = _algebra_out(f, w.algebra)
    payload["comult"] = _tensor_out(f, w.coalgebra.comult)
    payload["counit"] = _vector_out(f, w.coalgebra.counit)
    payload["antipode"] = None if w.antipode is None else _matrix_out(f, w.antipode)
    return payload


def _weakhopf_parse(field, obj, path) -> WeakHopfPresentation:
    algebra = _algebra_in(field, obj, path)
    n = algebra.dim
    comult = _tensor_in(field, _get(obj, "comult", path), n, n, n, f"{path}.comult")
    counit = _vector_in(field, _get(obj, "counit", path), n, f"{path}.counit")
    coalgebra = CoalgebraPresentation(field, n, comult, counit)
    anti = obj.get("antipode")
    antipode = None if anti is None else _matrix_in(field, anti, n, n,
                                                    f"{path}.antipode")
    return WeakHopfPresentation(algebra, coalgebra, antipode)


def _algebroid_payload(h: HopfAlgebroidPresentation) -> dict:
    f = h.field
    return {
        "base": _algebra_out(f, h.base.algebra),
        "total": _algebra_out(f, h.total),
        "src": _matrix_out(f, h.src),
        "tgt": _matrix_out(f, h.tgt),
        "comult_lift": _matrix_out(f, h.comult_lift),
        "counit": _matrix_out(f, h.counit),
        "antipode": None if h.antipode is None else _matrix_out(f, h.antipode),
    }


def _algebroid_parse(field, obj, path) -> HopfAlgebroidPresentation:
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
    src = _matrix_in(field, _get(obj, "src", path), n, dr, f"{path}.src")
    tgt = _matrix_in(field, _get(obj, "tgt", path), n, dr, f"{path}.tgt")
    lift = _matrix_in(field, _get(obj, "comult_lift", path), n * n, n,
                      f"{path}.comult_lift")
    counit = _matrix_in(field, _get(obj, "counit", path), dr, n, f"{path}.counit")
    anti = obj.get("antipode")
    antipode = None if anti is None else _matrix_in(field, anti, n, n,
                                                    f"{path}.antipode")
    return HopfAlgebroidPresentation(base, total, src, tgt, lift, counit, antipode)


def _hopfcat_payload(h: HopfCategoryPresentation) -> dict:
    f = h.field if h.n_objects else FieldSpec.rationals()
    homs = []
    for (x, y) in sorted(h.homs):
        c = h.homs[(x, y)]
        homs.append({
            "source": x,
            "target": y,
            "dim": c.dim,
            "comult": _tensor_out(f, c.comult),
            "counit": _vector_out(f, c.counit),
        })
    comps = [{"path": list(key), "matrix": _matrix_out(f, h.comps[key])}
             for key in sorted(h.comps)]
    units = [{"object": x, "vector": _vector_out(f, h.units[x])}
             for x in sorted(h.units)]
    antipode = None
    if h.antipode is not None:
        antipode = [{"source": x, "target": y,
                     "matrix": _matrix_out(f, h.antipode[(x, y)])}
                    for (x, y) in sorted(h.antipode)]
    return {"objects": list(h.objects), "homs": homs, "comps": comps,
            "units": units, "antipode": antipode}


def _hopfcat_parse(field, obj, path) -> HopfCategoryPresentation:
    objects = _get(obj, "objects", path, list)
    if not all(isinstance(x, str) for x in objects):
        _fail(f"{path}.objects", "object labels must be text")
    nobj = len(objects)
    homs = {}
    for i, entry in enumerate(_get(obj, "homs", path, list)):
        p = f"{path}.homs[{i}]"
        x, y = _get(entry, "source", p, int), _get(entry, "target", p, int)
        if not (0 <= x < nobj and 0 <= y < nobj):
            _fail(p, "object index out of range")
        d = _dim_in(entry, p)
        comult = _tensor_in(field, _get(entry, "comult", p), d, d, d, f"{p}.comult")
        counit = _vector_in(field, _get(entry, "counit", p), d, f"{p}.counit")
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
        comps[(x, y, z)] = _matrix_in(
            field, _get(entry, "matrix", p),
            homs[(x, z)].dim, homs[(x, y)].dim * homs[(y, z)].dim, f"{p}.matrix")
    units = {}
    for i, entry in enumerate(_get(obj, "units", path, list)):
        p = f"{path}.units[{i}]"
        x = _get(entry, "object", p, int)
        if (x, x) not in homs:
            _fail(p, "unit object has no hom")
        units[x] = _vector_in(field, _get(entry, "vector", p),
                              homs[(x, x)].dim, f"{p}.vector")
    antipode = None
    if obj.get("antipode") is not None:
        antipode = {}
        for i, entry in enumerate(_get(obj, "antipode", path, list)):
            p = f"{path}.antipode[{i}]"
            x, y = _get(entry, "source", p, int), _get(entry, "target", p, int)
            if (x, y) not in homs or (y, x) not in homs:
                _fail(p, "refers to a missing hom")
            antipode[(x, y)] = _matrix_in(
                field, _get(entry, "matrix", p),
                homs[(y, x)].dim, homs[(x, y)].dim, f"{p}.matrix")
    try:
        return HopfCategoryPresentation(tuple(objects), homs, comps, units, antipode)
    except ValueError as exc:
        _fail(path, str(exc))


def _group_payload(g: GroupPresentation) -> dict:
    return {
        "order": g.order,
        "identity": g.identity,
        "table": [list(r) for r in g.table],
        "inverse": list(g.inverse),
        "labels": list(g.labels),
    }


def _group_parse(obj, path) -> GroupPresentation:
    order = _get(obj, "order", path, int)
    table = _get(obj, "table", path, list)
    if not all(isinstance(row, list) and all(_is_int(x) for x in row) for row in table):
        _fail(f"{path}.table", "expected rows of integers")
    labels = _labels_in(_get(obj, "labels", path), order, f"{path}.labels")
    try:
        g = GroupPresentation.from_table(table, labels)
    except (ValueError, TypeError, IndexError) as exc:
        _fail(f"{path}.table", str(exc))
    if g.identity != _get(obj, "identity", path, int):
        _fail(f"{path}.identity", "does not match the table")
    if g.inverse != _ints(obj, "inverse", path):
        _fail(f"{path}.inverse", "does not match the table")
    return g


def _groupoid_payload(g: GroupoidPresentation) -> dict:
    return {
        "objects": list(g.objects),
        "source": list(g.source),
        "target": list(g.target),
        "compose": [[f, h, fh] for (f, h), fh in sorted(g.compose.items())],
        "identity": list(g.identity),
        "inverse": list(g.inverse),
        "labels": list(g.labels),
    }


def _groupoid_parse(obj, path) -> GroupoidPresentation:
    objects = tuple(_get(obj, "objects", path, list))
    source = _ints(obj, "source", path)
    target = _ints(obj, "target", path)
    compose = {}
    for i, item in enumerate(_get(obj, "compose", path, list)):
        if not (isinstance(item, list) and len(item) == 3 and
                all(_is_int(m) for m in item)):
            _fail(f"{path}.compose[{i}]", "expected [f, h, composite]")
        compose[(item[0], item[1])] = item[2]
    identity = _ints(obj, "identity", path)
    inverse = _ints(obj, "inverse", path)
    labels = _labels_in(_get(obj, "labels", path), len(source), f"{path}.labels")
    try:
        return GroupoidPresentation(objects, source, target, compose,
                                    identity, inverse, labels)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        _fail(path, str(exc))


def _commalgebra_parse(field, obj, path) -> CommAlgebraPresentation:
    algebra = _algebra_in(field, obj, path)
    try:
        return CommAlgebraPresentation(algebra)
    except ValueError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# top level


def kind_of(presentation) -> str:
    if isinstance(presentation, WeakHopfPresentation):
        return "weakhopf"
    if isinstance(presentation, HopfAlgebroidPresentation):
        return "algebroid"
    if isinstance(presentation, HopfCategoryPresentation):
        return "hopfcat"
    if isinstance(presentation, GroupPresentation):
        return "group"
    if isinstance(presentation, GroupoidPresentation):
        return "groupoid"
    if isinstance(presentation, CommAlgebraPresentation):
        return "commalgebra"
    raise TypeError(f"not a serializable presentation: {type(presentation)!r}")


def presentation_field(presentation):
    kind = kind_of(presentation)
    if kind in ("group", "groupoid"):
        return None
    if kind == "hopfcat" and presentation.n_objects == 0:
        return FieldSpec.rationals()
    return presentation.field


def serialize_structure(presentation) -> str:
    """Canonical JSON text for any presentation kind."""
    kind = kind_of(presentation)
    field = presentation_field(presentation)
    if kind == "weakhopf":
        payload = _weakhopf_payload(presentation)
    elif kind == "algebroid":
        payload = _algebroid_payload(presentation)
    elif kind == "hopfcat":
        payload = _hopfcat_payload(presentation)
    elif kind == "group":
        payload = _group_payload(presentation)
    elif kind == "groupoid":
        payload = _groupoid_payload(presentation)
    else:
        payload = _algebra_out(field, presentation.algebra)
    doc = {
        "format_version": FORMAT_VERSION,
        "field": None if field is None else field_to_json(field),
        "kind": kind,
        "payload": payload,
    }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def check_presentation(presentation) -> AxiomReport:
    """Every axiom check that applies to the presentation's kind."""
    kind = kind_of(presentation)
    if kind == "weakhopf":
        report = check_weak_bialgebra(presentation)
        if report.ok() and presentation.antipode is not None:
            report = report.merged(check_antipode(presentation))
        return report
    if kind == "algebroid":
        return check_hopf_algebroid(presentation)
    if kind == "hopfcat":
        return check_hopf_category(presentation)
    # group/groupoid/commalgebra constructors already verified their axioms
    return AxiomReport()


def parse_structure_text(text: str):
    """Parse and eagerly validate; returns the presentation of the declared kind."""
    presentation = parse_structure_text_unvalidated(text)
    report = check_presentation(presentation)
    if not report.ok():
        raise StructureFileError("axiom failure:\n" + report.render())
    return presentation


def parse_structure_file(path):
    """Load, parse and validate one structure file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureFileError(f"cannot read {path}: {exc}") from exc
    return parse_structure_text(text)


def parse_structure_text_unvalidated(text: str):
    """Parse without running axiom validators (version, kind and shape checks)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise StructureFileError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructureFileError("not valid JSON: nested too deeply") from exc
    return _parse_doc(doc)


def _parse_doc(doc):
    if not isinstance(doc, dict):
        _fail("$", "top level must be an object")
    version = _get(doc, "format_version", "$", str)
    if version != FORMAT_VERSION:
        _fail("$.format_version", f"unsupported version {version!r}")
    kind = _get(doc, "kind", "$", str)
    if kind not in KINDS:
        _fail("$.kind", f"unknown kind {kind!r}")
    payload = _get(doc, "payload", "$", dict)
    field = None
    if kind not in ("group", "groupoid"):
        field = field_from_json(_get(doc, "field", "$", dict))
    if kind == "weakhopf":
        return _weakhopf_parse(field, payload, "$.payload")
    if kind == "algebroid":
        return _algebroid_parse(field, payload, "$.payload")
    if kind == "hopfcat":
        return _hopfcat_parse(field, payload, "$.payload")
    if kind == "group":
        return _group_parse(payload, "$.payload")
    if kind == "groupoid":
        return _groupoid_parse(payload, "$.payload")
    return _commalgebra_parse(field, payload, "$.payload")
