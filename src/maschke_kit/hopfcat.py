"""Hopf categories enriched in finite-dimensional vector spaces.

A presentation assigns a coalgebra a(x,y) to every ordered pair of objects,
composition maps a(x,y) (x) a(y,z) -> a(x,z), unit vectors in a(x,x) and an
optional antipode family a(x,y) -> a(y,x).  Composition and units must be
coalgebra morphisms.  The solvers look for object-indexed families: counit
retractions per object, one normalized integral family, and one separability
structure family, each as a single exact feasibility problem.
"""

from __future__ import annotations

import itertools

from .exactlin import ConstraintSystem, FieldSpec, Frozen
from .finalg import (
    AxiomFailure,
    AxiomReport,
    InvalidPresentationError,
    MaschkeReport,
    _associativity_failures,
    _balanced_certificate,
    _balanced_system,
    _comult_by_source,
    _comult_products,
    _comult_sum,
    _convolution,
    _dot,
    _once,
    _product,
    _require_antipode,
    _table_matrix,
    _terms,
    check_coalgebra,
    solve_coseparability,
)


class HopfCategoryPresentation(Frozen):
    objects: tuple                 # labels; object indices are 0..len-1
    homs: dict                     # (x, y) -> CoalgebraPresentation
    comps: dict                    # (x, y, z) -> Matrix a(x,y)(x)a(y,z) -> a(x,z)
    units: dict                    # x -> vector in a(x,x)
    antipode: dict | None = None   # (x, y) -> Matrix a(x,y) -> a(y,x)

    def __post_init__(self):
        nobj = len(self.objects)
        pairs = [(x, y) for x in range(nobj) for y in range(nobj)]
        if set(self.homs) != set(pairs):
            raise ValueError("homs must be a dense table over object pairs")
        fields = {c.field for c in self.homs.values()}
        if nobj and len(fields) != 1:
            raise ValueError("all homs must share one field")
        for (x, y, z), m in self.comps.items():
            dxy, dyz, dxz = self.dim(x, y), self.dim(y, z), self.dim(x, z)
            if (m.rows, m.cols) != (dxz, dxy * dyz):
                raise ValueError(f"composition {(x, y, z)} has wrong shape")
        if set(self.comps) != {(x, y, z) for x in range(nobj)
                               for y in range(nobj) for z in range(nobj)}:
            raise ValueError("comps must be a dense table over object triples")
        if set(self.units) != set(range(nobj)):
            raise ValueError("units must be a dense table over objects")
        for x, u in self.units.items():
            if len(u) != self.dim(x, x):
                raise ValueError(f"unit of object {x} has wrong length")
        if self.antipode is not None:
            if set(self.antipode) != set(pairs):
                raise ValueError("antipode must be a dense table over object pairs")
            for (x, y), m in self.antipode.items():
                if (m.rows, m.cols) != (self.dim(y, x), self.dim(x, y)):
                    raise ValueError(f"antipode {(x, y)} has wrong shape")

    @property
    def field(self) -> FieldSpec:
        return next(iter(self.homs.values())).field

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    def dim(self, x: int, y: int) -> int:
        return self.homs[(x, y)].dim

    def hom_pairs(self) -> list:
        return [(x, y) for x in range(self.n_objects) for y in range(self.n_objects)]


@_once
def check_hopf_category(h: HopfCategoryPresentation) -> AxiomReport:
    """Enriched category axioms, comonoid-morphism laws, antipode family."""
    failures = []
    for (x, y), c in sorted(h.homs.items()):
        rep = check_coalgebra(c)
        for fail in rep.failures:
            failures.append(AxiomFailure(f"hom({x},{y}) {fail.law}", fail.witness))
    if failures:
        return AxiomReport(tuple(failures))
    if h.n_objects == 0:
        return AxiomReport()
    f = h.field
    objs = range(h.n_objects)
    mul, reduce, one = f.mul, f.reduce, f.one()
    # tables[(x, y, z)][a][b]: the (m, value) of e_a e_b, a in a(x,y), b in a(y,z)
    tables = {}
    for key, m in h.comps.items():
        cols, d = m.columns(), h.dim(key[1], key[2])
        tables[key] = [cols[a * d:(a + 1) * d] for a in range(h.dim(key[0], key[1]))]

    # associativity and unit laws of composition
    for x, y, z, w in itertools.product(objs, repeat=4):
        if next(_associativity_failures(f, tables[(x, y, z)], tables[(x, z, w)],
                                        tables[(y, z, w)], tables[(x, y, w)],
                                        h.dim(x, w)), None):
            failures.append(AxiomFailure("composition associativity", (x, y, z, w)))
    for x, y in itertools.product(objs, repeat=2):
        ux, uy, basis = _terms(h.units[x]), _terms(h.units[y]), range(h.dim(x, y))
        if any(_product(f, tables[(x, x, y)], ux, [(p, one)]) != {p: one} for p in basis):
            failures.append(AxiomFailure("left unit law", (x, y)))
        if any(_product(f, tables[(x, y, y)], [(p, one)], uy) != {p: one} for p in basis):
            failures.append(AxiomFailure("right unit law", (x, y)))

    # composition is a coalgebra morphism:
    # Delta(pq) = p1 q1 (x) p2 q2 and eps(pq) = eps(p) eps(q) on basis elements
    for x, y, z in itertools.product(objs, repeat=3):
        cxy, cyz, cxz = h.homs[(x, y)], h.homs[(y, z)], h.homs[(x, z)]
        table, dxz = tables[(x, y, z)], cxz.dim
        delta_xz = _comult_by_source(cxz)
        comultiplicative = counital = True
        for p, q, rhs in _comult_products(_comult_by_source(cxy), _comult_by_source(cyz),
                                          table, dxz):
            lhs = [0] * (dxz * dxz)
            for m, t in table[p][q]:
                for a, b, s in delta_xz[m]:
                    lhs[a * dxz + b] += t * s
            comultiplicative = comultiplicative and (
                lhs == rhs or list(map(reduce, lhs)) == list(map(reduce, rhs)))
            counital &= _dot(f, cxz.counit, table[p][q]) == \
                mul(cxy.counit[p], cyz.counit[q])
        if not comultiplicative:
            failures.append(AxiomFailure("composition comultiplicativity", (x, y, z)))
        if not counital:
            failures.append(AxiomFailure("composition counit law", (x, y, z)))

    # units are grouplike
    for x in objs:
        cxx, u = h.homs[(x, x)], _terms(h.units[x])
        outer = {a * cxx.dim + b: mul(ca, cb) for a, ca in u for b, cb in u}
        if _comult_sum(f, _comult_by_source(cxx), u) != outer:
            failures.append(AxiomFailure("unit grouplike", (x,)))
        if _dot(f, cxx.counit, u) != one:
            failures.append(AxiomFailure("unit counit", (x,)))

    # antipode family (external-definition check):
    # h1 S(h2) = eps(h) 1_x (left) and S(h1) h2 = eps(h) 1_y (right)
    if h.antipode is not None:
        for x, y in itertools.product(objs, repeat=2):
            cxy = h.homs[(x, y)]
            s = h.antipode[(x, y)].columns()
            for law, key, left, right in (("left", (x, y, x), None, s),
                                          ("right", (y, x, y), s, None)):
                got = _convolution(f, _comult_by_source(cxy), left, right, tables[key])
                unit = _terms(h.units[key[0]])
                if any(got[i] != {m: mul(e, u) for m, u in unit if e != 0}
                       for i, e in enumerate(cxy.counit)):
                    failures.append(AxiomFailure(
                        f"antipode {law} composite (external-definition check)", (x, y)))
    return AxiomReport(tuple(failures))


def _require_valid(h: HopfCategoryPresentation):
    report = check_hopf_category(h)
    if not report.ok():
        raise InvalidPresentationError(report, "Hopf category")


class RetractionFamily(Frozen):
    side: str
    table: dict    # x -> covector on a(x,x)


class IntegralFamily(Frozen):
    side: str
    table: dict    # (x, y) -> vector in a(x,y)


class SeparabilityFamily(Frozen):
    table: dict    # (x, v, y) -> Matrix a(x,y) -> a(x,v) (x) a(v,y)


class HomCoseparabilityReport(Frozen):
    table: dict    # (x, y) -> bool

    @property
    def all_coseparable(self) -> bool:
        return all(self.table.values())


def retraction_system(h: HopfCategoryPresentation, x: int,
                      side: str) -> ConstraintSystem:
    """Per-object system for a comodule retraction of the unit of a(x,x)."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    units = [(m, c) for m, c in enumerate(h.units[x]) if c != 0]

    def products():
        # h1 r(h2) (left) or r(h1) h2 (right) against r(h) u, for h = e_i
        for i, terms in enumerate(_comult_by_source(h.homs[(x, x)])):
            for j, k, t in terms:
                yield (0, i, j, k, t) if side == "left" else (0, i, k, j, t)
            for m, c in units:
                yield 1, i, m, i, c

    return _balanced_system(f, h.dim(x, x), [(0, m, c) for m, c in units], (f.one(),),
                            products())


def solve_retraction_family(h: HopfCategoryPresentation, side: str):
    """One retraction per object, solved independently; None if any fails."""
    _require_valid(h)
    table = {}
    for x in range(h.n_objects):
        sol = retraction_system(h, x, side).solve()
        if sol is None:
            return None
        table[x] = sol.particular
    return RetractionFamily(side, table)


def check_hom_coseparability(h: HopfCategoryPresentation) -> HomCoseparabilityReport:
    """Coseparability of each hom-coalgebra separately."""
    _require_valid(h)
    table = {}
    for (x, y), c in sorted(h.homs.items()):
        table[(x, y)] = solve_coseparability(c) is not None
    return HomCoseparabilityReport(table)


def _offsets(h: HopfCategoryPresentation, keys, sizes):
    offsets = {}
    total = 0
    for k in keys:
        offsets[k] = total
        total += sizes(k)
    return offsets, total


def integral_family_system(h: HopfCategoryPresentation, side: str) -> ConstraintSystem:
    """One coupled affine system over all family vectors theta_{x,y}."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    pairs = h.hom_pairs()
    offsets, total = _offsets(h, pairs, lambda p: h.dim(*p))

    def products():
        for x, y, z in itertools.product(range(h.n_objects), repeat=3):
            cols = h.comps[(x, y, z)].columns()
            dyz = h.dim(y, z)
            # left: mu(h (x) theta_{y,z}) = eps(h) theta_{x,z}, h in a(x,y);
            # right: mu(theta_{x,y} (x) h) = eps(h) theta_{x,z}, h in a(y,z)
            fixed, free = ((x, y), (y, z)) if side == "left" else ((y, z), (x, y))
            eps = h.homs[fixed].counit
            for i in range(h.dim(*fixed)):
                for c in range(h.dim(*free)):
                    for out, t in cols[i * dyz + c] if side == "left" else cols[c * dyz + i]:
                        yield 0, (x, y, z, i), out, offsets[free] + c, t
                if eps[i] != 0:
                    for out in range(h.dim(x, z)):
                        yield 1, (x, y, z, i), out, offsets[(x, z)] + out, eps[i]

    # eps(theta_{x,y}) = 1 for each pair
    norm = [(p, offsets[(x, y)] + m, e) for p, (x, y) in enumerate(pairs)
            for m, e in enumerate(h.homs[(x, y)].counit) if e != 0]
    return _balanced_system(f, total, norm, (f.one(),) * len(pairs), products())


def solve_integral_family(h: HopfCategoryPresentation, side: str):
    """A normalized integral family, or None when infeasible."""
    _require_valid(h)
    if h.n_objects == 0:
        return IntegralFamily(side, {})
    sol = integral_family_system(h, side).solve()
    if sol is None:
        return None
    pairs = h.hom_pairs()
    offsets, _ = _offsets(h, pairs, lambda p: h.dim(*p))
    table = {p: tuple(sol.particular[offsets[p]: offsets[p] + h.dim(*p)])
             for p in pairs}
    return IntegralFamily(side, table)


def _element_offsets(h: HopfCategoryPresentation):
    """Offsets of the elements e_{x,v} in a(x,v) (x) a(v,x), keyed (x, v)."""
    return _offsets(h, h.hom_pairs(), lambda p: h.dim(*p) * h.dim(p[1], p[0]))


def _family_terms(h: HopfCategoryPresentation):
    """(norm, rhs, products) of mu_{x,v,x}(e_{x,v}) = u_x and e_{x,v} h =
    h e_{z,v} for the basis elements h of a(x,z); the product with the i-th
    basis element of a(x,z) has g = ((x, v, z), i), and out indexes
    a(x,v) (x) a(v,z)."""
    offsets, _ = _element_offsets(h)
    norm, rhs = [], []
    for x, v in h.hom_pairs():
        for c, col in enumerate(h.comps[(x, v, x)].columns()):
            norm += [(len(rhs) + m, offsets[(x, v)] + c, t) for m, t in col]
        rhs += h.units[x]

    def products():
        for x, v, z in itertools.product(range(h.n_objects), repeat=3):
            dxv, dvx, dvz, dzv, dxz = (h.dim(x, v), h.dim(v, x), h.dim(v, z),
                                       h.dim(z, v), h.dim(x, z))
            # e_{x,v} h: (p (x) q) h = p (x) qh, at out p * dvz + w
            for c, col in enumerate(h.comps[(v, x, z)].columns()):
                q, i = divmod(c, dxz)
                for w, t in col:
                    for p in range(dxv):
                        yield (0, ((x, v, z), i), p * dvz + w,
                               offsets[(x, v)] + p * dvx + q, t)
            # h e_{z,v}: h (a (x) w) = ha (x) w
            for c, col in enumerate(h.comps[(x, z, v)].columns()):
                i, a = divmod(c, dzv)
                for p, t in col:
                    for w in range(dvz):
                        yield (1, ((x, v, z), i), p * dvz + w,
                               offsets[(z, v)] + a * dvz + w, t)

    return norm, rhs, products()


def separability_family_system(h: HopfCategoryPresentation) -> ConstraintSystem:
    """One coupled system over the separability elements e_{x,v}.

    Unknowns: the coefficient of e_p (x) e_q in e_{x,v}, in a(x,v) (x) a(v,x),
    at offset + p*dim(v,x) + q.  Rows: mu_{x,v,x}(e_{x,v}) = u_x, and
    e_{x,v} h = h e_{z,v} for every basis element h of a(x,z).  A
    separability family d is fixed by e_{x,v} = d_{x,v,x}(u_x), since its two
    squares give d_{x,v,z}(k) = e_{x,v} k, and every solution gives the family
    k -> e_{x,v} k, so the solutions correspond one to one with the families.
    """
    return _balanced_system(h.field, _element_offsets(h)[1], *_family_terms(h))


def solve_separability_family(h: HopfCategoryPresentation):
    """A verified separability structure family, or None when infeasible."""
    _require_valid(h)
    if h.n_objects == 0:
        return SeparabilityFamily({})
    sol = separability_family_system(h).solve()
    if sol is None:
        return None
    # the family k -> e_{x,v} k
    side0 = _balanced_certificate(
        h.field, sol.particular, *_family_terms(h),
        ("separability element does not compose to the unit",
         "separability elements do not commute with the homs"))
    tables = {key: {} for key in itertools.product(range(h.n_objects), repeat=3)}
    for ((key, i), out), value in side0.items():
        tables[key][(i, out)] = value
    return SeparabilityFamily({
        (x, v, z): _table_matrix(h.field, t, h.dim(x, v) * h.dim(v, z), h.dim(x, z))
        for (x, v, z), t in tables.items()})


def maschke_report(h: HopfCategoryPresentation) -> MaschkeReport:
    """Integral and retraction families by side, the separability family and
    per-hom coseparability (kept only when every hom is coseparable)."""
    _require_antipode(h)
    cosep = check_hom_coseparability(h)
    return MaschkeReport(
        {side: solve_integral_family(h, side) for side in ("left", "right")},
        {side: solve_retraction_family(h, side) for side in ("left", "right")},
        solve_separability_family(h),
        cosep if cosep.all_coseparable else None,
    )
