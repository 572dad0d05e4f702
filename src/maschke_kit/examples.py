"""Deterministic generators for the test corpus, and a mutation harness.

Groups and groupoids are given by their tables, identities and inverses,
verified by one law check.  One linearization of a product table builds
group and groupoid algebras and, as their dual, the dual group algebras; a
groupoid's hom-sets span a Hopf category; pair Hopf algebroids come from
commutative base algebras.  Composition convention for groupoids: f*h
means "apply h first" and is defined when target(h) = source(f).
"""

from __future__ import annotations

import random
from itertools import product

from .exactlin import FieldSpec, Frozen, Matrix, Tensor3
from .finalg import MAX_GENERATED_ORDER, AlgebraPresentation, CoalgebraPresentation
from .hopfalgd import CommAlgebraPresentation, HopfAlgebroidPresentation
from .hopfcat import HopfCategoryPresentation
from .weakhopf import WeakHopfPresentation


def _check_groupoid(n_objects, source, target, table, identity, inverse):
    """Refuse the data unless it is a groupoid.  Morphism f goes from object
    source[f] to object target[f]; table[f][h] is f after h, None exactly
    when source(f) != target(h); identity[x] is the identity of object x and
    inverse[f] the inverse of f.  A group is the groupoid of one object.
    Every index is checked against its range before the table is read."""
    if n_objects < 1:
        raise ValueError("a groupoid needs at least one object")
    m = len(table)
    if len(source) != m or len(target) != m or len(inverse) != m:
        raise ValueError("morphism table lengths differ")
    if any(not 0 <= x < n_objects for x in (*source, *target)):
        raise ValueError("object index out of range")
    if len(identity) != n_objects:
        raise ValueError(f"{len(identity)} identities for {n_objects} objects")
    if any(not 0 <= f < m for f in (*identity, *inverse)) or \
            any(fh is not None and not 0 <= fh < m for row in table for fh in row):
        raise ValueError("morphism index out of range")
    for f, row in enumerate(table):
        for h, fh in enumerate(row):
            if (fh is None) == (source[f] == target[h]):
                raise ValueError(f"composition partiality wrong at {(f, h)}")
            if fh is not None and (source[fh] != source[h] or target[fh] != target[f]):
                raise ValueError(f"composite {(f, h)} has wrong endpoints")
    for x, e in enumerate(identity):
        if source[e] != x or target[e] != x:
            raise ValueError(f"identity of object {x} has wrong endpoints")
    for f, g in enumerate(inverse):
        if table[f][identity[source[f]]] != f or table[identity[target[f]]][f] != f:
            raise ValueError(f"identity law fails at {f}")
        if table[g][f] != identity[source[f]] or table[f][g] != identity[target[f]]:
            raise ValueError(f"inverse law fails at {f}")
    for f, row in enumerate(table):
        for h, fh in enumerate(row):
            if fh is None:
                continue
            after = table[fh]
            for k, hk in enumerate(table[h]):
                if hk is not None and after[k] != row[hk]:
                    raise ValueError(f"associativity fails at {(f, h, k)}")


class GroupPresentation(Frozen):
    order: int
    table: tuple           # table[i][j] = index of g_i g_j
    identity: int
    inverse: tuple
    labels: tuple

    FILE_KIND = "group"   # the kind tag of its structure file

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be order x order")
        if len(self.labels) != n:
            raise ValueError("label count mismatch")
        ends = (0,) * n
        _check_groupoid(1, ends, ends, self.table, (self.identity,), self.inverse)


def _labels(n: int) -> tuple:
    """e for the identity 0, then g1, g2, ..."""
    return ("e", *(f"g{i}" for i in range(1, n)))


def cyclic_group(n: int) -> GroupPresentation:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupPresentation(n, table, 0, tuple(-i % n for i in range(n)), _labels(n))


def klein_four_group() -> GroupPresentation:
    table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    return GroupPresentation(4, table, 0, tuple(range(4)), ("e", "a", "b", "ab"))


def symmetric_group_s3() -> GroupPresentation:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(p[q[x]] for x in range(3))] for q in perms)
                  for p in perms)
    inverse = tuple(index[tuple(p.index(x) for x in range(3))] for p in perms)
    return GroupPresentation(6, table, 0, inverse, _labels(6))


def dihedral_group(n: int) -> GroupPresentation:
    """Order 2n: elements r^i and r^i s with s r = r^-1 s."""
    if n < 1:
        raise ValueError("n must be positive")
    order = 2 * n

    def mul(a, b):
        ia, sa = a % n, a // n
        ib, sb = b % n, b // n
        i = (ib + ia) % n if sa == 0 else (ib * -1 + ia) % n
        return i + n * (sa ^ sb)

    table = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    # a rotation r^a has inverse r^-a; a reflection is its own inverse
    inverse = tuple(-a % n if a < n else a for a in range(order))
    return GroupPresentation(order, table, 0, inverse, _labels(order))


def _check_order(order: int, name: str):
    if order > MAX_GENERATED_ORDER:
        raise ValueError(f"{_cut(name)!r} has order {order}, above the limit "
                         f"of {MAX_GENERATED_ORDER}")


def _cut(name: str) -> str:
    """name, cut to its first 32 characters when longer."""
    return name if len(name) <= 32 else name[:32] + "..."


def _order(text: str, name: str) -> int:
    """The order written in text: ASCII digits, at least 1.  More digits
    than the limit has are refused before int() reads them."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()) or not text.lstrip("0"):
        raise ValueError(f"bad order {_cut(text)!r} in {_cut(name)!r}: expected ASCII "
                         "digits, at least 1")
    if len(text.lstrip("0")) > len(str(MAX_GENERATED_ORDER)):
        raise ValueError(f"{_cut(name)!r} has an order above the limit of "
                         f"{MAX_GENERATED_ORDER}")
    return int(text.lstrip("0"))


def group_by_name(name: str) -> GroupPresentation:
    """Names: C<n>, K4/V4, S3, D<n> (dihedral of order 2n)."""
    name = name.strip().upper()
    if name in ("K4", "V4"):
        return klein_four_group()
    if name == "S3":
        return symmetric_group_s3()
    if name[:1] in ("C", "D") and name[1:].isdigit():
        n = _order(name[1:], name)
        cyclic = name[0] == "C"
        _check_order(n if cyclic else 2 * n, name)
        return cyclic_group(n) if cyclic else dihedral_group(n)
    raise ValueError(f"unknown group name {_cut(name)!r}")


class GroupoidPresentation(Frozen):
    objects: tuple
    source: tuple          # per morphism, an object index
    target: tuple
    compose: dict          # (f, h) -> f after h; defined iff source(f) = target(h)
    identity: tuple        # per object, the identity morphism index
    inverse: tuple
    labels: tuple

    FILE_KIND = "groupoid"   # the kind tag of its structure file

    def __post_init__(self):
        nm = len(self.source)
        if len(self.labels) != nm:
            raise ValueError("label count mismatch")
        table = [[None] * nm for _ in range(nm)]
        for (f, h), fh in self.compose.items():
            if not (0 <= f < nm and 0 <= h < nm):
                raise ValueError("morphism index out of range")
            table[f][h] = fh
        _check_groupoid(len(self.objects), self.source, self.target, table,
                        self.identity, self.inverse)

    @property
    def n_morphisms(self) -> int:
        return len(self.source)

    def hom(self, x: int, y: int) -> tuple:
        """Morphism indices from object x to object y."""
        return tuple(i for i in range(self.n_morphisms)
                     if self.source[i] == x and self.target[i] == y)


def _groupoid_labels(objects, source, target):
    return tuple(f"f{i}:{objects[source[i]]}>{objects[target[i]]}"
                 for i in range(len(source)))


def disjoint_union(a: GroupoidPresentation, b: GroupoidPresentation) -> GroupoidPresentation:
    objects = tuple(f"L{x}" for x in a.objects) + tuple(f"R{x}" for x in b.objects)
    no, nm = len(a.objects), a.n_morphisms
    source = a.source + tuple(x + no for x in b.source)
    target = a.target + tuple(x + no for x in b.target)
    compose = dict(a.compose)
    compose.update({(f + nm, h + nm): fh + nm for (f, h), fh in b.compose.items()})
    identity = a.identity + tuple(x + nm for x in b.identity)
    inverse = a.inverse + tuple(x + nm for x in b.inverse)
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, _groupoid_labels(objects, source, target))


def connected_groupoid(g: GroupPresentation, n_objects: int) -> GroupoidPresentation:
    """Every hom-set a torsor over g: morphism (s, t, a) from s to t with
    group element a has index (s * n_objects + t) * |g| + a."""
    n, order = n_objects, g.order
    objects = tuple(f"x{i}" for i in range(n))
    morphs = [(s, t, a) for s in range(n) for t in range(n) for a in range(order)]
    source = tuple(m[0] for m in morphs)
    target = tuple(m[1] for m in morphs)
    compose = {}
    for f, (y, z, a) in enumerate(morphs):   # f after each h: x -> y
        for x in range(n):
            h, fh, row = (x * n + y) * order, (x * n + z) * order, g.table[a]
            for b in range(order):
                compose[(f, h + b)] = fh + row[b]
    identity = tuple((x * n + x) * order + g.identity for x in range(n))
    inverse = tuple((t * n + s) * order + g.inverse[a] for s, t, a in morphs)
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, _groupoid_labels(objects, source, target))


def pair_groupoid(n: int) -> GroupoidPresentation:
    """Objects 0..n-1 with exactly one morphism between any ordered pair."""
    return connected_groupoid(cyclic_group(1), n)


def one_object_groupoid(g: GroupPresentation) -> GroupoidPresentation:
    return connected_groupoid(g, 1)


def _group_part(text: str, name: str) -> GroupPresentation:
    """group_by_name(text), its error naming the groupoid name it is part of."""
    try:
        return group_by_name(text)
    except ValueError as err:
        raise ValueError(f"in groupoid name {_cut(name)!r}: {err}") from None


def groupoid_by_name(name: str) -> GroupoidPresentation:
    """Names: pair:<n>, one:<group>, sum:<group>,<group>, conn:<group>:<n>."""
    name = name.strip()
    kind, _, rest = name.partition(":")
    if kind == "pair":
        n = _order(rest, name)
        _check_order(n * n, name)
        return pair_groupoid(n)
    if kind == "one":
        return one_object_groupoid(_group_part(rest, name))
    if kind == "sum":
        left, _, right = rest.partition(",")
        left, right = _group_part(left, name), _group_part(right, name)
        _check_order(left.order + right.order, name)
        return disjoint_union(one_object_groupoid(left), one_object_groupoid(right))
    if kind == "conn":
        gname, _, n = rest.partition(":")
        g, n = _group_part(gname, name), _order(n, name)
        _check_order(g.order * n * n, name)
        return connected_groupoid(g, n)
    raise ValueError(f"unknown groupoid name {_cut(name)!r}")


# ---------------------------------------------------------------------------
# linearizations: weak Hopf presentations and Hopf categories


def _ones(field: FieldSpec, size: int, places) -> tuple:
    """A table of size entries: one at each of places, zero elsewhere."""
    ent = [field.zero()] * size
    one = field.one()
    for i in places:
        ent[i] = one
    return tuple(ent)


def _grouplike(field: FieldSpec, d: int) -> tuple:
    """(Delta, eps) of the coalgebra on d grouplike basis elements:
    Delta(e) = e (x) e and eps(e) = 1."""
    diagonal = _ones(field, d ** 3, range(0, d ** 3, d * d + d + 1))
    return Tensor3(field, d, d, d, diagonal), (field.one(),) * d


def _linearization(field: FieldSpec, labels: tuple, products, identities,
                   inverse: tuple, dual: bool = False) -> WeakHopfPresentation:
    """The span of a groupoid's morphisms (a group's elements): products
    (((f, h), fh) over the composable pairs) extended by zero, the sum of the
    identities as unit, grouplike comultiplication and antipode f -> f^-1.
    With dual, the dual on the dual basis d<label>, written from the same
    data: product and coproduct swap, unit and counit swap, S is transposed."""
    n = len(labels)
    if dual:
        places = [(fh * n + f) * n + h for (f, h), fh in products]
        flips = [i * n + inverse[i] for i in range(n)]
    else:
        places = [(f * n + h) * n + fh for (f, h), fh in products]
        flips = [inverse[i] * n + i for i in range(n)]
    mult = Tensor3(field, n, n, n, _ones(field, n ** 3, places))
    unit = _ones(field, n, identities)
    comult, counit = _grouplike(field, n)
    if dual:
        mult, unit, comult, counit = comult, counit, mult, unit
        labels = tuple(f"d{l}" for l in labels)
    return WeakHopfPresentation(AlgebraPresentation(field, n, labels, mult, unit),
                                CoalgebraPresentation(field, n, comult, counit),
                                Matrix(field, n, n, _ones(field, n * n, flips)))


def _group_products(g: GroupPresentation):
    return [((i, j), k) for i, row in enumerate(g.table) for j, k in enumerate(row)]


def group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """kG with grouplike comultiplication and inversion antipode."""
    return _linearization(field, g.labels, _group_products(g), (g.identity,), g.inverse)


def dual_group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """k^G, the dual of kG: pointwise product, Delta(d_i) = sum of d_j (x) d_k
    over jk = i."""
    return _linearization(field, g.labels, _group_products(g), (g.identity,),
                          g.inverse, dual=True)


def groupoid_algebra(gd: GroupoidPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """Basis = morphisms, f*h = composite when composable else 0; unit sums ids."""
    return _linearization(field, gd.labels, gd.compose.items(), gd.identity, gd.inverse)


def hopf_category_from_groupoid(gd: GroupoidPresentation,
                                field: FieldSpec) -> HopfCategoryPresentation:
    """Hom spans linearized: a(x,y) = span of morphisms x -> y, grouplike."""
    objs = range(len(gd.objects))
    hom_elems, slot = {}, {}   # slot[f] = the place of f in its hom-set
    for x, y in product(objs, repeat=2):
        elems = hom_elems[(x, y)] = gd.hom(x, y)
        if not elems:
            raise ValueError(f"empty hom-set {gd.objects[x]} -> {gd.objects[y]}; "
                             "every hom must carry a counit")
        slot.update((f, i) for i, f in enumerate(elems))
    grouplike = {d: _grouplike(field, d) for d in set(map(len, hom_elems.values()))}
    # one table per dimension, but a record per hom, so views are stored per hom
    homs = {xy: CoalgebraPresentation(field, len(elems), *grouplike[len(elems)])
            for xy, elems in hom_elems.items()}
    comps = {}
    for x, y, z in product(objs, repeat=3):
        exy, eyz, dxz = hom_elems[(x, y)], hom_elems[(y, z)], homs[(x, z)].dim
        dxy, dyz = len(exy), len(eyz)
        places = [slot[gd.compose[(g, f)]] * (dxy * dyz) + i * dyz + j
                  for i, f in enumerate(exy) for j, g in enumerate(eyz)]
        comps[(x, y, z)] = Matrix(field, dxz, dxy * dyz,
                                  _ones(field, dxz * dxy * dyz, places))
    units = {x: _ones(field, homs[(x, x)].dim, (slot[gd.identity[x]],)) for x in objs}
    antipode = {}
    for (x, y), elems in hom_elems.items():
        d, dyx = len(elems), homs[(y, x)].dim
        places = [slot[gd.inverse[f]] * d + j for j, f in enumerate(elems)]
        antipode[(x, y)] = Matrix(field, dyx, d, _ones(field, dyx * d, places))
    return HopfCategoryPresentation(gd.objects, homs, comps, units, antipode)


GROUND_FIELD_BASE = "k"
DUAL_NUMBER_BASE = "dual"
SPLIT_PAIR_BASE = "kxk"


def ground_field_algebra(field: FieldSpec) -> CommAlgebraPresentation:
    return CommAlgebraPresentation(AlgebraPresentation.make(field, [[[1]]], (1,), ("1",)))


def dual_number_algebra(field: FieldSpec) -> CommAlgebraPresentation:
    """k[x]/(x^2)."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    return CommAlgebraPresentation(
        AlgebraPresentation.make(field, mult, (1, 0), ("1", "x")))


def split_pair_algebra(field: FieldSpec) -> CommAlgebraPresentation:
    """k x k on the idempotent basis."""
    mult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return CommAlgebraPresentation(
        AlgebraPresentation.make(field, mult, (1, 1), ("p", "q")))


def base_by_name(name: str, field: FieldSpec) -> CommAlgebraPresentation:
    name = name.strip().lower()
    if name == GROUND_FIELD_BASE:
        return ground_field_algebra(field)
    if name == DUAL_NUMBER_BASE:
        return dual_number_algebra(field)
    if name == SPLIT_PAIR_BASE:
        return split_pair_algebra(field)
    raise ValueError(f"unknown base algebra name {_cut(name)!r}")


def pair_hopf_algebroid(r: CommAlgebraPresentation) -> HopfAlgebroidPresentation:
    """Total algebra R (x) R with s(x) = x (x) 1, t(y) = 1 (x) y, flip antipode."""
    field = r.field
    d = r.dim
    n = d * d
    z = field.zero()
    multR = r.algebra.mult
    mult = [z] * (n ** 3)
    for a, c, p, t1 in multR.nonzeros():
        for b, dd, q, t2 in multR.nonzeros():
            i = a * d + b
            j = c * d + dd
            k = p * d + q
            mult[(i * n + j) * n + k] = field.reduce(mult[(i * n + j) * n + k] + t1 * t2)
    u = r.algebra.unit
    unit = [z] * n
    for a in range(d):
        for b in range(d):
            unit[a * d + b] = field.reduce(u[a] * u[b])
    labels = tuple(f"{r.labels[a]}(x){r.labels[b]}" for a in range(d) for b in range(d))
    total = AlgebraPresentation(field, n, labels,
                                Tensor3(field, n, n, n, tuple(mult)), tuple(unit))
    src = [z] * (n * d)
    tgt = [z] * (n * d)
    for x in range(d):
        for b in range(d):
            src[(x * d + b) * d + x] = u[b]
            tgt[(b * d + x) * d + x] = u[b]
    comult_lift = [z] * (n * n * n)
    for a in range(d):
        for b in range(d):
            col = a * d + b
            for bp in range(d):
                for ap in range(d):
                    row = (a * d + bp) * n + (ap * d + b)
                    comult_lift[row * n + col] = field.reduce(u[bp] * u[ap])
    counit = [z] * (d * n)
    for a, b, k, t in multR.nonzeros():
        counit[k * n + (a * d + b)] = field.reduce(counit[k * n + (a * d + b)] + t)
    anti = [z] * (n * n)
    for a in range(d):
        for b in range(d):
            anti[(b * d + a) * n + (a * d + b)] = field.one()
    return HopfAlgebroidPresentation(
        base=r,
        total=total,
        src=Matrix(field, n, d, tuple(src)),
        tgt=Matrix(field, n, d, tuple(tgt)),
        comult_lift=Matrix(field, n * n, n, tuple(comult_lift)),
        counit=Matrix(field, d, n, tuple(counit)),
        antipode=Matrix(field, n, n, tuple(anti)),
    )


# ---------------------------------------------------------------------------
# mutation harness


def mutate(w: WeakHopfPresentation, seed: int) -> WeakHopfPresentation:
    """Perturb one structure-constant entry, chosen deterministically by seed.

    Dimensions never change; validity of the result is not guaranteed, by
    design.  A draw that would leave the entry unchanged, or make the unit
    zero, is redrawn from seed + 1.
    """
    if not isinstance(w, WeakHopfPresentation):
        raise TypeError("mutate expects a WeakHopfPresentation")
    f, n, alg, coa, s = w.field, w.dim, w.algebra, w.coalgebra, w.antipode
    # the sites, every entry of each table in draw order
    tables = (alg.mult.entries, alg.unit, coa.comult.entries, coa.counit,
              () if s is None else s.entries)
    rng = random.Random(seed)
    pick, site = rng.randrange(sum(map(len, tables))), 0
    while pick >= len(tables[site]):
        pick -= len(tables[site])
        site += 1
    new = f.coerce(rng.choice([-2, -1, 0, 1, 2, 3])) if f.characteristic == 0 \
        else rng.randrange(f.characteristic)
    entries = tables[site]
    if entries[pick] == new:
        return mutate(w, seed + 1)
    e = entries[:pick] + (new,) + entries[pick + 1:]
    if site == 1 and not any(e):   # the unit may not become zero
        return mutate(w, seed + 1)
    parts = (   # (algebra, coalgebra, antipode) with table number site replaced by e
        lambda: (AlgebraPresentation(f, n, alg.labels, Tensor3(f, n, n, n, e), alg.unit),
                 coa, s),
        lambda: (AlgebraPresentation(f, n, alg.labels, alg.mult, e), coa, s),
        lambda: (alg, CoalgebraPresentation(f, n, Tensor3(f, n, n, n, e), coa.counit), s),
        lambda: (alg, CoalgebraPresentation(f, n, coa.comult, e), s),
        lambda: (alg, coa, Matrix(f, n, n, e)),
    )[site]()
    return WeakHopfPresentation(*parts)
