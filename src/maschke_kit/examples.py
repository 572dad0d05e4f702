"""Deterministic generators for the test corpus, and a mutation harness.

Groups and groupoids are given by verified multiplication tables; the
generators assemble group algebras, dual group algebras, groupoid algebras,
groupoid-linearized Hopf categories and pair Hopf algebroids from them.
Composition convention for groupoids: f*h means "apply h first" and is
defined when target(h) = source(f).
"""

from __future__ import annotations

import random

from .exactlin import FieldSpec, Frozen, Matrix, Tensor3
from .finalg import AlgebraPresentation, CoalgebraPresentation
from .hopfalgd import CommAlgebraPresentation, HopfAlgebroidPresentation
from .hopfcat import HopfCategoryPresentation
from .weakhopf import WeakHopfPresentation


class GroupPresentation(Frozen):
    order: int
    table: tuple           # table[i][j] = index of g_i g_j
    identity: int
    inverse: tuple
    labels: tuple

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be order x order")
        if any(not 0 <= x < n for r in self.table for x in r):
            raise ValueError("table entries out of range")
        e = self.identity
        t = self.table
        for i in range(n):
            if t[e][i] != i or t[i][e] != i:
                raise ValueError(f"identity law fails at {i}")
            if t[i][self.inverse[i]] != e or t[self.inverse[i]][i] != e:
                raise ValueError(f"inverse law fails at {i}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise ValueError(f"associativity fails at {(i, j, k)}")
        if len(self.labels) != n:
            raise ValueError("label count mismatch")

    @staticmethod
    def from_table(table, labels=None) -> "GroupPresentation":
        table = tuple(tuple(r) for r in table)
        n = len(table)
        identity = next((e for e in range(n)
                         if all(table[e][i] == i and table[i][e] == i
                                for i in range(n))), None)
        if identity is None:
            raise ValueError("table has no two-sided identity")
        inverse = []
        for i in range(n):
            j = next((j for j in range(n) if table[i][j] == identity), None)
            if j is None:
                raise ValueError(f"element {i} has no inverse")
            inverse.append(j)
        inverse = tuple(inverse)
        if labels is None:
            labels = tuple("e" if i == identity else f"g{i}" for i in range(n))
        return GroupPresentation(n, table, identity, inverse, tuple(labels))


def cyclic_group(n: int) -> GroupPresentation:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupPresentation.from_table(table)


def klein_four_group() -> GroupPresentation:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return GroupPresentation.from_table(table, ("e", "a", "b", "ab"))


def symmetric_group_s3() -> GroupPresentation:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
    return GroupPresentation.from_table(table)


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

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return GroupPresentation.from_table(table)


# Largest order of a group or groupoid built from its name.  Its algebra has
# order^3 structure constants, so the order is checked before any table exists.
MAX_GENERATED_ORDER = 64


def _check_order(order: int, name: str):
    if order > MAX_GENERATED_ORDER:
        raise ValueError(f"{name!r} has order {order}, above the limit "
                         f"of {MAX_GENERATED_ORDER}")


def group_by_name(name: str) -> GroupPresentation:
    """Names: C<n>, K4/V4, S3, D<n> (dihedral of order 2n)."""
    name = name.strip().upper()
    if name in ("K4", "V4"):
        return klein_four_group()
    if name == "S3":
        return symmetric_group_s3()
    if name.startswith("C") and name[1:].isdigit():
        _check_order(int(name[1:]), name)
        return cyclic_group(int(name[1:]))
    if name.startswith("D") and name[1:].isdigit():
        _check_order(2 * int(name[1:]), name)
        return dihedral_group(int(name[1:]))
    raise ValueError(f"unknown group name {name!r}")


class GroupoidPresentation(Frozen):
    objects: tuple
    source: tuple          # per morphism, an object index
    target: tuple
    compose: dict          # (f, h) -> f after h; defined iff source(f) = target(h)
    identity: tuple        # per object, the identity morphism index
    inverse: tuple
    labels: tuple

    def __post_init__(self):
        nm = len(self.source)
        if len(self.target) != nm or len(self.inverse) != nm or len(self.labels) != nm:
            raise ValueError("morphism table lengths differ")
        for (f, h), fh in self.compose.items():
            if self.source[f] != self.target[h]:
                raise ValueError(f"composite {(f, h)} is not composable")
            if self.source[fh] != self.source[h] or self.target[fh] != self.target[f]:
                raise ValueError(f"composite {(f, h)} has wrong endpoints")
        for f in range(nm):
            for h in range(nm):
                defined = self.source[f] == self.target[h]
                if defined != ((f, h) in self.compose):
                    raise ValueError(f"composition partiality wrong at {(f, h)}")
        for x, e in enumerate(self.identity):
            if self.source[e] != x or self.target[e] != x:
                raise ValueError(f"identity of object {x} has wrong endpoints")
        for f in range(nm):
            if self.compose[(f, self.identity[self.source[f]])] != f:
                raise ValueError(f"right identity fails at {f}")
            if self.compose[(self.identity[self.target[f]], f)] != f:
                raise ValueError(f"left identity fails at {f}")
            g = self.inverse[f]
            if self.compose[(g, f)] != self.identity[self.source[f]]:
                raise ValueError(f"inverse fails at {f}")
            if self.compose[(f, g)] != self.identity[self.target[f]]:
                raise ValueError(f"inverse fails at {f}")
        for f in range(nm):
            for h in range(nm):
                if self.source[f] != self.target[h]:
                    continue
                fh = self.compose[(f, h)]
                for k in range(nm):
                    if self.source[h] != self.target[k]:
                        continue
                    if self.compose[(fh, k)] != self.compose[(f, self.compose[(h, k)])]:
                        raise ValueError(f"associativity fails at {(f, h, k)}")

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


def pair_groupoid(n: int) -> GroupoidPresentation:
    """Objects 0..n-1 with exactly one morphism between any ordered pair."""
    if n < 1:
        raise ValueError("need at least one object")
    objects = tuple(f"x{i}" for i in range(n))
    morphs = [(s, t) for s in range(n) for t in range(n)]
    index = {m: i for i, m in enumerate(morphs)}
    source = tuple(s for s, _ in morphs)
    target = tuple(t for _, t in morphs)
    compose = {}
    for f, (sf, tf) in enumerate(morphs):
        for h, (sh, th) in enumerate(morphs):
            if sf == th:
                compose[(f, h)] = index[(sh, tf)]
    identity = tuple(index[(x, x)] for x in range(n))
    inverse = tuple(index[(t, s)] for (s, t) in morphs)
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, _groupoid_labels(objects, source, target))


def one_object_groupoid(g: GroupPresentation) -> GroupoidPresentation:
    objects = ("x0",)
    n = g.order
    compose = {(f, h): g.table[f][h] for f in range(n) for h in range(n)}
    return GroupoidPresentation(objects, (0,) * n, (0,) * n, compose,
                                (g.identity,), g.inverse,
                                tuple(f"f{i}:x0>x0" for i in range(n)))


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
    """Every hom-set a torsor over g: morphisms are (src, tgt, group element)."""
    if n_objects < 1:
        raise ValueError("need at least one object")
    objects = tuple(f"x{i}" for i in range(n_objects))
    morphs = [(s, t, a) for s in range(n_objects) for t in range(n_objects)
              for a in range(g.order)]
    index = {m: i for i, m in enumerate(morphs)}
    source = tuple(m[0] for m in morphs)
    target = tuple(m[1] for m in morphs)
    compose = {}
    for f, (sf, tf, af) in enumerate(morphs):
        for h, (sh, th, ah) in enumerate(morphs):
            if sf == th:
                compose[(f, h)] = index[(sh, tf, g.table[af][ah])]
    identity = tuple(index[(x, x, g.identity)] for x in range(n_objects))
    inverse = tuple(index[(t, s, g.inverse[a])] for (s, t, a) in morphs)
    return GroupoidPresentation(objects, source, target, compose, identity,
                                inverse, _groupoid_labels(objects, source, target))


def groupoid_by_name(name: str) -> GroupoidPresentation:
    """Names: pair:<n>, one:<group>, sum:<group>,<group>, conn:<group>:<n>."""
    name = name.strip()
    kind, _, rest = name.partition(":")
    if kind == "pair":
        n = int(rest)
        _check_order(n * n, name)
        return pair_groupoid(n)
    if kind == "one":
        return one_object_groupoid(group_by_name(rest))
    if kind == "sum":
        left, _, right = rest.partition(",")
        left, right = group_by_name(left), group_by_name(right)
        _check_order(left.order + right.order, name)
        return disjoint_union(one_object_groupoid(left), one_object_groupoid(right))
    if kind == "conn":
        gname, _, n = rest.partition(":")
        g, n = group_by_name(gname), int(n)
        _check_order(g.order * n * n, name)
        return connected_groupoid(g, n)
    raise ValueError(f"unknown groupoid name {name!r}")


# ---------------------------------------------------------------------------
# weak Hopf presentations


def group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """kG with grouplike comultiplication and inversion antipode."""
    n = g.order
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for i in range(n):
        for j in range(n):
            mult[(i * n + j) * n + g.table[i][j]] = o
        comult[(i * n + i) * n + i] = o
        anti[g.inverse[i] * n + i] = o
    unit = tuple(o if i == g.identity else z for i in range(n))
    algebra = AlgebraPresentation(field, n, g.labels,
                                  Tensor3(field, n, n, n, tuple(mult)), unit)
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)),
                                      (o,) * n)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def dual_group_algebra(g: GroupPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """Functions on G: pointwise product, convolution-dual comultiplication."""
    n = g.order
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for i in range(n):
        mult[(i * n + i) * n + i] = o
        anti[g.inverse[i] * n + i] = o
        for j in range(n):
            # delta(d_i) = sum over factorizations j * (j^-1 i) = i
            comult[(i * n + j) * n + g.table[g.inverse[j]][i]] = o
    counit = tuple(o if i == g.identity else z for i in range(n))
    algebra = AlgebraPresentation(field, n, tuple(f"d{l}" for l in g.labels),
                                  Tensor3(field, n, n, n, tuple(mult)), (o,) * n)
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)), counit)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def groupoid_algebra(gd: GroupoidPresentation, field: FieldSpec) -> WeakHopfPresentation:
    """Basis = morphisms, f*h = composite when composable else 0; unit sums ids."""
    n = gd.n_morphisms
    z, o = field.zero(), field.one()
    mult = [z] * (n ** 3)
    comult = [z] * (n ** 3)
    anti = [z] * (n * n)
    for f in range(n):
        comult[(f * n + f) * n + f] = o
        anti[gd.inverse[f] * n + f] = o
        for h in range(n):
            fh = gd.compose.get((f, h))
            if fh is not None:
                mult[(f * n + h) * n + fh] = o
    unit = [z] * n
    for e in gd.identity:
        unit[e] = o
    algebra = AlgebraPresentation(field, n, gd.labels,
                                  Tensor3(field, n, n, n, tuple(mult)), tuple(unit))
    coalgebra = CoalgebraPresentation(field, n,
                                      Tensor3(field, n, n, n, tuple(comult)),
                                      (o,) * n)
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, n, n, tuple(anti)))


def hopf_category_from_groupoid(gd: GroupoidPresentation,
                                field: FieldSpec) -> HopfCategoryPresentation:
    """Hom spans linearized: a(x,y) = span of morphisms x -> y, grouplike."""
    nobj = len(gd.objects)
    z, o = field.zero(), field.one()
    hom_elems = {}
    for x in range(nobj):
        for y in range(nobj):
            elems = gd.hom(x, y)
            if not elems:
                raise ValueError(f"empty hom-set {gd.objects[x]} -> {gd.objects[y]}; "
                                 "every hom must carry a counit")
            hom_elems[(x, y)] = elems
    objects = gd.objects
    homs = {}
    for (x, y), elems in hom_elems.items():
        d = len(elems)
        comult = [z] * (d ** 3)
        for i in range(d):
            comult[(i * d + i) * d + i] = o
        homs[(x, y)] = CoalgebraPresentation(field, d,
                                             Tensor3(field, d, d, d, tuple(comult)),
                                             (o,) * d)
    comps = {}
    for x in range(nobj):
        for y in range(nobj):
            for zz in range(nobj):
                exy, eyz, exz = hom_elems[(x, y)], hom_elems[(y, zz)], hom_elems[(x, zz)]
                dxy, dyz, dxz = len(exy), len(eyz), len(exz)
                ent = [z] * (dxz * dxy * dyz)
                for i, fi in enumerate(exy):
                    for j, gj in enumerate(eyz):
                        m = exz.index(gd.compose[(gj, fi)])
                        ent[m * (dxy * dyz) + i * dyz + j] = o
                comps[(x, y, zz)] = Matrix(field, dxz, dxy * dyz, tuple(ent))
    units = {}
    for x in range(nobj):
        exx = hom_elems[(x, x)]
        units[x] = tuple(o if m == gd.identity[x] else z for m in exx)
    antipode = {}
    for (x, y), elems in hom_elems.items():
        eyx = hom_elems[(y, x)]
        ent = [z] * (len(eyx) * len(elems))
        for j, fj in enumerate(elems):
            ent[eyx.index(gd.inverse[fj]) * len(elems) + j] = o
        antipode[(x, y)] = Matrix(field, len(eyx), len(elems), tuple(ent))
    return HopfCategoryPresentation(objects, homs, comps, units, antipode)


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
    raise ValueError(f"unknown base algebra name {name!r}")


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
            mult[(i * n + j) * n + k] = field.add(mult[(i * n + j) * n + k],
                                                  field.mul(t1, t2))
    u = r.algebra.unit
    unit = [z] * n
    for a in range(d):
        for b in range(d):
            unit[a * d + b] = field.mul(u[a], u[b])
    labels = tuple(f"{r.labels[a]}(x){r.labels[b]}" for a in range(d) for b in range(d))
    total = AlgebraPresentation(field, n, labels,
                                Tensor3(field, n, n, n, tuple(mult)), tuple(unit))
    src = [z] * (n * d)
    tgt = [z] * (n * d)
    for x in range(d):
        for b in range(d):
            src[(x * d + b) * d + x] = field.mul(u[b], field.one())
            tgt[(b * d + x) * d + x] = field.mul(u[b], field.one())
    comult_lift = [z] * (n * n * n)
    for a in range(d):
        for b in range(d):
            col = a * d + b
            for bp in range(d):
                for ap in range(d):
                    row = (a * d + bp) * n + (ap * d + b)
                    comult_lift[row * n + col] = field.mul(u[bp], u[ap])
    counit = [z] * (d * n)
    for a, b, k, t in multR.nonzeros():
        counit[k * n + (a * d + b)] = field.add(counit[k * n + (a * d + b)], t)
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


def _mutant_value(field, rng, old):
    if field.characteristic == 0:
        pool = [-2, -1, 0, 1, 2, 3]
        new = field.coerce(rng.choice(pool))
    else:
        new = rng.randrange(field.characteristic)
    return new


def mutate(w: WeakHopfPresentation, seed: int) -> WeakHopfPresentation:
    """Perturb one structure-constant entry, chosen deterministically by seed.

    Dimensions never change; validity of the result is not guaranteed, by
    design.  A draw that would leave the entry unchanged is redrawn from
    seed + 1.
    """
    if not isinstance(w, WeakHopfPresentation):
        raise TypeError("mutate expects a WeakHopfPresentation")
    rng = random.Random(seed)
    f = w.field
    n = w.dim
    sites = [("mult", n ** 3), ("unit", n), ("comult", n ** 3), ("counit", n)]
    if w.antipode is not None:
        sites.append(("antipode", n * n))
    total = sum(c for _, c in sites)
    pick = rng.randrange(total)
    for name, count in sites:
        if pick < count:
            break
        pick -= count
    new = _mutant_value(f, rng, None)

    def redraw():
        return mutate(w, seed + 1)

    alg, coa = w.algebra, w.coalgebra
    if name == "mult":
        i, rest = divmod(pick, n * n)
        j, k = divmod(rest, n)
        if alg.mult.at(i, j, k) == new:
            return redraw()
        alg = AlgebraPresentation(f, n, alg.labels,
                                  alg.mult.with_entry(i, j, k, new), alg.unit)
    elif name == "unit":
        if alg.unit[pick] == new:
            return redraw()
        unit = list(alg.unit)
        unit[pick] = new
        if all(x == 0 for x in unit):
            return redraw()
        alg = AlgebraPresentation(f, n, alg.labels, alg.mult, tuple(unit))
    elif name == "comult":
        i, rest = divmod(pick, n * n)
        j, k = divmod(rest, n)
        if coa.comult.at(i, j, k) == new:
            return redraw()
        coa = CoalgebraPresentation(f, n, coa.comult.with_entry(i, j, k, new),
                                    coa.counit)
    elif name == "counit":
        if coa.counit[pick] == new:
            return redraw()
        counit = list(coa.counit)
        counit[pick] = new
        coa = CoalgebraPresentation(f, n, coa.comult, tuple(counit))
    else:
        i, j = divmod(pick, n)
        if w.antipode.at(i, j) == new:
            return redraw()
        ent = list(w.antipode.entries)
        ent[i * n + j] = new
        return WeakHopfPresentation(alg, coa, Matrix(f, n, n, tuple(ent)))
    return WeakHopfPresentation(alg, coa, w.antipode)
