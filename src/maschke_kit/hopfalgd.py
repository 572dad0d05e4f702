"""Hopf algebroids over a central commutative base, by structure constants.

The total algebra A carries source and target maps from a commutative base R
into its center; the comultiplication is stored as a linear lift A -> A (x) A
and every identity involving it is evaluated after projecting to the relevant
bimodule-tensor quotient, so verdicts do not depend on the chosen lift.

Bimodule actions on A are x.h.y = s(x) t(y) h.  The circ product quotients
A (x) A by t(x)h (x) k - h (x) s(x)k (the R-bimodule tensor); the bullet
product quotients by the diagonal s(x)t(y) action on either leg.
"""

from __future__ import annotations

from .exactlin import (
    ConstraintSystem,
    FieldSpec,
    Frozen,
    Matrix,
    QuotientSpace,
    Subspace,
    _row_space,
    quotient_space,
)
from .finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    MaschkeReport,
    _apply_sparse,
    _balanced_certificate,
    _balanced_system,
    _by_leg,
    _check_side,
    _coassociativity_sides,
    _comult_products,
    _convolution,
    _generators,
    _mult_cols,
    _nonzero_entries,
    _nonzero_rows,
    _once,
    _product,
    _require_antipode,
    _separability_terms,
    _sparse_products,
    _table_matrix,
    _terms,
    _vector,
    check_algebra,
)

CIRC = "circ"
BULLET = "bullet"


class CommAlgebraPresentation(Frozen):
    """An algebra presentation with commutativity verified at construction."""

    algebra: AlgebraPresentation

    FILE_KIND = "commalgebra"   # the kind tag of its structure file

    def __post_init__(self):
        prod = _sparse_products(self.algebra)
        for i in range(self.algebra.dim):
            for j in range(i):
                if prod[i][j] != prod[j][i]:
                    raise ValueError(f"base algebra not commutative at {(i, j)}")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


class HopfAlgebroidPresentation(Frozen):
    base: CommAlgebraPresentation
    total: AlgebraPresentation
    src: Matrix          # R -> A
    tgt: Matrix          # R -> A
    comult_lift: Matrix  # A -> A (x) A, a chosen lift of the comultiplication
    counit: Matrix       # A -> R
    antipode: Matrix | None = None

    FILE_KIND = "algebroid"   # the kind tag of its structure file

    def __post_init__(self):
        f = self.base.field
        dr, da = self.base.dim, self.total.dim
        if self.total.field != f:
            raise ValueError("base and total algebra fields differ")
        for name, m, shape in (("src", self.src, (da, dr)),
                               ("tgt", self.tgt, (da, dr)),
                               ("comult_lift", self.comult_lift, (da * da, da)),
                               ("counit", self.counit, (dr, da))):
            if m.field != f or (m.rows, m.cols) != shape:
                raise ValueError(f"{name} has wrong shape or field")
        s = self.antipode
        if s is not None and (s.field != f or (s.rows, s.cols) != (da, da)):
            raise ValueError("antipode has wrong shape or field")

    @property
    def field(self) -> FieldSpec:
        return self.base.field


@_once
def _counit_images(h: HopfAlgebroidPresentation) -> tuple:
    """The sparse columns of s eps and t eps: s(eps(e_j)) and t(eps(e_j)) as (k, value)."""
    ecols = h.counit.columns()
    return tuple(tuple(tuple(sorted(_apply_sparse(h.field, m.columns(), col).items()))
                       for col in ecols) for m in (h.src, h.tgt))


@_once
def _counit_actions(h: HopfAlgebroidPresentation) -> tuple:
    """cols[i][j] = ((k, value), ...): the terms of s(eps(e_i)) e_j, in the
    order the product table yields them; values may be zero."""
    f, prod = h.field, _sparse_products(h.total)
    return tuple(tuple(tuple(col.items()) for col in _mult_cols(f, prod, s, True))
                 for s in _counit_images(h)[0])


@_once
def _comult_terms(h: HopfAlgebroidPresentation) -> tuple:
    """terms[i] = ((a, b, c), ...): the nonzero terms c e_a (x) e_b of the
    comultiplication lift of e_i, read from its sparse column."""
    n = h.total.dim
    return tuple(tuple((*divmod(ab, n), c) for ab, c in col)
                 for col in h.comult_lift.columns())


@_once
def _actions(h: HopfAlgebroidPresentation) -> tuple:
    """(smul, tmul, s_right, t_right): smul[x][j] = ((k, value), ...), the
    nonzero terms of s(x) e_j; then those of t(x) e_j, e_j s(x) and e_j t(x)."""
    f, prod = h.field, _sparse_products(h.total)
    return tuple(tuple(tuple(tuple(_nonzero_entries(col).items())
                             for col in _mult_cols(f, prod, v, u_first)) for v in m.columns())
                 for u_first in (True, False) for m in (h.src, h.tgt))


def _tensor_relations(h: HopfAlgebroidPresentation, pairs) -> Subspace:
    """Span of (u e_j) (x) e_k - e_j (x) (v e_k) over j, k and the pairs of
    column tables (ucols, vcols), ucols[j] the terms (m, value) of u e_j."""
    f, n = h.field, h.total.dim
    rows = []
    for ucols, vcols in pairs:
        for j in range(n):
            for k in range(n):
                row = {m * n + k: c for m, c in ucols[j]}
                for m, c in vcols[k]:
                    row[j * n + m] = f.reduce(row.get(j * n + m, 0) - c)
                rows.append(_nonzero_entries(row))
    return _row_space(f, n * n, rows)


@_once
def circ_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of t(x)e_j (x) e_k - e_j (x) s(x)e_k over base and total bases."""
    smul, tmul = _actions(h)[:2]
    return _tensor_relations(h, zip(tmul, smul))


@_once
def bullet_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of (s(x)t(y)e_j) (x) e_k - e_j (x) (s(x)t(y)e_k)."""
    f, prod = h.field, _sparse_products(h.total)
    zs = [_product(f, prod, s, t).items() for s in h.src.columns() for t in h.tgt.columns()]
    zcols = [[col.items() for col in _mult_cols(f, prod, z, True)] for z in zs]
    return _tensor_relations(h, [(z, z) for z in zcols])


@_once
def tensor_over_R(h: HopfAlgebroidPresentation, product: str = CIRC) -> QuotientSpace:
    """The circ or bullet coequalizer quotient of A (x) A."""
    if product not in (CIRC, BULLET):
        raise ValueError(f"product must be {CIRC!r} or {BULLET!r}")
    relations = circ_relations(h) if product == CIRC else bullet_relations(h)
    return quotient_space(h.total.dim ** 2, relations)


@_once
def ideal_subspace(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of (s(x) - t(x)) e_k over base and total bases."""
    f = h.field
    prod = _sparse_products(h.total)
    rows = []
    for s, t in zip(h.src.columns(), h.tgt.columns()):
        diff = [*s, *((k, f.reduce(-v)) for k, v in t)]
        rows += map(_nonzero_entries, _mult_cols(f, prod, diff, True))
    return _row_space(f, h.total.dim, rows)


@_once
def _ideal_quotient(h: HopfAlgebroidPresentation) -> QuotientSpace:
    return quotient_space(h.total.dim, ideal_subspace(h))


def _algebra_map_failures(name: str, imgs, dom: AlgebraPresentation,
                          cod: AlgebraPresentation) -> list:
    """The unit and multiplicativity failures of the linear map dom -> cod
    with the sparse columns imgs, imgs[x] the (k, value) of the image of e_x."""
    f, prod, cprod = dom.field, _sparse_products(dom), _sparse_products(cod)
    failures = []
    if _apply_sparse(f, imgs, _terms(dom.unit)) != dict(_terms(cod.unit)):
        failures.append(AxiomFailure(f"{name} unit", ()))
    for x in range(dom.dim):
        for y in range(dom.dim):
            if _apply_sparse(f, imgs, prod[x][y]) != _product(f, cprod, imgs[x], imgs[y]):
                failures.append(AxiomFailure(f"{name} multiplicative", (x, y)))
    return failures


@_once
def check_hopf_algebroid(h: HopfAlgebroidPresentation) -> AxiomReport:
    """All defining identities; comultiplication laws after projection."""
    failures = [AxiomFailure(f"{name} {fail.law}", fail.witness, fail.detail)
                for name, a in (("base", h.base.algebra), ("total", h.total))
                for fail in check_algebra(a).failures]
    if failures:
        return AxiomReport(tuple(failures))
    f = h.field
    dr, n = h.base.dim, h.total.dim
    base, alg = h.base.algebra, h.total
    prod, bprod = _sparse_products(alg), _sparse_products(base)
    srcs, tgts = h.src.columns(), h.tgt.columns()
    smul, tmul, s_right, t_right = _actions(h)

    # s and t are unital algebra maps into the center
    for name, imgs, moved, right in (("source map", srcs, smul, s_right),
                                     ("target map", tgts, tmul, t_right)):
        failures += _algebra_map_failures(name, imgs, base, alg)
        for x in range(dr):
            failures += [AxiomFailure(f"{name} centrality", (x, j)) for j in range(n)
                         if dict(moved[x][j]) != dict(right[x][j])]

    # counit: unital algebra map and R-bimodule map
    ecols = h.counit.columns()
    failures += _algebra_map_failures("counit", ecols, alg, base)
    for x in range(dr):
        for j in range(n):
            scaled = _apply_sparse(f, bprod[x], ecols[j])
            for law, moved in (("counit source linearity", smul[x]),
                               ("counit target linearity", tmul[x])):
                if _apply_sparse(f, ecols, moved[j]) != scaled:
                    failures.append(AxiomFailure(law, (x, j)))

    # dq[k]: the lift of Delta(e_k) in circ-quotient coordinates
    terms = _comult_terms(h)
    pcols = tensor_over_R(h, CIRC).projection.columns()
    dq = [_apply_sparse(f, pcols, lift).items() for lift in h.comult_lift.columns()]

    # comultiplication is an R-bimodule map into the circ quotient:
    # delta(s(x)h) = s(x)h1 (x) h2 and delta(t(x)h) = h1 (x) t(x)h2
    for x in range(dr):
        for j in range(n):
            for law, moved, leg in (("comult source linearity", smul[x], 0),
                                    ("comult target linearity", tmul[x], 1)):
                acted = [(m * n + b if leg == 0 else a * n + m, f.reduce(c * v))
                         for a, b, c in terms[j] for m, v in moved[(a, b)[leg]]]
                if _apply_sparse(f, dq, moved[j]) != _apply_sparse(f, pcols, acted):
                    failures.append(AxiomFailure(law, (x, j)))

    # multiplicativity of delta w.r.t. the factorwise product, in the quotient:
    # delta(e_i e_j) - delta(e_i) delta(e_j), reduced where the raw sums differ,
    # projects to zero
    for i, j, lhs, rhs in _comult_products(terms, _by_leg(terms, n), prod,
                                           _nonzero_rows(prod), terms, n):
        gap = [(pq, f.reduce(v - w)) for pq, (v, w) in enumerate(zip(lhs, rhs)) if v != w]
        if gap and _apply_sparse(f, pcols, gap):
            failures.append(AxiomFailure("comult multiplicative", (i, j)))

    # counitality: s(eps(h1)) h2 = h = t(eps(h2)) h1, the last with the
    # opposite product
    sc, tc = _counit_images(h)
    op = [[prod[b][a] for b in range(n)] for a in range(n)]
    left = _convolution(f, terms, sc, None, prod)
    right = _convolution(f, terms, None, tc, op)
    for j in range(n):
        for law, got in (("counitality (left)", left), ("counitality (right)", right)):
            if got[j] != {j: f.one()}:
                failures.append(AxiomFailure(law, (j,)))

    # coassociativity in the double quotient
    n2 = n * n
    rows3 = []
    for r in circ_relations(h).row_terms:
        for k in range(n):
            rows3.append({ab * n + k: c for ab, c in r})
            rows3.append({k * n2 + ab: c for ab, c in r})
    rel3 = _row_space(f, n2 * n, rows3)
    for i, lhs, rhs in _coassociativity_sides(terms, n):
        # (delta (x) 1) delta(e_i) - (1 (x) delta) delta(e_i), reduced where nonzero
        gap = [0] * (n2 * n)
        for idx in lhs.keys() | rhs.keys():
            gap[idx] = f.reduce(lhs.get(idx, 0) - rhs.get(idx, 0))
        if lhs != rhs and not rel3.contains(gap):
            failures.append(AxiomFailure("coassociativity", (i,)))

    # antipode identities
    if h.antipode is not None:
        s = h.antipode.columns()
        for x in range(dr):
            for j in range(n):
                # S(s(x) e_j) = t(x) S(e_j) and S(t(x) e_j) = s(x) S(e_j)
                for law, moved, other in (("antipode source twist", smul[x], tmul[x]),
                                          ("antipode target twist", tmul[x], smul[x])):
                    if _apply_sparse(f, s, moved[j]) != _apply_sparse(f, other, s[j]):
                        failures.append(AxiomFailure(law, (x, j)))
        # h1 S(h2) = s(eps(h)) and S(h1) h2 = t(eps(h))
        left = _convolution(f, terms, None, s, prod)
        right = _convolution(f, terms, s, None, prod)
        for j in range(n):
            for law, got, want in (("antipode left composite", left, sc),
                                   ("antipode right composite", right, tc)):
                if got[j] != dict(want[j]):
                    failures.append(AxiomFailure(law, (j,)))
    return AxiomReport(tuple(failures))


class HgdIntegral(Frozen):
    element: tuple
    solutions: "AffineSolution"


class HgdCointegral(Frozen):
    map: Matrix          # A -> R
    solutions: "AffineSolution"


class HgdSeparabilitySection(Frozen):
    quotient: QuotientSpace
    map: Matrix          # A -> bullet-quotient coordinates


class HgdCoseparabilityRetraction(Frozen):
    quotient: QuotientSpace
    map: Matrix          # circ-quotient coordinates -> A


def integral_system_hgd(h: HopfAlgebroidPresentation, side: str,
                        normalized: bool) -> ConstraintSystem:
    """hn - s(eps(h))n (left) or nh - s(eps(h))n (right) in the ideal; eps(n) = 1."""
    _check_side(side)
    f, n, left = h.field, h.total.dim, side == "left"
    prod = _sparse_products(h.total)
    pcols = _ideal_quotient(h).projection.columns()
    actions = _counit_actions(h)

    def products():
        # pi(e_i e_j) (left) or pi(e_j e_i) (right) against pi(s(eps(e_i)) e_j)
        for i in range(n):
            for which, cols in ((0, [prod[i][j] if left else prod[j][i] for j in range(n)]),
                                (1, actions[i])):
                for j, col in enumerate(cols):
                    for k, v in col:
                        for r, p in pcols[k]:
                            yield which, i, r, j, f.reduce(v * p)

    norm, rhs = (h.counit.nonzeros(), h.base.algebra.unit) if normalized else ((), ())
    return _balanced_system(f, n, norm, rhs, products())


def solve_integral_hgd(h: HopfAlgebroidPresentation, side: str,
                       normalized: bool = True):
    """A verified HgdIntegral, or None when infeasible."""
    check_hopf_algebroid(h).require("Hopf algebroid")
    sol = integral_system_hgd(h, side, normalized).solve()
    if sol is None:
        return None
    f, n, prod = h.field, h.total.dim, _sparse_products(h.total)
    element = _terms(sol.particular)
    if normalized and _apply_sparse(f, h.counit.columns(), element) != \
            dict(_terms(h.base.algebra.unit)):
        raise ArithmeticError("integral does not have counit 1")
    # e_i n (left) or n e_i (right), less s(eps(e_i)) n, must lie in the ideal
    for col, s in zip(_mult_cols(f, prod, element, side == "right"), _counit_images(h)[0]):
        for k, v in _product(f, prod, s, element).items():
            col[k] = f.reduce(col.get(k, 0) - v)
        if not ideal_subspace(h).contains(_vector(f, n, col.items())):
            raise ArithmeticError("integral escaped the ideal after solving")
    return HgdIntegral(sol.particular, sol)


def cointegral_system_hgd(h: HopfAlgebroidPresentation, side: str,
                          normalized: bool) -> ConstraintSystem:
    """System over the entries of nu: A -> R (variable index r*dimA + j).

    Left: nu(s(x)h) = x nu(h), h1 t(nu(h2)) = s(nu(h)), nu(1) = 1.
    Right: nu(t(x)h) = x nu(h), s(nu(h1)) h2 = t(nu(h)), nu(1) = 1.
    """
    _check_side(side)
    f, dr, n, left = h.field, h.base.dim, h.total.dim, side == "left"
    bprod = _sparse_products(h.base.algebra)
    terms = _comult_terms(h)
    smul, tmul, _, t_right = _actions(h)
    # moved[x][j] = s(x) e_j (left) or t(x) e_j (right);
    # mix[r][a] = e_a t(f_r) (left) or s(f_r) e_a (right)
    moved, mix = (smul, t_right) if left else (tmul, smul)
    out_map = h.src if left else h.tgt

    def products():
        for x in range(dr):
            for j in range(n):
                # nu(s(x) e_j) (left) or nu(t(x) e_j) (right) against x nu(e_j)
                for jp, c in moved[x][j]:
                    for r in range(dr):
                        yield 0, (x, j), r, r * n + jp, c
                for rp in range(dr):
                    for r, c in bprod[x][rp]:
                        yield 1, (x, j), r, rp * n + j, c
        for i in range(n):
            # h1 t(nu(h2)) against s(nu(h)) (left), s(nu(h1)) h2 against t(nu(h)) (right)
            for a, b, c in terms[i]:
                carrier, slot = (a, b) if left else (b, a)
                for r in range(dr):
                    for m, cv in mix[r][carrier]:
                        yield 0, i, m, r * n + slot, f.reduce(c * cv)
            for m, r, cv in out_map.nonzeros():
                yield 1, i, m, r * n + i, cv

    norm, rhs = ([(r, r * n + j, u) for r in range(dr) for j, u in enumerate(h.total.unit)
                  if u != 0], h.base.algebra.unit) if normalized else ((), ())
    return _balanced_system(f, dr * n, norm, rhs, products())


def solve_cointegral_hgd(h: HopfAlgebroidPresentation, side: str,
                         normalized: bool = True):
    """A verified HgdCointegral, or None when infeasible."""
    check_hopf_algebroid(h).require("Hopf algebroid")
    sol = cointegral_system_hgd(h, side, normalized).solve()
    if sol is None:
        return None
    nu = Matrix(h.field, h.base.dim, h.total.dim, tuple(sol.particular))
    return HgdCointegral(nu, sol)


def _bullet_terms(h: HopfAlgebroidPresentation, q: QuotientSpace, gens=None):
    """The separability terms of the total algebra through the bullet
    quotient: e in quotient coordinates, the rp-th of them the ambient
    coordinate q.free[rp], and g e and e g projected, for g in gens (every
    basis element when gens is None)."""
    f, n = h.field, h.total.dim
    norm, rhs, products = _separability_terms(n, h.total.mult.nonzeros(), h.total.unit,
                                              gens)
    coord = {c: rp for rp, c in enumerate(q.free)}
    pcols = q.projection.columns()
    return ([(out, coord[var], t) for out, var, t in norm if var in coord], rhs,
            ((side, g, r, coord[var], f.reduce(t * u)) for side, g, out, var, t in products
             if var in coord for r, u in pcols[out]))


def separability_system_hgd(h: HopfAlgebroidPresentation,
                            q: QuotientSpace) -> ConstraintSystem:
    """Rows for a separability element e of the bullet product.

    Unknowns: the q.dim quotient coordinates of e.  Rows: mu(e) = 1, and
    g e = e g through the quotient for the generators g of the total
    algebra, _generators(h.total).  Source and target land in the center, so
    both actions descend to the quotient, which is then a bimodule over the
    total algebra; the a with a e = e a form a subalgebra of it, so these rows
    have the solution set of the rows for every basis element (see
    finalg.separability_system).  A bimodule section N of the multiplication
    is fixed by e = N(1), and every solution gives the section N(x) = x e, so
    the solutions correspond one to one with the sections.
    """
    return _balanced_system(h.field, q.dim, *_bullet_terms(h, q, _generators(h.total)))


def solve_separability_hgd(h: HopfAlgebroidPresentation):
    """A verified bimodule section of the multiplication over the bullet
    product, or None when infeasible.

    Certified on the full terms, every basis element of the total algebra,
    as in finalg.solve_separability; the kernel of the system feeds no
    output.
    """
    check_hopf_algebroid(h).require("Hopf algebroid")
    q = tensor_over_R(h, BULLET)
    sol = separability_system_hgd(h, q).solve()
    if sol is None:
        return None
    # the section x -> x e
    section = _table_matrix(h.field, _balanced_certificate(
        h.field, sol.particular, *_bullet_terms(h, q),
        ("separability element does not multiply to the unit",
         "separability element does not commute with the basis")), q.dim, h.total.dim)
    return HgdSeparabilitySection(q, section)


def _circ_terms(h: HopfAlgebroidPresentation, q: QuotientSpace):
    """The terms of an R-bilinear functional gamma from the circ quotient to
    R, unknown r * q.dim + qr the r-th base coordinate of gamma at quotient
    coordinate qr: gamma(Delta e_c) = eps(e_c) at out = c * dimR + r;
    t(gamma(c2 (x) d)) c1 = s(gamma(c (x) d1)) d2 at g = c * n + d; and
    gamma(s(x)e_j (x) e_k) or gamma(e_j (x) t(x)e_k) = x gamma(e_j (x) e_k)
    at g = (x, leg, j * n + k)."""
    f, dr, n, qd = h.field, h.base.dim, h.total.dim, q.dim
    reduce = f.reduce
    pcols = q.projection.columns()      # pcols[j*n + k] = pi(e_j (x) e_k)
    terms = _comult_terms(h)
    smul, tmul = _actions(h)[:2]
    bprod = _sparse_products(h.base.algebra)

    def gamma(jk, t):
        # (r, var, value): t gamma(e_j (x) e_k) at base coordinate r
        return [(r, r * qd + qr, reduce(t * u)) for qr, u in pcols[jk] for r in range(dr)]

    def products():
        for g in range(n * n):
            c, d = divmod(g, n)
            for side, split, act in ((0, terms[c], tmul), (1, terms[d], smul)):
                for a, b, t in split:
                    arg, jk = (a, b * n + d) if side == 0 else (b, c * n + a)
                    for r, var, tu in gamma(jk, t):
                        for m, v in act[r][arg]:
                            yield side, g, m, var, reduce(tu * v)
        for x in range(dr):
            for jk in range(n * n):
                j, k = divmod(jk, n)
                for leg, moved in ((0, [(m * n + k, v) for m, v in smul[x][j]]),
                                   (1, [(j * n + m, v) for m, v in tmul[x][k]])):
                    for mk, v in moved:
                        for r, var, vu in gamma(mk, v):
                            yield 0, (x, leg, jk), r, var, vu
                    for rp, var, u in gamma(jk, f.one()):
                        for r, t in bprod[x][rp]:
                            yield 1, (x, leg, jk), r, var, reduce(u * t)

    return ([(c * dr + r, var, tu) for c in range(n) for a, b, t in terms[c]
             for r, var, tu in gamma(a * n + b, t)],
            tuple(h.counit.at(r, c) for c in range(n) for r in range(dr)), products())


def coseparability_system_hgd(h: HopfAlgebroidPresentation,
                              q: QuotientSpace) -> ConstraintSystem:
    """Rows for a coseparability functional gamma of the circ coring (see
    _circ_terms), on dimR x q.dim unknowns.  A bicomodule retraction P of
    Delta fixes gamma = eps P, and every gamma gives the retraction
    P(c (x) d) = t(gamma(c2 (x) d)) c1 (Brzezinski-Wisbauer, Corings and
    Comodules, 3.29): the solutions correspond one to one with retractions.
    """
    return _balanced_system(h.field, h.base.dim * q.dim, *_circ_terms(h, q))


def solve_coseparability_hgd(h: HopfAlgebroidPresentation):
    """A verified bicomodule retraction of delta over the circ product, or
    None when infeasible."""
    check_hopf_algebroid(h).require("Hopf algebroid")
    q = tensor_over_R(h, CIRC)
    sol = coseparability_system_hgd(h, q).solve()
    if sol is None:
        return None
    side0 = _balanced_certificate(
        h.field, sol.particular, *_circ_terms(h, q),
        ("coseparability functional does not restrict to the counit",
         "coseparability functional is not R-bilinear and balanced"))
    # P(pi(e_c (x) e_d)) at quotient coordinate qr, where q.free[qr] = c * n + d
    coord = {g: qr for qr, g in enumerate(q.free)}
    table = {(coord[g], m): v for (g, m), v in side0.items() if g in coord}
    return HgdCoseparabilityRetraction(q, _table_matrix(h.field, table, h.total.dim, q.dim))


def maschke_report(h: HopfAlgebroidPresentation) -> MaschkeReport:
    """Every solver, keyed by side, and the two equivalence verdicts."""
    _require_antipode(h)
    return MaschkeReport(
        {side: solve_integral_hgd(h, side) for side in ("left", "right")},
        {side: solve_cointegral_hgd(h, side) for side in ("left", "right")},
        solve_separability_hgd(h),
        solve_coseparability_hgd(h),
    )
