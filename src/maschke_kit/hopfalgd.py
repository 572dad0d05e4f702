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
    membership,
    quotient_space,
    unit_vec,
    vec_sub,
)
from .finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    InvalidPresentationError,
    MaschkeReport,
    _once,
    _require_antipode,
    check_algebra,
)

CIRC = "circ"
BULLET = "bullet"


class CommAlgebraPresentation(Frozen):
    """An algebra presentation with commutativity verified at construction."""

    algebra: AlgebraPresentation

    def __post_init__(self):
        a = self.algebra
        for i in range(a.dim):
            u = unit_vec(a.field, a.dim, i)
            for j in range(i):
                v = unit_vec(a.field, a.dim, j)
                if a.mult_vec(u, v) != a.mult_vec(v, u):
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


def _base_images(h: HopfAlgebroidPresentation):
    """s(x) and t(x) for every base basis element, as total-algebra vectors."""
    dr = h.base.dim
    return ([h.src.col(x) for x in range(dr)], [h.tgt.col(x) for x in range(dr)])


@_once
def circ_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of t(x)e_j (x) e_k - e_j (x) s(x)e_k over base and total bases."""
    f = h.field
    n = h.total.dim
    alg = h.total
    srcs, tgts = _base_images(h)
    rows = []
    for x in range(h.base.dim):
        lt = [alg.mult_vec(tgts[x], unit_vec(f, n, j)) for j in range(n)]
        ls = [alg.mult_vec(srcs[x], unit_vec(f, n, k)) for k in range(n)]
        for j in range(n):
            for k in range(n):
                row = [f.zero()] * (n * n)
                for m, c in enumerate(lt[j]):
                    if c != 0:
                        row[m * n + k] = f.add(row[m * n + k], c)
                for m, c in enumerate(ls[k]):
                    if c != 0:
                        row[j * n + m] = f.sub(row[j * n + m], c)
                if any(v != 0 for v in row):
                    rows.append(row)
    return Subspace.from_rows(f, n * n, rows)


@_once
def bullet_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of (s(x)t(y)e_j) (x) e_k - e_j (x) (s(x)t(y)e_k)."""
    f = h.field
    n = h.total.dim
    alg = h.total
    srcs, tgts = _base_images(h)
    rows = []
    for x in range(h.base.dim):
        for y in range(h.base.dim):
            z = alg.mult_vec(srcs[x], tgts[y])
            lz = [alg.mult_vec(z, unit_vec(f, n, j)) for j in range(n)]
            for j in range(n):
                for k in range(n):
                    row = [f.zero()] * (n * n)
                    for m, c in enumerate(lz[j]):
                        if c != 0:
                            row[m * n + k] = f.add(row[m * n + k], c)
                    for m, c in enumerate(lz[k]):
                        if c != 0:
                            row[j * n + m] = f.sub(row[j * n + m], c)
                    if any(v != 0 for v in row):
                        rows.append(row)
    return Subspace.from_rows(f, n * n, rows)


def tensor_over_R(h: HopfAlgebroidPresentation, product: str = CIRC) -> QuotientSpace:
    """The circ or bullet coequalizer quotient of A (x) A."""
    if product == CIRC:
        rel = circ_relations(h)
    elif product == BULLET:
        rel = bullet_relations(h)
    else:
        raise ValueError(f"product must be {CIRC!r} or {BULLET!r}")
    return quotient_space(h.total.dim ** 2, rel)


@_once
def ideal_subspace(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of (s(x) - t(x)) e_k over base and total bases."""
    f = h.field
    n = h.total.dim
    alg = h.total
    srcs, tgts = _base_images(h)
    rows = []
    for x in range(h.base.dim):
        d = vec_sub(f, srcs[x], tgts[x])
        for k in range(n):
            v = alg.mult_vec(d, unit_vec(f, n, k))
            if any(c != 0 for c in v):
                rows.append(v)
    return Subspace.from_rows(f, n, rows)


@_once
def check_hopf_algebroid(h: HopfAlgebroidPresentation) -> AxiomReport:
    """All defining identities; comultiplication laws after projection."""
    failures = []
    base_report = check_algebra(h.base.algebra)
    total_report = check_algebra(h.total)
    for fail in base_report.failures:
        failures.append(AxiomFailure("base " + fail.law, fail.witness, fail.detail))
    for fail in total_report.failures:
        failures.append(AxiomFailure("total " + fail.law, fail.witness, fail.detail))
    if failures:
        return AxiomReport(tuple(failures))
    f = h.field
    dr, n = h.base.dim, h.total.dim
    base, alg = h.base.algebra, h.total
    srcs, tgts = _base_images(h)
    basisR = [unit_vec(f, dr, x) for x in range(dr)]
    basisA = [unit_vec(f, n, j) for j in range(n)]

    # s and t are unital algebra maps into the center
    for name, mat, imgs in (("source", h.src, srcs), ("target", h.tgt, tgts)):
        if mat.apply(base.unit) != alg.unit:
            failures.append(AxiomFailure(f"{name} map unit", ()))
        for x in range(dr):
            for y in range(dr):
                lhs = mat.apply(base.mult_vec(basisR[x], basisR[y]))
                rhs = alg.mult_vec(imgs[x], imgs[y])
                if lhs != rhs:
                    failures.append(AxiomFailure(f"{name} map multiplicative", (x, y)))
        for x in range(dr):
            for j in range(n):
                if alg.mult_vec(imgs[x], basisA[j]) != alg.mult_vec(basisA[j], imgs[x]):
                    failures.append(AxiomFailure(f"{name} map centrality", (x, j)))

    # counit: unital algebra map and R-bimodule map
    if h.counit.apply(alg.unit) != base.unit:
        failures.append(AxiomFailure("counit unit", ()))
    for i in range(n):
        for j in range(n):
            lhs = h.counit.apply(alg.mult_vec(basisA[i], basisA[j]))
            rhs = base.mult_vec(h.counit.apply(basisA[i]), h.counit.apply(basisA[j]))
            if lhs != rhs:
                failures.append(AxiomFailure("counit multiplicative", (i, j)))
    for x in range(dr):
        for j in range(n):
            scaled = base.mult_vec(basisR[x], h.counit.apply(basisA[j]))
            if h.counit.apply(alg.mult_vec(srcs[x], basisA[j])) != scaled:
                failures.append(AxiomFailure("counit source linearity", (x, j)))
            if h.counit.apply(alg.mult_vec(tgts[x], basisA[j])) != scaled:
                failures.append(AxiomFailure("counit target linearity", (x, j)))

    lift = h.comult_lift
    q2 = tensor_over_R(h, CIRC)

    def project2(vec):
        return q2.project(vec)

    # comultiplication is an R-bimodule map into the circ quotient
    for x in range(dr):
        for j in range(n):
            l_s = lift.apply(alg.mult_vec(srcs[x], basisA[j]))
            l_t = lift.apply(alg.mult_vec(tgts[x], basisA[j]))
            d = lift.apply(basisA[j])
            left_act = [f.zero()] * (n * n)
            right_act = [f.zero()] * (n * n)
            for ab, c in enumerate(d):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                sa = alg.mult_vec(srcs[x], unit_vec(f, n, a))
                for m, cv in enumerate(sa):
                    if cv != 0:
                        left_act[m * n + b] = f.add(left_act[m * n + b], f.mul(c, cv))
                tb = alg.mult_vec(tgts[x], unit_vec(f, n, b))
                for m, cv in enumerate(tb):
                    if cv != 0:
                        right_act[a * n + m] = f.add(right_act[a * n + m], f.mul(c, cv))
            if project2(l_s) != project2(left_act):
                failures.append(AxiomFailure("comult source linearity", (x, j)))
            if project2(l_t) != project2(right_act):
                failures.append(AxiomFailure("comult target linearity", (x, j)))

    # multiplicativity of delta w.r.t. the factorwise product, in the quotient
    for i in range(n):
        di = lift.apply(basisA[i])
        for j in range(n):
            dj = lift.apply(basisA[j])
            prod = [f.zero()] * (n * n)
            for ab, c1 in enumerate(di):
                if c1 == 0:
                    continue
                a, b = divmod(ab, n)
                for cd, c2 in enumerate(dj):
                    if c2 == 0:
                        continue
                    cc, dd = divmod(cd, n)
                    left = alg.mult_vec(unit_vec(f, n, a), unit_vec(f, n, cc))
                    right = alg.mult_vec(unit_vec(f, n, b), unit_vec(f, n, dd))
                    c12 = f.mul(c1, c2)
                    for p, t1 in enumerate(left):
                        if t1 == 0:
                            continue
                        for q, t2 in enumerate(right):
                            if t2 != 0:
                                prod[p * n + q] = f.add(prod[p * n + q],
                                                        f.mul(c12, f.mul(t1, t2)))
            if project2(lift.apply(alg.mult_vec(basisA[i], basisA[j]))) != project2(prod):
                failures.append(AxiomFailure("comult multiplicative", (i, j)))

    # counitality: s(eps(h1)) h2 = h = t(eps(h2)) h1
    for i in range(n):
        d = lift.apply(basisA[i])
        left = [f.zero()] * n
        right = [f.zero()] * n
        for ab, c in enumerate(d):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            va = alg.mult_vec(h.src.apply(h.counit.apply(unit_vec(f, n, a))),
                              unit_vec(f, n, b))
            for m, cv in enumerate(va):
                if cv != 0:
                    left[m] = f.add(left[m], f.mul(c, cv))
            vb = alg.mult_vec(h.tgt.apply(h.counit.apply(unit_vec(f, n, b))),
                              unit_vec(f, n, a))
            for m, cv in enumerate(vb):
                if cv != 0:
                    right[m] = f.add(right[m], f.mul(c, cv))
        if tuple(left) != basisA[i]:
            failures.append(AxiomFailure("counitality (left)", (i,)))
        if tuple(right) != basisA[i]:
            failures.append(AxiomFailure("counitality (right)", (i,)))

    # coassociativity in the double quotient
    rel2 = q2.relations
    rows3 = []
    for i in range(rel2.dim):
        r = rel2.basis.row(i)
        for k in range(n):
            row = [f.zero()] * (n ** 3)
            for ab, c in enumerate(r):
                if c != 0:
                    row[ab * n + k] = c
            rows3.append(row)
            row = [f.zero()] * (n ** 3)
            for ab, c in enumerate(r):
                if c != 0:
                    row[k * n * n + ab] = c
            rows3.append(row)
    rel3 = Subspace.from_rows(f, n ** 3, rows3)
    for i in range(n):
        d = lift.apply(basisA[i])
        first = [f.zero()] * (n ** 3)
        second = [f.zero()] * (n ** 3)
        for ab, c in enumerate(d):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            da = lift.apply(unit_vec(f, n, a))
            for pq, c2 in enumerate(da):
                if c2 != 0:
                    first[pq * n + b] = f.add(first[pq * n + b], f.mul(c, c2))
            db = lift.apply(unit_vec(f, n, b))
            for pq, c2 in enumerate(db):
                if c2 != 0:
                    second[a * n * n + pq] = f.add(second[a * n * n + pq],
                                                   f.mul(c, c2))
        if not rel3.contains(vec_sub(f, tuple(first), tuple(second))):
            failures.append(AxiomFailure("coassociativity", (i,)))

    # antipode identities
    if h.antipode is not None:
        s = h.antipode
        for x in range(dr):
            for j in range(n):
                if s.apply(alg.mult_vec(srcs[x], basisA[j])) != \
                        alg.mult_vec(tgts[x], s.apply(basisA[j])):
                    failures.append(AxiomFailure("antipode source twist", (x, j)))
                if s.apply(alg.mult_vec(tgts[x], basisA[j])) != \
                        alg.mult_vec(srcs[x], s.apply(basisA[j])):
                    failures.append(AxiomFailure("antipode target twist", (x, j)))
        for i in range(n):
            d = lift.apply(basisA[i])
            left = [f.zero()] * n
            right = [f.zero()] * n
            for ab, c in enumerate(d):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                va = alg.mult_vec(unit_vec(f, n, a), s.apply(unit_vec(f, n, b)))
                vb = alg.mult_vec(s.apply(unit_vec(f, n, a)), unit_vec(f, n, b))
                for m in range(n):
                    if va[m] != 0:
                        left[m] = f.add(left[m], f.mul(c, va[m]))
                    if vb[m] != 0:
                        right[m] = f.add(right[m], f.mul(c, vb[m]))
            eps_i = h.counit.apply(basisA[i])
            if tuple(left) != h.src.apply(eps_i):
                failures.append(AxiomFailure("antipode left composite", (i,)))
            if tuple(right) != h.tgt.apply(eps_i):
                failures.append(AxiomFailure("antipode right composite", (i,)))
    return AxiomReport(tuple(failures))


def _require_valid(h: HopfAlgebroidPresentation):
    report = check_hopf_algebroid(h)
    if not report.ok():
        raise InvalidPresentationError(report, "Hopf algebroid")


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
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    n = h.total.dim
    alg = h.total
    ideal = ideal_subspace(h)
    q = quotient_space(n, ideal)
    sys = ConstraintSystem(f, n)
    for i in range(n):
        e_i = unit_vec(f, n, i)
        scal = h.src.apply(h.counit.apply(e_i))
        if side == "left":
            diff = alg.left_mult_matrix(vec_sub(f, e_i, scal))
        else:
            diff = alg.right_mult_matrix(e_i) - alg.left_mult_matrix(scal)
        sys.add_matrix_rows(q.projection @ diff)
    if normalized:
        sys.add_matrix_rows(h.counit, h.base.algebra.unit)
    return sys


def solve_integral_hgd(h: HopfAlgebroidPresentation, side: str,
                       normalized: bool = True):
    """A verified HgdIntegral, or None when infeasible."""
    _require_valid(h)
    sol = integral_system_hgd(h, side, normalized).solve()
    if sol is None:
        return None
    element = sol.particular
    ideal = ideal_subspace(h)
    alg = h.total
    f = h.field
    for i in range(alg.dim):
        e_i = unit_vec(f, alg.dim, i)
        prod = alg.mult_vec(e_i, element) if side == "left" \
            else alg.mult_vec(element, e_i)
        scal = alg.mult_vec(h.src.apply(h.counit.apply(e_i)), element)
        if not membership(vec_sub(f, prod, scal), ideal):
            raise ArithmeticError("integral escaped the ideal after solving")
    return HgdIntegral(element, sol)


def cointegral_system_hgd(h: HopfAlgebroidPresentation, side: str,
                          normalized: bool) -> ConstraintSystem:
    """System over the entries of nu: A -> R (variable index r*dimA + j).

    Left: nu(s(x)h) = x nu(h), h1 t(nu(h2)) = s(nu(h)), nu(1) = 1.
    Right: nu(t(x)h) = x nu(h), s(nu(h1)) h2 = t(nu(h)), nu(1) = 1.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    dr, n = h.base.dim, h.total.dim
    alg, base = h.total, h.base.algebra
    srcs, tgts = _base_images(h)
    sys = ConstraintSystem(f, dr * n)
    basisA = [unit_vec(f, n, j) for j in range(n)]
    basisR = [unit_vec(f, dr, x) for x in range(dr)]

    anchor = srcs if side == "left" else tgts
    for x in range(dr):
        for j in range(n):
            w = alg.mult_vec(anchor[x], basisA[j])
            for r in range(dr):
                coeffs = {}
                for jp, c in enumerate(w):
                    if c != 0:
                        coeffs[r * n + jp] = f.add(coeffs.get(r * n + jp, f.zero()), c)
                for rp in range(dr):
                    c = base.mult.at(x, rp, r)
                    if c != 0:
                        key = rp * n + j
                        coeffs[key] = f.sub(coeffs.get(key, f.zero()), c)
                sys.add_row(coeffs, f.zero())

    lift = h.comult_lift
    # products e_a . t(f_r) and s(f_r) . e_b, per total and base basis element
    if side == "left":
        mix = [[alg.mult_vec(unit_vec(f, n, a), tgts[r]) for r in range(dr)]
               for a in range(n)]
    else:
        mix = [[alg.mult_vec(srcs[r], unit_vec(f, n, b)) for r in range(dr)]
               for b in range(n)]
    out_map = h.src if side == "left" else h.tgt
    for i in range(n):
        d = lift.apply(basisA[i])
        rows = [dict() for _ in range(n)]
        for ab, c in enumerate(d):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            carrier, slot = (a, b) if side == "left" else (b, a)
            for r in range(dr):
                vec = mix[carrier][r]
                for m, cv in enumerate(vec):
                    if cv != 0:
                        key = r * n + slot
                        row = rows[m]
                        row[key] = f.add(row.get(key, f.zero()), f.mul(c, cv))
        for r in range(dr):
            col = out_map.col(r)
            for m, cv in enumerate(col):
                if cv != 0:
                    key = r * n + i
                    row = rows[m]
                    row[key] = f.sub(row.get(key, f.zero()), cv)
        for row in rows:
            sys.add_row(row, f.zero())

    if normalized:
        for r in range(dr):
            coeffs = {r * n + j: alg.unit[j] for j in range(n) if alg.unit[j] != 0}
            sys.add_row(coeffs, base.unit[r])
    return sys


def solve_cointegral_hgd(h: HopfAlgebroidPresentation, side: str,
                         normalized: bool = True):
    """A verified HgdCointegral, or None when infeasible."""
    _require_valid(h)
    sol = cointegral_system_hgd(h, side, normalized).solve()
    if sol is None:
        return None
    nu = Matrix(h.field, h.base.dim, h.total.dim, tuple(sol.particular))
    return HgdCointegral(nu, sol)


def separability_system_hgd(h: HopfAlgebroidPresentation,
                            q: QuotientSpace) -> ConstraintSystem:
    """Bimodule-section rows over the bullet quotient (unknowns q.dim x dimA)."""
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    sys = ConstraintSystem(f, qd * n)
    ms = alg.mult_matrix() @ q.section
    for j in range(n):
        for m in range(n):
            coeffs = {r * n + j: ms.at(m, r) for r in range(qd) if ms.at(m, r) != 0}
            sys.add_row(coeffs, f.one() if m == j else f.zero())
    prod = [[[] for _ in range(n)] for _ in range(n)]
    for a, b, k, t in alg.mult.nonzeros():
        prod[a][b].append((k, t))
    # the section columns as sparse tensors [(a, b, coefficient)] of A (x) A
    lifts = [[(*divmod(ab, n), c) for ab, c in enumerate(q.section.col(r)) if c != 0]
             for r in range(qd)]

    def through_quotient(x, left):
        """Columns of q.projection (L_x (x) 1) q.section, or of (1 (x) R_x)."""
        out = []
        for lift in lifts:
            vec = [f.zero()] * (n * n)
            for a, b, c in lift:
                for k, t in prod[x][a] if left else prod[b][x]:
                    idx = k * n + b if left else a * n + k
                    vec[idx] = f.add(vec[idx], f.mul(c, t))
            out.append(q.project(vec))
        return out

    for i in range(n):
        left, right = through_quotient(i, True), through_quotient(i, False)
        for j in range(n):
            # (mu bullet 1)(1 bullet nabla) on e_i (x) e_j and
            # (1 bullet mu)(nabla bullet 1) on e_j (x) e_i, through the quotient
            for act, target in ((left, prod[i][j]), (right, prod[j][i])):
                for r in range(qd):
                    coeffs = {rp * n + j: act[rp][r] for rp in range(qd) if act[rp][r] != 0}
                    for m, c in target:
                        coeffs[r * n + m] = f.sub(coeffs.get(r * n + m, f.zero()), c)
                    sys.add_row(coeffs, f.zero())
    return sys


def solve_separability_hgd(h: HopfAlgebroidPresentation):
    """Bimodule section of the multiplication over the bullet product, or None."""
    _require_valid(h)
    q = tensor_over_R(h, BULLET)
    sys = separability_system_hgd(h, q)
    sol = sys.solve()
    if sol is None:
        return None
    return HgdSeparabilitySection(q, Matrix(h.field, q.dim, h.total.dim,
                                            tuple(sol.particular)))


def coseparability_system_hgd(h: HopfAlgebroidPresentation,
                              q: QuotientSpace) -> ConstraintSystem:
    """Bicomodule-retraction rows over the circ quotient (unknowns dimA x q.dim).

    Includes the R-bimodule-map rows for the retraction: morphisms of
    R-bimodules are required, not bare linear maps.
    """
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    srcs, tgts = _base_images(h)
    sys = ConstraintSystem(f, n * qd)
    dq = q.projection @ h.comult_lift          # delta into quotient coordinates
    # retraction: P . delta = id
    for i in range(n):
        col = dq.col(i)
        for m in range(n):
            coeffs = {m * qd + r: col[r] for r in range(qd) if col[r] != 0}
            sys.add_row(coeffs, f.one() if m == i else f.zero())
    gens = {}
    for j in range(n):
        for k in range(n):
            vec = [f.zero()] * (n * n)
            vec[j * n + k] = f.one()
            gens[(j, k)] = q.project(vec)
    # R-bimodule morphism rows
    for x in range(h.base.dim):
        smat = alg.left_mult_matrix(srcs[x])
        tmat = alg.left_mult_matrix(tgts[x])
        for j in range(n):
            sj = alg.mult_vec(srcs[x], unit_vec(f, n, j))
            for k in range(n):
                tk = alg.mult_vec(tgts[x], unit_vec(f, n, k))
                u = gens[(j, k)]
                # left leg: pi(s(x) e_j (x) e_k) = s(x) pi(e_j (x) e_k)
                lhs = [f.zero()] * (n * n)
                for m, c in enumerate(sj):
                    if c != 0:
                        lhs[m * n + k] = c
                for row, rhs in _bimodule_rows(f, n, qd, q.project(lhs), u, smat):
                    sys.add_row(row, rhs)
                # right leg: pi(e_j (x) t(x) e_k) = t(x) pi(e_j (x) e_k)
                rhs_vec = [f.zero()] * (n * n)
                for m, c in enumerate(tk):
                    if c != 0:
                        rhs_vec[j * n + m] = c
                for row, rhs in _bimodule_rows(f, n, qd, q.project(rhs_vec), u, tmat):
                    sys.add_row(row, rhs)
    # the two bicomodule squares
    lift = h.comult_lift
    for j in range(n):
        dj = lift.apply(unit_vec(f, n, j))
        for k in range(n):
            u = gens[(j, k)]
            # common middle: delta(P(u)) in quotient coordinates
            mid = {}
            for m in range(n):
                col = dq.col(m)
                for r, ur in enumerate(u):
                    if ur == 0:
                        continue
                    key = m * qd + r
                    for rr in range(qd):
                        if col[rr] != 0:
                            bucket = mid.setdefault(rr, {})
                            bucket[key] = f.add(bucket.get(key, f.zero()),
                                                f.mul(ur, col[rr]))
            # left square: (1 circ P)(delta circ 1)
            lhsrows = {}
            for ab, c in enumerate(dj):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                ubk = gens[(b, k)]
                for m in range(n):
                    pvec = [f.zero()] * (n * n)
                    pvec[a * n + m] = f.one()
                    pq_ = q.project(pvec)
                    for r, ur in enumerate(ubk):
                        if ur == 0:
                            continue
                        key = m * qd + r
                        for rr, cv in enumerate(pq_):
                            if cv != 0:
                                bucket = lhsrows.setdefault(rr, {})
                                bucket[key] = f.add(bucket.get(key, f.zero()),
                                                    f.mul(c, f.mul(ur, cv)))
            for rr in range(qd):
                row = dict(lhsrows.get(rr, {}))
                for key, val in mid.get(rr, {}).items():
                    row[key] = f.sub(row.get(key, f.zero()), val)
                sys.add_row(row, f.zero())
            # right square: (P circ 1)(1 circ delta)
            dk = lift.apply(unit_vec(f, n, k))
            rhsrows = {}
            for ab, c in enumerate(dk):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                uja = gens[(j, a)]
                for m in range(n):
                    pvec = [f.zero()] * (n * n)
                    pvec[m * n + b] = f.one()
                    pq_ = q.project(pvec)
                    for r, ur in enumerate(uja):
                        if ur == 0:
                            continue
                        key = m * qd + r
                        for rr, cv in enumerate(pq_):
                            if cv != 0:
                                bucket = rhsrows.setdefault(rr, {})
                                bucket[key] = f.add(bucket.get(key, f.zero()),
                                                    f.mul(c, f.mul(ur, cv)))
            for rr in range(qd):
                row = dict(rhsrows.get(rr, {}))
                for key, val in mid.get(rr, {}).items():
                    row[key] = f.sub(row.get(key, f.zero()), val)
                sys.add_row(row, f.zero())
    return sys


def _bimodule_rows(f, n, qd, w, u, act):
    """Rows of P(w) - act(P(u)) = 0, coefficients over P[m, r] = m*qd + r."""
    rows = []
    for m in range(n):
        coeffs = {}
        for r, c in enumerate(w):
            if c != 0:
                coeffs[m * qd + r] = f.add(coeffs.get(m * qd + r, f.zero()), c)
        for mp in range(n):
            c_act = act.at(m, mp)
            if c_act == 0:
                continue
            for r, ur in enumerate(u):
                if ur == 0:
                    continue
                key = mp * qd + r
                coeffs[key] = f.sub(coeffs.get(key, f.zero()), f.mul(c_act, ur))
        rows.append((coeffs, f.zero()))
    return rows


def solve_coseparability_hgd(h: HopfAlgebroidPresentation):
    """Bicomodule retraction of delta over the circ product, or None."""
    _require_valid(h)
    q = tensor_over_R(h, CIRC)
    sys = coseparability_system_hgd(h, q)
    sol = sys.solve()
    if sol is None:
        return None
    return HgdCoseparabilityRetraction(q, Matrix(h.field, h.total.dim, q.dim,
                                                 tuple(sol.particular)))


def maschke_report(h: HopfAlgebroidPresentation) -> MaschkeReport:
    """Every solver, keyed by side, and the two equivalence verdicts."""
    _require_antipode(h)
    return MaschkeReport(
        {side: solve_integral_hgd(h, side) for side in ("left", "right")},
        {side: solve_cointegral_hgd(h, side) for side in ("left", "right")},
        solve_separability_hgd(h),
        solve_coseparability_hgd(h),
    )
