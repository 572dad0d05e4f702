import random
from fractions import Fraction

import pytest

from maschke_kit import hopfalgd
from maschke_kit.exactlin import (ConstraintSystem, FieldSpec, Matrix, QuotientSpace,
                                   Subspace, Tensor3, quotient_space, unit_vec, vec_sub)
from maschke_kit.finalg import (AlgebraPresentation, AxiomFailure, AxiomReport,
                                InvalidPresentationError, _add_to, _balanced_system,
                                _generators, _sparse_products, check_algebra)
from maschke_kit.examples import (
    cyclic_group,
    dual_group_algebra,
    dual_number_algebra,
    ground_field_algebra,
    group_algebra,
    groupoid_algebra,
    pair_groupoid,
    pair_hopf_algebroid,
    split_pair_algebra,
    symmetric_group_s3,
)
from maschke_kit.hopfalgd import (
    BULLET,
    CIRC,
    HopfAlgebroidPresentation,
    _comult_terms,
    bullet_relations,
    check_hopf_algebroid,
    circ_relations,
    cointegral_system_hgd,
    coseparability_system_hgd,
    ideal_subspace,
    integral_system_hgd,
    maschke_report,
    separability_system_hgd,
    solve_cointegral_hgd,
    solve_coseparability_hgd,
    solve_integral_hgd,
    solve_separability_hgd,
    tensor_over_R,
)

from denselin import (add_matrix_rows, add_row, apply, comult_matrix, counit_matrix,
                      generated_dim, identity, kron, left_mult_matrix, mat_sub, membership,
                      mult_matrix, mult_vec, on_leg, project, rebased, right_mult_matrix,
                      row_multiset, section, sparse_cols, subspace_from_rows, to_rows,
                      unit_matrix)

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def hopf_algebra_as_algebroid(w) -> HopfAlgebroidPresentation:
    """Base k: source and target both the unit, comultiplication as lift."""
    return HopfAlgebroidPresentation(
        base=ground_field_algebra(w.field),
        total=w.algebra,
        src=unit_matrix(w.algebra),
        tgt=unit_matrix(w.algebra),
        comult_lift=comult_matrix(w.coalgebra),
        counit=counit_matrix(w.coalgebra),
        antipode=w.antipode,
    )


BASES = (ground_field_algebra, dual_number_algebra, split_pair_algebra)


def perturbed_lift(h, trial):
    """h with a multiple of one circ relation added to one column of its
    comultiplication lift; every verdict must stay the same."""
    f = h.field
    rel = circ_relations(h)
    n = h.total.dim
    ent = list(h.comult_lift.entries)
    row = rel.basis.row(trial % rel.dim)
    col = trial % n
    for rr in range(n * n):
        idx = rr * n + col
        ent[idx] = f.add(ent[idx], f.mul(f.coerce(trial + 1), row[rr]))
    return HopfAlgebroidPresentation(h.base, h.total, h.src, h.tgt,
                                     Matrix(f, n * n, n, tuple(ent)), h.counit,
                                     h.antipode)


def kron_separability_system_hgd(h, q) -> ConstraintSystem:
    """separability_system_hgd with each action through the quotient a dense
    chain q.projection @ kron(...) @ section(q)."""
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    sec = section(q)
    sys = ConstraintSystem(f, qd * n)
    ms = mult_matrix(alg) @ sec
    for j in range(n):
        for m in range(n):
            coeffs = {r * n + j: ms.at(m, r) for r in range(qd) if ms.at(m, r) != 0}
            add_row(sys, coeffs, f.one() if m == j else f.zero())
    eye = identity(f, n)
    for i in range(n):
        left = q.projection @ kron(left_mult_matrix(alg, unit_vec(f, n, i)), eye) @ sec
        right = q.projection @ kron(eye, right_mult_matrix(alg, unit_vec(f, n, i))) @ sec
        for j in range(n):
            # (mu bullet 1)(1 bullet nabla) on e_i (x) e_j and
            # (1 bullet mu)(nabla bullet 1) on e_j (x) e_i
            for act, var, target in ((left, j, mult_vec(alg, unit_vec(f, n, i),
                                                        unit_vec(f, n, j))),
                                     (right, j, mult_vec(alg, unit_vec(f, n, j),
                                                         unit_vec(f, n, i)))):
                for r in range(qd):
                    coeffs = {rp * n + var: act.at(r, rp) for rp in range(qd)
                              if act.at(r, rp) != 0}
                    for m, c in enumerate(target):
                        if c != 0:
                            coeffs[r * n + m] = f.sub(coeffs.get(r * n + m, f.zero()), c)
                    add_row(sys, coeffs, f.zero())
    return sys


def oracle_separability_system_hgd(h, q) -> ConstraintSystem:
    """The bimodule section N itself as unknowns (q.dim x dimA, variable
    index r * dimA + j), with mu(N(e_j)) = e_j and the two module squares
    through the quotient: the system that separability_system_hgd's element
    system replaces."""
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    prod = _sparse_products(alg)
    free = q.free       # quotient coordinate r is the ambient coordinate free[r]
    sys = ConstraintSystem(f, qd * n)
    # mu(section(e_j)) = e_j
    for j in range(n):
        rows = [dict() for _ in range(n)]
        for r, c in enumerate(free):
            for m, t in prod[c // n][c % n]:
                rows[m][r * n + j] = t
        for m, row in enumerate(rows):
            add_row(sys, row, f.one() if m == j else f.zero())
    for i in range(n):
        e_i = unit_vec(f, n, i)
        left = on_leg(q.projection, left_mult_matrix(alg, e_i), 0)
        right = on_leg(q.projection, right_mult_matrix(alg, e_i), 1)
        for j in range(n):
            # (mu bullet 1)(1 bullet nabla) on e_i (x) e_j and
            # (1 bullet mu)(nabla bullet 1) on e_j (x) e_i, through the quotient
            for act, target in ((left, prod[i][j]), (right, prod[j][i])):
                for r in range(qd):
                    coeffs = {rp * n + j: act.at(r, c) for rp, c in enumerate(free)
                              if act.at(r, c) != 0}
                    for m, c in target:
                        _add_to(coeffs, r * n + m, f.neg(c), f)
                    add_row(sys, coeffs, f.zero())
    return sys


def dense_section(h, q, e) -> Matrix:
    """The section x -> x e of a bullet element e, column j the dense chain
    q.projection @ kron(L_j, 1) @ section(q) applied to e."""
    f = h.field
    n = h.total.dim
    eye = identity(f, n)
    cols = [apply(q.projection @ kron(left_mult_matrix(h.total, unit_vec(f, n, j)), eye)
                  @ section(q), e) for j in range(n)]
    return Matrix(f, q.dim, n, tuple(c[r] for r in range(q.dim) for c in cols))


def assert_element_system_agrees(h, q, section_system) -> bool:
    """separability_system_hgd against a q.dim x dimA section system: the same
    feasibility and nullity, and the section x -> x e of the element solution
    solves the section system and is its particular solution.  True when
    feasible."""
    want = section_system.solve()
    got = separability_system_hgd(h, q).solve()
    assert (got is None) == (want is None)
    if want is None:
        return False
    assert got.homogeneous.dim == want.homogeneous.dim
    section = dense_section(h, q, got.particular)
    assert section_system.satisfied_by(section.entries)
    assert section.entries == want.particular
    return True


# The checks and systems as they were built one basis vector at a time: every
# identity through mult_vec and Matrix.apply on unit vectors, every projection
# through the quotient's projection matrix.  hopfalgd builds the same reports, relation
# spaces and systems from structure constants; TestOracle compares the two.


def _oracle_base_images(h: HopfAlgebroidPresentation):
    """s(x) and t(x) for every base basis element, as total-algebra vectors."""
    dr = h.base.dim
    return ([h.src.col(x) for x in range(dr)], [h.tgt.col(x) for x in range(dr)])


def oracle_circ_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of t(x)e_j (x) e_k - e_j (x) s(x)e_k over base and total bases."""
    f = h.field
    n = h.total.dim
    alg = h.total
    srcs, tgts = _oracle_base_images(h)
    rows = []
    for x in range(h.base.dim):
        lt = [mult_vec(alg, tgts[x], unit_vec(f, n, j)) for j in range(n)]
        ls = [mult_vec(alg, srcs[x], unit_vec(f, n, k)) for k in range(n)]
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
    return subspace_from_rows(f, n * n, rows)


def oracle_bullet_relations(h: HopfAlgebroidPresentation) -> Subspace:
    """Span of (s(x)t(y)e_j) (x) e_k - e_j (x) (s(x)t(y)e_k)."""
    f = h.field
    n = h.total.dim
    alg = h.total
    srcs, tgts = _oracle_base_images(h)
    rows = []
    for x in range(h.base.dim):
        for y in range(h.base.dim):
            z = mult_vec(alg, srcs[x], tgts[y])
            lz = [mult_vec(alg, z, unit_vec(f, n, j)) for j in range(n)]
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
    return subspace_from_rows(f, n * n, rows)


def oracle_check_hopf_algebroid(h: HopfAlgebroidPresentation) -> AxiomReport:
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
    srcs, tgts = _oracle_base_images(h)
    basisR = [unit_vec(f, dr, x) for x in range(dr)]
    basisA = [unit_vec(f, n, j) for j in range(n)]

    # s and t are unital algebra maps into the center
    for name, mat, imgs in (("source", h.src, srcs), ("target", h.tgt, tgts)):
        if apply(mat, base.unit) != alg.unit:
            failures.append(AxiomFailure(f"{name} map unit", ()))
        for x in range(dr):
            for y in range(dr):
                lhs = apply(mat, mult_vec(base, basisR[x], basisR[y]))
                rhs = mult_vec(alg, imgs[x], imgs[y])
                if lhs != rhs:
                    failures.append(AxiomFailure(f"{name} map multiplicative", (x, y)))
        for x in range(dr):
            for j in range(n):
                if mult_vec(alg, imgs[x], basisA[j]) != mult_vec(alg, basisA[j], imgs[x]):
                    failures.append(AxiomFailure(f"{name} map centrality", (x, j)))

    # counit: unital algebra map and R-bimodule map
    if apply(h.counit, alg.unit) != base.unit:
        failures.append(AxiomFailure("counit unit", ()))
    for i in range(n):
        for j in range(n):
            lhs = apply(h.counit, mult_vec(alg, basisA[i], basisA[j]))
            rhs = mult_vec(base, apply(h.counit, basisA[i]), apply(h.counit, basisA[j]))
            if lhs != rhs:
                failures.append(AxiomFailure("counit multiplicative", (i, j)))
    for x in range(dr):
        for j in range(n):
            scaled = mult_vec(base, basisR[x], apply(h.counit, basisA[j]))
            if apply(h.counit, mult_vec(alg, srcs[x], basisA[j])) != scaled:
                failures.append(AxiomFailure("counit source linearity", (x, j)))
            if apply(h.counit, mult_vec(alg, tgts[x], basisA[j])) != scaled:
                failures.append(AxiomFailure("counit target linearity", (x, j)))

    lift = h.comult_lift
    q2 = quotient_space(n * n, oracle_circ_relations(h))

    def project2(vec):
        return project(q2, vec)

    # comultiplication is an R-bimodule map into the circ quotient
    for x in range(dr):
        for j in range(n):
            l_s = apply(lift, mult_vec(alg, srcs[x], basisA[j]))
            l_t = apply(lift, mult_vec(alg, tgts[x], basisA[j]))
            d = apply(lift, basisA[j])
            left_act = [f.zero()] * (n * n)
            right_act = [f.zero()] * (n * n)
            for ab, c in enumerate(d):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                sa = mult_vec(alg, srcs[x], unit_vec(f, n, a))
                for m, cv in enumerate(sa):
                    if cv != 0:
                        left_act[m * n + b] = f.add(left_act[m * n + b], f.mul(c, cv))
                tb = mult_vec(alg, tgts[x], unit_vec(f, n, b))
                for m, cv in enumerate(tb):
                    if cv != 0:
                        right_act[a * n + m] = f.add(right_act[a * n + m], f.mul(c, cv))
            if project2(l_s) != project2(left_act):
                failures.append(AxiomFailure("comult source linearity", (x, j)))
            if project2(l_t) != project2(right_act):
                failures.append(AxiomFailure("comult target linearity", (x, j)))

    # multiplicativity of delta w.r.t. the factorwise product, in the quotient
    for i in range(n):
        di = apply(lift, basisA[i])
        for j in range(n):
            dj = apply(lift, basisA[j])
            prod = [f.zero()] * (n * n)
            for ab, c1 in enumerate(di):
                if c1 == 0:
                    continue
                a, b = divmod(ab, n)
                for cd, c2 in enumerate(dj):
                    if c2 == 0:
                        continue
                    cc, dd = divmod(cd, n)
                    left = mult_vec(alg, unit_vec(f, n, a), unit_vec(f, n, cc))
                    right = mult_vec(alg, unit_vec(f, n, b), unit_vec(f, n, dd))
                    c12 = f.mul(c1, c2)
                    for p, t1 in enumerate(left):
                        if t1 == 0:
                            continue
                        for q, t2 in enumerate(right):
                            if t2 != 0:
                                prod[p * n + q] = f.add(prod[p * n + q],
                                                        f.mul(c12, f.mul(t1, t2)))
            if project2(apply(lift, mult_vec(alg, basisA[i], basisA[j]))) != project2(prod):
                failures.append(AxiomFailure("comult multiplicative", (i, j)))

    # counitality: s(eps(h1)) h2 = h = t(eps(h2)) h1
    for i in range(n):
        d = apply(lift, basisA[i])
        left = [f.zero()] * n
        right = [f.zero()] * n
        for ab, c in enumerate(d):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            va = mult_vec(alg, apply(h.src, apply(h.counit, unit_vec(f, n, a))),
                          unit_vec(f, n, b))
            for m, cv in enumerate(va):
                if cv != 0:
                    left[m] = f.add(left[m], f.mul(c, cv))
            vb = mult_vec(alg, apply(h.tgt, apply(h.counit, unit_vec(f, n, b))),
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
    rel3 = subspace_from_rows(f, n ** 3, rows3)
    for i in range(n):
        d = apply(lift, basisA[i])
        first = [f.zero()] * (n ** 3)
        second = [f.zero()] * (n ** 3)
        for ab, c in enumerate(d):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            da = apply(lift, unit_vec(f, n, a))
            for pq, c2 in enumerate(da):
                if c2 != 0:
                    first[pq * n + b] = f.add(first[pq * n + b], f.mul(c, c2))
            db = apply(lift, unit_vec(f, n, b))
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
                if apply(s, mult_vec(alg, srcs[x], basisA[j])) != \
                        mult_vec(alg, tgts[x], apply(s, basisA[j])):
                    failures.append(AxiomFailure("antipode source twist", (x, j)))
                if apply(s, mult_vec(alg, tgts[x], basisA[j])) != \
                        mult_vec(alg, srcs[x], apply(s, basisA[j])):
                    failures.append(AxiomFailure("antipode target twist", (x, j)))
        for i in range(n):
            d = apply(lift, basisA[i])
            left = [f.zero()] * n
            right = [f.zero()] * n
            for ab, c in enumerate(d):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                va = mult_vec(alg, unit_vec(f, n, a), apply(s, unit_vec(f, n, b)))
                vb = mult_vec(alg, apply(s, unit_vec(f, n, a)), unit_vec(f, n, b))
                for m in range(n):
                    if va[m] != 0:
                        left[m] = f.add(left[m], f.mul(c, va[m]))
                    if vb[m] != 0:
                        right[m] = f.add(right[m], f.mul(c, vb[m]))
            eps_i = apply(h.counit, basisA[i])
            if tuple(left) != apply(h.src, eps_i):
                failures.append(AxiomFailure("antipode left composite", (i,)))
            if tuple(right) != apply(h.tgt, eps_i):
                failures.append(AxiomFailure("antipode right composite", (i,)))
    return AxiomReport(tuple(failures))


def oracle_coseparability_system_hgd(h: HopfAlgebroidPresentation,
                              q: QuotientSpace) -> ConstraintSystem:
    """Bicomodule-retraction rows over the circ quotient (unknowns dimA x q.dim).

    Includes the R-bimodule-map rows for the retraction: morphisms of
    R-bimodules are required, not bare linear maps.
    """
    f = h.field
    n = h.total.dim
    alg = h.total
    qd = q.dim
    srcs, tgts = _oracle_base_images(h)
    sys = ConstraintSystem(f, n * qd)
    dq = q.projection @ h.comult_lift          # delta into quotient coordinates
    # retraction: P . delta = id
    for i in range(n):
        col = dq.col(i)
        for m in range(n):
            coeffs = {m * qd + r: col[r] for r in range(qd) if col[r] != 0}
            add_row(sys, coeffs, f.one() if m == i else f.zero())
    gens = {}
    for j in range(n):
        for k in range(n):
            vec = [f.zero()] * (n * n)
            vec[j * n + k] = f.one()
            gens[(j, k)] = project(q, vec)
    # R-bimodule morphism rows
    for x in range(h.base.dim):
        smat = left_mult_matrix(alg, srcs[x])
        tmat = left_mult_matrix(alg, tgts[x])
        for j in range(n):
            sj = mult_vec(alg, srcs[x], unit_vec(f, n, j))
            for k in range(n):
                tk = mult_vec(alg, tgts[x], unit_vec(f, n, k))
                u = gens[(j, k)]
                # left leg: pi(s(x) e_j (x) e_k) = s(x) pi(e_j (x) e_k)
                lhs = [f.zero()] * (n * n)
                for m, c in enumerate(sj):
                    if c != 0:
                        lhs[m * n + k] = c
                for row, rhs in _oracle_bimodule_rows(f, n, qd, project(q, lhs), u,
                                                      smat):
                    add_row(sys, row, rhs)
                # right leg: pi(e_j (x) t(x) e_k) = t(x) pi(e_j (x) e_k)
                rhs_vec = [f.zero()] * (n * n)
                for m, c in enumerate(tk):
                    if c != 0:
                        rhs_vec[j * n + m] = c
                for row, rhs in _oracle_bimodule_rows(f, n, qd, project(q, rhs_vec), u,
                                                      tmat):
                    add_row(sys, row, rhs)
    # the two bicomodule squares
    lift = h.comult_lift
    for j in range(n):
        dj = apply(lift, unit_vec(f, n, j))
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
                    pq_ = project(q, pvec)
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
                add_row(sys, row, f.zero())
            # right square: (P circ 1)(1 circ delta)
            dk = apply(lift, unit_vec(f, n, k))
            rhsrows = {}
            for ab, c in enumerate(dk):
                if c == 0:
                    continue
                a, b = divmod(ab, n)
                uja = gens[(j, a)]
                for m in range(n):
                    pvec = [f.zero()] * (n * n)
                    pvec[m * n + b] = f.one()
                    pq_ = project(q, pvec)
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
                add_row(sys, row, f.zero())
    return sys


def _oracle_bimodule_rows(f, n, qd, w, u, act):
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


def oracle_integral_system_hgd(h: HopfAlgebroidPresentation, side: str,
                               normalized: bool) -> ConstraintSystem:
    """integral_system_hgd as first written, from dense multiplication matrices:
    hn - s(eps(h))n (left) or nh - s(eps(h))n (right) in the ideal; eps(n) = 1."""
    if side not in ("left", "right"):
        raise ValueError("side must be left or right")
    f = h.field
    n = h.total.dim
    alg = h.total
    ideal = ideal_subspace(h)
    q = quotient_space(n, ideal)
    sys = ConstraintSystem(f, n)
    sc = h.src @ h.counit
    for i in range(n):
        e_i = unit_vec(f, n, i)
        if side == "left":
            diff = left_mult_matrix(alg, vec_sub(f, e_i, sc.col(i)))
        else:
            diff = mat_sub(right_mult_matrix(alg, e_i), left_mult_matrix(alg, sc.col(i)))
        add_matrix_rows(sys, q.projection @ diff)
    if normalized:
        add_matrix_rows(sys, h.counit, h.base.algebra.unit)
    return sys


def oracle_cointegral_system_hgd(h: HopfAlgebroidPresentation, side: str,
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
    srcs, tgts = _oracle_base_images(h)
    sys = ConstraintSystem(f, dr * n)

    anchor = srcs if side == "left" else tgts
    for x in range(dr):
        moved = left_mult_matrix(alg, anchor[x])
        for j in range(n):
            for r in range(dr):
                coeffs = {r * n + jp: c for jp, c in enumerate(moved.col(j)) if c != 0}
                for rp in range(dr):
                    c = base.mult.at(x, rp, r)
                    if c != 0:
                        _add_to(coeffs, rp * n + j, f.neg(c), f)
                add_row(sys, coeffs, f.zero())

    terms = _comult_terms(h)
    # mix[r][a] = e_a t(f_r) (left) or s(f_r) e_a (right), sparse
    mix = [sparse_cols(right_mult_matrix(alg, t)) for t in tgts] if side == "left" \
        else [sparse_cols(left_mult_matrix(alg, s)) for s in srcs]
    out_map = h.src if side == "left" else h.tgt
    for i in range(n):
        rows = [dict() for _ in range(n)]
        for a, b, c in terms[i]:
            carrier, slot = (a, b) if side == "left" else (b, a)
            for r in range(dr):
                for m, cv in mix[r][carrier]:
                    _add_to(rows[m], r * n + slot, f.mul(c, cv), f)
        for m, r, cv in out_map.nonzeros():
            _add_to(rows[m], r * n + i, f.neg(cv), f)
        for row in rows:
            add_row(sys, row, f.zero())

    if normalized:
        for r in range(dr):
            coeffs = {r * n + j: alg.unit[j] for j in range(n) if alg.unit[j] != 0}
            add_row(sys, coeffs, base.unit[r])
    return sys


def oracle_corpus():
    """Pair algebroids with perturbed lifts, Hopf algebras over k and a 2x2
    matrix algebra with structure constants other than 0 and 1."""
    for field in (QQ, F2, F3, F5):
        for mk in BASES:
            h = pair_hopf_algebroid(mk(field))
            yield h
            if mk is not ground_field_algebra:
                yield from (perturbed_lift(h, trial) for trial in range(3))
        for w in (group_algebra(cyclic_group(2), field),
                  group_algebra(cyclic_group(3), field),
                  dual_group_algebra(cyclic_group(3), field)):
            yield hopf_algebra_as_algebroid(w)
    for field in (QQ, F5):
        yield hopf_algebra_as_algebroid(
            rebased(groupoid_algebra(pair_groupoid(2), field), 1))


def raised(h, name, idx):
    """h with entry idx of src, tgt, comult_lift, counit, antipode or the
    total mult raised by 1."""
    f = h.field
    parts = dict(base=h.base, total=h.total, src=h.src, tgt=h.tgt,
                 comult_lift=h.comult_lift, counit=h.counit, antipode=h.antipode)
    t = h.total.mult if name == "mult" else parts[name]
    ent = list(t.entries)
    ent[idx] = f.add(ent[idx], f.one())
    if name == "mult":
        parts["total"] = AlgebraPresentation(f, t.d0, h.total.labels,
                                             Tensor3(f, t.d0, t.d1, t.d2, tuple(ent)),
                                             h.total.unit)
    else:
        parts[name] = Matrix(f, t.rows, t.cols, tuple(ent))
    return HopfAlgebroidPresentation(**parts)


def oracle_cases():
    """The corpus, and copies of each with one entry raised by 1 per map."""
    rng = random.Random(9)
    for h in oracle_corpus():
        yield h
        for name in ("src", "tgt", "comult_lift", "counit", "antipode", "mult"):
            t = h.total.mult if name == "mult" else getattr(h, name)
            yield raised(h, name, rng.randrange(len(t.entries)))


class TestOracle:
    def test_reports_match_oracle(self):
        laws = set()
        for h in oracle_cases():
            report = check_hopf_algebroid(h)
            assert report == oracle_check_hopf_algebroid(h)
            laws.update(fail.law for fail in report.failures)
        # the damaged copies reach every law after the algebra checks
        assert {"source map unit", "source map multiplicative", "source map centrality",
                "target map unit", "target map multiplicative", "target map centrality",
                "counit unit", "counit multiplicative", "counit source linearity",
                "counit target linearity", "comult source linearity",
                "comult target linearity", "comult multiplicative",
                "counitality (left)", "counitality (right)", "coassociativity",
                "antipode source twist", "antipode target twist",
                "antipode left composite", "antipode right composite"} <= laws

    def test_relations_match_oracle(self):
        for h in oracle_cases():
            assert circ_relations(h) == oracle_circ_relations(h)
            assert bullet_relations(h) == oracle_bullet_relations(h)

    def test_integral_and_cointegral_systems_match_oracle(self):
        # the rows of the earlier builders in any order, and the same solution;
        # kS3 in a basis that is not grouplike is a noncommutative total
        # algebra whose left and right integral rows differ
        cases = 0
        noncommutative = hopf_algebra_as_algebroid(
            rebased(group_algebra(symmetric_group_s3(), QQ), 1))
        for h in [*oracle_cases(), noncommutative]:
            if not check_hopf_algebroid(h).ok():
                continue
            for side in ("left", "right"):
                for normalized in (True, False):
                    for build, oracle in (
                            (integral_system_hgd, oracle_integral_system_hgd),
                            (cointegral_system_hgd, oracle_cointegral_system_hgd)):
                        got, want = build(h, side, normalized), oracle(h, side, normalized)
                        assert row_multiset(got) == row_multiset(want)
                        assert got.solve() == want.solve()
            cases += 1
        assert cases > 50

    def test_coseparability_systems_match_oracle(self):
        # the functional gamma against the retraction P = (1 circ gamma)(Delta
        # circ 1): the same feasibility and nullity, and the solver's P is the
        # oracle's particular solution.  The damaged copies are skipped: the
        # correspondence needs a coring, and the solver refuses them first.
        feasible = infeasible = 0
        for h in oracle_cases():
            if not check_hopf_algebroid(h).ok():
                continue
            q = tensor_over_R(h, CIRC)
            got = coseparability_system_hgd(h, q).solve()
            want = oracle_coseparability_system_hgd(h, q).solve()
            retraction = solve_coseparability_hgd(h)
            assert (got is None) == (want is None) == (retraction is None)
            if want is None:
                infeasible += 1
                continue
            feasible += 1
            assert got.homogeneous.dim == want.homogeneous.dim
            assert retraction.map.entries == want.particular
        assert feasible > 50 and infeasible

    def test_stored_columns_match_a_fresh_grouping(self):
        # Matrix.columns against the dense columns grouped afresh, on every map
        # of the corpus and every quotient projection
        maps = 0
        for h in oracle_corpus():
            ms = [h.src, h.tgt, h.comult_lift, h.counit]
            if h.antipode is not None:
                ms.append(h.antipode)
            if check_hopf_algebroid(h).ok():
                ms += [tensor_over_R(h, CIRC).projection, tensor_over_R(h, BULLET).projection]
            for m in ms:
                assert m.columns() == tuple(map(tuple, sparse_cols(m)))
                assert m.columns() is m.columns()
                maps += 1
        assert maps > 300

    def test_coseparability_system_reads_projection_columns(self, monkeypatch):
        # no vector is projected one at a time: Matrix has no apply, and the
        # rows are built without any Matrix product or new Matrix
        assert not hasattr(Matrix, "apply")
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        q = tensor_over_R(h, CIRC)
        calls = {name: [] for name in ("__matmul__", "__post_init__")}
        for name, seen in calls.items():
            original = getattr(Matrix, name)

            def counted(*args, original=original, seen=seen):
                seen.append(1)
                return original(*args)

            monkeypatch.setattr(Matrix, name, counted)
        coseparability_system_hgd(h, q)
        assert calls == {"__matmul__": [], "__post_init__": []}


class TestValidation:
    def test_pair_algebroids_valid(self):
        for field in (QQ, F2):
            for mk in BASES:
                assert check_hopf_algebroid(pair_hopf_algebroid(mk(field))).ok()

    def test_identity_antipode_fails_composite_at_one_tensor_x(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift, h.counit,
            identity(QQ, h.total.dim))
        report = check_hopf_algebroid(broken)
        fails = [f for f in report.failures if f.law == "antipode left composite"]
        assert any(1 in f.witness for f in fails)   # basis element 1 (x) x

    def test_group_algebra_as_algebroid_valid(self):
        for field in (QQ, F3):
            w = group_algebra(cyclic_group(2), field)
            assert check_hopf_algebroid(hopf_algebra_as_algebroid(w)).ok()

    def test_validation_and_relations_are_stored(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        for fn in (check_hopf_algebroid, circ_relations, bullet_relations,
                   ideal_subspace):
            assert fn(h) is fn(h)

    def test_invalid_presentation_raises_on_every_call(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift, h.counit,
            identity(QQ, h.total.dim))
        for _ in range(2):
            with pytest.raises(InvalidPresentationError):
                solve_integral_hgd(broken, "left")

    def test_mutated_counit_reported(self):
        h = pair_hopf_algebroid(split_pair_algebra(QQ))
        ent = list(h.counit.entries)
        ent[0] = QQ.coerce(5)
        broken = HopfAlgebroidPresentation(
            h.base, h.total, h.src, h.tgt, h.comult_lift,
            Matrix(QQ, h.counit.rows, h.counit.cols, tuple(ent)), h.antipode)
        assert not check_hopf_algebroid(broken).ok()


class TestQuotients:
    def test_trivial_base(self):
        h = pair_hopf_algebroid(ground_field_algebra(QQ))
        assert tensor_over_R(h, CIRC).dim == 1
        assert tensor_over_R(h, BULLET).dim == 1
        assert ideal_subspace(h).dim == 0

    def test_dual_number_dimensions(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        assert tensor_over_R(h, CIRC).dim == 8      # dim R^3
        assert tensor_over_R(h, BULLET).dim == 4    # A (x)_A A = A
        assert ideal_subspace(h).dim == 2

    def test_base_k_ideal_is_zero(self):
        w = group_algebra(cyclic_group(3), QQ)
        assert ideal_subspace(hopf_algebra_as_algebroid(w)).dim == 0

    def test_bad_product_name(self):
        h = pair_hopf_algebroid(ground_field_algebra(QQ))
        with pytest.raises(ValueError):
            tensor_over_R(h, "star")

    def test_each_quotient_is_built_once_per_presentation(self, monkeypatch):
        # the circ, bullet and ideal quotients are stored on the presentation:
        # the report's two integrals share one ideal quotient, and validation
        # and coseparability share one circ quotient
        built = []

        def counted(ambient_dim, relations):
            built.append(ambient_dim)
            return quotient_space(ambient_dim, relations)

        monkeypatch.setattr(hopfalgd, "quotient_space", counted)
        h = pair_hopf_algebroid(split_pair_algebra(QQ))
        assert maschke_report(h).verdict
        assert sorted(built) == [4, 16, 16]
        assert tensor_over_R(h, CIRC) is tensor_over_R(h, CIRC)
        assert tensor_over_R(h, BULLET) is tensor_over_R(h, BULLET)
        assert maschke_report(h).verdict
        assert len(built) == 3

    def test_ideal_is_two_sided(self):
        for mk in (dual_number_algebra, split_pair_algebra):
            h = pair_hopf_algebroid(mk(QQ))
            ideal = ideal_subspace(h)
            n = h.total.dim
            for i in range(ideal.dim):
                v = ideal.basis.row(i)
                for k in range(n):
                    e = unit_vec(QQ, n, k)
                    assert membership(mult_vec(h.total, e, v), ideal)
                    assert membership(mult_vec(h.total, v, e), ideal)


class TestIntegrals:
    def test_unit_element_is_left_integral_of_pair_algebroid(self):
        for field in (QQ, F2):
            for mk in BASES:
                h = pair_hopf_algebroid(mk(field))
                one = tuple(h.total.unit)
                assert integral_system_hgd(h, "left", True).satisfied_by(one)
                sol = solve_integral_hgd(h, "left")
                assert sol is not None

    def test_integral_membership_verified(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        sol = solve_integral_hgd(h, "left")
        ideal = ideal_subspace(h)
        n = h.total.dim
        for i in range(n):
            e = unit_vec(QQ, n, i)
            lhs = mult_vec(h.total, e, sol.element)
            rhs = mult_vec(h.total, apply(h.src, apply(h.counit, e)), sol.element)
            assert membership(vec_sub(QQ, lhs, rhs), ideal)

    def test_group_algebra_reduction(self):
        h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), QQ))
        sol = solve_integral_hgd(h, "left")
        third = Fraction(1, 3)
        assert sol.element == (third, third, third)
        assert solve_integral_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), F3)),
            "left") is None


class TestCointegrals:
    def test_group_algebra_counit_dual(self):
        for field in (QQ, F2):
            h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
            sol = solve_cointegral_hgd(h, "left")
            assert sol is not None
            assert to_rows(sol.map) == [[1, 0]]    # delta_e

    def test_dual_group_algebra_obstruction(self):
        h = hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), F3))
        assert solve_cointegral_hgd(h, "left") is None
        assert solve_cointegral_hgd(h, "right") is None

    def test_pair_algebroid_split_functional_certificate(self):
        # nu(x (x) y) = x phi(y) with phi the coefficient of the unit entry;
        # a normalized left cointegral for every commutative base
        from maschke_kit.hopfalgd import cointegral_system_hgd
        for mk in BASES:
            h = pair_hopf_algebroid(mk(QQ))
            d = h.base.dim
            n = h.total.dim
            f = h.field
            ent = [f.zero()] * (d * n)
            for a in range(d):
                for b in range(d):
                    # phi picks the coefficient of 1 in the second leg
                    if b == 0:
                        for r in range(d):
                            ent[r * n + (a * d + b)] = f.one() if r == a else f.zero()
            cand = tuple(ent)
            assert cointegral_system_hgd(h, "left", True).satisfied_by(cand)


class TestSeparability:
    def test_matches_kron_chain_system(self):
        cases = []
        for field in (QQ, F3, F5):
            for mk in BASES:
                h = pair_hopf_algebroid(mk(field))
                cases.append(h)
                if mk is not ground_field_algebra:
                    cases += [perturbed_lift(h, trial) for trial in range(3)]
        # a noncommutative total algebra, 2x2 matrices, with structure constants
        # not 0 and 1; only the two systems are compared, so it need not be valid
        for field in (QQ, F5):
            w = rebased(groupoid_algebra(pair_groupoid(2), field), 1)
            cases.append(hopf_algebra_as_algebroid(w))
        cases.append(hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), F2)))
        for h in cases:
            q = tensor_over_R(h, BULLET)
            assert_element_system_agrees(h, q, kron_separability_system_hgd(h, q))
        assert separability_system_hgd(cases[-1], tensor_over_R(cases[-1], BULLET)) \
            .solve() is None

    def test_matches_section_system(self):
        # group and dual group algebras over k, 2x2 matrices with structure
        # constants not 0 and 1 (not a Hopf algebroid: only the systems are
        # compared), and pair algebroids with perturbed lifts
        feasible = infeasible = 0
        for field in (QQ, F2, F3, F5):
            cases = [hopf_algebra_as_algebroid(w) for w in (
                group_algebra(cyclic_group(2), field),
                group_algebra(cyclic_group(3), field),
                dual_group_algebra(cyclic_group(3), field),
                group_algebra(symmetric_group_s3(), field),
                rebased(groupoid_algebra(pair_groupoid(2), field), 1))]
            for mk in (dual_number_algebra, split_pair_algebra):
                h = pair_hopf_algebroid(mk(field))
                cases += [h] + [perturbed_lift(h, trial) for trial in range(3)]
            for h in cases:
                q = tensor_over_R(h, BULLET)
                ok = assert_element_system_agrees(h, q,
                                                  oracle_separability_system_hgd(h, q))
                feasible += ok
                infeasible += not ok
                if check_hopf_algebroid(h).ok():
                    section = solve_separability_hgd(h)
                    assert (section is None) == (not ok)
                    if ok:
                        assert section.map == dense_section(
                            h, q, separability_system_hgd(h, q).solve().particular)
        assert feasible and infeasible

    def test_element_that_does_not_commute_raises(self, monkeypatch):
        # the rows mu(e) = 1 alone: their particular solution 1 (x) 1 in
        # kC2 (x) kC2 multiplies to the unit but is no separability element
        def unit_rows_only(h, q):
            sys = ConstraintSystem(h.field, q.dim)
            add_matrix_rows(sys, mult_matrix(h.total) @ section(q), h.total.unit)
            return sys

        monkeypatch.setattr(hopfalgd, "separability_system_hgd", unit_rows_only)
        with pytest.raises(ArithmeticError, match="commute"):
            solve_separability_hgd(
                hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), QQ)))

    def test_generator_rows_solve_like_all_rows(self):
        # source and target are central, so the bullet quotient is a bimodule
        # over the total algebra and the rows of its generators have the
        # solution set of the rows of every basis element: the same particular
        # solution and kernel basis
        cases = 0
        for field in (QQ, F2, F3, F5):
            for mk in BASES:
                h = pair_hopf_algebroid(mk(field))
                lifts = [] if mk is ground_field_algebra else \
                    [perturbed_lift(h, trial) for trial in range(2)]
                for g in [h, *lifts]:
                    assert generated_dim(g.total, _generators(g.total)) == g.total.dim
                    q = tensor_over_R(g, BULLET)
                    reduced = separability_system_hgd(g, q)
                    full = _balanced_system(g.field, q.dim, *hopfalgd._bullet_terms(g, q))
                    assert len(reduced.rows) <= len(full.rows)
                    assert reduced.solve() == full.solve() is not None
                    cases += 1
        assert cases == 4 * 7

    def test_pair_algebroid_always_separable_over_bullet(self):
        # includes the non-semisimple total algebra over the dual numbers
        for field in (QQ, F2):
            for mk in BASES:
                assert solve_separability_hgd(pair_hopf_algebroid(mk(field))) is not None

    def test_plain_algebra_separability_can_fail_while_bullet_succeeds(self):
        from maschke_kit.finalg import solve_separability
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        assert solve_separability(h.total) is None       # nilpotents in A
        assert solve_separability_hgd(h) is not None     # but A (x)_{R(x)R} A splits

    def test_group_algebra_reduction(self):
        assert solve_separability_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), F2))) is None
        assert solve_separability_hgd(
            hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), QQ))) is not None


class TestCoseparability:
    def test_group_algebra_reduction(self):
        for field in (QQ, F2):
            h = hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
            assert solve_coseparability_hgd(h) is not None

    def test_dual_group_algebra_obstruction(self):
        h = hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), F3))
        assert solve_coseparability_hgd(h) is None


def corpus():
    for field in (QQ, F2):
        for mk in BASES:
            yield pair_hopf_algebroid(mk(field))
    for field in (QQ, F2, F3):
        yield hopf_algebra_as_algebroid(group_algebra(cyclic_group(2), field))
        yield hopf_algebra_as_algebroid(group_algebra(cyclic_group(3), field))
        yield hopf_algebra_as_algebroid(dual_group_algebra(cyclic_group(3), field))


class TestEquivalences:
    def test_integral_sides_match_separability(self):
        for h in corpus():
            left = solve_integral_hgd(h, "left") is not None
            right = solve_integral_hgd(h, "right") is not None
            sep = solve_separability_hgd(h) is not None
            assert left == right == sep

    def test_cointegral_sides_match_coseparability(self):
        for h in corpus():
            left = solve_cointegral_hgd(h, "left") is not None
            right = solve_cointegral_hgd(h, "right") is not None
            cosep = solve_coseparability_hgd(h) is not None
            assert left == right == cosep


class TestCrossModuleAgreement:
    def test_base_k_algebroid_matches_weak_hopf_solvers(self):
        from maschke_kit.finalg import solve_coseparability, solve_separability
        from maschke_kit.weakhopf import solve_cointegral, solve_integral
        cases = [w for field in (QQ, F2, F3)
                 for w in (group_algebra(cyclic_group(2), field),
                           group_algebra(cyclic_group(3), field),
                           dual_group_algebra(cyclic_group(3), field))]
        cases.append(dual_group_algebra(cyclic_group(12), F5))
        for w in cases:
            h = hopf_algebra_as_algebroid(w)
            assert (solve_integral_hgd(h, "left") is not None) == \
                (solve_integral(w, "left", "primed") is not None)
            assert (solve_cointegral_hgd(h, "left") is not None) == \
                (solve_cointegral(w, "left", "primed") is not None)
            assert (solve_separability_hgd(h) is not None) == \
                (solve_separability(w.algebra) is not None)
            # over k the functional gamma is the coalgebra's sigma
            retraction, want = solve_coseparability_hgd(h), solve_coseparability(w.coalgebra)
            assert (retraction is None) == (want is None)
            assert want is None or retraction.map == want.map
        # k^C12 over F5: the functional has dimR x q.dim = 1 x 144 unknowns
        assert coseparability_system_hgd(h, tensor_over_R(h, CIRC)).nvars == 144


class TestLiftIndependence:
    def test_relation_perturbations_change_nothing(self):
        h = pair_hopf_algebroid(dual_number_algebra(QQ))
        baseline = (
            check_hopf_algebroid(h).ok(),
            solve_integral_hgd(h, "left") is not None,
            solve_cointegral_hgd(h, "left") is not None,
            solve_cointegral_hgd(h, "right") is not None,
            solve_coseparability_hgd(h) is not None,
        )
        assert baseline[0]
        for trial in range(3):
            perturbed = perturbed_lift(h, trial)
            assert (
                check_hopf_algebroid(perturbed).ok(),
                solve_integral_hgd(perturbed, "left") is not None,
                solve_cointegral_hgd(perturbed, "left") is not None,
                solve_cointegral_hgd(perturbed, "right") is not None,
                solve_coseparability_hgd(perturbed) is not None,
            ) == baseline


class TestMaschkeReport:
    def test_pair_algebroids_pass(self):
        for field in (QQ, F2):
            for mk in BASES:
                rep = maschke_report(pair_hopf_algebroid(mk(field)))
                assert rep.verdict
                assert set(rep.integral_flags) == {"left", "right"}

    def test_requires_antipode(self):
        h = pair_hopf_algebroid(split_pair_algebra(QQ))
        bare = HopfAlgebroidPresentation(h.base, h.total, h.src, h.tgt,
                                         h.comult_lift, h.counit, None)
        with pytest.raises(ValueError, match="antipode"):
            maschke_report(bare)
