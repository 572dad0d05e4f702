"""Weak bialgebras and weak Hopf algebras by structure constants.

A presentation couples an algebra and a coalgebra on the same basis, with an
optional antipode matrix.  The module validates the weakened compatibility
axioms (the comultiplication need not preserve the unit, the counit need not
be multiplicative), computes the four idempotent projections cutting out the
base algebra and its commutant, certifies the Frobenius-separability
structure of the base, and solves the normalized (co)integral conditions as
exact affine systems.

Sides are "left"/"right"; the variant is "primed" (plain module conditions)
or "duoidal" (primed plus one extra condition quantified over the base).
"""

from __future__ import annotations


from .exactlin import (
    ConstraintSystem,
    FieldSpec,
    Frozen,
    Matrix,
    Subspace,
    Tensor3,
    unit_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)
from .finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    CoalgebraPresentation,
    InvalidPresentationError,
    MaschkeReport,
    _balanced_system,
    _comult_by_source,
    _convolution,
    _mult_cols,
    _once,
    _require_antipode,
    _sparse_cols,
    _sparse_products,
    _terms,
    check_algebra,
    check_coalgebra,
    solve_coseparability,
    solve_separability,
)

SIDES = ("left", "right")
VARIANTS = ("primed", "duoidal")


class StructureDefectError(RuntimeError):
    """An identity that must hold for valid input failed; internal inconsistency."""


class WeakHopfPresentation(Frozen):
    algebra: AlgebraPresentation
    coalgebra: CoalgebraPresentation
    antipode: Matrix | None = None

    def __post_init__(self):
        a, c = self.algebra, self.coalgebra
        if a.field != c.field or a.dim != c.dim:
            raise ValueError("algebra and coalgebra must share field and dimension")
        s = self.antipode
        if s is not None and (s.field != a.field or (s.rows, s.cols) != (a.dim, a.dim)):
            raise ValueError("antipode must be a dim x dim matrix over the same field")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


class ProjectionMaps(Frozen):
    """The four idempotents onto the base algebra and its commutant."""

    piR: Matrix
    piR_bar: Matrix
    piL: Matrix
    piL_bar: Matrix


class BaseAlgebraInfo(Frozen):
    subspace: Subspace
    induced_mult: Tensor3
    frobenius_element: tuple    # in dim^2 coordinates: 1_1 (x) piR(1_2)
    frobenius_functional: tuple  # counit restricted to the base


class IntegralSolution(Frozen):
    side: str
    variant: str
    normalized: bool
    solutions: "AffineSolution"

    @property
    def element(self) -> tuple:
        return self.solutions.particular


class CointegralSolution(Frozen):
    side: str
    variant: str
    normalized: bool
    solutions: "AffineSolution"

    @property
    def functional(self) -> tuple:
        return self.solutions.particular


@_once
def _counit_pairing(w: WeakHopfPresentation) -> tuple:
    """eps2[i][j] = eps(e_i e_j)."""
    f = w.field
    n = w.dim
    eps = w.coalgebra.counit
    eps2 = [[f.zero()] * n for _ in range(n)]
    for i, j, k, t in w.algebra.mult.nonzeros():
        if eps[k] != 0:
            eps2[i][j] = f.add(eps2[i][j], f.mul(t, eps[k]))
    return tuple(tuple(row) for row in eps2)


@_once
def check_weak_bialgebra(w: WeakHopfPresentation) -> AxiomReport:
    """Component axioms plus the three weakened compatibility diagrams."""
    report = check_algebra(w.algebra).merged(check_coalgebra(w.coalgebra))
    if not report.ok():
        return report
    f = w.field
    n = w.dim
    alg, coa = w.algebra, w.coalgebra
    add, mul, sub = f.add, f.mul, f.sub
    zero = f.zero()
    failures = []
    prod = _sparse_products(alg)
    by_source = _comult_by_source(coa)

    # comultiplication is multiplicative: delta(hk) = delta(h) delta(k)
    for i in range(n):
        for j in range(n):
            lhs = [zero] * (n * n)
            for m, t in prod[i][j]:
                for a, b, s in by_source[m]:
                    lhs[a * n + b] = add(lhs[a * n + b], mul(t, s))
            rhs = [zero] * (n * n)
            for a, b, s1 in by_source[i]:
                for c, d, s2 in by_source[j]:
                    s12 = mul(s1, s2)
                    for p, t1 in prod[a][c]:
                        for q, t2 in prod[b][d]:
                            idx = p * n + q
                            rhs[idx] = add(rhs[idx], mul(s12, mul(t1, t2)))
            if lhs != rhs:
                failures.append(AxiomFailure("comultiplicativity", (i, j)))

    # weak unit: (1 (x) mu (x) 1) and (1 (x) mu_op (x) 1) on delta(1) (x) delta(1)
    # both equal the double comultiplication of 1
    u = coa.comult_vec(alg.unit)
    d2 = [zero] * (n ** 3)
    for ab in range(n * n):
        c0 = u[ab]
        if c0 == 0:
            continue
        a, b = divmod(ab, n)
        for p, q, s in by_source[a]:
            idx = (p * n + q) * n + b
            d2[idx] = add(d2[idx], mul(c0, s))
    v_straight = [zero] * (n ** 3)
    v_twisted = [zero] * (n ** 3)
    nz_u = [(divmod(ab, n), c) for ab, c in enumerate(u) if c != 0]
    for (a, b), c1 in nz_u:
        for (c, d), c2 in nz_u:
            c12 = mul(c1, c2)
            for k, t in prod[b][c]:
                idx = (a * n + k) * n + d
                v_straight[idx] = add(v_straight[idx], mul(c12, t))
            for k, t in prod[c][b]:
                idx = (a * n + k) * n + d
                v_twisted[idx] = add(v_twisted[idx], mul(c12, t))
    if v_straight != d2:
        failures.append(AxiomFailure("weak unit (straight)", ()))
    if v_twisted != d2:
        failures.append(AxiomFailure("weak unit (twisted)", ()))

    # weak counit: eps(fgh) = sum eps(f g1) eps(g2 h) = sum eps(f g2) eps(g1 h)
    eps2 = _counit_pairing(w)
    for i in range(n):
        eps2_i = eps2[i]
        for j in range(n):
            for k in range(n):
                lhs = zero
                for m, t in prod[i][j]:
                    if eps2[m][k] != 0:
                        lhs = add(lhs, mul(t, eps2[m][k]))
                straight = zero
                twisted = zero
                for a, b, s in by_source[j]:
                    x, y = eps2_i[a], eps2[b][k]
                    if x != 0 and y != 0:
                        straight = add(straight, mul(s, mul(x, y)))
                    x, y = eps2_i[b], eps2[a][k]
                    if x != 0 and y != 0:
                        twisted = add(twisted, mul(s, mul(x, y)))
                if lhs != straight:
                    failures.append(AxiomFailure("weak counit (straight)", (i, j, k)))
                if lhs != twisted:
                    failures.append(AxiomFailure("weak counit (twisted)", (i, j, k)))
    return report.merged(AxiomReport(tuple(failures)))


def _require_weak_bialgebra(w: WeakHopfPresentation):
    report = check_weak_bialgebra(w)
    if not report.ok():
        raise InvalidPresentationError(report, "weak bialgebra")


@_once
def projections(w: WeakHopfPresentation) -> ProjectionMaps:
    """The four idempotents, as sums over Delta(1) = 1_1 (x) 1_2.

    piR(h) = 1_1 eps(h 1_2), piR_bar(h) = 1_1 eps(1_2 h),
    piL(h) = eps(1_1 h) 1_2, piL_bar(h) = eps(h 1_1) 1_2.
    """
    f = w.field
    n = w.dim
    add, mul = f.add, f.mul
    eps2 = _counit_pairing(w)
    piR, piR_bar, piL, piL_bar = ([f.zero()] * (n * n) for _ in range(4))
    for ab, c in enumerate(w.coalgebra.comult_vec(w.algebra.unit)):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        for h in range(n):
            piR[a * n + h] = add(piR[a * n + h], mul(c, eps2[h][b]))
            piR_bar[a * n + h] = add(piR_bar[a * n + h], mul(c, eps2[b][h]))
            piL[b * n + h] = add(piL[b * n + h], mul(c, eps2[a][h]))
            piL_bar[b * n + h] = add(piL_bar[b * n + h], mul(c, eps2[h][a]))
    maps = ProjectionMaps(*(Matrix(f, n, n, tuple(e))
                            for e in (piR, piR_bar, piL, piL_bar)))
    for name in ("piR", "piR_bar", "piL", "piL_bar"):
        m = getattr(maps, name)
        if any(m.apply(m.col(j)) != m.col(j) for j in range(n)):
            raise StructureDefectError(f"{name} is not idempotent")
    return maps


def _image(field, m: Matrix) -> Subspace:
    return Subspace.from_rows(field, m.rows, [m.col(j) for j in range(m.cols)])


@_once
def base_algebra(w: WeakHopfPresentation) -> BaseAlgebraInfo:
    """Image of piR with its induced multiplication and Frobenius data.

    Verifies the subalgebra, commutation, anti-isomorphism and
    Frobenius-separability identities; any violation on a valid weak
    bialgebra is an internal inconsistency.
    """
    _require_weak_bialgebra(w)
    maps = projections(w)
    f = w.field
    n = w.dim
    alg = w.algebra
    base = _image(f, maps.piR)
    cobase = _image(f, maps.piL)
    if _image(f, maps.piR_bar).basis != base.basis:
        raise StructureDefectError("images of piR and piR_bar differ")
    if _image(f, maps.piL_bar).basis != cobase.basis:
        raise StructureDefectError("images of piL and piL_bar differ")
    if not base.contains(alg.unit):
        raise StructureDefectError("unit escapes the base algebra")
    rows = [base.basis.row(i) for i in range(base.dim)]
    corows = [cobase.basis.row(i) for i in range(cobase.dim)]
    for u in rows:
        for v in rows:
            if not base.contains(alg.mult_vec(u, v)):
                raise StructureDefectError("base not closed under multiplication")
    for x in corows:
        for y in rows:
            if alg.mult_vec(x, y) != alg.mult_vec(y, x):
                raise StructureDefectError("commutant fails to commute with the base")
    # mutually inverse anti-isomorphisms between the two subalgebras
    for y in rows:
        if maps.piR.apply(maps.piL_bar.apply(y)) != y:
            raise StructureDefectError("piR . piL_bar is not the identity on the base")
        if maps.piR_bar.apply(maps.piL.apply(y)) != y:
            raise StructureDefectError("piR_bar . piL is not the identity on the base")
    for x in corows:
        if maps.piL_bar.apply(maps.piR.apply(x)) != x:
            raise StructureDefectError("piL_bar . piR is not the identity on the commutant")
        if maps.piL.apply(maps.piR_bar.apply(x)) != x:
            raise StructureDefectError("piL . piR_bar is not the identity on the commutant")
    for u in rows:
        for v in rows:
            lhs = maps.piL_bar.apply(alg.mult_vec(u, v))
            rhs = alg.mult_vec(maps.piL_bar.apply(v), maps.piL_bar.apply(u))
            if lhs != rhs:
                raise StructureDefectError("piL_bar is not anti-multiplicative on the base")

    # induced multiplication in base coordinates
    d = base.dim
    ent = []
    for u in rows:
        for v in rows:
            coords = base.coords(alg.mult_vec(u, v))
            if coords is None:
                raise StructureDefectError("base product left the base")
            ent.extend(coords)
    induced = Tensor3(f, d, d, d, tuple(ent))

    # Frobenius-separability data of the base: 1_1 (x) piR(1_2) and eps
    u_vec = w.coalgebra.comult_vec(alg.unit)
    fe = [f.zero()] * (n * n)
    for ab, c in enumerate(u_vec):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        col = maps.piR.col(b)
        for k in range(n):
            if col[k] != 0:
                fe[a * n + k] = f.add(fe[a * n + k], f.mul(c, col[k]))
    eps = w.coalgebra.counit
    left = zero_vec(f, n)
    right = zero_vec(f, n)
    for ab, c in enumerate(fe):
        if c == 0:
            continue
        a, b = divmod(ab, n)
        if eps[a] != 0:
            left = vec_add(f, left, vec_scale(f, f.mul(c, eps[a]), unit_vec(f, n, b)))
        if eps[b] != 0:
            right = vec_add(f, right, vec_scale(f, f.mul(c, eps[b]), unit_vec(f, n, a)))
    if left != alg.unit or right != alg.unit:
        raise StructureDefectError("Frobenius functional identity fails on the base")
    return BaseAlgebraInfo(base, induced, tuple(fe), eps)


@_once
def check_antipode(w: WeakHopfPresentation) -> AxiomReport:
    """The three defining antipode axioms; anti-homomorphy as warnings."""
    if w.antipode is None:
        raise ValueError("presentation has no antipode")
    _require_weak_bialgebra(w)
    f = w.field
    n = w.dim
    alg = w.algebra
    s = w.antipode
    coa = w.coalgebra
    maps = projections(w)
    eye = Matrix.identity(f, n)
    mu = alg.mult_matrix()
    failures = []
    left = _convolution(coa.comult, eye, s, mu)
    right = _convolution(coa.comult, s, eye, mu)
    # with (Delta (x) 1) Delta: S(h1) h2 S(h3) = right(h1) S(h2)
    third = _convolution(coa.comult, right, s, mu)
    for law, got, want in (("antipode left diagram", left, maps.piL),
                           ("antipode right diagram", right, maps.piR),
                           ("antipode S(h1) h2 S(h3) = S(h)", third, s)):
        cols = tuple(j for j in range(n) if got.col(j) != want.col(j))
        if cols:
            failures.append(AxiomFailure(law, cols))
    # consequences of the definition, reported but not fatal
    scols = _sparse_cols(s)
    prod = _sparse_products(alg)
    warnings = []
    for i in range(n):
        for j in range(n):
            # S(e_i e_j) = S(e_j) S(e_i)
            lhs = [f.zero()] * n
            for k, t in prod[i][j]:
                for m, v in scols[k]:
                    lhs[m] = f.add(lhs[m], f.mul(t, v))
            if tuple(lhs) != alg.mult_vec(s.col(j), s.col(i)):
                warnings.append(AxiomFailure("antipode anti-multiplicativity", (i, j)))
    if s.apply(alg.unit) != alg.unit:
        warnings.append(AxiomFailure("antipode unit", ()))
    # Delta(S(h)) = S(h2) (x) S(h1)
    flipped = [[f.zero()] * (n * n) for _ in range(n)]
    for i, a, b, t in coa.comult.nonzeros():
        out = flipped[i]
        for p, sp in scols[b]:
            tp = f.mul(t, sp)
            for q, sq in scols[a]:
                out[p * n + q] = f.add(out[p * n + q], f.mul(tp, sq))
    if any(coa.comult_vec(s.col(i)) != tuple(flipped[i]) for i in range(n)):
        warnings.append(AxiomFailure("antipode coalgebra anti-homomorphy", ()))
    if any(_dot(f, coa.counit, s.col(j)) != coa.counit[j] for j in range(n)):
        warnings.append(AxiomFailure("antipode counit", ()))
    return AxiomReport(tuple(failures), tuple(warnings))


# ---------------------------------------------------------------------------
# integrals and cointegrals


def _check_side_variant(side, variant):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def _vector(f: FieldSpec, n: int, terms) -> tuple:
    out = [f.zero()] * n
    for k, t in terms:
        out[k] = t
    return tuple(out)


def integral_system(w: WeakHopfPresentation, side: str, variant: str,
                    normalized: bool) -> ConstraintSystem:
    """Affine system over the dim unknowns of an integral element."""
    _check_side_variant(side, variant)
    f, maps, left = w.field, projections(w), side == "left"
    # left: h t = piL(h) t; right: t h = t piR(h); for all basis h = e_i
    pi_cols = _sparse_cols(maps.piL if left else maps.piR)
    gaps = [(i, [(i, f.one())] + [(m, f.neg(v)) for m, v in col], left)
            for i, col in enumerate(pi_cols)]
    if variant == "duoidal":
        basis = base_algebra(w).subspace.basis
        for i in range(basis.rows):
            x = basis.row(i)
            if left:
                # t piL(x) = t piR_bar(piL_bar(x))
                y = vec_sub(f, maps.piL.apply(x), maps.piR_bar.apply(maps.piL_bar.apply(x)))
            else:
                # piL_bar(x) t = piR(piL(x)) t
                y = vec_sub(f, maps.piL_bar.apply(x), maps.piR.apply(maps.piL.apply(x)))
            gaps.append((("x", i), _terms(y), not left))
    prod = _sparse_products(w.algebra)
    # coordinate k of u t (u_first) or t u, for u the gap and t = e_j
    products = ((0, g, k, j, v) for g, terms, u_first in gaps
                for j, col in enumerate(_mult_cols(f, prod, terms, u_first))
                for k, v in col.items())
    norm, rhs = ((maps.piR_bar if left else maps.piR).nonzeros(), w.algebra.unit) \
        if normalized else ((), ())
    return _balanced_system(f, w.dim, norm, rhs, products)


def solve_integral(w: WeakHopfPresentation, side: str, variant: str = "primed",
                   normalized: bool = True):
    """IntegralSolution carrying particular element and solution space, or None.

    Solved once per presentation and arguments; later calls return the same
    record.
    """
    _check_side_variant(side, variant)
    return _integral_solution(w, side, variant, bool(normalized))


@_once
def _integral_solution(w: WeakHopfPresentation, side: str, variant: str,
                       normalized: bool):
    _require_weak_bialgebra(w)
    sol = integral_system(w, side, variant, normalized).solve()
    if sol is None:
        return None
    return IntegralSolution(side, variant, normalized, sol)


def cointegral_system(w: WeakHopfPresentation, side: str, variant: str,
                      normalized: bool) -> ConstraintSystem:
    """Affine system over the dim unknowns of a cointegral functional."""
    _check_side_variant(side, variant)
    f, maps, left = w.field, projections(w), side == "left"
    pi_cols = _sparse_cols(maps.piL if left else maps.piR)

    def products():
        # left: h1 tau(h2) = piL(h1) tau(h2); right: tau(h1) h2 = tau(h1) piR(h2)
        for i, terms in enumerate(_comult_by_source(w.coalgebra)):
            for a, b, t in terms:
                if not left:
                    a, b = b, a
                yield 0, i, a, b, t
                for m, v in pi_cols[a]:
                    yield 1, i, m, b, f.mul(t, v)
        if variant == "duoidal":
            basis, prod = base_algebra(w).subspace.basis, _sparse_products(w.algebra)
            for i in range(basis.rows):
                x = basis.row(i)
                # left: tau(x h) = tau(h piR(piL(x)))
                # right: tau(h piL_bar(x)) = tau(piL(x) h)
                u, v = (x, maps.piR.apply(maps.piL.apply(x))) if left else \
                    (maps.piL_bar.apply(x), maps.piL.apply(x))
                # u e_j against e_j v (left) or e_j u against v e_j (right), at g = (i, j)
                for s, y, u_first in ((0, u, left), (1, v, not left)):
                    for j, col in enumerate(_mult_cols(f, prod, _terms(y), u_first)):
                        for k, c in col.items():
                            yield s, (i, j), 0, k, c

    # tau . piL = eps (left), tau . piR = eps (right)
    norm, rhs = ([(j, a, v) for j, col in enumerate(pi_cols) for a, v in col],
                 w.coalgebra.counit) if normalized else ((), ())
    return _balanced_system(f, w.dim, norm, rhs, products())


def solve_cointegral(w: WeakHopfPresentation, side: str, variant: str = "primed",
                     normalized: bool = True):
    """CointegralSolution with the functional as a covector, or None.

    Solved once per presentation and arguments; later calls return the same
    record.
    """
    _check_side_variant(side, variant)
    return _cointegral_solution(w, side, variant, bool(normalized))


@_once
def _cointegral_solution(w: WeakHopfPresentation, side: str, variant: str,
                         normalized: bool):
    _require_weak_bialgebra(w)
    sol = cointegral_system(w, side, variant, normalized).solve()
    if sol is None:
        return None
    return CointegralSolution(side, variant, normalized, sol)


def _dot(f, u, v):
    acc = f.zero()
    for a, b in zip(u, v, strict=True):
        if a != 0 and b != 0:
            acc = f.add(acc, f.mul(a, b))
    return acc


def _solves(w: WeakHopfPresentation, x: tuple, solve, system, side: str,
            variant: str) -> bool:
    """True iff x solves the normalized system(w, side, variant, True).

    The test is membership in the stored, certified solution set of
    solve(w, side, variant, True): x minus the particular solution lies in
    the kernel.  On a miss the rows are rebuilt once to confirm it, and rows
    that accept x mean the eliminator missed a solution.
    """
    if len(x) != w.dim:
        raise ValueError("candidate length mismatch")
    solution = solve(w, side, variant, True)
    if solution is not None:
        s = solution.solutions
        if s.homogeneous.contains(vec_sub(w.field, x, s.particular)):
            return True
    if system(w, side, variant, True).satisfied_by(x):
        raise ArithmeticError("eliminator missed a solution")
    return False


def convert_integral(w: WeakHopfPresentation, t_prime, side: str) -> tuple:
    """Upgrade a primed normalized integral to a duoidal one.

    Left: t = t' 1_1 piL(piR(1_2)); right: t = piR(piL(1_1)) 1_2 t'.
    The input must lie in the stored primed solution set and the output in
    the stored duoidal one; both sets are certified against every row of
    their systems.
    """
    _require_weak_bialgebra(w)
    f = w.field
    n = w.dim
    alg = w.algebra
    maps = projections(w)
    t_prime = tuple(f.coerce(x) for x in t_prime)
    if not _solves(w, t_prime, solve_integral, integral_system, side, "primed"):
        raise ValueError("input fails the primed integral conditions")
    u = w.coalgebra.comult_vec(alg.unit)
    # t' e_a (left) or e_b t' (right), for every basis index
    t_cols = [_vector(f, n, col.items()) for col in
              _mult_cols(f, _sparse_products(alg), _terms(t_prime), side == "left")]
    out = zero_vec(f, n)
    if side == "left":
        comp = maps.piL @ maps.piR
        for ab, c in enumerate(u):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            term = alg.mult_vec(t_cols[a], comp.col(b))
            out = vec_add(f, out, vec_scale(f, c, term))
    else:
        comp = maps.piR @ maps.piL
        for ab, c in enumerate(u):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            # (comp(e_a) e_b) t' = comp(e_a) (e_b t')
            term = alg.mult_vec(comp.col(a), t_cols[b])
            out = vec_add(f, out, vec_scale(f, c, term))
    if not _solves(w, out, solve_integral, integral_system, side, "duoidal"):
        raise StructureDefectError("converted integral fails the duoidal conditions")
    return out


def convert_cointegral(w: WeakHopfPresentation, tau_prime, side: str) -> tuple:
    """Upgrade a primed normalized cointegral to a duoidal one.

    Left: tau(h) = tau'(1_1 h piR(1_2)); right: tau(h) = tau'(piL(1_1) h 1_2);
    the argument slot sits between the two unit legs.  The input must lie in
    the stored primed solution set and the output in the stored duoidal one,
    both certified against every row of their systems, so a wrong slot
    reading raises instead of passing silently.
    """
    _require_weak_bialgebra(w)
    f = w.field
    n = w.dim
    alg = w.algebra
    maps = projections(w)
    tau_prime = tuple(f.coerce(x) for x in tau_prime)
    if not _solves(w, tau_prime, solve_cointegral, cointegral_system, side, "primed"):
        raise ValueError("input fails the primed cointegral conditions")
    u = w.coalgebra.comult_vec(alg.unit)
    prod = _sparse_products(alg)
    out = []
    for j in range(n):
        acc = f.zero()
        for ab, c in enumerate(u):
            if c == 0:
                continue
            a, b = divmod(ab, n)
            if side == "left":
                vec = alg.mult_vec(_vector(f, n, prod[a][j]), maps.piR.col(b))
            else:
                # (piL(e_a) e_j) e_b = piL(e_a) (e_j e_b)
                vec = alg.mult_vec(maps.piL.col(a), _vector(f, n, prod[j][b]))
            acc = f.add(acc, f.mul(c, _dot(f, tau_prime, vec)))
        out.append(acc)
    out = tuple(out)
    if not _solves(w, out, solve_cointegral, cointegral_system, side, "duoidal"):
        raise StructureDefectError("converted cointegral fails the duoidal conditions")
    return out


def maschke_report(w: WeakHopfPresentation) -> MaschkeReport:
    """Run every solver and assert the two equivalence families."""
    _require_antipode(w)
    report = check_antipode(w)   # also validates the weak bialgebra
    if not report.ok():
        raise InvalidPresentationError(report, "weak Hopf algebra")
    integrals = {}
    cointegrals = {}
    for side in SIDES:
        for variant in VARIANTS:
            integrals[(side, variant)] = solve_integral(w, side, variant, True)
            cointegrals[(side, variant)] = solve_cointegral(w, side, variant, True)
    return MaschkeReport(
        integrals,
        cointegrals,
        solve_separability(w.algebra),
        solve_coseparability(w.coalgebra),
    )
