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

import itertools

from .exactlin import (
    ConstraintSystem,
    FieldSpec,
    Frozen,
    Matrix,
    Subspace,
    Tensor3,
    _row_space,
    vec_sub,
)
from .finalg import (
    AlgebraPresentation,
    AxiomFailure,
    AxiomReport,
    CoalgebraPresentation,
    MaschkeReport,
    StructureDefectError,
    _apply_sparse,
    _balanced_system,
    _by_leg,
    _comult_by_leg,
    _comult_by_source,
    _comult_products,
    _comult_sum,
    _convolution,
    _dot,
    _mult_cols,
    _nonzero_rows,
    _once,
    _product,
    _require_antipode,
    _sparse_products,
    _terms,
    _vector,
    check_algebra,
    check_coalgebra,
    solve_coseparability,
    solve_separability,
)

SIDES = ("left", "right")
VARIANTS = ("primed", "duoidal")


class WeakHopfPresentation(Frozen):
    algebra: AlgebraPresentation
    coalgebra: CoalgebraPresentation
    antipode: Matrix | None = None

    FILE_KIND = "weakhopf"   # the kind tag of its structure file

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
    """(rows, cols): rows[x] = ((h, eps(e_x e_h)), ...) and cols[x] = ((h,
    eps(e_h e_x)), ...) over the nonzero values."""
    eps = w.coalgebra.counit
    pairing = [[_dot(w.field, eps, terms) for terms in row]
               for row in _sparse_products(w.algebra)]
    return tuple(tuple(_terms(v)) for v in pairing), \
        tuple(tuple(_terms(v)) for v in zip(*pairing))


@_once
def _unit_comult(w: WeakHopfPresentation) -> tuple:
    """((a, b, c), ...): the nonzero terms c e_a (x) e_b of Delta(1)."""
    u = _comult_sum(w.field, _comult_by_source(w.coalgebra), _terms(w.algebra.unit))
    return tuple((*divmod(ab, w.dim), c) for ab, c in u.items())


@_once
def check_weak_bialgebra(w: WeakHopfPresentation) -> AxiomReport:
    """Component axioms plus the three weakened compatibility diagrams.

    Each sum runs over nonzero terms only: the products e_a e_c that do not
    vanish, the terms of Delta(e_j) by source or grouped by its first leg,
    and the nonzero entries of eps(e_i e_j).  Both sides of every law are
    raw int or Fraction sums, reduced only when the raw sums differ.
    """
    report = check_algebra(w.algebra).merged(check_coalgebra(w.coalgebra))
    if not report.ok():
        return report
    f, n = w.field, w.dim
    alg, coa = w.algebra, w.coalgebra
    reduce = f.reduce
    failures = []
    prod = _sparse_products(alg)
    by_source = _comult_by_source(coa)
    # right[a] = ((c, terms of e_a e_c), ...) and left[b] = ((c, terms of
    # e_c e_b), ...) over the nonzero products
    right = _nonzero_rows(prod)
    left = _nonzero_rows(zip(*prod))
    # Delta(e_j) = sum e_a (x) e_b grouped by its first leg
    by_first = _comult_by_leg(coa)

    # comultiplication is multiplicative: delta(hk) = delta(h) delta(k)
    for i, j, lhs, rhs in _comult_products(by_source, by_first, prod, right, by_source, n):
        if lhs != rhs and list(map(reduce, lhs)) != list(map(reduce, rhs)):
            failures.append(AxiomFailure("comultiplicativity", (i, j)))

    # weak unit: (1 (x) mu (x) 1) and (1 (x) mu_op (x) 1) on delta(1) (x) delta(1)
    # both equal the double comultiplication of 1
    nz_u = _unit_comult(w)
    d2 = [0] * (n ** 3)
    for a, b, c0 in nz_u:
        for p, q, s in by_source[a]:
            d2[(p * n + q) * n + b] += c0 * s
    v_straight = [0] * (n ** 3)
    v_twisted = [0] * (n ** 3)
    u_first = _by_leg((nz_u,), n)[0]
    for a, b, c1 in nz_u:
        for v, sides in ((v_straight, right[b]), (v_twisted, left[b])):
            for c, terms in sides:
                cd = u_first[c]
                for k, t in terms:
                    c1t = c1 * t
                    base = (a * n + k) * n
                    for d, c2 in cd:
                        v[base + d] += c1t * c2
    for law, v in (("weak unit (straight)", v_straight), ("weak unit (twisted)", v_twisted)):
        if v != d2 and list(map(reduce, v)) != list(map(reduce, d2)):
            failures.append(AxiomFailure(law, ()))

    # weak counit: eps(fgh) = sum eps(f g1) eps(g2 h) = sum eps(f g2) eps(g1 h),
    # at (i * n + j) * n + k for f, g, h = e_i, e_j, e_k: lhs over the nonzero
    # products e_i e_j; the straight side over the terms e_a (x) e_b of Delta(e_j)
    # with eps(e_i e_a) eps(e_b e_k), the twisted side with eps(e_i e_b) eps(e_a e_k)
    rows, cols = _counit_pairing(w)
    lhs, straight, twisted = ([0] * (n ** 3) for _ in range(3))
    for i, products in enumerate(right):
        for j, terms in products:
            base = (i * n + j) * n
            for m, t in terms:
                for k, y in rows[m]:
                    lhs[base + k] += t * y
    for j, terms in enumerate(by_source):
        for a, b, s in terms:
            for side, first, second in ((straight, a, b), (twisted, b, a)):
                for i, x in cols[first]:
                    base, xs = (i * n + j) * n, x * s
                    for k, y in rows[second]:
                        side[base + k] += xs * y
    if lhs != straight or lhs != twisted:
        lhs, straight, twisted = (list(map(reduce, v)) for v in (lhs, straight, twisted))
        for idx, value in enumerate(lhs):
            ijk = (idx // (n * n), idx // n % n, idx % n)
            if value != straight[idx]:
                failures.append(AxiomFailure("weak counit (straight)", ijk))
            if value != twisted[idx]:
                failures.append(AxiomFailure("weak counit (twisted)", ijk))
    return report.merged(AxiomReport(tuple(failures)))


@_once
def projections(w: WeakHopfPresentation) -> ProjectionMaps:
    """The four idempotents, as sums over Delta(1) = 1_1 (x) 1_2.

    piR(h) = 1_1 eps(h 1_2), piR_bar(h) = 1_1 eps(1_2 h),
    piL(h) = eps(1_1 h) 1_2, piL_bar(h) = eps(h 1_1) 1_2.
    """
    f = w.field
    n = w.dim
    reduce = f.reduce
    rows, cols = _counit_pairing(w)
    piR, piR_bar, piL, piL_bar = ([f.zero()] * (n * n) for _ in range(4))
    for a, b, c in _unit_comult(w):
        for out, base, terms in ((piR, a * n, cols[b]), (piR_bar, a * n, rows[b]),
                                 (piL, b * n, rows[a]), (piL_bar, b * n, cols[a])):
            for h, v in terms:
                out[base + h] = reduce(out[base + h] + c * v)
    maps = ProjectionMaps(*(Matrix(f, n, n, tuple(e))
                            for e in (piR, piR_bar, piL, piL_bar)))
    for name in ProjectionMaps._fields:
        cols = getattr(maps, name).columns()
        if any(_apply_sparse(f, cols, col) != dict(col) for col in cols):
            raise StructureDefectError(f"{name} is not idempotent")
    return maps


@_once
def base_algebra(w: WeakHopfPresentation) -> BaseAlgebraInfo:
    """Image of piR with its induced multiplication and Frobenius data.

    Verifies the subalgebra, commutation, anti-isomorphism and
    Frobenius-separability identities; any violation on a valid weak
    bialgebra is an internal inconsistency.  Every map is read from the
    sparse columns of the projections and the product table.
    """
    check_weak_bialgebra(w).require("weak bialgebra")
    maps = projections(w)
    f = w.field
    n = w.dim
    unit = w.algebra.unit
    prod = _sparse_products(w.algebra)

    def pi(m, terms):
        return _apply_sparse(f, m.columns(), terms)

    base, base_bar, cobase, cobase_bar = (_row_space(f, n, map(dict, m.columns()))
                                          for m in (maps.piR, maps.piR_bar,
                                                    maps.piL, maps.piL_bar))
    if base_bar != base:
        raise StructureDefectError("images of piR and piR_bar differ")
    if cobase_bar != cobase:
        raise StructureDefectError("images of piL and piL_bar differ")
    if not base.contains(unit):
        raise StructureDefectError("unit escapes the base algebra")
    rows, corows = base.row_terms, cobase.row_terms
    products = [[_product(f, prod, u, v) for v in rows] for u in rows]
    # the induced multiplication in base coordinates
    coords = [base.coords(_vector(f, n, uv.items())) for row in products for uv in row]
    if None in coords:
        raise StructureDefectError("base not closed under multiplication")
    for x in corows:
        for y in rows:
            if _product(f, prod, x, y) != _product(f, prod, y, x):
                raise StructureDefectError("commutant fails to commute with the base")
    # mutually inverse anti-isomorphisms between the two subalgebras
    for y in rows:
        if pi(maps.piR, pi(maps.piL_bar, y).items()) != dict(y):
            raise StructureDefectError("piR . piL_bar is not the identity on the base")
        if pi(maps.piR_bar, pi(maps.piL, y).items()) != dict(y):
            raise StructureDefectError("piR_bar . piL is not the identity on the base")
    for x in corows:
        if pi(maps.piL_bar, pi(maps.piR, x).items()) != dict(x):
            raise StructureDefectError("piL_bar . piR is not the identity on the commutant")
        if pi(maps.piL, pi(maps.piR_bar, x).items()) != dict(x):
            raise StructureDefectError("piL . piR_bar is not the identity on the commutant")
    bar = [list(pi(maps.piL_bar, y).items()) for y in rows]
    for u, row in enumerate(products):
        for v, uv in enumerate(row):
            if pi(maps.piL_bar, uv.items()) != _product(f, prod, bar[v], bar[u]):
                raise StructureDefectError("piL_bar is not anti-multiplicative on the base")
    d = base.dim
    induced = Tensor3(f, d, d, d, tuple(itertools.chain.from_iterable(coords)))

    # Frobenius-separability data of the base: 1_1 (x) piR(1_2) and eps
    reduce = f.reduce
    fe = [f.zero()] * (n * n)
    for a, b, c in _unit_comult(w):
        for k, v in maps.piR.columns()[b]:
            fe[a * n + k] = reduce(fe[a * n + k] + c * v)
    eps = w.coalgebra.counit
    left, right = [f.zero()] * n, [f.zero()] * n
    for ab, c in enumerate(fe):
        if c != 0:
            a, b = divmod(ab, n)
            left[b] = reduce(left[b] + c * eps[a])
            right[a] = reduce(right[a] + c * eps[b])
    if tuple(left) != unit or tuple(right) != unit:
        raise StructureDefectError("Frobenius functional identity fails on the base")
    return BaseAlgebraInfo(base, induced, tuple(fe), eps)


@_once
def check_antipode(w: WeakHopfPresentation) -> AxiomReport:
    """The three defining antipode axioms; anti-homomorphy as warnings."""
    if w.antipode is None:
        raise ValueError("presentation has no antipode")
    check_weak_bialgebra(w).require("weak bialgebra")
    f = w.field
    n = w.dim
    alg = w.algebra
    s = w.antipode
    coa = w.coalgebra
    maps = projections(w)
    scols = s.columns()
    prod, delta = _sparse_products(alg), _comult_by_source(coa)
    failures = []
    left = _convolution(f, delta, None, scols, prod)
    right = _convolution(f, delta, scols, None, prod)
    # with (Delta (x) 1) Delta: S(h1) h2 S(h3) = right(h1) S(h2)
    third = _convolution(f, delta, [col.items() for col in right], scols, prod)
    for law, got, want in (("antipode left diagram", left, maps.piL.columns()),
                           ("antipode right diagram", right, maps.piR.columns()),
                           ("antipode S(h1) h2 S(h3) = S(h)", third, scols)):
        cols = tuple(j for j in range(n) if got[j] != dict(want[j]))
        if cols:
            failures.append(AxiomFailure(law, cols))
    # consequences of the definition, reported but not fatal
    warnings = []
    for i in range(n):
        for j in range(n):
            # S(e_i e_j) = S(e_j) S(e_i)
            if _apply_sparse(f, scols, prod[i][j]) != _product(f, prod, scols[j], scols[i]):
                warnings.append(AxiomFailure("antipode anti-multiplicativity", (i, j)))
    unit = _terms(alg.unit)
    if _apply_sparse(f, scols, unit) != dict(unit):
        warnings.append(AxiomFailure("antipode unit", ()))
    # Delta(S(h)) = S(h2) (x) S(h1): a convolution into C (x) C whose
    # product is the flip e_p (x) e_q -> e_q (x) e_p
    flip = [[((q * n + p, f.one()),) for q in range(n)] for p in range(n)]
    flipped = _convolution(f, delta, scols, scols, flip)
    if any(_comult_sum(f, delta, scols[i]) != flipped[i] for i in range(n)):
        warnings.append(AxiomFailure("antipode coalgebra anti-homomorphy", ()))
    if any(_dot(f, coa.counit, scols[j]) != coa.counit[j] for j in range(n)):
        warnings.append(AxiomFailure("antipode counit", ()))
    return AxiomReport(tuple(failures), tuple(warnings))


# ---------------------------------------------------------------------------
# integrals and cointegrals


def _check_side_variant(side, variant):
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def _duoidal_products(w: WeakHopfPresentation, kind: str, left: bool):
    """The terms (side, g, out, var, t) of the duoidal (co)integral rows of
    kind beyond the primed ones, one condition per base basis element x."""
    f, maps, prod = w.field, projections(w), _sparse_products(w.algebra)

    def pi(m, terms):
        return list(_apply_sparse(f, m.columns(), terms).items())

    for i, x in enumerate(base_algebra(w).subspace.row_terms):
        if kind == "integral":
            # left: t piL(x) = t piR_bar(piL_bar(x)); right: piL_bar(x) t = piR(piL(x)) t
            u, v = (pi(maps.piL, x), pi(maps.piR_bar, pi(maps.piL_bar, x))) if left else \
                (pi(maps.piL_bar, x), pi(maps.piR, pi(maps.piL, x)))
            sides = ((0, u, not left), (1, v, not left))
        else:
            # left: tau(x h) = tau(h piR(piL(x))); right: tau(h piL_bar(x)) = tau(piL(x) h)
            u, v = (x, pi(maps.piR, pi(maps.piL, x))) if left else \
                (pi(maps.piL_bar, x), pi(maps.piL, x))
            sides = ((0, u, left), (1, v, not left))
        # coordinate k of u e_j (u_first) or e_j u: an integral's row at
        # g = ("x", i), out = k for t = e_j, a cointegral's at g = (i, j) for tau(e_k)
        for side, y, u_first in sides:
            for j, col in enumerate(_mult_cols(f, prod, y, u_first)):
                for k, c in col.items():
                    yield (side, ("x", i), k, j, c) if kind == "integral" else \
                        (side, (i, j), 0, k, c)


def integral_system(w: WeakHopfPresentation, side: str, variant: str,
                    normalized: bool) -> ConstraintSystem:
    """Affine system over the dim unknowns of an integral element."""
    _check_side_variant(side, variant)
    f, maps, left = w.field, projections(w), side == "left"
    # left: h t = piL(h) t; right: t h = t piR(h); for all basis h = e_i
    pi_cols = (maps.piL if left else maps.piR).columns()
    gaps = [(i, [(i, f.one())] + [(m, f.reduce(-v)) for m, v in col])
            for i, col in enumerate(pi_cols)]
    prod = _sparse_products(w.algebra)
    # coordinate k of e_i t - piL(e_i) t (left) or t e_i - t piR(e_i), t = e_j
    products = ((0, g, k, j, v) for g, terms in gaps
                for j, col in enumerate(_mult_cols(f, prod, terms, left))
                for k, v in col.items())
    if variant == "duoidal":
        products = itertools.chain(products, _duoidal_products(w, "integral", left))
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
    return _solved(w, "integral", side, variant, bool(normalized))[1]


@_once
def _solved(w: WeakHopfPresentation, kind: str, side: str, variant: str,
            normalized: bool):
    """(system, IntegralSolution or CointegralSolution, or None) of the
    (co)integral rows of kind.

    The duoidal rows are the primed rows and the rows of one more condition
    over the base, so the duoidal system holds the latter alone and resumes
    the solved primed elimination; after an infeasible primed system nothing
    is built and the system is None.  A stored system is not changed after
    its solve.
    """
    check_weak_bialgebra(w).require("weak bialgebra")
    if variant == "primed":
        system = (integral_system if kind == "integral" else cointegral_system)(
            w, side, variant, normalized)
        sol = system.solve()
    else:
        primed, solution = _solved(w, kind, side, "primed", normalized)
        if solution is None:
            return None, None
        system = _balanced_system(w.field, w.dim, (), (),
                                  _duoidal_products(w, kind, side == "left"))
        sol = system.solve(primed)
    record = IntegralSolution if kind == "integral" else CointegralSolution
    return system, None if sol is None else record(side, variant, normalized, sol)


def cointegral_system(w: WeakHopfPresentation, side: str, variant: str,
                      normalized: bool) -> ConstraintSystem:
    """Affine system over the dim unknowns of a cointegral functional."""
    _check_side_variant(side, variant)
    f, maps, left = w.field, projections(w), side == "left"
    pi_cols = (maps.piL if left else maps.piR).columns()

    def products():
        # left: h1 tau(h2) = piL(h1) tau(h2); right: tau(h1) h2 = tau(h1) piR(h2)
        for i, terms in enumerate(_comult_by_source(w.coalgebra)):
            for a, b, t in terms:
                if not left:
                    a, b = b, a
                yield 0, i, a, b, t
                for m, v in pi_cols[a]:
                    yield 1, i, m, b, f.reduce(t * v)
        if variant == "duoidal":
            yield from _duoidal_products(w, "cointegral", left)

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
    return _solved(w, "cointegral", side, variant, bool(normalized))[1]


def _solves(w: WeakHopfPresentation, x: tuple, kind: str, side: str,
            variant: str) -> bool:
    """True iff x solves the normalized (co)integral rows of kind, side and
    variant.

    The test is membership in the stored, certified solution set of
    _solved(w, kind, side, variant, True): x minus the particular solution
    lies in the kernel.  A miss is confirmed on the rows _solved stored, the
    primed system and, when it is feasible, the duoidal extras: rows that
    accept x mean the eliminator missed a solution.
    """
    if len(x) != w.dim:
        raise ValueError("candidate length mismatch")
    system, solution = _solved(w, kind, side, variant, True)
    if solution is not None:
        s = solution.solutions
        if s.homogeneous.contains(vec_sub(w.field, x, s.particular)):
            return True
    systems = [_solved(w, kind, side, "primed", True)[0]]
    if variant == "duoidal" and system is not None:
        systems.append(system)
    if all(rows.satisfied_by(x) for rows in systems):
        raise ArithmeticError("eliminator missed a solution")
    return False


def convert_integral(w: WeakHopfPresentation, t_prime, side: str) -> tuple:
    """Upgrade a primed normalized integral to a duoidal one.

    Left: t = t' 1_1 piL(piR(1_2)); right: t = piR(piL(1_1)) 1_2 t'.
    The input must lie in the stored primed solution set and the output in
    the stored duoidal one; both sets are certified against every row of
    their systems.
    """
    check_weak_bialgebra(w).require("weak bialgebra")
    f, maps, left = w.field, projections(w), side == "left"
    prod = _sparse_products(w.algebra)
    t_prime = tuple(f.coerce(x) for x in t_prime)
    if not _solves(w, t_prime, "integral", side, "primed"):
        raise ValueError("input fails the primed integral conditions")
    # z = 1_1 piL(piR(1_2)) (left) or piR(piL(1_1)) 1_2 (right), as repeated
    # terms; then t = t' z or z t' by associativity
    inner, outer = (maps.piR, maps.piL) if left else (maps.piL, maps.piR)
    comp = [_apply_sparse(f, outer.columns(), col).items() for col in inner.columns()]
    z = [term for a, b, c in _unit_comult(w) for term in (
        _product(f, prod, [(a, c)], comp[b]) if left else
        _product(f, prod, comp[a], [(b, c)])).items()]
    t = _product(f, prod, _terms(t_prime), z) if left else _product(f, prod, z, _terms(t_prime))
    out = _vector(f, w.dim, t.items())
    if not _solves(w, out, "integral", side, "duoidal"):
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
    check_weak_bialgebra(w).require("weak bialgebra")
    f, maps, left = w.field, projections(w), side == "left"
    pi_cols = (maps.piR if left else maps.piL).columns()
    prod = _sparse_products(w.algebra)
    tau_prime = tuple(f.coerce(x) for x in tau_prime)
    if not _solves(w, tau_prime, "cointegral", side, "primed"):
        raise ValueError("input fails the primed cointegral conditions")
    # table[x][y] holds the terms of e_x e_y (left) or e_y e_x (right), and
    # each term of Delta(1) is (x, u, c): the leg x multiplies the argument,
    # pi (piR left, piL right) is applied to the leg u
    table = prod if left else tuple(zip(*prod))
    unit = [(a, b, c) if left else (b, a, c) for a, b, c in _unit_comult(w)]
    reduce = f.reduce
    # sigma[u][m] = tau'(e_m piR(e_u)) (left) or tau'(piL(e_u) e_m) (right),
    # one covector per leg u; then out[j] = sum c tau'(e_x e_j piR(e_u)) (left)
    # or c tau'(piL(e_u) e_j e_x) (right), each a raw sum reduced once
    sigma = {}
    for _, u, _ in unit:
        if u not in sigma:
            sigma[u] = [reduce(sum(v * s * tau_prime[k] for r, v in pi_cols[u]
                                   for k, s in row[r])) for row in table]
    out = tuple(reduce(sum(c * t * sigma[u][m] for x, u, c in unit
                           for m, t in table[x][j])) for j in range(w.dim))
    if not _solves(w, out, "cointegral", side, "duoidal"):
        raise StructureDefectError("converted cointegral fails the duoidal conditions")
    return out


def maschke_report(w: WeakHopfPresentation) -> MaschkeReport:
    """Run every solver and assert the two equivalence families."""
    _require_antipode(w)
    check_antipode(w).require("weak Hopf algebra")   # also validates the weak bialgebra
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
