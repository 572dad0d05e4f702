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
    InvalidPresentationError,
    MaschkeReport,
    _apply_sparse,
    _balanced_system,
    _comult_by_source,
    _convolution,
    _mult_cols,
    _once,
    _product,
    _require_antipode,
    _sparse_cols,
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
    eps = w.coalgebra.counit
    return tuple(tuple(_dot(w.field, eps, terms) for terms in row)
                 for row in _sparse_products(w.algebra))


@_once
def _unit_comult(w: WeakHopfPresentation) -> tuple:
    """((a, b, c), ...): the nonzero terms c e_a (x) e_b of Delta(1)."""
    u = w.coalgebra.comult_vec(w.algebra.unit)
    return tuple((*divmod(ab, w.dim), c) for ab, c in enumerate(u) if c != 0)


def _grouped(terms) -> dict:
    """{x: ((y, value), ...)} of the terms (x, y, value)."""
    groups = {}
    for x, y, value in terms:
        groups.setdefault(x, []).append((y, value))
    return groups


@_once
def check_weak_bialgebra(w: WeakHopfPresentation) -> AxiomReport:
    """Component axioms plus the three weakened compatibility diagrams.

    Each sum runs over nonzero terms only: the products e_a e_c that do not
    vanish, the terms of Delta(e_j) grouped by one leg, and the nonzero
    entries of eps(e_i e_j).
    """
    report = check_algebra(w.algebra).merged(check_coalgebra(w.coalgebra))
    if not report.ok():
        return report
    f = w.field
    n = w.dim
    alg, coa = w.algebra, w.coalgebra
    add, mul = f.add, f.mul
    zero = f.zero()
    failures = []
    prod = _sparse_products(alg)
    by_source = _comult_by_source(coa)
    # right[a] = ((c, terms of e_a e_c), ...) and left[b] = ((c, terms of
    # e_c e_b), ...) over the nonzero products
    right = [tuple((c, terms) for c, terms in enumerate(row) if terms) for row in prod]
    left = [tuple((c, prod[c][b]) for c in range(n) if prod[c][b]) for b in range(n)]
    # Delta(e_j) = sum e_a (x) e_b grouped by its first and by its second leg
    by_first = [_grouped(terms) for terms in by_source]
    by_second = [_grouped((b, a, s) for a, b, s in terms) for terms in by_source]

    # comultiplication is multiplicative: delta(hk) = delta(h) delta(k)
    for i in range(n):
        for j in range(n):
            lhs = [zero] * (n * n)
            for m, t in prod[i][j]:
                for a, b, s in by_source[m]:
                    lhs[a * n + b] = add(lhs[a * n + b], mul(t, s))
            rhs = [zero] * (n * n)
            first_j = by_first[j]
            for a, b, s1 in by_source[i]:
                prod_b = prod[b]
                for c, ac in right[a]:
                    for d, s2 in first_j.get(c, ()):
                        bd = prod_b[d]
                        if not bd:
                            continue
                        s12 = mul(s1, s2)
                        for p, t1 in ac:
                            s12t1 = mul(s12, t1)
                            for q, t2 in bd:
                                idx = p * n + q
                                rhs[idx] = add(rhs[idx], mul(s12t1, t2))
            if lhs != rhs:
                failures.append(AxiomFailure("comultiplicativity", (i, j)))

    # weak unit: (1 (x) mu (x) 1) and (1 (x) mu_op (x) 1) on delta(1) (x) delta(1)
    # both equal the double comultiplication of 1
    nz_u = _unit_comult(w)
    d2 = [zero] * (n ** 3)
    for a, b, c0 in nz_u:
        for p, q, s in by_source[a]:
            idx = (p * n + q) * n + b
            d2[idx] = add(d2[idx], mul(c0, s))
    v_straight = [zero] * (n ** 3)
    v_twisted = [zero] * (n ** 3)
    u_first = _grouped(nz_u)
    for a, b, c1 in nz_u:
        for v, sides in ((v_straight, right[b]), (v_twisted, left[b])):
            for c, terms in sides:
                cd = u_first.get(c, ())
                for k, t in terms:
                    c1t = mul(c1, t)
                    base = (a * n + k) * n
                    for d, c2 in cd:
                        v[base + d] = add(v[base + d], mul(c1t, c2))
    if v_straight != d2:
        failures.append(AxiomFailure("weak unit (straight)", ()))
    if v_twisted != d2:
        failures.append(AxiomFailure("weak unit (twisted)", ()))

    # weak counit: eps(fgh) = sum eps(f g1) eps(g2 h) = sum eps(f g2) eps(g1 h)
    eps2 = tuple(_terms(row) for row in _counit_pairing(w))
    for i in range(n):
        for j in range(n):
            lhs = [zero] * n
            for m, t in prod[i][j]:
                for k, y in eps2[m]:
                    lhs[k] = add(lhs[k], mul(t, y))
            sides = []
            # contract one leg of Delta(e_j) with eps(e_i -) first (the first
            # leg for the straight side, the second for the twisted side),
            # then the other leg with the rows eps(e_b -)
            for legs in (by_first[j], by_second[j]):
                coeff = {}
                for a, x in eps2[i]:
                    for b, s in legs.get(a, ()):
                        coeff[b] = add(coeff.get(b, zero), mul(s, x))
                side = [zero] * n
                for b, cb in coeff.items():
                    for k, y in eps2[b]:
                        side[k] = add(side[k], mul(cb, y))
                sides.append(side)
            straight, twisted = sides
            if lhs == straight and lhs == twisted:
                continue
            for k in range(n):
                if lhs[k] != straight[k]:
                    failures.append(AxiomFailure("weak counit (straight)", (i, j, k)))
                if lhs[k] != twisted[k]:
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
    for a, b, c in _unit_comult(w):
        for h in range(n):
            piR[a * n + h] = add(piR[a * n + h], mul(c, eps2[h][b]))
            piR_bar[a * n + h] = add(piR_bar[a * n + h], mul(c, eps2[b][h]))
            piL[b * n + h] = add(piL[b * n + h], mul(c, eps2[a][h]))
            piL_bar[b * n + h] = add(piL_bar[b * n + h], mul(c, eps2[h][a]))
    maps = ProjectionMaps(*(Matrix(f, n, n, tuple(e))
                            for e in (piR, piR_bar, piL, piL_bar)))
    for name in ProjectionMaps._fields:
        cols = _sparse_cols(getattr(maps, name))
        if any(_apply_sparse(f, cols, col) != dict(col) for col in cols):
            raise StructureDefectError(f"{name} is not idempotent")
    return maps


@_once
def _projection_cols(w: WeakHopfPresentation) -> dict:
    """{name: sparse columns} of the four projections (see _sparse_cols), as
    tuples; the dict is not changed after it is stored."""
    maps = projections(w)
    return {name: tuple(map(tuple, _sparse_cols(getattr(maps, name))))
            for name in ProjectionMaps._fields}


@_once
def base_algebra(w: WeakHopfPresentation) -> BaseAlgebraInfo:
    """Image of piR with its induced multiplication and Frobenius data.

    Verifies the subalgebra, commutation, anti-isomorphism and
    Frobenius-separability identities; any violation on a valid weak
    bialgebra is an internal inconsistency.  Every map is read from the
    sparse columns of the projections and the product table.
    """
    _require_weak_bialgebra(w)
    cols = _projection_cols(w)
    f = w.field
    n = w.dim
    unit = w.algebra.unit
    prod = _sparse_products(w.algebra)

    def pi(name, terms):
        return _apply_sparse(f, cols[name], terms)

    base, base_bar, cobase, cobase_bar = (_row_space(f, n, map(dict, cols[name]))
                                          for name in ProjectionMaps._fields)
    if base_bar.basis != base.basis:
        raise StructureDefectError("images of piR and piR_bar differ")
    if cobase_bar.basis != cobase.basis:
        raise StructureDefectError("images of piL and piL_bar differ")
    if not base.contains(unit):
        raise StructureDefectError("unit escapes the base algebra")
    rows = [_terms(base.basis.row(i)) for i in range(base.dim)]
    corows = [_terms(cobase.basis.row(i)) for i in range(cobase.dim)]
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
        if pi("piR", pi("piL_bar", y).items()) != dict(y):
            raise StructureDefectError("piR . piL_bar is not the identity on the base")
        if pi("piR_bar", pi("piL", y).items()) != dict(y):
            raise StructureDefectError("piR_bar . piL is not the identity on the base")
    for x in corows:
        if pi("piL_bar", pi("piR", x).items()) != dict(x):
            raise StructureDefectError("piL_bar . piR is not the identity on the commutant")
        if pi("piL", pi("piR_bar", x).items()) != dict(x):
            raise StructureDefectError("piL . piR_bar is not the identity on the commutant")
    bar = [list(pi("piL_bar", y).items()) for y in rows]
    for u, row in enumerate(products):
        for v, uv in enumerate(row):
            if pi("piL_bar", uv.items()) != _product(f, prod, bar[v], bar[u]):
                raise StructureDefectError("piL_bar is not anti-multiplicative on the base")
    d = base.dim
    induced = Tensor3(f, d, d, d, tuple(itertools.chain.from_iterable(coords)))

    # Frobenius-separability data of the base: 1_1 (x) piR(1_2) and eps
    fe = [f.zero()] * (n * n)
    for a, b, c in _unit_comult(w):
        for k, v in cols["piR"][b]:
            fe[a * n + k] = f.add(fe[a * n + k], f.mul(c, v))
    eps = w.coalgebra.counit
    left, right = [f.zero()] * n, [f.zero()] * n
    for ab, c in enumerate(fe):
        if c != 0:
            a, b = divmod(ab, n)
            left[b] = f.add(left[b], f.mul(c, eps[a]))
            right[a] = f.add(right[a], f.mul(c, eps[b]))
    if tuple(left) != unit or tuple(right) != unit:
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
    pcols = _projection_cols(w)
    scols = _sparse_cols(s)
    prod, delta = _sparse_products(alg), _comult_by_source(coa)
    failures = []
    left = _convolution(f, delta, None, scols, prod)
    right = _convolution(f, delta, scols, None, prod)
    # with (Delta (x) 1) Delta: S(h1) h2 S(h3) = right(h1) S(h2)
    third = _convolution(f, delta, [col.items() for col in right], scols, prod)
    for law, got, want in (("antipode left diagram", left, pcols["piL"]),
                           ("antipode right diagram", right, pcols["piR"]),
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
    if any(dict(_terms(coa.comult_vec(s.col(i)))) != flipped[i] for i in range(n)):
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
    f, cols, prod = w.field, _projection_cols(w), _sparse_products(w.algebra)

    def pi(name, terms):
        return list(_apply_sparse(f, cols[name], terms).items())

    basis = base_algebra(w).subspace.basis
    for i in range(basis.rows):
        x = _terms(basis.row(i))
        if kind == "integral":
            # left: t piL(x) = t piR_bar(piL_bar(x)); right: piL_bar(x) t = piR(piL(x)) t
            u, v = (pi("piL", x), pi("piR_bar", pi("piL_bar", x))) if left else \
                (pi("piL_bar", x), pi("piR", pi("piL", x)))
            sides = ((0, u, not left), (1, v, not left))
        else:
            # left: tau(x h) = tau(h piR(piL(x))); right: tau(h piL_bar(x)) = tau(piL(x) h)
            u, v = (x, pi("piR", pi("piL", x))) if left else \
                (pi("piL_bar", x), pi("piL", x))
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
    pi_cols = _projection_cols(w)["piL" if left else "piR"]
    gaps = [(i, [(i, f.one())] + [(m, f.neg(v)) for m, v in col])
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
    return _integral_solution(w, side, variant, bool(normalized))


@_once
def _solved(w: WeakHopfPresentation, kind: str, side: str, variant: str,
            normalized: bool):
    """(system, its solution set or None) of the (co)integral rows of kind.

    The duoidal rows are the primed rows and the rows of one more condition
    over the base, so the duoidal system holds the latter alone and resumes
    the solved primed elimination; after an infeasible primed system nothing
    is built.  A stored system is not changed after its solve.
    """
    _require_weak_bialgebra(w)
    if variant == "primed":
        system = (integral_system if kind == "integral" else cointegral_system)(
            w, side, variant, normalized)
        return system, system.solve()
    primed, sol = _solved(w, kind, side, "primed", normalized)
    if sol is None:
        return None, None
    extras = _balanced_system(w.field, w.dim, (), (),
                              _duoidal_products(w, kind, side == "left"))
    return extras, extras.solve(primed)


@_once
def _integral_solution(w: WeakHopfPresentation, side: str, variant: str,
                       normalized: bool):
    sol = _solved(w, "integral", side, variant, normalized)[1]
    return None if sol is None else IntegralSolution(side, variant, normalized, sol)


def cointegral_system(w: WeakHopfPresentation, side: str, variant: str,
                      normalized: bool) -> ConstraintSystem:
    """Affine system over the dim unknowns of a cointegral functional."""
    _check_side_variant(side, variant)
    f, left = w.field, side == "left"
    pi_cols = _projection_cols(w)["piL" if left else "piR"]

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
    return _cointegral_solution(w, side, variant, bool(normalized))


@_once
def _cointegral_solution(w: WeakHopfPresentation, side: str, variant: str,
                         normalized: bool):
    sol = _solved(w, "cointegral", side, variant, normalized)[1]
    return None if sol is None else CointegralSolution(side, variant, normalized, sol)


def _dot(f, u, terms):
    """The sum of u[k] t over the terms (k, t)."""
    acc = f.zero()
    for k, t in terms:
        acc = f.add(acc, f.mul(u[k], t))
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
    f, cols, left = w.field, _projection_cols(w), side == "left"
    prod = _sparse_products(w.algebra)
    t_prime = tuple(f.coerce(x) for x in t_prime)
    if not _solves(w, t_prime, solve_integral, integral_system, side, "primed"):
        raise ValueError("input fails the primed integral conditions")
    # z = 1_1 piL(piR(1_2)) (left) or piR(piL(1_1)) 1_2 (right), as repeated
    # terms; then t = t' z or z t' by associativity
    inner, outer = ("piR", "piL") if left else ("piL", "piR")
    comp = [_apply_sparse(f, cols[outer], col).items() for col in cols[inner]]
    z = [term for a, b, c in _unit_comult(w) for term in (
        _product(f, prod, [(a, c)], comp[b]) if left else
        _product(f, prod, comp[a], [(b, c)])).items()]
    t = _product(f, prod, _terms(t_prime), z) if left else _product(f, prod, z, _terms(t_prime))
    out = _vector(f, w.dim, t.items())
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
    f, cols = w.field, _projection_cols(w)
    prod = _sparse_products(w.algebra)
    tau_prime = tuple(f.coerce(x) for x in tau_prime)
    if not _solves(w, tau_prime, solve_cointegral, cointegral_system, side, "primed"):
        raise ValueError("input fails the primed cointegral conditions")
    out = []
    for j in range(w.dim):
        acc = f.zero()
        for a, b, c in _unit_comult(w):
            # (e_a e_j) piR(e_b) (left) or piL(e_a) (e_j e_b) (right)
            vec = _product(f, prod, prod[a][j], cols["piR"][b]) if side == "left" else \
                _product(f, prod, cols["piL"][a], prod[j][b])
            acc = f.add(acc, f.mul(c, _dot(f, tau_prime, vec.items())))
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
