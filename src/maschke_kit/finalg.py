"""Finite-dimensional algebras and coalgebras by structure constants.

Presentations carry the multiplication/comultiplication tensors and the
unit/counit vectors relative to a chosen basis.  Axiom checkers report every
failed identity with a basis witness; the two feasibility solvers look for a
bimodule section of the multiplication (separability) and a bicomodule
retraction of the comultiplication (coseparability) by exact linear algebra,
through the separability element and the coseparability functional.

Tensor index convention: ``mult[i][j][k]`` is the coefficient of ``e_k`` in
``e_i * e_j``; ``comult[i][j][k]`` is the coefficient of ``e_j (x) e_k`` in
the comultiplication of ``e_i``.
"""

from __future__ import annotations

import functools

from .exactlin import (
    ConstraintSystem,
    FieldSpec,
    Frozen,
    Matrix,
    Tensor3,
    _reduce_on_arrival,
    unit_vec,
    vec_is_zero,
)


class AxiomFailure(Frozen):
    law: str
    witness: tuple
    detail: str = ""

    def render(self) -> str:
        core = f"{self.law} fails at {self.witness}"
        return f"{core}: {self.detail}" if self.detail else core


class AxiomReport(Frozen):
    """Outcome of a validator run: all failures, plus non-fatal warnings."""

    failures: tuple = ()
    warnings: tuple = ()

    def ok(self) -> bool:
        return not self.failures

    def merged(self, other: "AxiomReport") -> "AxiomReport":
        return AxiomReport(self.failures + other.failures,
                           self.warnings + other.warnings)

    def render(self) -> str:
        if self.ok() and not self.warnings:
            return "all axioms hold"
        lines = [f.render() for f in self.failures]
        lines += [f"warning: {w.render()}" for w in self.warnings]
        return "\n".join(lines)


class InvalidPresentationError(ValueError):
    """Raised when an operation requires a presentation whose axioms fail."""

    def __init__(self, report: AxiomReport, what: str = "presentation"):
        self.report = report
        super().__init__(f"invalid {what}:\n{report.render()}")


_MISSING = object()


def _once(fn):
    """Compute fn(presentation, *args) once and store it on the presentation.

    Extra arguments must be str or bool.  The results of fn live in one
    dictionary, the attribute ``_once_<name>``, keyed by the argument tuple
    itself, so ("x_y",) and ("x", "y") or (True,) and ("True",) keep apart.
    Presentations are frozen, so a stored result never goes stale.  An
    exception is not stored: a failing computation raises on every call.
    Results must be immutable, since every caller gets the same object.
    """
    key = "_once_" + fn.__name__

    @functools.wraps(fn)
    def stored(presentation, *args):
        for a in args:
            if type(a) is not str and type(a) is not bool:
                raise TypeError(f"{fn.__name__}: stored results are keyed by str or bool")
        # getattr, not __dict__: building the instance dict slows every
        # later attribute read on the presentation.
        results = getattr(presentation, key, None)
        if results is None:
            results = {}
            object.__setattr__(presentation, key, results)
        value = results.get(args, _MISSING)
        if value is _MISSING:
            value = results[args] = fn(presentation, *args)
        return value

    return stored


@_once
def _sparse_products(a: AlgebraPresentation) -> tuple:
    """prod[i][j] = ((k, value), ...), the nonzero terms of e_i * e_j."""
    prod = [[[] for _ in range(a.dim)] for _ in range(a.dim)]
    for i, j, k, t in a.mult.nonzeros():
        prod[i][j].append((k, t))
    return tuple(tuple(map(tuple, row)) for row in prod)


@_once
def _comult_by_source(c: CoalgebraPresentation) -> tuple:
    """terms[i] = ((j, k, value), ...), the nonzero terms of Delta(e_i)."""
    terms = [[] for _ in range(c.dim)]
    for i, j, k, t in c.comult.nonzeros():
        terms[i].append((j, k, t))
    return tuple(map(tuple, terms))


def _comult_sum(f: FieldSpec, delta: tuple, terms) -> dict:
    """The comultiplication of the sum of t e_i over the terms (i, t), as
    {j * n + k: coefficient of e_j (x) e_k} without zeros, for delta =
    _comult_by_source(c) and n = c.dim."""
    add, mul, n = f.add, f.mul, len(delta)
    out = {}
    for i, t in terms:
        for j, k, s in delta[i]:
            idx = j * n + k
            out[idx] = add(out[idx], mul(t, s)) if idx in out else mul(t, s)
    return _nonzero_entries(out)


def _dot(f: FieldSpec, u, terms):
    """The sum of u[k] t over the terms (k, t): the pairing of the covector u
    with a sparse vector."""
    acc = f.zero()
    for k, t in terms:
        acc = f.add(acc, f.mul(u[k], t))
    return acc


def _terms(vec) -> list:
    return [(a, c) for a, c in enumerate(vec) if c != 0]


def _vector(f: FieldSpec, n: int, terms) -> tuple:
    """The coefficient vector of length n with the terms (k, value)."""
    out = [f.zero()] * n
    for k, t in terms:
        out[k] = t
    return tuple(out)


def _closure_generators(f: FieldSpec, prod: tuple, unit) -> tuple:
    """Indices g, in basis order, of the e_g outside the subalgebra generated
    by the unit and the e_h kept before g: a set that generates the algebra
    with the product table prod (prod[i][j] = ((k, value), ...)).

    The subalgebra is grown as a span closed under right multiplication by
    every kept generator: each vector that enters the span is multiplied by
    each generator, and each new generator multiplies every vector already in.
    """
    zero, one = f.zero(), f.one()
    n = len(prod)
    pivots, span, gens = {}, [], []

    def enters(vec: dict) -> bool:
        if _reduce_on_arrival(f, pivots, dict(vec), zero) is not None:
            return False
        span.append(vec)
        return True

    enters(dict(_terms(unit)))
    for g in range(n):
        if len(pivots) == n:
            break
        if not enters({g: one}):
            continue
        gens.append(g)
        todo = [(vec, g) for vec in span[:-1]] + [(span[-1], h) for h in gens]
        while todo:
            vec, h = todo.pop()
            product = _product(f, prod, vec.items(), ((h, one),))
            if enters(product):
                todo += [(product, k) for k in gens]
    return tuple(gens)


@_once
def _generators(a: AlgebraPresentation) -> tuple:
    """Basis indices whose elements generate the algebra (see
    _closure_generators)."""
    return _closure_generators(a.field, _sparse_products(a), a.unit)


@_once
def _dual_generators(c: CoalgebraPresentation) -> tuple:
    """Basis indices whose dual elements generate the dual algebra,
    e^p e^q = sum_i Delta_i^{pq} e^i with unit eps."""
    prod = [[[] for _ in range(c.dim)] for _ in range(c.dim)]
    for i, p, q, t in c.comult.nonzeros():
        prod[p][q].append((i, t))
    return _closure_generators(c.field, prod, c.counit)


def _mult_cols(f: FieldSpec, prod: tuple, terms, u_first: bool) -> list:
    """cols[j] = {k: coefficient of e_k in u e_j (u_first) or in e_j u}.

    Read from the product table, for u the sum of c e_a over the (a, c) in
    terms.  Entries may sum to zero.
    """
    add, mul, zero = f.add, f.mul, f.zero()
    cols = [{} for _ in prod]
    for a, c in terms:
        for j, col in enumerate(cols):
            for k, t in (prod[a][j] if u_first else prod[j][a]):
                col[k] = add(col.get(k, zero), mul(c, t))
    return cols


def _apply_sparse(f: FieldSpec, cols, terms) -> dict:
    """The image of the sum of t e_k over the (k, t) in terms under the map
    whose column k yields the (row, value) of cols[k], as {row: value}
    without zeros."""
    out = {}
    for k, t in terms:
        for r, v in cols[k]:
            _add_to(out, r, f.mul(t, v), f)
    return _nonzero_entries(out)


def _product(f: FieldSpec, prod: tuple, u, v) -> dict:
    """u v as {k: value} without zeros, for u and v the sums of c e_a over
    their terms (a, c), which may repeat an index."""
    add, mul = f.add, f.mul
    out = {}
    for a, c in u:
        row = prod[a]
        for b, d in v:
            cd = mul(c, d)
            for k, t in row[b]:
                out[k] = add(out[k], mul(cd, t)) if k in out else mul(cd, t)
    return _nonzero_entries(out)


def _convolution(field: FieldSpec, comult, f, g, prod) -> list:
    """Columns of h -> prod(f(h1) (x) g(h2)), the convolution of f and g:
    cols[i] = {m: value}, without zeros, at h = e_i.

    ``comult[i]`` yields the terms (j, k, t) of the comultiplication of e_i
    in the source.  f and g are given by their columns (f[j] yields the
    (a, value) of f(e_j)), or are None for the identity; ``prod[a][b] =
    ((m, value), ...)`` is the product of the targets of f and g.
    """
    add, mul, one = field.add, field.mul, field.one()
    identity = [((j, one),) for j in range(len(comult))]
    fcols = identity if f is None else f
    gcols = identity if g is None else g
    out = []
    for terms in comult:
        col = {}
        out.append(col)
        for j, k, t in terms:
            for a, fa in fcols[j]:
                tf = mul(t, fa)
                for b, gb in gcols[k]:
                    c = mul(tf, gb)
                    for m, p in prod[a][b]:
                        col[m] = add(col[m], mul(c, p)) if m in col else mul(c, p)
    return [_nonzero_entries(col) for col in out]


def _grouped(terms) -> dict:
    """{x: ((y, value), ...)} of the terms (x, y, value)."""
    groups = {}
    for x, y, value in terms:
        groups.setdefault(x, []).append((y, value))
    return groups


def _comult_products(left, right, prod, dim):
    """Yield (i, j, raw) in row-major order, raw[p * dim + q] the raw int or
    Fraction coefficient of e_p (x) e_q in Delta(e_i) Delta(e_j).

    left[i] and right[j] are the terms (a, b, value) of Delta grouped by
    source; prod[a][c] = ((p, value), ...) is the product of their targets,
    in a space of dimension dim.  Delta(e_j) is grouped by its first leg, and
    only nonzero products are visited.
    """
    nonzero = [tuple((c, terms) for c, terms in enumerate(row) if terms) for row in prod]
    by_first = [_grouped(terms) for terms in right]
    for i, terms_i in enumerate(left):
        for j, first_j in enumerate(by_first):
            raw = [0] * (dim * dim)
            for a, b, s1 in terms_i:
                prod_b = prod[b]
                for c, ac in nonzero[a]:
                    for d, s2 in first_j.get(c, ()):
                        bd = prod_b[d]
                        if not bd:
                            continue
                        s12 = s1 * s2
                        for p, t1 in ac:
                            s12t1, base = s12 * t1, p * dim
                            for q, t2 in bd:
                                raw[base + q] += s12t1 * t2
            yield i, j, raw


def _associativity_failures(f: FieldSpec, ab, ab_c, bc, a_bc, dim):
    """Yield, in order, each (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k).

    Each table maps [x][y] to the terms (m, value) of a product: ab of the
    first two factors, ab_c of that with the third, bc of the last two, a_bc
    of the first with that; both sides lie in a space of dimension dim.
    They are raw int or Fraction sums, reduced only when they differ (over
    GF(p) they may still agree mod p).
    """
    reduce = f.reduce
    for i, ab_i in enumerate(ab):
        a_bc_i = a_bc[i]
        for j, bc_j in enumerate(bc):
            ab_ij = ab_i[j]
            for k, bc_jk in enumerate(bc_j):
                lhs = [0] * dim
                for m, t in ab_ij:
                    for c, s in ab_c[m][k]:
                        lhs[c] += t * s
                rhs = [0] * dim
                for m, t in bc_jk:
                    for c, s in a_bc_i[m]:
                        rhs[c] += t * s
                if lhs != rhs and list(map(reduce, lhs)) != list(map(reduce, rhs)):
                    yield i, j, k


def _auto_labels(dim: int) -> tuple:
    return tuple(f"b{i}" for i in range(dim))


class AlgebraPresentation(Frozen):
    """A unital associative algebra given by structure constants."""

    field: FieldSpec
    dim: int
    labels: tuple
    mult: Tensor3
    unit: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1 (the unit needs a carrier)")
        if len(self.labels) != self.dim:
            raise ValueError("label count must equal dim")
        t = self.mult
        if (t.d0, t.d1, t.d2) != (self.dim,) * 3 or t.field != self.field:
            raise ValueError("mult tensor has wrong shape or field")
        if len(self.unit) != self.dim:
            raise ValueError("unit vector has wrong length")
        object.__setattr__(self, "unit",
                           tuple(self.field.coerce(x) for x in self.unit))
        if vec_is_zero(self.unit):
            raise ValueError("unit vector must be nonzero")

    @staticmethod
    def make(field, mult_nested, unit, labels=None) -> "AlgebraPresentation":
        mult = Tensor3.from_nested(field, mult_nested)
        dim = mult.d0
        return AlgebraPresentation(field, dim, tuple(labels) if labels else _auto_labels(dim),
                                   mult, tuple(unit))


class CoalgebraPresentation(Frozen):
    """A counital coassociative coalgebra given by structure constants."""

    field: FieldSpec
    dim: int
    comult: Tensor3
    counit: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1 (the counit needs a carrier)")
        t = self.comult
        if (t.d0, t.d1, t.d2) != (self.dim,) * 3 or t.field != self.field:
            raise ValueError("comult tensor has wrong shape or field")
        if len(self.counit) != self.dim:
            raise ValueError("counit vector has wrong length")
        object.__setattr__(self, "counit",
                           tuple(self.field.coerce(x) for x in self.counit))

    @staticmethod
    def make(field, comult_nested, counit) -> "CoalgebraPresentation":
        comult = Tensor3.from_nested(field, comult_nested)
        return CoalgebraPresentation(field, comult.d0, comult, tuple(counit))


# ---------------------------------------------------------------------------
# axiom checks


@_once
def check_algebra(a: AlgebraPresentation) -> AxiomReport:
    """Associativity on all basis triples (_associativity_failures) plus
    two-sided unitality."""
    f, n = a.field, a.dim
    add, mul, zero = f.add, f.mul, f.zero()
    prod = _sparse_products(a)
    unit = [(m, u) for m, u in enumerate(a.unit) if u != 0]
    failures = []
    for i in range(n):
        # 1 e_i and e_i 1, summed over the unit's nonzeros
        left = [zero] * n
        right = [zero] * n
        for m, u in unit:
            for k, t in prod[m][i]:
                left[k] = add(left[k], mul(u, t))
            for k, t in prod[i][m]:
                right[k] = add(right[k], mul(u, t))
        e = list(unit_vec(f, n, i))
        if left != e:
            failures.append(AxiomFailure("left unit", (i,), a.labels[i]))
        if right != e:
            failures.append(AxiomFailure("right unit", (i,), a.labels[i]))
    failures += [AxiomFailure("associativity", (i, j, k),
                              f"({a.labels[i]}*{a.labels[j]})*{a.labels[k]}")
                 for i, j, k in _associativity_failures(f, prod, prod, prod, prod, n)]
    return AxiomReport(tuple(failures))


def _nonzero_entries(d: dict) -> dict:
    return {k: v for k, v in d.items() if v != 0}


def _reduced_entries(f: FieldSpec, d: dict) -> dict:
    """d with every raw int or Fraction sum reduced, without zeros."""
    reduce = f.reduce
    return {k: r for k, v in d.items() if (r := reduce(v)) != 0}


@_once
def check_coalgebra(c: CoalgebraPresentation) -> AxiomReport:
    """Coassociativity on all basis elements plus two-sided counitality.

    Both sides of coassociativity are raw sums, reduced only when they
    differ, as in check_algebra.
    """
    f, n = c.field, c.dim
    add, mul, zero = f.add, f.mul, f.zero()
    eps = c.counit
    delta = _comult_by_source(c)
    failures = []
    for i in range(n):
        # counit laws: (eps (x) 1) delta = id = (1 (x) eps) delta
        left = [zero] * n
        right = [zero] * n
        for j, k, t in delta[i]:
            left[k] = add(left[k], mul(t, eps[j]))
            right[j] = add(right[j], mul(t, eps[k]))
        e = list(unit_vec(f, n, i))
        if left != e:
            failures.append(AxiomFailure("left counit", (i,)))
        if right != e:
            failures.append(AxiomFailure("right counit", (i,)))
    for i in range(n):
        # (delta (x) 1) delta and (1 (x) delta) delta, keyed by (p * n + q) * n + r
        lhs = {}
        rhs = {}
        for j, k, t in delta[i]:
            for p, q, s in delta[j]:
                idx = (p * n + q) * n + k
                lhs[idx] = lhs.get(idx, 0) + t * s
            for p, q, s in delta[k]:
                idx = (j * n + p) * n + q
                rhs[idx] = rhs.get(idx, 0) + t * s
        if lhs != rhs and _reduced_entries(f, lhs) != _reduced_entries(f, rhs):
            failures.append(AxiomFailure("coassociativity", (i,)))
    return AxiomReport(tuple(failures))


# ---------------------------------------------------------------------------
# separability / coseparability solvers


class SeparabilitySection(Frozen):
    """A bimodule section of the multiplication; element = section(unit)."""

    map: Matrix   # dim^2 x dim
    element: tuple

    @property
    def dim(self) -> int:
        return self.map.cols


class CoseparabilityRetraction(Frozen):
    """A bicomodule retraction of the comultiplication."""

    map: Matrix   # dim x dim^2

    @property
    def dim(self) -> int:
        return self.map.rows


def _add_to(row: dict, var: int, value, f: FieldSpec):
    row[var] = f.add(row.get(var, f.zero()), value)


def _balanced_system(f: FieldSpec, nvars: int, norm, rhs, products) -> ConstraintSystem:
    """Rows of a balanced element x: g x = x g for every g that the terms
    supply, and a normalization, from the terms that each solver supplies.
    Every system of the package is built here.

    ``products`` yields (side, g, out, var, t): t times unknown var at
    coordinate out of the product with g on side 0 or 1.  ``norm`` yields
    (out, var, t): the same at coordinate out of the normalization, which
    must be rhs[out].  Rows: side 0 minus side 1 per (g, out), then the
    normalization, last because its dense rows fill in the others as pivots.
    """
    add, sub, neg = f.add, f.sub, f.neg
    # one row per (g, out): side-1 terms are subtracted as they arrive
    rows = {}
    for side, g, out, var, t in products:
        row = rows.get((g, out))
        if row is None:
            rows[g, out] = {var: neg(t) if side else t}
        elif var in row:
            row[var] = sub(row[var], t) if side else add(row[var], t)
        else:
            row[var] = neg(t) if side else t
    last = [{} for _ in rhs]
    for out, var, t in norm:
        row = last[out]
        row[var] = add(row[var], t) if var in row else t
    zero = f.zero()
    finished = [(row, zero) for row in rows.values()]
    finished += zip(last, rhs)
    # the terms are field scalars already, so rows go in as they are, without
    # coercion; the variable range is checked once over the variables of all
    # rows, and zeros are dropped
    used = set().union(*(row for row, _ in finished))
    if used and (min(used) < 0 or max(used) >= nvars):
        bad = next(var for row, _ in finished for var in row if not 0 <= var < nvars)
        raise ValueError(f"variable index {bad} out of range")
    sys = ConstraintSystem(f, nvars)
    for row, value in finished:
        if zero in row.values():
            row = {var: t for var, t in row.items() if t != 0}
        if row or value != 0:
            sys.rows.append((row, value))
    return sys


def _balanced_certificate(f: FieldSpec, x, norm, rhs, products, errors: tuple) -> dict:
    """The side-0 products of a solution x of _balanced_system, recomputed
    from the same terms, as {(g, out): value} without zeros.  Raises
    ArithmeticError(errors[0]) when the normalization is not rhs and
    ArithmeticError(errors[1]) when the two sides differ.  Each entry is an
    exact int or Fraction sum, reduced once."""
    reduce = f.reduce
    value = [0] * len(rhs)
    for out, var, t in norm:
        xv = x[var]
        if xv != 0:
            value[out] += t * xv
    if tuple(map(reduce, value)) != tuple(rhs):
        raise ArithmeticError(errors[0])
    tables = ({}, {})
    for side, g, out, var, t in products:
        xv = x[var]
        if xv != 0:
            table = tables[side]
            table[g, out] = table.get((g, out), 0) + t * xv
    side0, side1 = (_reduced_entries(f, table) for table in tables)
    if side0 != side1:
        raise ArithmeticError(errors[1])
    return side0


def _table_matrix(f: FieldSpec, table: dict, rows: int, cols: int) -> Matrix:
    """The Matrix with the value of (g, out) at row out and column g."""
    entries = [f.zero()] * (rows * cols)
    for (g, out), value in table.items():
        entries[out * cols + g] = value
    return Matrix(f, rows, cols, tuple(entries))


def _separability_terms(n: int, mult, unit, gens=None, e=None):
    """(norm, rhs, products) of mu(e) = 1 and g e = e g, for the algebra with
    the product terms mult, (i, j, m, t) for t e_m in e_i e_j, and e[k*n + l]
    the coefficient of b_k (x) b_l.  The products are those of the basis
    elements g in gens, or of every basis element when gens is None; given a
    solution e, only those of its nonzero unknowns, all that a certificate reads."""
    keep = [gens is None or g in gens for g in range(n)]
    support = [[x for x in range(n) if e is None or e[j * n + x] != 0] for j in range(n)]
    cosupport = [[x for x in range(n) if e is None or e[x * n + i] != 0] for i in range(n)]

    def products():
        for i, j, m, t in mult:
            if keep[i]:
                for x in support[j]:
                    yield 0, i, m * n + x, j * n + x, t
            if keep[j]:
                for x in cosupport[i]:
                    yield 1, j, x * n + m, x * n + i, t

    return [(m, i * n + j, t) for i, j, m, t in mult], unit, products()


def separability_system(a: AlgebraPresentation) -> ConstraintSystem:
    """Constraint rows for a separability element e of the algebra.

    Unknowns: the coefficients of e = sum e[k,l] b_k (x) b_l, variable index
    k*n + l.  Rows: mu(e) = 1, and g e = e g in A (x) A for the basis
    elements g of _generators(a), which generate A as an algebra.  That is
    enough: in an A-bimodule M the a with a m = m a form a subalgebra
    (Pierce, Associative Algebras, 1982, ch. 10), so an e that commutes with
    the generators commutes with every basis element, and the solution set
    is that of the rows for the whole basis.  A bimodule section N of the
    multiplication is fixed by e = N(1), and every solution e gives the
    section N(x) = x e, so the solutions correspond one to one with the
    sections.
    """
    return _balanced_system(a.field, a.dim ** 2, *_separability_terms(
        a.dim, a.mult.nonzeros(), a.unit, _generators(a)))


def solve_separability(a: AlgebraPresentation):
    """A verified SeparabilitySection, or None when the system is infeasible.

    The system has rows for the generators only (a subset of the rows for
    the whole basis), so no solution of it means none at all; a solution is
    certified against every basis element by _balanced_certificate on the
    full terms.  A set that does not generate can therefore only end in
    ArithmeticError, never in a wrong verdict.  The kernel of the system is
    certified against its own rows only, and no output reads it.
    """
    report = check_algebra(a)
    if not report.ok():
        raise InvalidPresentationError(report, "algebra")
    sol = separability_system(a).solve()
    if sol is None:
        return None
    # the section x -> x e
    section = _table_matrix(a.field, _balanced_certificate(
        a.field, sol.particular,
        *_separability_terms(a.dim, a.mult.nonzeros(), a.unit, e=sol.particular),
        ("separability element does not multiply to the unit",
         "separability element does not commute with the basis")), a.dim ** 2, a.dim)
    return SeparabilitySection(section, sol.particular)


def _dual_terms(c: CoalgebraPresentation, gens=None, sigma=None):
    """The separability terms of the dual algebra, e^p e^q = sum_i
    Delta_i^{pq} e^i with unit eps: sigma is its separability element."""
    return _separability_terms(
        c.dim, [(p, q, i, t) for i, p, q, t in c.comult.nonzeros()], c.counit, gens, sigma)


def coseparability_system(c: CoalgebraPresentation) -> ConstraintSystem:
    """Constraint rows for a coseparability functional sigma: C (x) C -> k.

    Unknowns: sigma[p, q] = sigma(b_p (x) b_q), variable index p*n + q.
    Rows: sigma . delta = eps, and c1 sigma(c2 (x) d) = sigma(c (x) d1) d2.
    A bicomodule retraction P of the comultiplication is fixed by
    sigma = eps . P, and every solution sigma gives the retraction
    P(c (x) d) = c1 sigma(c2 (x) d) (Larson, 1973), so the solutions
    correspond one to one with the retractions.  These are the separability
    rows of the dual algebra, and P is the dual of its section; as in
    separability_system, the balance rows are those of the generators of the
    dual algebra, _dual_generators(c), and they have the solution set of the
    rows for every basis element.
    """
    return _balanced_system(c.field, c.dim ** 2, *_dual_terms(c, _dual_generators(c)))


def solve_coseparability(c: CoalgebraPresentation):
    """A verified CoseparabilityRetraction, or None when infeasible.

    Certified on the full terms of the dual algebra, as in
    solve_separability; the kernel of the system feeds no output.
    """
    report = check_coalgebra(c)
    if not report.ok():
        raise InvalidPresentationError(report, "coalgebra")
    sol = coseparability_system(c).solve()
    if sol is None:
        return None
    f, n = c.field, c.dim
    # the retraction P: c (x) d -> c1 sigma(c2 (x) d), the value of (m, j*n + k)
    # at row m and column j*n + k
    table = _balanced_certificate(
        f, sol.particular, *_dual_terms(c, sigma=sol.particular),
        ("coseparability functional does not restrict to the counit",
         "coseparability functional is not balanced over the comultiplication"))
    retraction = _table_matrix(f, {(jk, m): v for (m, jk), v in table.items()}, n, n * n)
    pcols = retraction.columns()
    for i, terms in enumerate(_comult_by_source(c)):
        # P(delta(e_i)) = e_i
        if _apply_sparse(f, pcols, [(j * n + k, t) for j, k, t in terms]) != {i: f.one()}:
            raise ArithmeticError("coseparability map is not a retraction of delta")
    return CoseparabilityRetraction(retraction)


class MaschkeReport(Frozen):
    """Solver results of one Hopf monoid, and the two family verdicts.

    ``integrals`` and ``cointegrals`` map a variant key to a solution or
    None; ``separability`` and ``coseparability`` are a witness or None.
    The verdict holds when the integral family agrees with separability and
    the cointegral family agrees with coseparability.
    """

    integrals: dict
    cointegrals: dict
    separability: object
    coseparability: object

    @property
    def integral_flags(self) -> dict:
        return {k: v is not None for k, v in self.integrals.items()}

    @property
    def cointegral_flags(self) -> dict:
        return {k: v is not None for k, v in self.cointegrals.items()}

    @property
    def verdict(self) -> bool:
        ints = set(self.integral_flags.values()) | {self.separability is not None}
        coints = set(self.cointegral_flags.values()) | {self.coseparability is not None}
        return len(ints) == 1 and len(coints) == 1


def _require_antipode(presentation):
    if presentation.antipode is None:
        raise ValueError("the equivalence is only claimed for Hopf monoids; "
                         "an antipode is required")
