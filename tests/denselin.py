"""Dense linear algebra that only the tests use.

Vector sums, scalings and zeros, a matrix from dense rows and their span,
Kronecker products, the flip of a tensor product, the identity and the difference of matrices,
a matrix applied to a dense vector and its transpose, the sparse columns of
a matrix, the product of two dense vectors of an algebra, membership in a
subspace and the remainder of a vector after its pivot coordinates,
kernels and affine solves of dense matrices, one row or the rows of a matrix
added to a constraint system, the rows of a system as a multiset,
a matrix as nested rows, the zero test, the projection of one vector to a
quotient and the quotient's section, the multiplication, left and right
multiplication, unit, comultiplication and counit of a presentation as
matrices, the comultiplication of one vector, a map after an action on one
leg of a tensor square, a change of basis, the dual algebra of a coalgebra,
the dimension of the subalgebra that some basis elements generate, and the
weak Hopf algebras H_Q = M_n(k) (x) M_n(k)^op, whose base is noncommutative
and whose antipode is not involutive on the base for Q not scalar.  The
package applies every map through its sparse columns and builds every
system with one row builder; the tests compose the same maps from these
dense pieces and compare.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from maschke_kit.exactlin import ConstraintSystem, FieldSpec, Matrix, Subspace, Tensor3, \
    _row_space, unit_vec
from maschke_kit.finalg import AlgebraPresentation, CoalgebraPresentation, _product, \
    _sparse_products, _terms, _vector
from maschke_kit.weakhopf import WeakHopfPresentation


def zero_vec(field: FieldSpec, n: int) -> tuple:
    return (field.zero(),) * n


def vec_add(field: FieldSpec, u, v) -> tuple:
    return tuple(field.add(a, b) for a, b in zip(u, v, strict=True))


def vec_scale(field: FieldSpec, c, v) -> tuple:
    return tuple(field.mul(c, a) for a in v)


def matrix_from_rows(field: FieldSpec, rows) -> Matrix:
    """The Matrix with the given dense rows, each entry coerced."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged rows")
    return Matrix(field, nr, nc, tuple(field.coerce(x) for r in rows for x in r))


def subspace_from_rows(field: FieldSpec, ambient_dim: int, rows) -> Subspace:
    """Echelon basis of the span of dense rows."""
    sparse = []
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("row length must equal ambient_dim")
        coords = (field.coerce(x) for x in r)
        sparse.append({j: v for j, v in enumerate(coords) if v != 0})
    return _row_space(field, ambient_dim, sparse)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in left-factor-major basis order."""
    if a.field != b.field:
        raise ValueError("mixed-field input rejected")
    f = a.field
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [f.zero()] * (rows * cols)
    for ia, ja, va in a.nonzeros():
        rbase = ia * b.rows
        cbase = ja * b.cols
        for ib, jb, vb in b.nonzeros():
            out[(rbase + ib) * cols + (cbase + jb)] = f.mul(va, vb)
    return Matrix(f, rows, cols, tuple(out))


def flip_matrix(field: FieldSpec, d1: int, d2: int) -> Matrix:
    """The swap V1 (x) V2 -> V2 (x) V1 in left-major coordinates."""
    cols = d1 * d2
    out = [field.zero()] * (d2 * d1 * cols)
    for a in range(d1):
        for b in range(d2):
            out[(b * d1 + a) * cols + (a * d2 + b)] = field.one()
    return Matrix(field, d2 * d1, cols, tuple(out))


def identity(field: FieldSpec, n: int) -> Matrix:
    z, o = field.zero(), field.one()
    return Matrix(field, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """The entrywise difference a - b."""
    if a.field != b.field:
        raise ValueError("mixed-field input rejected")
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    f = a.field
    return Matrix(f, a.rows, a.cols, tuple(f.sub(x, y) for x, y in zip(a.entries, b.entries)))


def apply(m: Matrix, vec) -> tuple:
    """m times a dense column vector."""
    if len(vec) != m.cols:
        raise ValueError("vector length mismatch")
    f = m.field
    add, mul, zero = f.add, f.mul, f.zero()
    out = [zero] * m.rows
    for i in range(m.rows):
        acc = zero
        for a, x in zip(m.row(i), vec):
            if a != 0 and x != 0:
                acc = add(acc, mul(a, x))
        out[i] = acc
    return tuple(out)


def sparse_cols(m: Matrix) -> list:
    """cols[c] = [(row, value)] over the nonzero entries of column c, grouped
    afresh on every call: the oracle of Matrix.columns."""
    cols = [[] for _ in range(m.cols)]
    for i, c, v in m.nonzeros():
        cols[c].append((i, v))
    return cols


def transpose(m: Matrix) -> Matrix:
    ent = tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows))
    return Matrix(m.field, m.cols, m.rows, ent)


def mult_vec(a, u, v) -> tuple:
    """The product of two coefficient vectors of an algebra presentation,
    through the package's sparse product (finalg._product)."""
    return _vector(a.field, a.dim, _product(
        a.field, _sparse_products(a), _terms(u), _terms(v)).items())


def membership(vec, s: Subspace) -> bool:
    """True iff vec lies in the span of the subspace basis."""
    return s.contains(vec)


def dense_reduce(s: Subspace, vec) -> tuple:
    """Remainder of vec after eliminating all pivot coordinates of s, one
    dense row operation per pivot: the oracle of Subspace.coords and
    Subspace.contains (vec is a member iff the remainder is zero)."""
    if len(vec) != s.ambient_dim:
        raise ValueError("vector length mismatch")
    f = s.field
    v = list(f.coerce(x) for x in vec)
    for i, p in enumerate(s.pivots):
        c = v[p]
        if c != 0:
            row = s.basis.row(i)
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def add_row(sys: ConstraintSystem, coeffs: dict, rhs=0):
    """Append the row coeffs . x = rhs to sys: coefficients coerced, the
    variable range checked, zeros dropped, and a row that is zero on both
    sides left out."""
    f = sys.field
    clean = {}
    for c, v in coeffs.items():
        if not 0 <= c < sys.nvars:
            raise ValueError(f"variable index {c} out of range")
        v = f.coerce(v)
        if v != 0:
            clean[c] = v
    rhs = f.coerce(rhs)
    if clean or rhs != 0:
        sys.rows.append((clean, rhs))


def solve_affine(m: Matrix, b):
    """Solve m.x = b exactly; an AffineSolution, or None when infeasible.

    The particular solution sets every free variable to zero.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    f = m.field
    sys = ConstraintSystem(f, m.cols)
    for i in range(m.rows):
        add_row(sys, {j: v for j, v in enumerate(m.row(i)) if v != 0}, f.coerce(b[i]))
    return sys.solve()


def add_matrix_rows(sys: ConstraintSystem, m: Matrix, rhs=None):
    """Add one row per row of m to sys; the right-hand side defaults to zero."""
    f = sys.field
    for i in range(m.rows):
        add_row(sys, {j: v for j, v in enumerate(m.row(i)) if v != 0},
                f.zero() if rhs is None else rhs[i])


def row_multiset(sys: ConstraintSystem) -> Counter:
    """The rows of sys as a multiset of ((sorted items), rhs): row order is
    not part of a system's meaning, since solve() returns the same solution
    for every order."""
    return Counter((tuple(sorted(row.items())), rhs) for row, rhs in sys.rows)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m.v = 0} as an echelon-basis subspace."""
    return solve_affine(m, zero_vec(m.field, m.rows)).homogeneous


def to_rows(m: Matrix) -> list:
    """The entries of m as a list of row lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def is_zero(m: Matrix) -> bool:
    return all(a == 0 for a in m.entries)


def project(q, vec) -> tuple:
    """The quotient coordinates of one ambient vector."""
    return apply(q.projection, vec)


def section(q) -> Matrix:
    """The ambient x q.dim matrix of the section of a quotient: column r is
    the ambient unit vector at q.free[r]."""
    f = q.projection.field
    out = [f.zero()] * (q.ambient_dim * q.dim)
    for r, c in enumerate(q.free):
        out[c * q.dim + r] = f.one()
    return Matrix(f, q.ambient_dim, q.dim, tuple(out))


def left_mult_matrix(a, u) -> Matrix:
    """Matrix of v -> u*v in an algebra presentation."""
    f, n = a.field, a.dim
    out = [f.zero()] * (n * n)
    for i, j, k, t in a.mult.nonzeros():
        if u[i] != 0:
            out[k * n + j] = f.add(out[k * n + j], f.mul(u[i], t))
    return Matrix(f, n, n, tuple(out))


def right_mult_matrix(a, u) -> Matrix:
    """Matrix of v -> v*u in an algebra presentation."""
    f, n = a.field, a.dim
    out = [f.zero()] * (n * n)
    for i, j, k, t in a.mult.nonzeros():
        if u[j] != 0:
            out[k * n + i] = f.add(out[k * n + i], f.mul(u[j], t))
    return Matrix(f, n, n, tuple(out))


def mult_matrix(a) -> Matrix:
    """The multiplication of an algebra presentation as a matrix A (x) A -> A
    (left-major columns)."""
    f, n = a.field, a.dim
    out = [f.zero()] * (n * n * n)
    for i, j, k, t in a.mult.nonzeros():
        out[k * (n * n) + i * n + j] = t
    return Matrix(f, n, n * n, tuple(out))


def on_leg(m: Matrix, act: Matrix, leg: int) -> Matrix:
    """m after act on one leg of A (x) A: the matrix of w -> m((act (x) 1) w)
    for leg 0 and of w -> m((1 (x) act) w) for leg 1 (left-major a * n + b)."""
    f = m.field
    n = act.rows
    out = [f.zero()] * (m.rows * m.cols)
    for r, pq, v in m.nonzeros():
        p, q = divmod(pq, n)
        for a in range(n):
            t = act.at((p, q)[leg], a)
            if t != 0:
                idx = r * m.cols + (a * n + q if leg == 0 else p * n + a)
                out[idx] = f.add(out[idx], f.mul(v, t))
    return Matrix(f, m.rows, m.cols, tuple(out))


def unit_matrix(a) -> Matrix:
    """The unit of an algebra presentation as a column k -> A."""
    return Matrix(a.field, a.dim, 1, tuple(a.unit))


def comult_vec(c, u) -> tuple:
    """The comultiplication of a coefficient vector of a coalgebra
    presentation, in C (x) C coordinates."""
    f, n = c.field, c.dim
    out = [f.zero()] * (n * n)
    for i, j, k, t in c.comult.nonzeros():
        a = u[i]
        if a != 0:
            out[j * n + k] = f.add(out[j * n + k], f.mul(a, t))
    return tuple(out)


def comult_matrix(c) -> Matrix:
    """The comultiplication of a coalgebra presentation as a matrix C -> C (x) C."""
    f, n = c.field, c.dim
    out = [f.zero()] * (n * n * n)
    for i, j, k, t in c.comult.nonzeros():
        out[(j * n + k) * n + i] = t
    return Matrix(f, n * n, n, tuple(out))


def counit_matrix(c) -> Matrix:
    """The counit of a coalgebra presentation as a row C -> k."""
    return Matrix(c.field, 1, c.dim, tuple(c.counit))


def rebased(w, seed):
    """The weak Hopf presentation w in the basis f_j = e_j + sum_{i<j} c_ij e_i,
    with small integers c_ij drawn from seed: an isomorphic presentation whose
    structure constants are no longer 0 and 1."""
    f, n = w.field, w.dim
    rng = random.Random(seed)
    p = matrix_from_rows(f, [[1 if i == j else rng.randint(-2, 2) if i < j else 0
                               for j in range(n)] for i in range(n)])
    q = transpose(matrix_from_rows(f, [solve_affine(p, unit_vec(f, n, j)).particular
                                       for j in range(n)]))
    mult, comult = [f.zero()] * n ** 3, [f.zero()] * n ** 3
    for i, j, k, t in w.algebra.mult.nonzeros():
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    v = f.mul(f.mul(p.at(i, a), p.at(j, b)), f.mul(t, q.at(c, k)))
                    mult[(a * n + b) * n + c] = f.add(mult[(a * n + b) * n + c], v)
    for i, j, k, t in w.coalgebra.comult.nonzeros():
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    v = f.mul(f.mul(p.at(i, a), q.at(b, j)), f.mul(t, q.at(c, k)))
                    comult[(a * n + b) * n + c] = f.add(comult[(a * n + b) * n + c], v)
    algebra = AlgebraPresentation(f, n, w.labels, Tensor3(f, n, n, n, tuple(mult)),
                                  apply(q, w.algebra.unit))
    coalgebra = CoalgebraPresentation(f, n, Tensor3(f, n, n, n, tuple(comult)),
                                      apply(transpose(p), w.coalgebra.counit))
    antipode = None if w.antipode is None else q @ w.antipode @ p
    return WeakHopfPresentation(algebra, coalgebra, antipode)


def matrix_pair_weak_hopf(n: int, field: FieldSpec, q=None) -> WeakHopfPresentation:
    """H_Q = M_n(k) (x) M_n(k)^op for Q in GL_n(k) with Tr(Q^-1) = 1, given
    as rows; the default Q = n 1 needs a field whose characteristic does not
    divide n, and gives Nikshych-Vainerman, Finite quantum groupoids and
    their applications, 2002, section 2.  Basis E_ij (x) E_kl at index
    ((i n + j) n + k) n + l; product (a (x) b)(a' (x) b') = aa' (x) b'b with
    unit 1 (x) 1; Delta(a (x) b) = sum_pq (a (x) E_pq) (x) (Q^-1 E_qp (x) b);
    eps(a (x) b) = Tr(Q a b); S(a (x) b) = b (x) Q a Q^-1.  Here sum_pq
    E_pq (x) Q^-1 E_qp is a separability idempotent of M_n(k) with dual
    functional Tr(Q -) (Boehm-Nill-Szlachanyi, Weak Hopf algebras I, 1999).
    The base algebra is M_n(k), noncommutative for n > 1, and for Q not
    scalar S^2 is not the identity on it."""
    m = n * n
    d = m * m
    z, one = field.zero(), field.one()
    q = [[field.coerce(v) for v in row] for row in q] if q is not None else \
        [[field.coerce(n if r == c else 0) for c in range(n)] for r in range(n)]
    solved = [solve_affine(matrix_from_rows(field, q), unit_vec(field, n, c))
              for c in range(n)]
    if None in solved:
        raise ValueError("Q is not invertible")
    # qinv[r][c]: entry (r, c) of Q^-1, read from the solution of Q x = e_c
    qinv = [[solved[c].particular[r] for c in range(n)] for r in range(n)]
    trace = z
    for r in range(n):
        trace = field.add(trace, qinv[r][r])
    if trace != one:
        raise ValueError("Tr(Q^-1) must be 1")
    mult, comult, anti = [z] * d ** 3, [z] * d ** 3, [z] * d * d
    unit, counit = [z] * d, [z] * d
    quads = list(itertools.product(range(n), repeat=4))
    for x, (i, j, k, l) in enumerate(quads):
        for j2, k2 in itertools.product(range(n), repeat=2):
            # (E_ij (x) E_kl)(E_j j2 (x) E_k2 k) = E_i j2 (x) E_k2 l
            y, xy = (j * n + j2) * m + k2 * n + k, (i * n + j2) * m + k2 * n + l
            mult[(x * d + y) * d + xy] = one
        for p, c, r in itertools.product(range(n), repeat=3):
            # (E_ij (x) E_pc) (x) (Q^-1_rc E_rp (x) E_kl)
            left, right = x // m * m + p * n + c, (r * n + p) * m + x % m
            comult[(x * d + left) * d + right] = qinv[r][c]
        for r, c in itertools.product(range(n), repeat=2):
            # E_kl (x) Q_ri Q^-1_jc E_rc
            anti[(x % m * m + r * n + c) * d + x] = field.mul(q[r][i], qinv[j][c])
        if i == j and k == l:
            unit[x] = one
        if j == k:
            counit[x] = q[l][i]
    labels = tuple(f"E{i}{j}_E{k}{l}" for i, j, k, l in quads)
    algebra = AlgebraPresentation(field, d, labels, Tensor3(field, d, d, d, tuple(mult)),
                                  tuple(unit))
    coalgebra = CoalgebraPresentation(field, d, Tensor3(field, d, d, d, tuple(comult)),
                                      tuple(counit))
    return WeakHopfPresentation(algebra, coalgebra, Matrix(field, d, d, tuple(anti)))


# a Q not scalar with Tr(Q^-1) = 1 for matrix_pair_weak_hopf(2, field, Q), by
# the characteristic of the field; over GF(3) no diagonal Q is not scalar
NON_SCALAR_Q = {0: ((3, 0), (0, Fraction(3, 2))), 3: ((2, 1), (0, 2)), 5: ((3, 0), (0, 4))}


def dual_algebra(c) -> AlgebraPresentation:
    """The algebra dual to a coalgebra presentation: e^p e^q = sum_i
    Delta_i^{pq} e^i, with unit eps."""
    f, n = c.field, c.dim
    mult = [f.zero()] * n ** 3
    for i, p, q, t in c.comult.nonzeros():
        mult[(p * n + q) * n + i] = t
    return AlgebraPresentation(f, n, tuple(f"b{i}" for i in range(n)),
                               Tensor3(f, n, n, n, tuple(mult)), c.counit)


def dense_rank(field: FieldSpec, rows) -> int:
    """Rank of dense rows by Gaussian elimination on lists, without the
    package's eliminator."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            c = field.mul(rows[r][col], inv)
            if c != 0:
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def generated_dim(a, gens) -> int:
    """Dimension of the subalgebra of a generated by the basis elements
    e_g, g in gens: words in them, from the unit, multiplied out with the
    dense product tensor until no product raises the rank."""
    f, n = a.field, a.dim

    def times(u, g):
        out = [f.zero()] * n
        for i in range(n):
            if u[i] != 0:
                for k in range(n):
                    out[k] = f.add(out[k], f.mul(u[i], a.mult.at(i, g, k)))
        return tuple(out)

    words = [tuple(a.unit)]
    rank = dense_rank(f, words)
    grown = True
    while grown:
        grown = False
        for u in list(words):
            for g in gens:
                w = times(u, g)
                if dense_rank(f, words + [w]) > rank:
                    words.append(w)
                    rank += 1
                    grown = True
    return rank
