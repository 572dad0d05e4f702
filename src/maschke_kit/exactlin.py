"""Exact linear algebra over the rationals and prime fields.

This is the single numeric substrate for every validator and feasibility
solver in the package.  Scalars are plain Python values.  Over Q a scalar is
an ``int`` when it is integral and otherwise a ``fractions.Fraction`` in lowest
terms, so the 0, 1 and -1 of most structure constants stay machine-int
arithmetic; over GF(p) it is an ``int`` residue in ``[0, p)``.
No floating point is used anywhere.

Conventions, fixed globally:

* tensor bases are left-factor major: ``e_j (x) e_k`` has flat index
  ``j * dim_right + k``;
* particular solutions of affine systems set every free variable to zero;
* subspace bases are rows in reduced row echelon form with strictly
  increasing pivot columns.
"""

from __future__ import annotations

import operator
from math import lcm

# fractions.Fraction once _load_fractions has run: a process whose scalars all
# stay integral (every GF(p) run, most Q runs) never imports fractions.
Fraction = None

# Dense carriers are meant for desk scale; one flat coordinate axis may not
# exceed this.
MAX_AXIS = 4096

_MAX_PRIME = 2**31

# A scalar token may carry at most this many digits and a decimal exponent of
# at most this size: Fraction("1e999999999") would build 10**999999999.
MAX_SCALAR_DIGITS = 4000

_setattr = object.__setattr__


def _bounded_token(text: str) -> str:
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if sum(ch.isdigit() for ch in text) > MAX_SCALAR_DIGITS or \
            (exponent.isdecimal() and int(exponent) > MAX_SCALAR_DIGITS):
        raise ValueError(f"scalar token {text[:40]!r} exceeds {MAX_SCALAR_DIGITS} "
                         "digits or exponent")
    return text


def _load_fractions():
    """Bind the module-level name Fraction on first need."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction


def _is_integer_token(text: str) -> bool:
    """ASCII digits with an optional sign: the tokens that int() reads exactly
    as Fraction does."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def _canonical(q: Fraction):
    """The canonical Q scalar of q: its numerator when q is integral."""
    return q.numerator if q.denominator == 1 else q


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3_215_031_751 (covers 2**31)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FrozenInstanceError(AttributeError):
    """Raised on assignment to or deletion of an attribute of a Frozen record."""


class Frozen:
    """Base of the immutable value records.

    The fields are the subclass's own annotations, in order, with class-level
    values as defaults.  Construction takes fields positionally or by keyword
    and then calls ``__post_init__``, which a record may override; equality and
    hash compare the field values between instances of one class.  Extra state
    goes in only through ``object.__setattr__``.
    """

    def __init_subclass__(cls):
        if cls.__bases__ != (Frozen,):
            raise TypeError("a Frozen record cannot be subclassed")
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._key = operator.attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name = type(self).__name__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
            values = dict(zip(fields, args))
            for k, v in kwargs.items():
                if k not in fields or k in values:
                    raise TypeError(f"{name}() got an unknown or repeated field {k!r}")
                values[k] = v
            values = {**self._defaults, **values}
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name}() is missing fields {missing}")
            args = [values[f] for f in fields]
        # Not __dict__.update: materialising __dict__ slows every later attribute read.
        for f, v in zip(fields, args):
            _setattr(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _q_add(a, b):
    c = a + b
    return c if type(c) is int else _canonical(c)


def _q_sub(a, b):
    c = a - b
    return c if type(c) is int else _canonical(c)


def _q_mul(a, b):
    c = a * b
    return c if type(c) is int else _canonical(c)


def _q_reduce(x):
    return x if type(x) is int else _canonical(x)


def _gf_ops(p: int) -> tuple:
    """add, sub, mul, neg and reduce of GF(p), as closures over p."""

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def mul(a, b):
        return a * b % p

    def neg(a):
        return -a % p

    def reduce(x):
        return x % p

    return add, sub, mul, neg, reduce


class FieldSpec(Frozen):
    """An exact coefficient field: Q (characteristic 0) or GF(p).

    ``add``, ``sub``, ``mul``, ``neg`` and ``reduce`` are bound once per
    field when it is made, so a call tests no characteristic: over Q they
    return an ``int`` when the value is integral and otherwise a ``Fraction``
    in lowest terms, over GF(p) a residue in [0, p).  ``reduce(x)`` gives the
    canonical scalar of x, an exact int or Fraction sum of products of
    canonical scalars: one reduction for the whole sum.
    """

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p == 0:
            ops = (_q_add, _q_sub, _q_mul, operator.neg, _q_reduce)
        else:
            if p >= _MAX_PRIME:
                raise ValueError(f"prime field modulus {p} exceeds 2**31")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            ops = _gf_ops(p)
        for name, op in zip(("add", "sub", "mul", "neg", "reduce"), ops):
            _setattr(self, name, op)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(0)

    @staticmethod
    def gf(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @property
    def kind(self) -> str:
        return "Q" if self.characteristic == 0 else "Fp"

    def __str__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        """Canonical scalar from an int, Fraction or text token.

        Over Q a value is an ``int`` when it is integral and otherwise a
        ``Fraction`` in lowest terms; over GF(p) it is an ``int`` in [0, p).
        """
        p = self.characteristic
        # A canonical scalar comes back unchanged.  The exact type tests keep
        # bool (a subclass of int) on the path below, which refuses it.
        if p == 0:
            if type(x) is int:
                return x
            if type(x) is Fraction:
                return _canonical(x)
        elif type(x) is int and 0 <= x < p:
            return x
        if isinstance(x, str):
            x = _bounded_token(x)
            if _is_integer_token(x):
                x = int(x)
            else:
                _load_fractions()
                x = Fraction(x)
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return int(x) if p == 0 else x % p
        # only a Fraction is left to accept, and a Fraction exists only once
        # fractions is imported
        _load_fractions()
        if p == 0:
            if isinstance(x, Fraction):
                return _canonical(Fraction(x))
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ValueError(f"denominator of {x} vanishes mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        raise TypeError(f"cannot coerce {x!r} into GF({p})")

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            if type(a) is int:
                if a == 1 or a == -1:
                    return a
                _load_fractions()
                return Fraction(1, a)
            return _canonical(1 / a)
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.characteristic)

    def parse_scalar(self, text: str):
        """Text encoding: "a/b" or "a" over Q, decimal digits over GF(p)."""
        if not isinstance(text, str):
            raise TypeError(f"scalar token must be text, got {text!r}")
        try:
            return self.coerce(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"scalar token {text!r} has a zero denominator") from None

    def format_scalar(self, value) -> str:
        return str(self.coerce(value))


def _check_axis(n: int, what: str):
    if not 0 <= n <= MAX_AXIS:
        raise ValueError(f"{what} {n} outside supported range 0..{MAX_AXIS}")


def _same_field(a, b):
    if a.field != b.field:
        raise ValueError("mixed-field input rejected")


# ---------------------------------------------------------------------------
# vectors: plain tuples of scalars


def unit_vec(field: FieldSpec, n: int, i: int) -> tuple:
    z, o = field.zero(), field.one()
    return tuple(o if j == i else z for j in range(n))


def vec_sub(field: FieldSpec, u, v) -> tuple:
    return tuple(field.sub(a, b) for a, b in zip(u, v, strict=True))


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


class Matrix(Frozen):
    """Dense row-major matrix over one FieldSpec."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        _check_axis(self.rows, "row count")
        _check_axis(self.cols, "column count")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix(field, rows, cols, (field.zero(),) * (rows * cols))

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j :: self.cols] if self.cols else ()

    def __matmul__(self, other: "Matrix") -> "Matrix":
        # Sparse-aware: iterates nonzeros only, which keeps composites of
        # structure-constant matrices near-linear.
        _same_field(self, other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero()
        bc = other.cols
        brows = [other.row(k) for k in range(other.rows)]
        out = [zero] * (self.rows * bc)
        for i in range(self.rows):
            base = i * bc
            arow = self.row(i)
            for k, a in enumerate(arow):
                if a == 0:
                    continue
                brow = brows[k]
                for j, b in enumerate(brow):
                    if b == 0:
                        continue
                    out[base + j] = add(out[base + j], mul(a, b))
        return Matrix(f, self.rows, bc, tuple(out))

    def nonzeros(self):
        """Yield (i, j, value) over nonzero entries."""
        nc = self.cols
        for idx, v in enumerate(self.entries):
            if v != 0:
                yield idx // nc, idx % nc, v

    def columns(self) -> tuple:
        """cols[c] = ((row, value), ...) over the nonzero entries of column c,
        the form in which every map is applied; built once and stored on the
        matrix (equality, hash and repr read the fields only)."""
        try:
            return self._columns
        except AttributeError:
            pass
        cols = [[] for _ in range(self.cols)]
        for i, c, v in self.nonzeros():
            cols[c].append((i, v))
        cols = tuple(map(tuple, cols))
        _setattr(self, "_columns", cols)
        return cols


class Tensor3(Frozen):
    """Order-3 structure-constant tensor, entries indexed [i][j][k]."""

    field: FieldSpec
    d0: int
    d1: int
    d2: int
    entries: tuple

    def __post_init__(self):
        for d in (self.d0, self.d1, self.d2):
            _check_axis(d, "tensor axis")
        if len(self.entries) != self.d0 * self.d1 * self.d2:
            raise ValueError("entry count does not match d0*d1*d2")
        nz = tuple(
            (idx // (self.d1 * self.d2),
             idx // self.d2 % self.d1,
             idx % self.d2,
             v)
            for idx, v in enumerate(self.entries) if v != 0
        )
        object.__setattr__(self, "_nonzeros", nz)

    @staticmethod
    def from_nested(field: FieldSpec, nested) -> "Tensor3":
        d0 = len(nested)
        d1 = len(nested[0]) if d0 else 0
        d2 = len(nested[0][0]) if d0 and d1 else 0
        ent = []
        for plane in nested:
            if len(plane) != d1:
                raise ValueError("ragged tensor")
            for row in plane:
                if len(row) != d2:
                    raise ValueError("ragged tensor")
                ent.extend(field.coerce(x) for x in row)
        return Tensor3(field, d0, d1, d2, tuple(ent))

    @staticmethod
    def zeros(field: FieldSpec, d0: int, d1: int, d2: int) -> "Tensor3":
        return Tensor3(field, d0, d1, d2, (field.zero(),) * (d0 * d1 * d2))

    def at(self, i: int, j: int, k: int):
        return self.entries[(i * self.d1 + j) * self.d2 + k]

    def nonzeros(self) -> tuple:
        return self._nonzeros

    def with_entry(self, i: int, j: int, k: int, value) -> "Tensor3":
        ent = list(self.entries)
        ent[(i * self.d1 + j) * self.d2 + k] = self.field.coerce(value)
        return Tensor3(self.field, self.d0, self.d1, self.d2, tuple(ent))


# ---------------------------------------------------------------------------
# echelon forms, subspaces, quotients


class Subspace(Frozen):
    """A subspace of field^ambient_dim given by its reduced echelon rows,
    ((column, value), ...) over the nonzeros of each row in column order, led
    by (pivot, 1); ``pivots`` strictly increase and each is nonzero in its
    own row only.  ``basis`` is a dense view of the rows, built on each read."""

    field: FieldSpec
    ambient_dim: int
    row_terms: tuple

    def __post_init__(self):
        n = self.ambient_dim
        _check_axis(n, "ambient dimension")
        pivots = []
        for row in self.row_terms:
            if not row:
                raise ValueError("zero row in subspace basis")
            lead, value = row[0]
            if pivots and lead <= pivots[-1]:
                raise ValueError("pivot columns not strictly increasing")
            if value != 1:
                raise ValueError("pivot entry must be 1")
            if not 0 <= lead <= row[-1][0] < n:
                raise ValueError("row columns outside ambient_dim")
            pivots.append(lead)
        pivset = set(pivots)
        for row in self.row_terms:
            if not pivset.isdisjoint([c for c, _ in row[1:]]):
                raise ValueError("pivot column not reduced")
        _setattr(self, "pivots", tuple(pivots))

    @property
    def dim(self) -> int:
        return len(self.row_terms)

    def _dense_rows(self):
        """Each echelon row as a dense list of ambient_dim scalars."""
        for row in self.row_terms:
            v = [0] * self.ambient_dim
            for c, t in row:
                v[c] = t
            yield v

    @property
    def basis(self) -> Matrix:
        entries = tuple(x for v in self._dense_rows() for x in v)
        return Matrix(self.field, self.dim, self.ambient_dim, entries)

    def contains(self, vec) -> bool:
        return self.coords(vec) is not None

    def coords(self, vec):
        """Coordinates w.r.t. the echelon basis, or None if not a member.

        The basis is reduced, so vec is a member iff it equals the sum of
        vec[p] times the row of pivot p over the pivots p; each entry of that
        sum is one raw int or Fraction sum, reduced once.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        f = self.field
        v = list(map(f.coerce, vec))
        coords = tuple(v[p] for p in self.pivots)
        acc = [0] * self.ambient_dim
        for c, row in zip(coords, self.row_terms):
            if c != 0:
                for j, t in row:
                    acc[j] += c * t
        return coords if list(map(f.reduce, acc)) == v else None


class AffineSolution(Frozen):
    """Solution set of a feasible affine system: particular + null space."""

    particular: tuple
    homogeneous: Subspace


class QuotientSpace(Frozen):
    """Quotient of k^ambient by relations; coordinate r is ambient free[r]."""

    ambient_dim: int
    relations: Subspace
    projection: Matrix
    free: tuple

    @property
    def dim(self) -> int:
        return self.projection.rows


def quotient_space(ambient_dim: int, relations: Subspace) -> QuotientSpace:
    """The projection with ker(projection) = relations.

    Quotient coordinates are the non-pivot ambient coordinates of the
    relation basis, so the projection is the identity on them.
    """
    if relations.ambient_dim != ambient_dim:
        raise ValueError("relation subspace has wrong ambient dimension")
    f = relations.field
    pivots = relations.pivots
    pivset = set(pivots)
    free = tuple(c for c in range(ambient_dim) if c not in pivset)
    coord = {c: r for r, c in enumerate(free)}
    proj = [f.zero()] * (len(free) * ambient_dim)
    for r, c in enumerate(free):
        proj[r * ambient_dim + c] = f.one()
    # a reduced row is 1 at its pivot and otherwise nonzero on free columns only
    for p, row in zip(pivots, relations.row_terms):
        for c, v in row[1:]:
            proj[coord[c] * ambient_dim + p] = f.neg(v)
    return QuotientSpace(ambient_dim, relations,
                         Matrix(f, len(free), ambient_dim, tuple(proj)), free)


# ---------------------------------------------------------------------------
# sparse incremental eliminator


def _reduce_on_arrival(f: FieldSpec, pivots: dict, row: dict, rhs):
    """One forward-elimination step: reduce the sparse row (row, rhs) by the
    pivot rows {column: (row, rhs)}, each scaled to 1 at its column.

    A row with a column left is scaled to 1 at its least column, stored as
    that column's pivot row, and None is returned; otherwise the reduced
    right-hand side is returned (nonzero: the row is inconsistent).  row is
    consumed.
    """
    mul, reduce = f.mul, f.reduce
    while row:
        c = min(row)
        hit = pivots.get(c)
        if hit is None:
            s = f.inv(row.pop(c))
            if s != 1:
                row = {k: mul(s, v) for k, v in row.items()}
                rhs = mul(s, rhs)
            pivots[c] = (row, rhs)
            return None
        t = row.pop(c)
        prow, prhs = hit
        for k, v in prow.items():
            nv = reduce(row.get(k, 0) - t * v)
            if nv == 0:
                row.pop(k, None)
            else:
                row[k] = nv
        if prhs != 0:
            rhs = reduce(rhs - t * prhs)
    return rhs


class ConstraintSystem:
    """Accumulates sparse rows of one affine system and solves it exactly.

    Rows are dictionaries ``column -> coefficient``.  ``solve`` runs an
    incremental Gauss-Jordan elimination that only ever stores the reduced
    pivot rows, so systems with many redundant structure-constant equations
    stay cheap.  Every produced solution set is certified against the stored
    rows before it is returned: the particular solution satisfies every row,
    and every kernel basis vector satisfies every row with right-hand side
    zero, so every member of the set solves the system.
    """

    def __init__(self, field: FieldSpec, nvars: int):
        self.field = field
        self.nvars = nvars
        self.rows: list = []
        # the fully reduced pivot rows of a feasible solve, {column: (row, rhs)}
        self.pivots = None

    def satisfied_by(self, x, homogeneous: bool = False) -> bool:
        """Exact residual check of every stored row at x, against right-hand
        side zero when homogeneous.

        Each row is one native integer sum: over GF(p) reduced once mod p;
        over Q taken at D x, for D the least common multiple of the
        denominators of x, and compared with D times the right-hand side.
        """
        if len(x) != self.nvars:
            raise ValueError("candidate length mismatch")
        f = self.field
        xs = list(map(f.coerce, x))
        p = f.characteristic
        if p:
            for coeffs, rhs in self.rows:
                acc = 0
                for c, v in coeffs.items():
                    acc += v * xs[c]
                if acc % p != (0 if homogeneous else rhs):
                    return False
            return True
        d = 1
        for v in xs:
            if type(v) is not int:
                d = lcm(d, v.denominator)
        if d != 1:
            xs = [v * d if type(v) is int else v.numerator * (d // v.denominator)
                  for v in xs]
        for coeffs, rhs in self.rows:
            acc = 0
            for c, v in coeffs.items():
                acc += v * xs[c]
            if acc != (0 if homogeneous else rhs * d):
                return False
        return True

    def _eliminate(self, primed=None):
        """Forward elimination, then back substitution; returns the pivot map
        or None when inconsistent.  With primed, the elimination resumes from
        its pivot rows: fully reduced, each still led by its pivot column."""
        f = self.field
        reduce = f.reduce
        pivots: dict = {} if primed is None else \
            {c: (dict(row), rhs) for c, (row, rhs) in primed.pivots.items()}
        for coeffs, rhs in self.rows:
            rest = _reduce_on_arrival(f, pivots, dict(coeffs), rhs)
            if rest is not None and rest != 0:
                return None
        # back substitution: leave each pivot row supported on free columns only
        for c in sorted(pivots, reverse=True):
            row, rhs = pivots[c]
            for k in sorted(list(row)):
                hit = pivots.get(k)
                if hit is None:
                    continue
                t = row.pop(k)
                prow, prhs = hit
                for k2, v in prow.items():
                    nv = reduce(row.get(k2, 0) - t * v)
                    if nv == 0:
                        row.pop(k2, None)
                    else:
                        row[k2] = nv
                if prhs != 0:
                    rhs = reduce(rhs - t * prhs)
            pivots[c] = (row, rhs)
        return pivots

    def solve(self, primed=None):
        """AffineSolution with canonical particular, or None if infeasible.

        primed, a solved feasible system on the same unknowns, adds its rows:
        the elimination resumes from its pivot rows and the solution set is
        certified against the rows of both; the reduced echelon form is
        unique, so it is the solution set of all rows solved from scratch."""
        f = self.field
        if primed is not None and (primed.pivots is None or primed.nvars != self.nvars):
            raise ValueError("primed must be a solved feasible system on the same unknowns")
        pivots = self._eliminate(primed)
        if pivots is None:
            return None
        zero, one = f.zero(), f.one()
        x = [zero] * self.nvars
        for c, (_, rhs) in pivots.items():
            x[c] = rhs
        particular = tuple(x)
        # one null-space vector per free column; pivot rows hold free columns only
        kern_rows = {fc: {fc: one} for fc in range(self.nvars) if fc not in pivots}
        for c, (row, _) in pivots.items():
            for fc, coef in row.items():
                kern_rows[fc][c] = f.neg(coef)
        homogeneous = _row_space(f, self.nvars, kern_rows.values())
        systems = (self,) if primed is None else (primed, self)
        if not all(s.satisfied_by(particular) for s in systems):
            raise ArithmeticError("eliminator produced an unverified solution")
        if not all(s.satisfied_by(v, True)
                   for v in homogeneous._dense_rows() for s in systems):
            raise ArithmeticError("eliminator produced an unverified kernel vector")
        self.pivots = pivots
        return AffineSolution(particular, homogeneous)


def _row_space(field: FieldSpec, dim: int, sparse_rows) -> Subspace:
    """Canonical echelon basis of the span of sparse rows of field scalars."""
    system = ConstraintSystem(field, dim)
    system.rows = [(row, 0) for row in sparse_rows]
    pivots = system._eliminate()
    return Subspace(field, dim, tuple(((c, 1), *sorted(pivots[c][0].items()))
                                      for c in sorted(pivots)))
