"""Rules on the package source that no run of the solvers would show."""

import ast
import pathlib

import maschke_kit

SOURCES = sorted(pathlib.Path(maschke_kit.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop checking
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []


BALANCED_BUILDERS = {"finalg.py": ("separability_system", "coseparability_system"),
                     "hopfcat.py": ("separability_family_system",),
                     "hopfalgd.py": ("separability_system_hgd", "coseparability_system_hgd")}


def _is_balanced_call(node) -> bool:
    return (isinstance(node, ast.Return) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "_balanced_system")


def test_separability_builders_are_one_balanced_system_call():
    # every (co)separability system is one balanced-element system: its body is
    # a docstring and `return _balanced_system(...)`, with no rows of its own
    bodies = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and \
                    node.name in BALANCED_BUILDERS.get(path.name, ()):
                body = node.body
                if ast.get_docstring(node) is not None:
                    body = body[1:]
                bodies[f"{path.name}:{node.name}"] = \
                    len(body) == 1 and _is_balanced_call(body[0])
    assert len(bodies) == 5
    assert all(bodies.values()), bodies


ROW_BUILDERS = {"finalg.py": ("separability_system", "coseparability_system"),
                "weakhopf.py": ("integral_system", "cointegral_system"),
                "hopfcat.py": ("separability_family_system", "retraction_system",
                               "integral_family_system"),
                "hopfalgd.py": ("separability_system_hgd", "coseparability_system_hgd",
                                "integral_system_hgd", "cointegral_system_hgd")}


class _CallSites(ast.NodeVisitor):
    """module.function (nested names joined by dots) of every call whose
    callee passes is_callee."""

    def __init__(self, module, is_callee):
        self.scope, self.is_callee, self.found = [module], is_callee, set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if self.is_callee(node.func):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def _call_sites(is_callee) -> set:
    found = set()
    for path in SOURCES:
        sites = _CallSites(path.stem, is_callee)
        sites.visit(ast.parse(path.read_text(), str(path)))
        found |= sites.found
    return found


def test_every_system_comes_from_one_row_builder():
    # rows are made in one place, so every system shares one construction
    # and one later certificate of infeasibility; _row_space only spans rows
    assert _call_sites(lambda f: isinstance(f, ast.Name) and f.id == "ConstraintSystem") \
        == {"finalg._balanced_system", "exactlin._row_space"}
    # _balanced_system appends its finished rows itself, the one place that
    # does; ConstraintSystem has no add_row (tests/denselin.add_row)
    assert _call_sites(lambda f: isinstance(f, ast.Attribute) and f.attr == "add_row") \
        == set()
    assert _call_sites(lambda f: isinstance(f, ast.Attribute) and f.attr == "append"
                       and isinstance(f.value, ast.Attribute) and f.value.attr == "rows") \
        == {"finalg._balanced_system"}
    ends = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef) and \
                    node.name in ROW_BUILDERS.get(path.name, ()):
                ends[f"{path.name}:{node.name}"] = _is_balanced_call(node.body[-1])
    assert len(ends) == 11
    assert all(ends.values()), ends


def test_solutions_are_checked_by_membership_not_by_rebuilt_rows():
    # solve() certifies each solution set against its rows once; every later
    # check is membership in that set, and the rows are rebuilt and checked
    # only to confirm a miss
    sites = _call_sites(lambda f: isinstance(f, ast.Attribute) and f.attr == "satisfied_by")
    assert {site for site in sites if not site.startswith("exactlin.")} == {"weakhopf._solves"}
    # solve() certifies through the public satisfied_by, which the
    # benchmark's tracer wraps by name as the verify layer
    assert {site for site in sites if site.startswith("exactlin.")} == \
        {"exactlin.ConstraintSystem.solve"}


def _named(*names):
    """A callee test for calls of any of names, bare or as an attribute."""
    return lambda f: (isinstance(f, ast.Name) and f.id in names) or \
        (isinstance(f, ast.Attribute) and f.attr in names)


def test_generator_rows_stay_in_the_system_builders():
    # the separability systems have rows for algebra generators only, and the
    # certificates check every basis element: only the three builders ask for
    # generators, so _balanced_certificate never sees filtered terms
    assert _call_sites(_named("_generators", "_dual_generators")) == {
        "finalg.separability_system", "finalg.coseparability_system",
        "hopfalgd.separability_system_hgd"}


def test_row_reduction_lives_in_exactlin():
    # one eliminator: a pivot row is scaled by a field inverse only in
    # exactlin, and the generator closure reduces through exactlin's one
    # forward-reduction step
    inverses = _call_sites(_named("inv"))
    assert inverses and {site.split(".")[0] for site in inverses} == {"exactlin"}
    assert _call_sites(_named("_reduce_on_arrival")) == {
        "exactlin.ConstraintSystem._eliminate", "finalg._closure_generators.enters"}


def test_only_exactlin_owns_the_rational_type():
    # FieldSpec alone decides how a Q scalar is held (an int when integral,
    # otherwise a Fraction in lowest terms), so no other module may build one
    imports = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            if any(name and name.split(".")[0] == "fractions" for name in names):
                imports.add(path.stem)
    calls = _call_sites(lambda f: (isinstance(f, ast.Name) and f.id == "Fraction")
                        or (isinstance(f, ast.Attribute) and f.attr == "Fraction"))
    assert imports == {"exactlin"}
    assert calls and {site.split(".")[0] for site in calls} == {"exactlin"}


DENSE_MULTIPLICATION = ("left_mult_matrix", "right_mult_matrix", "mult_matrix", "comult_vec")


DENSE_MATRIX_METHODS = ("identity", "__sub__", "from_rows")


def test_no_dense_multiplication_matrix():
    # validation and systems read the sparse product tables and Delta grouped
    # by source; the dense multiplication matrices, the dense comultiplication
    # of a vector, the identity, the matrix difference and the matrix from
    # dense rows live in tests/denselin.py as oracles only
    from maschke_kit.exactlin import Matrix
    from maschke_kit.finalg import CoalgebraPresentation
    defined = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in DENSE_MULTIPLICATION:
                defined.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "Matrix":
                defined |= {f"{path.stem}.Matrix.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name in DENSE_MATRIX_METHODS}
    assert defined == set()
    assert _call_sites(_named(*DENSE_MULTIPLICATION, "__sub__")) == set()
    assert _call_sites(lambda f: isinstance(f, ast.Attribute)
                       and f.attr in ("identity", "from_rows")
                       and isinstance(f.value, ast.Name) and f.value.id == "Matrix") == set()
    assert not any(hasattr(Matrix, name) for name in DENSE_MATRIX_METHODS)
    assert not hasattr(CoalgebraPresentation, "comult_vec")
    # the benchmark's tracer wraps Matrix.__matmul__ by name, so it stays
    assert callable(Matrix.__matmul__)


DENSE_APPLICATIONS = ("apply", "mult_vec", "vec_scale", "transpose", "membership", "add_row")


def test_weak_hopf_layer_reads_sparse_columns():
    # every module applies a linear map through its sparse columns
    # (finalg._apply_sparse) and multiplies through the product table: no
    # dense matrix applied or transposed, dense product, scaled vector,
    # membership wrapper, row added one at a time or matrix product.  The
    # dense forms live in tests/denselin.py as oracles.
    from maschke_kit.exactlin import ConstraintSystem, Matrix
    from maschke_kit.finalg import AlgebraPresentation
    assert _call_sites(_named(*DENSE_APPLICATIONS)) == set()
    products = [f"{path.name}:{node.lineno}"
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)]
    assert products == []
    assert not any(hasattr(Matrix, name) for name in ("apply", "transpose"))
    assert not hasattr(AlgebraPresentation, "mult_vec")
    assert not hasattr(ConstraintSystem, "add_row")


RETIRED_COLUMN_STORES = ("_sparse_cols", "_projection_cols", "_base_images", "_comp_cols")


class _ColumnGroupings(ast.NodeVisitor):
    """module.function of every loop over a matrix's nonzeros(), (row, column,
    value) triples, whose body indexes something by the column or passes it
    first to a method (d.setdefault(column, ...))."""

    def __init__(self, module):
        self.scope, self.found = [module], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def _check(self, target, iterable, body):
        if not (isinstance(iterable, ast.Call) and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr == "nonzeros" and isinstance(target, ast.Tuple)
                and len(target.elts) == 3 and isinstance(target.elts[1], ast.Name)):
            return
        column = target.elts[1].id
        for node in (n for part in body for n in ast.walk(part)):
            keyed = (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Name)
                     and node.slice.id == column) or \
                (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.args and isinstance(node.args[0], ast.Name)
                 and node.args[0].id == column)
            if keyed:
                self.found.add(".".join(self.scope))
                return

    def visit_For(self, node):
        self._check(node.target, node.iter, node.body)
        self.generic_visit(node)

    def _visit_comprehension(self, node):
        parts = [node.elt] if hasattr(node, "elt") else [node.key, node.value]
        for gen in node.generators:
            self._check(gen.target, gen.iter, parts + gen.ifs)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_GeneratorExp = visit_DictComp = \
        _visit_comprehension


def test_exactlin_owns_the_sparse_form_of_maps_and_subspaces():
    # a map is read sparsely only through Matrix.columns, stored on the
    # matrix, and a subspace tests membership through its sparse echelon
    # rows: no module keeps its own column store, Subspace has no dense
    # reduction, and no other function groups a matrix's nonzeros by column
    from maschke_kit.exactlin import Matrix, Subspace
    defined = {f"{path.stem}.{node.name}"
               for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.FunctionDef) and node.name in RETIRED_COLUMN_STORES}
    assert defined == set()
    assert not hasattr(Subspace, "reduce")
    grouping = set()
    for path in SOURCES:
        visitor = _ColumnGroupings(path.stem)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        grouping |= visitor.found
    assert grouping == {"exactlin.Matrix.columns"}
    assert callable(Matrix.columns)


class _AttributeReads(_CallSites):
    """module.function of every read of the attribute attr."""

    def __init__(self, module, attr):
        super().__init__(module, lambda f: False)
        self.attr = attr

    def visit_Attribute(self, node):
        if node.attr == self.attr and isinstance(node.ctx, ast.Load):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_a_subspace_is_its_sparse_echelon_rows():
    # a Subspace stores its echelon rows as row_terms only: exactlin._row_space
    # alone makes one, from the eliminator's pivot rows; the dense basis is a
    # view that only the CLI report reads; Subspace(field, n, ()) is the zero
    # subspace, so there is no second constructor for it
    from maschke_kit.exactlin import Subspace
    assert Subspace._fields == ("field", "ambient_dim", "row_terms")
    assert _call_sites(_named("Subspace")) == {"exactlin._row_space"}
    basis_reads = set()
    for path in SOURCES:
        visitor = _AttributeReads(path.stem, "basis")
        visitor.visit(ast.parse(path.read_text(), str(path)))
        basis_reads |= visitor.found
    assert basis_reads == {"cli._affine_doc"}
    assert not hasattr(Subspace, "zero")
    assert not any(isinstance(node, ast.Attribute) and node.attr == "zero"
                   and isinstance(node.value, ast.Name) and node.value.id == "Subspace"
                   for path in SOURCES for node in ast.walk(ast.parse(path.read_text())))


def test_one_comultiplicativity_walk_and_one_associativity_walk():
    # "Delta is multiplicative" and associativity are one concept each: the
    # weak Hopf, Hopf-algebroid and Hopf-category checks share the walks in
    # finalg, and hopfcat keeps no composition or associativity helper of its own
    defined = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, set()).add(path.stem)
    assert defined["_comult_products"] == {"finalg"}
    assert defined["_associativity_failures"] == {"finalg"}
    assert "hopfcat" not in defined.get("associative", set()) | defined.get("compose", set())
    assert _call_sites(_named("_comult_products")) == {
        "weakhopf.check_weak_bialgebra", "hopfalgd.check_hopf_algebroid",
        "hopfcat.check_hopf_category"}
    assert _call_sites(_named("_associativity_failures")) == {
        "finalg.check_algebra", "hopfcat.check_hopf_category"}
