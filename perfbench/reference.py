"""Reference checks that call no ``maschke_kit`` solver.

Everything here is computed from the structure constants in the generated
files, with ``fractions`` and ints:

* verdicts from the classical criteria: kG has integrals and is separable iff
  p does not divide |G|, and always has cointegrals and is coseparable; the
  dual group algebra k^G the reverse; groupoid algebras and Hopf categories
  follow p and the order of the vertex groups; pair Hopf algebroids have
  every structure (see CHANGES.md for the witnesses); a commutative algebra
  is separable iff its trace form is nondegenerate;
* the unique normalized integral (1/|G|) sum g and cointegral delta_e of kG,
  and d_e and (1/|G|) sum ev_g of k^G;
* mu(e) = 1 and x e = e x for every returned separability element e;
* P . delta = id for every returned retraction P;
* each mutant is accepted exactly when it satisfies the weak Hopf axioms
  (see ``weak_hopf_violations``), is rejected with a witness otherwise, and
  has Maschke verdict "pass" when accepted; a mutant that breaks only the
  third antipode axiom and is accepted is reported as ``KNOWN_GAP`` (see
  ``check_mutant``);
* perturbed lifts give the verdicts of the unperturbed algebroid; defect
  files exit 3 and name the broken law.

Each check returns a list of problems; an empty list means the output agrees.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Structure:
    """The structure constants of one file, over Q (p = 0) or GF(p)."""

    def __init__(self, doc):
        self.kind = doc["kind"]
        field = doc.get("field")
        self.p = 0 if field is None or field["kind"] == "Q" else field["p"]
        payload = doc["payload"]
        self.payload = payload
        if self.kind in ("weakhopf", "commalgebra"):
            self.n = payload["dim"]
            self.prod = self._products(payload["mult"])
            self.unit = self.vec(payload["unit"])
        if self.kind == "weakhopf":
            self.comult = {}
            for i, plane in enumerate(payload["comult"]):
                for j, row in enumerate(plane):
                    for k, tok in enumerate(row):
                        c = self.scalar(tok)
                        if not self.is_zero(c):
                            self.comult.setdefault(i, []).append((j, k, c))
            self.counit = self.vec(payload["counit"])

    @staticmethod
    def load(path) -> "Structure":
        with open(path, encoding="utf-8") as fh:
            return Structure(json.load(fh))

    def scalar(self, tok):
        x = Fraction(tok)
        if self.p:
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x

    def vec(self, toks):
        return [self.scalar(t) for t in toks]

    def is_zero(self, x):
        return x % self.p == 0 if self.p else x == 0

    def same(self, u, v):
        return len(u) == len(v) and all(self.is_zero(a - b) for a, b in zip(u, v))

    def inverse(self, m):
        return pow(m, -1, self.p) if self.p else Fraction(1, m)

    def _products(self, mult):
        prod = {}
        for i, plane in enumerate(mult):
            for j, row in enumerate(plane):
                prod[(i, j)] = [(k, c) for k, c in
                                ((k, self.scalar(t)) for k, t in enumerate(row))
                                if not self.is_zero(c)]
        return prod

    def mul(self, u, v):
        out = [0] * self.n
        for i, a in enumerate(u):
            if self.is_zero(a):
                continue
            for j, b in enumerate(v):
                if self.is_zero(b):
                    continue
                for k, c in self.prod[(i, j)]:
                    out[k] += a * b * c
        return out

    def basis(self, i):
        return [1 if k == i else 0 for k in range(self.n)]


# ---------------------------------------------------------------------------
# classical verdicts


def group_order(s: Structure, family: str) -> int:
    """|G| for kG or k^G, after checking the file has that shape."""
    n = s.n
    if family == "group-algebra":
        for i in range(n):
            for j in range(n):
                terms = s.prod[(i, j)]
                if len(terms) != 1 or not s.is_zero(terms[0][1] - 1):
                    raise ValueError("not a group algebra: product is not a basis element")
        if sum(1 for x in s.unit if not s.is_zero(x)) != 1:
            raise ValueError("not a group algebra: unit is not a basis element")
    elif family == "dual-group-algebra":
        for i in range(n):
            for j in range(n):
                want = [(i, 1)] if i == j else []
                if [(k, c % s.p if s.p else c) for k, c in s.prod[(i, j)]] != want:
                    raise ValueError("not a dual group algebra: basis not orthogonal idempotents")
    else:
        raise ValueError(f"no group order for family {family!r}")
    return n


def vertex_group_orders(s: Structure) -> list:
    """Orders of the vertex groups of a groupoid algebra, read off the table:
    the identities are the basis elements in the unit, and the vertex group
    at x is the set of f with x f = f = f x."""
    ids = [i for i in range(s.n) if not s.is_zero(s.unit[i])]
    orders = []
    for x in ids:
        count = 0
        for f in range(s.n):
            left = s.prod[(x, f)]
            right = s.prod[(f, x)]
            if left == right and len(left) == 1 and left[0][0] == f:
                count += 1
        orders.append(count)
    return orders


def _prime_to(p, orders):
    return all(p == 0 or m % p for m in orders)


def trace_form_nondegenerate(s: Structure) -> bool:
    """A commutative algebra is separable iff its trace form is nondegenerate."""
    n = s.n
    traces = []
    for i in range(n):
        for j in range(n):
            # trace of left multiplication by e_i e_j
            ij = s.mul(s.basis(i), s.basis(j))
            t = 0
            for k in range(n):
                t += s.mul(ij, s.basis(k))[k]
            traces.append(t)
    rows = [[traces[i * n + j] for j in range(n)] for i in range(n)]
    return _rank(rows, s.p) == n


def _rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(rows))
                    if (rows[r][c] % p if p else rows[r][c]) != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p) if p else 1 / Fraction(rows[rank][c])
        for r in range(len(rows)):
            if r != rank:
                t = rows[r][c] * inv
                rows[r] = [a - t * b for a, b in zip(rows[r], rows[rank])]
                if p:
                    rows[r] = [a % p for a in rows[r]]
        rank += 1
    return rank


def expected(s: Structure, family: str) -> dict:
    """Classical verdicts for the families the workloads generate."""
    p = s.p
    if family == "group-algebra":
        ok = _prime_to(p, [group_order(s, family)])
        return {"integrals": ok, "separability": ok,
                "cointegrals": True, "coseparability": True}
    if family == "dual-group-algebra":
        ok = _prime_to(p, [group_order(s, family)])
        return {"integrals": True, "separability": True,
                "cointegrals": ok, "coseparability": ok}
    if family == "groupoid-algebra":
        ok = _prime_to(p, vertex_group_orders(s))
        return {"integrals": ok, "separability": ok,
                "cointegrals": True, "coseparability": True}
    if family == "hopf-category":
        homs = s.payload["homs"]
        orders = [h["dim"] for h in homs if h["source"] == h["target"]]
        ok = _prime_to(p, orders)
        return {"integrals": ok, "separability": ok,
                "cointegrals": True, "coseparability": True}
    if family in ("pair-algebroid", "lift"):
        return dict.fromkeys(("integrals", "separability", "cointegrals",
                              "coseparability"), True)
    if family == "commalgebra":
        return {"separability": trace_form_nondegenerate(s)}
    raise ValueError(f"no classical verdict for family {family!r}")


# ---------------------------------------------------------------------------
# witnesses


def unique_integral(s: Structure, family: str):
    """The unique normalized (left = right) integral, where it is unique."""
    n = group_order(s, family)
    if family == "group-algebra":
        return [s.inverse(n)] * n
    e = next(i for i in range(n) if not s.is_zero(s.counit[i]))
    return s.basis(e)


def unique_cointegral(s: Structure, family: str):
    n = group_order(s, family)
    if family == "group-algebra":
        e = next(i for i in range(n) if not s.is_zero(s.unit[i]))
        return s.basis(e)
    return [s.inverse(n)] * n


def check_separability_element(s: Structure, toks) -> list:
    """mu(e) = 1 and x e = e x for every basis element x."""
    n = s.n
    e = s.vec(toks)
    if len(e) != n * n:
        return [f"separability element has {len(e)} entries, expected {n * n}"]
    terms = [(a, b, c) for ab, c in enumerate(e) if not s.is_zero(c)
             for a, b in [divmod(ab, n)]]
    mu = [0] * n
    for a, b, c in terms:
        for k, t in s.prod[(a, b)]:
            mu[k] += c * t
    problems = []
    if not s.same(mu, s.unit):
        problems.append("mu(e) != 1")
    for x in range(n):
        left = [0] * (n * n)
        right = [0] * (n * n)
        for a, b, c in terms:
            for k, t in s.prod[(x, a)]:
                left[k * n + b] += c * t
            for k, t in s.prod[(b, x)]:
                right[a * n + k] += c * t
        if not s.same(left, right):
            problems.append(f"x e != e x for basis element {x}")
            break
    return problems


def check_retraction(s: Structure, toks) -> list:
    """P . delta = id, with P[m, (i, j)] at index m n^2 + i n + j."""
    n = s.n
    P = s.vec(toks)
    if len(P) != n ** 3:
        return [f"retraction has {len(P)} entries, expected {n ** 3}"]
    for k in range(n):
        out = [0] * n
        for i, j, c in s.comult.get(k, []):
            for m in range(n):
                out[m] += P[m * n * n + i * n + j] * c
        if not s.same(out, s.basis(k)):
            return [f"P(delta(e_{k})) != e_{k}"]
    return []


def check_witness(s, family, what, toks) -> list:
    """Exact checks of one returned integral, cointegral, separability
    element or retraction, where the reference knows the answer."""
    if what == "separability":
        return check_separability_element(s, toks)
    if what == "coseparability":
        return check_retraction(s, toks)
    if family not in ("group-algebra", "dual-group-algebra"):
        return []
    want = unique_integral(s, family) if what == "integrals" else \
        unique_cointegral(s, family)
    if not s.same(s.vec(toks), want):
        return [f"{what} witness {toks} is not the unique normalized one"]
    return []


# ---------------------------------------------------------------------------
# weakhopf-sweep results

THIRD_ANTIPODE_AXIOM = "antipode S(h1) h2 S(h3) = S(h)"
KNOWN_GAP = "mutant accepted but violates the third antipode axiom, " \
    "S(h1) h2 S(h3) = S(h), which weakhopf.check_antipode does not test"


def sweep_operations(s: Structure, family: str) -> int:
    """The operations ``sweep_worker.py`` attempts on one file when every
    verdict is right: one per mutant; for a corpus case eight (co)integral
    variants, separability, coseparability and one conversion per side of
    each feasible primed (co)integral."""
    if family == "mutant":
        return 1
    exp = expected(s, family)
    return 10 + 2 * exp["integrals"] + 2 * exp["cointegrals"]



def check_sweep_case(s: Structure, family: str, result) -> list:
    exp = expected(s, family)
    problems = []
    for what in ("integrals", "cointegrals"):
        for key, toks in result[what].items():
            if (toks is not None) != exp[what]:
                problems.append(f"{what} {key}: feasible={toks is not None}, "
                                f"expected {exp[what]}")
            elif toks is not None:
                problems += check_witness(s, family, what, toks)
    for what in ("separability", "coseparability"):
        toks = result[what]
        if (toks is not None) != exp[what]:
            problems.append(f"{what}: feasible={toks is not None}, expected {exp[what]}")
        elif toks is not None:
            problems += check_witness(s, family, what, toks)
    for key, toks in result["conversions"].items():
        what = "integrals" if key.startswith("integral") else "cointegrals"
        if toks is None:
            problems.append(f"conversion {key} returned nothing")
        else:
            problems += check_witness(s, family, what, toks)
    for side in ("left", "right"):
        for what, label in (("integrals", "integral"), ("cointegrals", "cointegral")):
            has_primed = result[what][f"{side}/primed"] is not None
            if has_primed != (f"{label} {side}" in result["conversions"]):
                problems.append(f"conversion {label} {side} missing or unexpected")
    return problems


def weak_hopf_violations(s: Structure) -> list:
    """The weak Hopf algebra axioms (Boehm-Nill-Szlachanyi) that s violates.

    Algebra, coalgebra, multiplicative comultiplication, weak unit and weak
    counit, and the three antipode axioms h1 S(h2) = eps(1_1 h) 1_2,
    S(h1) h2 = 1_1 eps(h 1_2) and S(h1) h2 S(h3) = S(h), on basis elements.
    """
    n, unit, counit = s.n, s.unit, s.counit
    basis = [s.basis(i) for i in range(n)]
    table = [[s.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]

    def comult(v):
        out = [0] * (n * n)
        for i, c in enumerate(v):
            if not s.is_zero(c):
                for j, k, t in s.comult.get(i, []):
                    out[j * n + k] += c * t
        return out

    def eps(v):
        return sum(c * e for c, e in zip(v, counit))

    def lin(coeffs, vectors):
        out = [0] * n
        for c, v in zip(coeffs, vectors):
            if not s.is_zero(c):
                for k, x in enumerate(v):
                    out[k] += c * x
        return out

    def unit_product(order):
        """(Delta(1) (x) 1)(1 (x) Delta(1)), or the reverse order: the sum of
        a (x) bc (x) d, or of a (x) cb (x) d, over Delta(1) (x) Delta(1)."""
        out = [0] * (n ** 3)
        for (a, b), c1 in pairs:
            for (c, d), c2 in pairs:
                mid = table[b][c] if order == "straight" else table[c][b]
                for k, t in enumerate(mid):
                    out[(a * n + k) * n + d] += c1 * c2 * t
        return out

    failed = set()
    for i in range(n):
        if not s.same(s.mul(unit, basis[i]), basis[i]) or \
                not s.same(s.mul(basis[i], unit), basis[i]):
            failed.add("unit")
        for j in range(n):
            for k in range(n):
                if not s.same(s.mul(table[i][j], basis[k]), s.mul(basis[i], table[j][k])):
                    failed.add("associativity")
    delta = [comult(b) for b in basis]
    for i in range(n):
        left = [0] * n
        right = [0] * n
        lhs = [0] * (n ** 3)
        rhs = [0] * (n ** 3)
        for j, k, t in s.comult.get(i, []):
            left[k] += counit[j] * t
            right[j] += counit[k] * t
            for p, q, r in s.comult.get(j, []):
                lhs[(p * n + q) * n + k] += t * r
            for p, q, r in s.comult.get(k, []):
                rhs[(j * n + p) * n + q] += t * r
        if not s.same(left, basis[i]) or not s.same(right, basis[i]):
            failed.add("counit")
        if not s.same(lhs, rhs):
            failed.add("coassociativity")
    for i in range(n):
        for j in range(n):
            prod_of_deltas = [0] * (n * n)
            for ab, c1 in enumerate(delta[i]):
                if s.is_zero(c1):
                    continue
                a, b = divmod(ab, n)
                for cd, c2 in enumerate(delta[j]):
                    if s.is_zero(c2):
                        continue
                    c, d = divmod(cd, n)
                    for p, x in enumerate(table[a][c]):
                        for q, y in enumerate(table[b][d]):
                            prod_of_deltas[p * n + q] += c1 * c2 * x * y
            if not s.same(comult(table[i][j]), prod_of_deltas):
                failed.add("comultiplicativity")
    one = comult(unit)
    pairs = [(divmod(ab, n), c) for ab, c in enumerate(one) if not s.is_zero(c)]
    double = [0] * (n ** 3)
    for (a, b), c in pairs:
        for p, q, t in s.comult.get(a, []):
            double[(p * n + q) * n + b] += c * t
    if not s.same(unit_product("straight"), double) or \
            not s.same(unit_product("twisted"), double):
        failed.add("weak unit")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                whole = eps(s.mul(table[x][y], basis[z]))
                straight = twisted = 0
                for a, b, t in s.comult.get(y, []):
                    straight += t * eps(table[x][a]) * eps(table[b][z])
                    twisted += t * eps(table[x][b]) * eps(table[a][z])
                if not s.is_zero(whole - straight) or not s.is_zero(whole - twisted):
                    failed.add("weak counit")
    if failed:
        return sorted(failed)
    anti = s.payload["antipode"]
    if anti is None:
        return ["antipode missing"]
    S = [[s.scalar(anti[i][j]) for i in range(n)] for j in range(n)]   # S[j] = S(e_j)
    for j in range(n):
        left, right = [0] * n, [0] * n
        for a, b, t in s.comult.get(j, []):
            left = lin([1, t], [left, s.mul(basis[a], S[b])])
            right = lin([1, t], [right, s.mul(S[a], basis[b])])
        target = lin([c for _, c in pairs], [[eps(table[a][j]) * x for x in basis[b]]
                                              for (a, b), _ in pairs])
        source = lin([c for _, c in pairs], [[eps(table[j][b]) * x for x in basis[a]]
                                              for (a, b), _ in pairs])
        if not s.same(left, target):
            failed.add("antipode h1 S(h2) = eps_t(h)")
        if not s.same(right, source):
            failed.add("antipode S(h1) h2 = eps_s(h)")
        third = [0] * n
        for a, b, t in s.comult.get(j, []):
            for p, q, r in s.comult.get(a, []):
                third = lin([1, t * r], [third, s.mul(s.mul(S[p], basis[q]), S[b])])
        if not s.same(third, S[j]):
            failed.add(THIRD_ANTIPODE_AXIOM)
    return sorted(failed)


def check_mutant(s: Structure, result) -> list:
    """The program's verdict on a mutant agrees with the weak Hopf axioms, a
    rejection carries witnesses, and an accepted mutant passes Maschke.

    ``weakhopf.check_antipode`` does not test the third antipode axiom, so
    the program accepts a mutant that breaks only that axiom.  Such a wrong
    acceptance is reported as the single problem ``KNOWN_GAP``, so that the
    caller can tell this known fault from any other wrong verdict.
    """
    violated = weak_hopf_violations(s)
    if result["valid"] and violated == [THIRD_ANTIPODE_AXIOM] and \
            result["verdict"] == "pass":
        return [KNOWN_GAP]
    if result["valid"] and violated:
        return [f"mutant accepted but violates {violated}"]
    if not result["valid"] and not violated:
        return ["mutant rejected but satisfies every weak Hopf axiom"]
    if result["valid"]:
        return [] if result["verdict"] == "pass" else \
            [f"valid mutant has Maschke verdict {result['verdict']}"]
    if not result["failures"]:
        return ["mutant rejected without a failure"]
    if any(w is None for _, w in result["failures"]):
        return ["mutant rejected without a witness"]
    return []


# ---------------------------------------------------------------------------
# CLI reports


def _flags_problems(flags: dict, want: bool, label: str) -> list:
    return [f"{label} {k}: {v}, expected {want}" for k, v in flags.items() if v != want]


def check_maschke(s, family, report) -> list:
    if report.get("verdict") != "pass":
        return [f"maschke verdict {report.get('verdict')}"]
    exp = expected(s, family)
    kind = report.get("kind")
    if kind == "weakhopf":
        problems = _flags_problems(report["integrals"], exp["integrals"], "integrals")
        problems += _flags_problems(report["cointegrals"], exp["cointegrals"], "cointegrals")
        for what in ("separability", "coseparability"):
            if report[what] != exp[what]:
                problems.append(f"{what}: {report[what]}, expected {exp[what]}")
        for key, toks in report["witnesses"].items():
            what = "integrals" if key.startswith("integral") else "cointegrals"
            if toks is not None:
                problems += check_witness(s, family, what, toks)
        return problems
    if kind == "algebroid":
        problems = _flags_problems(report["integrals"], exp["integrals"], "integrals")
        problems += _flags_problems(report["cointegrals"], exp["cointegrals"], "cointegrals")
        for what in ("separability", "coseparability"):
            if report[what] != exp[what]:
                problems.append(f"{what}: {report[what]}, expected {exp[what]}")
        return problems
    if kind == "hopfcat":
        problems = _flags_problems(report["integral_families"], exp["integrals"],
                                   "integral families")
        problems += _flags_problems(report["retraction_families"], exp["cointegrals"],
                                    "retraction families")
        if report["separability_family"] != exp["separability"]:
            problems.append("separability family verdict wrong")
        if report["hom_coseparability"] != exp["coseparability"]:
            problems.append("hom coseparability verdict wrong")
        return problems
    return [f"maschke report of unexpected kind {kind!r}"]


def check_solver_report(s, family, command, report) -> list:
    want = expected(s, family)[command]
    if report.get("feasible") != want:
        return [f"{command}: feasible={report.get('feasible')}, expected {want}"]
    if not report["feasible"] or report.get("kind") not in ("weakhopf", "commalgebra"):
        return []
    if command in ("integrals", "cointegrals"):
        return check_witness(s, family, command, report["solution"]["coefficients"])
    if command == "separability":
        return check_separability_element(s, report["element"])
    return check_retraction(s, report["coefficients"])


GENERATED_KIND = {"group-algebra": "weakhopf", "dual-group-algebra": "weakhopf",
                  "groupoid-algebra": "weakhopf", "hopf-category": "hopfcat",
                  "pair-algebroid": "algebroid", "group": "group",
                  "groupoid": "groupoid", "commalgebra": "commalgebra"}


def check_generated(doc, family) -> list:
    """A generated file has the requested kind, and for group algebras and
    groups, a group table."""
    if doc.get("kind") != GENERATED_KIND[family]:
        return [f"generate {family} wrote kind {doc.get('kind')!r}"]
    if family == "group-algebra":
        group_order(Structure(doc), family)
    if family == "group":
        t = doc["payload"]["table"]
        n = len(t)
        if any(t[t[i][j]][k] != t[i][t[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
            return ["generated group table is not associative"]
    return []


def check_cli_job(job, code, stdout, stderr, workdir) -> list:
    """Problems with one CLI invocation, against the references above."""
    if code != job["expect"]:
        return [f"exit code {code}, expected {job['expect']}: {stderr.strip()[-300:]}"]
    command = job["args"][0]
    if command == "generate":
        with open(job["out"], encoding="utf-8") as fh:
            return check_generated(json.load(fh), job["generate"]["family"])
    spec = job["spec"]
    if spec["family"] == "defect":
        law = spec["law"]
        if command == "validate":
            report = json.loads(stdout)
            if report.get("valid") or not any(law in f for f in report["failures"]):
                return [f"defect report does not name the broken {law} law"]
            return []
        return [] if law in stderr else [f"defect error does not name the {law} law"]
    report = json.loads(stdout)
    if command == "validate":
        return [] if report.get("valid") else [f"valid file refused: {report['failures']}"]
    s = Structure.load(f"{workdir}/{spec['file']}")
    family = spec["family"]
    if command == "maschke":
        return check_maschke(s, family, report)
    return check_solver_report(s, family, command, report)
