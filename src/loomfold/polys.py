"""Multivariate Laurent polynomials over Q(xi) and the relation polynomials.

LPoly is a finitely supported map from integer exponent vectors to CycNum,
over a fixed ordered variable tuple.  On top of it: the locality
polynomials f_ij, the Drinfeld polynomials p_ij built two independent ways
(from the difference sets, and from the closed-form case list), and the
relation families.

Every weighted relation of the presentation has one shape,
sum_sigma P_sigma(z, w) [x_i(z_sigma(1)), ..., [x_i(z_sigma(s)), x_j(w)]] = 0,
and is stated here as a SerreFamily, the table (i, j) -> {sigma: P_sigma}:
locality (`family_locality`), the extra relation of A_1^(1) (`family_as`),
the Serre-weight families (`family_p`, `family_qlimit`, `family_f`) and the
split-form relations of finite matrices (`family_split`).  The number s of
z-slots is read from the polynomials' variables.  `presentation` evaluates
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from loomfold.cartan import Gcm
from loomfold.errors import DivisionNotExact, P2Violation, ScopeViolation
from loomfold.exactnum import CycNum, cyc_root, vec_add
from loomfold.folding import (
    DiagramAut,
    FoldData,
    TupleSets,
    fold_data,
    index_pairs,
    tuple_sets,
)

__all__ = [
    "LPoly",
    "SerreFamily",
    "locality_poly",
    "family_locality",
    "family_as",
    "family_split",
    "drinfeld_poly_omega",
    "drinfeld_poly_closed",
    "family_p",
    "family_qlimit",
    "family_f",
    "check_P2",
]


class LPoly:
    """Sparse Laurent polynomial with CycNum coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            if not isinstance(c, CycNum):
                c = CycNum.from_rational(Fraction(c))
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(variables) -> "LPoly":
        return LPoly(variables)

    @staticmethod
    def const(variables, c) -> "LPoly":
        n = len(tuple(variables))
        return LPoly(variables, {(0,) * n: c})

    @staticmethod
    def one(variables) -> "LPoly":
        return LPoly.const(variables, 1)

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "LPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "LPoly") -> "LPoly":
        self._check(other)
        out = dict(self.terms)
        vec_add(out, other.terms)
        return LPoly(self.vars, out)

    def __neg__(self) -> "LPoly":
        return LPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LPoly") -> "LPoly":
        return self + (-other)

    def __mul__(self, other: "LPoly") -> "LPoly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            row = {tuple(a + b for a, b in zip(e1, e2)): c2 for e2, c2 in other.terms.items()}
            vec_add(out, row, c1)
        return LPoly(self.vars, out)

    def __pow__(self, k: int) -> "LPoly":
        assert k >= 0
        out = LPoly.one(self.vars)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        if self.vars != other.vars:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries -------------------------------------------------------

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- substitution --------------------------------------------------------------

    def rename(self, variables) -> "LPoly":
        variables = tuple(variables)
        assert len(variables) == len(self.vars)
        return LPoly(variables, dict(self.terms))

    def embed(self, variables, mapping: dict[str, str]) -> "LPoly":
        """Move into a bigger variable tuple; mapping: old name -> new name."""
        variables = tuple(variables)
        positions = [variables.index(mapping[v]) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            new_e = [0] * len(variables)
            for pos, exp in zip(positions, e):
                new_e[pos] += exp
            vec_add(out, {tuple(new_e): c})
        return LPoly(variables, out)

    def collapse_to_single(self) -> "LPoly":
        """Substitute every variable by the same variable w."""
        out: dict = {}
        for e, c in self.terms.items():
            vec_add(out, {(sum(e),): c})
        return LPoly(("w",), out)

    # -- rendering ------------------------------------------------------------------

    def __repr__(self):
        return f"LPoly({self.vars}, {self.terms})"

    def latex(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "".join(
                (f"{_latex_var(v)}" if k == 1 else f"{_latex_var(v)}^{{{k}}}")
                for v, k in zip(self.vars, e)
                if k != 0
            )
            cl = c.latex()
            if mono:
                if cl == "1":
                    parts.append(mono)
                elif cl == "-1":
                    parts.append("-" + mono)
                elif "+" in cl or ("-" in cl[1:]):
                    parts.append(rf"\left({cl}\right){mono}")
                else:
                    parts.append(cl + mono)
            else:
                parts.append(cl)
        out = "+".join(parts).replace("+-", "-")
        return out

    def to_json(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "vars": list(self.vars),
            "terms": [{"exps": list(e), "coeff": c.to_json()} for e, c in items],
        }

    @staticmethod
    def from_json(obj) -> "LPoly":
        """Parse the `to_json` form; raises ValueError on any other shape."""
        if not isinstance(obj, dict):
            raise ValueError("a polynomial must be a JSON object")
        variables, terms = obj.get("vars"), obj.get("terms")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError('a polynomial needs a "vars" list of names')
        if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
            raise ValueError('a polynomial needs a "terms" list of objects')
        out = {}
        for t in terms:
            exps = t.get("exps")
            if (
                not isinstance(exps, list)
                or len(exps) != len(variables)
                or not all(type(e) is int for e in exps)
            ):
                raise ValueError(f"every term needs {len(variables)} integer exponents")
            if tuple(exps) in out:
                raise ValueError(f"exponents {exps} appear in two terms")
            out[tuple(exps)] = CycNum.from_json(t.get("coeff"))
        return LPoly(variables, out)


def _latex_var(v: str) -> str:
    if len(v) > 1 and v[1:].isdigit():
        return f"{v[0]}_{{{v[1:]}}}"
    return v


# ---------------------------------------------------------------------------
# Building blocks


def linear_factor(order: int, k: int) -> LPoly:
    """z - xi^k w."""
    return LPoly(
        ("z", "w"),
        {
            (1, 0): CycNum.one(order),
            (0, 1): -cyc_root(order, k),
        },
    )


def power_difference_ratio(a: int, b: int) -> LPoly:
    """(z^a - w^a) / (z^b - w^b) for b | a, written out as a geometric sum."""
    if a % b:
        raise DivisionNotExact(f"z^{b} - w^{b} does not divide z^{a} - w^{a}")
    terms = {}
    for k in range(a // b):
        terms[(b * k, a - b - b * k)] = CycNum.one()
    return LPoly(("z", "w"), terms)


# ---------------------------------------------------------------------------
# Locality polynomials


@lru_cache(maxsize=None)
def locality_poly(gcm: Gcm, mu: DiagramAut, i: int, j: int) -> LPoly:
    """The polynomial annihilating [x_i(z), x_j(w)].

    Ordinary case: product of (z - xi^k w) over k with a_{i mu^k(j)} != 0.
    For matrices of type A_1^(1) the constraint is stronger: an extra
    (z - w) factor and squared factors over k with a_{i mu^k(j)} < 0.
    Built once per (gcm, mu, i, j), which hash by value; callers share the
    result and must not mutate it.
    """
    n = mu.order
    a = gcm.entries
    special = gcm.classify().label == "A1^(1)"
    out = LPoly.one(("z", "w"))
    if special:
        out = out * linear_factor(n, 0)
        for k in range(n):
            if a[i][mu.apply(j, k)] < 0:
                out = out * linear_factor(n, k) * linear_factor(n, k)
        return out
    for k in range(n):
        if a[i][mu.apply(j, k)] != 0:
            out = out * linear_factor(n, k)
    return out


# ---------------------------------------------------------------------------
# Drinfeld polynomials, two constructions


def drinfeld_poly_omega(sets: TupleSets, i: int, j: int, order: int) -> LPoly:
    """p_ij from the difference sets: linear factors over Omega^x, squared
    factors over Omega^0."""
    ps = sets[(i, j)]
    out = LPoly.one(("z", "w"))
    for k in sorted(ps.omega_real):
        out = out * linear_factor(order, k)
    for k in sorted(ps.omega_imag):
        out = out * linear_factor(order, k) * linear_factor(order, k)
    return out


def drinfeld_poly_closed(
    gcm: Gcm, mu: DiagramAut, fold: FoldData, i: int, j: int
) -> LPoly:
    """p_ij from the closed-form case list over s_i, N, N_ij."""
    n = mu.order
    s_i = fold.s[i]
    if fold.same_orbit(i, j):
        if s_i <= 2:
            return LPoly.one(("z", "w"))
        if n in (2, 3):
            return power_difference_ratio(n, 1) * power_difference_ratio(n, 1)
        if n in (4, 5):
            return power_difference_ratio(n, 1)
        out = LPoly.one(("z", "w"))
        for k in sorted(fold.gamma_minus(gcm, mu, i, i)):
            out = out * linear_factor(n, k) * linear_factor(n, (2 * k) % n)
        return out
    # a_{i, mu^(k + N_i) j} = a_{i, mu^k j}, so Gamma^-_ij is a union of
    # cosets of size d_i = N / N_i and d_i divides d_ij = |Gamma^-_ij|
    d_i = fold.d[i]
    d_ij = fold.d_pair(gcm, mu, i, j)
    return power_difference_ratio(s_i * d_i, d_i) * power_difference_ratio(d_ij, d_i)


# ---------------------------------------------------------------------------
# Serre families


def _z_vars(arity: int) -> tuple[str, ...]:
    return tuple(f"z{k+1}" for k in range(arity)) + ("w",)


def _permutations(arity: int):
    return list(itertools.permutations(range(arity)))


@dataclass
class SerreFamily:
    """For each pair (i, j) it covers and each permutation sigma of its
    z-slots, a homogeneous polynomial in z_1..z_s, w; a Serre-weight family
    covers the pairs with a_ij < 0, on s = 1 - a_ij slots."""

    name: str
    entries: dict = field(default_factory=dict)  # (i, j) -> {sigma: LPoly}

    def arity(self, i: int, j: int) -> int:
        sigmas = self.entries[(i, j)]
        some = next(iter(sigmas.values()))
        return len(some.vars) - 1

    def assert_homogeneous(self):
        for (i, j), sigmas in self.entries.items():
            for sigma, poly in sigmas.items():
                if not poly.is_homogeneous():
                    raise P2Violation(
                        f"family {self.name}: P[{i},{j},{sigma}] is not homogeneous"
                    )

    def to_json(self) -> dict:
        pairs = []
        for (i, j), sigmas in sorted(self.entries.items()):
            pairs.append(
                {
                    "pair": [i, j],
                    "terms": {
                        ",".join(map(str, sigma)): poly.to_json()
                        for sigma, poly in sorted(sigmas.items())
                    },
                }
            )
        return {"family": self.name, "pairs": pairs}


def family_locality(gcm: Gcm, mu: DiagramAut) -> SerreFamily:
    """Locality as a family: every pair (i, j), one slot, `locality_poly`."""
    fam = SerreFamily("locality")
    for i in range(gcm.n):
        for j in range(gcm.n):
            fam.entries[(i, j)] = {(0,): locality_poly(gcm, mu, i, j)}
    return fam


def family_as(gcm: Gcm, mu: DiagramAut) -> SerreFamily:
    """The extra relation of A_1^(1), weight z1^N - z2^N on its index pairs;
    empty for every other matrix."""
    fam = SerreFamily("AS")
    if gcm.classify().label == "A1^(1)":
        n = mu.order
        weight = LPoly(_z_vars(2), {(n, 0, 0): 1, (0, n, 0): -1})
        for pair in index_pairs(gcm):
            fam.entries[pair] = {(0, 1): weight}
    return fam


def family_split(gcm: Gcm, mu: DiagramAut) -> SerreFamily:
    """The case-split nested relations for finite matrices with a twist."""
    if gcm.classify().kind != "finite":
        raise ScopeViolation("the split-form relation list is for finite matrices")
    a, perm = gcm.entries, mu.perm
    fam = SerreFamily("split")
    for i, j in index_pairs(gcm):
        arity = 1 - a[i][j]
        variables = _z_vars(arity)
        ident = tuple(range(arity))
        mi = perm[i]
        if mi == i:
            sigmas = {ident: LPoly.one(variables)}
        elif a[i][j] == -1 and j == mi:
            # z_sigma(1) - 2 z_sigma(2) - w, for both orders of the two slots
            sigmas = {
                (s, 1 - s): LPoly(variables, {(1 - s, s, 0): 1, (s, 1 - s, 0): -2, (0, 0, 1): -1})
                for s in (0, 1)
            }
        elif a[i][j] == -1 and a[i][mi] == 0 and perm[j] != j:
            sigmas = {ident: LPoly.one(variables)}
        elif a[i][j] == -1 and a[i][mi] == 0 and perm[j] == j:
            n = mu.order
            sigmas = {ident: LPoly(variables, {(k, n - 1 - k, 0): 1 for k in range(n)})}
        elif a[i][j] == -1 and a[i][mi] == -1 and j != mi:
            sigmas = {ident: LPoly(variables, {(1, 0, 0): 1, (0, 1, 0): 1})}
        else:
            raise ScopeViolation(f"pair ({i},{j}) matches no split-form case")
        fam.entries[(i, j)] = sigmas
    return fam


def family_p(gcm: Gcm, mu: DiagramAut) -> SerreFamily:
    """The product family: P_{ij,1} = prod over slot pairs of p_ij, rest 0."""
    sets = tuple_sets(gcm, mu, fold_data(gcm, mu))
    fam = SerreFamily("p")
    for i, j in index_pairs(gcm):
        arity = 1 - gcm.entries[i][j]
        variables = _z_vars(arity)
        p = drinfeld_poly_omega(sets, i, j, mu.order)
        prod = LPoly.one(variables)
        for s in range(arity):
            for t in range(s + 1, arity):
                prod = prod * p.embed(
                    variables, {"z": variables[s], "w": variables[t]}
                )
        sigmas = {}
        for sigma in _permutations(arity):
            sigmas[sigma] = prod if sigma == tuple(range(arity)) else LPoly.zero(variables)
        fam.entries[(i, j)] = sigmas
    fam.assert_homogeneous()
    return fam


def p_pair_qlimit(gcm: Gcm, mu: DiagramAut, fold: FoldData, i: int, j: int) -> LPoly:
    """The two-variable weight for cross-orbit pairs, at q = 1.

    The quantum weight is (z^{d_i} + q^{-d_i} w^{d_i})^{s_i - 1} *
    (q^{2 d_ij} z^{d_ij} - w^{d_ij}) divided exactly by
    (q^{2 d_i} z^{d_i} - w^{d_i}); at q = 1 the quotient is the geometric
    sum `power_difference_ratio`.
    """
    d_i = fold.d[i]
    first = LPoly(("z", "w"), {(d_i, 0): 1, (0, d_i): 1}) ** (fold.s[i] - 1)
    return first * power_difference_ratio(fold.d_pair(gcm, mu, i, j), d_i)


def p_node_qlimit(d_i: int) -> LPoly:
    """q^{-d} z1^d - (q^d + 1) z2^d + q^{2d} z3^d at q = 1."""
    return LPoly(("z1", "z2", "z3"), {(d_i, 0, 0): 1, (0, d_i, 0): -2, (0, 0, d_i): 1})


def family_qlimit(gcm: Gcm, mu: DiagramAut) -> SerreFamily:
    """The classical-limit family of the twisted quantum affinization: the
    weights of its q-form at q = 1.

    Requires a simply-laced matrix and a non-transitive automorphism; all
    pairs then have a_ij = -1, so the family lives on two z-slots.
    """
    fold = fold_data(gcm, mu)
    a = gcm.entries
    n = gcm.n
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j] not in (0, -1):
                raise ScopeViolation("classical-limit family requires a simply-laced matrix")
    if any(s == 3 for s in fold.s):
        raise ScopeViolation(
            "classical-limit family requires a non-transitive automorphism"
        )
    fam = SerreFamily("qlimit")
    variables = _z_vars(2)
    for i, j in index_pairs(gcm):
        sigmas = {}
        if not fold.same_orbit(i, j):
            p = p_pair_qlimit(gcm, mu, fold, i, j)
            for sigma in _permutations(2):
                mapping = {"z": variables[sigma[0]], "w": variables[sigma[1]]}
                sigmas[sigma] = p.embed(variables, mapping)
        else:
            base = p_node_qlimit(fold.d[i])
            for sigma in _permutations(2):
                mapping = {
                    "z1": variables[sigma[0]],
                    "z2": variables[sigma[1]],
                    "z3": "w",
                }
                poly = base.embed(variables, mapping)
                # the third slot carries -w
                flipped = {}
                widx = variables.index("w")
                for e, c in poly.terms.items():
                    sign = -1 if e[widx] % 2 else 1
                    flipped[e] = c.mul_rational(sign)
                sigmas[sigma] = LPoly(variables, flipped)
        fam.entries[(i, j)] = sigmas
    fam.assert_homogeneous()
    return fam


def family_f(base: SerreFamily, extra: dict) -> SerreFamily:
    """Multiply the identity-permutation slot of each pair by a fixed
    homogeneous polynomial that does not vanish on the diagonal; a factor
    on a pair that `base` does not cover raises."""
    uncovered = sorted(set(extra) - set(base.entries))
    if uncovered:
        raise ScopeViolation(f"family {base.name} does not cover the factor pairs {uncovered}")
    fam = SerreFamily(f"f*{base.name}")
    for (i, j), sigmas in base.entries.items():
        f_ij = extra.get((i, j))
        new_sigmas = dict(sigmas)
        if f_ij is not None:
            variables = next(iter(sigmas.values())).vars
            if tuple(f_ij.vars) != tuple(variables):
                raise P2Violation(
                    f"extra factor for pair ({i},{j}) must use variables {variables}"
                )
            if not f_ij.is_homogeneous():
                raise P2Violation(f"extra factor for pair ({i},{j}) is not homogeneous")
            if f_ij.collapse_to_single().is_zero():
                raise P2Violation(
                    f"extra factor for pair ({i},{j}) vanishes on the diagonal"
                )
            ident = tuple(range(len(variables) - 1))
            new_sigmas[ident] = sigmas[ident] * f_ij
        fam.entries[(i, j)] = new_sigmas
    violations = [k for k, v in check_P2(fam).items() if v.is_zero()]
    if violations:
        raise P2Violation(f"resulting family vanishes on the diagonal at {violations}")
    return fam


def check_P2(fam: SerreFamily) -> dict:
    """Diagonal sum per pair: substitute every z by w, sum over sigma."""
    out = {}
    for (i, j), sigmas in fam.entries.items():
        total = LPoly.zero(("w",))
        for poly in sigmas.values():
            total = total + poly.collapse_to_single()
        out[(i, j)] = total
    return out
