"""Diagram automorphisms and all combinatorial data derived from folding.

Everything here is pure enumeration over node indices of the input matrix:
orbits, the per-node case classification s_i, the counts N_i, d_i, N_ij,
d_ij, the difference groups Gamma^-_ij, and the root-tuple sets Upsilon
with their difference sets Omega.  Tuple membership is computed two ways:
against the root table (primary) and by an independent case analysis,
so the two implementations cross-check each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from loomfold.cartan import Gcm
from loomfold.errors import NotAnAutomorphism
from loomfold.exactnum import perm_orbits

__all__ = [
    "DiagramAut",
    "FoldData",
    "PairSets",
    "TupleSets",
    "validate_aut",
    "fold_data",
    "tuple_sets",
    "tuple_sets_case_analysis",
]


@dataclass(frozen=True)
class DiagramAut:
    """A validated diagram automorphism with its order."""

    perm: tuple[int, ...]
    order: int

    def apply(self, i: int, k: int = 1) -> int:
        k %= self.order
        for _ in range(k):
            i = self.perm[i]
        return i


def validate_aut(gcm: Gcm, perm) -> DiagramAut:
    """Check that perm is a bijection of the nodes preserving the matrix."""
    try:
        p = tuple(perm)
    except TypeError:
        raise NotAnAutomorphism("permutation must be a list of node indices") from None
    if not all(type(x) is not bool and isinstance(x, int) for x in p):
        raise NotAnAutomorphism("permutation entries must be integers")
    n = gcm.n
    if len(p) != n or sorted(p) != list(range(n)):
        raise NotAnAutomorphism("not a bijection of the node set")
    a = gcm.entries
    for i in range(n):
        for j in range(n):
            if a[p[i]][p[j]] != a[i][j]:
                raise NotAnAutomorphism(
                    f"matrix not preserved: a[{p[i]}][{p[j]}] != a[{i}][{j}]"
                )
    return DiagramAut(p, lcm(*(len(orbit) for orbit in perm_orbits(p))))


@dataclass(frozen=True)
class FoldData:
    """Orbit and linking data of (A, mu)."""

    n_order: int  # N, the order of mu
    orbits: tuple[tuple[int, ...], ...]
    orbit_of: tuple[int, ...]  # node -> orbit index
    s: tuple[int, ...]  # per node: 1, 2 or 3
    big_n: tuple[int, ...]  # N_i = orbit size
    d: tuple[int, ...]  # d_i = N / N_i
    transitive: bool

    def n_pair(self, i: int, j: int) -> int:
        return gcd(self.big_n[i], self.big_n[j])

    def gamma_minus(self, gcm: Gcm, mu: DiagramAut, i: int, j: int) -> frozenset[int]:
        a = gcm.entries
        return frozenset(
            k for k in range(mu.order) if a[i][mu.apply(j, k)] < 0
        )

    def d_pair(self, gcm: Gcm, mu: DiagramAut, i: int, j: int) -> int:
        return len(self.gamma_minus(gcm, mu, i, j))

    def same_orbit(self, i: int, j: int) -> bool:
        return self.orbit_of[i] == self.orbit_of[j]

    def to_json(self, gcm: Gcm, mu: DiagramAut) -> dict:
        pairs = []
        for i, j in index_pairs(gcm):
            pairs.append(
                {
                    "pair": [i, j],
                    "N_ij": self.n_pair(i, j),
                    "d_ij": self.d_pair(gcm, mu, i, j),
                    "gamma_minus": sorted(self.gamma_minus(gcm, mu, i, j)),
                }
            )
        return {
            "N": self.n_order,
            "orbits": [list(o) for o in self.orbits],
            "s": list(self.s),
            "N_i": list(self.big_n),
            "d_i": list(self.d),
            "transitive": self.transitive,
            "pairs": pairs,
        }


def index_pairs(gcm: Gcm) -> list[tuple[int, int]]:
    """The ordered pairs (i, j) with a_ij < 0."""
    a = gcm.entries
    n = gcm.n
    return [(i, j) for i in range(n) for j in range(n) if a[i][j] < 0]


def fold_data(gcm: Gcm, mu: DiagramAut) -> FoldData:
    n = gcm.n
    a = gcm.entries
    orbits = perm_orbits(mu.perm)
    orbit_of = [0] * n
    for idx, orbit in enumerate(orbits):
        for x in orbit:
            orbit_of[x] = idx
    transitive = len(orbits) == 1 and n > 1
    cls = gcm.classify()
    s_vals = []
    for i in range(n):
        orbit = orbits[orbit_of[i]]
        if all(a[p][q] == 0 for p in orbit for q in orbit if p != q):
            s_vals.append(1)
        elif len(orbit) == 2 and a[orbit[0]][orbit[1]] == -1:
            s_vals.append(2)
        elif (
            cls.kind == "affine"
            and cls.letter == "A"
            and cls.twist == 1
            and len(orbit) == n
        ):
            s_vals.append(3)
        else:
            raise NotAnAutomorphism(
                f"orbit of node {i} matches no case of the orbit classification"
            )
    big_n = tuple(len(orbits[orbit_of[i]]) for i in range(n))
    d = tuple(mu.order // big_n[i] for i in range(n))
    return FoldData(
        n_order=mu.order,
        orbits=tuple(orbits),
        orbit_of=tuple(orbit_of),
        s=tuple(s_vals),
        big_n=big_n,
        d=d,
        transitive=transitive,
    )


@dataclass(frozen=True)
class PairSets:
    """Tuple and difference sets for one ordered pair (i, j) with a_ij < 0."""

    i: int
    j: int
    arity: int  # 1 - a_ij
    upsilon: frozenset[tuple[int, ...]]
    upsilon_real: frozenset[tuple[int, ...]]
    upsilon_imag: frozenset[tuple[int, ...]]
    omega_real: frozenset[int]
    omega_imag: frozenset[int]


@dataclass(frozen=True)
class TupleSets:
    pairs: dict

    def __getitem__(self, key) -> PairSets:
        return self.pairs[key]

    def to_json(self) -> dict:
        out = []
        for (i, j), ps in sorted(self.pairs.items()):
            out.append(
                {
                    "pair": [i, j],
                    "upsilon": sorted(map(list, ps.upsilon)),
                    "upsilon_real": sorted(map(list, ps.upsilon_real)),
                    "upsilon_imag": sorted(map(list, ps.upsilon_imag)),
                    "omega_real": sorted(ps.omega_real),
                    "omega_imag": sorted(ps.omega_imag),
                }
            )
        return {"pairs": out}


def _alpha_tuple_coords(gcm: Gcm, mu: DiagramAut, i: int, j: int, ks) -> tuple[int, ...]:
    coords = [0] * gcm.n
    for k in ks:
        coords[mu.apply(i, k)] += 1
    coords[j] += 1
    return tuple(coords)


def _omega_sets(mu: DiagramAut, i: int, tuples) -> frozenset[int]:
    n = mu.order
    out = set()
    for ks in tuples:
        for s_pos in range(len(ks)):
            for t_pos in range(len(ks)):
                if mu.apply(i, ks[s_pos]) != mu.apply(i, ks[t_pos]):
                    out.add((ks[s_pos] - ks[t_pos]) % n)
    return frozenset(out)


def tuple_sets(gcm: Gcm, mu: DiagramAut, fold: FoldData | None = None) -> TupleSets:
    """Primary construction: enumerate all tuples, test with the root table."""
    if fold is None:
        fold = fold_data(gcm, mu)
    out = {}
    for i, j in index_pairs(gcm):
        arity = 1 - gcm.entries[i][j]
        real = set()
        imag = set()
        for ks in itertools.product(range(mu.order), repeat=arity):
            flag = gcm.membership(_alpha_tuple_coords(gcm, mu, i, j, ks))
            if flag == "real":
                real.add(ks)
            elif flag == "imaginary":
                imag.add(ks)
        out[(i, j)] = PairSets(
            i=i,
            j=j,
            arity=arity,
            upsilon=frozenset(real | imag),
            upsilon_real=frozenset(real),
            upsilon_imag=frozenset(imag),
            omega_real=_omega_sets(mu, i, real),
            omega_imag=_omega_sets(mu, i, imag),
        )
    return TupleSets(out)


def tuple_sets_case_analysis(
    gcm: Gcm, mu: DiagramAut, fold: FoldData | None = None
) -> TupleSets:
    """Independent oracle: the case analysis on s_i, orbit membership and N_ij.

    Never consults the root table; membership in Delta is decided purely
    from the folding combinatorics, then split into real/imaginary parts
    by the type dichotomy (everything is real unless the matrix is
    A_1^(1) or A_2^(1), where everything is imaginary).
    """
    if fold is None:
        fold = fold_data(gcm, mu)
    cls = gcm.classify()
    special = cls.label in ("A1^(1)", "A2^(1)")
    n_nodes = gcm.n
    out = {}
    for i, j in index_pairs(gcm):
        arity = 1 - gcm.entries[i][j]
        members = set()
        s_i = fold.s[i]
        same = fold.same_orbit(i, j)
        gamma = fold.gamma_minus(gcm, mu, i, j)
        n_ij = fold.n_pair(i, j)
        for ks in itertools.product(range(mu.order), repeat=arity):
            images = [mu.apply(i, k) for k in ks]
            if s_i == 1:
                ok = all((-k) % mu.order in gamma for k in ks) and len(set(images)) >= 2
            elif s_i == 2 and same:
                ok = False
            elif s_i == 2 and n_ij == 2:
                ok = sum(1 for k in ks if k in gamma) == arity - 1
            elif s_i == 2 and n_ij == 1:
                ok = len(set(ks)) == len(ks)
            elif s_i == 3 and n_nodes == 2:
                ok = sum(1 for p in images if p == j) == 1
            elif s_i == 3 and n_nodes == 3:
                ok = len(set(images + [j])) == 3
            elif s_i == 3:
                nodes = set(images + [j])
                ok = len(nodes) == 3 and _is_path_of_three(gcm, nodes)
            else:
                ok = False
            if ok:
                members.add(ks)
        real = set() if special else members
        imag = members if special else set()
        out[(i, j)] = PairSets(
            i=i,
            j=j,
            arity=arity,
            upsilon=frozenset(members),
            upsilon_real=frozenset(real),
            upsilon_imag=frozenset(imag),
            omega_real=_omega_sets(mu, i, real),
            omega_imag=_omega_sets(mu, i, imag),
        )
    return TupleSets(out)


def _is_path_of_three(gcm: Gcm, nodes: set[int]) -> bool:
    """Whether three distinct nodes induce a subdiagram that is a path."""
    a = gcm.entries
    degs = []
    edges = 0
    for p in nodes:
        deg = sum(1 for q in nodes if q != p and a[p][q] != 0)
        degs.append(deg)
        edges += deg
    return edges == 4 and sorted(degs) == [1, 1, 2]
