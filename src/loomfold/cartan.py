"""Generalized Cartan matrices, their classification, and root systems.

Covers exactly the finite and affine types.  Classification works by exact
positivity tests on the symmetrized matrix, followed by matching the
diagram against a built-in table of canonical matrices (graph isomorphism
on the labeled Dynkin diagram).  Root membership is answered from a table
generated breadth-first with root strings, auto-extended on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from loomfold.errors import (
    FormMismatch,
    IndefiniteType,
    NotAffine,
    NotGcm,
)
from loomfold.exactnum import Echelon, kernel_basis

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Classification:
    kind: str  # "finite" | "affine"
    letter: str
    rank: int  # the subscript in the label
    twist: int  # 0 for finite types, else 1, 2 or 3
    label: str
    perm: tuple[int, ...]  # input node -> canonical node
    canonical: Matrix

    def to_json(self) -> dict:
        return {
            "class": self.kind,
            "type": self.letter,
            "rank": self.rank,
            "twist": self.twist,
            "label": self.label,
        }


# ---------------------------------------------------------------------------
# The Gcm class


class Gcm:
    """A generalized Cartan matrix of finite or affine type."""

    def __init__(self, entries):
        try:
            a = tuple(tuple(row) for row in entries)
        except TypeError:
            raise NotGcm("matrix must be a list of rows") from None
        if not all(type(x) is not bool and isinstance(x, int) for row in a for x in row):
            raise NotGcm("matrix entries must be integers")
        n = len(a)
        if n == 0 or any(len(row) != n for row in a):
            raise NotGcm("matrix must be square and nonempty")
        for i in range(n):
            if a[i][i] != 2:
                raise NotGcm(f"diagonal entry a[{i}][{i}] must be 2")
            for j in range(n):
                if i != j:
                    if a[i][j] > 0:
                        raise NotGcm(f"off-diagonal entry a[{i}][{j}] must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise NotGcm(f"zero pattern not symmetric at ({i},{j})")
        if not _connected(a):
            raise NotGcm("matrix must be indecomposable")
        self.entries = a
        self.n = n
        self._classification: Classification | None = None
        self._root_table: _RootTable | None = None

    def __eq__(self, other):
        return isinstance(other, Gcm) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Gcm({[list(r) for r in self.entries]})"

    # -- classification ------------------------------------------------------

    def classify(self) -> Classification:
        if self._classification is None:
            self._classification = _classify(self.entries)
        return self._classification

    def is_affine(self) -> bool:
        return self.classify().kind == "affine"

    def null_labels(self) -> tuple[int, ...]:
        """Primitive positive integer kernel vector of an affine matrix."""
        if not self.is_affine():
            raise NotAffine("null labels exist only for affine matrices")
        return _kernel_labels(self.entries)

    # -- root system -----------------------------------------------------------

    def _table(self) -> "_RootTable":
        if self._root_table is None:
            self.classify()
            labels = self.null_labels() if self.is_affine() else None
            self._root_table = _RootTable(self.entries, labels)
        return self._root_table

    def membership(self, v) -> str:
        """Classify a lattice vector, given by its coordinates in the
        simple-root basis: 'zero' | 'real' | 'imaginary' | 'none'."""
        coords = tuple(v)
        if all(c == 0 for c in coords):
            return "zero"
        if all(c >= 0 for c in coords):
            pass
        elif all(c <= 0 for c in coords):
            coords = tuple(-c for c in coords)
        else:
            return "none"
        table = self._table()
        table.ensure(sum(coords))
        flag = table.flags.get(coords)
        return flag if flag is not None else "none"

    # -- symmetrizer -------------------------------------------------------------

    def symmetrizer(self, coroot_form) -> tuple[Fraction, ...]:
        """Derive the positive rationals eps_i, with diag(eps) * A symmetric,
        from a concrete invariant form on the coroots.

        coroot_form(i, j) must return <alpha_i^vee, alpha_j^vee> as a
        Fraction.  Asserts diag(eps) * A symmetric and the compatibility
        <alpha_i^vee, alpha_j^vee> = a_ij / eps_j.
        """
        n = self.n
        eps = []
        for j in range(n):
            q = Fraction(coroot_form(j, j))
            if q <= 0:
                raise FormMismatch(f"<alpha_{j}^vee, alpha_{j}^vee> must be positive")
            eps.append(Fraction(2) / q)
        for i in range(n):
            for j in range(n):
                if Fraction(coroot_form(i, j)) != Fraction(self.entries[i][j]) / eps[j]:
                    raise FormMismatch(
                        f"form value at ({i},{j}) disagrees with a_ij / eps_j"
                    )
                if eps[i] * self.entries[i][j] != eps[j] * self.entries[j][i]:
                    raise FormMismatch("diag(eps) * A is not symmetric")
        return tuple(eps)


# ---------------------------------------------------------------------------
# Root table

# The height at which close_finite gives up: no finite root system comes near
# it (E8 tops out at 29).
_FINITE_HEIGHT_CAP = 2000


class _RootTable:
    """Positive roots by height, generated with root strings up to the
    height a reader asks for (`ensure`, `close_finite`)."""

    def __init__(self, a: Matrix, null_labels: tuple[int, ...] | None):
        self.a = a
        self.n = len(a)
        self.null_labels = null_labels
        self.flags: dict[tuple[int, ...], str] = {}
        self.by_height: dict[int, set[tuple[int, ...]]] = {1: set()}
        for i in range(self.n):
            coords = tuple(1 if j == i else 0 for j in range(self.n))
            self.by_height[1].add(coords)
            self.flags[coords] = "real"
        self.built = 1

    def _flag(self, coords: tuple[int, ...]) -> str:
        if self.null_labels is not None:
            m, rem = divmod(coords[0], self.null_labels[0])
            if rem == 0 and m > 0 and all(
                c == m * l for c, l in zip(coords, self.null_labels)
            ):
                return "imaginary"
        return "real"

    def ensure(self, h: int) -> None:
        while self.built < h:
            cur = self.built
            nxt: set[tuple[int, ...]] = set()
            for coords in self.by_height.get(cur, ()):
                for i in range(self.n):
                    cand = list(coords)
                    cand[i] += 1
                    cand_t = tuple(cand)
                    if cand_t in nxt:
                        continue
                    # down-string length through coords in direction i
                    p = 0
                    walk = list(coords)
                    while True:
                        walk[i] -= 1
                        if walk[i] < 0:
                            break
                        t = tuple(walk)
                        if t in self.flags:
                            p += 1
                        else:
                            break
                    pairing = sum(
                        c * self.a[i][j] for j, c in enumerate(coords)
                    )
                    if p - pairing > 0:
                        nxt.add(cand_t)
            for coords in nxt:
                self.flags[coords] = self._flag(coords)
            self.by_height[cur + 1] = nxt
            self.built = cur + 1

    def close_finite(self) -> int:
        """Extend until a height level is empty; returns the top height."""
        h = 1
        while self.by_height.get(h):
            h += 1
            if h > _FINITE_HEIGHT_CAP:
                raise IndefiniteType("root system did not close; not finite type")
            self.ensure(h)
        return h - 1


# ---------------------------------------------------------------------------
# Classification internals


def _connected(a: Matrix) -> bool:
    n = len(a)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j not in seen and a[i][j] != 0:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def rational_symmetrizer(a: Matrix) -> tuple[Fraction, ...]:
    """Positive eps with eps_i a_ij = eps_j a_ji, or raise IndefiniteType."""
    n = len(a)
    eps: list[Fraction | None] = [None] * n
    eps[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and a[i][j] != 0:
                val = eps[i] * Fraction(a[i][j], a[j][i])
                if eps[j] is None:
                    eps[j] = val
                    stack.append(j)
                elif eps[j] != val:
                    raise IndefiniteType("matrix is not symmetrizable")
    assert all(e is not None and e > 0 for e in eps)
    return tuple(eps)  # type: ignore[arg-type]


def _kernel_labels(a: Matrix) -> tuple[int, ...]:
    """Primitive strictly positive integer kernel vector (corank-1 matrix)."""
    n = len(a)
    columns = [{i: a[i][j] for i in range(n) if a[i][j]} for j in range(n)]
    kernel = kernel_basis(columns, Fraction(1))
    if len(kernel) != 1:
        raise NotAffine("kernel is not one-dimensional")
    vec = [kernel[0].get(j, 0) for j in range(n)]
    denom_lcm = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom_lcm) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if all(x < 0 for x in ints):
        ints = [-x for x in ints]
    if not all(x > 0 for x in ints):
        raise NotAffine("kernel vector is not strictly positive")
    return tuple(ints)


def _classify(a: Matrix) -> Classification:
    n = len(a)
    eps = rational_symmetrizer(a)  # raises IndefiniteType if unsymmetrizable
    # Sylvester: row k of diag(eps) A, reduced by the rows before it, leaves
    # the pivot D_k / D_(k-1) at column k (the keys run -j, so the pivots go
    # left to right); finite when every pivot is positive, affine when only
    # the last is zero
    rows = Echelon()
    for k in range(n):
        v, _ = rows.reduce({-j: eps[k] * x for j, x in enumerate(a[k]) if x}, {})
        pivot = v.get(-k, 0)
        if pivot <= 0:
            break
        rows.insert(v, {})
    if pivot > 0:
        kind = "finite"
    elif pivot == 0 and k == n - 1:
        _kernel_labels(a)  # validates strict positivity
        kind = "affine"
    else:
        raise IndefiniteType("matrix is neither of finite nor of affine type")
    for letter, rank, twist, label, canonical in _candidates(kind, n):
        perm = _graph_iso(a, canonical)
        if perm is not None:
            return Classification(kind, letter, rank, twist, label, perm, canonical)
    raise IndefiniteType("matrix matches no finite or affine diagram")


def _graph_iso(a: Matrix, b: Matrix, pin=None) -> tuple[int, ...] | None:
    """Permutation p with a[i][j] == b[p[i]][p[j]], or None; `pin=(i, c)`
    asks for one with p[i] == c."""
    n = len(a)
    if len(b) != n:
        return None

    def invariant(m, i):
        return tuple(sorted((m[i][j], m[j][i]) for j in range(n) if j != i and m[i][j]))

    inv_a = [invariant(a, i) for i in range(n)]
    inv_b = [invariant(b, i) for i in range(n)]
    if sorted(inv_a) != sorted(inv_b):
        return None
    assign: list[int | None] = [None] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for c in range(n):
            if used[c] or inv_b[c] != inv_a[i]:
                continue
            if pin is not None and (i == pin[0]) != (c == pin[1]):
                continue
            ok = True
            for j in range(i):
                pj = assign[j]
                if a[i][j] != b[c][pj] or a[j][i] != b[pj][c]:
                    ok = False
                    break
            if ok:
                assign[i] = c
                used[c] = True
                if backtrack(i + 1):
                    return True
                assign[i] = None
                used[c] = False
        return False

    if backtrack(0):
        return tuple(assign)  # type: ignore[arg-type]
    return None


# ---------------------------------------------------------------------------
# Canonical matrices


def _chain_matrix(n: int, edges: dict[tuple[int, int], int]) -> Matrix:
    """Matrix with given off-diagonal entries (default 0), 2 on the diagonal."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
    for (i, j), v in edges.items():
        m[i][j] = v
    return tuple(tuple(row) for row in m)


def _simple_chain_edges(nodes: list[int]) -> dict[tuple[int, int], int]:
    e: dict[tuple[int, int], int] = {}
    for i, j in zip(nodes, nodes[1:]):
        e[(i, j)] = -1
        e[(j, i)] = -1
    return e


@lru_cache(maxsize=None)
def finite_matrix(letter: str, rank: int) -> Matrix:
    """Canonical finite Cartan matrix, nodes numbered 0..rank-1.

    Numbering: chains run left to right; D has its two fork nodes last;
    E has the branch node attached to node index 2 of the chain.
    """
    from loomfold.errors import UnknownType

    n = rank
    if letter == "A" and n >= 1:
        return _chain_matrix(n, _simple_chain_edges(list(range(n))))
    if letter == "B" and n >= 2:
        e = _simple_chain_edges(list(range(n)))
        e[(n - 1, n - 2)] = -2  # last node short
        return _chain_matrix(n, e)
    if letter == "C" and n >= 2:
        e = _simple_chain_edges(list(range(n)))
        e[(n - 2, n - 1)] = -2  # last node long
        return _chain_matrix(n, e)
    if letter == "D" and n >= 4:
        e = _simple_chain_edges(list(range(n - 1)))
        e[(n - 1, n - 3)] = -1
        e[(n - 3, n - 1)] = -1
        return _chain_matrix(n, e)
    if letter == "E" and n in (6, 7, 8):
        e = _simple_chain_edges(list(range(n - 1)))
        e[(n - 1, 2)] = -1
        e[(2, n - 1)] = -1
        return _chain_matrix(n, e)
    if letter == "F" and n == 4:
        e = _simple_chain_edges([0, 1, 2, 3])
        e[(2, 1)] = -2  # nodes 0,1 long; 2,3 short
        return _chain_matrix(4, e)
    if letter == "G" and n == 2:
        return ((2, -3), (-1, 2))  # node 0 short, node 1 long
    raise UnknownType(f"no finite type {letter}{rank}")


@lru_cache(maxsize=None)
def untwisted_affine_matrix(letter: str, rank: int) -> Matrix:
    """Canonical matrix of X_rank^(1): node 0 first, finite nodes shifted by 1.

    The extra row and column are computed from the highest root of the
    finite system and a rational symmetrizer.
    """
    fin = finite_matrix(letter, rank)
    n = rank
    table = _RootTable(fin, None)
    top = table.close_finite()
    highs = sorted(table.by_height[top])
    assert len(highs) == 1
    theta = highs[0]
    eps = rational_symmetrizer(fin)
    # (alpha_i, alpha_j) = eps_i a_ij
    theta_sq = sum(
        Fraction(theta[i] * theta[j]) * eps[i] * fin[i][j]
        for i in range(n)
        for j in range(n)
    )
    out = [[0] * (n + 1) for _ in range(n + 1)]
    out[0][0] = 2
    for j in range(n):
        col = -sum(theta[i] * fin[j][i] for i in range(n))  # a_{j0}
        pair = sum(Fraction(theta[i]) * eps[j] * fin[j][i] for i in range(n))
        row = Fraction(-2) * pair / theta_sq  # a_{0j}
        assert row.denominator == 1
        out[j + 1][0] = col
        out[0][j + 1] = int(row)
    for i in range(n):
        for j in range(n):
            out[i + 1][j + 1] = fin[i][j]
    if letter == "A" and rank == 1:
        assert out == [[2, -2], [-2, 2]]
    return tuple(tuple(r) for r in out)


@lru_cache(maxsize=None)
def twisted_affine_matrix(letter: str, rank: int, twist: int) -> Matrix:
    """Canonical matrix of X_rank^(twist), twist in {2, 3}; node 0 first.

    Node 0 carries the loop direction; the remaining nodes are the folded
    diagram of the order-`twist` automorphism, in orbit order.
    """
    from loomfold.errors import UnknownType

    if letter == "A" and twist == 2 and rank == 2:
        return ((2, -1), (-4, 2))
    if letter == "A" and twist == 2 and rank % 2 == 0 and rank >= 4:
        ell = rank // 2
        e = _simple_chain_edges(list(range(ell + 1)))
        e[(1, 0)] = -2
        e[(ell, ell - 1)] = -2
        return _chain_matrix(ell + 1, e)
    if letter == "A" and twist == 2 and rank % 2 == 1 and rank >= 5:
        ell = (rank + 1) // 2
        e = _simple_chain_edges(list(range(1, ell + 1)))
        e[(0, 2)] = -1
        e[(2, 0)] = -1
        e[(ell - 1, ell)] = -2
        e[(ell, ell - 1)] = -1
        return _chain_matrix(ell + 1, e)
    if letter == "D" and twist == 2 and rank >= 3:
        ell = rank - 1
        e = _simple_chain_edges(list(range(ell + 1)))
        e[(0, 1)] = -2
        e[(ell, ell - 1)] = -2
        return _chain_matrix(ell + 1, e)
    if letter == "E" and twist == 2 and rank == 6:
        # chain 0-1-2-3-4 with nodes 0,1,2 on the short side
        e = _simple_chain_edges([0, 1, 2, 3, 4])
        e[(2, 3)] = -2
        return _chain_matrix(5, e)
    if letter == "D" and twist == 3 and rank == 4:
        # chain 0-1-2 with node 1 short, node 2 long
        e = _simple_chain_edges([0, 1, 2])
        e[(1, 2)] = -3
        return _chain_matrix(3, e)
    raise UnknownType(f"no twisted affine type {letter}{rank}^({twist})")


def canonical_matrix(label: str) -> Matrix:
    """Canonical matrix for a label like 'A3', 'D4^(1)' or 'A5^(2)'."""
    letter = label[0]
    if "^" in label:
        sub, twist_part = label[1:].split("^")
        twist = int(twist_part.strip("()"))
        rank = int(sub)
        if twist == 1:
            return untwisted_affine_matrix(letter, rank)
        return twisted_affine_matrix(letter, rank, twist)
    return finite_matrix(letter, int(label[1:]))


def _finite_types(rank: int) -> list[tuple[str, int]]:
    """The finite types (letter, rank) of a rank, B2 left out: it is the
    diagram of C2."""
    specs = [("A", rank)] if rank >= 1 else []
    if rank >= 2:
        specs.append(("C", rank))
    if rank >= 3:
        specs.append(("B", rank))
    if rank >= 4:
        specs.append(("D", rank))
    if rank in (6, 7, 8):
        specs.append(("E", rank))
    if rank == 4:
        specs.append(("F", 4))
    if rank == 2:
        specs.append(("G", 2))
    return specs


def _candidates(kind: str, n: int):
    """All canonical (letter, rank, twist, label, matrix) of matrix size n."""
    if kind == "finite":
        return [
            (letter, rank, 0, f"{letter}{rank}", finite_matrix(letter, rank))
            for letter, rank in _finite_types(n)
        ]
    ell = n - 1
    out = [
        (letter, rank, 1, f"{letter}{rank}^(1)", untwisted_affine_matrix(letter, rank))
        for letter, rank in _finite_types(ell)
    ]
    twisted: list[tuple[str, int, int]] = []
    if ell == 1:
        twisted.append(("A", 2, 2))
    if ell >= 2:
        twisted.append(("A", 2 * ell, 2))
        twisted.append(("D", ell + 1, 2))
    if ell >= 3:
        twisted.append(("A", 2 * ell - 1, 2))
    if ell == 4:
        twisted.append(("E", 6, 2))
    if ell == 2:
        twisted.append(("D", 4, 3))
    for letter, rank, twist in twisted:
        out.append(
            (
                letter,
                rank,
                twist,
                f"{letter}{rank}^({twist})",
                twisted_affine_matrix(letter, rank, twist),
            )
        )
    return out
