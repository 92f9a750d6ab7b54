"""Finite-dimensional simple Lie algebras with exact structure constants.

Simply-laced types get the standard lattice construction: root vectors with
signs from a bimultiplicative asymmetry cocycle on the root lattice.  Each
root carries an additive int code, in a base wide enough that two codes sum
to that of a root only when the roots do, and the bit masks of the
cocycle's parity, so a pair of roots costs one addition and one lookup.  The
non-simply-laced types are built as fixed subalgebras of a simply-laced
source under a diagram automorphism, which keeps a single sign mechanism
for everything.  `diagram_twist` is the one table of those automorphisms,
read also by the twisted loop cores of `realize`.  Every build is certified
before it is returned: `FiniteAlg.assert_structure` checks antisymmetry, the
symmetry of the form, the Jacobi identity and invariance of the form on all
basis triples.  It visits only the nonzero structure constants, so its cost
grows with nnz(brackets) times a row's length, not with dim^3: on a 2-CPU
machine under Python 3.11, E8 (dim 248) builds in about 20 ms and its check
takes about 0.15 s, where loops over every basis triple took 17 s.

Both automorphisms of the finite core are monomial maps built by one
construction, `FiniteAlg._automorphism`: the twist nu of a diagram
automorphism (`mu_extend_finite`; e_i -> e_nu(i), f_i -> f_nu(i), h_i ->
h_nu(i)), which gives the twisted loop cores and the folded types, and the
Chevalley involution omega_0 (`FiniteAlg.omega`; e_i -> -f_i, f_i -> -e_i,
h -> -h), which lets the verifier derive the relations of sign -1 from
those of sign +1.  Each is extended from the generators root by root in
height order and certified on the tables in O(nnz) before it is returned:
it permutes the basis up to nonzero scales, it maps each nonzero structure
constant [x_a, x_b] onto the one of its image pair, and it keeps each
nonzero form entry (x_a, x_b).  Since its pair map is a bijection of each
table's support, that makes it an automorphism of the bracket that keeps
the form.  On E6 each takes about 2 ms on a 2-CPU machine under Python
3.11.  A folded type sums root vectors over the nu-orbits and reads its
root coordinates by restriction: c_t is the sum of the source coordinates
over the node orbit of t.  These orbit sums and the sums of h_p over the
node orbits have disjoint supports, so the folded tables are summed over
the source's nonzero entries, and a bracket's coordinates are read off the
supports, one index each, with the remainder checked exactly.  On the same
machine the cores of the build-cores benchmark (E6, D4, F4, G2, C3 and the
source A5) build and check in about 40 ms in a fresh process.

Elements are sparse dicts {basis index: Fraction}.  The structure tables
`brackets` and `form` hold an int wherever a constant is integral (every
Chevalley table here), so the bracket kernels above scale by plain ints.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from loomfold.cartan import _RootTable, _graph_iso, finite_matrix
from loomfold.errors import GeneratorAssertionFailed, UnknownType
from loomfold.exactnum import Echelon, perm_orbits, vec_add, vec_scale

Vec = dict[int, Fraction]


@dataclass
class FiniteAlg:
    """Chevalley-type basis with bracket and invariant-form tables.

    Built from the basis and the tables; the rank and the indexes (basis
    key -> position, root coordinates per basis element, positions of the
    generators e_i, f_i, h_i) are derived from `matrix` and `basis`.
    """

    label: str
    matrix: tuple  # Cartan matrix
    basis: list  # keys ("h", i) | ("x", coords)
    brackets: dict  # (i, j) -> {basis index: int or Fraction}
    form: dict  # (i, j) -> int or Fraction, symmetric, sparse
    rank: int = field(init=False)
    index: dict = field(init=False)  # key -> int
    root_of: list = field(init=False)  # per basis element: root coords (zeros for Cartan)
    e_idx: list = field(init=False)
    f_idx: list = field(init=False)
    h_idx: list = field(init=False)

    def __post_init__(self):
        n = self.rank = len(self.matrix)
        self.index = {k: i for i, k in enumerate(self.basis)}
        zero = (0,) * n
        self.root_of = [k[1] if k[0] == "x" else zero for k in self.basis]
        simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        self.e_idx = [self.index[("x", c)] for c in simple]
        self.f_idx = [self.index[("x", tuple(-x for x in c))] for c in simple]
        self.h_idx = [self.index[("h", i)] for i in range(n)]

    @cached_property
    def partners(self) -> dict:
        """i -> {j: (brackets[(i, j)], form[(i, j)])} over the nonzero pairs
        of both tables: one int-keyed lookup per basis pair in the bracket
        kernel, built on its first use."""
        rows: dict = {}
        for i, j in itertools.chain(self.brackets, self.form):
            entry, pairing = self.brackets.get((i, j)), self.form.get((i, j))
            if entry or pairing:
                rows.setdefault(i, {})[j] = (entry, pairing)
        return rows

    @cached_property
    def omega(self) -> tuple:
        """The Chevalley involution omega_0 (e_i -> -f_i, f_i -> -e_i,
        h -> -h) as a monomial map (perm, scale), built on its first use."""
        gens = [((f, -1), (e, -1), (h, -1)) for e, f, h in zip(self.e_idx, self.f_idx, self.h_idx)]
        return self._automorphism("omega_0", gens)

    def _automorphism(self, name: str, gens) -> tuple:
        """The automorphism phi named `name` with the generator images
        `gens`, one ((e, s), (f, s'), (h, s'')) per node i for phi(e_i) =
        s x_e, phi(f_i) = s' x_f and phi(h_i) = s'' x_h, as a monomial map:
        (perm, scale), phi(x_b) = scale[b] x_perm[b] on every basis index b.

        It is built root by root in height order, in O(dim): for a positive
        root gamma = beta + alpha_i with [e_i, x_beta] = c x_gamma,
        phi(x_gamma) = [phi e_i, phi x_beta] / c, and x_-gamma is reached the
        same way through f_i; each such bracket must be a multiple of one
        basis vector.  Nothing else is assumed: `_certify` checks the result
        on the tables."""
        index, brackets = self.index, self.brackets
        perm, scale = list(range(self.dim)), [0] * self.dim
        for i, images in enumerate(gens):
            for b, (t, s) in zip((self.e_idx[i], self.f_idx[i], self.h_idx[i]), images):
                perm[b], scale[b] = t, s
        positive = sorted((k[1] for k in self.basis if k[0] == "x" and sum(k[1]) > 1), key=sum)
        for root in positive:
            for i in range(self.rank):  # a root of height > 1 has a lower root
                beta = tuple(x - (t == i) for t, x in enumerate(root))
                if ("x", beta) in index:
                    break
            for sign, gen in ((1, self.e_idx[i]), (-1, self.f_idx[i])):
                gamma = tuple(sign * x for x in root)
                b, lower = index[("x", gamma)], index[("x", tuple(sign * x for x in beta))]
                c = brackets.get((gen, lower), {}).get(b)
                image = brackets.get((perm[gen], perm[lower]), {})
                if not c or len(image) != 1:
                    raise GeneratorAssertionFailed(
                        f"{self.label}: {name} maps x_{gamma} to no root vector"
                    )
                ((perm[b], d),) = image.items()
                scale[b] = _integral(Fraction(scale[gen] * scale[lower] * d) / c)
        self._certify(name, perm, scale)
        return tuple(perm), tuple(scale)

    def _certify(self, name: str, perm: list, scale: list) -> None:
        """Certify that phi: b -> scale[b] perm[b], named `name`, is an
        automorphism of the bracket that keeps the form, in O(nnz) of the
        tables: perm is a permutation and no scale is zero (a monomial map);
        phi [x_a, x_b] = [phi x_a, phi x_b] for every nonzero [x_a, x_b];
        and (phi x_a, phi x_b) = (x_a, x_b) for every nonzero (x_a, x_b).
        Each nonzero entry maps to a nonzero entry with as many terms, and
        perm x perm is injective, so it maps the support of each table onto
        itself; every pair off the supports then maps off them, where both
        sides vanish, so the identities hold on the union of the supports
        and the map is an automorphism that keeps the form."""
        if sorted(perm) != list(range(self.dim)) or not all(scale):
            raise GeneratorAssertionFailed(f"{self.label}: {name} is not monomial")
        brackets = self.brackets
        for (a, b), v in brackets.items():
            w = brackets.get((perm[a], perm[b]), {})
            s = scale[a] * scale[b]
            ok = len(w) == len(v)
            for t, c in v.items():
                ok = ok and w.get(perm[t], 0) * s == c * scale[t]
            if not ok:
                raise GeneratorAssertionFailed(
                    f"{self.label}: {name} is no automorphism at ({a},{b})"
                )
        for (a, b), f in self.form.items():
            if self.form.get((perm[a], perm[b]), 0) * scale[a] * scale[b] != f:
                raise GeneratorAssertionFailed(
                    f"{self.label}: {name} moves the form at ({a},{b})"
                )

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- element helpers ------------------------------------------------------

    def unit(self, i: int) -> Vec:
        return {i: Fraction(1)}

    def e(self, i: int) -> Vec:
        return self.unit(self.e_idx[i])

    def f(self, i: int) -> Vec:
        return self.unit(self.f_idx[i])

    def h(self, i: int) -> Vec:
        return self.unit(self.h_idx[i])

    def bracket(self, v: Vec, w: Vec) -> Vec:
        out: Vec = {}
        for i, a in v.items():
            for j, b in w.items():
                entry = self.brackets.get((i, j))
                if entry:
                    c = a * b
                    for k, s in entry.items():
                        cur = out.get(k)
                        val = c * s if cur is None else cur + c * s
                        if val:
                            out[k] = val
                        elif k in out:
                            del out[k]
        return out

    def pair(self, v: Vec, w: Vec) -> int | Fraction:
        total = 0
        for i, a in v.items():
            for j, b in w.items():
                s = self.form.get((i, j))
                if s:
                    total += a * b * s
        return total

    # -- structural assertions ---------------------------------------------------

    def assert_structure(self):
        """Antisymmetry, Jacobi, form symmetry and invariance.

        Certifies [i,j] = -[j,i] for every stored pair, in both orders;
        (i,j) = (j,i) for every stored form entry, in both orders; that
        the Jacobiator [[i,j],k] - [i,[j,k]] + [j,[i,k]] vanishes for every
        i < j < k (a triple with a repeated index then holds by
        antisymmetry); and ([i,j],k) = (i,[j,k]) for all i, j, k.  Only
        nonzero structure constants are visited: both defects are sums over
        the entries of `brackets` and `form`, reached through row and
        inverse indexes, so the cost is about nnz(brackets) times a row's
        length instead of dim^3 bracket calls.  Both indexes are sorted, so
        each walk over the indexes above i starts at a bisect, and a sum is
        keyed by one int per (j, k, l).  They are accumulated for one
        smallest index i at a time and checked before the next, so memory
        stays at the size of the tables and a failure names the first pair
        or triple in lexicographic order.
        """
        dim = self.dim
        flat: list = [[] for _ in range(dim)]  # flat[a] = [(b, l, coefficient of l in [a, b])]
        bad = []
        for (a, b), v in self.brackets.items():
            row = flat[a]
            for l, c in v.items():
                row.append((b, l, c))
            w = self.brackets.get((b, a), {})
            # a pair stored in both orders is compared once, from a <= b
            if (a <= b or not w) and any(v.get(l, 0) != -w.get(l, 0) for l in v.keys() | w.keys()):
                bad.append((min(a, b), max(a, b)))
        if bad:
            i, j = min(bad)
            raise GeneratorAssertionFailed(
                f"{self.label}: bracket not antisymmetric at ({i},{j})"
            )
        # flat[a] sorted, and inv[l] = [(a, a dim + b, coefficient of l in
        # [a, b]), a < b] sorted: a walk over b > i or over a > i starts at
        # a bisect
        inv: list = [[] for _ in range(dim)]
        for a, row in enumerate(flat):
            row.sort()
            for b, l, c in row[bisect_left(row, (a + 1,)):]:
                inv[l].append((a, a * dim + b, c))
        rows: list = [{} for _ in range(dim)]  # rows[a][k] = (a, k)
        for (a, k), f in self.form.items():
            rows[a][k] = f
            if self.form.get((k, a), 0) != f:
                bad.append((min(a, k), max(a, k)))
        if bad:
            i, j = min(bad)
            raise GeneratorAssertionFailed(f"{self.label}: form not symmetric at ({i},{j})")

        def first_failure(acc: dict, what: str, i: int, width: int) -> None:
            # acc is keyed by (j dim + k) width + l, l < width
            if any(acc.values()):
                j, k = divmod(min(t for t, x in acc.items() if x) // width, dim)
                raise GeneratorAssertionFailed(f"{self.label}: {what} at ({i},{j},{k})")

        for i in range(dim):
            row_i = flat[i]
            acc: dict = {}  # coefficient of l in J(i, j, k) at (j dim + k) dim + l
            for p, a, c in row_i[bisect_left(row_i, (i + 1,)):]:
                # c [a,q] is a term of [[i,p],q]: of the first term of
                # J(i,p,q) when p < q, of minus the third of J(i,q,p) when q < p
                row, pd = flat[a], p * dim
                for q, l, x in row[bisect_left(row, (i + 1,)):]:
                    if p < q:
                        key = (pd + q) * dim + l
                        acc[key] = acc.get(key, 0) + c * x
                    elif q < p:
                        key = (q * dim + p) * dim + l
                        acc[key] = acc.get(key, 0) - c * x
            for a, l, x in row_i:  # -[i,[j,k]] through the entries [j,k]_a
                terms = inv[a]
                for _, jk, c in terms[bisect_left(terms, (i + 1,)):]:
                    acc[jk * dim + l] = acc.get(jk * dim + l, 0) - c * x
            first_failure(acc, "Jacobi fails", i, dim)
        for i in range(dim):
            acc = {}  # ([i,j], k) - (i, [j,k]) at j dim + k
            for j, a, c in flat[i]:
                for k, f in rows[a].items():
                    acc[j * dim + k] = acc.get(j * dim + k, 0) + c * f
            for b, f in rows[i].items():
                for j, jk, c in inv[b]:
                    kj = (jk - j * dim) * dim + j
                    acc[jk] = acc.get(jk, 0) - f * c
                    acc[kj] = acc.get(kj, 0) + f * c
            first_failure(acc, "form not invariant", i, 1)


# ---------------------------------------------------------------------------
# Simply-laced construction


def _positive_roots(matrix) -> list:
    table = _RootTable(matrix, None)
    top = table.close_finite()
    out = []
    for h in range(1, top + 1):
        out.extend(sorted(table.by_height[h]))
    return out


def _build_simply_laced(letter: str, rank: int) -> FiniteAlg:
    matrix = finite_matrix(letter, rank)
    n = rank
    pos = _positive_roots(matrix)
    roots = pos + [tuple(-c for c in r) for r in pos]
    m = len(roots)
    basis = [("h", i) for i in range(n)] + [("x", r) for r in roots]
    sign = [1] * len(pos) + [-1] * len(pos)  # sgn(r), of x_r at basis index n + t

    # the additive code sum_i r_i base^i of each root: a sum of two roots has
    # coefficients of size at most base // 2, so its code is 0 when the sum
    # is 0, and that of a root exactly when the sum is that root
    base = 4 * max(map(max, pos)) + 1
    codes = [sum(c * base**i for i, c in enumerate(r)) for r in roots]
    root_at = {code: t for t, code in enumerate(codes)}
    # the asymmetry cocycle eps(a, b) = (-1)^(a^T E b), E_ij = 1 when i = j
    # or when i < j are joined, else 0: the parity of the bits of
    # (a mod 2) AND (E b mod 2)
    upper = [[j == i or (j > i and matrix[i][j] != 0) for j in range(n)] for i in range(n)]
    odd = [sum((r[i] % 2) << i for i in range(n)) for r in roots]
    e_odd = [
        sum((sum(x for x, u in zip(r, row) if u) % 2) << i for i, row in enumerate(upper))
        for r in roots
    ]

    brackets: dict = {}
    form: dict = {}

    def put(i, j, vec: Vec):
        if vec:
            brackets[(i, j)] = vec
            brackets[(j, i)] = {k: -c for k, c in vec.items()}

    for i in range(n):
        for t, r in enumerate(roots):
            c = sum(r[j] * matrix[i][j] for j in range(n))
            if c:
                put(i, n + t, {n + t: c})
    for ta, a in enumerate(roots):
        for tb in range(ta + 1, m):  # [x_a, x_a] = 0
            s = codes[ta] + codes[tb]
            if s and s not in root_at:
                continue
            coeff = sign[ta] * sign[tb] * (-1) ** (odd[ta] & e_odd[tb]).bit_count()
            if not s:
                put(n + ta, n + tb, {i: coeff * a[i] for i in range(n) if a[i]})
            else:
                put(n + ta, n + tb, {n + root_at[s]: coeff * sign[root_at[s]]})

    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                form[(i, j)] = matrix[i][j]
    for t in range(m):
        form[(n + t, n + (t + len(pos)) % m)] = 1

    return FiniteAlg(f"{letter}{rank}", matrix, basis, brackets, form)


# ---------------------------------------------------------------------------
# Bracket closure and the diagram twist


def close(ech: Echelon, pairs, ad, bracket, keep=None, rounds=None, caps=None) -> None:
    """Insert the seed (element, image) pairs into `ech` and close them
    under `ad`.

    Works breadth first: each round brackets every (s, s_img) of `ad` with
    each pair the previous round added, and inserts [s, a] with the image
    [s_img, a_img].  A bracket that is zero or fails `keep` is skipped; at
    most `rounds` rounds run when given.  An empty image (a span closure
    maps everything to {}) is not bracketed.

    In the first round a pair of `ad` that is itself one of `pairs` (the
    same object) meets every other such pair twice, as (s, a) and (a, s);
    only the first of the two is bracketed, and no such pair with itself.
    The later one would insert [a, s] = -[s, a] with the image
    [a_img, s_img] = -[s_img, a_img]: both brackets are antisymmetric
    (`FiniteAlg.assert_structure` certifies the table and the symmetric
    form that the central terms read), and a bracket fails `keep` (which
    must read only the keys) exactly when its mirror does, so it never adds
    a row and its consistency check repeats the first one.  The rows and
    their order are those of a closure that brackets every pair.

    `caps`, when given, cuts the closure short (`realize._Caps` caps the
    span closure of the fixed blocks): every element that adds a row, seed
    or bracket, goes to `caps.row`, and the closure stops as soon as that
    returns True; a bracket [s, a] for which `caps.skip(s, a)` is True is not
    made.  The caller answers for what a skipped bracket or an early stop
    leaves out: `realize._Caps` certifies what it counts and stops at the
    first certificate that fails.
    """
    frontier = []
    for pair in pairs:
        if ech.insert(*pair):
            frontier.append(pair)
            if caps is not None and caps.row(pair[0]):
                return
    in_ad = {id(p) for p in ad}
    met: set = set()  # ids of the seed pairs of `ad` already in the frontier
    done = 0
    while frontier and (rounds is None or done < rounds):
        new = []
        for a_pair in frontier:
            a, a_img = a_pair
            mirrored = ()
            if not done and id(a_pair) in in_ad:
                met.add(id(a_pair))
                mirrored = met
            for s_pair in ad:
                if id(s_pair) in mirrored:
                    continue
                s, s_img = s_pair
                if caps is not None and caps.skip(s, a):
                    continue
                b = bracket(s, a)
                if not b or (keep is not None and not keep(b)):
                    continue
                b_img = bracket(s_img, a_img) if s_img and a_img else {}
                if ech.insert(b, b_img):
                    new.append((b, b_img))
                    if caps is not None and caps.row(b):
                        return
        frontier = new
        done += 1


def mu_extend_finite(alg: FiniteAlg, perm) -> tuple:
    """Extend a diagram automorphism nu (e_i -> e_perm[i], f_i -> f_perm[i],
    h_i -> h_perm[i]) from the generators to the whole algebra.

    Returns nu as the monomial map (perm, scale) of `FiniteAlg.omega`,
    nu(x_b) = scale[b] x_perm[b] with int scales: it is built root by root
    and certified as omega_0 is.
    """
    gens = [((alg.e_idx[p], 1), (alg.f_idx[p], 1), (alg.h_idx[p], 1)) for p in perm]
    return alg._automorphism("nu", gens)


# ---------------------------------------------------------------------------
# Folding construction


def diagram_twist(letter: str, rank: int, r: int) -> tuple[str, tuple]:
    """The finite label X_rank and its order-r diagram automorphism nu: the
    core and the twist of the loop algebra X_rank^(r), or, at r > 1, the
    simply-laced source that folds to a non-simply-laced type.  D3 is read
    as A3.

    nu is the identity for r = 1; at r = 2 the reversal of A, the swap of
    the last two nodes of D and the flip of E6; at r = 3 the triality of D4.
    """
    if (letter, rank) == ("D", 3):
        letter = "A"  # D3 and A3 are the same diagram
    nu = list(range(rank))
    if r == 1:
        pass
    elif letter == "A" and r == 2:
        nu.reverse()
    elif letter == "D" and r == 2:
        nu[-2], nu[-1] = nu[-1], nu[-2]
    elif (letter, rank, r) == ("E", 6, 2):
        nu = [4, 3, 2, 1, 0, 5]
    elif (letter, rank, r) == ("D", 4, 3):
        nu = [2, 1, 3, 0]
    else:
        raise UnknownType(f"no diagram twist of order {r} on {letter}{rank}")
    return f"{letter}{rank}", tuple(nu)


# folded letter -> (source letter, source rank from the folded rank, twist order)
_FOLDS = {
    "B": ("D", lambda n: n + 1, 2),
    "C": ("A", lambda n: 2 * n - 1, 2),
    "F": ("E", lambda n: 6, 2),
    "G": ("D", lambda n: 4, 3),
}


def _build_folded(letter: str, rank: int) -> FiniteAlg:
    src_letter, src_rank, r = _FOLDS[letter]
    src_label, perm = diagram_twist(src_letter, src_rank(rank), r)
    src = chevalley(src_label)
    nu_perm, nu_scale = mu_extend_finite(src, perm)
    node_orbits = perm_orbits(perm)
    fold_matrix = tuple(
        tuple(
            sum(src.matrix[q][orb2[0]] for q in orb1) for orb2 in node_orbits
        )
        for orb1 in node_orbits
    )
    target = finite_matrix(letter, rank)
    iso = _graph_iso(fold_matrix, target)
    if iso is None:
        raise GeneratorAssertionFailed(f"folded matrix of {letter}{rank} does not match")
    orbit_for_node = [None] * rank
    for orb_idx, node in enumerate(iso):
        orbit_for_node[node] = node_orbits[orb_idx]

    n = rank
    # fixed vectors: sums over the nu-orbits of root vectors, each orbit
    # walked once; nu is monomial, so the sum is fixed when the product of
    # the scales around the orbit is 1
    fixed_vectors = []
    seen = set()
    for key, coords in zip(src.basis, src.root_of):
        if key[0] != "x" or coords in seen:
            continue
        b, total, s = src.index[key], {}, 1
        while b not in total:
            total[b] = s
            s *= nu_scale[b]
            b = nu_perm[b]
        if s != 1:
            raise GeneratorAssertionFailed(
                f"orbit sum at {coords} is not fixed; fold of {letter}{rank} broken"
            )
        seen.update(src.root_of[t] for t in total)
        fixed_vectors.append((coords, total))

    cartan_vectors = [{src.h_idx[p]: 1 for p in orbit_for_node[t]} for t in range(n)]

    # folded root coordinates: the restriction c_t = sum of the source
    # coordinates over the node orbit of t, checked as the weight of the
    # orbit sum: [h~_t, v] = (sum_r A_tr c_r) v
    folded_keys = []
    folded_vecs = []
    for coords, vec in fixed_vectors:
        c = tuple(sum(coords[p] for p in orbit_for_node[t]) for t in range(n))
        for t in range(n):
            lam = sum(a * x for a, x in zip(target[t], c))
            if src.bracket(cartan_vectors[t], vec) != vec_scale(vec, lam):
                raise GeneratorAssertionFailed(
                    f"orbit sum at {coords} is no Cartan eigenvector of weight {c} in {src.label}"
                )
        folded_keys.append(("x", c))
        folded_vecs.append(vec)

    basis = [("h", t) for t in range(n)] + folded_keys
    vectors = cartan_vectors + folded_vecs

    expected_dim = n + len(_positive_roots(target)) * 2
    if len(basis) != expected_dim:
        raise GeneratorAssertionFailed(
            f"fixed subalgebra of {src.label} has dimension {len(basis)}, "
            f"expected {expected_dim} for {letter}{rank}"
        )

    # the supports of the vectors are disjoint, so both tables are summed
    # over the source partners (k, l) of their entries, k in the support of
    # vectors[i] and l in that of vectors[j].  A bracket's coordinate on
    # vectors[t] is read at the top index of its support, in the order of
    # falling top indexes, as the entry there times the vector's coefficient
    # there: its own inverse when it is 1 or -1, as every coefficient of an
    # orbit sum here is.  The remainder is checked exactly, so a bracket
    # outside the span, or any other coefficient, raises
    owner = {k: t for t, vec in enumerate(vectors) for k in vec}
    top = {max(vec): t for t, vec in enumerate(vectors)}
    brackets: dict = {}
    form: dict = {}
    for i, vi in enumerate(vectors):
        ads: dict = {}  # j -> [vectors[i], vectors[j]], j >= i
        pairs: dict = {}  # j -> (vectors[i], vectors[j])
        for k, c in vi.items():
            for l, (entry, pairing) in src.partners.get(k, {}).items():
                j = owner[l]
                d = c * vectors[j][l]
                if entry and j >= i:
                    vec_add(ads.setdefault(j, {}), entry, d)
                if pairing:
                    pairs[j] = pairs.get(j, 0) + d * pairing
        for j, br in sorted(ads.items()):
            out = {top[k]: br[k] * vectors[top[k]][k] for k in sorted(br, reverse=True) if k in top}
            if br != {k: x * c for t, x in out.items() for k, c in vectors[t].items()}:
                raise GeneratorAssertionFailed(
                    f"[v_{i}, v_{j}] leaves the span of the orbit sums of {src.label}"
                )
            if out:
                brackets[(i, j)] = out
                brackets[(j, i)] = {k: -c for k, c in out.items()}
        form.update(((i, j), pairs[j]) for j in sorted(pairs) if pairs[j])

    return FiniteAlg(f"{letter}{rank}", target, basis, brackets, form)


def _integral(q: Fraction):
    """q as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


# ---------------------------------------------------------------------------
# Entry point


@lru_cache(maxsize=None)
def chevalley(label: str) -> FiniteAlg:
    """Build, certify and cache the finite algebra for a label like 'A2' or 'G2'."""
    letter = label[0]
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise UnknownType(f"bad finite type label {label!r}") from exc
    if letter in ("A", "D", "E"):
        finite_matrix(letter, rank)  # raises UnknownType for bad ranks
        alg = _build_simply_laced(letter, rank)
    elif letter in _FOLDS:
        finite_matrix(letter, rank)
        alg = _build_folded(letter, rank)
    else:
        raise UnknownType(f"no finite type {label!r}")
    alg.assert_structure()
    return alg
