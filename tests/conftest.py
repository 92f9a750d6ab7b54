"""Shared, build-once realizations for the test session."""

import itertools
import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from loomfold import kernel
from loomfold.cartan import Gcm, _graph_iso, _RootTable, finite_matrix
from loomfold.catalog import CatalogEntry, builtin_entries, entry_by_name
from loomfold.chevalley import _FOLDS, diagram_twist, mu_extend_finite
from loomfold.chevalley import chevalley as chevalley_alg
from loomfold.exactnum import CycNum, Echelon, cyc_root, perm_orbits, vec_add
from loomfold.folding import validate_aut
from loomfold.polys import family_as, family_locality, family_p
from loomfold.presentation import RelationCheck, RelationReport, suite_window
from loomfold.realize import Realization


@lru_cache(maxsize=None)
def cached_family(name: str):
    e = entry_by_name(name)
    return family_p(e.gcm, e.mu)


@lru_cache(maxsize=None)
def cached_realization(name: str):
    """Realization with the window of the acceptance bounds (modes 4, plus
    the degree-6 commutator grid), which bounds its span closures; the
    relation checks bracket with no window."""
    e = entry_by_name(name)
    fam = cached_family(name)
    m1, m2 = suite_window(e.gcm, e.mu, fam, 4)
    m1 = max(m1, 2 * 6 + 2)
    return Realization(e.gcm, e.mu, m1_window=m1, m2_window=m2)


def relabelled(entry: CatalogEntry, seed: int) -> CatalogEntry:
    """`entry` with its nodes renumbered by the permutation p that
    random.Random(seed) shuffles range(n) into: the matrix A' with
    A'[p i][p j] = A[i][j] and the twist mu' = p mu p^-1.  The pair is
    isomorphic to the entry, so every report is the entry's up to the
    renumbering, while the program sees labels it was not written around."""
    n = entry.gcm.n
    p = list(range(n))
    random.Random(seed).shuffle(p)
    a = [[0] * n for _ in range(n)]
    mu = [0] * n
    for i in range(n):
        mu[p[i]] = p[entry.mu.perm[i]]
        for j in range(n):
            a[p[i]][p[j]] = entry.gcm.entries[i][j]
    gcm = Gcm(a)
    return CatalogEntry(entry.name, gcm, validate_aut(gcm, mu))


@pytest.fixture(scope="session")
def realization_for():
    return cached_realization


@pytest.fixture(scope="session")
def family_for():
    return cached_family


@pytest.fixture(scope="session")
def catalog_names():
    return [e.name for e in builtin_entries()]


def nu_by_propagation(alg, perm):
    """The reference for `chevalley.mu_extend_finite`: the images of the
    basis vectors under the diagram automorphism perm, propagated from the
    generator pairs (e_i, e_perm[i]), (f_i, f_perm[i]) and (h_i, h_perm[i])
    by the bracket closure `chevalley.close` over `alg.bracket` in an
    `Echelon`, which checks every element reached twice for a consistent
    image.  `close` is looked up on each call, so a test can replace it."""
    chevalley = sys.modules["loomfold.chevalley"]
    ech = Echelon()
    seeds = []
    for i, p in enumerate(perm):
        seeds += [(alg.e(i), alg.e(p)), (alg.f(i), alg.f(p)), (alg.h(i), alg.h(p))]
    chevalley.close(ech, seeds, seeds, alg.bracket)
    assert ech.rank == alg.dim, f"{alg.label}: generator words span only {ech.rank} of {alg.dim}"
    return [ech.apply(alg.unit(b)) for b in range(alg.dim)]


def simply_laced_by_cocycle(letter: str, rank: int) -> tuple:
    """The reference for `chevalley._build_simply_laced`: (basis, brackets,
    form) of the lattice construction with root sums formed as tuples and
    the asymmetry cocycle eps(a, b) summed over every pair of coordinates."""
    matrix = finite_matrix(letter, rank)
    n = rank
    table = _RootTable(matrix, None)
    pos = [r for h in range(1, table.close_finite() + 1) for r in sorted(table.by_height[h])]
    roots = pos + [tuple(-c for c in r) for r in pos]

    def eps(a, b):
        parity = sum(
            a[i] * b[j] for i in range(n) for j in range(n) if i == j or (i < j and matrix[i][j])
        )
        return -1 if parity % 2 else 1

    def sgn(r):
        return 1 if sum(r) > 0 else -1

    basis = [("h", i) for i in range(n)] + [("x", r) for r in roots]
    index = {k: i for i, k in enumerate(basis)}
    brackets, form = {}, {}

    def put(i, j, vec):
        if vec:
            brackets[(i, j)] = vec
            brackets[(j, i)] = {k: -c for k, c in vec.items()}

    for i in range(n):
        for r in roots:
            c = sum(r[j] * matrix[i][j] for j in range(n))
            if c:
                put(i, index[("x", r)], {index[("x", r)]: c})
    for ia, a in enumerate(roots):
        for b in roots[ia:]:
            s = tuple(x + y for x, y in zip(a, b))
            if not any(s):
                coeff = sgn(a) * sgn(b) * eps(a, b)
                put(index[("x", a)], index[("x", b)], {i: coeff * a[i] for i in range(n) if a[i]})
            elif ("x", s) in index:
                coeff = sgn(a) * sgn(b) * sgn(s) * eps(a, b)
                put(index[("x", a)], index[("x", b)], {index[("x", s)]: coeff})
    for i in range(n):
        for j in range(n):
            if matrix[i][j]:
                form[(i, j)] = matrix[i][j]
    for r in roots:
        form[(index[("x", r)], index[("x", tuple(-c for c in r))])] = 1
    return basis, brackets, form


def folded_by_echelon(letter: str, rank: int) -> tuple:
    """The reference for `chevalley._build_folded`: (basis, brackets, form)
    of the fixed subalgebra spanned by the Cartan orbit sums and the
    nu-orbit sums of root vectors, with every bracket of two of them
    expanded in an `Echelon` over Fraction coordinates and every form
    entry summed by `FiniteAlg.pair`."""
    src_letter, src_rank, r = _FOLDS[letter]
    src_label, perm = diagram_twist(src_letter, src_rank(rank), r)
    src = chevalley_alg(src_label)
    nu_perm, nu_scale = mu_extend_finite(src, perm)
    node_orbits = perm_orbits(perm)
    fold_matrix = tuple(
        tuple(sum(src.matrix[q][o2[0]] for q in o1) for o2 in node_orbits) for o1 in node_orbits
    )
    orbit_for_node = [None] * rank
    for orb, node in zip(node_orbits, _graph_iso(fold_matrix, finite_matrix(letter, rank))):
        orbit_for_node[node] = orb
    keys = [("h", t) for t in range(rank)]
    vectors = [{src.h_idx[p]: Fraction(1) for p in orbit_for_node[t]} for t in range(rank)]
    seen = set()
    for key, coords in zip(src.basis, src.root_of):
        if key[0] != "x" or coords in seen:
            continue
        b, total, s = src.index[key], {}, Fraction(1)
        while b not in total:
            total[b] = s
            s *= nu_scale[b]
            b = nu_perm[b]
        seen.update(src.root_of[t] for t in total)
        keys.append(("x", tuple(sum(coords[p] for p in orb) for orb in orbit_for_node)))
        vectors.append(total)

    def integral(q):
        return q.numerator if q.denominator == 1 else q

    expander = Echelon()
    for i, vec in enumerate(vectors):
        expander.insert(vec, {i: Fraction(1)})
    brackets, form = {}, {}
    for i, vi in enumerate(vectors):
        for j in range(i, len(vectors)):
            br = src.bracket(vi, vectors[j])
            out = {k: integral(c) for k, c in expander.apply(br).items()} if br else {}
            if out:
                brackets[(i, j)] = out
                brackets[(j, i)] = {k: -c for k, c in out.items()}
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            val = src.pair(vi, vj)
            if val:
                form[(i, j)] = integral(val)
    return keys, brackets, form


def reference_report(real, fam, modes, kind="DS"):
    """The reference for `Verifier.run_suite(fam, modes, certificate)`, with
    relation `kind` "DS" (certificate False) or "P1" (True): its report,
    with every row of every ordered pair and of both signs summed directly
    from the generator images `real._theta` and the kernel's bracket
    (`kernel._loop_bracket`, then `kernel._place`), memoised by modes only.  No pair classes,
    audit, derived signs or residue-class members: each row is its own sum
    of (coefficient, element) terms with `vec_add`, its coefficients written
    in the row's field, Q(xi_L) or Q(xi_F) of the pair's relation."""
    galg, mu, big_n, field = real.galg, real.mu, real.n_order, real.field
    n, a = real.gcm.n, real.gcm.entries
    span = range(-modes, modes + 1)
    grid = f"|m|,|n|<={modes}"
    memo: dict = {}

    def bracket(x, y):
        acc = kernel._loop_bracket(galg.alg, field, x, y)
        return kernel._place(acc, galg.mode == "affine", galg.r, 0, 0)

    def nested(p, i, q, j, ks):
        """[theta(p, i, k_1), [..., [theta(p, i, k_s), theta(q, j, k_s+1)]]]."""
        if len(ks) == 1:
            return real._theta(q, j, ks[0])
        key = (p, i, q, j, ks)
        if key not in memo:
            memo[key] = bracket(real._theta(p, i, ks[0]), nested(p, i, q, j, ks[1:]))
        return memo[key]

    def check(chk, rows, order):
        """Sum each (modes, terms) row of `chk` in Q(xi_order)."""
        for out, terms in rows:
            chk.checked += 1
            total: dict = {}
            for c, v in terms:
                vec_add(total, v, c)
            if total:
                chk.record_failure(out, {k: c.lift(order) for k, c in total.items()})
        return chk

    def phase(k):
        return cyc_root(big_n, k).lift(field)

    one = CycNum.one()
    checks = []
    for i in range(n):
        # theta(p, mu i, m) - xi_N^m theta(p, i, m)
        rows = {"H": [], "Xperiod": []}
        for m in span:
            for chk, p, sign in (("H", 2, ()), ("Xperiod", 0, (+1,)), ("Xperiod", 1, (-1,))):
                terms = [(one, real._theta(p, mu.apply(i), m)), (-phase(m), real._theta(p, i, m))]
                rows[chk].append(((m, *sign), terms))
        for chk, kind_rows in rows.items():
            checks.append(check(RelationCheck(chk, (i,), 0, grid), kind_rows, field))
    for i, j in itertools.product(range(n), repeat=2):
        # a bracket of the images at (m, n) less its expected value: the
        # phase sum of a_(i, mu^k j) and, at m + n = 0, m N / eps_j K1
        rows = {"H": [], "HXplus": [], "HXminus": [], "XX": []}
        for m, nn in itertools.product(span, repeat=2):
            phases = CycNum.zero()
            for k in range(big_n):
                phases = phases + phase(k * m) * a[i][mu.apply(j, k)]
            k1 = real.theta_c() if m + nn == 0 else {}
            central = Fraction(m * big_n) / real.eps[j]
            terms = [(one, nested(2, i, 2, j, (m, nn))), (-phases * central, k1)]
            rows["H"].append(((m, nn), terms))
            for chk, q, sign in (("HXplus", 0, +1), ("HXminus", 1, -1)):
                terms = [(one, nested(2, i, q, j, (m, nn)))]
                terms.append((-phases * sign, real._theta(q, j, m + nn)))
                rows[chk].append(((m, nn), terms))
            terms = [(one, nested(0, i, 1, j, (m, nn)))]
            for k in range(big_n):
                if mu.apply(j, k) == i:
                    terms.append((-phase(k * m), real._theta(2, j, m + nn)))
                    terms.append((-phase(k * m) * central, k1))
            rows["XX"].append(((m, nn), terms))
        for chk, sign in (("H", 0), ("HXplus", +1), ("HXminus", -1), ("XX", 0)):
            checks.append(check(RelationCheck(chk, (i, j), sign, grid), rows[chk], field))
    extra = family_as(real.gcm, mu)
    if not extra.entries:
        checks += [RelationCheck("AS" + s, (), 0, "vacuous", checked=1) for s in ("plus", "minus")]
    for rel, family in (("X", family_locality(real.gcm, mu)), ("AS", extra), (kind, fam)):
        for (i, j), sigmas in family.entries.items():
            arity = family.arity(i, j)
            terms = [(s, e, c) for s, poly in sigmas.items() for e, c in poly.terms.items()]
            order = lcm(field, *(c.order for _, _, c in terms))
            wgrid = grid if rel == "X" else f"modes in [-{modes},{modes}]^{arity + 1}"
            for sign, pick in ((+1, 0), (-1, 1)):
                rows = []
                for out in itertools.product(span, repeat=arity + 1):
                    row = []
                    for sigma, e, c in terms:
                        slots = sigma + (arity,)
                        ks = tuple(out[q] + e[q] for q in slots)
                        row.append((c, nested(pick, i, pick, j, ks)))
                    rows.append((out, row))
                name = rel + ("plus" if sign > 0 else "minus")
                checks.append(check(RelationCheck(name, (i, j), sign, wgrid), rows, order))
    return RelationReport(checks)
