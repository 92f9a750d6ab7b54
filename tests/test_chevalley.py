import dataclasses
import random
import sys
from fractions import Fraction

import pytest

from conftest import folded_by_echelon, nu_by_propagation, simply_laced_by_cocycle
from loomfold.cartan import Gcm, _candidates, finite_matrix
from loomfold.chevalley import _FOLDS, FiniteAlg, chevalley, diagram_twist, mu_extend_finite
from loomfold.errors import GeneratorAssertionFailed, UnknownType
from loomfold.exactnum import vec_add
from loomfold.folding import validate_aut


def apply_linear(images, v):
    """v under the linear map that sends basis vector b to images[b]."""
    out = {}
    for b, c in v.items():
        vec_add(out, images[b], c)
    return out


def test_a1_triple():
    alg = chevalley("A1")
    e, f, h = alg.e(0), alg.f(0), alg.h(0)
    assert alg.bracket(e, f) == h
    assert alg.bracket(h, e) == {alg.e_idx[0]: Fraction(2)}
    assert alg.bracket(h, f) == {alg.f_idx[0]: Fraction(-2)}


def test_a2_dimensions_and_serre():
    alg = chevalley("A2")
    assert alg.dim == 8
    e0, e1 = alg.e(0), alg.e(1)
    x = alg.bracket(e0, e1)
    assert len(x) == 1 and abs(next(iter(x.values()))) == 1
    # ad(e0)^2 e1 = 0
    assert alg.bracket(e0, x) == {}


@pytest.mark.parametrize(
    "label,dim",
    [
        ("A3", 15),
        ("D4", 28),
        ("B3", 21),
        ("C2", 10),
        ("C3", 21),
        ("G2", 14),
        ("F4", 52),
        ("E6", 78),
        ("E7", 133),
        ("E8", 248),
    ],
)
def test_dimensions(label, dim):
    alg = chevalley(label)
    assert alg.dim == dim
    # every structure constant is integral and stored as an int
    assert all(type(s) is int for entry in alg.brackets.values() for s in entry.values())
    assert all(type(s) is int for s in alg.form.values())


def test_g2_from_triality():
    alg = chevalley("G2")
    pos = [c for k, c in zip(alg.basis, alg.root_of) if k[0] == "x" and sum(c) > 0]
    assert len(pos) == 6
    assert alg.matrix == ((2, -3), (-1, 2))


def test_unknown_type():
    with pytest.raises(UnknownType):
        chevalley("H4")
    with pytest.raises(UnknownType):
        chevalley("D3")


def test_b2_folds_from_a3():
    # B2 folds from D3, which the twist table reads as A3
    alg = chevalley("B2")
    assert alg.dim == 10
    assert alg.matrix == finite_matrix("B", 2)
    for i in range(2):
        unit = tuple(int(j == i) for j in range(2))
        assert alg.basis[alg.e_idx[i]] == ("x", unit)
        assert alg.basis[alg.f_idx[i]] == ("x", tuple(-x for x in unit))
        assert alg.bracket(alg.e(i), alg.f(i)) == alg.h(i)
        for j in range(2):
            want = {alg.e_idx[j]: alg.matrix[i][j]}
            assert alg.bracket(alg.h(i), alg.e(j)) == want


def _twist_rows():
    """Every (letter, rank, r) the twist table is asked for: the loop cores
    of the affine types up to size 9 and the sources of the folded types."""
    rows = {
        (letter, rank, twist)
        for n in range(2, 10)
        for letter, rank, twist, _, _ in _candidates("affine", n)
    }
    for label in ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5", "F4", "G2"]:
        src_letter, src_rank, r = _FOLDS[label[0]]
        rows.add((src_letter, src_rank(int(label[1:])), r))
    return sorted(rows)


@pytest.mark.parametrize("letter,rank,r", _twist_rows())
def test_diagram_twist_is_an_automorphism_of_order_r(letter, rank, r):
    label, nu = diagram_twist(letter, rank, r)
    aut = validate_aut(Gcm(finite_matrix(label[0], int(label[1:]))), nu)
    assert aut.order == r


@pytest.mark.parametrize("letter,rank,r", _twist_rows())
def test_mu_extend_finite_matches_propagation(letter, rank, r):
    # the root-by-root build of nu gives the images that propagation along
    # bracket words gives, on every core and folding source of the twist table
    label, nu = diagram_twist(letter, rank, r)
    alg = chevalley(label)
    assert mu_extend_finite(alg, nu) == nu_by_propagation(alg, nu)


def test_serre_relations_hold():
    for label in ["A2", "C2", "G2", "B3"]:
        alg = chevalley(label)
        a = alg.matrix
        for i in range(alg.rank):
            for j in range(alg.rank):
                if i == j:
                    continue
                v = alg.e(j)
                for _ in range(1 - a[i][j]):
                    v = alg.bracket(alg.e(i), v)
                assert v == {}, (label, i, j)


def test_chevalley_pairing_convention():
    # <x_a, x_-a> * (a, a) / 2 == 1 with (a,a) = 4 / <a^vee, a^vee>
    for label in ["A2", "C2", "G2"]:
        alg = chevalley(label)
        for key, coords in zip(alg.basis, alg.root_of):
            if key[0] != "x" or sum(coords) < 0:
                continue
            i_pos = alg.index[key]
            i_neg = alg.index[("x", tuple(-c for c in coords))]
            hvec = alg.brackets[(i_pos, i_neg)]  # the coroot of the root
            coroot_sq = alg.pair(hvec, hvec)
            root_sq = Fraction(4) / coroot_sq
            assert alg.form[(i_pos, i_neg)] * root_sq / 2 == 1, (label, coords)


def test_random_jacobi_on_elements():
    rng = random.Random(7)
    alg = chevalley("D4")
    for _ in range(50):
        v1, v2, v3 = (
            {rng.randrange(alg.dim): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            for _ in range(3)
        )
        acc = {}
        for term in (
            alg.bracket(alg.bracket(v1, v2), v3),
            alg.bracket(alg.bracket(v2, v3), v1),
            alg.bracket(alg.bracket(v3, v1), v2),
        ):
            for k, c in term.items():
                acc[k] = acc.get(k, Fraction(0)) + c
        assert not any(acc.values())


def test_mu_extend_a2_flip():
    alg = chevalley("A2")
    nu = mu_extend_finite(alg, (1, 0))
    # generators map to swapped generators
    assert apply_linear(nu, alg.e(0)) == alg.e(1)
    # the root vector for a1 + a2 picks up a sign: mu([e0, e1]) = [e1, e0]
    x = alg.bracket(alg.e(0), alg.e(1))
    assert apply_linear(nu, x) == {k: -c for k, c in x.items()}


def test_mu_extend_order():
    alg = chevalley("D4")
    nu = mu_extend_finite(alg, (2, 1, 3, 0))
    for idx in range(alg.dim):
        v = alg.unit(idx)
        w = v
        for _ in range(3):
            w = apply_linear(nu, w)
        assert w == v


def test_mu_extend_identity():
    alg = chevalley("A3")
    nu = mu_extend_finite(alg, (0, 1, 2))
    for idx in range(alg.dim):
        assert apply_linear(nu, alg.unit(idx)) == alg.unit(idx)


def test_mu_extend_rejects_non_automorphism():
    # swapping nodes 0 and 1 of the A3 chain breaks the edge 1-2, so
    # [e_1, e_2] maps to [e_0, e_2] = 0, which is no root vector
    with pytest.raises(GeneratorAssertionFailed, match=r"^A3: nu maps x_\(0, 1, 1\) to no root"):
        mu_extend_finite(chevalley("A3"), (1, 0, 2))


def test_mu_extend_preserves_brackets():
    alg = chevalley("A3")
    nu = mu_extend_finite(alg, (2, 1, 0))
    rng = random.Random(3)
    for _ in range(30):
        i, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
        lhs = apply_linear(nu, alg.bracket(alg.unit(i), alg.unit(j)))
        rhs = alg.bracket(apply_linear(nu, alg.unit(i)), apply_linear(nu, alg.unit(j)))
        assert lhs == rhs


def _typed(basis, brackets, form):
    """The tables with the type of every entry, in their key order."""
    return (
        basis,
        [(key, [(k, type(c), c) for k, c in v.items()]) for key, v in brackets.items()],
        [(key, type(c), c) for key, c in form.items()],
    )


@pytest.mark.parametrize(
    "label",
    [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7"],
)
def test_simply_laced_tables_match_the_cocycle_reference(label):
    # the int root codes and cocycle bit masks give the tables of tuple root
    # sums and the cocycle summed over all coordinate pairs, entry for entry
    alg = chevalley(label)
    want = simply_laced_by_cocycle(label[0], int(label[1:]))
    assert _typed(alg.basis, alg.brackets, alg.form) == _typed(*want)


@pytest.mark.parametrize(
    "label", [f"{x}{n}" for x in "BC" for n in range(2, 6)] + ["F4", "G2"]
)
def test_folded_tables_match_the_echelon_reference(label):
    # coordinates read off the disjoint supports of the orbit sums give the
    # tables of the Echelon expansion, entry for entry
    alg = chevalley(label)
    want = folded_by_echelon(label[0], int(label[1:]))
    assert _typed(alg.basis, alg.brackets, alg.form) == _typed(*want)


@pytest.mark.parametrize("label", ["B3", "C3", "G2"])
def test_fold_rejects_a_bracket_outside_the_span(label, monkeypatch):
    # one constant [x_a, x_b] = c x_s of the source doubled, in both orders,
    # where nu moves x_s: the orbit sums through x_a and x_b then bracket to
    # an element with 2c at x_s but c at the image of x_s, which is no
    # combination of orbit sums.  nu is that of the true table, so the
    # expansion has to find it
    module = sys.modules["loomfold.chevalley"]
    src_letter, src_rank, r = _FOLDS[label[0]]
    src_label, perm = diagram_twist(src_letter, src_rank(int(label[1:])), r)
    src = chevalley(src_label)
    images = mu_extend_finite(src, perm)
    moved = [next(iter(image)) != b for b, image in enumerate(images)]
    (a, b), vec = next(
        (key, vec)
        for key, vec in src.brackets.items()
        if min(key) >= src.rank and len(vec) == 1 and moved[next(iter(vec))]
    )
    ((s, c),) = vec.items()
    brackets = {**src.brackets, (a, b): {s: 2 * c}, (b, a): {s: -2 * c}}
    bad = dataclasses.replace(src, brackets=brackets)
    monkeypatch.setattr(module, "chevalley", lambda _: bad)
    monkeypatch.setattr(module, "mu_extend_finite", lambda alg, nu: images)
    with pytest.raises(GeneratorAssertionFailed, match=f"leaves the span of the orbit sums of {src_label}$"):
        module._build_folded(label[0], int(label[1:]))


def _dense_assert_structure(alg):
    """The structure check as loops over every basis pair and triple: the
    reference `FiniteAlg.assert_structure` must agree with."""

    def unit(i):
        return {i: 1}

    n = alg.dim
    for i in range(n):
        for j in range(i, n):
            vij = alg.brackets.get((i, j), {})
            vji = alg.brackets.get((j, i), {})
            keys = set(vij) | set(vji)
            for k in keys:
                if vij.get(k, 0) != -vji.get(k, 0):
                    raise GeneratorAssertionFailed(
                        f"{alg.label}: bracket not antisymmetric at ({i},{j})"
                    )
    for i in range(n):
        for j in range(i + 1, n):
            if alg.form.get((i, j), 0) != alg.form.get((j, i), 0):
                raise GeneratorAssertionFailed(f"{alg.label}: form not symmetric at ({i},{j})")
    for i in range(n):
        for j in range(i + 1, n):
            bij = alg.brackets.get((i, j), {})
            for k in range(j, n):
                acc = {}
                for term in (
                    alg.bracket(bij, unit(k)),
                    alg.bracket(alg.brackets.get((j, k), {}), unit(i)),
                    alg.bracket(alg.brackets.get((k, i), {}), unit(j)),
                ):
                    vec_add(acc, term)
                if acc:
                    raise GeneratorAssertionFailed(f"{alg.label}: Jacobi fails at ({i},{j},{k})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.pair(alg.brackets.get((i, j), {}), unit(k))
                rhs = alg.pair(unit(i), alg.brackets.get((j, k), {}))
                if lhs != rhs:
                    raise GeneratorAssertionFailed(
                        f"{alg.label}: form not invariant at ({i},{j},{k})"
                    )


def _verdict(check, alg):
    try:
        check(alg)
    except GeneratorAssertionFailed as exc:
        return str(exc)
    return None


def _mutate(alg, rng):
    """A copy of `alg` with one or two seeded changes to its structure tables."""
    brackets, form = dict(alg.brackets), dict(alg.form)

    def add(a, b, l, c):
        vec = dict(brackets.get((a, b), {}))
        vec[l] = vec.get(l, 0) + c
        brackets[(a, b)] = vec

    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(4)
        if kind == 0:  # scale one constant of one order
            a, b = rng.choice(sorted(alg.brackets))
            l = rng.choice(sorted(alg.brackets[(a, b)]))
            vec = dict(brackets[(a, b)])
            vec[l] *= rng.choice([0, -1, 2, 3, Fraction(1, 2)])
            brackets[(a, b)] = vec
        elif kind == 1:  # negate one constant in both orders
            a, b = rng.choice(sorted(alg.brackets))
            l = rng.choice(sorted(alg.brackets[(a, b)]))
            c = alg.brackets[(a, b)][l]
            add(a, b, l, -2 * c)
            add(b, a, l, 2 * c)
        elif kind == 2:  # a new antisymmetric entry
            a, b = rng.sample(range(alg.dim), 2)
            l, c = rng.randrange(alg.dim), rng.choice([-2, -1, 1, 2, Fraction(1, 3)])
            add(a, b, l, c)
            add(b, a, l, -c)
        else:  # bump one form entry
            key = (rng.randrange(alg.dim), rng.randrange(alg.dim))
            if rng.random() < 0.5:
                key = rng.choice(sorted(alg.form))
            form[key] = form.get(key, 0) + rng.choice([-1, 1, Fraction(1, 2)])
    return dataclasses.replace(alg, brackets=brackets, form=form)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "G2", "C3", "B3"])
def test_assert_structure_matches_dense_reference(label):
    # 150 seeded mutated tables per algebra: the sparse check raises exactly when
    # the dense loops do, naming the same first failing pair or triple
    alg = chevalley(label)
    assert _verdict(_dense_assert_structure, alg) is None
    assert _verdict(FiniteAlg.assert_structure, alg) is None
    rng = random.Random(f"structure-{label}")
    kinds = set()
    for _ in range(150):
        bad = _mutate(alg, rng)
        want = _verdict(_dense_assert_structure, bad)
        assert _verdict(FiniteAlg.assert_structure, bad) == want
        if want is not None:
            kinds.add(want.split(" at ")[0])
    assert kinds == {
        f"{label}: bracket not antisymmetric",
        f"{label}: form not symmetric",
        f"{label}: Jacobi fails",
        f"{label}: form not invariant",
    }


def test_assert_structure_rejects_an_asymmetric_form_entry():
    # the central terms of the loop bracket read the form in both orders, and
    # `close` brackets one of each mirrored pair of seeds on the strength of it
    alg = chevalley("A2")
    a, k = alg.e_idx[0], alg.f_idx[0]
    form = dict(alg.form)
    form[(a, k)] += 1
    bad = dataclasses.replace(alg, form=form)
    with pytest.raises(
        GeneratorAssertionFailed, match=rf"A2: form not symmetric at \({min(a, k)},{max(a, k)}\)$"
    ):
        bad.assert_structure()


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_chevalley_involution(label):
    # omega_0 sends e_i to -f_i, f_i to -e_i and h to -h, squares to the
    # identity, and keeps every bracket of two basis vectors and the form,
    # checked here densely, apart from its certificate
    alg = chevalley(label)
    perm, scale = alg.omega

    def omega(v):
        return {perm[b]: c * scale[b] for b, c in v.items()}

    for i in range(alg.rank):
        assert omega(alg.e(i)) == {alg.f_idx[i]: -1}
        assert omega(alg.f(i)) == {alg.e_idx[i]: -1}
        assert omega(alg.h(i)) == {alg.h_idx[i]: -1}
    units = [alg.unit(b) for b in range(alg.dim)]
    for u in units:
        assert omega(omega(u)) == u
        for v in units:
            assert omega(alg.bracket(u, v)) == alg.bracket(omega(u), omega(v))
            assert alg.pair(omega(u), omega(v)) == alg.pair(u, v)


@pytest.mark.parametrize("label", ["A2", "G2"])
def test_chevalley_involution_certificate_rejects_a_changed_entry(label):
    # every structure constant in turn, doubled in one order only, and every
    # form entry in turn, bumped by one: each table fails the certificate of
    # omega_0, since its entry no longer matches the one omega_0 maps it to
    alg = chevalley(label)
    tables = []
    for (a, b), vec in sorted(alg.brackets.items()):
        for l in sorted(vec):
            brackets = dict(alg.brackets)
            brackets[(a, b)] = {**vec, l: 2 * vec[l]}
            tables.append(dataclasses.replace(alg, brackets=brackets))
    for key in sorted(alg.form):
        if alg.omega[0][key[0]] != key[0]:  # (h, h') maps to itself: no witness
            tables.append(dataclasses.replace(alg, form={**alg.form, key: alg.form[key] + 1}))
    assert len(tables) > len(alg.brackets)
    for bad in tables:
        with pytest.raises(GeneratorAssertionFailed, match=f"{label}: omega_0"):
            bad.omega


@pytest.mark.parametrize("source", [("D", 4, 3), ("A", 5, 2)])
def test_diagram_twist_certificate_rejects_a_changed_entry(source):
    # every structure constant in turn, doubled in one order only, and every
    # form entry in turn, bumped by one: each table fails the build or the
    # certificate of nu, since its entry no longer matches the one nu maps it
    # to; an entry that nu maps to itself is no witness and is skipped
    label, nu = diagram_twist(*source)
    alg = chevalley(label)
    perm = [next(iter(image)) for image in mu_extend_finite(alg, nu)]
    tables = []
    for (a, b), vec in sorted(alg.brackets.items()):
        for l in sorted(vec):
            if (perm[a], perm[b], perm[l]) != (a, b, l):
                brackets = dict(alg.brackets)
                brackets[(a, b)] = {**vec, l: 2 * vec[l]}
                tables.append(dataclasses.replace(alg, brackets=brackets))
    for a, b in sorted(alg.form):
        if (perm[a], perm[b]) != (a, b):
            tables.append(dataclasses.replace(alg, form={**alg.form, (a, b): alg.form[a, b] + 1}))
    assert len(tables) > len(alg.brackets)
    for bad in tables:
        with pytest.raises(GeneratorAssertionFailed, match=f"{label}: nu"):
            mu_extend_finite(bad, nu)
