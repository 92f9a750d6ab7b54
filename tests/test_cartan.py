from fractions import Fraction

import pytest

from loomfold.cartan import (
    Gcm,
    _candidates,
    _graph_iso,
    canonical_matrix,
    classify,
    finite_matrix,
    rational_symmetrizer,
    twisted_affine_matrix,
    untwisted_affine_matrix,
)
from loomfold.errors import FormMismatch, IndefiniteType, NotAffine, NotGcm


def _cycle(n):
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        m[i][j] = -1
        m[j][i] = -1
    return m


# Independent oracle for small finite root systems: orbit of the simple
# roots under the simple reflections, acting on coordinate vectors.
def _weyl_orbit_positive_roots(a):
    n = len(a)
    simples = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]

    def reflect(v, i):
        pairing = sum(v[j] * a[i][j] for j in range(n))
        w = list(v)
        w[i] -= pairing
        return tuple(w)

    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return {v for v in seen if all(c >= 0 for c in v)}


def test_gcm_validation():
    with pytest.raises(NotGcm):
        Gcm([[2, 1], [1, 2]])
    with pytest.raises(NotGcm):
        Gcm([[1]])
    with pytest.raises(NotGcm):
        Gcm([[2, -1], [0, 2]])  # zero pattern
    with pytest.raises(NotGcm):
        Gcm([[2, 0], [0, 2]])  # decomposable
    with pytest.raises(NotGcm):
        Gcm([[2, -1.0], [-1, 2]])  # no coercion of non-integers
    with pytest.raises(NotGcm):
        Gcm([[2, -1, False], [-1, 2, -1], [False, -1, 2]])  # A3 with bool zeros
    with pytest.raises(NotGcm):
        Gcm(5)


def test_classify_basics():
    assert classify([[2]]).label == "A1"
    c = classify([[2, -2], [-2, 2]])
    assert c.label == "A1^(1)" and c.kind == "affine"
    assert classify(_cycle(5)).label == "A4^(1)"
    assert classify([[2, -1], [-3, 2]]).label == "G2"
    assert classify([[2, -3], [-1, 2]]).label == "G2"
    assert classify([[2, -1], [-4, 2]]).label == "A2^(2)"
    assert classify([[2, -4], [-1, 2]]).label == "A2^(2)"


def test_classify_indefinite():
    with pytest.raises(IndefiniteType):
        classify([[2, -2, 0], [-2, 2, -2], [0, -2, 2]])
    with pytest.raises(IndefiniteType):
        classify([[2, -1], [-5, 2]])


def test_classify_relabeled_input():
    # D4^(1) star with the center listed last
    m = [
        [2, 0, 0, 0, -1],
        [0, 2, 0, 0, -1],
        [0, 0, 2, 0, -1],
        [0, 0, 0, 2, -1],
        [-1, -1, -1, -1, 2],
    ]
    c = classify(m)
    assert c.label == "D4^(1)"
    canon = c.canonical
    for i in range(5):
        for j in range(5):
            assert m[i][j] == canon[c.perm[i]][c.perm[j]]


def test_graph_iso_pin():
    a = finite_matrix("A", 3)
    assert _graph_iso(a, a, pin=(0, 0)) == (0, 1, 2)
    assert _graph_iso(a, a, pin=(0, 2)) == (2, 1, 0)
    assert _graph_iso(a, a, pin=(0, 1)) is None  # an end node is no middle node
    tri = canonical_matrix("A2^(1)")
    for f in range(3):
        p = _graph_iso(tri, tri, pin=(f, 0))
        assert p[f] == 0 and sorted(p) == [0, 1, 2]


def test_null_labels():
    assert Gcm([[2, -2], [-2, 2]]).null_labels() == (1, 1)
    assert Gcm(_cycle(3)).null_labels() == (1, 1, 1)
    d41 = Gcm(untwisted_affine_matrix("D", 4))
    labels = d41.null_labels()
    assert sorted(labels) == [1, 1, 1, 1, 2]
    assert labels[0] == 1  # node 0
    with pytest.raises(NotAffine):
        Gcm([[2, -1], [-1, 2]]).null_labels()


def test_roots_a2():
    g = Gcm([[2, -1], [-1, 2]])
    roots = g.roots_up_to_height(2)
    assert {r for r, _ in roots} == {(1, 0), (0, 1), (1, 1)}
    assert all(flag == "real" for _, flag in roots)


def test_roots_a1_affine():
    g = Gcm([[2, -2], [-2, 2]])
    roots = dict(g.roots_up_to_height(2))
    assert roots == {(1, 0): "real", (0, 1): "real", (1, 1): "imaginary"}
    # 2*delta is imaginary; it is the unique root with m0 = m1 = 2
    assert g.membership((2, 2)) == "imaginary"
    assert g.membership((3, 2)) == "real"
    assert g.membership((2, 1)) == "real"
    assert g.membership((3, 1)) == "none"
    assert g.membership((3, 0)) == "none"


def test_membership_basics():
    g = Gcm([[2, -1], [-1, 2]])
    assert g.membership((1, 1)) == "real"
    assert g.membership((0, 0)) == "zero"
    assert g.membership((2, 1)) == "none"
    assert g.membership((-1, -1)) == "real"
    assert g.membership((1, -1)) == "none"


@pytest.mark.parametrize(
    "letter,rank,count",
    [("A", 3, 6), ("D", 4, 12), ("G", 2, 6), ("B", 3, 9), ("C", 3, 9), ("F", 4, 24)],
)
def test_finite_positive_root_counts(letter, rank, count):
    g = Gcm(finite_matrix(letter, rank))
    roots = g.roots_up_to_height(30)
    assert len(roots) == count
    oracle = _weyl_orbit_positive_roots(finite_matrix(letter, rank))
    assert {r for r, _ in roots} == oracle


def test_g2_height_window():
    g = Gcm(finite_matrix("G", 2))
    assert len(g.roots_up_to_height(5)) == 6


def test_weyl_reflection_closure_within_window():
    for label in ["A2", "C3", "G2", "A2^(1)", "D4^(1)", "A5^(2)"]:
        m = canonical_matrix(label)
        g = Gcm(m)
        h = 8
        roots = {r for r, _ in g.roots_up_to_height(h)}
        n = len(m)
        for v in roots:
            for i in range(n):
                pairing = sum(v[j] * m[i][j] for j in range(n))
                w = list(v)
                w[i] -= pairing
                if 0 < sum(w) <= h:
                    assert g.membership(tuple(w)) in ("real", "imaginary")


def test_affine_imaginary_flags():
    for label in ["A2^(1)", "A1^(1)", "D4^(1)", "A4^(2)"]:
        g = Gcm(canonical_matrix(label))
        delta = g.null_labels()
        for r, flag in g.roots_up_to_height(10):
            multiples = {tuple(m * l for l in delta) for m in range(1, 11)}
            assert (flag == "imaginary") == (r in multiples)


def test_untwisted_affine_matrices_shape():
    # removing node 0 recovers the finite matrix
    for letter, rank in [("A", 4), ("B", 3), ("C", 2), ("D", 4), ("E", 6), ("G", 2), ("F", 4)]:
        aff = untwisted_affine_matrix(letter, rank)
        fin = finite_matrix(letter, rank)
        inner = tuple(tuple(row[1:]) for row in aff[1:])
        assert inner == fin
        g = Gcm(aff)
        assert g.classify().label == f"{letter}{rank}^(1)"


def test_twisted_affine_matrices_are_affine():
    for letter, rank, twist in [
        ("A", 2, 2),
        ("A", 4, 2),
        ("A", 6, 2),
        ("A", 5, 2),
        ("A", 7, 2),
        ("D", 3, 2),
        ("D", 5, 2),
        ("E", 6, 2),
        ("D", 4, 3),
    ]:
        m = twisted_affine_matrix(letter, rank, twist)
        c = classify(m)
        assert c.label == f"{letter}{rank}^({twist})"
        assert c.kind == "affine"
        Gcm(m).null_labels()


def test_untwisted_candidates_are_the_finite_types():
    for n in range(1, 11):
        finite = [
            (letter, rank, label + "^(1)")
            for letter, rank, _, label, _ in _candidates("finite", n)
        ]
        untwisted = [
            (letter, rank, label)
            for letter, rank, twist, label, _ in _candidates("affine", n + 1)
            if twist == 1
        ]
        assert untwisted == finite


def test_symmetrizer_simply_laced():
    g = Gcm([[2, -1], [-1, 2]])
    form = lambda i, j: Fraction(g.entries[i][j])
    sym = g.symmetrizer(form)
    assert sym == (Fraction(1), Fraction(1))


def test_symmetrizer_c2():
    # feed the normalized coroot form <a_i^vee, a_j^vee> = a_ij / eps_j with
    # eps scaled so the long root has square length 2; the long/short ratio
    # of the recovered eps is 2
    m = finite_matrix("C", 2)
    g = Gcm(m)
    eps = rational_symmetrizer(m)
    scaled = tuple(e / max(eps) for e in eps)
    sym = g.symmetrizer(lambda i, j: Fraction(m[i][j], 1) / scaled[j])
    assert sym == scaled
    assert sym[0] / sym[1] in (Fraction(2), Fraction(1, 2))


def test_symmetrizer_mismatch():
    g = Gcm([[2, -1], [-1, 2]])
    bad = lambda i, j: Fraction(1)
    with pytest.raises(FormMismatch):
        g.symmetrizer(bad)


def test_classification_fuzz_relabels():
    # classifying never crashes on small random symmetrizable inputs, and
    # the label is invariant under relabeling the nodes
    import itertools
    import random

    from loomfold.errors import LoomfoldError

    rng = random.Random(99)
    labels_seen = set()
    for _ in range(120):
        n = rng.randint(1, 4)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                kind = rng.randint(0, 4)
                if kind == 0:
                    continue
                a, b = {1: (-1, -1), 2: (-1, -2), 3: (-2, -1), 4: (-1, -3)}[kind]
                m[i][j], m[j][i] = a, b
        try:
            label = classify(m).label
        except LoomfoldError:
            continue
        labels_seen.add(label)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [[m[perm.index(i)][perm.index(j)] for j in range(n)] for i in range(n)]
        assert classify(relabeled).label == label
    assert labels_seen  # some inputs classified
