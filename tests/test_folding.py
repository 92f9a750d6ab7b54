import pytest

from loomfold.cartan import Gcm, canonical_matrix
from loomfold.errors import NotAnAutomorphism
from loomfold.folding import (
    fold_data,
    index_pairs,
    tuple_sets,
    tuple_sets_case_analysis,
    validate_aut,
)

A2 = Gcm(canonical_matrix("A2"))
A2_FLIP = validate_aut(A2, [1, 0])
D4 = Gcm(canonical_matrix("D4"))  # chain 0-1, forks 2,3 on node 1
D4_TRIALITY = validate_aut(D4, [2, 1, 3, 0])
A1A = Gcm(canonical_matrix("A1^(1)"))
A2A = Gcm(canonical_matrix("A2^(1)"))
A3A = Gcm(canonical_matrix("A3^(1)"))


def test_validate_aut_basic():
    assert A2_FLIP.order == 2
    assert D4_TRIALITY.order == 3
    ident = validate_aut(A2, [0, 1])
    assert ident.order == 1


def test_validate_aut_rejects():
    with pytest.raises(NotAnAutomorphism):
        validate_aut(Gcm(canonical_matrix("A3")), [1, 0, 2])  # breaks the chain
    with pytest.raises(NotAnAutomorphism):
        validate_aut(A2, [0, 0])
    with pytest.raises(NotAnAutomorphism):
        validate_aut(A2, [1.0, 0])
    with pytest.raises(NotAnAutomorphism):
        validate_aut(A2, [True, False])
    with pytest.raises(NotAnAutomorphism):
        validate_aut(A2, None)


def test_fold_data_d4_triality():
    fd = fold_data(D4, D4_TRIALITY)
    # outer orbit {0,2,3}, center node 1
    assert set(fd.orbits) == {(0, 2, 3), (1,)}
    assert fd.s[0] == 1 and fd.s[1] == 1
    assert fd.big_n[0] == 3 and fd.d[0] == 1
    assert fd.big_n[1] == 1 and fd.d[1] == 3
    assert fd.n_pair(0, 1) == 1
    assert fd.d_pair(D4, D4_TRIALITY, 0, 1) == 3
    assert not fd.transitive


def test_fold_data_a2_flip():
    fd = fold_data(A2, A2_FLIP)
    assert fd.s == (2, 2)
    assert fd.big_n == (2, 2)


def test_fold_data_a3_affine_rotation():
    mu = validate_aut(A3A, [1, 2, 3, 0])
    fd = fold_data(A3A, mu)
    assert fd.transitive
    assert fd.s == (3, 3, 3, 3)
    assert fd.d == (1, 1, 1, 1)


def test_gamma_minus_subgroup_property():
    # for i not in O(j) with a_ij < 0: Gamma is a subgroup of order N / N_ij
    cases = [
        (D4, D4_TRIALITY),
        (A2A, validate_aut(A2A, [0, 2, 1])),
        (Gcm(canonical_matrix("A4")), validate_aut(Gcm(canonical_matrix("A4")), [3, 2, 1, 0])),
    ]
    for gcm, mu in cases:
        fd = fold_data(gcm, mu)
        for i, j in index_pairs(gcm):
            if fd.same_orbit(i, j):
                continue
            gamma = fd.gamma_minus(gcm, mu, i, j)
            n = mu.order
            assert len(gamma) == n // fd.n_pair(i, j)
            for x in gamma:
                for y in gamma:
                    assert (x + y) % n in gamma
            # linking: a_{i mu^k(j)} is 0 or a_ij, the latter iff N_ij | k
            for k in range(n):
                val = gcm.entries[i][mu.apply(j, k)]
                assert val in (0, gcm.entries[i][j])
                assert (val == gcm.entries[i][j]) == (k % fd.n_pair(i, j) == 0)


def test_tuple_sets_a2_flip():
    ts = tuple_sets(A2, A2_FLIP)
    ps = ts[(0, 1)]
    # s_i = 2 and i in O(j): empty
    assert ps.upsilon == frozenset()


def test_tuple_sets_a2_affine_flip():
    mu = validate_aut(A2A, [0, 2, 1])
    ts = tuple_sets(A2A, mu)
    # (1, 0): s_1 = 2, N_10 = 1, tuples with k1 != k2, all imaginary
    ps = ts[(1, 0)]
    assert ps.upsilon == {(0, 1), (1, 0)}
    assert ps.upsilon == ps.upsilon_imag
    assert ps.omega_imag == {1}
    # (0, 1): orbit of 0 is a singleton, never two distinct images
    assert ts[(0, 1)].upsilon == frozenset()


def test_tuple_sets_a1_affine_flip():
    mu = validate_aut(A1A, [1, 0])
    ts = tuple_sets(A1A, mu)
    ps = ts[(0, 1)]
    # exactly one slot mapping onto j; the root is 2*delta, imaginary
    assert ps.upsilon == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert ps.upsilon == ps.upsilon_imag
    assert ps.omega_imag == {1}


def test_distinct_positions_corollary():
    # every member tuple has two positions with distinct images of i
    cases = [
        (D4, D4_TRIALITY),
        (A1A, validate_aut(A1A, [1, 0])),
        (A3A, validate_aut(A3A, [1, 2, 3, 0])),
        (A2A, validate_aut(A2A, [1, 2, 0])),
    ]
    for gcm, mu in cases:
        ts = tuple_sets(gcm, mu)
        for (i, j), ps in ts.pairs.items():
            for ks in ps.upsilon:
                images = {mu.apply(i, k) for k in ks}
                assert len(images) >= 2


@pytest.mark.parametrize(
    "label,perm",
    [
        ("A2", [1, 0]),
        ("A3", [2, 1, 0]),
        ("A4", [3, 2, 1, 0]),
        ("A5", [4, 3, 2, 1, 0]),
        ("D4", [2, 1, 3, 0]),
        ("A1^(1)", [1, 0]),
        ("A2^(1)", [0, 2, 1]),
        ("A2^(1)", [1, 2, 0]),
        ("A3^(1)", [1, 2, 3, 0]),
        ("A4^(1)", [1, 2, 3, 4, 0]),
        ("A5^(1)", [1, 2, 3, 4, 5, 0]),
        ("D4^(1)", [0, 3, 2, 4, 1]),
    ],
)
def test_double_oracle_agreement(label, perm):
    gcm = Gcm(canonical_matrix(label))
    mu = validate_aut(gcm, perm)
    primary = tuple_sets(gcm, mu)
    oracle = tuple_sets_case_analysis(gcm, mu)
    assert primary.pairs.keys() == oracle.pairs.keys()
    for key in primary.pairs:
        p, q = primary[key], oracle[key]
        assert p.upsilon == q.upsilon, (label, key)
        assert p.upsilon_real == q.upsilon_real, (label, key)
        assert p.upsilon_imag == q.upsilon_imag, (label, key)
        assert p.omega_real == q.omega_real
        assert p.omega_imag == q.omega_imag


def test_dichotomy():
    # A1^(1) and A2^(1): members are imaginary; otherwise all real
    for label, perm, special in [
        ("A1^(1)", [1, 0], True),
        ("A2^(1)", [1, 2, 0], True),
        ("A3^(1)", [1, 2, 3, 0], False),
        ("D4", [2, 1, 3, 0], False),
    ]:
        gcm = Gcm(canonical_matrix(label))
        mu = validate_aut(gcm, perm)
        ts = tuple_sets(gcm, mu)
        for ps in ts.pairs.values():
            if special:
                assert ps.upsilon_real == frozenset()
            else:
                assert ps.upsilon_imag == frozenset()
