from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loomfold.cartan import Gcm, canonical_matrix
from loomfold.errors import DivisionNotExact, P2Violation, ScopeViolation
from loomfold.exactnum import CycNum
from loomfold.folding import fold_data, index_pairs, tuple_sets, validate_aut
from loomfold.polys import (
    LPoly,
    check_P2,
    drinfeld_poly_closed,
    drinfeld_poly_omega,
    family_f,
    family_p,
    family_qlimit,
    linear_factor,
    locality_poly,
    p_node_qlimit,
    power_difference_ratio,
)


def _pair(label, perm):
    g = Gcm(canonical_matrix(label))
    mu = validate_aut(g, perm)
    return g, mu


ZW = ("z", "w")


def P(terms):
    return LPoly(ZW, terms)


def test_lpoly_arith():
    z_minus_w = P({(1, 0): 1, (0, 1): -1})
    z_plus_w = P({(1, 0): 1, (0, 1): 1})
    prod = z_minus_w * z_plus_w
    assert prod == P({(2, 0): 1, (0, 2): -1})
    assert (prod - prod).is_zero()
    assert prod.is_homogeneous()


def test_power_difference_ratio():
    assert power_difference_ratio(3, 1) == P({(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert power_difference_ratio(4, 2) == P({(2, 0): 1, (0, 2): 1})
    assert power_difference_ratio(2, 2) == LPoly.one(ZW)


def test_divide_exact():
    num = P({(5, 0): 1, (0, 5): -1})
    den = P({(1, 0): 1, (0, 1): -1})
    assert num.divide_exact(den) == power_difference_ratio(5, 1)
    with pytest.raises(DivisionNotExact):
        P({(2, 0): 1}).divide_exact(den)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=4,
    ),
)
def test_divide_exact_inverts_multiplication(ts_f, ts_g):
    def build(ts):
        d = {}
        for a, b, c in ts:
            d[(a, b)] = d.get((a, b), CycNum.zero()) + CycNum.from_rational(c)
        return LPoly(ZW, d)

    f, g = build(ts_f), build(ts_g)
    if g.is_zero():
        return
    assert (f * g).divide_exact(g) == f


def test_laurent_support():
    p = LPoly(ZW, {(-1, 0): 1, (0, 2): Fraction(1, 2)})
    q = p * p
    assert q.terms[(-2, 0)] == 1


# -- locality polynomials ------------------------------------------------------


def test_locality_mu1_finite():
    g, mu = _pair("A2", [0, 1])
    assert locality_poly(g, mu, 0, 1) == P({(1, 0): 1, (0, 1): -1})
    # orthogonal pair in A3
    g3, mu3 = _pair("A3", [0, 1, 2])
    assert locality_poly(g3, mu3, 0, 2) == LPoly.one(ZW)
    assert locality_poly(g3, mu3, 0, 0) == P({(1, 0): 1, (0, 1): -1})


def test_locality_a1_affine():
    g, mu = _pair("A1^(1)", [0, 1])
    # (z - w) * (z - w)^2
    cube = P({(1, 0): 1, (0, 1): -1}) ** 3
    assert locality_poly(g, mu, 0, 1) == cube
    g2, mu2 = _pair("A1^(1)", [1, 0])
    got = locality_poly(g2, mu2, 0, 1)
    expect = P({(1, 0): 1, (0, 1): -1}) ** 3  # only k=0 has a < 0 (N=2)
    assert got == expect
    # i = j under the flip: a_{0 mu(0)} = -2 < 0 at k=1
    got_ii = locality_poly(g2, mu2, 0, 0)
    minus = linear_factor(2, 0)
    plus = linear_factor(2, 1)
    assert got_ii == minus * plus * plus


def test_locality_d4_triality():
    g, mu = _pair("D4", [2, 1, 3, 0])
    got = locality_poly(g, mu, 0, 1)  # outer to center: all k have a != 0
    expect = linear_factor(3, 0) * linear_factor(3, 1) * linear_factor(3, 2)
    assert got == expect


# -- drinfeld polynomials -------------------------------------------------------


CATALOG = [
    ("A2", [1, 0]),
    ("A3", [2, 1, 0]),
    ("A4", [3, 2, 1, 0]),
    ("A5", [4, 3, 2, 1, 0]),
    ("D4", [2, 1, 3, 0]),
    ("E6", [4, 3, 2, 1, 0, 5]),
    ("A2", [0, 1]),
    ("A1^(1)", [1, 0]),
    ("A1^(1)", [0, 1]),
    ("A2^(1)", [0, 2, 1]),
    ("A2^(1)", [1, 2, 0]),
    ("A3^(1)", [1, 2, 3, 0]),
    ("A4^(1)", [1, 2, 3, 4, 0]),
    ("A5^(1)", [1, 2, 3, 4, 5, 0]),
    ("D4^(1)", [0, 3, 2, 4, 1]),
]


@pytest.mark.parametrize("label,perm", CATALOG)
def test_omega_equals_closed(label, perm):
    g, mu = _pair(label, perm)
    fold = fold_data(g, mu)
    sets = tuple_sets(g, mu, fold)
    for i, j in index_pairs(g):
        om = drinfeld_poly_omega(sets, i, j, mu.order)
        cl = drinfeld_poly_closed(g, mu, fold, i, j)
        assert om == cl, (label, i, j)


def test_drinfeld_closed_values():
    # D4 triality, outer i=0, center j=1: z^2 + z w + w^2
    g, mu = _pair("D4", [2, 1, 3, 0])
    fold = fold_data(g, mu)
    assert drinfeld_poly_closed(g, mu, fold, 0, 1) == power_difference_ratio(3, 1)
    # and the reverse orientation is trivial: an observed asymmetry
    assert drinfeld_poly_closed(g, mu, fold, 1, 0) == LPoly.one(ZW)
    # A2^(1) flip, (1,0): s=2, N_ij=1: (z+w)^2
    g2, mu2 = _pair("A2^(1)", [0, 2, 1])
    fold2 = fold_data(g2, mu2)
    assert drinfeld_poly_closed(g2, mu2, fold2, 1, 0) == P({(1, 0): 1, (0, 1): 1}) ** 2
    # A4 flip, (1,0): s_1 = 2, N_ij = 2: z + w  (notation: z^{N/N_i} + w^{N/N_i})
    g3, mu3 = _pair("A4", [3, 2, 1, 0])
    fold3 = fold_data(g3, mu3)
    assert drinfeld_poly_closed(g3, mu3, fold3, 1, 0) == P({(1, 0): 1, (0, 1): 1})
    # in an orbit with s <= 2: trivial
    assert drinfeld_poly_closed(g3, mu3, fold3, 1, 2) == LPoly.one(ZW)
    # transitive rotation on A4^(1): N = 5, s = 3: (z^5 - w^5)/(z - w)
    g4, mu4 = _pair("A4^(1)", [1, 2, 3, 4, 0])
    fold4 = fold_data(g4, mu4)
    assert drinfeld_poly_closed(g4, mu4, fold4, 0, 1) == power_difference_ratio(5, 1)
    # A1^(1) flip: N = 2, s = 3: ((z^2-w^2)/(z-w))^2 = (z+w)^2
    g5, mu5 = _pair("A1^(1)", [1, 0])
    fold5 = fold_data(g5, mu5)
    assert drinfeld_poly_closed(g5, mu5, fold5, 0, 1) == P({(1, 0): 1, (0, 1): 1}) ** 2
    # A5^(1) rotation: N = 6 branch with Gamma^-_ii factors
    g6, mu6 = _pair("A5^(1)", [1, 2, 3, 4, 5, 0])
    fold6 = fold_data(g6, mu6)
    got = drinfeld_poly_closed(g6, mu6, fold6, 0, 1)
    expect = LPoly.one(ZW)
    for k in (1, 2, 4, 5):
        expect = expect * linear_factor(6, k)
    assert got == expect


def test_partial_rotation_outside_case_list():
    # rotation by 2 on the 6-cycle: two 3-orbits cover every node, a shape
    # outside the case-list simplification (the difference group is not a
    # subgroup there).  The definition-level construction stays primary;
    # the closed form diverges and the crosscheck surfaces it.
    g, mu = _pair("A5^(1)", [2, 3, 4, 5, 0, 1])
    fold = fold_data(g, mu)
    gamma = fold.gamma_minus(g, mu, 0, 1)
    assert sorted(gamma) == [0, 2]
    assert len(gamma) != mu.order // fold.n_pair(0, 1)
    sets = tuple_sets(g, mu, fold)
    om = drinfeld_poly_omega(sets, 0, 1, mu.order)
    cl = drinfeld_poly_closed(g, mu, fold, 0, 1)
    assert om == power_difference_ratio(3, 1)
    assert om != cl
    # the orbit-local tuple-set oracle still agrees with the root table
    from loomfold.folding import tuple_sets_case_analysis

    oracle = tuple_sets_case_analysis(g, mu, fold)
    for key in sets.pairs:
        assert sets[key].upsilon == oracle[key].upsilon


def test_mu_identity_gives_trivial_p():
    g, mu = _pair("A2", [0, 1])
    sets = tuple_sets(g, mu)
    for i, j in index_pairs(g):
        assert drinfeld_poly_omega(sets, i, j, 1) == LPoly.one(ZW)


# -- families ---------------------------------------------------------------------


def test_family_p_mu1():
    g, mu = _pair("A2", [0, 1])
    fam = family_p(g, mu)
    for (i, j), sigmas in fam.entries.items():
        assert sigmas[(0, 1)] == LPoly.one(("z1", "z2", "w"))
        assert sigmas[(1, 0)].is_zero()
    # a doubled entry with the identity twist: still the trivial weight
    g2 = Gcm(canonical_matrix("C2"))
    mu2 = validate_aut(g2, [0, 1])
    fam2 = family_p(g2, mu2)
    pair = (0, 1) if g2.entries[0][1] == -2 else (1, 0)
    variables = tuple(f"z{k}" for k in (1, 2, 3)) + ("w",)
    assert fam2.entries[pair][(0, 1, 2)] == LPoly.one(variables)


def test_family_p_single_factor():
    g, mu = _pair("D4", [2, 1, 3, 0])
    fam = family_p(g, mu)
    p = drinfeld_poly_closed(g, mu, fold_data(g, mu), 0, 1)
    got = fam.entries[(0, 1)][(0, 1)]
    assert got == p.embed(("z1", "z2", "w"), {"z": "z1", "w": "z2"})


def test_family_p_passes_P2():
    for label, perm in CATALOG:
        g, mu = _pair(label, perm)
        fam = family_p(g, mu)
        for (i, j), diag in check_P2(fam).items():
            assert not diag.is_zero(), (label, i, j)


def test_family_p_a1_affine_diagonal():
    # s=2-style branch: diagonal value of (z+w)^2 products is nonzero
    g, mu = _pair("A2^(1)", [0, 2, 1])
    fam = family_p(g, mu)
    diag = check_P2(fam)[(1, 0)]
    assert diag == LPoly(("w",), {(2,): 4})


def test_family_qlimit_values():
    assert p_node_qlimit(1) == LPoly(
        ("z1", "z2", "z3"), {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): 1}
    )
    g, mu = _pair("A2^(1)", [0, 2, 1])
    fam = family_qlimit(g, mu)
    # cross-orbit pair: both slots carry the (symmetric) Drinfeld polynomial
    fold = fold_data(g, mu)
    p10 = drinfeld_poly_closed(g, mu, fold, 1, 0)
    assert fam.entries[(1, 0)][(0, 1)] == p10.embed(
        ("z1", "z2", "w"), {"z": "z1", "w": "z2"}
    )
    assert fam.entries[(1, 0)][(1, 0)] == p10.embed(
        ("z1", "z2", "w"), {"z": "z2", "w": "z1"}
    )
    # the weight is symmetric in its two arguments, so the slots agree
    assert fam.entries[(1, 0)][(1, 0)] == fam.entries[(1, 0)][(0, 1)]
    # in-orbit pair (1,2): z_{s(1)} - 2 z_{s(2)} - w
    got = fam.entries[(1, 2)][(0, 1)]
    assert got == LPoly(("z1", "z2", "w"), {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): -1})
    for (i, j), diag in check_P2(fam).items():
        assert not diag.is_zero()


def test_family_qlimit_scope():
    g, mu = _pair("A1^(1)", [1, 0])
    with pytest.raises(ScopeViolation):
        family_qlimit(g, mu)  # not simply-laced
    g2, mu2 = _pair("A2^(1)", [1, 2, 0])
    with pytest.raises(ScopeViolation):
        family_qlimit(g2, mu2)  # transitive


def test_family_qlimit_finite_matches_last_serre_line():
    g, mu = _pair("A2", [1, 0])
    fam = family_qlimit(g, mu)
    got = fam.entries[(0, 1)][(0, 1)]
    assert got == LPoly(("z1", "z2", "w"), {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): -1})
    got_swap = fam.entries[(0, 1)][(1, 0)]
    assert got_swap == LPoly(("z1", "z2", "w"), {(0, 1, 0): 1, (1, 0, 0): -2, (0, 0, 1): -1})


def test_family_f():
    g, mu = _pair("A2", [1, 0])
    base = family_p(g, mu)
    assert family_f(base, {}).entries == base.entries
    variables = ("z1", "z2", "w")
    extra = {(0, 1): LPoly(variables, {(1, 0, 0): 1, (0, 0, 1): 1})}  # z1 + w
    fam = family_f(base, extra)
    ident = (0, 1)
    assert fam.entries[(0, 1)][ident] == base.entries[(0, 1)][ident] * extra[(0, 1)]
    assert fam.entries[(1, 0)] == base.entries[(1, 0)]
    bad = {(0, 1): LPoly(variables, {(1, 0, 0): 1, (0, 0, 1): -1})}  # z1 - w
    with pytest.raises(P2Violation):
        family_f(base, bad)


def test_latex_and_json_round_trip():
    g, mu = _pair("D4", [2, 1, 3, 0])
    p = drinfeld_poly_closed(g, mu, fold_data(g, mu), 0, 1)
    assert p.latex() == "z^{2}+zw+w^{2}"
    assert LPoly.from_json(p.to_json()) == p
    q = linear_factor(3, 1)
    assert LPoly.from_json(q.to_json()) == q
