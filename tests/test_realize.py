import itertools
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from conftest import cached_family, cached_realization, nu_by_propagation
from loomfold import exactnum, realize
from loomfold.cartan import Gcm, canonical_matrix
from loomfold.catalog import builtin_entries, entry_by_name
from loomfold.chevalley import close
from loomfold.errors import InconsistentPropagation, JobError, OutOfWindow, ScopeViolation
from loomfold.exactnum import CycNum, Echelon, cyc_root
from loomfold.presentation import Verifier, serialize_elem
from loomfold.realize import (
    MuHat,
    MuHatClosed,
    Realization,
    _inside,
    affinize,
    vec_add,
    vec_scale,
)


def _real(label, perm, m1w=14, m2w=6):
    g = Gcm(canonical_matrix(label))
    return Realization(g, perm, m1_window=m1w, m2_window=m2w)


# built once per test session, on first use, so that a fault in a build
# fails the tests that use it instead of the collection of this module
@pytest.fixture(scope="session")
def a2_flip():
    return _real("A2", [1, 0])


@pytest.fixture(scope="session")
def a1a_flip():
    return _real("A1^(1)", [1, 0])


@pytest.fixture(scope="session")
def a2a_flip():
    return _real("A2^(1)", [0, 2, 1])


@pytest.fixture(scope="session")
def a2a_rot():
    return _real("A2^(1)", [1, 2, 0])


def test_affine_generator_matrices_match_canonical():
    # the computed node pairings reproduce the canonical matrices exactly
    for label in ["A1^(1)", "C2^(1)", "A2^(2)", "A4^(2)", "A5^(2)", "D3^(2)", "D4^(3)"]:
        g = Gcm(canonical_matrix(label))
        real = Realization(g, list(range(g.n)), m1_window=4, m2_window=4)
        a = g.entries
        galg = real.galg
        for i in range(g.n):
            for j in range(g.n):
                got = galg.bracket(real.gens[i][2], real.gens[j][0])
                want = vec_scale(real.gens[j][0], CycNum.from_rational(a[i][j]))
                assert got == want, (label, i, j)


def test_twisted_symmetrizer_scale():
    # A2^(2): the derived form is twice the untwisted normalization,
    # consistent with scaling by the twist order
    real = _real("A2^(2)", [0, 1], m1w=4, m2w=4)
    assert real.eps in ((Fraction(1), Fraction(1, 4)), (Fraction(1, 4), Fraction(1)))
    a11 = real.galg.pair(real.gens[0][2], real.gens[0][2])
    assert a11.as_fraction() == Fraction(2) / real.eps[0]


def test_finite_loop_bracket_with_center(a2_flip):
    real = a2_flip
    m = 3
    lhs = real.bracket(real.embed(m, real.gens[0][0]), real.embed(-m, real.gens[0][1]))
    want = real.embed(0, real.gens[0][2])
    vec_add(want, {("K1",): CycNum.from_rational(Fraction(m) / real.eps[0])})
    assert lhs == want


def test_center_is_central():
    # K1, K2(p) and K1p(p1, p2) bracket to zero with every generator image
    # theta(pick, i, m), |m| <= 2, in both orders, on every catalog entry:
    # so a node check that brackets an image with K1 could never fail
    ps = range(-2, 3)
    for e in builtin_entries():
        real = cached_realization(e.name)
        one = CycNum.one(real.field)
        central = [{("K1",): one}] + [{("K2", p): one} for p in ps]
        central += [{("K1p", p1, p2): one} for p1 in ps for p2 in ps]
        for pick, i, m in itertools.product(range(3), range(e.gcm.n), range(-2, 3)):
            image = real._theta(pick, i, m)
            for c in central:
                assert real.bracket(c, image) == real.bracket(image, c) == {}, (e.name, c)


def test_block_level_central_cancellation():
    # on a twisted loop core, key-level pairings off the loop lattice must
    # cancel in the block sum instead of raising
    real = _real("A2^(2)", [0, 1], m1w=6, m2w=4)
    alg = real.galg.alg
    i1, i2 = alg.e_idx[0], alg.e_idx[1]
    j1, j2 = alg.f_idx[0], alg.f_idx[1]
    one = CycNum.one()
    x = {("L", 1, 0, i1): one, ("L", 1, 0, i2): one}  # even eigenvector
    y = {("L", -1, 1, j1): one, ("L", -1, 1, j2): -one}  # odd eigenvector
    out = real.bracket(x, y)
    assert all(k[0] == "L" for k in out)  # the central block sum is zero
    # and a genuinely paired combination still produces the divided symbol
    y2 = {("L", 0, 2, j1): one, ("L", 0, 2, j2): one}
    out2 = real.bracket(x, y2)
    assert ("K1p", 1, 2) in out2


def test_delta_branch_central_coefficient(a2a_flip):
    # Cartan loop vectors at crossing degrees produce the divided symbol
    real = a2a_flip
    alg = real.galg.alg
    h = alg.h_idx[0]
    x = {("L", 2, 0, h): CycNum.one()}
    y = {("L", 1, 1, h): CycNum.one()}
    out = real.bracket(x, y)
    # [t1^2 h, t1 t2 h'] = <h,h'> (m1 n2 - m2 n1) K1p = 2 * 2 * K1p{3,1}
    assert out == {("K1p", 3, 1): CycNum.from_rational(alg.form[(h, h)] * 2)}


def test_out_of_window():
    # the window bounds only the span closures: a bracket past it is exact,
    # inner blocks that leave no margin of 2 inside it raise OutOfWindow,
    # and the generator images, which the verifier reads at any mode, have
    # none: theta_x(0, 4) is theta_x(0, 0) moved 4 in t1, since N = 2
    # divides 4
    real = _real("A2", [1, 0], m1w=3)
    x, y = real.theta_x(0, 3, +1), real.theta_x(0, 1, +1)
    assert real.bracket(x, y) == _bracket_reference(real, x, y)
    with pytest.raises(OutOfWindow, match="window too small for the requested inner blocks"):
        real.fixed_subalgebra_dims(2)
    assert real.fixed_subalgebra_dims(1)
    base = real.theta_x(0, 0, +1)
    assert real.theta_x(0, 4, +1) == {(k[0], 4) + k[2:]: c for k, c in base.items()}


def test_theta_periodicity(a2_flip, a1a_flip, a2a_flip, a2a_rot):
    # images of relabeled modes: x_{mu(i), m} = xi^m x_{i, m}
    for real in (a2_flip, a2a_flip, a2a_rot, a1a_flip):
        n = real.n_order
        for i in range(real.gcm.n):
            for m in (-2, -1, 0, 1, 2):
                lhs = real.theta_x(real.mu.perm[i], m, +1)
                rhs = vec_scale(real.theta_x(i, m, +1), cyc_root(n, m))
                assert lhs == rhs
                lhs_h = real.theta_h(real.mu.perm[i], m)
                rhs_h = vec_scale(real.theta_h(i, m), cyc_root(n, m))
                assert lhs_h == rhs_h


def _shift_identity_cases(real, modes):
    """(pick, i, a, m, phase) for every generator pick (e, f, h), node i,
    shift a < N and mode m in `modes`, with phase = xi_N^(a m) from cyc_root
    lifted into the realization's field."""
    big_n = real.n_order
    for pick, i, a, m in itertools.product(range(3), range(real.gcm.n), range(big_n), modes):
        yield pick, i, a, m, cyc_root(big_n, a * m).lift(real.field)


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_theta_shift_identity(name):
    # theta(mu^a i, m) = xi_N^(a m) theta(i, m): the mu-average reindexed by
    # k -> k - a, exact since mu^N = id and xi_N^N = 1; the presentation
    # verifier reads each pair (mu^a i0, mu^b j0) from the least nodes
    # (i0, j0) of their orbits by it, where it holds on every image read
    real = cached_realization(name)
    for pick, i, a, m, phase in _shift_identity_cases(real, range(-3, 4)):
        shifted = real._theta(pick, real.mu.apply(i, a), m)
        assert shifted == vec_scale(real._theta(pick, i, m), phase)


@pytest.mark.parametrize(
    "name,m1w,m2w", [("A3a-rot", 4, 3), ("A4a-rot", 4, 3), ("A2a-flip", 4, 0)]
)
def test_theta_shift_identity_leaves_the_window_on_both_sides(name, m1w, m2w):
    # the images have no window: both sides of the identity are read past
    # m1w on the rotations, and on the flip with m2w = 0 wherever a key has
    # t2-degree 1, and it holds there as it does inside
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=m1w, m2_window=m2w)
    outside = inside = 0
    for pick, i, a, m, phase in _shift_identity_cases(real, range(-6, 7)):
        shifted, base = real._theta(pick, real.mu.apply(i, a), m), real._theta(pick, i, m)
        assert shifted == vec_scale(base, phase)
        degrees = [realize._key_degrees(k) for k in base]
        if any(abs(d1) > m1w or abs(d2) > m2w for d1, d2 in degrees):
            outside += 1
        else:
            inside += 1
    assert outside and inside


# A4a-rot relabelled by i -> 2i + 1 mod 5 and D4a-triality relabelled by
# 0 1 2 3 4 -> 3 0 1 2 4, as in tools/bytediff.sh, and two flips of
# non-simply-laced matrices, whose eps is not constant
_RELABELLED = {
    "B3^(1)-flip": (canonical_matrix("B3^(1)"), [1, 0, 2, 3]),
    "C2^(1)-flip": (canonical_matrix("C2^(1)"), [2, 1, 0]),
    "a4rel": (
        [[2, 0, -1, -1, 0], [0, 2, 0, -1, -1], [-1, 0, 2, 0, -1], [-1, -1, 0, 2, 0],
         [0, -1, -1, 0, 2]],
        [2, 3, 4, 0, 1],
    ),
    "d4rel": (
        [[2, -1, 0, 0, 0], [-1, 2, -1, -1, -1], [0, -1, 2, 0, 0], [0, -1, 0, 2, 0],
         [0, -1, 0, 0, 2]],
        [2, 1, 4, 3, 0],
    ),
}


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()] + sorted(_RELABELLED))
def test_eps_is_mu_invariant(name):
    # eps o mu is again a symmetrizer of the indecomposable matrix A (mu
    # preserves A), so it is c eps with c > 0, and mu^N = id forces c = 1:
    # the Cartan checks of a shifted pair are derived from its class
    # representative's on this
    if name in _RELABELLED:
        rows, perm = _RELABELLED[name]
        real = Realization(Gcm(rows), perm, m1_window=2, m2_window=2)
    else:
        real = cached_realization(name)
    if "^" in name:  # the non-simply-laced flips
        assert len(set(real.eps)) > 1
    assert all(real.eps[real.mu.perm[j]] == real.eps[j] for j in range(real.gcm.n))


def test_theta_averaging_example(a2_flip, a2a_flip):
    # flip on the finite chain: the mode-1 average is e_0 - e_1
    real = a2_flip
    got = real.theta_x(0, 1, +1)
    want = real.embed(1, real.gens[0][0])
    vec_add(want, real.embed(1, real.gens[1][0]), CycNum.from_rational(-1))
    assert got == want
    # modes vanish off the orbit lattice: node 0 of the affine flip is a
    # singleton orbit with d_i = 2, so odd modes average to zero
    real2 = a2a_flip
    assert not real2.theta_x(0, 1, +1)
    assert real2.theta_x(0, 2, +1)
    # node 1 has orbit size 2, d_i = 1: no vanishing
    assert real2.theta_x(1, 1, +1)


def test_theta_vanishing_off_lattice():
    # transitive rotation: orbit size 3, d_i = 1 never vanishes; but a
    # rank-2 flip on A4 has d_i = 1 for all; build a case with d_i = 3
    g = Gcm(canonical_matrix("D4"))
    real = Realization(g, [2, 1, 3, 0], m1_window=10, m2_window=2)
    # center node (index 1) is fixed: N_i = 1, d_i = 3: modes not divisible
    # by 3 average to zero
    assert not real.theta_x(1, 1, +1)
    assert not real.theta_x(1, 2, +1)
    assert real.theta_x(1, 3, +1)
    assert real.theta_x(1, 0, +1)


@pytest.mark.parametrize(
    "label,perm,field", [("A2^(1)", [1, 2, 0], 3), ("A2^(2)", [0, 1], 2), ("D4", [2, 1, 3, 0], 3)]
)
def test_brackets_stay_in_the_realization_field(monkeypatch, label, perm, field):
    # generators and generator images live in Q(xi_L), L = lcm(ord mu, r):
    # no bracket or theta value coerces between cyclotomic orders
    real = _real(label, perm, m1w=6, m2w=4)
    assert real.field == field

    def refuse(a, b):
        raise AssertionError(f"coerced orders {a.order} and {b.order}")

    monkeypatch.setattr(exactnum, "_common", refuse)
    elems = []
    for i in range(real.gcm.n):
        for m in (-1, 0, 1):
            elems += [real.theta_x(i, m, +1), real.theta_x(i, m, -1), real.theta_h(i, m)]
    for x in elems:
        for y in elems:
            out = real.bracket(x, y)
            assert all(c.order == field for c in out.values())
    for ei, fi, hi in real.gens:
        for ej, fj, hj in real.gens:
            for v in (real.galg.bracket(ei, fj), real.galg.bracket(hi, ej)):
                assert all(c.order == field for c in v.values())


def test_grading_additivity(a2a_flip):
    real = a2a_flip
    x = real.theta_x(1, 2, +1)
    y = real.theta_x(2, -1, +1)
    out = real.bracket(x, y)
    for key in out:
        assert key[1] == 1  # t1-degrees add


def test_jacobi_and_antisymmetry_random(a2_flip, a1a_flip, a2a_flip, a2a_rot):
    rng = random.Random(20240609)
    for real in (a2_flip, a2a_flip, a1a_flip, a2a_rot):
        nodes = range(real.gcm.n)
        elems = []
        for i in nodes:
            for m in (-2, -1, 0, 1, 2):
                elems.append(real.theta_x(i, m, +1))
                elems.append(real.theta_x(i, m, -1))
                elems.append(real.theta_h(i, m))
        elems = [e for e in elems if e]
        for _ in range(120):
            x, y, z = (rng.choice(elems) for _ in range(3))
            xy = real.bracket(x, y)
            yx = real.bracket(y, x)
            acc = dict(xy)
            vec_add(acc, yx)
            assert not acc
            jac = real.bracket(xy, z)
            vec_add(jac, real.bracket(real.bracket(y, z), x))
            vec_add(jac, real.bracket(real.bracket(z, x), y))
            assert not jac


def test_mu_on_g_examples(a2_flip):
    # identity automorphism acts as the identity
    real = _real("A2", [0, 1], m1w=4, m2w=2)
    mu_map = real.mu_on_g()
    alg = real.galg.alg
    for idx in range(alg.dim):
        v = {("L", 0, 0, idx): CycNum.one()}
        assert mu_map.apply(v) == v
    # flip sends the top root vector to its negative
    real2 = a2_flip
    mm = real2.mu_on_g()
    alg2 = real2.galg.alg
    top = alg2.index[("x", (1, 1))]
    v = {("L", 0, 0, top): CycNum.one()}
    assert mm.apply(v) == vec_scale(v, CycNum.from_rational(-1))


def test_mu_on_g_order(a2a_flip, a2a_rot):
    for real, order in ((a2a_flip, 2), (a2a_rot, 3)):
        mm = real.mu_on_g()
        alg = real.galg.alg
        rng = random.Random(5)
        for _ in range(10):
            idx = rng.randrange(alg.dim)
            m2 = rng.randint(-2, 2)
            v = {("L", 0, m2, idx): CycNum.one()}
            w = dict(v)
            for _ in range(order):
                w = mm.apply(w)
            assert w == v


def test_mu_hat_checks(a2_flip, a1a_flip, a2a_flip, a2a_rot):
    for real in (a2_flip, a2a_flip, a2a_rot, a1a_flip):
        hat = MuHat(real)
        sample = [
            real.theta_x(0, 1, +1),
            real.theta_h(0, -1),
            real.bracket(real.theta_x(0, 1, +1), real.theta_x(real.gcm.n - 1, 0, -1)),
        ]
        sample = [s for s in sample if s]
        assert hat.order_check(sample)
        pairs = [
            (real.theta_x(0, 1, +1), real.theta_x(real.gcm.n - 1, 0, +1)),
            (real.theta_h(0, 1), real.theta_x(0, -1, -1)),
        ]
        assert hat.bracket_check(pairs)
        assert hat.apply(real.theta_c()) == real.theta_c()
        for i in range(real.gcm.n):
            for m in (-1, 0, 2):
                assert hat.apply(real.theta_h(i, m)) == real.theta_h(i, m)
                assert hat.apply(real.theta_x(i, m, +1)) == real.theta_x(i, m, +1)
                assert hat.apply(real.theta_x(i, m, -1)) == real.theta_x(i, m, -1)


def test_mu_hat_closed_matches_propagated(a2a_flip):
    real = a2a_flip
    hat_prop = MuHat(real)
    hat_closed = MuHatClosed(real, real.mu_on_g())
    for m1 in (-2, 0, 1):
        for m2 in (-1, 0, 1):
            for key in real.block_keys(m1, m2):
                a = hat_closed.apply({key: CycNum.one()})
                try:
                    b = hat_prop.apply({key: CycNum.one()})
                except Exception:
                    continue
                assert a == b, key


def test_mu_hat_preserves_triangular_blocks(a2a_flip):
    # raising-part keys map to raising-part keys, Cartan to Cartan
    real = a2a_flip
    hat = MuHatClosed(real, real.mu_on_g())
    alg = real.galg.alg

    def part(idx):
        h = sum(alg.root_of[idx])
        return (h > 0) - (h < 0)

    for m1 in (-1, 0, 2):
        for m2 in (-1, 0, 1):
            for key in real.block_keys(m1, m2):
                img = hat.apply({key: CycNum.one()})
                if key[0] == "L":
                    src = part(key[3])
                    for k2 in img:
                        if k2[0] == "L":
                            assert part(k2[3]) == src, (key, k2)
                        else:
                            assert src == 0  # only Cartan keys touch the center
                else:
                    assert all(k2[0] != "L" for k2 in img)


def test_mu_hat_k1_fixed(a2a_flip, a2a_rot):
    for real in (a2a_flip, a2a_rot):
        hat = MuHat(real)
        assert hat.apply({("K1",): CycNum.one()}) == {("K1",): CycNum.one()}


def test_fixed_subalgebra_dims_identity():
    real = _real("A2", [0, 1], m1w=8, m2w=2)
    blocks = real.fixed_subalgebra_dims(2)
    for (m1, m2), (fixed, generated) in blocks.items():
        assert fixed == generated
        assert fixed == len(real.block_keys(m1, m2))


def test_fixed_subalgebra_dims_finite_flip(a2_flip):
    real = a2_flip
    blocks = real.fixed_subalgebra_dims(3)
    for (m1, _), (fixed, generated) in blocks.items():
        assert fixed == generated
        # twisted loop algebra of the flip: blocks alternate between the
        # 3-dimensional invariants and the 5-dimensional anti-invariants,
        # with the center adding one dimension at degree 0
        expect = {0: 3, 1: 5}[abs(m1) % 2] + (1 if m1 == 0 else 0)
        assert fixed == expect, (m1, fixed)


def test_fixed_subalgebra_dims_affine_flip(a2a_flip):
    real = a2a_flip
    blocks = real.fixed_subalgebra_dims(2, 2)
    assert all(f == g for f, g in blocks.values())


def test_fixed_subalgebra_dims_folded_core():
    # loop algebra over a folded (doubled-edge) core with the identity twist
    real = _real("C2", [0, 1], m1w=8, m2w=2)
    blocks = real.fixed_subalgebra_dims(2)
    assert all(f == g for f, g in blocks.values())
    assert blocks[(1, 0)] == (10, 10)


def test_fixed_subalgebra_dims_window_independent():
    # the span closure stops two t1-degrees past the inner blocks, so a wider
    # m1 window must not change any block
    small = _real("A2^(1)", [0, 2, 1], m1w=11, m2w=5).fixed_subalgebra_dims(3)
    wide = _real("A2^(1)", [0, 2, 1], m1w=20, m2w=5).fixed_subalgebra_dims(3)
    assert small == wide


def test_mu_hat_depth_one_runs_no_round(a2a_flip):
    real = a2a_flip
    seeds = [real.theta_c()]
    for i in range(real.gcm.n):
        for m in range(-2, 3):
            seeds += [real.embed(m, v) for v in real.gens[i]]
    span = Echelon()
    for v in seeds:
        span.insert(v, {})
    independent = span.rank
    for depth in (1, 0, -1):
        assert MuHat(real, m1_bound=2, depth=depth).prop.rank == independent
    assert MuHat(real, m1_bound=2, depth=2).prop.rank > independent


# MuHat(real, 2, 3).prop.rank at the window (6, 0) and (6, 1) of each loop
# entry.  A1a-flip at both windows and the rotations at (6, 0) once raised
# OutOfWindow on an image bracket whose source the closure keeps; the other
# ranks are those the closure had when that raise was still in the kernel
_MU_HAT_TIGHT_RANKS = {
    "A1a-id": (31, 61),
    "A1a-flip": (31, 61),
    "A2a-id": (56, 106),
    "A2a-flip": (56, 106),
    "A2a-rot": (56, 106),
    "A3a-rot": (91, 141),
    "A4a-rot": (126, 176),
    "A5a-rot": (161, 211),
    "D4a-triality": (136, 176),
}


@pytest.mark.parametrize("m2w", [0, 1])
@pytest.mark.parametrize("name", sorted(_MU_HAT_TIGHT_RANKS))
def test_mu_hat_builds_at_tight_t2_windows(name, m2w):
    # the closure keeps |m1| <= 2 and |m2| <= m2w, the image brackets of
    # what it keeps included, and maps each seed source to its image
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=6, m2_window=m2w)
    hat = MuHat(real, 2, 3)
    assert hat.prop.rank == _MU_HAT_TIGHT_RANKS[name][m2w]
    for i in range(real.gcm.n):
        for m in range(-2, 3):
            for pick in range(3):
                src = real.embed(m, real.gens[i][pick])
                img = real.embed(m, real.gens[real.mu.perm[i]][pick])
                assert hat.apply(src) == vec_scale(img, real._phase(-m))


def test_fixed_subalgebra_dims_scope(a2a_rot):
    with pytest.raises(ScopeViolation):
        a2a_rot.fixed_subalgebra_dims(2, 1)


def test_fixed_subalgebra_dims_node_labelling():
    # the same flip of A2^(1), fixing node 0, 1 or 2: the realization sends
    # the fixed node to the affine node, so all three keep the t2-grading
    g = Gcm(canonical_matrix("A2^(1)"))
    dims = [
        Realization(g, mu, m1_window=6, m2_window=4).fixed_subalgebra_dims(1)
        for mu in ([0, 2, 1], [2, 1, 0], [1, 0, 2])
    ]
    assert dims[0] == dims[1] == dims[2]


@pytest.mark.parametrize("bounds", [(-1,), (1, -2), (-1, 1)])
def test_fixed_subalgebra_dims_rejects_negative_bounds(a2a_flip, bounds):
    # a negative bound names no block: {} would pass "fixed == generated" vacuously
    with pytest.raises(JobError):
        a2a_flip.fixed_subalgebra_dims(*bounds)


def test_fixed_subalgebra_dims_finite_core_rejects_t2_bound(a2_flip):
    # a finite core has only the t2-degree 0: a positive bound is rejected,
    # not replaced by 0
    with pytest.raises(JobError, match="inner_m2"):
        a2_flip.fixed_subalgebra_dims(1, 1)
    blocks = a2_flip.fixed_subalgebra_dims(1)
    assert a2_flip.fixed_subalgebra_dims(1, 0) == blocks
    assert set(blocks) == {(-1, 0), (0, 0), (1, 0)}


def test_fixed_subalgebra_dims_scope_needs_no_propagation(monkeypatch):
    real = _real("A2^(1)", [1, 2, 0], m1w=6, m2w=4)

    def refuse(self):
        raise AssertionError("mu_on_g built before the scope test")

    monkeypatch.setattr(Realization, "mu_on_g", refuse)
    with pytest.raises(ScopeViolation):
        real.fixed_subalgebra_dims(1)


def _all_node_span(real, inner_m1, inner_m2):
    """The closure of `_theta_span` with every node's images seeded and in
    `ad` at |m| <= 1, and theta_c in `ad` too, kept inside the same margin
    of 2 in both degrees."""
    out_m1, out_m2 = inner_m1 + 2, inner_m2 + 2
    seeds, ad = [(real.theta_c(), {})], [(real.theta_c(), {})]
    for i in range(real.gcm.n):
        for m in range(-out_m1, out_m1 + 1):
            for s in (real.theta_x(i, m, +1), real.theta_x(i, m, -1), real.theta_h(i, m)):
                seeds.append((s, {}))
                if s and abs(m) <= 1:
                    ad.append((s, {}))
    ech = Echelon()
    close(ech, seeds, ad, real.bracket, keep=_inside(out_m1, out_m2))
    return ech


@pytest.mark.parametrize(
    "name", ["A2-flip", "D4-triality", "E6-flip", "A2a-flip", "A5a-rot", "D4a-triality"]
)
def test_theta_span_rows_match_all_node_closure(monkeypatch, name):
    # the closure on one node per mu-orbit ends with the same rows, in the
    # same order, with the same values, as the closure over every node
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=3, m2_window=3)
    closed = []

    def spy(ech, *args, **kwargs):
        closed.append(ech)
        return close(ech, *args, **kwargs)

    monkeypatch.setattr(realize, "close", spy)
    real._theta_span(1, 1)
    assert list(closed[0].rows.items()) == list(_all_node_span(real, 1, 1).rows.items())


def test_theta_span_and_fixed_dims_work_counts(monkeypatch):
    real = _real("A2^(1)", [0, 2, 1], m1w=11, m2w=5)
    brackets = 0
    kernel = realize._loop_bracket

    def counted_kernel(*args):  # one accumulation per Realization.bracket
        nonlocal brackets
        brackets += 1
        return kernel(*args)

    inserts = 0
    closed = []
    true_insert = Echelon.insert

    def counted_insert(self, v, img):
        nonlocal inserts
        inserts += 1
        return true_insert(self, v, img)

    def spy(ech, *args, **kwargs):
        closed.append(ech)
        return close(ech, *args, **kwargs)

    monkeypatch.setattr(realize, "_loop_bracket", counted_kernel)
    monkeypatch.setattr(Echelon, "insert", counted_insert)
    monkeypatch.setattr(realize, "close", spy)
    real._theta_span(3, 2)
    # over a quarter of the brackets vanish and none leaves the window; one in
    # five or six of the inserted pairs (the seeds included) adds a row
    assert (brackets, inserts, closed[0].rank) == (3540, 2441, 447)
    monkeypatch.undo()
    mu = real.mu_on_g()
    applies = 0
    true_apply = Echelon.apply

    def counted_apply(self, v):
        nonlocal applies
        applies += self is mu
        return true_apply(self, v)

    monkeypatch.setattr(Echelon, "apply", counted_apply)
    monkeypatch.setattr(realize, "_loop_bracket", counted_kernel)
    brackets = 0
    real.fixed_subalgebra_dims(3)
    # one per g-level key (5 t2-degrees of 8 loop vectors, and k2) plus two
    # per divided-center scale at m2 = +-1, +-2, whatever the t1-degree: the
    # certificate's applies reuse them
    assert applies == 49
    # the closure capped at the fixed dimensions brackets nothing into a
    # block at its cap and stops once every inner block is at its cap
    assert brackets == 1344


def _fixed_dims_reference(real, inner_m1, inner_m2=None):
    """`Realization.fixed_subalgebra_dims` with the span closure uncapped:
    every fixed dimension from `MuHatClosed`, then the ranks of the whole
    closure of `_theta_span`, called without caps.  In-scope entries only."""
    if real.galg.mode == "finite":
        inner_m2 = 0
    elif inner_m2 is None:
        inner_m2 = max(1, inner_m1 - 1)
    hat = MuHatClosed(real, real.mu_on_g())
    span = real._theta_span(inner_m1, inner_m2)
    blocks = {}
    for m1 in range(-inner_m1, inner_m1 + 1):
        for m2 in range(-inner_m2, inner_m2 + 1):
            keys = real.block_keys(m1, m2)
            moved = Echelon()
            for key in keys:
                img = hat.apply({key: CycNum.one()})
                vec_add(img, {key: -CycNum.one()})
                moved.insert(img, {})
            blocks[(m1, m2)] = (len(keys) - moved.rank, span.get((m1, m2), 0))
    return blocks


_IN_SCOPE = [
    "A2-id", "A2-flip", "A3-flip", "A4-flip", "A5-flip", "D4-flip", "D4-triality",
    "E6-flip", "A1a-id", "A2a-id", "A2a-flip", "D4a-triality",
]


@pytest.mark.parametrize("window", [(6, 4, 1), (11, 5, 3)])
@pytest.mark.parametrize("name", _IN_SCOPE)
def test_capped_fixed_dims_match_uncapped_reference(name, window):
    m1w, m2w, inner = window
    e = entry_by_name(name)
    got = Realization(e.gcm, e.mu, m1w, m2w).fixed_subalgebra_dims(inner)
    assert got == _fixed_dims_reference(Realization(e.gcm, e.mu, m1w, m2w), inner)
    assert all(f == g for f, g in got.values()), name


@pytest.mark.parametrize(
    "label, perm, window, inner",
    [
        ("C2", [0, 1], (8, 2), 2),
        ("A2^(1)", [0, 2, 1], (6, 4), 1),
        ("A2^(1)", [2, 1, 0], (6, 4), 1),
        ("A2^(1)", [1, 0, 2], (6, 4), 1),
        ("A2^(1)", [2, 1, 0], (11, 5), 3),
        ("A2^(1)", [1, 0, 2], (11, 5), 3),
    ],
)
def test_capped_fixed_dims_match_uncapped_reference_beyond_the_catalog(label, perm, window, inner):
    # a folded core, and the flip of A2^(1) fixing each of its three nodes
    got = _real(label, perm, *window).fixed_subalgebra_dims(inner)
    assert got == _fixed_dims_reference(_real(label, perm, *window), inner)
    assert all(f == g for f, g in got.values())


@pytest.mark.parametrize("m", [1, 5])
def test_capped_fixed_dims_fall_back_on_an_unaveraged_seed(monkeypatch, m):
    # theta_x(1, m, +1) of A2a-flip replaced by t1^m (x) e_1, not averaged
    # over the orbit {1, 2}: it is homogeneous but not fixed, so the seed
    # certificate fails and the closure runs uncapped.  m = 5 lies in the
    # margin, outside the inner blocks, and still reaches them
    def tampered():
        real = _real("A2^(1)", [0, 2, 1], 11, 5)
        real._theta_cache[(0, 1, m)] = real.embed(m, real.gens[1][0])
        return real

    closed = []

    def spy(ech, *args, **kwargs):
        closed.append(kwargs.get("caps"))
        return close(ech, *args, **kwargs)

    real = tampered()
    real.mu_on_g()  # closed here, before the spy
    with monkeypatch.context() as patch:
        patch.setattr(realize, "close", spy)
        got = real.fixed_subalgebra_dims(3)
    assert closed == [None]
    assert got == _fixed_dims_reference(tampered(), 3)
    assert got[(0, -2)] == (4, 9) and got[(1, 0)] == (5, 9)
    assert sum(f != g for f, g in got.values()) == 35


def test_capped_fixed_dims_fall_back_on_a_row_that_fails_the_certificate(monkeypatch):
    # mu_hat made wrong on the elements of several keys at t2-degree +-2:
    # the block keys and the seeds (|t2| <= 1) keep their true images, so the
    # fixed dimensions and the seed certificate hold, and the first row with
    # several keys in such a block fails its certificate; the capped closure
    # stops there and the uncapped one runs from the seeds
    true_apply = MuHatClosed.apply

    def wrong(self, x):
        img = true_apply(self, x)
        if len(x) > 1 and any(k[0] == "L" and abs(k[2]) == 2 for k in x):
            return vec_scale(img, CycNum.from_rational(2))
        return img

    closed = []

    def spy(ech, *args, **kwargs):
        closed.append(kwargs.get("caps"))
        return close(ech, *args, **kwargs)

    monkeypatch.setattr(MuHatClosed, "apply", wrong)
    real = _real("A2^(1)", [0, 2, 1], 11, 5)
    real.mu_on_g()  # closed here, before the spy
    with monkeypatch.context() as patch:
        patch.setattr(realize, "close", spy)
        got = real.fixed_subalgebra_dims(3)
    assert len(closed) == 2 and closed[0].failed and closed[1] is None
    assert got == _fixed_dims_reference(_real("A2^(1)", [0, 2, 1], 11, 5), 3)



def _span_rows(monkeypatch, real, inner_m1, inner_m2):
    closed = []

    def spy(ech, *args, **kwargs):
        closed.append(ech)
        return close(ech, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(realize, "close", spy)
        real._theta_span(inner_m1, inner_m2)
    return list(closed[0].rows.items())


@pytest.mark.parametrize("name", ["A2a-flip", "A3a-rot", "A1a-id"])
def test_theta_span_rows_do_not_depend_on_the_window(monkeypatch, name):
    # the closure bounds |m2| as it bounds |m1|, so wider windows in either
    # direction leave every row, its value and its place unchanged
    e = entry_by_name(name)
    rows = [
        _span_rows(monkeypatch, Realization(e.gcm, e.mu, m1w, m2w), 3, 2)
        for m1w, m2w in ((11, 5), (11, 8), (20, 6))
    ]
    assert rows[0] == rows[1] == rows[2]


def test_theta_x_pair_brackets_to_theta_h_up_to_center(catalog_names):
    # [theta_x(i, m, +1), theta_x(i, 0, -1)] = (N / |O_i|) theta_h(i, m) plus
    # central keys, for each orbit representative i: the identity that lets
    # `_theta_span` leave theta_h out of `ad`
    for name in catalog_names:
        e = entry_by_name(name)
        real = Realization(e.gcm, e.mu, m1_window=3, m2_window=3)
        for orbit in exactnum.perm_orbits(real.mu.perm):
            i = orbit[0]
            scale = CycNum.from_rational(Fraction(real.n_order, len(orbit)))
            for m in (-1, 0, 1):
                diff = real.bracket(real.theta_x(i, m, +1), real.theta_x(i, 0, -1))
                vec_add(diff, vec_scale(real.theta_h(i, m), -scale))
                assert all(k[0] != "L" for k in diff), (name, i, m)


def _close_every_pair(ech, pairs, ad, bracket, keep=None, rounds=None):
    """`chevalley.close` without the mirrored-pair cut: every pair of `ad`
    is bracketed with every pair of the frontier, in every round."""
    frontier = [(v, img) for v, img in pairs if ech.insert(v, img)]
    done = 0
    while frontier and (rounds is None or done < rounds):
        new = []
        for a, a_img in frontier:
            for s, s_img in ad:
                b = bracket(s, a)
                if not b or (keep is not None and not keep(b)):
                    continue
                b_img = bracket(s_img, a_img) if s_img and a_img else {}
                if ech.insert(b, b_img):
                    new.append((b, b_img))
        frontier = new
        done += 1


def _closed_rows(monkeypatch, module, closure, build):
    """The rows, with their images and in their order, of every echelon that
    `build()` closes through `module.close`, run with `closure` instead."""
    closed = []

    def spy(ech, *args, **kwargs):
        closed.append(ech)
        return closure(ech, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "close", spy)
        build()
    return [list(ech.rows.items()) for ech in closed]


@pytest.mark.parametrize("name", ["A2-flip", "A1a-flip", "A2a-flip", "A2a-rot", "A3a-rot"])
def test_mu_hat_and_mu_on_g_rows_match_every_pair_closure(monkeypatch, name):
    # bracketing one of each mirrored pair of seeds changes no row, image or
    # row order of the propagated automorphism, at g-level or ghat-level
    e = entry_by_name(name)

    def build():
        real = Realization(e.gcm, e.mu, m1_window=6, m2_window=4)
        real.mu_on_g()
        MuHat(real, 2, 2)

    got = _closed_rows(monkeypatch, realize, close, build)
    want = _closed_rows(monkeypatch, realize, _close_every_pair, build)
    assert len(got) == 2 and got == want


@pytest.mark.parametrize("source", [("E", 6, 2), ("D", 4, 3), ("A", 5, 2)])
def test_mu_extend_finite_rows_match_every_pair_closure(monkeypatch, source):
    # the sources of F4, G2 and C3 under their diagram twists, propagated by
    # the test-side reference of `mu_extend_finite`
    module = sys.modules["loomfold.chevalley"]
    label, nu = module.diagram_twist(*source)
    alg = module.chevalley(label)
    images = []

    def build():
        images.append(nu_by_propagation(alg, nu))

    got = _closed_rows(monkeypatch, module, close, build)
    want = _closed_rows(monkeypatch, module, _close_every_pair, build)
    assert len(got) == 1 and got == want and images[0] == images[1]

def _loop_bracket_reference(galg, x, y):
    """[t2^m u, t2^n v] summed over basis pairs of the structure tables."""
    alg = galg.alg
    out = {}
    for kx, cx in x.items():
        for ky, cy in y.items():
            if kx[0] != "L" or ky[0] != "L":
                continue
            (m, b), (n, c) = kx[2:], ky[2:]
            for t, s in alg.brackets.get((b, c), {}).items():
                vec_add(out, {("L", 0, m + n, t): cx * cy * s})
            if galg.mode == "affine" and m + n == 0 and m != 0 and (b, c) in alg.form:
                vec_add(out, {("K2", 0): cx * cy * (m * alg.form[(b, c)])})
    return out


def _loop_pair_reference(galg, x, y):
    total = CycNum.zero()
    for kx, cx in x.items():
        for ky, cy in y.items():
            if kx[0] == ky[0] == "L" and kx[2] + ky[2] == 0:
                total = total + cx * cy * galg.alg.form.get((kx[3], ky[3]), 0)
    return total


@pytest.mark.parametrize("label", ["A2^(1)", "A2^(2)", "D4^(1)"])
def test_galg_kernel_matches_basis_pair_reference(label):
    galg, _ = affinize(label)
    dim = galg.alg.dim
    rng = random.Random(label)

    def rand_elem():
        x = {}
        for _ in range(rng.randint(1, 8)):
            c = CycNum(3, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-3, 3)])
            x[("L", 0, rng.randint(-2, 2), rng.randrange(dim))] = c
        if rng.random() < 0.3:
            x[("K2", 0)] = CycNum(3, [1, rng.randint(-2, 2)])
        return {k: c for k, c in x.items() if c}

    with_k2 = 0
    for _ in range(60):
        x, y = rand_elem(), rand_elem()
        got = galg.bracket(x, y)
        assert got == _loop_bracket_reference(galg, x, y)
        assert galg.pair(x, y) == _loop_pair_reference(galg, x, y)
        with_k2 += ("K2", 0) in got
    assert with_k2  # the cocycle term was exercised


def test_affine_pairing_rule(a2a_flip):
    # <t2^m x, t2^n y> = <x, y> delta_{m+n,0}; the loop center pairs to zero
    real = a2a_flip
    galg = real.galg
    alg = galg.alg
    h = alg.h_idx[0]
    x = {("L", 0, 2, h): CycNum.one()}
    y = {("L", 0, -2, h): CycNum.one()}
    z = {("L", 0, 1, h): CycNum.one()}
    assert galg.pair(x, y).as_fraction() == alg.form[(h, h)]
    assert galg.pair(x, z).is_zero()
    k2 = {("K2", 0): CycNum.one()}
    assert galg.pair(k2, x).is_zero()
    assert galg.pair(k2, k2).is_zero()


def test_aff_level_form_invariance(a2a_flip):
    # <[x,y],z> = <x,[y,z]> for loop elements of the affinized core
    rng = random.Random(11)
    for real in (a2a_flip, _real("A2^(2)", [0, 1], m1w=4, m2w=4)):
        galg = real.galg
        dim = galg.alg.dim
        for _ in range(40):
            def rand_elem():
                return {
                    ("L", 0, rng.randint(-2, 2), rng.randrange(dim)): CycNum.from_rational(
                        Fraction(rng.randint(-3, 3))
                    )
                    for _ in range(2)
                }

            x, y, z = rand_elem(), rand_elem(), rand_elem()
            lhs = galg.pair(galg.bracket(x, y), z)
            rhs = galg.pair(x, galg.bracket(y, z))
            assert (lhs - rhs).is_zero()


def test_fixed_dims_block_check_raises(monkeypatch):
    # the check holds under python -O too: it raises, it is no assert
    real = _real("A2", [1, 0], m1w=4, m2w=2)
    monkeypatch.setattr(MuHatClosed, "apply", lambda self, x: {("L", 9, 0, 0): CycNum.one()})
    with pytest.raises(InconsistentPropagation, match="left the block"):
        real.fixed_subalgebra_dims(1)


def test_k1p_closed_scale_identity_mu():
    # with the identity twist the divided symbols keep the naive phase rule
    real = _real("A2^(1)", [0, 1, 2], m1w=6, m2w=3)
    hat = MuHatClosed(real, real.mu_on_g())
    key = ("K1p", 2, 1)
    assert hat.apply({key: CycNum.one()}) == {key: CycNum.one()}


# -- the lazy-sum kernel against the CycNum loops it replaced -------------------


def _bracket_reference(real, x, y):
    """Realization.bracket as one CycNum product, scaling and sum per basis
    pair: the loop that the lazy-sum kernel replaced."""
    galg = real.galg
    alg = galg.alg
    affine = galg.mode == "affine"
    r = galg.r
    out = {}
    central = {}
    for kx, cx in x.items():
        if kx[0] != "L":
            continue
        m1, m2, b = kx[1], kx[2], kx[3]
        for ky, cy in y.items():
            if ky[0] != "L":
                continue
            n1, n2, c = ky[1], ky[2], ky[3]
            entry = alg.brackets.get((b, c))
            pairing = alg.form.get((b, c))
            if not entry and not pairing:
                continue
            p1 = m1 + n1
            p2 = m2 + n2
            coeff = cx * cy
            if entry:
                for t, s in entry.items():
                    vec_add(out, {("L", p1, p2, t): coeff.mul_rational(s)})
            if pairing:
                degs = (m1, m2, n1, n2)
                cur = central.get(degs)
                val = coeff.mul_rational(pairing)
                central[degs] = val if cur is None else cur + val
    for (m1, m2, n1, n2), total in central.items():
        if not total:
            continue
        p1 = m1 + n1
        p2 = m2 + n2
        if affine:
            if p2 == 0:
                if p1 == 0 and m1 != 0:
                    vec_add(out, {("K1",): total.mul_rational(m1)})
                if m2 != 0:
                    vec_add(out, {("K2", p1): total.mul_rational(m2)})
            else:
                if p2 % r != 0:
                    raise InconsistentPropagation(
                        "central term at a degree outside the loop lattice"
                    )
                factor = m1 * n2 - m2 * n1
                if factor:
                    vec_add(out, {("K1p", p1, p2): total.mul_rational(factor)})
        else:
            if p1 == 0 and m1 != 0:
                vec_add(out, {("K1",): total.mul_rational(m1)})
    return out


def _lin_comb_reference(terms):
    """The weighted relation sum as one vec_add per term."""
    total = {}
    for coeff, vec in terms:
        vec_add(total, vec, coeff)
    return total


def _outcome(call):
    """The printed coefficients of a result, or the error it raised."""
    try:
        return "ok", {k: c.to_json() for k, c in call().items()}
    except InconsistentPropagation as exc:
        return type(exc).__name__, str(exc)


# (label, twist, field): phi(field) = 1, 1, 2, 2, 4; A2^(2) has a twisted
# loop core, the only kind with central terms off the loop lattice
KERNEL_CASES = [
    ("A2^(1)", [0, 2, 1], 2),
    ("A2^(2)", [0, 1], 2),
    ("A2^(1)", [1, 2, 0], 3),
    ("A3^(1)", [1, 2, 3, 0], 4),
    ("A4^(1)", [1, 2, 3, 4, 0], 5),
]


class _Elements:
    """Seeded random elements of one realization, all coefficients of one
    order: the field, 1, or one that does not divide the field."""

    def __init__(self, real, seed):
        self.real = real
        self.rng = random.Random(seed)
        self.orders = (real.field, real.field, 1, 3 if real.field % 3 else 4)
        self.thetas = [
            v
            for i in range(real.gcm.n)
            for m in (-2, -1, 0, 1, 2)
            for v in (real.theta_x(i, m, +1), real.theta_x(i, m, -1), real.theta_h(i, m))
            if v
        ]

    def coeff(self, order, dens=(1, 1, 1, 2, 3)):
        rng = self.rng
        while True:
            c = CycNum(
                order,
                [Fraction(rng.randint(-3, 3), rng.choice(dens)) for _ in range(exactnum.euler_phi(order))],
            )
            if c:
                return c

    def element(self, order=None):
        rng = self.rng
        order = order or rng.choice(self.orders)
        if rng.random() < 0.4:  # a generator image, rescaled
            return vec_scale(rng.choice(self.thetas), self.coeff(order, (1,)))
        dim = self.real.galg.alg.dim
        x = {
            ("L", rng.randint(-2, 2), rng.randint(-2, 2), rng.randrange(dim)): self.coeff(order)
            for _ in range(rng.randint(1, 6))
        }
        if rng.random() < 0.2:  # central keys bracket to zero
            key = rng.choice([("K1",), ("K2", rng.randint(-2, 2)), ("K1p", 1, rng.randint(1, 2))])
            x[key] = self.coeff(order)
        return x


@pytest.mark.parametrize("label,perm,field", KERNEL_CASES)
def test_bracket_kernel_matches_cycnum_reference(label, perm, field):
    real = _real(label, perm, m1w=3, m2w=3)
    assert real.field == field
    gen = _Elements(real, f"kernel:{label}:{perm}")
    seen = {}
    for _ in range(250):
        x, y = gen.element(), gen.element()
        got = _outcome(lambda: real.bracket(x, y))
        assert got == _outcome(lambda: _bracket_reference(real, x, y)), (x, y)
        kind = got[0]
        if kind == "ok":
            kind += f"-{'central' if any(k[0] != 'L' for k in got[1]) else 'loop'}"
        seen[kind] = seen.get(kind, 0) + 1
    assert seen.get("ok-loop") and seen.get("ok-central"), seen
    if real.galg.r > 1:
        assert seen.get("InconsistentPropagation"), seen


@pytest.mark.parametrize("label,perm,field", KERNEL_CASES)
def test_bracket_kernel_mixed_orders_same_values(label, perm, field):
    # an element whose coefficients mix orders: the kernel sums every key in
    # the lcm of the product orders; the values agree with the reference
    real = _real(label, perm, m1w=3, m2w=3)
    gen = _Elements(real, f"mixed:{label}:{perm}")
    compared = 0
    for _ in range(120):
        x, y = gen.element(), gen.element()
        x.update(gen.element())
        try:
            want = _bracket_reference(real, x, y)
        except InconsistentPropagation as exc:
            with pytest.raises(type(exc)):
                real.bracket(x, y)
            continue
        assert real.bracket(x, y) == want
        compared += 1
    assert compared


@pytest.mark.parametrize("label,perm,field", KERNEL_CASES)
def test_lin_comb_matches_vec_add_reference(label, perm, field):
    real = _real(label, perm, m1w=3, m2w=3)
    gen = _Elements(real, f"lin_comb:{label}:{perm}")
    foreign = gen.orders[-1]
    big = lcm(field, foreign)

    def check(terms, order):
        got = exactnum.lin_comb(terms, order)
        assert got == _lin_comb_reference(terms)
        # every coefficient prints in the field it was summed in
        assert {c.order for c in got.values()} <= {order}

    # sums that cancel, then go on
    x, one = cyc_root(foreign, 1), CycNum.one()
    vec = next(v for m in (1, 0) for v in (real.theta_x(0, m, +1), real.theta_x(1, m, +1)) if v)
    check([(x, vec), (-x, vec), (one, vec)], big)
    check([(one, vec), (x, vec), (-x, vec)], big)
    check([(x, vec), (one, vec)], big)
    mixed_orders = 0
    for _ in range(200):
        terms = []
        # coefficients in the field or of order 1, all foreign, or both; the
        # vectors in the field, so the products lie in one field or in two
        coeff_orders = gen.rng.choice([(field, 1), (foreign,), (field, 1, foreign)])
        for _ in range(gen.rng.randint(1, 5)):
            coeff = gen.coeff(gen.rng.choice(coeff_orders))
            terms.append((coeff, gen.element(field)))
        if gen.rng.random() < 0.3:  # a sum that cancels, then goes on
            coeff, vec = terms[0]
            terms.append((-coeff, vec))
            terms.append((gen.coeff(gen.rng.choice(coeff_orders)), vec))
        check(terms, big if foreign in coeff_orders else field)
        mixed_orders += len({lcm(c.order, field) for c, _ in terms}) > 1
    assert mixed_orders


def test_kernel_runs_no_cycnum_arithmetic(monkeypatch):
    real = cached_realization("A5a-rot")
    fam = cached_family("A5a-rot")
    ver = Verifier(real)
    i, j = sorted(fam.entries)[0]
    memos = {+1: ({}, {}), -1: ({}, {})}
    terms, _ = ver._transport(fam.entries[(i, j)], 0, 0)

    def weighted():
        return ver._verify_weighted("DS", terms, i, j, fam.arity(i, j), 1, memos)

    want = weighted().to_json()  # also builds every generator image it needs
    elems = [real.theta_x(i, m, s) for i in range(real.gcm.n) for m in (-1, 0, 1) for s in (1, -1)]
    pairs = [(x, y) for x in elems for y in elems if x and y]

    def refuse(*args):
        raise AssertionError("CycNum arithmetic inside the kernel")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "mul_rational"):
        monkeypatch.setattr(CycNum, name, refuse)
    assert any(real.bracket(x, y) for x, y in pairs)
    assert weighted().to_json() == want


# -- the two steps of the kernel: accumulate, then place at a t1-shift ---------


def _t1_shifted(x, d):
    """The loop part of x moved d in t1-degree (the kernel reads no other key)."""
    return {("L", k[1] + d) + k[2:]: c for k, c in x.items() if k[0] == "L"}


@pytest.mark.parametrize("name", ["A2-flip", "A1a-id", "A2a-flip", "A2a-rot"])
def test_place_brackets_the_shifted_operands(name):
    # place(accumulate(x, y), d1, d2) is the exact bracket of x and y moved
    # d1 and d2 in t1: the reference bracket, central keys at the shifted
    # degrees included, for any shifts, not only multiples of N, and
    # Realization.bracket of the moved operands, past the window too
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=4, m2_window=2)
    rng = random.Random(name)
    images = [
        image
        for i in range(real.gcm.n)
        for m in (-1, 0, 1)
        for image in (real.theta_x(i, m, +1), real.theta_x(i, m, -1), real.theta_h(i, m))
        if image
    ]
    elems = images + [real.bracket(rng.choice(images), rng.choice(images)) for _ in range(20)]
    central = 0
    for _ in range(300):
        x, y = rng.choice(elems), rng.choice(elems)
        d1, d2 = rng.randint(-4, 4), rng.randint(-4, 4)
        got = serialize_elem(real.place(real.accumulate(x, y), d1, d2))
        shifted = _t1_shifted(x, d1), _t1_shifted(y, d2)
        assert got == serialize_elem(_bracket_reference(real, *shifted)), (d1, d2)
        assert got == serialize_elem(real.bracket(*shifted)), (d1, d2)
        central += any(item["key"][0] != "L" for item in got)
    assert central


@pytest.mark.parametrize("name", ["A2-id", "A1a-id", "A2a-id", "A2a-flip"])
def test_in_period_accepts_images_moved_in_t1(monkeypatch, name):
    # every theta_x(0, m, +1) moved c in t1 is still periodic in t1, though
    # its loop keys leave t1-degree m, and in_period holds: the relations
    # are bracketed with no window, so a member needs no bound on its
    # degrees.  One image moved once more breaks the period of theta_x of
    # sign +1 only
    real = cached_realization(name)
    span = range(-3, 4)
    assert real.in_period(0, span) and real.in_period(0, span, (0, 1, 2))
    for c in (1, 2, 3):
        with monkeypatch.context() as patch:
            for m in span:
                patch.setitem(real._theta_cache, (0, 0, m), _t1_shifted(real._theta(0, 0, m), c))
            assert real.in_period(0, span) and real.in_period(0, span, (0, 1, 2))
            patch.setitem(real._theta_cache, (0, 0, 2), _t1_shifted(real._theta(0, 0, 2), c))
            assert not real.in_period(0, span)
            assert real.in_period(0, span, (1, 2))
    assert real.in_period(0, span)


# -- the Chevalley involution on the keys of the kernel ------------------------------


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_omega_hat_is_an_automorphism_of_the_bracket(name):
    # omega_hat [x, y] = [omega_hat x, omega_hat y] on seeded random elements
    # (generator images, loop vectors at t2-degrees -2..2, central keys); the
    # affine brackets reach K2 and K1p terms, K1p at both signs of p2
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=3, m2_window=3)
    gen = _Elements(real, f"omega:{name}")
    tags = set()
    for _ in range(200):
        x, y = gen.element(), gen.element()
        want = serialize_elem(real.omega(real.bracket(x, y), -1))
        got = serialize_elem(real.bracket(real.omega(x), real.omega(y, -1)))
        assert got == want
        tags |= {item["key"][0] for item in want}
    affine = real.galg.mode == "affine"
    assert tags == ({"L", "K1", "K2", "K1p"} if affine else {"L", "K1"})
