"""Acceptance criteria, one test per criterion, everything exact.

Each test prints a single PASS line on success; failures carry the first
offending case.  Time bounds are asserted where the criterion states one.
"""

import random
import time

from conftest import cached_family, cached_realization
from loomfold.catalog import builtin_entries, entry_by_name
from loomfold.errors import ScopeViolation
from loomfold.folding import (
    fold_data,
    index_pairs,
    tuple_sets,
    tuple_sets_case_analysis,
)
from loomfold.polys import (
    LPoly,
    SerreFamily,
    check_P2,
    drinfeld_poly_closed,
    drinfeld_poly_omega,
    family_qlimit,
    family_split,
)
from loomfold.presentation import Verifier, suite_window
from loomfold.realize import MuHat, Realization, vec_add

CATALOG = [e.name for e in builtin_entries()]


def _ok(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_drinfeld_polynomial_oracle_equivalence():
    t0 = time.time()
    pairs_checked = 0
    branches = set()
    for name in CATALOG:
        e = entry_by_name(name)
        fold = fold_data(e.gcm, e.mu)
        sets = tuple_sets(e.gcm, e.mu, fold)
        for i, j in index_pairs(e.gcm):
            om = drinfeld_poly_omega(sets, i, j, e.mu.order)
            cl = drinfeld_poly_closed(e.gcm, e.mu, fold, i, j)
            assert om == cl, (name, i, j)
            pairs_checked += 1
            same = fold.same_orbit(i, j)
            branches.add(
                (fold.s[i], same, e.mu.order if same else fold.n_pair(i, j))
            )
    elapsed = time.time() - t0
    assert len(CATALOG) >= 12
    assert {s for s, _, _ in branches} == {1, 2, 3}
    # closed-form branches in the same-orbit case: orders 2..6 all present
    assert {n for s, same, n in branches if same and s == 3} == {2, 3, 4, 5, 6}
    assert elapsed < 30
    _ok(
        1,
        f"both weight constructions agree on {pairs_checked} ordered pairs "
        f"across {len(CATALOG)} catalog entries in {elapsed:.1f}s",
    )


def test_criterion_2_tuple_set_double_oracle():
    t0 = time.time()
    checked = 0
    for name in CATALOG:
        e = entry_by_name(name)
        fold = fold_data(e.gcm, e.mu)
        primary = tuple_sets(e.gcm, e.mu, fold)
        oracle = tuple_sets_case_analysis(e.gcm, e.mu, fold)
        assert primary.pairs.keys() == oracle.pairs.keys()
        for key in primary.pairs:
            p, q = primary[key], oracle[key]
            assert p.upsilon == q.upsilon, (name, key)
            assert p.upsilon_real == q.upsilon_real, (name, key)
            assert p.upsilon_imag == q.upsilon_imag, (name, key)
            assert p.omega_real == q.omega_real, (name, key)
            assert p.omega_imag == q.omega_imag, (name, key)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    _ok(2, f"root-table and case-analysis tuple sets agree on {checked} pairs in {elapsed:.1f}s")


def test_criterion_3_generator_commutator_suite():
    worst = 0.0
    for name in CATALOG:
        t0 = time.time()
        real = cached_realization(name)
        report = Verifier(real).verify_cartan_relations(6)
        assert report.passed, (name, [c for c in report.checks if not c.passed][:1])
        elapsed = time.time() - t0
        assert elapsed < 300, name
        worst = max(worst, elapsed)
    _ok(3, f"commutator identities exact for |m|,|n| <= 6 on every entry (worst {worst:.1f}s)")


def test_criterion_4_presentation_suite_family_p():
    worst = 0.0
    for name in CATALOG:
        t0 = time.time()
        real = cached_realization(name)
        fam = cached_family(name)
        report = Verifier(real).run_suite(fam, 4)
        assert report.passed, (name, [c for c in report.checks if not c.passed][:1])
        elapsed = time.time() - t0
        assert elapsed < 600, name
        worst = max(worst, elapsed)
    _ok(4, f"full presentation suite at modes <= 4 passes on every entry (worst {worst:.1f}s)")


def test_criterion_5_finite_type_split_relations():
    # every case of family_split: among them A4-flip's pair (1, 0), where
    # a_{i, mu i} = -1 and j != mu i, and A5-flip's pair (0, 1), where i and
    # j both move and a_{i, mu i} = 0
    finite = [e.name for e in builtin_entries() if not e.gcm.is_affine()]
    assert len(finite) == 8
    for name in finite:
        real = cached_realization(name)
        report = Verifier(real).verify_family("THM1_DS", family_split(real.gcm, real.mu), 4)
        assert report.passed, (name, [c for c in report.checks if not c.passed][:1])
    # the sigma-summed last line is present for the adjacent-orbit pair
    real = cached_realization("A2-flip")
    rep = Verifier(real).verify_family("THM1_DS", family_split(real.gcm, real.mu), 4)
    assert any(c.kind == "THM1_DSplus" for c in rep.checks)
    _ok(5, "split-form relations (sigma-summed line included) pass at modes <= 4, all finite entries")


def test_criterion_6_classical_limit_family():
    # every catalog entry in the family's scope (simply laced), at modes 4
    covered = []
    for e in builtin_entries():
        try:
            fam = family_qlimit(e.gcm, e.mu)
        except ScopeViolation:
            continue
        diag = check_P2(fam)
        assert all(not d.is_zero() for d in diag.values()), e.name
        m1, m2 = suite_window(e.gcm, e.mu, fam, 4)
        real = Realization(e.gcm, e.mu, m1_window=m1, m2_window=m2)
        report = Verifier(real).verify_P1_at_window(fam, 4)
        assert report.passed, (e.name, [c for c in report.checks if not c.passed][:1])
        covered.append(e.name)
    assert len(covered) == 11, covered
    _ok(6, f"classical-limit family passes the diagonal and grid checks on {covered}")


def test_criterion_7_structural_exactness():
    rng = random.Random(0x5EED)
    for name in CATALOG:
        real = cached_realization(name)
        # form invariance on all basis triples of the finite core
        real.galg.alg.assert_structure()
        elems = []
        for i in range(real.gcm.n):
            for m in (-2, -1, 0, 1, 2):
                for maker in (
                    lambda: real.theta_x(i, m, +1),
                    lambda: real.theta_x(i, m, -1),
                    lambda: real.theta_h(i, m),
                ):
                    v = maker()
                    if v:
                        elems.append(v)
        for _ in range(500):
            x, y, z = (rng.choice(elems) for _ in range(3))
            anti = dict(real.bracket(x, y))
            vec_add(anti, real.bracket(y, x))
            assert not anti, name
            jac = dict(real.bracket(real.bracket(x, y), z))
            vec_add(jac, real.bracket(real.bracket(y, z), x))
            vec_add(jac, real.bracket(real.bracket(z, x), y))
            assert not jac, name
        hat = MuHat(real, m1_bound=2, depth=2)
        sample = [rng.choice(elems) for _ in range(6)]
        assert hat.order_check(sample), name
        low = []
        for i in range(real.gcm.n):
            for m in (-1, 0, 1):
                for v in (
                    real.theta_x(i, m, +1),
                    real.theta_x(i, m, -1),
                    real.theta_h(i, m),
                ):
                    if v:
                        low.append(v)
        pairs = [(rng.choice(low), rng.choice(low)) for _ in range(6)]
        assert hat.bracket_check(pairs), name
        for i in range(real.gcm.n):
            assert hat.apply(real.theta_h(i, 1)) == real.theta_h(i, 1), name
            assert hat.apply(real.theta_x(i, -1, +1)) == real.theta_x(i, -1, +1), name
        assert hat.apply(real.theta_c()) == real.theta_c(), name
    _ok(
        7,
        "Jacobi and antisymmetry on 500 random triples, form invariance on all "
        "core basis triples, and twist spot checks pass on every entry",
    )


def test_criterion_8_window_scale_surjectivity():
    # every catalog entry in the scope of fixed_subalgebra_dims: a core that
    # is finite or an untwisted loop core, under a grading-preserving twist
    covered = []
    for name in CATALOG:
        real = cached_realization(name)
        try:
            blocks = real.fixed_subalgebra_dims(3)
        except ScopeViolation:
            continue
        for block, (fixed, generated) in blocks.items():
            assert fixed == generated, (name, block, fixed, generated)
        covered.append(name)
    assert len(covered) == 12, covered
    _ok(
        8,
        "fixed-block dimensions equal the generated-span dimensions on every "
        f"block (inner |m1| <= 3) for {covered}",
    )


def test_criterion_9_negative_control():
    real = cached_realization("A2a-flip")
    fam = cached_family("A2a-flip")
    plain = SerreFamily("plain")
    for (i, j), sigmas in fam.entries.items():
        variables = next(iter(sigmas.values())).vars
        plain.entries[(i, j)] = {
            s: (LPoly.one(variables) if s == (0, 1) else LPoly.zero(variables))
            for s in sigmas
        }
    report = Verifier(real).verify_P1_at_window(plain, 2)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert failing
    modes, residual = failing[0].failures[0]
    assert residual
    _ok(
        9,
        f"unweighted nesting fails on the twisted pair {failing[0].pair} at modes "
        f"{modes} with a nonzero residual of {len(residual)} terms",
    )
