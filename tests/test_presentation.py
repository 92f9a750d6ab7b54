import itertools
import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_family, cached_realization, reference_report, relabelled
from loomfold import polys, presentation, realize
from loomfold.catalog import builtin_entries, entry_by_name
from loomfold.cartan import Gcm, canonical_matrix
from loomfold.errors import ScopeViolation
from loomfold.exactnum import CycNum, cyc_root, perm_orbits, vec_add
from loomfold.folding import validate_aut
from loomfold.polys import (
    LPoly,
    SerreFamily,
    family_locality,
    family_p,
    family_qlimit,
    family_split,
)
from loomfold.presentation import (
    Verifier,
    serialize_elem,
    suite_window,
)
from loomfold.realize import Realization


def _one_pair(fam, i, j):
    return SerreFamily(fam.name, {(i, j): fam.entries[(i, j)]})


def _locality(real, i, j, mode_bound):
    """The locality checks of one pair."""
    fam = _one_pair(family_locality(real.gcm, real.mu), i, j)
    return Verifier(real).verify_family("X", fam, mode_bound)


def _setup(label, perm, mode_bound=2, fam_builder=family_p):
    g = Gcm(canonical_matrix(label))
    mu = validate_aut(g, perm)
    fam = fam_builder(g, mu)
    m1, m2 = suite_window(g, mu, fam, mode_bound)
    real = Realization(g, mu, m1_window=m1, m2_window=m2)
    return real, fam


def test_cartan_relations_trivial_mu():
    real, _ = _setup("A2", [0, 1])
    rep = Verifier(real).verify_cartan_relations(2)
    assert rep.passed
    kinds = {c.kind for c in rep.checks}
    assert {"H", "HXplus", "HXminus", "XX", "Xperiod"} <= kinds


def test_cartan_relations_twisted():
    real, _ = _setup("A2", [1, 0])
    assert Verifier(real).verify_cartan_relations(3).passed


def test_locality_orthogonal_pair():
    real, _ = _setup("A3", [0, 1, 2])
    # orthogonal nodes: the weight is 1, so the commutator itself vanishes
    rep = _locality(real, 0, 2, 2)
    assert rep.passed
    assert all(c.checked == 25 for c in rep.checks)


def test_locality_diagonal():
    real, _ = _setup("A2", [1, 0])
    assert _locality(real, 0, 0, 2).passed


def test_locality_special_type():
    real, _ = _setup("A1^(1)", [1, 0])
    for i in range(2):
        for j in range(2):
            assert _locality(real, i, j, 2).passed, (i, j)


def test_serre_family_p_usual():
    real, fam = _setup("A2", [0, 1])
    rep = Verifier(real).verify_family("DS", _one_pair(fam, 0, 1), 2)
    assert rep.passed


def test_serre_triality_weighted():
    real, fam = _setup("D4", [2, 1, 3, 0])
    v = Verifier(real)
    assert v.verify_family("DS", _one_pair(fam, 0, 1), 2).passed
    assert v.verify_family("DS", _one_pair(fam, 1, 0), 2).passed


def _as_checks(real, mode_bound):
    """The AS checks of a suite: the extra relation of A_1^(1), two vacuous
    checks on other matrices."""
    fam = polys.family_as(real.gcm, real.mu)
    if fam.entries:
        return Verifier(real).verify_family("AS", fam, mode_bound).checks
    suite = Verifier(real).run_suite(family_p(real.gcm, real.mu), mode_bound)
    return [c for c in suite.checks if c.kind.startswith("AS")]


def test_AS_vacuous_and_special():
    real, _ = _setup("A2", [1, 0])
    checks = _as_checks(real, 2)
    assert [c.kind for c in checks] == ["ASplus", "ASminus"]
    assert all(c.passed and c.grid == "vacuous" for c in checks)
    real2, _ = _setup("A1^(1)", [1, 0])
    checks2 = _as_checks(real2, 2)
    assert checks2 and all(c.passed and c.grid != "vacuous" for c in checks2)
    real3, _ = _setup("A1^(1)", [0, 1])
    assert all(c.passed for c in _as_checks(real3, 2))


def test_thm1_requires_finite():
    real, _ = _setup("A2^(1)", [0, 2, 1])
    with pytest.raises(ScopeViolation):
        Verifier(real).verify_family("THM1_DS", family_split(real.gcm, real.mu), 2)


def test_thm1_cases_a3_flip():
    real, _ = _setup("A3", [2, 1, 0], 3)
    rep = Verifier(real).verify_family("THM1_DS", family_split(real.gcm, real.mu), 3)
    assert rep.passed
    assert {c.pair for c in rep.checks} == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_cartan_relation_failure_residual(monkeypatch):
    """A wrong eps_1 changes the central terms that the H and XX relations
    of the pairs (i, 1) expect, and eps_2 = eps_(mu 1) no longer equals
    it, so node 2 leaves the classes of node 1 and every pair reads its
    own eps_j, as alone: each residual is a multiple of K1 alone.  (0, 1)
    passes: at modes 1 its phase sum a_01 + xi_2^m a_02 vanishes where
    m + n = 0, m != 0, and 0 is in no orbit with 1, so XX expects no K1."""
    real = cached_realization("A2a-flip")
    assert Verifier(real).verify_cartan_relations(1).passed
    monkeypatch.setattr(real, "eps", (real.eps[0], 2 * real.eps[1], *real.eps[2:]))
    failed = [c for c in Verifier(real).verify_cartan_relations(1).checks if not c.passed]
    assert {(c.kind, c.pair) for c in failed} == {
        ("H", (1, 1)),
        ("XX", (1, 1)),
        ("H", (2, 1)),
        ("XX", (2, 1)),
    }
    assert all(set(residual) == {("K1",)} for c in failed for _, residual in c.failures)


def _family_on(fam, terms):
    """A family on the pairs of `fam`, with the polynomial {exps: coeff} of
    terms(i, j, sigma) in each slot sigma."""
    out = SerreFamily("plain")
    for (i, j), sigmas in fam.entries.items():
        variables = next(iter(sigmas.values())).vars
        out.entries[(i, j)] = {s: LPoly(variables, terms(i, j, s)) for s in sigmas}
    return out


def _plain_family(fam, coeff, degree=0):
    """coeff * z1^degree in the identity slot of every pair, and 0
    elsewhere: a relation of total degree `degree` that fails."""
    return _family_on(
        fam, lambda i, j, s: {(degree,) + (0,) * len(s): coeff} if s == (0, 1) else {}
    )


def test_p1_window_certificate_failure_payload():
    real, fam = _setup("A2^(1)", [0, 2, 1])
    rep = Verifier(real).verify_P1_at_window(_plain_family(fam, 1), 2)
    assert not rep.passed
    bad = [c for c in rep.checks if not c.passed]
    assert bad
    modes, residual = bad[0].failures[0]
    assert residual
    payload = serialize_elem(residual)
    assert payload and all("coeff" in item for item in payload)
    # a coefficient of order 5, foreign to the field Q(xi_2) of the
    # realization: the residual is xi_5 times the one above, in Q(xi_10)
    xi5 = cyc_root(5, 1)
    rep5 = Verifier(real).verify_P1_at_window(_plain_family(fam, xi5), 2)
    bad5 = [c for c in rep5.checks if not c.passed]
    assert [(c.kind, c.pair, c.failure_count) for c in bad5] == [
        (c.kind, c.pair, c.failure_count) for c in bad
    ]
    modes5, residual5 = bad5[0].failures[0]
    assert modes5 == modes
    assert residual5 == {k: c * xi5 for k, c in residual.items()}
    assert {item["coeff"]["order"] for item in serialize_elem(residual5)} == {10}


def test_report_json_shape():
    real, fam = _setup("A2", [1, 0])
    rep = Verifier(real).run_suite(fam, 1)
    data = rep.to_json()
    assert data["pass"] is True
    assert data["total"] == len(rep.checks)
    for chk in data["checks"]:
        assert {"relation", "pair", "modes", "pass", "checked"} <= set(chk)


def _suite_by_public_methods(real, fam, mode_bound, certificate):
    """run_suite written as the public all-pair methods, one after the other."""
    v = Verifier(real)
    report = v.verify_cartan_relations(mode_bound)
    report.extend(v.verify_family("X", family_locality(real.gcm, real.mu), mode_bound))
    extra = polys.family_as(real.gcm, real.mu)
    if extra.entries:
        report.extend(v.verify_family("AS", extra, mode_bound))
    else:  # the extra relation of A_1^(1) stands as two vacuous checks
        vacuous = [("ASplus", (), 0, "vacuous", 1), ("ASminus", (), 0, "vacuous", 1)]
        report.checks.extend(presentation.RelationCheck(*c) for c in vacuous)
    if certificate:
        report.extend(v.verify_P1_at_window(fam, mode_bound))
    else:
        report.extend(v.verify_family("DS", fam, mode_bound))
    return report


@pytest.mark.parametrize(
    "label, perm, fam_builder, certificate",
    [
        ("A1^(1)", [1, 0], family_p, False),
        ("A2^(1)", [1, 2, 0], family_p, False),
        ("A2", [1, 0], family_qlimit, True),
    ],
)
def test_run_suite_pair_by_pair_matches_public_methods(label, perm, fam_builder, certificate):
    real, fam = _setup(label, perm, 1, fam_builder)
    got = Verifier(real).run_suite(fam, 1, certificate=certificate)
    assert got.to_json() == _suite_by_public_methods(real, fam, 1, certificate).to_json()


def _count_kernel_calls(monkeypatch):
    """A list of the operands of every call of the bracket kernel
    `kernel._loop_bracket`, made through the name `realize` calls it by;
    holding them keeps their ids unique."""
    calls = []
    kernel = realize._loop_bracket

    def recording(alg, field, x, y):
        calls.append((x, y))
        return kernel(alg, field, x, y)

    monkeypatch.setattr(realize, "_loop_bracket", recording)
    return calls


def _both_signs(monkeypatch):
    """No image passes the image check of the derived sign, so that every
    relation evaluates both of its signs."""
    monkeypatch.setattr(Realization, "mirrors", lambda *args: False)


def test_run_suite_repeats_no_bracket(monkeypatch):
    """The locality, AS and Serre checks of a pair share their inner
    brackets, with sign -1 derived and with both signs evaluated (54 and 90
    kernel calls, the Cartan rows' included; the node rows make none)."""
    real, fam = _setup("A2^(1)", [1, 2, 0], 1)
    calls = _count_kernel_calls(monkeypatch)
    Verifier(real).run_suite(fam, 1)
    operands = [(id(a), id(b)) for a, b in calls]
    assert len(operands) == 54
    assert len(set(operands)) == len(operands)
    calls.clear()
    _both_signs(monkeypatch)
    Verifier(real).run_suite(fam, 1)
    operands = [(id(a), id(b)) for a, b in calls]
    assert len(operands) == 90
    assert len(set(operands)) == len(operands)


def test_run_suite_builds_no_locality_poly(monkeypatch):
    """suite_window has built every locality polynomial; run_suite reuses them."""
    real, fam = _setup("A2^(1)", [1, 2, 0], 1)
    factors = []
    linear_factor = polys.linear_factor

    def counting(*args):
        factors.append(args)
        return linear_factor(*args)

    monkeypatch.setattr(polys, "linear_factor", counting)
    Verifier(real).run_suite(fam, 1)
    assert factors == []


def test_out_of_window_recorded_as_gap():
    # the locality rows of (0, 1) at modes 2 once left the window (3, 2) and
    # were recorded as gaps.  Relation checks bracket with no window, so the
    # report at (3, 2) records none and equals the one at the suite window
    g = Gcm(canonical_matrix("A2"))
    mu = validate_aut(g, [1, 0])
    real = Realization(g, mu, m1_window=3, m2_window=2)
    rep = _locality(real, 0, 1, 2)
    assert not any(c.gaps for c in rep.checks)
    data = rep.to_json()
    assert not any("out_of_window" in c for c in data["checks"])
    m1w, m2w = suite_window(g, mu, family_p(g, mu), 2)
    wide = Realization(g, mu, m1_window=m1w, m2_window=m2w)
    assert _locality(wide, 0, 1, 2).to_json() == data


def test_window_enlargement_stability():
    # a pass never becomes a failure with a larger window.  The relations
    # are bracketed with no window, so the report is the same at any
    # window, and has no gap
    g = Gcm(canonical_matrix("A2"))
    mu = validate_aut(g, [1, 0])
    fam = family_p(g, mu)
    small = suite_window(g, mu, fam, 2)
    reports = set()
    for extra in (0, 4, 9):
        real = Realization(g, mu, m1_window=small[0] + extra, m2_window=small[1] + extra)
        report = Verifier(real).run_suite(fam, 2)
        assert report.passed
        data = json.dumps(report.to_json(), sort_keys=True)
        assert '"out_of_window"' not in data
        reports.add(data)
    assert len(reports) == 1


def test_qlimit_suite_small():
    real, fam = _setup("A2", [1, 0], 2, family_qlimit)
    rep = Verifier(real).verify_P1_at_window(fam, 2)
    assert rep.passed
    assert all(c.kind.startswith("P1") for c in rep.checks)


@pytest.mark.parametrize(
    "label,perm,modes",
    [
        ("A2^(2)", [0, 1], 2),
        ("D4^(3)", [0, 1, 2], 1),
        ("D3^(2)", [2, 1, 0], 2),  # flip of a twisted chain: N=2 on an r=2 core
    ],
)
def test_twisted_loop_cores_full_suite(label, perm, modes):
    real, fam = _setup(label, perm, modes)
    rep = Verifier(real).run_suite(fam, modes)
    assert rep.passed, [(c.kind, c.pair) for c in rep.checks if not c.passed][:2]


# -- one class of pairs at a time -------------------------------------------------


def _least_nodes(real) -> set:
    """The least node of each mu-orbit."""
    mu = real.mu
    return {min(mu.apply(i, k) for k in range(mu.order)) for i in range(real.gcm.n)}


def _least_pairs(real, pairs) -> int:
    """How many of `pairs` join two least nodes of their mu-orbits.  Each
    pair evaluated alone (`_alone`) derives sign -1 only there, since
    `Verifier._audit` makes the image check on the least nodes."""
    least = _least_nodes(real)
    return sum(1 for i, j in pairs if i in least and j in least)


def _alone(mu, n, apart):
    """Every ordered pair its own class: nothing is shared."""
    return [[(i, j, (0, 0))] for i in range(n) for j in range(n)]


def _shared_and_alone(monkeypatch, run):
    """The JSON of `run()` with the pair classes, then with every pair alone."""
    shared = json.dumps(run().to_json(), sort_keys=True)
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_pair_classes", _alone)
        alone = json.dumps(run().to_json(), sort_keys=True)
    return shared, alone


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_classes_match_pairs_alone_family_p(monkeypatch, name):
    real, fam = cached_realization(name), cached_family(name)
    for modes in (0, 1):
        for run in (
            lambda: Verifier(real).run_suite(fam, modes),
            lambda: Verifier(real).verify_family("DS", fam, modes),
        ):
            shared, alone = _shared_and_alone(monkeypatch, run)
            assert shared == alone
    # run_suite holds the Cartan checks at modes 0 and 1
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_cartan_relations(2)
    )
    assert shared == alone


def test_classes_match_pairs_alone_qlimit(monkeypatch):
    real = cached_realization("D4a-triality")
    fam = family_qlimit(real.gcm, real.mu)
    for run in (
        lambda: Verifier(real).run_suite(fam, 1, certificate=True),
        lambda: Verifier(real).verify_family("P1", fam, 1),
    ):
        shared, alone = _shared_and_alone(monkeypatch, run)
        assert shared == alone


@pytest.mark.parametrize("name", ["A2a-flip", "A2a-rot", "A3a-rot"])
def test_classes_match_pairs_alone_negative_control(monkeypatch, name):
    # the criterion-9 plain family fails with the same residuals, and so
    # does its z1-weighted form, of total degree 1: a shifted pair's
    # residuals carry the phase xi_N^(a (sum(out) + 1))
    real, fam = cached_realization(name), cached_family(name)
    for plain in (_plain_family(fam, 1), _plain_family(fam, 1, degree=1)):
        for run in (
            lambda: Verifier(real).run_suite(plain, 1, certificate=True),
            lambda: Verifier(real).verify_family("P1", plain, 1),
        ):
            shared, alone = _shared_and_alone(monkeypatch, run)
            assert shared == alone
            assert '"failures"' in shared


@pytest.mark.parametrize("name", ["A3a-rot", "A4a-rot"])
def test_classes_match_pairs_alone_through_window_gaps(monkeypatch, name):
    # at the window (4, 3) the brackets of modes 2 would leave the window;
    # the relations are bracketed with no window, so the report has no gap
    # and is the one at the suite window, and a shifted pair's checks are
    # its own
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, m1_window=4, m2_window=3)
    fam = cached_family(name)
    shared, alone = _shared_and_alone(monkeypatch, lambda: Verifier(real).run_suite(fam, 2))
    assert shared == alone
    assert '"out_of_window"' not in shared
    assert shared == json.dumps(
        Verifier(cached_realization(name)).run_suite(fam, 2).to_json(), sort_keys=True
    )
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_cartan_relations(2)
    )
    assert shared == alone


def _corrupt(monkeypatch, real, tamper, node):
    """One input of `real` corrupted, undone with `monkeypatch`: eps_node
    doubled, or one loop coefficient of the image theta(pick, node, m)
    doubled, for `tamper` = "eps" or (pick, m)."""
    if tamper == "eps":
        eps = list(real.eps)
        eps[node] *= 2
        monkeypatch.setattr(real, "eps", tuple(eps))
        return
    theta = real._theta(*tamper[:1], node, *tamper[1:])
    key = min(k for k in theta if k[0] == "L")
    doubled = {k: c + c if k == key else c for k, c in theta.items()}
    monkeypatch.setitem(real._theta_cache, (tamper[0], node, tamper[1]), doubled)


@pytest.mark.parametrize(
    "where, tamper",
    [
        ("least", (0, 1)),  # theta_x(i0, 1, +1)
        ("least", "eps"),
        ("shifted", (0, 2)),  # theta_x(mu i0, 2, +1), off the node checks at modes 1
        ("shifted", (1, 2)),  # theta_x(mu i0, 2, -1)
        ("shifted", (2, 2)),  # theta_h(mu i0, 2)
        ("shifted", "eps"),
    ],
    ids=["least-x+1", "least-eps", "shifted-x+2", "shifted-x-2", "shifted-h2", "shifted-eps"],
)
@pytest.mark.parametrize("name", ["A2a-rot", "A3a-rot", "E6-flip", "D4a-triality"])
def test_classes_match_pairs_alone_under_one_corrupted_input(monkeypatch, name, where, tamper):
    # one image or eps corrupted at the least node i0 of the first orbit with
    # two nodes, or at mu i0: a node joins the classes of its orbit's least
    # node only if every image its rows read, and its eps, is the least
    # node's times the phase, so each report is that of every pair alone
    real, fam = cached_realization(name), cached_family(name)
    i0 = min(i for i in range(real.gcm.n) if real.mu.apply(i) != i)
    _corrupt(monkeypatch, real, tamper, i0 if where == "least" else real.mu.apply(i0))
    for run in (
        lambda: Verifier(real).verify_cartan_relations(2),
        lambda: Verifier(real).run_suite(fam, 1),
    ):
        shared, alone = _shared_and_alone(monkeypatch, run)
        assert shared == alone
        assert '"pass": false' in shared
    # a corrupted mu i0 leaves the classes of i0; a corrupted i0 leaves
    # every other node of its orbit apart
    orbit = {real.mu.apply(i0, a) for a in range(real.mu.order)}
    apart = {real.mu.apply(i0)} if where == "shifted" else orbit - {i0}
    assert Verifier(real)._audit(1, range(0)).apart == apart


def _failures(report) -> dict:
    """(relation, pair) -> the modes of the recorded failures, for every
    failed check of `report`."""
    return {
        (c.kind, c.pair): [modes for modes, _ in c.failures]
        for c in report.checks
        if not c.passed
    }


def _double_one_coefficient(real, pick, node, m, key):
    """Corrupt the cached image theta(pick, node, m): its coefficient at
    `key` doubled."""
    theta = real._theta(pick, node, m)
    real._theta_cache[(pick, node, m)] = {k: c + c if k == key else c for k, c in theta.items()}


def test_node_checks_catch_a_tampered_theta_x():
    # theta_x(1, 1, +1) tampered on A2a-rot: the Xperiod checks of node 0
    # (theta_x(mu 0, 1) against xi_3 theta_x(0, 1)) and of node 1
    # (theta_x(mu 1, 1) against xi_3 theta_x(1, 1)) fail at that mode
    real, fam = _setup("A2^(1)", [1, 2, 0], 1)
    _double_one_coefficient(real, 0, 1, 1, min(real.theta_x(1, 1, +1)))
    report = Verifier(real).run_suite(fam, 1)
    assert not report.passed
    failed = _failures(report)
    assert failed[("Xperiod", (0,))] == failed[("Xperiod", (1,))] == [(1, +1)]


def _count_sums(monkeypatch):
    """A list that grows by one at every relation sum (`lin_comb`) that
    presentation makes."""
    sums = []
    lin_comb = presentation.lin_comb

    def counting(*args):
        sums.append(None)
        return lin_comb(*args)

    monkeypatch.setattr(presentation, "lin_comb", counting)
    return sums


def test_run_suite_sums_once_per_class(monkeypatch):
    """On A5a-rot the 36 ordered pairs fall into one class, and the
    locality, family-p and Cartan relations of every pair are moved to
    (0, 0): one sum per distinct moved relation, grid point and sign.  The
    locality relations move to two relations of one z-slot (9 output modes
    per sign) and family p to one of two (27), so the weighted relations
    make 2 * 18 + 54 sums and the H, HX and XX checks 4 * 9; every pair
    alone makes 36 times 36 of the last and 1296 weighted sums.  The 54
    rows of the H and Xperiod checks of the 6 nodes are zero by the audit
    and summed in no run.  Sign -1 of each weighted relation and HXminus
    are derived from sign +1 and HXplus where the least pair of a class
    joins two least nodes of their orbits, not summed: that halves the
    weighted sums of a class and takes one of its four pair sums."""
    real, fam = cached_realization("A5a-rot"), cached_family("A5a-rot")
    sums = _count_sums(monkeypatch)
    Verifier(real).run_suite(fam, 1)
    assert len(sums) == 18 + 27 + 3 * 9
    sums.clear()
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_pair_classes", _alone)
        Verifier(real).run_suite(fam, 1)
    # alone, only (0, 0) joins two least nodes, whose images are checked
    assert len(sums) == 1296 - 9 + 36 * 36 - 9
    sums.clear()
    _both_signs(monkeypatch)
    Verifier(real).run_suite(fam, 1)
    assert len(sums) == 2 * 18 + 54 + 4 * 9


# families whose pairs transport to relations on the class representative
# (`Verifier._transport`) that are not all alike: each term c z^e of the
# pair (mu^a i0, mu^b j0) becomes c xi_N^(a (sum(e_z) - Dz) + b (e_w - Dw)),
# (Dz, Dw) the z- and w-degree of a least-degree term
_NOT_SHIFTS = {
    # the coefficient 1 + 10 i + j differs on every pair
    "polys differ": lambda i, j, s: {(0, 0, 0): 1 + 10 * i + j},
    # z1 in one slot and 1 in the other: each homogeneous, of degrees 1 and 0,
    # so z1 becomes xi_N^a z1, and the pairs of a class with one a share
    "slot degrees differ": lambda i, j, s: {(1, 0, 0) if s == (0, 1) else (0, 0, 0): 1},
}

# the relations summed in the shared run, where they are not every pair's:
# A2a-flip's classes of (0, 1), (1, 0) and (1, 1) hold the pairs with a =
# 0; 0, 1; 0, 1, and each rotation is one class of every a mod N
_SHARED_SUMS = {
    ("A2a-flip", "slot degrees differ"): 1 + 2 + 2,
    ("A2a-rot", "slot degrees differ"): 3,
    ("A3a-rot", "slot degrees differ"): 4,
}


@pytest.mark.parametrize("why", sorted(_NOT_SHIFTS))
@pytest.mark.parametrize("name", ["A2a-flip", "A2a-rot", "A3a-rot"])
def test_classes_sum_each_pair_whose_relation_is_no_shift(monkeypatch, name, why):
    real = cached_realization(name)
    fam = _family_on(cached_family(name), _NOT_SHIFTS[why])
    sums = _count_sums(monkeypatch)
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_family("P1", fam, 1)
    )
    assert shared == alone
    assert '"failures"' in shared
    # each distinct moved relation, then every pair alone, summed at each of
    # the 27 output modes, for sign +1 and, alone, for sign -1 wherever it
    # is not derived
    summed = _SHARED_SUMS.get((name, why), len(fam.entries))
    alone = 2 * len(fam.entries) - _least_pairs(real, fam.entries)
    assert len(sums) == (summed + alone) * 27


@pytest.mark.parametrize("name", ["A2a-flip", "A2a-rot", "A3a-rot"])
def test_classes_derive_a_relation_whose_coefficient_orders_mix(monkeypatch, name):
    # 1 in one slot and xi_5, foreign to every catalog field, in the other:
    # every pair sums in Q(xi_F), F = lcm(L, 5), so a shifted pair reads its
    # residuals from its class representative's, in that field too
    real = cached_realization(name)
    fam = _family_on(
        cached_family(name), lambda i, j, s: {(0, 0, 0): 1 if s == (0, 1) else cyc_root(5, 1)}
    )
    sums = _count_sums(monkeypatch)
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_family("P1", fam, 1)
    )
    assert shared == alone
    report = json.loads(shared)
    orders = {
        item["coeff"]["order"]
        for chk in report["checks"]
        for failure in chk.get("failures", [])
        for item in failure["residual"]
    }
    assert orders == {lcm(real.field, 5)}
    # the shared run sums one relation per class that holds a pair of the
    # family (every pair's moves alike, being of degree 0), the run alone
    # every pair, at each of the 27 output modes, for sign +1 and, alone,
    # for sign -1 wherever it is not derived
    classes = presentation._pair_classes(real.mu, real.gcm.n, ())
    reps = sum(1 for cls in classes if any(t[:2] in fam.entries for t in cls))
    assert reps < len(fam.entries)
    alone = 2 * len(fam.entries) - _least_pairs(real, fam.entries)
    assert len(sums) == (reps + alone) * 27


def test_transported_relations_keep_each_pairs_field(monkeypatch):
    # the coefficient 1 in the identity slot of every pair of A2a-rot, stored
    # in Q(xi_5) except on the least pair: equal values, but the shifted
    # pairs of the least pair's class sum in Q(xi_15), so they share no
    # evaluation with it, and each pair prints as it does alone
    real, fam = cached_realization("A2a-rot"), cached_family("A2a-rot")
    least = min(fam.entries)
    fam = _plain_family(fam, CycNum.one(5))
    fam.entries[least] = _plain_family(cached_family("A2a-rot"), 1).entries[least]
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_family("P1", fam, 1)
    )
    assert shared == alone
    orders = {
        item["coeff"]["order"]
        for chk in json.loads(shared)["checks"]
        for failure in chk.get("failures", [])
        for item in failure["residual"]
    }
    assert orders == {real.field, lcm(real.field, 5)}


def test_shifted_pairs_that_transport_alike_are_summed_once(monkeypatch):
    # z1 in one slot and z1 z2 w in the other, of degrees 1 and 3, on every
    # pair (i + 1, i) = (mu^(i + 1) 0, mu^i 0) of A3a-rot (N = 4), one
    # class.  Moved to (0, 0), with (Dz, Dw) = (1, 0) from z1, the pair keeps
    # z1 and scales z1 z2 w by xi_4^((i + 1) (2 - 1) + i (1 - 0)) =
    # xi_4^(2 i + 1): i = 0 and 2 share xi_4, i = 1 and 3 share xi_4^3, so
    # two relations are summed for the four pairs
    real = cached_realization("A3a-rot")
    variables = ("z1", "z2", "w")
    fam = SerreFamily("degrees")
    for i in range(4):
        fam.entries[((i + 1) % 4, i)] = {
            (0, 1): LPoly(variables, {(1, 0, 0): 1}),
            (1, 0): LPoly(variables, {(1, 1, 1): 1}),
        }
    classes = presentation._pair_classes(real.mu, real.gcm.n, ())
    assert classes == [[(i, j, (i, j)) for i in range(4) for j in range(4)]]
    sums = _count_sums(monkeypatch)
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_family("P1", fam, 1)
    )
    assert shared == alone
    assert '"failures"' in shared
    # the shared run sums two relations at each of the 27 output modes, for
    # sign +1, and the run alone the four pairs, for both signs: no pair
    # joins two least nodes
    assert _least_pairs(real, fam.entries) == 0
    assert len(sums) == (2 + 2 * 4) * 27


def test_pair_classes_rotation():
    # A2a-rot is i -> i + 1, so (i, j) = (mu^i 0, mu^j 0): one class
    real = cached_realization("A2a-rot")
    classes = presentation._pair_classes(real.mu, real.gcm.n, ())
    assert classes == [[(i, j, (i, j)) for i in range(3) for j in range(3)]]
    # a node apart is its own least node: (1, j) leaves the class of (0, j)
    classes = presentation._pair_classes(real.mu, real.gcm.n, {1})
    assert classes == [
        [(0, 0, (0, 0)), (0, 2, (0, 2)), (2, 0, (2, 0)), (2, 2, (2, 2))],
        [(0, 1, (0, 0)), (2, 1, (2, 0))],
        [(1, 0, (0, 0)), (1, 2, (0, 2))],
        [(1, 1, (0, 0))],
    ]
    # one class on every rotation, one class per pair on every identity twist
    for e in builtin_entries():
        n = e.gcm.n
        classes = presentation._pair_classes(e.mu, n, ())
        if len(perm_orbits(e.mu.perm)) == 1:
            assert len(classes) == 1 and len(classes[0]) == n * n, e.name
        if e.mu.order == 1:
            assert classes == [[(i, j, (0, 0))] for i in range(n) for j in range(n)], e.name


def test_node_checks_catch_a_tampered_theta_h():
    # theta_h(mu 0, 1) tampered on A2a-rot: the H checks of node 0 and of
    # node mu 0 fail at that mode
    real, _ = _setup("A2^(1)", [1, 2, 0], 1)
    node = real.mu.apply(0, 1)
    theta = real.theta_h(node, 1)
    first = min(k for k in theta if k[0] == "L")  # a K2 term brackets to 0
    _double_one_coefficient(real, 2, node, 1, first)
    report = Verifier(real).verify_cartan_relations(1)
    assert not report.passed
    failed = _failures(report)
    assert failed[("H", (0,))] == failed[("H", (node,))] == [(1,)]


def test_cartan_classes_fail_under_a_non_invariant_eps(monkeypatch):
    # the eps tamper of test_cartan_relation_failure_residual on A3a-rot: a
    # wrong eps_1 is not mu-invariant, as no true symmetrizer can be.  Node 1
    # leaves the class of node 0, and the report fails as alone: H and XX of
    # every pair (i, 1), which read eps_1, expect a wrong central term, so
    # every residual is a multiple of K1 alone
    real = cached_realization("A3a-rot")
    monkeypatch.setattr(real, "eps", (real.eps[0], 2 * real.eps[1], *real.eps[2:]))
    report = Verifier(real).verify_cartan_relations(1)
    assert not report.passed
    failing = {(i, 1) for i in range(4)}
    assert set(_failures(report)) == {(kind, pair) for kind in ("H", "XX") for pair in failing}
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_cartan_relations(1)
    )
    assert shared == alone
    failed = [c for c in report.checks if not c.passed]
    assert all(set(residual) == {("K1",)} for c in failed for _, residual in c.failures)


def test_cartan_relations_bracket_once_per_class(monkeypatch):
    """On A5a-rot the 36 ordered pairs fall into one class: the pair checks
    bracket each of their 4 shapes once per (m, nn), or 3 where HXminus is
    derived from HXplus, and the node checks bracket nothing."""
    real = cached_realization("A5a-rot")
    calls = _count_kernel_calls(monkeypatch)
    for shapes in (3, 4):
        if shapes == 4:
            _both_signs(monkeypatch)
        calls.clear()
        Verifier(real).verify_cartan_relations(1)
        assert len(calls) == shapes * 1 * 9
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(presentation, "_pair_classes", _alone)
            Verifier(real).verify_cartan_relations(1)
        # alone, only (0, 0) joins two least nodes, whose images are checked
        assert len(calls) == shapes * 9 + 4 * 35 * 9


def _count_cartan_pairs(monkeypatch):
    """A list of the pairs whose Cartan checks are evaluated, not derived."""
    pairs = []
    cartan_pair = Verifier._cartan_pair

    def recording(self, i, j, *args):
        pairs.append((i, j))
        return cartan_pair(self, i, j, *args)

    monkeypatch.setattr(Verifier, "_cartan_pair", recording)
    return pairs


def _orbit_scaled_eps(real):
    """eps with each node's value times 2 + the least node of its mu-orbit:
    one factor per orbit, so the tamper is mu-invariant."""
    mu = real.mu
    return tuple(
        (2 + min(mu.apply(i, k) for k in range(mu.order))) * e for i, e in enumerate(real.eps)
    )


def _double_the_kernel(monkeypatch):
    """Every bracket times 2: the accumulate step of the bracket kernel,
    `kernel._loop_bracket` through the name `realize` calls it by, doubles
    its loop and central parts, so a direct bracket and one placed from an
    accumulation are both doubled.  Bilinear and mu-equivariant like the
    true bracket, so every derivation test still holds, and a Cartan check
    of brackets at modes (m, n) leaves the true bracket as its residual, at
    m + n != 0 too."""
    kernel = realize._loop_bracket

    def doubled(*args):
        loop, central, order, den = kernel(*args)
        central = {
            degs: 2 * v if type(v) is int else [2 * x for x in v] for degs, v in central.items()
        }
        return {k: c + c for k, c in loop.items()}, central, order, den

    monkeypatch.setattr(realize, "_loop_bracket", doubled)


@pytest.mark.parametrize("tamper", ["eps", "brackets"])
@pytest.mark.parametrize("name", ["A2a-flip", "A2a-rot", "A3a-rot", "A5a-rot"])
def test_cartan_classes_derive_the_residuals_of_shifted_pairs(monkeypatch, name, tamper):
    # either tamper makes every pair fail at modes 2, and the shifted pairs
    # still take their checks from their representative's, each residual
    # times xi_N^(a (m + n)); the eps tamper leaves residuals at m + n = 0
    # only, the doubled brackets at other m + n as well
    real = cached_realization(name)
    if tamper == "eps":
        monkeypatch.setattr(real, "eps", _orbit_scaled_eps(real))
    else:
        _double_the_kernel(monkeypatch)
    evaluated = _count_cartan_pairs(monkeypatch)
    shared, alone = _shared_and_alone(
        monkeypatch, lambda: Verifier(real).verify_cartan_relations(2)
    )
    assert shared == alone
    classes = presentation._pair_classes(real.mu, real.gcm.n, ())
    assert evaluated[: len(classes)] == [cls[0][:2] for cls in classes]
    assert len(evaluated) == len(classes) + real.gcm.n**2
    pair_checks = [c for c in json.loads(shared)["checks"] if len(c["pair"]) == 2]
    failed = {tuple(c["pair"]) for c in pair_checks if not c["pass"]}
    assert failed == {tuple(c["pair"]) for c in pair_checks}
    if tamper == "brackets":
        assert any(sum(f["modes"]) for c in pair_checks for f in c.get("failures", []))


def _cartan_oracle(real, kind, pair, modes):
    """got - want of the Cartan check `kind` of `pair` at `modes`, formed
    with vec_add from real.bracket and the images real.theta_*."""
    mu, big_n, k1 = real.mu, real.n_order, real.theta_c()
    want = {}
    if len(pair) == 1:  # the H and Xperiod checks of a node
        (i,), (m, *sign) = pair, modes
        image = real.theta_h if kind == "H" else real.theta_x
        got = dict(image(mu.perm[i], m, *sign))
        vec_add(want, image(i, m, *sign), cyc_root(big_n, m))
    else:
        (i, j), (m, n) = pair, modes
        phases = sum(
            (cyc_root(big_n, k * m) * real.gcm.entries[i][mu.apply(j, k)] for k in range(big_n)),
            CycNum.zero(),
        )
        central = Fraction(m * big_n) / real.eps[j]
        if kind == "H":
            got = real.bracket(real.theta_h(i, m), real.theta_h(j, n))
            if m + n == 0:
                vec_add(want, k1, phases * central)
        elif kind == "XX":
            got = real.bracket(real.theta_x(i, m, +1), real.theta_x(j, n, -1))
            for k in range(big_n):
                if mu.apply(j, k) == i:
                    vec_add(want, real.theta_h(j, m + n), cyc_root(big_n, k * m))
                    if m + n == 0:
                        vec_add(want, k1, cyc_root(big_n, k * m) * central)
        else:
            sign = +1 if kind == "HXplus" else -1
            got = real.bracket(real.theta_h(i, m), real.theta_x(j, n, sign))
            vec_add(want, real.theta_x(j, m + n, sign), phases * sign)
    residual = dict(got)
    vec_add(residual, want, CycNum.from_rational(-1))
    return residual


def _match_the_oracle(real, checks) -> int:
    """Assert that every recorded residual of `checks` prints as its
    `_cartan_oracle`; the number of residuals."""
    recorded = [(c.kind, c.pair, modes, r) for c in checks for modes, r in c.failures]
    for kind, pair, modes, residual in recorded:
        oracle = _cartan_oracle(real, kind, pair, modes)
        assert serialize_elem(residual) == serialize_elem(oracle), (kind, pair, modes)
    return len(recorded)


@pytest.mark.parametrize("name", ["A2a-flip", "D4a-triality", "A5a-rot"])
def test_cartan_residuals_match_an_oracle(monkeypatch, name):
    # fields of order 2, 3 and 6.  With real.bracket doubled the pair checks
    # fail where a bracket is nonzero, and each recorded residual, the
    # derived ones included, prints as got - want summed term by term (the
    # node checks bracket nothing and pass); with one coefficient of
    # theta_x(1, 1, +1) doubled instead, so do the residuals of the node
    # checks that fail (the pair checks that read that image fail too, but a
    # tampered image breaks the shift identity their derivation rests on)
    real = cached_realization(name)
    recorded = 0
    with monkeypatch.context() as patch:
        theta = real.theta_x(1, 1, +1)
        key = min(theta)
        patch.setitem(
            real._theta_cache, (0, 1, 1), {k: c + c if k == key else c for k, c in theta.items()}
        )
        checks = Verifier(real).verify_cartan_relations(2).checks
        nodes = [c for c in checks if len(c.pair) == 1 and not c.passed]
        assert {(c.kind, c.pair) for c in nodes} == {
            ("Xperiod", (1,)),
            ("Xperiod", (real.mu.perm.index(1),)),
        }
        recorded += _match_the_oracle(real, nodes)
    _double_the_kernel(monkeypatch)
    checks = Verifier(real).verify_cartan_relations(2).checks
    assert all(c.passed for c in checks if len(c.pair) == 1)
    recorded += _match_the_oracle(real, checks)
    assert recorded > 4 * real.gcm.n**2


def _tamper_node_images(patch, real, tamper) -> bool:
    """One input that the node checks read corrupted, undone with `patch`;
    False where `real` has no such input.  i0 is the least node of the
    first mu-orbit with two nodes, else node 0:
    * "least-x", "least-h": one coefficient of theta_x(i0, m, +1) or
      theta_h(i0, m) doubled, m = 1, or 0 where that image is zero;
    * "shifted-x": one of theta_x(mu i0, 1, -1) doubled;
    * "fixed-h": theta_h(i, 1) of the least fixed node i given the terms of
      theta_h(i, 0) moved to t1-degree 1, on a flip, so that the node row
      (1 - xi_2) theta_h(i, 1) is nonzero;
    * "shifted-eps": eps of mu i0 doubled."""
    mu = real.mu
    moved = [i for i in range(real.gcm.n) if mu.apply(i) != i]
    i0 = min(moved, default=0)
    if tamper in ("least-x", "least-h"):
        pick = 0 if tamper == "least-x" else 2
        _corrupt(patch, real, (pick, 1 if real._theta(pick, i0, 1) else 0), i0)
    elif tamper == "fixed-h":
        fixed = [i for i in range(real.gcm.n) if mu.apply(i) == i]
        if real.n_order != 2 or not fixed:
            return False
        terms = {("L", 1) + k[2:]: c for k, c in real.theta_h(fixed[0], 0).items() if k[0] == "L"}
        patch.setitem(real._theta_cache, (2, fixed[0], 1), terms)
    elif not moved:
        return False
    else:
        _corrupt(patch, real, (1, 1) if tamper == "shifted-x" else "eps", mu.apply(i0))
    return True


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize(
    "tamper", ["true", "least-x", "least-h", "shifted-x", "fixed-h", "shifted-eps"]
)
def test_node_rows_match_the_oracle_both_ways(monkeypatch, tamper, modes):
    # the H and Xperiod rows of every node of every catalog entry, true or
    # under one tampered input (`_tamper_node_images`), with every failure
    # recorded: a row fails exactly where `_cartan_oracle` reads nonzero,
    # with the oracle's residual, whether the audit shows it zero or it is
    # summed.  The "fixed-h" tamper reaches the five flips with a fixed node
    # (A3-flip, A5-flip, D4-flip, E6-flip and A2a-flip)
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    failed = 0
    for e in builtin_entries():
        real = cached_realization(e.name)
        with monkeypatch.context() as patch:
            if not _tamper_node_images(patch, real, tamper):
                continue
            checks = Verifier(real).verify_cartan_relations(modes).checks
            for chk in (c for c in checks if len(c.pair) == 1):
                signs = [()] if chk.kind == "H" else [(+1,), (-1,)]
                rows = [(m, *s) for m in range(-modes, modes + 1) for s in signs]
                oracle = {r: _cartan_oracle(real, chk.kind, chk.pair, r) for r in rows}
                want = {r: serialize_elem(v) for r, v in oracle.items() if v}
                got = {r: serialize_elem(v) for r, v in chk.failures}
                assert got == want, (e.name, chk.kind, chk.pair)
                assert chk.checked == len(rows) and chk.failure_count == len(want)
                failed += len(want)
    assert (failed > 0) == (tamper not in ("true", "shifted-eps"))


@pytest.mark.parametrize("modes", [1, 2])
def test_node_rows_of_true_images_sum_nothing(monkeypatch, modes):
    # with true images the audit shows every node row zero on every catalog
    # entry: the node checks count their rows and pass, with no relation
    # sum and no kernel call (the pair checks are left out here)
    monkeypatch.setattr(Verifier, "_cartan_pair", lambda *args: [])
    sums = _count_sums(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    for e in builtin_entries():
        report = Verifier(cached_realization(e.name)).verify_cartan_relations(modes)
        assert report.passed
        assert [c.checked for c in report.checks] == [2 * modes + 1, 2 * (2 * modes + 1)] * e.gcm.n
    assert sums == calls == []


def test_cartan_relations_check_once_per_class(monkeypatch):
    """On A5a-rot the Cartan checks of 1 of the 36 ordered pairs are
    evaluated, the one class's least pair; with the eps tamper of
    test_cartan_classes_fail_under_a_non_invariant_eps node 1 is its own
    least node, so the least pairs of 4 classes: (0, 0), (0, 1), (1, 0) and
    (1, 1)."""
    real = cached_realization("A5a-rot")
    evaluated = _count_cartan_pairs(monkeypatch)
    Verifier(real).verify_cartan_relations(1)
    assert evaluated == [(0, 0)]
    evaluated.clear()
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_pair_classes", _alone)
        Verifier(real).verify_cartan_relations(1)
    assert len(evaluated) == 36
    evaluated.clear()
    monkeypatch.setattr(real, "eps", (real.eps[0], 2 * real.eps[1], *real.eps[2:]))
    report = Verifier(real).verify_cartan_relations(1)
    assert not report.passed
    assert evaluated == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("sign", [0, +1, -1])
def test_cartan_classes_catch_a_tampered_expected_value(sign):
    # theta_x(mu 0, 2, sign) (theta_h for sign 0) tampered on A2a-rot: at
    # modes 1 no operand and no node check has mode 2, but the expected HX
    # (XX for sign 0) value of every pair (i, mu 0) at m + n = 2 reads it.
    # The Cartan rows read images up to mode 2, so mu 0 leaves the class of
    # node 0, and each pair (i, mu 0) fails that check there, as alone
    real, _ = _setup("A2^(1)", [1, 2, 0], 1)
    node = real.mu.apply(0, 1)
    pick = {+1: 0, -1: 1, 0: 2}[sign]
    _double_one_coefficient(real, pick, node, 2, min(real._theta(pick, node, 2)))
    report = Verifier(real).verify_cartan_relations(1)
    assert not report.passed
    relation = {+1: "HXplus", -1: "HXminus", 0: "XX"}[sign]
    failed = _failures(report)
    assert set(failed) == {(relation, (i, node)) for i in range(3)}
    assert {sum(modes) for modes_list in failed.values() for modes in modes_list} == {2}


def test_derived_checks_own_their_lists(monkeypatch):
    """No two checks share a failures list or a residual, the derived
    weighted and Cartan checks included."""
    real, fam = cached_realization("A2a-rot"), cached_family("A2a-rot")
    monkeypatch.setattr(real, "eps", _orbit_scaled_eps(real))
    v = Verifier(real)
    checks = v.verify_cartan_relations(2).checks
    checks += v.verify_family("P1", _plain_family(fam, 1), 1).checks
    residuals = [r for c in checks for _, r in c.failures]
    assert len(residuals) > len(checks)
    assert len({id(c.failures) for c in checks}) == len(checks)
    assert len({id(r) for r in residuals}) == len(residuals)


# -- one kernel call per residue class of nested modes --------------------------


def _direct_nested(real, i, j, picks, modes, memo):
    """The oracle of `Verifier._nested`: the plain recursion through the
    exact bracket (the kernel's two steps at shift 0, with no window) on the
    images of `picks` (p, q), theta(p, i, k) outside and theta(q, j, n)
    innermost, one bracket per mode tuple, memoised by modes."""
    if len(modes) == 1:
        return real._theta(picks[1], j, modes[0])
    hit = memo.get(modes)
    if hit is None:
        inner = _direct_nested(real, i, j, picks, modes[1:], memo)
        outer = real._theta(picks[0], i, modes[0])
        hit = memo[modes] = real.place(real.accumulate(outer, inner), 0, 0)
    return hit


def _nested_values(monkeypatch, run) -> dict:
    """(i, j, picks, modes) -> the value `Verifier._nested` returned, for
    every call made while `run()` ran."""
    seen = {}
    nested = Verifier._nested

    def recording(self, *args):
        value = seen[args[-4:]] = nested(self, *args)
        return value

    with monkeypatch.context() as patch:
        patch.setattr(Verifier, "_nested", recording)
        run()
    return seen


def _assert_nested_match_direct(real, seen) -> set:
    """Every recorded value prints as the oracle's, loop and central keys
    alike.  The picks of the nested values that were placed from a
    representative of other modes."""
    memos: dict = {}
    reps: dict = {}
    shifted = set()
    for (i, j, picks, modes), got in seen.items():
        want = _direct_nested(real, i, j, picks, modes, memos.setdefault((i, j, picks), {}))
        assert serialize_elem(got) == serialize_elem(want), (i, j, picks, modes)
        if len(modes) > 1:
            key = (i, j, picks) + tuple(m % real.n_order for m in modes)
            if reps.setdefault(key, modes) != modes:
                shifted.add(picks)
    return shifted


# the picks (p, q) of the brackets [theta(p, i, m), theta(q, j, n)] of the
# H, HXplus, HXminus and XX checks
_CARTAN_PICKS = {(2, 2), (2, 0), (2, 1), (0, 1)}


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_nested_values_match_direct_brackets(monkeypatch, name):
    # the suite at modes 2 reads nested modes that repeat a residue class mod
    # N on every entry, so most of its values are placed, not bracketed; the
    # Cartan rows read their brackets from `_nested` too.  Where N <= 2 a
    # class of the Cartan rows' (m, n) has several rows, whose members the
    # suite places from the class's first row without reading `_nested`:
    # read every (m, n) of the grid from one memo with reps per pair and
    # picks, in grid order, so that each later value of a class is placed
    # from its first modes, and the oracle covers those brackets too
    real, fam = cached_realization(name), cached_family(name)
    seen = _nested_values(monkeypatch, lambda: Verifier(real).run_suite(fam, 2))
    assert _assert_nested_match_direct(real, seen)
    assert {picks for _, _, picks, _ in seen} & _CARTAN_PICKS == _CARTAN_PICKS - {(2, 1)}
    if real.n_order <= 2:
        v = Verifier(real)
        seen = {}
        for i, j in itertools.product(range(real.gcm.n), repeat=2):
            for picks in _CARTAN_PICKS:
                memo = ({}, {})
                for modes in itertools.product(range(-2, 3), repeat=2):
                    seen[(i, j, picks, modes)] = v._nested(memo, i, j, picks, modes)
        assert _assert_nested_match_direct(real, seen) == _CARTAN_PICKS


@pytest.mark.parametrize("name", ["A1a-flip", "A2a-flip", "A2a-rot", "A3a-rot"])
def test_nested_values_match_direct_brackets_modes_4(monkeypatch, name):
    real, fam = cached_realization(name), cached_family(name)
    seen = _nested_values(monkeypatch, lambda: Verifier(real).verify_family("DS", fam, 4))
    assert _assert_nested_match_direct(real, seen)


@pytest.mark.parametrize(
    "name, modes, window",
    [
        ("A1a-flip", 2, (6, 3)),
        ("A1a-id", 2, (6, 3)),
        ("A2a-flip", 3, (7, 4)),
        ("A2a-rot", 2, (6, 3)),
        ("A3a-rot", 2, (7, 4)),
    ],
)
def test_nested_values_leave_tight_windows_where_direct_brackets_do(
    monkeypatch, name, modes, window
):
    # bracket output degrees leave the window: with every row summed in
    # full, so that every nested value is read, each value, placed or not,
    # is the exact bracket of its operands, which bracket past the window
    # too; the report has no gap and is that of the pairs evaluated alone
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, *window)
    fam = cached_family(name)
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_shared_classes", lambda mode_bound, big_n: False)
        seen = _nested_values(patch, lambda: Verifier(real).run_suite(fam, modes))
    assert _assert_nested_match_direct(real, seen)
    for (i, j, picks, nested), value in seen.items():
        if len(nested) > 1:
            outer = real._theta(picks[0], i, nested[0])
            assert real.bracket(outer, seen[(i, j, picks, nested[1:])]) == value
    shared, alone = _shared_and_alone(monkeypatch, lambda: Verifier(real).run_suite(fam, modes))
    assert shared == alone
    assert '"out_of_window"' not in shared


@pytest.mark.parametrize(
    "label, perm, bracketed, classes, tuples",
    [("A2^(1)", [1, 2, 0], 54, 72, 234), ("A1^(1)", [0, 1], 16, 16, 48)],
)
def test_run_suite_brackets_once_per_residue_class(
    monkeypatch, label, perm, bracketed, classes, tuples
):
    """The nested kernel calls of run_suite at modes 1 (A2a-rot, A1a-id)
    are one per class of pairs, sign and residue class of modes mod N whose
    inner operand is nonzero, against one per mode tuple when each is
    bracketed directly; a zero inner operand is no kernel call.  The nested
    mode tuples read are those of the first row of each class of output
    modes: on A2a-rot (N = 3), one class of pairs where every class of
    output modes has one row, the 234 that its relations moved to (0, 0)
    read, and 48 of the 680 that every row reads on A1a-id (N = 1), where
    the window holds every row.  Those are the counts with both signs
    evaluated; with sign -1 derived from sign +1 every one of them halves.
    The weighted rows read the picks (0, 0) of sign +1 and (1, 1) of sign
    -1; the Cartan rows' brackets, of other picks, are counted apart."""
    real, fam = _setup(label, perm, 1)
    calls = _count_kernel_calls(monkeypatch)
    big_n = real.n_order
    signs = {(0, 0): +1, (1, 1): -1}

    def residues(i, j, sign, modes):
        return (i, j, sign) + tuple(m % big_n for m in modes)

    for share in (2, 1):  # sign -1 derived, then both signs evaluated
        if share == 1:
            _both_signs(monkeypatch)
        calls.clear()
        Verifier(real).verify_cartan_relations(1)
        cartan = len(calls)
        calls.clear()
        seen = _nested_values(monkeypatch, lambda: Verifier(real).run_suite(fam, 1))
        reads = {
            (i, j, signs[picks], modes): bool(v)
            for (i, j, picks, modes), v in seen.items()
            if picks in signs
        }
        nested = [(i, j, sign, modes) for i, j, sign, modes in reads if len(modes) > 1]
        assert {sign for _, _, sign, _ in nested} == ({+1} if share == 2 else {+1, -1})
        keys = {residues(*k) for k in nested if reads[k[:3] + (k[3][1:],)]}
        assert share * (len(calls) - cartan) == share * len(keys) == bracketed
        assert share * len({residues(*k) for k in nested}) == classes
        assert share * len(nested) == tuples


def test_a_tampered_residue_representative_fails_its_whole_class(monkeypatch):
    # the plain family on the pair (0, 1) of A2a-rot has one summand per
    # check, the nested bracket at the output modes.  One residue class's
    # representative gets a loop key it does not have: the residual changes
    # at every member of the class, and nowhere else, though the window
    # (4, 3) is smaller than the members' bracket degrees
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    e = entry_by_name("A2a-rot")
    real = Realization(e.gcm, e.mu, m1_window=4, m2_window=3)
    fam = _one_pair(_plain_family(cached_family("A2a-rot"), 1), 0, 1)
    v = Verifier(real)
    memos = {+1: ({}, {}), -1: ({}, {})}
    terms, _ = v._transport(fam.entries[(0, 1)], 0, 0)

    def run():
        report = v._verify_weighted("P1", terms, 0, 1, fam.arity(0, 1), 2, memos)
        return {chk.sign: (chk.checked, dict(chk.failures)) for chk in report.checks}

    before = run()
    values, reps = memos[+1]
    key = (1, 1, 2)
    r1, rest, (loop, *acc) = reps[key]
    reps[key] = (r1, rest, ({**loop, ("L", 0, 0, 0): CycNum.one(real.field)}, *acc))
    values.clear()
    after = run()
    assert after[-1] == before[-1]
    checked, failures = after[+1]
    assert checked == before[+1][0]
    members = {
        out
        for out in itertools.product(range(-2, 3), repeat=3)
        if tuple(m % 3 for m in out) == key
    }
    changed = {
        out
        for out in failures.keys() | before[+1][1].keys()
        if serialize_elem(failures.get(out, {})) != serialize_elem(before[+1][1].get(out, {}))
    }
    assert changed == members
    assert changed <= failures.keys()


# -- one full sum per residue class of rows ---------------------------------------


def _same(a: str, b: str) -> bool:
    return a == b

_CARTAN_KINDS = {"H", "HXplus", "HXminus", "XX", "Xperiod"}


def _count_rows(monkeypatch):
    """Per kind of row (weighted, Cartan pair, Cartan node): [rows, rows
    summed in full].  A later row of a class passes `_check` the loop part
    of its class's first residual and the shift, so it is not counted as a
    full sum."""
    rows = {"weighted": [0, 0], "pair": [0, 0], "node": [0, 0]}
    check = Verifier._check

    def counting(self, chk, modes, row, *rest):
        if len(chk.pair) == 1:
            kind = "node"
        else:
            kind = "pair" if chk.kind in _CARTAN_KINDS else "weighted"
        rows[kind][0] += 1
        rows[kind][1] += len(rest) < 2
        return check(self, chk, modes, row, *rest)

    monkeypatch.setattr(Verifier, "_check", counting)
    return rows


@pytest.mark.parametrize(
    "label, perm, weighted, pair, node, kernel",
    [
        ("F4", [0, 1, 2, 3], (720, 44), (576, 64), 36, 146),
        ("G2", [0, 1], (612, 12), (144, 16), 18, 50),
        ("C3", [0, 1, 2], (486, 26), (324, 36), 27, 91),
        ("E6", [4, 3, 2, 1, 0, 5], (684, 256), (576, 256), 54, 398),
    ],
)
def test_class_rows_work_counts(monkeypatch, label, perm, weighted, pair, node, kernel):
    """run_suite at modes 1 on the cores of the benchmark's build-cores
    workload: the weighted and Cartan pair rows are summed in full once per
    check and residue class of their modes mod N (one class per check for
    the identity twists, four of the nine (m, n) for the flip of E6), and
    the kernel accumulates only for those full sums (when every row was
    summed in full, the kernel ran 658, 178, 379 and 958 times).  The
    `node` rows of the node checks are counted, but the audit shows each
    zero, so none reaches `_check` and none brackets: `kernel` counts the
    one K1 bracket per node row that the node checks once made.  Those are
    the counts with both signs evaluated; with sign -1 of every weighted
    relation and HXminus derived, half of the weighted rows and a quarter
    of the pair rows are summed, and the kernel runs `_DERIVED_KERNEL`
    times.  A silent fallback to a full sum per row, or to both signs,
    fails here."""
    real, fam = _setup(label, perm, 1)
    rows = _count_rows(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    report = Verifier(real).run_suite(fam, 1)
    assert report.passed
    assert (tuple(rows["weighted"]), tuple(rows["pair"]), tuple(rows["node"])) == (
        tuple(x // 2 for x in weighted),
        tuple(3 * x // 4 for x in pair),
        (0, 0),
    )
    assert sum(c.checked for c in report.checks if len(c.pair) == 1) == node
    assert len(calls) == _DERIVED_KERNEL[label]
    _both_signs(monkeypatch)
    for counts in rows.values():
        counts[:] = [0, 0]
    calls.clear()
    assert Verifier(real).run_suite(fam, 1).passed
    assert (tuple(rows["weighted"]), tuple(rows["pair"]), tuple(rows["node"])) == (
        weighted,
        pair,
        (0, 0),
    )
    assert len(calls) == _BOTH_KERNEL[label] == kernel - node


@pytest.mark.parametrize(
    "name, modes, derived, both",
    [
        ("A2a-rot", 1, 81, 117),
        ("A3a-rot", 1, 115, 176),
        ("A4a-rot", 0, 30, 43),
        ("A5a-rot", 0, 30, 40),
    ],
)
def test_suite_rot_kernel_calls(monkeypatch, name, modes, derived, both):
    """The kernel calls of run_suite on each entry of the benchmark's
    suite-rot workload, in its window: 160 a round with sign -1 derived,
    280 with both signs evaluated (`_SUITE_ROT_KERNEL`).  `derived` and
    `both` (256 and 376 a round) count also the K1 bracket that the node
    checks once made per node row, 3 (2 modes + 1) rows a node."""
    e = entry_by_name(name)
    fam = cached_family(name)
    real = Realization(e.gcm, e.mu, *suite_window(e.gcm, e.mu, fam, modes))
    node_rows = 3 * real.gcm.n * (2 * modes + 1)
    calls = _count_kernel_calls(monkeypatch)
    assert Verifier(real).run_suite(fam, modes).passed
    assert len(calls) == _SUITE_ROT_KERNEL[name][0] == derived - node_rows
    calls.clear()
    _both_signs(monkeypatch)
    assert Verifier(real).run_suite(fam, modes).passed
    assert len(calls) == _SUITE_ROT_KERNEL[name][1] == both - node_rows


@pytest.mark.parametrize(
    "name, modes",
    [("A2a-rot", 1), ("A3a-rot", 1), ("A4a-rot", 0), ("A5a-rot", 0), ("A2a-rot", 2)],
)
def test_suite_rot_audit_tests_no_cartan_periodicity(monkeypatch, name, modes):
    """On the entries of the benchmark's suite-rot workload at its modes,
    N >= 2 modes + 1, so every class of the Cartan rows' (m, n) mod N has
    one row: the audit makes no Cartan periodicity test (pick h is read by
    no other).  A2a-rot at modes 2 (N = 3 < 5) makes one per least node."""
    e = entry_by_name(name)
    fam = cached_family(name)
    real = Realization(e.gcm, e.mu, *suite_window(e.gcm, e.mu, fam, modes))
    calls = []
    in_period = Realization.in_period

    def recording(self, i, span, picks=(0, 1)):
        if 2 in picks:
            calls.append(i)
        return in_period(self, i, span, picks)

    monkeypatch.setattr(Realization, "in_period", recording)
    assert Verifier(real).run_suite(fam, modes).passed
    assert calls == ([] if 2 * modes + 1 <= real.n_order else [0])


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_one_verdict_per_node_keeps_every_shortcut_on_true_images(monkeypatch, name, modes):
    """With true images, at the window `verify` sizes, the audit of a suite
    sets no node apart and finds every least node mirrored and in period:
    one verdict per node, for the Cartan and the weighted rows alike,
    costs no class, derived sign or placed member."""
    e = entry_by_name(name)
    fam = cached_family(name)
    real = Realization(e.gcm, e.mu, *suite_window(e.gcm, e.mu, fam, modes))
    audits = []
    audit = Verifier._audit

    def recording(self, mode_bound, span):
        audits.append(audit(self, mode_bound, span))
        return audits[-1]

    monkeypatch.setattr(Verifier, "_audit", recording)
    assert Verifier(real).run_suite(fam, modes).passed
    (got,) = audits
    assert got.apart == set()
    assert got.mirrored == got.in_period == _least_nodes(real)


# kernel calls of test_suite_rot_kernel_calls, with sign -1 derived and with
# both signs evaluated
_SUITE_ROT_KERNEL = {
    "A2a-rot": (54, 90),
    "A3a-rot": (79, 140),
    "A4a-rot": (15, 28),
    "A5a-rot": (12, 22),
}

# kernel calls of test_class_rows_work_counts with sign -1 derived and with
# both signs evaluated
_DERIVED_KERNEL = {"F4": 71, "G2": 20, "C3": 41, "E6": 220}
_BOTH_KERNEL = {"F4": 110, "G2": 32, "C3": 64, "E6": 344}


def _bracket_family(fam):
    """1 + 3 z1 on each pair of `fam`, with one z-slot: [x_i(z), x_j(w)]
    weighted, which fails wherever the bracket is nonzero, on the identity
    twists too (where the plain family is family p)."""
    out = SerreFamily("bracket")
    for pair in fam.entries:
        out.entries[pair] = {(0,): LPoly(("z1", "w"), {(0, 0): 1, (1, 0): 3})}
    return out


def _perturbed_family(fam):
    """family p with 2 z1 added to every slot of each pair: not homogeneous,
    failing, and in a slot sigma != id the first nested mode reads another
    exponent than z1's."""
    out = SerreFamily("perturbed")
    for pair, sigmas in fam.entries.items():
        out.entries[pair] = {}
        for sigma, poly in sigmas.items():
            terms = dict(poly.terms)
            e = (1,) + (0,) * (len(poly.vars) - 1)
            terms[e] = terms.get(e, 0) + 2
            out.entries[pair][sigma] = LPoly(poly.vars, terms)
    return out


_FAMILIES = {
    "p": lambda fam: fam,
    "plain": lambda fam: _plain_family(fam, 1),
    "perturbed": _perturbed_family,
    "bracket": _bracket_family,
}


def _classes_and_rows(monkeypatch, run) -> tuple:
    """The JSON of `run()` with every failure recorded, with the residue
    classes of rows, then with every row summed in full.  Compare them with
    `_same`: pytest's diff of two long strings would take minutes."""
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    classes = json.dumps(run().to_json(), sort_keys=True)
    with monkeypatch.context() as patch:
        patch.setattr(presentation, "_shared_classes", lambda mode_bound, big_n: False)
        rows = json.dumps(run().to_json(), sort_keys=True)
    return classes, rows


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("name", [e.name for e in builtin_entries() if e.mu.order < 5])
def test_class_rows_match_rows_summed_alone(monkeypatch, name, family):
    # every row, failing or not: the class rows of a suite
    # at modes 2 (p as family p, the others as window-scale certificates);
    # on A4a-rot and A5a-rot (N >= 5) every class has one row there
    real = cached_realization(name)
    fam = _FAMILIES[family](cached_family(name))
    classes, rows = _classes_and_rows(
        monkeypatch, lambda: Verifier(real).run_suite(fam, 2, certificate=family != "p")
    )
    assert _same(classes, rows)
    if family in ("p", "bracket"):
        assert ('"failures"' in classes) == (family == "bracket")


@pytest.mark.parametrize("family", ["p", "bracket"])
@pytest.mark.parametrize("name", ["A2-id", "E6-flip", "A1a-id", "A1a-flip", "A2a-id", "A2a-flip"])
def test_class_rows_match_rows_summed_alone_modes_4(monkeypatch, name, family):
    real = cached_realization(name)
    fam = _FAMILIES[family](cached_family(name))
    classes, rows = _classes_and_rows(
        monkeypatch, lambda: Verifier(real).run_suite(fam, 4, certificate=family != "p")
    )
    assert _same(classes, rows)


@pytest.mark.parametrize("window", [(6, 3), (7, 4)])
@pytest.mark.parametrize("name", ["A2-id", "A1a-id", "A1a-flip", "A2a-id", "A2a-flip", "A2a-rot"])
def test_class_rows_match_rows_summed_alone_in_tight_windows(monkeypatch, name, window):
    # at modes 2 and 4 the brackets of a class, and of the Cartan rows,
    # would leave the window; the relations are bracketed with no window,
    # so the residuals are those of every row summed in full and of the
    # suite at the suite window, with no gap
    e = entry_by_name(name)
    real = Realization(e.gcm, e.mu, *window)
    wide = cached_realization(name)
    fam = _bracket_family(cached_family(name))
    for modes in (2, 4):
        for run in (
            lambda real: Verifier(real).run_suite(fam, modes, certificate=True),
            lambda real: Verifier(real).verify_family("P1", fam, modes),
        ):
            classes, rows = _classes_and_rows(monkeypatch, lambda: run(real))
            assert _same(classes, rows)
            assert '"out_of_window"' not in classes
            assert _same(classes, json.dumps(run(wide).to_json(), sort_keys=True))


@pytest.mark.parametrize("m1", range(3, 12))
@pytest.mark.parametrize("shift", [1, 2, 3])
@pytest.mark.parametrize("name", ["A2-id", "A1a-id", "A2a-id"])
def test_class_rows_match_rows_summed_alone_on_images_moved_in_t1(
    monkeypatch, name, shift, m1
):
    # every theta_x(0, m, +1) with its loop keys moved `shift` in t1: still
    # periodic in t1, but not homogeneous, so a bracket at modes k that
    # reads it sits above t1-degree sum(k), past the window (m1, the
    # suite's m2) for the smaller m1.  The relations are bracketed with no
    # window, so the audit finds node 0 in period and places the members
    # of its classes: the bracket family at modes 2 reports the residuals
    # of every row summed in full
    e = entry_by_name(name)
    base = cached_family(name)
    real = Realization(e.gcm, e.mu, m1, suite_window(e.gcm, e.mu, base, 2)[1])
    for m in range(-m1, m1 + 1):
        image = real._theta(0, 0, m)
        real._theta_cache[(0, 0, m)] = {(k[0], k[1] + shift) + k[2:]: c for k, c in image.items()}
    fam = _bracket_family(base)
    assert 0 in Verifier(real)._audit(None, range(-2, 4)).in_period
    classes, rows = _classes_and_rows(
        monkeypatch, lambda: Verifier(real).verify_family("P1", fam, 2)
    )
    assert _same(classes, rows)


def test_a_tampered_first_residual_fails_its_class_members(monkeypatch):
    # the first row of the one class of output modes (A1a-id, N = 1) gets a
    # loop key in its residual, after it was recorded.  Bracket family at
    # modes 2; both signs are evaluated, so that sign -1, not derived from
    # the tampered sign +1, stays as it was.  Every later row is placed from
    # the first and fails with that key moved sum(out) - sum(r), and no
    # other row changes, in the window (5, 3) and in (4, 3), narrower than
    # the relation's largest mode sum, 5 (the term 3 z1 at modes 2): the
    # relations are bracketed with no window
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    _both_signs(monkeypatch)
    e = entry_by_name("A1a-id")
    fam = _one_pair(_bracket_family(cached_family("A1a-id")), 0, 1)
    check = Verifier._check
    key = ("L", 40, 0, 0)
    for window in ((5, 3), (4, 3)):
        real = Realization(e.gcm, e.mu, *window)
        before = Verifier(real).verify_family("P1", fam, 2).checks
        firsts = []

        def tampering(self, chk, modes, row, *rest):
            total = check(self, chk, modes, row, *rest)
            if not rest[1:] and chk.sign > 0:  # a row of +1 summed in full
                if not firsts:  # the first: passed on
                    total = {**total, key: CycNum.one(real.field)}
                firsts.append(modes)
            return total

        with monkeypatch.context() as patch:
            patch.setattr(Verifier, "_check", tampering)
            after = Verifier(real).verify_family("P1", fam, 2).checks
        plus_before, plus_after = before[0], after[0]
        assert len(firsts) == 1
        r = firsts[0]
        assert after[1].to_json() == before[1].to_json()
        assert plus_after.checked == plus_before.checked
        was = dict(plus_before.failures)
        now = dict(plus_after.failures)
        members = [out for out in itertools.product(range(-2, 3), repeat=2) if out > r]
        assert set(now) == set(was) | set(members)
        for out in members:
            moved = ("L", 40 + sum(out) - sum(r), 0, 0)
            assert now[out] == {**was.get(out, {}), moved: CycNum.one(real.field)}


def test_a_tampered_first_cartan_residual_fails_its_class_members(monkeypatch):
    # the Cartan analogue of the test above: on A2-id (N = 1) at modes 2
    # each check of a pair has one class of (m, n), whose first row is
    # (-2, -2).  The first row of XX on (0, 1) gets a loop key in its
    # residual, after it was recorded: every later row of that check is a
    # member placed from the first, and fails with that key moved
    # m + n - r - s; every other check is as in the untampered run
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    real = cached_realization("A2-id")
    before = Verifier(real).verify_cartan_relations(2).checks
    check = Verifier._check
    key = ("L", 5, 0, 0)
    one = CycNum.one(real.field)
    firsts = []

    def tampering(self, chk, modes, row, *rest):
        total = check(self, chk, modes, row, *rest)
        if (chk.kind, chk.pair) == ("XX", (0, 1)) and not rest[1:]:  # summed in full
            firsts.append(modes)
            total = {**total, key: one}
        return total

    with monkeypatch.context() as patch:
        patch.setattr(Verifier, "_check", tampering)
        after = Verifier(real).verify_cartan_relations(2).checks
    assert firsts == [(-2, -2)]
    pairs = list(zip(before, after))
    ((was, now),) = [(b, a) for b, a in pairs if (a.kind, a.pair) == ("XX", (0, 1))]
    assert all(b.to_json() == a.to_json() for b, a in pairs if a is not now)
    assert was.passed and now.checked == was.checked == 25
    members = [(m, n) for m in range(-2, 3) for n in range(-2, 3) if (m, n) != (-2, -2)]
    assert [modes for modes, _ in now.failures] == members
    for (m, n), residual in now.failures:
        assert residual == {("L", 5 + m + n + 4, 0, 0): one}


def test_a_tampered_pairing_sum_fails_the_members_it_weighs(monkeypatch):
    # the accumulations of the Cartan classes of A2-id (N = 1) at modes 2
    # with their pairing sums doubled: a row fails exactly where the
    # doubled sums place a nonzero central term, so at m + n = 0, m != 0
    # (the factor m of K1) and nowhere else, by the central terms of the
    # true bracket; the first row of each class, at m + n = -4, passes
    real, _ = _setup("A2", [0, 1], 2)
    accumulate = Realization.accumulate

    def doubled(self, x, y):
        loop, central, order, den = accumulate(self, x, y)
        return loop, {d: 2 * v for d, v in central.items()}, order, den

    monkeypatch.setattr(Realization, "accumulate", doubled)
    checks = [c for c in Verifier(real).verify_cartan_relations(2).checks if len(c.pair) == 2]
    failed = [(c, modes, r) for c in checks for modes, r in c.failures]
    assert failed
    monkeypatch.undo()
    for chk, (m, n), residual in failed:
        assert m + n == 0 and m != 0
        assert set(residual) == {("K1",)}
        i, j = chk.pair
        x, y = {
            "H": ((2, i, m), (2, j, n)),
            "XX": ((0, i, m), (1, j, n)),
        }[chk.kind]
        true = real.bracket(real._theta(*x), real._theta(*y))
        assert residual == {k: c for k, c in true.items() if k[0] != "L"}
    assert {chk.kind for chk, _, _ in failed} == {"H", "XX"}


@pytest.mark.parametrize("name", ["A2-id", "A2a-id", "A2a-flip", "E6-flip"])
def test_tampered_cartan_rows_fail_with_the_oracle_residual(monkeypatch, name):
    # with every bracket doubled, the Cartan pair rows of an N <= 2 entry at
    # modes 2, first rows and later members alike, fail wherever the bracket
    # is nonzero, each with a nonzero residual that prints as got - want
    real = cached_realization(name)
    _double_the_kernel(monkeypatch)
    checks = [c for c in Verifier(real).verify_cartan_relations(2).checks if len(c.pair) == 2]
    assert all(r for c in checks for _, r in c.failures)
    assert _match_the_oracle(real, checks) > 4 * real.gcm.n**2


@pytest.mark.parametrize("name", ["A2-id", "A2a-id", "A2a-flip"])
def test_a_corrupted_image_at_a_member_mode_fails_as_alone(monkeypatch, name):
    # theta_x(1, 1, +1), then theta_h(1, 1), corrupted: mode 1 is no class's
    # first mode at modes 2 (the first is -2 or -1), and on the identity
    # twists no node check sees it, so only the pair rows that read it fail
    # there.  They fail as when every row is summed in full, residuals
    # included: the audit tests the periodicity of theta_h as of theta_x
    e = entry_by_name(name)
    for pick in (0, 2):
        real = Realization(e.gcm, e.mu, *suite_window(e.gcm, e.mu, cached_family(name), 2))
        _double_one_coefficient(real, pick, 1, 1, min(real._theta(pick, 1, 1)))
        classes, rows = _classes_and_rows(
            monkeypatch, lambda: Verifier(real).verify_cartan_relations(2)
        )
        assert _same(classes, rows)
        failed = {tuple(c["pair"]) for c in json.loads(classes)["checks"] if not c["pass"]}
        assert failed
        if name.endswith("-id"):
            assert all(1 in pair for pair in failed)


# -- one sign per relation: sign -1 derived through omega_hat --------------------


def _derived_and_both(monkeypatch, run) -> tuple:
    """The JSON of `run()` with every failure recorded, with sign -1 derived
    where the images pass the image check, then with both signs evaluated
    everywhere."""
    monkeypatch.setattr(presentation, "MAX_RECORDED_FAILURES", 10**6)
    derived = json.dumps(run().to_json(), sort_keys=True)
    with monkeypatch.context() as patch:
        _both_signs(patch)
        both = json.dumps(run().to_json(), sort_keys=True)
    return derived, both


@pytest.mark.parametrize("modes", [2, 4])
@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_derived_signs_match_both_signs_evaluated(monkeypatch, name, modes):
    # every check, failing or not, and every residual: family p,
    # and the plain (criterion 9), perturbed and one-slot families as
    # window-scale certificates
    real = cached_realization(name)
    # the least node of every orbit passes the image check
    audit = Verifier(real)._audit(modes, range(-modes - 2, modes + 3))
    mirrored = _least_nodes(real)
    assert audit.mirrored == mirrored
    for family in sorted(_FAMILIES):
        fam = _FAMILIES[family](cached_family(name))
        derived, both = _derived_and_both(
            monkeypatch, lambda: Verifier(real).run_suite(fam, modes, certificate=family != "p")
        )
        assert _same(derived, both), family


@pytest.mark.parametrize("tamper", ["x-1", "h-doubled", "h-root"])
@pytest.mark.parametrize("name", ["A2-flip", "A2a-id", "A2a-rot", "A3a-rot", "E6-flip"])
def test_a_corrupted_image_keeps_the_derived_signs_exact(monkeypatch, name, tamper):
    # i0 the least node of the first orbit.  One coefficient of
    # theta_x(i0, 1, -1) doubled, or theta_h(i0, 1) given a root-vector term,
    # fails the image check, so the classes of i0 evaluate both signs.  One
    # coefficient of theta_h(i0, 1) doubled still passes it, as any Cartan
    # element does (-omega_hat fixes it), and the derivation stays exact.
    # Either way every report is that of both signs evaluated, and it fails
    real, fam = cached_realization(name), cached_family(name)
    i0 = min(i for i in range(real.gcm.n) if real.mu.apply(i) != i) if real.mu.order > 1 else 0
    pick = 1 if tamper == "x-1" else 2
    theta = real._theta(pick, i0, 1)
    key = min(k for k in theta if k[0] == "L")
    bad = {k: c + c if k == key else c for k, c in theta.items()}
    if tamper == "h-root":
        bad = {**theta, ("L", 1, 0, real.galg.alg.e_idx[0]): CycNum.one(real.field)}
    monkeypatch.setitem(real._theta_cache, (pick, i0, 1), bad)
    audit = Verifier(real)._audit(2, range(-2, 3))
    assert (i0 in audit.mirrored) == (tamper == "h-doubled")
    derived, both = _derived_and_both(monkeypatch, lambda: Verifier(real).run_suite(fam, 2))
    assert _same(derived, both)
    assert '"pass": false' in derived


def test_derived_signs_on_a_twisted_core(monkeypatch):
    # A2^(2) with the identity twist: f_1 = 2 f'_1 + 2 f'_2 in the core A2
    # while e_1 = e'_1 + e'_2, so node 1 fails the image check and its
    # classes evaluate both signs; node 0 passes, and (0, 0) derives
    g = Gcm(canonical_matrix("A2^(2)"))
    mu = validate_aut(g, [0, 1])
    fam = family_p(g, mu)
    real = Realization(g, mu, *suite_window(g, mu, fam, 1))
    audit = Verifier(real)._audit(1, range(-3, 4))
    assert audit.mirrored == {0}
    derived, both = _derived_and_both(monkeypatch, lambda: Verifier(real).run_suite(fam, 1))
    assert _same(derived, both)
    assert '"pass": true' in derived


def test_nested_values_of_a_non_periodic_image_are_bracketed_directly(monkeypatch):
    # one coefficient of theta_x(0, 2, +1) of A3a-rot doubled: theta_x(0, 2)
    # is no longer theta_x(0, -2) moved 4 in t1, so the classes of node 0
    # bracket every nested value directly instead of placing it from the
    # first modes of its residue class mod 4; every value is the bracket of
    # the images read
    real, fam = cached_realization("A3a-rot"), cached_family("A3a-rot")
    _double_one_coefficient(real, 0, 0, 2, min(real.theta_x(0, 2, +1)))
    try:
        audit = Verifier(real)._audit(2, range(-2, 3))
        assert 0 not in audit.in_period
        seen = _nested_values(monkeypatch, lambda: Verifier(real).run_suite(fam, 2))
        assert any(modes[0] == 2 and i == 0 for i, _, _, modes in seen)
        _assert_nested_match_direct(real, seen)
    finally:
        del real._theta_cache[(0, 0, 2)]


# -- the shortcut-free reference -------------------------------------------------
#
# `reference_report` sums every row of every ordered pair and both signs
# directly, with no classes, audit, derived signs or members.  These cases
# take a few seconds; the whole catalog at modes 2 with family p, qlimit and
# the criterion-9 plain family (about 8 s) runs with
#     PYTHONPATH=src python tools/refcheck.py 2


def _reference_matches(real, fam, modes, certificate=False):
    got = Verifier(real).run_suite(fam, modes, certificate=certificate).to_json()
    want = reference_report(real, fam, modes, "P1" if certificate else "DS").to_json()
    assert got == want
    return got


@pytest.mark.parametrize("name", [e.name for e in builtin_entries()])
def test_run_suite_matches_the_reference_at_modes_1(name):
    real, fam = cached_realization(name), cached_family(name)
    assert _reference_matches(real, fam, 1)["pass"]


@pytest.mark.parametrize("name", ["A2a-flip", "A1a-flip", "A3a-rot", "D4a-triality"])
def test_run_suite_matches_the_reference_at_modes_2(name):
    # family p, the classical limit where it is in scope (not on A1a-flip and
    # the rotations) and the criterion-9 plain family, which fails but on
    # A1a-flip
    real, fam = cached_realization(name), cached_family(name)
    assert _reference_matches(real, fam, 2)["pass"]
    plain = _reference_matches(real, _plain_family(fam, 1), 2, certificate=True)
    assert plain["pass"] == (name == "A1a-flip")
    try:
        qlimit = family_qlimit(real.gcm, real.mu)
    except ScopeViolation:
        assert name in ("A1a-flip", "A3a-rot")
        return
    assert _reference_matches(real, qlimit, 2, certificate=True)["pass"]


@pytest.mark.parametrize(
    "pick, node, m",
    [(0, 1, 1), (1, 2, -2), (0, 0, 2), (2, 1, 0), (2, 0, -2)],
    ids=["x+1-node1", "x-2-node2", "x+2-node0", "h0-node1", "h-2-node0"],
)
def test_run_suite_matches_the_reference_on_a_tampered_image(monkeypatch, pick, node, m):
    # A2a-flip (mu = (0)(1 2)) at modes 2 with one coefficient of one image
    # doubled through `_theta_cache`: on the moved orbit, at a mode of a
    # residue class with members, and on theta_h; every report fails and is
    # the reference's, row by row
    e = entry_by_name("A2a-flip")
    real = Realization(e.gcm, e.mu)
    theta = real._theta(pick, node, m)
    key = min(k for k in theta if k[0] == "L")
    monkeypatch.setitem(
        real._theta_cache, (pick, node, m), {k: c + c if k == key else c for k, c in theta.items()}
    )
    fam = cached_family("A2a-flip")
    assert not _reference_matches(real, fam, 2)["pass"]
    assert not _reference_matches(real, _plain_family(fam, 1), 2, certificate=True)["pass"]


# the entries where a residue class of rows has members at modes <= 2, the
# weighted rows' and the Cartan rows' alike (N <= 2)
_MEMBER_ENTRIES = ["A2-id", "A2-flip", "E6-flip", "A1a-id", "A1a-flip", "A2a-id", "A2a-flip"]


@lru_cache(maxsize=None)
def _relabelled_realization(name: str, seed: int):
    e = relabelled(entry_by_name(name), seed)
    return Realization(e.gcm, e.mu)


def _one_coefficient_doubled(fam, index: int):
    """`fam` with the first coefficient of the first slot of its pair
    number `index` (in sorted order) doubled: homogeneous still, and the
    relation of that pair is no longer family p's."""
    pair = sorted(fam.entries)[index % len(fam.entries)]
    sigmas = dict(fam.entries[pair])
    sigma = min(sigmas)
    poly = sigmas[sigma]
    e = min(poly.terms)
    sigmas[sigma] = LPoly(poly.vars, {**poly.terms, e: poly.terms[e] + poly.terms[e]})
    return SerreFamily("perturbed", {**fam.entries, pair: sigmas})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_suite_matches_the_reference_on_relabelled_inputs(data):
    # a catalog entry, mostly one with members at modes <= 2, with its nodes
    # renumbered by a seeded permutation; family p, the classical limit where
    # it is in scope, the criterion-9 plain family or family p with one
    # coefficient doubled; modes 1 or 2; and maybe one image, theta_x of
    # either sign or theta_h, with one coefficient doubled at a mode that is
    # no first mode of its residue class.  Every report, passing or not, is
    # the reference's
    names = [e.name for e in builtin_entries()]
    name = data.draw(st.one_of(st.sampled_from(_MEMBER_ENTRIES), st.sampled_from(names)))
    real = _relabelled_realization(name, data.draw(st.integers(0, 9), label="seed"))
    modes = data.draw(st.sampled_from([1, 2]), label="modes")
    base = family_p(real.gcm, real.mu)
    families = {
        "p": (base, False),
        "plain": (_plain_family(base, 1), True),
        "perturbed": (_one_coefficient_doubled(base, data.draw(st.integers(0, 99))), True),
    }
    try:
        families["qlimit"] = (family_qlimit(real.gcm, real.mu), True)
    except ScopeViolation:
        pass
    fam, certificate = families[data.draw(st.sampled_from(sorted(families)), label="family")]
    tamper = data.draw(st.booleans(), label="tamper")
    if tamper:
        pick = data.draw(st.sampled_from([0, 1, 2]), label="pick")
        node = data.draw(st.integers(0, real.gcm.n - 1), label="node")
        members = range(-modes + real.n_order, modes + 1) or range(-modes, modes + 1)
        m = data.draw(st.sampled_from(members), label="mode")
        key = (pick, node, m)
        theta = real._theta(*key)
        loop = sorted(k for k in theta if k[0] == "L")
        if loop:
            real._theta_cache[key] = {k: c + c if k == loop[0] else c for k, c in theta.items()}
    try:
        got = Verifier(real).run_suite(fam, modes, certificate=certificate).to_json()
        want = reference_report(real, fam, modes, "P1" if certificate else "DS").to_json()
    finally:
        if tamper:
            real._theta_cache[key] = theta
    assert got == want
