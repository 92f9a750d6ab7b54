"""Mode-level verification of the current-algebra relations.

`polys` states the relations and this module evaluates them.  Besides the
degree-zero (Cartan) relations, every relation is a formal identity
sum_sigma P(z_1..z_s, w) [x(z_sigma(1)), ..., [x(z_sigma(s)), y(w)]] = 0
given by a SerreFamily, and `Verifier.verify_family` checks any such
family: locality (kind X), the A_1^(1) extra relation (AS), a Serre-weight
family (DS, or P1 as a window-scale certificate) and the split form
(THM1_DS).  An identity is checked by extracting the coefficient of each
monomial z_1^{-m_1-1} ... w^{-n-1} over a finite grid of output modes; each
coefficient is a finite exact combination of iterated brackets of generator
images in the realization.  The degree-zero relations are of the same
form: an image or bracket minus its expected value, which enters with
negated coefficients.  So every check is one row of (coefficient, element)
terms, and `Verifier._check` counts it and sums it with `lin_comb` in one
field: Q(xi_L), the realization's, for the degree-zero rows, and for a
weighted relation on a pair Q(xi_F), F the lcm of L and the orders of that
pair's coefficients.  A reported failure therefore carries an explicit
nonzero residual element, every coefficient printed in that field, that
can be re-checked independently.

The ordered pairs are evaluated one class at a time (`_pair_classes`):
the pairs (mu^a i0, mu^b j0), i0 and j0 the least nodes of their mu-orbits.
The generator images (`Realization._theta`, with x = e, f or h) are

    theta(i, m) = sum_k xi_N^(-k m) t1^m (x) x_(mu^k i).

Reindexing k -> k - a, with mu^N = id (`validate_aut` ensures it) and
xi_N^N = 1, gives exactly

    theta(mu^a i, m) = sum_k xi_N^(-(k - a) m) t1^m (x) x_(mu^k i)
                     = xi_N^(a m) theta(i, m).

By bilinearity the nested bracket of (mu^a i0, mu^b j0) at modes
(k_1, ..., k_s, n) is xi_N^(a (k_1 + ... + k_s) + b n) times that of
(i0, j0), and each bracket of the Cartan checks H, HX and XX at modes
(m, n) is xi_N^(a m + b n) times its own.  So only (i0, j0) is bracketed,
and every relation of the class is moved to it (see below): a rotation is
one class, an identity twist one class per pair.
The identity is checked, not assumed, on every image that a row reads
(`Verifier._audit`): a node i = mu^a i0, a > 0, joins i0 only where each
image read, theta_x(i, out + e), |out| <= mode_bound and e an exponent of
the suite (the weighted rows), and theta_x(i, k) and theta_h(i, k), |k| <=
2 mode_bound (the Cartan rows), is xi_N^(a k) times i0's at the same k,
and eps_i = eps_i0; else i is its own least node, for every row kind.  So
every report is that of each pair evaluated alone, for any images and eps.
The node checks H and Xperiod compare theta(mu i, m) with
xi_N^m theta(i, m).  Unless i = mu^a i0 or mu i = mu^a' i0 is set apart,
the audit has shown that row to be (xi_N^(a' m) - xi_N^((a + 1) m))
theta(i0, m), zero where (a + 1 - a') m = 0 mod N (at every step of an
orbit but the wrap mu i = i0) or theta(i, m) = 0; such a row is counted,
not summed.  Every other row is summed, so a corrupted image fails.

Every bracket is exact: the realization's window bounds only its span
closures, so no check has a gap.  The nested brackets of
(i0, j0) are bracketed once per residue class of their modes mod N
(`Verifier._nested`).  Since xi_N^(-k N) = 1, theta(i, m + N) is
theta(i, m) moved N in t1, key by key, so by induction on s the bracket at
modes k = r mod N meets the basis pairs of the one at r with the same
products: its loop part is r's moved sum(k) - sum(r), and its central
terms come from the same pairing sums per degree block, placed at the
actual degrees (`kernel._place`).  The first modes r of a class are
accumulated, and every member is placed from them.  A zero inner bracket
gives zero with no kernel call: it meets no basis pair.

Whole rows go by residue class too, the weighted rows at output modes
`out` = r mod N and the Cartan rows at (m, n) = (r, s) mod N, under one
member rule.  Where every image that a row reads is the first of its
residue class moved in t1, every bracket of a row at `out` is placed from
the accumulation its class's first row r used, moved sum(out) - sum(r)
(m + n - r - s), so the row's loop residual is r's moved; only the
central part (K1, K1p, K2) depends on the actual degrees.  So the first
row of each class is summed in full, and a later row, a member, is placed
from it where the classes share rows (`_shared_classes`; not when
2 mode_bound + 1 <= N, as on every rotation at modes <= 1) and the audit
has shown the images read in period (`Realization.in_period`).  A placed
member takes the first loop residual, moved (`Verifier._check`), and sums
only the central terms of the first row's accumulations, placed at its own
degrees (`Realization.place_central`), and of its expected images, read at
its own modes; it builds no loop part.  Every other member is summed in
full.  Since `serialize_elem` sorts keys, every report is byte-identical
to the row-by-row sums.

The member rule is in one place, `Verifier._class_rows`, the one loop
over the rows of both kinds.  Every accumulation comes from a memo of
`Verifier._nested`, one memo per pair of image picks (p, q) that the rows
of a class read: (0, 0) and (1, 1) for the weighted rows of sign +1 and
-1, and (2, 2), (2, 0), (2, 1) and (0, 1) for the brackets
[theta_h(i, m), theta_h(j, n)], [theta_h(i, m), theta_x(j, n, +1)],
[theta_h(i, m), theta_x(j, n, -1)] and [theta_x(i, m, +1),
theta_x(j, n, -1)] of H, HXplus, HXminus and XX.  A Cartan check is a row
of one summand, its bracket, plus its expected value, and a weighted row
one of several summands with none, so both kinds take the same steps: per
output tuple one residue key serves every check of the loop; the first
row of a class is summed in full, `Verifier._class_plan` reads the
accumulations of its memo, and every member of the class places its
central terms from them and adds the central keys of its expected value.

One rule moves a weighted relation of (i, j) = (mu^a i0, mu^b j0) to
(i0, j0) (`Verifier._transport`).  At output modes `out`, w last, a term
c z^e of P_sigma reads the nested bracket at z-modes of sum
sum_z(out) + sum(e_z) and at the w-mode out_w + e_w, so on the brackets of
(i0, j0) its coefficient is c xi_N^(a (sum(e_z) - Dz) + b (e_w - Dw)), the
transported coefficient, times xi_N^(a (sum_z(out) + Dz) + b (out_w + Dw)),
with (Dz, Dw) the z- and w-degree of a least-degree term.  The first
factor does not depend on the modes; the second is one phase for the whole
check.  So the report of (i, j) is that of the transported relation on
(i0, j0): the same checked count and failure count, and each residual
times the phase (`Verifier._phased`).  Both sum in Q(xi_F), since N divides
L.  Each distinct transported relation of a class is summed once.  The
Cartan checks of every pair of a class are derived the same way, with the
phase xi_N^(a m + b n), since the expected values move alike: the phase
sum of a_(i, mu^k j) and the XX sum over mu^k j = i gain xi_N^((a - b) m)
(mu preserves A), theta(j, m + n) gains xi_N^(b (m + n)), the K1 terms sit
at m + n = 0, where xi_N^(a m + b n) = xi_N^((a - b) m), and eps_j =
eps_j0.  A derived check holds lists and residuals of its own.  Only the
memo of the class in hand is alive; it is dropped when the class is done.

One sign per relation.  The Chevalley involution omega_0 of the core
(e_i -> -f_i, f_i -> -e_i, h -> -h; `FiniteAlg.omega`, certified on the
tables) extends to omega_hat on the keys (`Realization.omega`): a loop key
keeps its t1-degree, negates its t2-degree and moves its basis vector by
omega_0; K1 stays, K2(p) changes sign, and K1p(p1, p2) goes to -K1p(p1,
-p2), since their weights m1, m2 and m1 n2 - m2 n1 stay, change sign and
change sign.  omega_hat is an automorphism of the kernel's bracket (its
docstring has the proof), and it is Q(xi)-linear.  So where the images
read satisfy theta_x(i, k, -1) = -omega_hat theta_x(i, k, +1), the nested
bracket of sign -1 at s + 1 modes is (-1)^(s + 1) omega_hat of the one of
sign +1, since each of its s + 1 operands contributes a factor -1.  A
weighted row sums such brackets at s + 1 = arity + 1 modes with the same
coefficients, so its residual of sign -1 is (-1)^(arity + 1) omega_hat of
its residual of sign +1.  Where also
theta_h(i, m) = -omega_hat theta_h(i, m), HXminus brackets theta_h(i, m)
with theta_x(j, n, -1) and adds the phase sum times theta_x(j, m + n, -1):
two factors -1 in the bracket, one in the expected value, whose
coefficient is minus HXplus's, so its residual is omega_hat of HXplus's.
So each class whose least nodes pass this image check (`_audit`, on
exactly the images that the rows read) evaluates sign +1 only, and the
check of sign -1 copies its checked count and failure count and maps
each residual (`_derived`, which also phases the checks of a shifted
pair); a class that fails it, such as
node 1 of A2^(2) or a tampered image, evaluates both signs.  Since
`serialize_elem` sorts keys, every report is byte-identical to the one
with both signs evaluated.  The same audit finds whether the images
that the rows read are periodic in t1 (`Realization.in_period`): a class
of pairs where they are not brackets every nested value directly and sums
every row in full.

The audit keeps one verdict per node for every row kind: set apart,
mirrored, in period (`_Audit`).  A node that fails a test on an image of
any row kind fails it for all of them, so a row is then evaluated alone,
with both signs or summed in full, and by the above its report is
byte-identical.

A pass certifies the identity on the tested grid only; for the built-in
families the grid is the whole statement being claimed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from loomfold.exactnum import CycNum, lin_comb
from loomfold.polys import SerreFamily, family_as, family_locality
from loomfold.realize import Realization

__all__ = [
    "RelationCheck",
    "RelationReport",
    "Verifier",
    "suite_window",
    "serialize_elem",
]

MAX_RECORDED_FAILURES = 8

# the Cartan pair checks: kind, sign, the picks (p, q) of the bracket
# [theta(p, i, m), theta(q, j, n)] and the pick of the expected image
# theta(j, m + n) (None: H expects K1 terms only)
_CARTAN_CHECKS = (
    ("H", 0, (2, 2), None),
    ("HXplus", +1, (2, 0), 0),
    ("HXminus", -1, (2, 1), 1),
    ("XX", 0, (0, 1), 2),
)


@dataclass
class RelationCheck:
    """Outcome of one relation family over its full mode grid."""

    kind: str
    pair: tuple
    sign: int  # +1, -1 or 0 when not sign-split
    grid: str
    checked: int = 0
    failures: list = field(default_factory=list)  # (modes, residual)
    failure_count: int = 0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    @property
    def gaps(self) -> list:
        """Always empty: every row is bracketed exactly.  Read by the
        benchmark's report rows (perfbench/workloads.py)."""
        return []

    def record_failure(self, modes, residual):
        self.failure_count += 1
        if len(self.failures) < MAX_RECORDED_FAILURES:
            self.failures.append((modes, residual))

    def to_json(self) -> dict:
        out = {
            "relation": self.kind,
            "pair": list(self.pair),
            "sign": self.sign,
            "modes": self.grid,
            "checked": self.checked,
            "pass": self.passed,
        }
        if self.failures:
            out["failures"] = [
                {"modes": list(m), "residual": serialize_elem(r)}
                for m, r in self.failures
            ]
        return out


def serialize_elem(elem) -> list:
    """Stable JSON form of a realization element."""
    out = []
    for key in sorted(elem):
        entry = {"key": [str(key[0])] + [int(x) for x in key[1:]], "coeff": elem[key].to_json()}
        out.append(entry)
    return out


@dataclass
class RelationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def extend(self, other: "RelationReport"):
        self.checks.extend(other.checks)

    def sorted(self) -> "RelationReport":
        return RelationReport(
            sorted(self.checks, key=lambda c: (c.kind, c.pair, -c.sign))
        )

    def to_json(self) -> dict:
        checks = self.sorted().checks
        return {
            "pass": self.passed,
            "total": len(checks),
            "failed": sum(1 for c in checks if not c.passed),
            "checks": [c.to_json() for c in checks],
        }


# ---------------------------------------------------------------------------
# verifier


class Verifier:
    """Runs relation families against one realization, one class of pairs
    at a time, as the module docstring sets out.  Every check, of either
    kind, is counted and summed by `_check`."""

    def __init__(self, real: Realization):
        self.real = real
        self.gcm = real.gcm
        self.mu = real.mu
        self.n_order = real.n_order

    # -- degree-zero relations ------------------------------------------------

    def verify_cartan_relations(self, mode_bound: int, audit=None) -> RelationReport:
        """The H and Xperiod checks of every node, each row summed unless
        the audit shows it zero (module docstring), then the H, HX and XX
        checks of every ordered pair, in (i, j) order.  `_cartan_pair`
        evaluates the least pair (i0, j0) of each class, the nodes' images
        and eps compared by `_audit` (`audit`, when the caller has made it);
        every other pair (mu^a i0, mu^b j0) takes its checks, each residual
        at modes (m, n) times xi_N^(a m + b n), as its expected values move
        (module docstring)."""
        if audit is None:
            audit = self._audit(mode_bound, range(0))
        real = self.real
        grid = f"|m|,|n|<={mode_bound}"
        report = RelationReport()
        one = CycNum.one(real.field)

        for i in range(self.gcm.n):
            chk_h = RelationCheck("H", (i,), 0, grid)
            chk_x = RelationCheck("Xperiod", (i,), 0, grid)
            mi = self.mu.perm[i]
            rows = ((chk_h, 2, ()), (chk_x, 0, (+1,)), (chk_x, 1, (-1,)))
            # a row is zero where the audit shows it (module docstring)
            step = None
            if not audit.apart.intersection((i, mi)):
                step = _orbit_shift(self.mu, i)[1] + 1 - _orbit_shift(self.mu, mi)[1]
            for m in range(-mode_bound, mode_bound + 1):
                minus = -real._phase(m)
                for chk, pick, sign in rows:
                    moved, image = real._theta(pick, mi, m), real._theta(pick, i, m)
                    if step is not None and (step * m % self.n_order == 0 or not image):
                        chk.checked += 1
                    else:
                        self._check(chk, (m, *sign), [(one, moved), (minus, image)])
            report.checks.append(chk_h)
            report.checks.append(chk_x)

        pairs: dict = {}
        shared = _shared_classes(mode_bound, self.n_order)
        for cls in _pair_classes(self.mu, self.gcm.n, audit.apart):
            i0, j0, _ = cls[0]
            mirror = audit.mirrored.issuperset((i0, j0))
            periodic = shared and audit.in_period.issuperset((i0, j0))
            pairs[(i0, j0)] = self._cartan_pair(i0, j0, mode_bound, mirror, periodic)
            for i, j, shift in cls[1:]:
                pairs[(i, j)] = self._phased(pairs[(i0, j0)], (i, j), shift, (0, 0))
        for pair in sorted(pairs):
            report.checks.extend(pairs[pair])
        return report

    def _cartan_pair(self, i: int, j: int, mode_bound: int, mirror: bool, periodic: bool) -> list:
        """The H, HXplus, HXminus and XX checks of the least pair (i, j) of
        a class.  At modes (m, n) each is a row of one summand, the bracket
        [theta(p, i, m), theta(q, j, n)] read from `_nested` with its picks
        (p, q), (2, 2), (2, 0), (2, 1) or (0, 1), less its expected value:
        the phase sum sum_k xi_N^(km) a_(i, mu^k j) times theta(j, m + n, +-1)
        (HX) or, summed over the k with mu^k j = i, xi_N^(km) theta_h(j, m + n)
        (XX), and at m + n = 0 the same coefficients times m N / eps_j K1
        (H, XX).  With `mirror` (the images that HXplus reads pass the image
        check of `_audit`), HXminus is not evaluated but derived from
        HXplus, each residual r as omega_hat(r).  The rows go through
        `_class_rows`, each check with its own memo, with reps only where
        `periodic` holds (some class of (m, n) mod N has two members, and the
        audit found the images of i and j at |k| <= 2 mode_bound periodic in
        t1)."""
        real = self.real
        a = self.gcm.entries
        big_n = self.n_order
        k1 = real.theta_c()
        meets = [k for k in range(big_n) if self.mu.apply(j, k) == i]
        # per kind and m: the coefficients of its expected image and of K1
        weights: dict = {"H": {}, "HXplus": {}, "HXminus": {}, "XX": {}}
        for m in range(-mode_bound, mode_bound + 1):
            phases = CycNum.zero(real.field)
            for k in range(big_n):
                phases += real._phase(k * m).mul_rational(a[i][self.mu.apply(j, k)])
            central = Fraction(m * big_n) / real.eps[j]
            xx = [-real._phase(k * m) for k in meets]
            weights["H"][m] = ([], [(-phases).mul_rational(central)])
            weights["HXplus"][m] = ([-phases], [])
            weights["HXminus"][m] = ([phases], [])
            weights["XX"][m] = (xx, [c.mul_rational(central) for c in xx])

        def expected(pick, by_m: dict):
            def terms(modes: tuple, member: bool) -> list:
                m, n = modes
                coeffs, k1s = by_m[m]
                row = [(c, k1) for c in k1s] if m + n == 0 else []
                if coeffs:
                    image = real._theta(pick, j, m + n)
                    if member:  # its central terms
                        image = {k: c for k, c in image.items() if k[0] != "L"}
                    if image:
                        row += [(c, image) for c in coeffs]
                return row

            return terms

        grid = f"|m|,|n|<={mode_bound}"
        rows = [
            (RelationCheck(kind, (i, j), sign, grid), picks, ({}, {} if periodic else None),
             expected(pick, weights[kind]))
            for kind, sign, picks, pick in _CARTAN_CHECKS
            if sign >= 0 or not mirror
        ]
        slots = [((0, 1), CycNum.one(real.field), (0, 0))]
        checks = self._class_rows(i, j, rows, slots, 2, mode_bound)
        if mirror:
            checks.insert(2, _derived(checks[1], (i, j), -1, lambda modes, r: real.omega(r)))
        return checks

    def _check(
        self,
        chk: RelationCheck,
        modes: tuple,
        row: list,
        field: int | None = None,
        loop: list = (),
        shift: int = 0,
    ) -> dict:
        """Count one check of `chk` at `modes`: the row of (coefficient,
        element) terms is summed in Q(xi_field), by default the
        realization's field, and a nonzero sum is recorded as the residual
        and returned.  A later row of a residue class passes the terms of
        its central part only, with the loop part of its class's first
        residual as `loop`, (key, coefficient) pairs moved `shift` in t1 here
        (see the module docstring)."""
        chk.checked += 1
        total = lin_comb(row, field or self.real.field)
        if loop:
            total = {**{("L", k[1] + shift, k[2], k[3]): c for k, c in loop}, **total}
        if total:
            chk.record_failure(modes, total)
        return total

    # -- weighted nested relations ---------------------------------------------------

    def verify_family(self, kind: str, fam: SerreFamily, mode_bound: int) -> RelationReport:
        """Check every pair of `fam`, in sorted order, as relation `kind`."""
        return self._verify_classes(((kind, fam),), mode_bound)

    def _verify_classes(self, suite: tuple, mode_bound: int, audit=None) -> RelationReport:
        """Every (kind, family) of `suite` on every pair it defines, one
        class of pairs at a time, with one set of memos per class; the
        checks are returned in (i, j) order, in suite order within a pair.
        A node joins its orbit's least node where `_audit` (`audit`, when
        the caller has made it) finds each image that a row of the run reads
        to be that node's, phased.  Each relation is moved to the class's
        least pair (`_transport`), each distinct one is evaluated once, and
        every pair's report is phased from it.  A class whose least nodes' images
        pass the image check evaluates sign +1 only and derives sign -1; one
        whose images are not periodic in t1 brackets every nested value
        directly (see the module docstring)."""
        if audit is None:
            audit = self._audit(None, _weighted_span(suite, mode_bound))
        by_pair: dict = {}
        for cls in _pair_classes(self.mu, self.gcm.n, audit.apart):
            i0, j0, _ = cls[0]
            mirror = audit.mirrored.issuperset((i0, j0))
            # no residue-class representatives where an image is not periodic
            periodic = audit.in_period.issuperset((i0, j0))
            memos = {sign: ({}, {} if periodic else None) for sign in (+1, -1)}
            evaluated: dict = {}
            for i, j, shift in cls:
                for kind, fam in suite:
                    if (i, j) not in fam.entries:
                        continue
                    arity = fam.arity(i, j)
                    terms, degrees = self._transport(fam.entries[(i, j)], *shift)
                    # a coefficient by its field and coordinates: CycNum has no hash
                    key = (kind, arity, tuple((s, e, c.order, c.nums, c.den) for s, c, e in terms))
                    part = evaluated.get(key)
                    if part is None:
                        part = evaluated[key] = self._verify_weighted(
                            kind, terms, i0, j0, arity, mode_bound, memos, mirror
                        )
                    by_pair.setdefault((i, j), []).extend(
                        self._phased(part.checks, (i, j), shift, degrees)
                    )
        report = RelationReport()
        for pair in sorted(by_pair):
            report.checks.extend(by_pair[pair])
        return report

    def _transport(self, sigmas: dict, a: int, b: int) -> tuple:
        """The relation {sigma: P_sigma} of a pair (mu^a i0, mu^b j0) moved
        to (i0, j0) (see the module docstring): its nonzero terms
        (sigma, c xi_N^(a (sum(e_z) - Dz) + b (e_w - Dw)), e), in (sigma, e)
        order, each c lifted into Q(xi_F), F the lcm of L and the orders of
        the pair's coefficients; and (Dz, Dw), the z- and w-degree of its
        first term of least total degree ((0, 0) with no term)."""
        terms = [(s, e, c) for s, p in sorted(sigmas.items()) for e, c in sorted(p.terms.items())]
        field = lcm(self.real.field, *(c.order for _, _, c in terms))
        dz, dw = min(((sum(e) - e[-1], e[-1]) for _, e, _ in terms), key=sum, default=(0, 0))
        out = []
        for s, e, c in terms:
            c = c.lift(field)
            k = (a * (sum(e) - e[-1] - dz) + b * (e[-1] - dw)) % self.n_order
            out.append((s, c.rotated(k * field // self.n_order) if k else c, e))
        return tuple(out), (dz, dw)

    def _phased(self, checks: list, pair: tuple, shift: tuple, degrees: tuple) -> list:
        """The checks of `pair` = (mu^a i0, mu^b j0), (a, b) = `shift`, from
        `checks`, those of (i0, j0): the same checked count and failure
        count, each residual at output modes `out`, w last, times
        xi_N^(a (sum_z(out) + Dz) + b (out_w + Dw)), (Dz, Dw) = `degrees`.
        At shift (0, 0), pair = (i0, j0), the phase is 1 and `checks` are
        returned themselves; else every list and residual of the result is
        its own."""
        if shift == (0, 0):
            return checks
        (a, b), (dz, dw) = shift, degrees
        big_n = self.n_order

        def turn(modes, residual):
            e = (a * (sum(modes[:-1]) + dz) + b * (modes[-1] + dw)) % big_n
            # each coefficient lies in its check's field Q(xi_F), and N divides F
            return {k: c.rotated(e * c.order // big_n) for k, c in residual.items()}

        out = []
        for chk in checks:
            out.append(_derived(chk, pair, chk.sign, turn))
        return out

    def _audit(self, mode_bound: int | None, span: range) -> "_Audit":
        """One pass over the generator images that the rows of a run read:
        theta_x and theta_h at |k| <= 2 mode_bound (none when mode_bound is
        None) and theta_x at k in `span`.  Each comparison is made at most
        once per (pick, node, k), whichever rows read the image; a test
        stops at its first failure, and nothing is kept across calls.

        One verdict per node serves every row kind.  A node i = mu^a i0,
        a > 0, i0 the least node of i's orbit, is set apart when eps_i !=
        eps_i0 or an image read, theta(pick, i, k), is not xi_N^(a k)
        theta(pick, i0, k).  A node that is the least of its classes is
        mirrored where theta_x at each k and theta_h at |k| <= mode_bound
        (the left operand of HXplus) pass the image check of the derived
        sign (`Realization.mirrors`), and in period where theta_x on `span`,
        and, where some class of the Cartan rows' (m, n) mod N has two
        members, theta_x and theta_h at |k| <= 2 mode_bound are periodic in
        t1 (`Realization.in_period`): the images that a member of a residue
        class of rows reads in place of its first row's."""
        real = self.real
        step = real.field // self.n_order  # xi_N = xi_L^step
        cartan = h_span = range(0)
        if mode_bound is not None:
            cartan = range(-2 * mode_bound, 2 * mode_bound + 1)
            h_span = range(-mode_bound, mode_bound + 1)
        ks = set(cartan).union(span)
        # the Cartan periodicity test is made only where a member can be placed
        shared = bool(cartan) and _shared_classes(mode_bound, self.n_order)
        # (pick, k) of every image read: theta_h at the Cartan rows' k only
        reads = [(pick, k) for k in ks for pick in ((0, 1, 2) if k in cartan else (0, 1))]
        audit = _Audit(set(), set(), set())
        heads = []
        for i in range(self.gcm.n):
            i0, a = _orbit_shift(self.mu, i)
            if not a:
                heads.append(i)
            elif real.eps[i] != real.eps[i0] or not all(
                _turned(real._theta(p, i, k), real._theta(p, i0, k), a * k * step)
                for p, k in reads
            ):
                audit.apart.add(i)
                heads.append(i)
        for i in heads:
            if all(real.mirrors(0, i, k) for k in ks) and all(real.mirrors(2, i, k) for k in h_span):
                audit.mirrored.add(i)
            if real.in_period(i, span) and (not shared or real.in_period(i, cartan, (0, 1, 2))):
                audit.in_period.add(i)
        return audit

    def _verify_weighted(
        self,
        kind: str,
        terms: tuple,
        i0: int,
        j0: int,
        arity: int,
        mode_bound: int,
        memos: dict,
        mirror: bool = False,
    ) -> RelationReport:
        """Relation `kind` with the `terms` of `_transport` on the pair
        (i0, j0), with `arity` z-slots: each summand reads the nested
        bracket of (i0, j0) at its modes.  Every check sums in Q(xi_F), F
        the lcm of L and the orders of the coefficients.  `memos` maps each
        sign to the memo of (i0, j0), the pair (values, reps) of `_nested`
        for the picks (0, 0) of sign +1 or (1, 1) of sign -1.  With
        `mirror` (the images of i0 and j0 pass the image check of `_audit`)
        only sign +1 is evaluated, and the check of sign -1 is derived from
        it, each residual r as (-1)^(arity + 1) omega_hat(r).  The rows of
        the signs evaluated go through `_class_rows` together."""
        field = lcm(self.real.field, *(c.order for _, c, _ in terms))
        # per term: the slot that each mode reads, w last
        slots = [(sigma + (arity,), c, exps) for sigma, c, exps in terms]
        b = mode_bound
        grid = f"|m|,|n|<={b}" if kind == "X" else f"modes in [-{b},{b}]^{arity + 1}"
        rows = [
            (RelationCheck(kind + ("plus" if sign > 0 else "minus"), (i0, j0), sign, grid),
             (0, 0) if sign > 0 else (1, 1), memos[sign], None)
            for sign in ((+1,) if mirror else (+1, -1))
        ]
        checks = self._class_rows(i0, j0, rows, slots, arity + 1, mode_bound, field)
        if mirror:
            omega, sign = self.real.omega, (-1) ** (arity + 1)
            checks.append(_derived(checks[0], (i0, j0), -1, lambda modes, r: omega(r, sign)))
        return RelationReport(checks)

    def _class_rows(
        self, i: int, j: int, rows: list, slots: list, width: int, mode_bound: int, field=None
    ) -> list:
        """Count and sum the row of each check of `rows` on the pair (i, j)
        at every output tuple `out` of [-mode_bound, mode_bound]^width, in
        order, and return the checks.  `rows` holds per check (chk, picks,
        memo, expected): its row at `out` sums, per (read, c, exps) of
        `slots`, c times the nested bracket `_nested(memo, i, j, picks, k)`
        at k_t = out[q] + exps[q], q = read_t, plus the terms
        `expected(out, False)` of its expected value (None: none), in
        Q(xi_field) (`_check`).

        The member rule of the module docstring is here.  Where some
        residue class of `out` mod N has two rows (`_shared_classes`) and
        the memos have reps (the callers give every memo reps or none), the
        first row of each class is summed in full, and a later row of the
        class, a member, is placed from it: it takes the first row's loop
        residual, moved sum(out) - sum(r), and sums only the central parts
        of its summands, each outermost accumulation of the first row's
        plan (`_class_plan`) placed at the member's degrees
        (`Realization.place_central`), and of its expected value,
        `expected(out, True)`.  Every other row is summed in full.  One
        residue key per `out` serves every check."""
        big_n = self.n_order
        place = self.real.place_central
        grouped = _shared_classes(mode_bound, big_n) and rows[0][2][1] is not None
        # residues -> (sum of the class's first modes, per check (chk,
        # expected) and its `_class_plan`)
        firsts: dict = {}
        for out in itertools.product(range(-mode_bound, mode_bound + 1), repeat=width):
            key = tuple([m % big_n for m in out]) if grouped else None
            first = firsts.get(key)
            if first is not None:
                degree = sum(out)
                for chk, expected, loop, plan in first[1]:
                    # each summand's outermost accumulation placed at its
                    # modes: its slots read every output mode once, so its
                    # inner level's mode sum is sum(out) - out_q + sum(exps) - exps_q
                    row = []
                    for c, q, d1, d2, acc in plan:
                        got = place(acc, out[q] + d1, degree - out[q] + d2)
                        if got:
                            row.append((c, got))
                    if expected is not None:
                        row += expected(out, True)
                    self._check(chk, out, row, field, loop, degree - first[0])
                continue
            plans = []
            for chk, picks, memo, expected in rows:
                row = []
                for read, c, exps in slots:
                    # a memo key: from a list the tuple is allocated once;
                    # from a generator it is allocated at a guessed size
                    # and shrunk, which raised the peak RSS of a suite
                    modes = tuple([out[q] + exps[q] for q in read])
                    row.append((c, self._nested(memo, i, j, picks, modes)))
                if expected is not None:
                    row += expected(out, False)
                total = self._check(chk, out, row, field)
                if grouped:  # the first row of its class
                    plans.append((chk, expected, *self._class_plan(memo[1], slots, out, total)))
            if grouped:
                firsts[key] = (sum(out), plans)
        return [row[0] for row in rows]

    def _class_plan(self, reps: dict, slots: list, out_modes: tuple, total: dict) -> tuple:
        """What the later rows of the class of `out_modes`, whose first row
        was just summed to `total`, are placed from, where the member rule
        of the module docstring holds: the loop part of `total`, as (key,
        coefficient) pairs, and the plan of their central parts, per summand
        whose outermost accumulation (r1, r_degree, acc) in `reps` has a
        pairing sum (coefficient, q, exps_q - r1, sum(exps) - exps_q -
        r_degree, acc), q its outermost slot."""
        loop = [(k, c) for k, c in total.items() if k[0] == "L"]
        plan = []
        for read, c, exps in slots:
            rep = reps.get(tuple([(out_modes[q] + exps[q]) % self.n_order for q in read]))
            if rep is not None and rep[2][2]:
                q = read[0]
                plan.append((c, q, exps[q] - rep[0], sum(exps) - exps[q] - rep[1], rep[2]))
        return loop, plan

    def _nested(self, memo: tuple, i: int, j: int, picks: tuple, modes: tuple):
        """[theta(p, i, k_1), [..., [theta(p, i, k_s), theta(q, j, n)]]] at
        modes (k_1, ..., k_s, n), (p, q) = `picks`, each pick 0, 1 or 2 for
        x^+, x^- or h (`Realization._theta`): (0, 0) and (1, 1) for the
        weighted rows of sign +1 and -1, and at s = 1 (2, 2), (2, 0), (2, 1)
        and (0, 1) for the H, HXplus, HXminus and XX rows.

        `memo` is (values, reps) of one pair of picks: the values by modes,
        and per residue class of modes mod N the first modes r of the class
        with a nonzero inner bracket, with the kernel's accumulate step on
        them, from which every value of the
        class is placed (see the module docstring).  This is the only place
        where the verifier accumulates: a member row of a residue class of
        rows, weighted or Cartan, places its central parts from the same
        accumulations (`_class_plan`, `_class_rows`).  With reps None (an
        image of the pair is not periodic in t1) every value is bracketed
        directly."""
        if len(modes) == 1:
            return self.real._theta(picks[1], j, modes[0])
        values, reps = memo
        hit = values.get(modes)
        if hit is None:
            tail = modes[1:]
            inner = self._nested(memo, i, j, picks, tail)
            outer = self.real._theta(picks[0], i, modes[0])
            if not inner:  # [x, 0] = 0 meets no basis pair
                hit = values[modes] = {}
                return hit
            if reps is None:
                hit = values[modes] = self.real.place(self.real.accumulate(outer, inner), 0, 0)
                return hit
            big_n = self.n_order
            key = tuple([m % big_n for m in modes])
            degree = sum(tail)
            rep = reps.get(key)
            if rep is None:
                rep = reps[key] = (modes[0], degree, self.real.accumulate(outer, inner))
            r1, r_degree, acc = rep
            hit = values[modes] = self.real.place(acc, modes[0] - r1, degree - r_degree)
        return hit

    def verify_P1_at_window(self, fam: SerreFamily, mode_bound: int) -> RelationReport:
        """Window-scale certificate for an arbitrary family.

        Covers exactly the pairs the family defines; a pass certifies the
        identities on the tested mode grid only.
        """
        return self.verify_family("P1", fam, mode_bound)

    # -- full suites --------------------------------------------------------------

    def run_suite(
        self, fam: SerreFamily, mode_bound: int, certificate: bool = False
    ) -> RelationReport:
        """Every relation family; with `certificate`, the weighted relations
        of `fam` are checked as a window-scale certificate (P1) instead.

        The weighted relations go one class of pairs at a time (see
        `_pair_classes`), so that the locality, AS and Serre (or P1) checks
        of every pair in a class share its memos of nested brackets.
        """
        loc, extra, fam = _suite_families(self.gcm, self.mu, fam)
        suite = (("X", loc), ("AS", extra), ("P1" if certificate else "DS", fam))
        audit = self._audit(mode_bound, _weighted_span(suite, mode_bound))
        report = self.verify_cartan_relations(mode_bound, audit)
        if not extra.entries:
            report.extend(_vacuous("AS"))
        report.extend(self._verify_classes(suite, mode_bound, audit))
        return report


class _Audit(NamedTuple):
    """What `Verifier._audit` found, as sets of nodes, one verdict per node
    for every row kind:
    * `apart`: those set apart from their orbit's least node;
    and among the least nodes of their classes, those whose images read
    * `mirrored`: pass the image check of the derived sign;
    * `in_period`: are periodic in t1 (the Cartan test made
      only where some class of the Cartan rows' (m, n) mod N has two
      members).
    A pair is evaluated with its orbit's least pair, derives sign -1 or
    places the members of its residue classes of rows only where both its
    nodes pass the test of that shortcut."""

    apart: set
    mirrored: set
    in_period: set


def _weighted_span(suite: tuple, mode_bound: int) -> range:
    """The modes k of the theta_x images that the weighted rows of `suite`
    read: out + e, |out| <= mode_bound, e an exponent of its families."""
    exps = [x for _, fam in suite for e in _exponents(fam) for x in e]
    return range(min(exps, default=0) - mode_bound, max(exps, default=0) + mode_bound + 1)


def _shared_classes(mode_bound: int, big_n: int) -> bool:
    """Whether some residue class mod N of the modes in [-mode_bound,
    mode_bound] has two members, so that a later row of a class is read
    off its first (see the module docstring)."""
    return 2 * mode_bound + 1 > big_n


def _turned(image, first, turn: int) -> bool:
    """Whether image = xi_L^turn first, key by key, for two generator
    images."""
    if len(image) != len(first):
        return False
    for key, c in first.items():
        d = image.get(key)
        if d is None or d != (c.rotated(turn) if turn % c.order else c):
            return False
    return True


def _orbit_shift(mu, i: int) -> tuple:
    """(i0, a): i0 the least node of i's mu-orbit, a least with mu^a i0 = i."""
    i0 = min(mu.apply(i, k) for k in range(mu.order))
    return i0, next(a for a in range(mu.order) if mu.apply(i0, a) == i)


def _pair_classes(mu, n: int, apart) -> list:
    """The ordered pairs of nodes grouped by the least nodes (i0, j0) of
    their mu-orbits: per class, the triples (i, j, (a, b)) in (i, j) order,
    with (i, j) = (mu^a i0, mu^b j0), a and b least, so that the first
    triple is (i0, j0, (0, 0)).  A node of `apart` is its own least node."""
    classes: dict = {}
    shifts = [(i, 0) if i in apart else _orbit_shift(mu, i) for i in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        (i0, a), (j0, b) = shifts[i], shifts[j]
        classes.setdefault((i0, j0), []).append((i, j, (a, b)))
    return list(classes.values())


def _vacuous(kind: str) -> RelationReport:
    """Two passing checks that stand for a relation with no pairs to check."""
    return RelationReport(
        [RelationCheck(kind + sign, (), 0, "vacuous", checked=1) for sign in ("plus", "minus")]
    )


def _derived(chk: RelationCheck, pair: tuple, sign: int, residual) -> RelationCheck:
    """The check of `pair` and `sign` derived from `chk`: the same checked
    count and failure count, each residual r at modes `modes` as
    residual(modes, r); a sign other than chk's turns the kind's "plus" to
    "minus".  Every list and residual of the result is its own."""
    kind = chk.kind if sign == chk.sign else chk.kind.removesuffix("plus") + "minus"
    failures = []
    for modes, r in chk.failures:
        failures.append((modes, residual(modes, r)))
    return RelationCheck(kind, pair, sign, chk.grid, chk.checked, failures, chk.failure_count)


def _suite_families(gcm, mu, fam: SerreFamily) -> tuple:
    """The weighted families of a suite: locality, the extra relation of
    A_1^(1) and `fam`."""
    return family_locality(gcm, mu), family_as(gcm, mu), fam


# ---------------------------------------------------------------------------
# window sizing


def _exponents(fam: SerreFamily) -> list:
    """The exponent tuples of every term of the family's polynomials."""
    return [e for sigmas in fam.entries.values() for poly in sigmas.values() for e in poly.terms]


def family_max_degree(fam: SerreFamily) -> int:
    """Largest |exponent| of any variable across all family polynomials."""
    return max((abs(x) for e in _exponents(fam) for x in e), default=0)


def suite_window(gcm, mu, fam: SerreFamily, mode_bound: int) -> tuple[int, int]:
    """A window that holds every bracket of the relation suite at this bound.

    Every bracket is exact, so this sizes only the windows of span
    closures (`Realization.fixed_subalgebra_dims`) and of the
    benchmark's realizations.  t1: the worst intermediate degree of a nested
    bracket with all operand modes within mode_bound plus the largest
    |exponent| of the suite's families; t2: nesting depth, since every
    generator lives in t2-degrees {-1, 0, 1}.
    """
    deg = max(family_max_degree(f) for f in _suite_families(gcm, mu, fam))
    arity = max((1 - a for row in gcm.entries for a in row if a < 0), default=1)
    m1 = (arity + 1) * (mode_bound + deg) + 2
    m2 = arity + 3
    return m1, m2
