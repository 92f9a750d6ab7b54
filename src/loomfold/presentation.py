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
the pairs (mu^a i0, mu^a j0) of the class's least pair (i0, j0).  The
generator images (`Realization._theta`, with x = e, f or h) are

    theta(i, m) = sum_k xi_N^(-k m) t1^m (x) x_(mu^k i).

Reindexing k -> k - a, with mu^N = id (`validate_aut` ensures it) and
xi_N^N = 1, gives exactly

    theta(mu^a i, m) = sum_k xi_N^(-(k - a) m) t1^m (x) x_(mu^k i)
                     = xi_N^(a m) theta(i, m).

Both sides embed the same orbit of generators, so they also leave the
window at the same modes.  By bilinearity the nested bracket of
(mu^a i0, mu^a j0) at modes (k_1, ..., k_s, n) is
xi_N^(a (k_1 + ... + k_s + n)) times that of (i0, j0), and so is each
bracket of the Cartan checks H, HX and XX at modes (m, n); each raises
OutOfWindow exactly where the representative's does, since a nonzero
multiple has the same keys.  So only the representative is bracketed,
and every relation of the class is moved to it (see below).
The identity is also checked exactly on the grid: the Xperiod and H checks
of every node, which every report carries, compare theta(mu i, m) with
xi_N^m theta(i, m) at each mode, so a corrupted image fails the report.

The representative's nested brackets are bracketed once per residue class
of their modes mod N (`Verifier._nested`).  Since xi_N^(-k N) = 1,
theta(i, m + N) is theta(i, m) moved N in t1, key by key.  So when
(k_1, ..., k_s, n) = (r_1, ..., r_s, n') mod N, the operands of the
outermost bracket, theta(i, k_1) and the inner nested bracket, are on their
loop keys those at the modes r moved k_1 - r_1 and (k_2 + ... + n) -
(r_2 + ... + n') in t1 (by induction on s; central keys bracket to zero).
The kernel meets the same basis pairs with the same products, so the loop
part is r's moved sum(k) - sum(r), and the central terms come from the same
pairing sums per degree block, placed at the actual degrees
(`kernel._place`).  The first modes r of a class are accumulated with no
window, and every member, r included, is placed from them.  The operands
are still looked up at the actual modes, and the place step tests the moved
degree of every contributing pair and central term as the kernel would, so
a placed bracket raises OutOfWindow exactly where the direct one does, and
every report, gaps included, is unchanged.  A zero inner bracket gives zero
with no kernel call: it meets no basis pair, so it leaves no window either.

One rule moves a weighted relation of the pair (i, j) = mu^a (i0, j0) to
(i0, j0) (`Verifier._transport`).  A term c z^e of P_sigma, of total degree
d, reads at output modes `out` the nested bracket at modes of sum
sum(out) + d, so on the brackets of (i0, j0) its coefficient is

    c xi_N^(a (sum(out) + d)) = c xi_N^(a (d - D)) * xi_N^(a (sum(out) + D)),

with D the least total degree of the relation.  The first factor, the
transported coefficient, does not depend on the modes; the second is one
phase for the whole check.  So the report of (i, j) is that of the
transported relation on (i0, j0): the same checked count, gaps and failure
count, and each residual times xi_N^(a (sum(out) + D)) (`Verifier._phased`).
Both sum in Q(xi_F), since N divides L.  Each distinct transported relation
of a class is summed once, so pairs whose relations transport alike share
one evaluation, and the report of every pair is that of the pair evaluated
alone, for any family.  The Cartan checks of every shifted pair are derived
the same way, with D = 0: each expected value is the representative's times
xi_N^(a (m + n)) as well, because eps is mu-invariant.  `Gcm` rejects
decomposable matrices, so the symmetrizers of A are the positive multiples
of eps; `validate_aut` makes mu preserve A, so eps o mu is one of them,
c eps with c > 0, and mu^N = id gives c^N = 1, so c = 1.  A derived check
holds lists and residuals of its own.  Only the memo of the class in hand
is alive; it is dropped when the class is done.

A pass certifies the identity on the tested grid only; for the built-in
families the grid is the whole statement being claimed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from loomfold.errors import OutOfWindow
from loomfold.exactnum import CycNum, lin_comb, vec_scale
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


@dataclass
class RelationCheck:
    """Outcome of one relation family over its full mode grid."""

    kind: str
    pair: tuple
    sign: int  # +1, -1 or 0 when not sign-split
    grid: str
    checked: int = 0
    gaps: list = field(default_factory=list)  # mode tuples skipped (window)
    failures: list = field(default_factory=list)  # (modes, residual)
    failure_count: int = 0

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

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
        if self.gaps:
            out["out_of_window"] = [list(m) for m in self.gaps]
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

    @property
    def has_gaps(self) -> bool:
        return any(c.gaps for c in self.checks)

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
    """Runs relation families against one realization.

    The weighted relations evaluate right-nested brackets
    [x_{i,k_1}, [..., [x_{i,k_s}, x_{j,n}]]], memoised by mode suffix in
    one memo per sign, which also keeps one kernel accumulation per residue
    class of modes mod N: every nested bracket of the class is placed from
    it, shifted in t1, and raises OutOfWindow where a direct bracket would
    (see the module docstring).  `verify_family` and `run_suite` keep the
    memos of one class of pairs at a time.  Every relation of a pair
    mu^a (i0, j0) is transported to the representative (i0, j0), each
    distinct transported relation is summed once on its brackets, and the
    pair's report is its evaluation with each residual times
    xi_N^(a (sum(out) + D)).  The Cartan checks of every shifted pair are
    the representative's in the same way, with D = 0: they bracket nothing.
    Every check, of either kind, is counted and summed by `_check`.
    """

    def __init__(self, real: Realization):
        self.real = real
        self.gcm = real.gcm
        self.mu = real.mu
        self.n_order = real.n_order

    # -- degree-zero relations ------------------------------------------------

    def verify_cartan_relations(self, mode_bound: int) -> RelationReport:
        """The H and Xperiod checks of every node, then the H, HX and XX
        checks of every ordered pair, in (i, j) order.  `_cartan_pair`
        evaluates the representative (i0, j0) of each class; a shifted pair
        mu^a (i0, j0) takes its checks, each residual at modes (m, n) times
        xi_N^(a (m + n)).  So do its expected values: eps is mu-invariant
        (see the module docstring), and `validate_aut` makes
        a_(mu i, mu j) = a_(i, j), so the phase sums and the terms of the
        XX sums agree."""
        real = self.real
        grid = f"|m|,|n|<={mode_bound}"
        report = RelationReport()
        k1 = real.theta_c()
        one = CycNum.one(real.field)

        for i in range(self.gcm.n):
            chk_h = RelationCheck("H", (i,), 0, grid)
            chk_x = RelationCheck("Xperiod", (i,), 0, grid)
            mi = self.mu.perm[i]
            for m in range(-mode_bound, mode_bound + 1):
                minus = -real._phase(m)
                row = [(one, real.theta_h(mi, m)), (minus, real.theta_h(i, m))]
                self._check(chk_h, (m,), row)
                for sign in (+1, -1):
                    row = [(one, real.theta_x(mi, m, sign)), (minus, real.theta_x(i, m, sign))]
                    self._check(chk_x, (m, sign), row)
                    xc = real.bracket(real.theta_x(i, m, sign), k1)
                    if xc:
                        chk_x.record_failure((m, sign, "c"), xc)
                hc = real.bracket(real.theta_h(i, m), k1)
                if hc:
                    chk_h.record_failure((m, "c"), hc)
            report.checks.append(chk_h)
            report.checks.append(chk_x)

        pairs: dict = {}
        for cls in _pair_classes(self.mu, self.gcm.n):
            i0, j0, _ = cls[0]
            pairs[(i0, j0)] = self._cartan_pair(i0, j0, mode_bound)
            for i, j, shift in cls[1:]:
                pairs[(i, j)] = self._phased(pairs[(i0, j0)], (i, j), shift, 0)
        for pair in sorted(pairs):
            report.checks.extend(pairs[pair])
        return report

    def _cartan_pair(self, i: int, j: int, mode_bound: int) -> list:
        """The H, HXplus, HXminus and XX checks of the class representative
        (i, j): at modes (m, n), each bracket with its expected value
        subtracted, as one row."""
        real = self.real
        a = self.gcm.entries
        big_n = self.n_order
        k1 = real.theta_c()
        one = CycNum.one(real.field)
        span = range(-mode_bound, mode_bound + 1)
        grid = f"|m|,|n|<={mode_bound}"
        chk_hh = RelationCheck("H", (i, j), 0, grid)
        chk_hx_p = RelationCheck("HXplus", (i, j), +1, grid)
        chk_hx_m = RelationCheck("HXminus", (i, j), -1, grid)
        chk_xx = RelationCheck("XX", (i, j), 0, grid)
        # the k with mu^k j = i: the terms of the expected XX value
        meets = [k for k in range(big_n) if self.mu.apply(j, k) == i]

        for m in span:
            # sum_k xi_N^(km) a_(i, mu^k j), the phase sum in the expected H
            # and HX coefficients; it does not depend on nn
            phases = CycNum.zero(real.field)
            for k in range(big_n):
                phases = phases + real._phase(k * m).mul_rational(a[i][self.mu.apply(j, k)])
            # the central term m N / eps_j of the expected values at m + nn = 0
            central = Fraction(m * big_n) / real.eps[j]
            h_i = real.theta_h(i, m)
            for nn in span:
                row = [(one, real.bracket(h_i, real.theta_h(j, nn)))]
                if m + nn == 0:
                    row.append((-phases.mul_rational(central), k1))
                self._check(chk_hh, (m, nn), row)

                for sign, chk in ((+1, chk_hx_p), (-1, chk_hx_m)):
                    got = real.bracket(h_i, real.theta_x(j, nn, sign))
                    want = real.theta_x(j, m + nn, sign)
                    self._check(chk, (m, nn), [(one, got), (-phases if sign > 0 else phases, want)])

                row = [(one, real.bracket(real.theta_x(i, m, +1), real.theta_x(j, nn, -1)))]
                for k in meets:
                    phase = real._phase(k * m)
                    row.append((-phase, real.theta_h(j, m + nn)))
                    if m + nn == 0:
                        row.append((-phase.mul_rational(central), k1))
                self._check(chk_xx, (m, nn), row)
        return [chk_hh, chk_hx_p, chk_hx_m, chk_xx]

    def _check(
        self, chk: RelationCheck, modes: tuple, row: list, field: int | None = None
    ) -> None:
        """Count one check of `chk` at `modes`: the row of (coefficient,
        element) terms is summed in Q(xi_field), by default the
        realization's field, and a nonzero sum is recorded as the
        residual."""
        chk.checked += 1
        total = lin_comb(row, field or self.real.field)
        if total:
            chk.record_failure(modes, total)

    # -- weighted nested relations ---------------------------------------------------

    def verify_family(self, kind: str, fam: SerreFamily, mode_bound: int) -> RelationReport:
        """Check every pair of `fam`, in sorted order, as relation `kind`."""
        return self._verify_classes(((kind, fam),), mode_bound)

    def _verify_classes(self, suite: tuple, mode_bound: int) -> RelationReport:
        """Every (kind, family) of `suite` on every pair it defines, one
        class of pairs at a time, with one set of memos per class; the
        checks are returned in (i, j) order, in suite order within a pair.
        Each relation is transported to the class representative
        (`_transport`), each distinct transported relation is evaluated
        once, and every pair's report is phased from its evaluation."""
        by_pair: dict = {}
        for cls in _pair_classes(self.mu, self.gcm.n):
            memos = {+1: ({}, {}), -1: ({}, {})}
            evaluated: dict = {}
            i0, j0, _ = cls[0]
            for i, j, a in cls:
                for kind, fam in suite:
                    if (i, j) not in fam.entries:
                        continue
                    arity = fam.arity(i, j)
                    terms, degree = self._transport(fam.entries[(i, j)], a)
                    # a coefficient by its field and coordinates: CycNum has no hash
                    key = (kind, arity, tuple((s, e, c.order, c.nums, c.den) for s, c, e in terms))
                    part = evaluated.get(key)
                    if part is None:
                        part = evaluated[key] = self._verify_weighted(
                            kind, terms, i0, j0, arity, mode_bound, memos
                        )
                    by_pair.setdefault((i, j), []).extend(
                        self._phased(part.checks, (i, j), a, degree)
                    )
        report = RelationReport()
        for pair in sorted(by_pair):
            report.checks.extend(by_pair[pair])
        return report

    def _transport(self, sigmas: dict, a: int) -> tuple:
        """The relation {sigma: P_sigma} of a pair mu^a (i0, j0), moved to
        (i0, j0): its nonzero terms (sigma, c xi_N^(a (d - D)), exps), in
        (sigma, exps) order, with d the total degree of exps, D the least
        one and every coefficient c lifted into Q(xi_F), F the lcm of L and
        the orders of the pair's coefficients; and D (0 with no term).  At
        output modes `out` the summand of a term reads modes of sum
        sum(out) + d, so its coefficient on the brackets of (i0, j0) is
        c xi_N^(a (sum(out) + d)): the transported one times
        xi_N^(a (sum(out) + D)), one phase for the whole check."""
        real = self.real
        terms = [(s, e, c) for s, p in sorted(sigmas.items()) for e, c in sorted(p.terms.items())]
        field = lcm(real.field, *(c.order for _, _, c in terms))
        degree = min((sum(e) for _, e, _ in terms), default=0)
        out = []
        for s, e, c in terms:
            c = c.lift(field)
            k = a * (sum(e) - degree) % self.n_order
            out.append((s, c * real._phase(k) if k else c, e))
        return tuple(out), degree

    def _phased(self, checks: list, pair: tuple, a: int, degree: int) -> list:
        """The checks of `pair` = mu^a (i0, j0) read from `checks`, those of
        (i0, j0) for a relation whose summands all carry the phase
        xi_N^(a (sum(modes) + degree)) at output modes `modes`: the same
        checked count, gaps and failure count, and each residual times that
        phase.  Every list and residual of the result is its own."""
        out = []
        for chk in checks:
            failures = []
            for modes, residual in chk.failures:
                e = a * (sum(modes) + degree) % self.n_order
                residual = vec_scale(residual, self.real._phase(e)) if e else dict(residual)
                failures.append((modes, residual))
            out.append(replace(chk, pair=pair, gaps=list(chk.gaps), failures=failures))
        return out

    def _verify_weighted(
        self, kind: str, terms: tuple, i0: int, j0: int, arity: int, mode_bound: int, memos: dict
    ) -> RelationReport:
        """Relation `kind` with the `terms` of `_transport` on the pair
        (i0, j0), with `arity` z-slots: each summand reads the nested
        bracket of (i0, j0) at its modes.  Every check sums in Q(xi_F), F
        the lcm of L and the orders of the coefficients.  `memos` maps each
        sign to the memo of (i0, j0), the pair (values, reps) of
        `_nested`."""
        field = lcm(self.real.field, *(c.order for _, c, _ in terms))
        # per term: the slot that each mode reads, w last
        slots = [(sigma + (arity,), c, exps) for sigma, c, exps in terms]
        if kind == "X":
            grid = f"|m|,|n|<={mode_bound}"
        else:
            grid = f"modes in [-{mode_bound},{mode_bound}]^{arity + 1}"
        report = RelationReport()
        for sign in (+1, -1):
            chk = RelationCheck(kind + ("plus" if sign > 0 else "minus"), (i0, j0), sign, grid)
            memo = memos[sign]
            for out_modes in itertools.product(
                range(-mode_bound, mode_bound + 1), repeat=arity + 1
            ):
                summands = []
                try:
                    for read, c, exps in slots:
                        # a memo key: from a list the tuple is allocated once;
                        # from a generator it is allocated at a guessed size
                        # and shrunk, which raised the peak RSS of a suite
                        modes = tuple([out_modes[q] + exps[q] for q in read])
                        summands.append((c, self._nested(memo, i0, j0, sign, modes)))
                except OutOfWindow:
                    chk.gaps.append(out_modes)
                    continue
                self._check(chk, out_modes, summands, field)
            report.checks.append(chk)
        return report

    def _nested(self, memo: tuple, i: int, j: int, sign: int, modes: tuple):
        """[x_{i,k_1}, [..., [x_{i,k_s}, x_{j,n}]]] at modes (k_1, ..., k_s, n).

        `memo` is (values, reps) of one sign: the values by modes, and per
        residue class of modes mod N the first modes r of the class with
        operands in the window and a nonzero inner bracket, with the
        kernel's accumulate step on them, from which every value of the
        class is placed (see the module docstring)."""
        if len(modes) == 1:
            return self.real.theta_x(j, modes[0], sign)
        values, reps = memo
        hit = values.get(modes)
        if hit is None:
            tail = modes[1:]
            inner = self._nested(memo, i, j, sign, tail)
            outer = self.real.theta_x(i, modes[0], sign)
            if not inner:  # [x, 0] = 0 meets no basis pair, so leaves no window
                hit = values[modes] = {}
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

    def verify_AS(self, mode_bound: int) -> RelationReport:
        """The extra relation of A_1^(1); two vacuous checks on other matrices."""
        fam = family_as(self.gcm, self.mu)
        return self.verify_family("AS", fam, mode_bound) if fam.entries else _vacuous("AS")

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
        report = self.verify_cartan_relations(mode_bound)
        if not extra.entries:
            report.extend(_vacuous("AS"))
        report.extend(self._verify_classes(suite, mode_bound))
        return report


def _pair_classes(mu, n: int) -> list:
    """The ordered pairs of nodes grouped by the simultaneous shift
    (i, j) -> (mu i, mu j): per class, the triples (i, j, a) in (i, j)
    order, where a is the least shift taking the class's least pair to
    (i, j), so that the first triple is (i0, j0, 0)."""
    shift: dict = {}
    classes = []
    for i0, j0 in itertools.product(range(n), repeat=2):
        if (i0, j0) in shift:
            continue
        cls = []
        for a in range(mu.order):
            pair = (mu.apply(i0, a), mu.apply(j0, a))
            if pair not in shift:
                shift[pair] = a
                cls.append(pair + (a,))
        classes.append(sorted(cls))
    return classes


def _vacuous(kind: str) -> RelationReport:
    """Two passing checks that stand for a relation with no pairs to check."""
    return RelationReport(
        [RelationCheck(kind + sign, (), 0, "vacuous", checked=1) for sign in ("plus", "minus")]
    )


def _suite_families(gcm, mu, fam: SerreFamily) -> tuple:
    """The weighted families of a suite: locality, the extra relation of
    A_1^(1) and `fam`."""
    return family_locality(gcm, mu), family_as(gcm, mu), fam


# ---------------------------------------------------------------------------
# window sizing


def family_max_degree(fam: SerreFamily) -> int:
    """Largest |exponent| of any variable across all family polynomials."""
    exps = [e for sigmas in fam.entries.values() for poly in sigmas.values() for e in poly.terms]
    return max((abs(x) for e in exps for x in e), default=0)


def suite_window(gcm, mu, fam: SerreFamily, mode_bound: int) -> tuple[int, int]:
    """A window guaranteed to hold the whole relation suite at this bound.

    t1: the worst intermediate degree of a nested bracket with all operand
    modes within mode_bound plus the largest |exponent| of the suite's
    families; t2: nesting depth, since every generator lives in t2-degrees
    {-1, 0, 1}.
    """
    deg = max(family_max_degree(f) for f in _suite_families(gcm, mu, fam))
    arity = max((1 - a for row in gcm.entries for a in row if a < 0), default=1)
    m1 = (arity + 1) * (mode_bound + deg) + 2
    m2 = arity + 3
    return m1, m2
