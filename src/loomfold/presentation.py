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
images in the realization.  A reported failure therefore carries an
explicit nonzero residual element that can be re-checked independently.

A pass certifies the identity on the tested grid only; for the built-in
families the grid is the whole statement being claimed here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from loomfold.errors import OutOfWindow
from loomfold.exactnum import CycNum, cyc_root, lin_comb, vec_add, vec_scale
from loomfold.polys import SerreFamily, family_as, family_locality, family_split
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
    memos {+1: {}, -1: {}} that belong to one pair (i, j) and that the
    caller passes: `verify_family` gives each pair fresh memos, and
    `run_suite` gives each pair one set, shared by all its relations.
    """

    def __init__(self, real: Realization):
        self.real = real
        self.gcm = real.gcm
        self.mu = real.mu
        self.n_order = real.n_order

    # -- degree-zero relations ------------------------------------------------

    def verify_cartan_relations(self, mode_bound: int) -> RelationReport:
        real = self.real
        n = self.gcm.n
        a = self.gcm.entries
        big_n = self.n_order
        eps = real.eps
        grid = f"|m|,|n|<={mode_bound}"
        report = RelationReport()
        k1 = real.theta_c()

        for i in range(n):
            chk_h = RelationCheck("H", (i,), 0, grid)
            chk_x = RelationCheck("Xperiod", (i,), 0, grid)
            mi = self.mu.perm[i]
            for m in range(-mode_bound, mode_bound + 1):
                phase = cyc_root(big_n, m)
                _expect(chk_h, (m,), real.theta_h(mi, m), vec_scale(real.theta_h(i, m), phase))
                for sign in (+1, -1):
                    _expect(
                        chk_x,
                        (m, sign),
                        real.theta_x(mi, m, sign),
                        vec_scale(real.theta_x(i, m, sign), phase),
                    )
                    xc = real.bracket(real.theta_x(i, m, sign), k1)
                    if xc:
                        chk_x.record_failure((m, sign, "c"), xc)
                hc = real.bracket(real.theta_h(i, m), k1)
                if hc:
                    chk_h.record_failure((m, "c"), hc)
            report.checks.append(chk_h)
            report.checks.append(chk_x)

        for i in range(n):
            for j in range(n):
                chk_hh = RelationCheck("H", (i, j), 0, grid)
                chk_hx_p = RelationCheck("HXplus", (i, j), +1, grid)
                chk_hx_m = RelationCheck("HXminus", (i, j), -1, grid)
                chk_xx = RelationCheck("XX", (i, j), 0, grid)
                for m in range(-mode_bound, mode_bound + 1):
                    hm = real.theta_h(i, m)
                    # sum_k xi_N^(km) a_(i, mu^k j), the phase sum in the
                    # expected H and HX coefficients; it does not depend on nn
                    phases = CycNum.zero(big_n)
                    for k in range(big_n):
                        phases = phases + cyc_root(big_n, k * m).mul_rational(
                            a[i][self.mu.apply(j, k)]
                        )
                    want_hh = vec_scale(k1, phases.mul_rational(Fraction(m * big_n) / eps[j]))
                    for nn in range(-mode_bound, mode_bound + 1):
                        got = real.bracket(hm, real.theta_h(j, nn))
                        _expect(chk_hh, (m, nn), got, want_hh if m + nn == 0 else {})

                        for sign, chk in ((+1, chk_hx_p), (-1, chk_hx_m)):
                            got = real.bracket(hm, real.theta_x(j, nn, sign))
                            want = vec_scale(
                                real.theta_x(j, m + nn, sign), phases if sign > 0 else -phases
                            )
                            _expect(chk, (m, nn), got, want)

                        got = real.bracket(real.theta_x(i, m, +1), real.theta_x(j, nn, -1))
                        want = {}
                        for k in range(big_n):
                            if self.mu.apply(j, k) != i:
                                continue
                            phase = cyc_root(big_n, k * m)
                            vec_add(want, real.theta_h(j, m + nn), phase)
                            if m + nn == 0:
                                vec_add(
                                    want,
                                    k1,
                                    phase.mul_rational(Fraction(m * big_n) / eps[j]),
                                )
                        _expect(chk_xx, (m, nn), got, want)
                report.checks.append(chk_hh)
                report.checks.append(chk_hx_p)
                report.checks.append(chk_hx_m)
                report.checks.append(chk_xx)
        return report

    # -- weighted nested relations ---------------------------------------------------

    def verify_family(self, kind: str, fam: SerreFamily, mode_bound: int) -> RelationReport:
        """Check every pair of `fam`, in sorted order, as relation `kind`."""
        report = RelationReport()
        for i, j in sorted(fam.entries):
            report.extend(self._verify_weighted(kind, fam, i, j, mode_bound, {+1: {}, -1: {}}))
        return report

    def _verify_weighted(
        self, kind: str, fam: SerreFamily, i: int, j: int, mode_bound: int, memos: dict
    ) -> RelationReport:
        real = self.real
        field = real.field
        report = RelationReport()
        arity = fam.arity(i, j)
        prepared = []
        for sigma, poly in sorted(fam.entries[(i, j)].items()):
            if poly.is_zero():
                continue
            # each coefficient lifted once into Q(xi_lcm(order, L)), where its
            # products with the bracket values live
            terms = [(c.lift(lcm(c.order, field)), e) for e, c in sorted(poly.terms.items())]
            prepared.append((sigma, terms))
        if kind == "X":
            grid = f"|m|,|n|<={mode_bound}"
        else:
            grid = f"modes in [-{mode_bound},{mode_bound}]^{arity + 1}"
        for sign in (+1, -1):
            chk = RelationCheck(kind + ("plus" if sign > 0 else "minus"), (i, j), sign, grid)
            memo = memos[sign]
            for out_modes in itertools.product(
                range(-mode_bound, mode_bound + 1), repeat=arity + 1
            ):
                summands = []
                try:
                    for sigma, terms in prepared:
                        for coeff, exps in terms:
                            ops = tuple(
                                out_modes[sigma[p]] + exps[sigma[p]]
                                for p in range(arity)
                            )
                            modes = ops + (out_modes[arity] + exps[arity],)
                            summands.append((coeff, self._nested(memo, i, j, sign, modes)))
                except OutOfWindow:
                    chk.gaps.append(out_modes)
                    continue
                chk.checked += 1
                total = lin_comb(summands, field)
                if total:
                    chk.record_failure(out_modes, total)
            report.checks.append(chk)
        return report

    def _nested(self, memo: dict, i: int, j: int, sign: int, modes: tuple):
        """[x_{i,k_1}, [..., [x_{i,k_s}, x_{j,n}]]] at modes (k_1, ..., k_s, n)."""
        if len(modes) == 1:
            return self.real.theta_x(j, modes[0], sign)
        hit = memo.get(modes)
        if hit is None:
            inner = self._nested(memo, i, j, sign, modes[1:])
            outer = self.real.theta_x(i, modes[0], sign)
            hit = memo[modes] = self.real.bracket(outer, inner)
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

    def verify_thm1_ds(self, mode_bound: int) -> RelationReport:
        """The case-split nested relations for finite matrices with a twist."""
        return self.verify_family("THM1_DS", family_split(self.gcm, self.mu), mode_bound)

    # -- full suites --------------------------------------------------------------

    def run_suite(
        self, fam: SerreFamily, mode_bound: int, certificate: bool = False
    ) -> RelationReport:
        """Every relation family; with `certificate`, the weighted relations
        of `fam` are checked as a window-scale certificate (P1) instead.

        The weighted relations go pair by pair, so that the locality, AS and
        Serre (or P1) checks of a pair share its memos of nested brackets.
        """
        loc, extra, fam = _suite_families(self.gcm, self.mu, fam)
        suite = (("X", loc), ("AS", extra), ("P1" if certificate else "DS", fam))
        report = self.verify_cartan_relations(mode_bound)
        if not extra.entries:
            report.extend(_vacuous("AS"))
        for i in range(self.gcm.n):
            for j in range(self.gcm.n):
                memos = {+1: {}, -1: {}}
                for kind, f in suite:
                    if (i, j) in f.entries:
                        report.extend(self._verify_weighted(kind, f, i, j, mode_bound, memos))
        return report


def _expect(chk: RelationCheck, modes: tuple, got: dict, want: dict) -> None:
    """Count one check of `chk`; record got - want when they differ."""
    chk.checked += 1
    if got != want:
        residual = dict(got)
        vec_add(residual, want, CycNum.from_rational(-1))
        chk.record_failure(modes, residual)


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
