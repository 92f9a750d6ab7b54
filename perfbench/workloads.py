"""The library workloads, as run inside one child process.

Each workload builds its state in `setup()` (the part a fresh process pays
before the timed work), then repeats `run_round()`, the same operations
every time.  An operation is one entry verified, one core built or one span
checked; it fails when the program raises or reports a failed relation.
Outputs of operations that did not fail go through `checks`, and anything
wrong lands in `problems`.
"""

from __future__ import annotations

import random
import sys
import time

from loomfold import Gcm, Realization, Verifier, family_p, suite_window, validate_aut
from loomfold.errors import LoomfoldError
from loomfold.polys import LPoly, SerreFamily
from loomfold.realize import MuHat

import checks


def _rows(report) -> list:
    return [(c.kind, c.pair, c.checked, c.passed, len(c.gaps)) for c in report.checks]


class Workload:
    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.jobs = inputs["jobs"]
        self.rng = random.Random(inputs["check_seed"])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (start, end) of each timed operation; None during set-up, which
        # the parent times as a whole
        self.intervals: list | None = None

    def _op(self, label: str, call):
        """Run one operation; a raise counts it as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return call()
        except LoomfoldError as exc:
            self.failed += 1
            print(f"operation {label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            if self.intervals is not None:
                self.intervals.append((t0, time.perf_counter()))

    def _build(self, job: dict):
        gcm = Gcm(job["cartan"])
        mu = validate_aut(gcm, job["mu"])
        fam = family_p(gcm, mu)
        m1, m2 = suite_window(gcm, mu, fam, job["modes"])
        return fam, Realization(gcm, mu, m1_window=m1, m2_window=m2)

    def _suite(self, job: dict, fam, real) -> None:
        report = self._op(job["name"], lambda: Verifier(real).run_suite(fam, job["modes"]))
        if report is None:
            return
        if not report.passed:
            self.failed += 1
            print(f"operation {job['name']} reported a failed relation", file=sys.stderr)
            return
        self.problems.extend(checks.suite_problems(job["name"], job["cartan"], _rows(report)))

    def setup(self) -> None:
        self.built = [(job, *self._build(job)) for job in self.jobs]

    def run_round(self) -> None:
        for job, fam, real in self.built:
            self._suite(job, fam, real)

    def final_checks(self) -> None:
        """Checks that call the program again; run untraced, after timing."""


class SuiteRot(Workload):
    """Full relation suites on the rotation entries."""


class BuildCores(Workload):
    """Realization builds (set-up, one operation each), then small suites."""

    def setup(self) -> None:
        self.built = []
        for job in self.jobs:
            out = self._op(job["name"], lambda: self._build(job))
            if out is not None:
                self.built.append((job, *out))

    def final_checks(self) -> None:
        for job, _, real in self.built:
            self.problems.extend(
                checks.core_problems(
                    job["name"], job["core"], real.galg.alg, self.inputs["jacobi_triples"], self.rng
                )
            )


class SpanRank(Workload):
    """Fixed-block dimensions against the generated span, and the lifted
    automorphism's order and bracket checks."""

    def setup(self) -> None:
        super().setup()
        self.samples = []
        for job, _, real in self.built:
            elems = []
            for i in range(real.gcm.n):
                for m in (-1, 0, 1):
                    elems += [real.theta_x(i, m, +1), real.theta_x(i, m, -1), real.theta_h(i, m)]
            elems = [e for e in elems if e]
            sample = [self.rng.choice(elems) for _ in range(6)]
            pairs = [(self.rng.choice(elems), self.rng.choice(elems)) for _ in range(6)]
            self.samples.append((sample, pairs))

    def _check_span(self, job: dict, real, sample: list, pairs: list) -> None:
        def op():
            blocks = real.fixed_subalgebra_dims(job["inner_m1"])
            hat = MuHat(real, m1_bound=2, depth=2)
            return blocks, hat, hat.order_check(sample), hat.bracket_check(pairs)

        out = self._op(job["name"], op)
        if out is None:
            return
        blocks, hat, order_ok, bracket_ok = out
        inner_m2 = 0 if real.galg.mode == "finite" else max(1, job["inner_m1"] - 1)
        self.problems.extend(checks.blocks_problems(job["name"], blocks, job["inner_m1"], inner_m2))
        if not (order_ok and bracket_ok):
            self.problems.append(f"{job['name']}: MuHat order {order_ok}, bracket {bracket_ok}")
        for x in sample:
            cur = dict(x)
            for _ in range(real.n_order):
                cur = hat.apply(cur)
            if cur != x:
                self.problems.append(f"{job['name']}: mu_hat^N is not the identity on the sample")
                break

    def run_round(self) -> None:
        for (job, _, real), (sample, pairs) in zip(self.built, self.samples):
            self._check_span(job, real, sample, pairs)

    def final_checks(self) -> None:
        """Criterion-9 negative control: the unweighted nesting must fail."""
        for job, fam, real in self.built:
            if job["name"] != "A2a-flip":
                continue
            plain = SerreFamily("plain")
            for pair, sigmas in fam.entries.items():
                ident = tuple(range(len(next(iter(sigmas)))))
                variables = next(iter(sigmas.values())).vars
                plain.entries[pair] = {
                    s: LPoly.one(variables) if s == ident else LPoly.zero(variables) for s in sigmas
                }
            report = Verifier(real).verify_P1_at_window(plain, job["modes"])
            failing = [c for c in report.checks if c.failures]
            if report.passed or not failing or not failing[0].failures[0][1]:
                self.problems.append("A2a-flip: negative control passed or has an empty residual")


WORKLOADS = {"suite-rot": SuiteRot, "build-cores": BuildCores, "span-rank": SpanRank}
