"""Compare `Verifier.run_suite` with the shortcut-free reference of the
tests (`reference_report` in tests/conftest.py) beyond the tier-1 cases.

    PYTHONPATH=src python tools/refcheck.py MODES [ENTRY...] [--seed S]

On every catalog entry, or on the ENTRY names given: family p, the
classical limit where it is in scope, and the criterion-9 plain family
(weight 1 in the identity slot of every pair).  With --seed S each entry
is first relabelled as the tests' property relabels it (`relabelled` in
tests/conftest.py, its nodes renumbered by the permutation that seed S
shuffles).  Prints one line per (entry, family): "ok" or "DIFF", the checks
counted and the seconds of the reference; exits 1 if any report differs.
At MODES 2 the whole catalog takes about 8 s on one core of a 2-CPU
machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import reference_report, relabelled  # noqa: E402

from loomfold.catalog import builtin_entries, entry_by_name  # noqa: E402
from loomfold.errors import ScopeViolation  # noqa: E402
from loomfold.polys import LPoly, SerreFamily, family_p, family_qlimit  # noqa: E402
from loomfold.presentation import Verifier  # noqa: E402
from loomfold.realize import Realization  # noqa: E402


def _plain(fam: SerreFamily) -> SerreFamily:
    plain = SerreFamily("plain")
    for pair, sigmas in fam.entries.items():
        variables = next(iter(sigmas.values())).vars
        plain.entries[pair] = {
            s: LPoly.one(variables) if s == (0, 1) else LPoly.zero(variables) for s in sigmas
        }
    return plain


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="compare run_suite with the reference")
    parser.add_argument("modes", type=int)
    parser.add_argument("entries", nargs="*", metavar="ENTRY")
    parser.add_argument("--seed", type=int, default=None, help="relabel each entry first")
    args = parser.parse_args(argv)
    modes = args.modes
    entries = [entry_by_name(name) for name in args.entries] or builtin_entries()
    if args.seed is not None:
        entries = [relabelled(e, args.seed) for e in entries]
    differ = 0
    for e in entries:
        fam = family_p(e.gcm, e.mu)
        families = [("p", fam, False), ("plain", _plain(fam), True)]
        try:
            families.append(("qlimit", family_qlimit(e.gcm, e.mu), True))
        except ScopeViolation:
            pass
        for tag, family, certificate in families:
            got = Verifier(Realization(e.gcm, e.mu)).run_suite(family, modes, certificate)
            t0 = time.perf_counter()
            want = reference_report(
                Realization(e.gcm, e.mu), family, modes, "P1" if certificate else "DS"
            )
            seconds = time.perf_counter() - t0
            same = got.to_json() == want.to_json()
            differ += not same
            checked = sum(c.checked for c in got.checks)
            print(f"{e.name} {tag}: {'ok' if same else 'DIFF'} {checked} {seconds:.2f}s")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
