"""Seeded inputs for every workload.

The seed picks a relabelling of the nodes of the Cartan matrices (the twist
is conjugated to match), the CycNum operands, and the seed of the elements
that the MuHat checks and the benchmark-side Jacobi check use.  A relabelled pair is isomorphic to the original,
so the mathematical content and the amount of work stay the same while the
program sees a matrix it was not written around.
"""

from __future__ import annotations

import random
from fractions import Fraction

from loomfold.cartan import canonical_matrix
from loomfold.catalog import builtin_entries
from loomfold.exactnum import euler_phi

# name -> (Cartan matrix, twist, finite core of the realization)
_EXTRA = {
    "F4-id": ("F4", [0, 1, 2, 3], "F4"),
    "G2-id": ("G2", [0, 1], "G2"),
    "C3-id": ("C3", [0, 1, 2], "C3"),
}
_CORES = {"E6-flip": "E6", "D4a-triality": "D4"}

# (entry, mode bound) per workload; the quick variants keep every code path
# at a size the benchmark's own tests can afford.
SUITE_ROT = [("A2a-rot", 1), ("A3a-rot", 1), ("A4a-rot", 0), ("A5a-rot", 0)]
SUITE_ROT_QUICK = [("A2a-rot", 0), ("A3a-rot", 0)]
BUILD_CORES = [("E6-flip", 1), ("D4a-triality", 1), ("F4-id", 1), ("G2-id", 1), ("C3-id", 1)]
BUILD_CORES_QUICK = [("G2-id", 0), ("C3-id", 0)]
# (entry, mode bound that sizes the window, inner |m1| of the block grid)
SPAN_RANK = [("A2-flip", 1, 3), ("A2a-flip", 1, 3)]
SPAN_RANK_QUICK = [("A2-flip", 0, 2), ("A2a-flip", 0, 1)]
CLI_QUICK = ["A2-flip", "A1a-flip", "A2a-rot"]
CLI_MODES, CLI_MODES_QUICK = 1, 0

JACOBI_TRIPLES = 300
EXACTNUM_ORDERS = (1, 3, 4, 5, 6)
OPERANDS_PER_ORDER = 24


def base_pairs() -> dict:
    """name -> (matrix, twist) for the catalog plus the identity-twist cores."""
    out = {e.name: ([list(r) for r in e.gcm.entries], list(e.mu.perm)) for e in builtin_entries()}
    for name, (label, perm, _) in _EXTRA.items():
        out[name] = ([list(r) for r in canonical_matrix(label)], list(perm))
    return out


def relabel(matrix, perm, rng: random.Random):
    """The pair with its nodes renumbered by a random permutation p."""
    n = len(matrix)
    p = list(range(n))
    rng.shuffle(p)
    a = [[0] * n for _ in range(n)]
    mu = [0] * n
    for i in range(n):
        mu[p[i]] = p[perm[i]]
        for j in range(n):
            a[p[i]][p[j]] = matrix[i][j]
    return a, mu


def _job(name: str, pairs: dict, rng: random.Random | None, **extra) -> dict:
    matrix, perm = pairs[name]
    a, mu = relabel(matrix, perm, rng) if rng else (matrix, perm)
    core = _CORES.get(name) or _EXTRA.get(name, (None, None, None))[2]
    return {"name": name, "cartan": a, "mu": mu, "core": core, **extra}


def make_inputs(workload: str, seed: int, quick: bool) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    pairs = base_pairs()
    if workload == "suite-rot":
        spec = SUITE_ROT_QUICK if quick else SUITE_ROT
        jobs = [_job(n, pairs, rng, modes=m) for n, m in spec]
    elif workload == "build-cores":
        spec = BUILD_CORES_QUICK if quick else BUILD_CORES
        jobs = [_job(n, pairs, rng, modes=m) for n, m in spec]
    elif workload == "span-rank":
        spec = SPAN_RANK_QUICK if quick else SPAN_RANK
        # Not relabelled: fixed_subalgebra_dims accepts only the labellings
        # whose twist keeps the affine node fixed; the seed picks the
        # elements of the MuHat checks instead.
        jobs = [_job(n, pairs, None, modes=m, inner_m1=k) for n, m, k in spec]
    elif workload == "cli-catalog":
        names = CLI_QUICK if quick else [e.name for e in builtin_entries()]
        jobs = [_job(n, pairs, rng) for n in names]
        return {"jobs": jobs, "modes": CLI_MODES_QUICK if quick else CLI_MODES}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"jobs": jobs, "check_seed": rng.randrange(2**32), "jacobi_triples": JACOBI_TRIPLES}


def exactnum_operands(seed: int) -> dict:
    """order -> list of coefficient lists (low degree first), never zero."""
    rng = random.Random(f"exactnum:{seed}")
    out = {}
    for order in EXACTNUM_ORDERS:
        phi = euler_phi(order)
        ops = []
        while len(ops) < OPERANDS_PER_ORDER:
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)]
            if any(cs):
                ops.append(cs)
        out[order] = ops
    return out
