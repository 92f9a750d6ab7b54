"""Checks of the program's outputs, computed apart from the program.

Each check returns a list of problems; an empty list means the output is
correct.  None of them compares against a saved copy of earlier output: the
references are textbook dimensions, identities the algebra must satisfy,
the relation families the Cartan matrix calls for, and sympy.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# dim of the finite simple Lie algebra of each type and rank
_DIM = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": lambda n: {6: 78, 7: 133, 8: 248}[n],
    "F": lambda n: 52,
    "G": lambda n: 14,
}


def textbook_dim(label: str) -> int:
    return _DIM[label[0]](int(label[1:]))


def expected_families(cartan) -> set:
    """(relation, pair) of every family a suite must check on this matrix."""
    n = len(cartan)
    out = set()
    for i in range(n):
        out.add(("H", (i,)))
        out.add(("Xperiod", (i,)))
        for j in range(n):
            for kind in ("H", "HXplus", "HXminus", "XX", "Xplus", "Xminus"):
                out.add((kind, (i, j)))
            if i != j and cartan[i][j] < 0:
                out.add(("DSplus", (i, j)))
                out.add(("DSminus", (i, j)))
    return out


def suite_problems(name: str, cartan, checks) -> list:
    """`checks` holds (relation, pair, checked, passed, out_of_window) rows."""
    problems = []
    seen = {}
    for kind, pair, checked, passed, gaps in checks:
        key = (kind, tuple(pair))
        seen[key] = seen.get(key, 0) + checked
        if not passed:
            problems.append(f"{name}: {kind}{tuple(pair)} failed")
        if gaps:
            problems.append(f"{name}: {kind}{tuple(pair)} left {gaps} modes out of window")
    for key in sorted(expected_families(cartan)):
        if seen.get(key, 0) <= 0:
            problems.append(f"{name}: relation {key[0]}{key[1]} missing or never checked")
    return problems


def core_problems(name: str, core: str, alg, triples: int, rng: random.Random) -> list:
    """Label, textbook dimension, antisymmetry and Jacobi on seeded triples,
    read straight from the structure table `alg.brackets`."""
    problems = []
    if alg.label != core:
        problems.append(f"{name}: core is {alg.label}, expected {core}")
    if alg.dim != textbook_dim(core):
        problems.append(f"{name}: dim {alg.dim}, textbook {textbook_dim(core)}")
    table = alg.brackets

    def br(u: dict, v: dict) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, s in table.get((i, j), {}).items():
                    out[k] = out.get(k, 0) + a * b * s
        return {k: c for k, c in out.items() if c}

    dim = alg.dim
    for _ in range(triples):
        x, y, z = ({rng.randrange(dim): Fraction(1)} for _ in range(3))
        xy, yx = br(x, y), br(y, x)
        if any(xy.get(k, 0) + yx.get(k, 0) for k in set(xy) | set(yx)):
            problems.append(f"{name}: bracket not antisymmetric at {list(x)}, {list(y)}")
            break
        total: dict = {}
        for term in (br(xy, z), br(br(y, z), x), br(br(z, x), y)):
            for k, c in term.items():
                total[k] = total.get(k, 0) + c
        if any(total.values()):
            problems.append(f"{name}: Jacobi fails at basis triple {list(x), list(y), list(z)}")
            break
    return problems


def blocks_problems(name: str, blocks: dict, inner_m1: int, inner_m2: int) -> list:
    """Every block of the inner grid is present and fixed == generated."""
    problems = []
    want = {(m1, m2) for m1 in range(-inner_m1, inner_m1 + 1) for m2 in range(-inner_m2, inner_m2 + 1)}
    if set(blocks) != want:
        problems.append(f"{name}: blocks {sorted(blocks)} do not cover the inner grid")
    for block, (fixed, generated) in sorted(blocks.items()):
        if fixed != generated:
            problems.append(f"{name}: block {block} fixed {fixed} != generated {generated}")
    return problems


def cli_problems(stdout: bytes, names: list, cartans: dict) -> list:
    """The full-catalog report passes every entry with every family checked."""
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"verify output is not JSON: {exc}"]
    problems = []
    if out.get("pass") is not True:
        problems.append("verify reports pass != true")
    got = [p.get("name") for p in out.get("entries", [])]
    if got != names:
        problems.append(f"verify reported entries {got}, expected {names}")
    for payload in out.get("entries", []):
        report = payload.get("report", {})
        if report.get("pass") is not True:
            problems.append(f"{payload.get('name')}: report pass != true")
        rows = [
            (c["relation"], c["pair"], c["checked"], c["pass"], len(c.get("out_of_window", [])))
            for c in report.get("checks", [])
        ]
        name = payload.get("name")
        if name in cartans:
            problems.extend(suite_problems(name, cartans[name], rows))
    return problems


def exactnum_problems(operands: dict) -> list:
    """CycNum products, sums and inverses against sympy: polynomials over Q
    reduced with Poly.rem modulo cyclotomic_poly(N)."""
    import sympy
    from loomfold.exactnum import CycNum

    x = sympy.Symbol("x")
    problems = []

    def poly(cs):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], x, domain="QQ")

    def coords(p, phi):
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        return tuple(cs + [Fraction(0)] * (phi - len(cs)))

    for order, ops in operands.items():
        phi_n = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")
        phi = phi_n.degree()
        nums = [CycNum(order, cs) for cs in ops]
        for k, (a, b) in enumerate(zip(ops, ops[1:] + ops[:1])):
            pa, pb = poly(a), poly(b)
            prod = nums[k] * nums[(k + 1) % len(nums)]
            if tuple(prod.coeffs) != coords((pa * pb).rem(phi_n), phi):
                problems.append(f"Q(xi_{order}): product {k} disagrees with sympy")
            total = nums[k] + nums[(k + 1) % len(nums)]
            if tuple(total.coeffs) != coords((pa + pb).rem(phi_n), phi):
                problems.append(f"Q(xi_{order}): sum {k} disagrees with sympy")
            inv = nums[k].inverse()
            if coords((pa * poly(list(inv.coeffs))).rem(phi_n), phi) != coords(sympy.Poly(1, x, domain="QQ"), phi):
                problems.append(f"Q(xi_{order}): inverse {k} is not an inverse under sympy")
    return problems
