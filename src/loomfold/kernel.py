"""The bracket kernel of the loop algebras in `realize`, in two steps.

Elements are the sparse dicts of `realize`: loop keys ("L", m1, m2, basis
index) and the central keys ("K1",), ("K1p", m1, m2) and ("K2", m1).
`_loop_bracket` accumulates: the verifier's hot path, one fused loop over
basis pairs (met through `FiniteAlg.partners`) on the lazy int sums of
`exactnum`.  `_place` finishes: it moves the loop part in t1 and puts the
central symbols at the actual degrees (`_central`, which the verifier also
calls alone), since K1 and K1p weigh a block by each operand's t1-degree.
The structure tables are ints (see `chevalley`), so the int fast path covers
every pair whose operands lie in Q(xi_L) with denominator 1: in the relation
suites of every catalog entry at modes 1, no pair leaves it.
"""

from __future__ import annotations

from loomfold.errors import InconsistentPropagation
from loomfold.exactnum import euler_phi, lazy_add, lazy_align, lazy_reduce, lazy_settle


def _loop_bracket(alg, field: int, x: dict, y: dict):
    """The accumulate step of [x, y] in the central extension over t1 of the
    t2-loop algebra of the core `alg`: everything `_place` needs to finish
    the bracket at any t1-shift of its operands.

    One lazy sum (see `exactnum`) started in Q(xi_field): each contributing
    basis pair adds the int convolution of its two numerator tuples (2 phi - 1
    ints, or one; written out at phi = 2), times the structure constant, to
    an unreduced sum per output key, and times the pairing to a sum per pair
    of degree blocks.  A
    pair off the int fast path (an operand of another order than the running
    field, or a product denominator other than the running one) goes through
    `lazy_align`.  Each sum is reduced once, at the end; every coefficient
    lies in Q(xi_lcm) of the orders of the operand coefficients that met in
    a contributing pair.  Central sums are tested for zero before any symbol
    is placed: single basis-key pairings may be nonzero off the loop lattice
    even though the block contraction of honestly graded elements cancels
    there.

    Returns (loop, central, order, den): the settled loop part, the nonzero
    reduced pairing sums per degree block (m1, m2, n1, n2), and their field
    and denominator.
    """
    partners = alg.partners
    order, phi, den = field, euler_phi(field), 1
    sums: dict = {}  # output key -> unreduced numerators over den
    central: dict = {}  # (m1, m2, n1, n2) -> unreduced summed pairing
    for kx, cx in x.items():
        if kx[0] != "L":
            continue
        row = partners.get(kx[3])
        if row is None:
            continue
        m1, m2 = kx[1], kx[2]
        ax, ox, dx = cx.nums, cx.order, cx.den
        for ky, cy in y.items():
            if ky[0] != "L":
                continue
            hit = row.get(ky[3])
            if hit is None:
                continue
            entry, pairing = hit
            n1, n2 = ky[1], ky[2]
            p1 = m1 + n1
            p2 = m2 + n2
            ay = cy.nums
            if ox != order or cy.order != order or dx * cy.den != den:
                order, den, cx, ay = lazy_align((sums, central), order, den, cx, cy)
                ax, ox, dx = cx.nums, cx.order, cx.den
                phi = euler_phi(order)
            if phi == 1:
                prod = ax[0] * ay[0]
                if entry:
                    for t, s in entry.items():
                        key = ("L", p1, p2, t)
                        sums[key] = sums.get(key, 0) + s * prod
                if pairing:
                    degs = (m1, m2, n1, n2)
                    central[degs] = central.get(degs, 0) + pairing * prod
                continue
            if phi == 2:  # Q(xi_3), Q(xi_4), Q(xi_6): most twists of order > 2
                a0, a1 = ax
                b0, b1 = ay
                prod = [a0 * b0, a0 * b1 + a1 * b0, a1 * b1]
            else:
                prod = [0] * (2 * phi - 1)
                for i, u in enumerate(ax):
                    if u:
                        for j, v in enumerate(ay, i):
                            prod[j] += u * v
            if entry:
                for t, s in entry.items():
                    key = ("L", p1, p2, t)
                    cur = sums.get(key)
                    if cur is None:
                        sums[key] = [s * v for v in prod]
                    else:
                        for i, v in enumerate(prod):
                            cur[i] += s * v
            if pairing:
                degs = (m1, m2, n1, n2)
                cur = central.get(degs)
                if cur is None:
                    central[degs] = [pairing * v for v in prod]
                else:
                    for i, v in enumerate(prod):
                        cur[i] += pairing * v
    if central:
        for degs in list(central):
            total = central[degs] = lazy_reduce(order, central[degs])
            if total is None:
                del central[degs]
    return lazy_settle(sums, order, den) if sums else {}, central, order, den


def _place(acc, affine: bool, r: int, d1: int, d2: int) -> dict:
    """The place step: [x', y'] from `acc`, the `_loop_bracket` of (x, y),
    for x', y' the loop keys of x, y moved d1, d2 in t1.  The loop part is
    acc's moved d1 + d2, and the central terms are `_central`'s.  acc is
    not changed; its loop part may be returned itself.
    """
    central = _central(acc, affine, r, d1, d2)
    loop = acc[0]
    shift = d1 + d2
    if shift and loop:
        loop = {("L", k[1] + shift, k[2], k[3]): c for k, c in loop.items()}
    return {**loop, **central} if central else loop


def _central(acc, affine: bool, r: int, d1: int, d2: int) -> dict:
    """The central terms of `_place` with no loop key walked: they go at the
    actual degrees, with k2 and its degree cocycle when `affine` and the
    divided center symbols on the loop lattice t2^(r Z): K1 (factor m1,
    where p1 = 0), K2(p1) (factor m2) and K1p(p1, p2) (factor m1 n2 - m2 n1).
    """
    _, central, order, den = acc
    if not central:
        return {}
    sums: dict = {}
    for (m1, m2, n1, n2), total in central.items():
        m1 += d1
        n1 += d2
        p1 = m1 + n1
        p2 = m2 + n2
        if not affine or p2 == 0:
            if p1 == 0 and m1 != 0:
                lazy_add(sums, ("K1",), total, m1)
            if affine and m2 != 0:
                lazy_add(sums, ("K2", p1), total, m2)
        elif p2 % r != 0:
            raise InconsistentPropagation("central term at a degree outside the loop lattice")
        elif m1 * n2 != m2 * n1:
            lazy_add(sums, ("K1p", p1, p2), total, m1 * n2 - m2 * n1)
    return lazy_settle(sums, order, den) if sums else {}
