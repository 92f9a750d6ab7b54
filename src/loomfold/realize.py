"""Concrete exact realization of the extended loop algebra and its twist.

Layers:

* g-level (`GAlg`): the finite algebra itself, or its loop-affinization
  Aff = (sum_m t2^m (x) gdot_[m]) + C k2 with the degree cocycle.  Elements
  ("AffElem") are sparse dicts over keys ("g", m2, basis index) | ("k2",)
  with CycNum coefficients; no truncation is needed at this level.  The
  bracket and the form go per t2-block through the finite algebra's
  `bracket` and `pair`, plus the cocycle m delta_{m+n,0} (u|v) k2; only the
  hot `Realization.bracket` reads the structure tables itself.
* ghat-level: the universal central extension over t1.  Elements
  ("AlgElem") are sparse dicts over keys
      ("L", m1, m2, basis index)   loop vectors t1^m1 t2^m2 (x) v
      ("K1",)                      the t1-direction center
      ("K1p", m1, m2)              divided center symbols, m2 != 0
      ("K2", m1)                   t1^m1 (x) k2
  inside a window |m1| <= m1w, |m2| <= m2w.  Brackets that would leave the
  window raise OutOfWindow instead of truncating.

The twist nu of a loop core comes from `chevalley.diagram_twist`.  The
diagram automorphism mu acts at g-level as the `Echelon` that
`Realization.mu_on_g` propagates from the generator images, and at
ghat-level in two variants: `MuHatClosed`, its closed form when mu preserves
the t2-grading, and `MuHat`, propagated by brackets in every case.

`Realization.bracket` is the verifier's hot path and one fused loop over
basis pairs.  It builds no CycNum per pair: each contributing pair adds the
int convolution of the two numerator tuples (2 phi(L) - 1 ints, one int when
phi(L) = 1), times the int structure constant, to an unreduced sum per
output key, all over one running denominator (the lazy sums of `exactnum`).
Each sum is reduced modulo Phi_L and canonicalised once, when the bracket
returns; central pairings are summed per pair of degree blocks and reduced
once per block.  The structure tables are ints (see `chevalley`), so the
int fast path covers every pair whose operands lie in Q(xi_L) with
denominator 1: in the relation suites of every catalog entry at modes 1,
no pair leaves it.

Affine Chevalley generators are found uniformly from lowest-weight vectors
of the relevant eigenspace; a Realization verifies them against the full
defining-relation suite (`_assert_generators`) before use.  The verified
table, not any formula, is normative.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from loomfold.cartan import Gcm, _graph_iso, canonical_matrix
from loomfold.chevalley import chevalley, close, diagram_twist, mu_extend_finite
from loomfold.errors import (
    GeneratorAssertionFailed,
    InconsistentPropagation,
    OutOfWindow,
    ScopeViolation,
)
from loomfold.exactnum import (
    CycNum,
    Echelon,
    cyc_root,
    euler_phi,
    kernel_basis,
    lazy_add,
    lazy_align,
    lazy_reduce,
    lazy_settle,
    perm_orbits,
    proportional,
    vec_add,
)
from loomfold.folding import DiagramAut, fold_data, validate_aut

AffElem = dict
AlgElem = dict


# ---------------------------------------------------------------------------
# sparse-dict helpers


def vec_scale(v: dict, c) -> dict:
    if isinstance(c, CycNum) and c.is_zero():
        return {}
    return {k: x * c for k, x in v.items()}


# ---------------------------------------------------------------------------
# g-level algebra


class GAlg:
    """The finite algebra or its t2-loop affinization, with generators."""

    def __init__(self, classification):
        self.cls = classification
        self.mode = classification.kind  # "finite" | "affine"
        self.r = max(1, classification.twist)
        core, self.nu = diagram_twist(classification.letter, classification.rank, self.r)
        alg = self.alg = chevalley(core)
        self.nu_images = (
            mu_extend_finite(alg, self.nu) if self.r > 1 else [alg.unit(i) for i in range(alg.dim)]
        )
        if self.mode == "finite":
            self.canonical_gens = [
                tuple(_lift_finite(v) for v in (alg.e(c), alg.f(c), alg.h(c)))
                for c in range(alg.rank)
            ]
        else:
            self.canonical_gens = _affine_generators(self)

    # -- element arithmetic ---------------------------------------------------

    def bracket(self, x: AffElem, y: AffElem) -> AffElem:
        """The loop bracket: per pair of t2-blocks, t2^(m+n) (x) [u, v], plus
        the cocycle m (u|v) k2 when m + n = 0 != m (affine only)."""
        alg = self.alg
        affine = self.mode == "affine"
        out: AffElem = {}
        y_blocks = _t2_blocks(y)
        for m, u in _t2_blocks(x).items():
            for n, v in y_blocks.items():
                vec_add(out, {("g", m + n, t): c for t, c in alg.bracket(u, v).items()})
                if affine and m + n == 0 and m != 0:
                    s = alg.pair(u, v)
                    if s:
                        vec_add(out, {("k2",): s * m})
        return out

    def pair(self, x: AffElem, y: AffElem) -> CycNum:
        """The invariant form; k2 pairs to zero with everything."""
        y_blocks = _t2_blocks(y)
        total = CycNum.zero()
        for m, u in _t2_blocks(x).items():
            v = y_blocks.get(-m)
            if v:
                total = total + self.alg.pair(u, v)
        return total


def _t2_blocks(x: AffElem) -> dict:
    """The g-part of x split by t2-degree: {m2: {basis index: coefficient}}."""
    blocks: dict = {}
    for k, c in x.items():
        if k[0] == "g":
            blocks.setdefault(k[1], {})[k[2]] = c
    return blocks


def _lift_finite(v) -> AffElem:
    return {("g", 0, i): CycNum.from_rational(c) for i, c in v.items()}


def _affine_generators(galg: GAlg) -> list:
    """Generators for the canonical affine matrix, found uniformly.

    Nodes 1.. are folded orbit triples of the finite core; node 0 comes from
    the lowest-weight line of the t2-degree-1 eigenspace.  The resulting
    matrix is matched to the canonical affine matrix by diagram isomorphism.
    """
    alg = galg.alg
    r = galg.r
    orbits = perm_orbits(galg.nu)

    computed: list[tuple[AffElem, AffElem, AffElem]] = [None]  # node 0 later
    for orbit in orbits:
        adjacent = any(
            alg.matrix[p][q] != 0 for p in orbit for q in orbit if p != q
        )
        lam = 2 if adjacent else 1
        e: AffElem = {}
        f: AffElem = {}
        h: AffElem = {}
        for p in orbit:
            vec_add(e, _lift_finite(alg.e(p)))
            vec_add(f, _lift_finite(alg.f(p)), CycNum.from_rational(lam))
            vec_add(h, _lift_finite(alg.h(p)), CycNum.from_rational(lam))
        computed.append((e, f, h))

    # lowest-weight line of the degree-1 eigenspace, highest of degree -1
    xi = cyc_root(r, 1)
    dim = alg.dim

    def weight_line(eigenvalue: CycNum, ops: list) -> dict:
        """The one v, up to scale, in the finite algebra with nu(v) =
        eigenvalue v and [op, v] = 0 for every op: the kernel of the matrix
        whose column j stacks nu(e_j) - eigenvalue e_j and the [op, e_j]."""
        columns = []
        for j in range(dim):
            col = {(0, t): CycNum.from_rational(s) for t, s in galg.nu_images[j].items()}
            vec_add(col, {(0, j): -eigenvalue})
            for o, op in enumerate(ops, 1):
                for key, c in galg.bracket(op, {("g", 0, j): CycNum.one()}).items():
                    if key[0] != "g" or key[1] != 0:
                        raise GeneratorAssertionFailed(
                            f"{alg.label}: weight-line bracket left t2-degree 0 at {key}"
                        )
                    col[(o, key[2])] = c
            columns.append(col)
        kernel = kernel_basis(columns, CycNum.one())
        if len(kernel) != 1:
            raise GeneratorAssertionFailed(
                f"{alg.label}: weight line has dimension {len(kernel)}"
            )
        return kernel[0]

    lows = weight_line(xi, [computed[t][1] for t in range(1, len(computed))])
    highs = weight_line(xi.inverse(), [computed[t][0] for t in range(1, len(computed))])
    v_low: AffElem = {("g", 1, i): lows[i] for i in sorted(lows)}
    v_high: AffElem = {("g", -1, i): highs[i] for i in sorted(highs)}
    h_dot = galg.bracket(v_low, v_high)
    ad_back = galg.bracket(h_dot, v_low)
    kappa = proportional(ad_back, v_low)
    if kappa is None or kappa.is_zero():
        raise GeneratorAssertionFailed(f"{alg.label}: degenerate node-0 normalization")
    scale = CycNum.from_rational(2) / kappa
    v_high = vec_scale(v_high, scale)
    coroot0 = galg.bracket(v_low, v_high)
    k2 = galg.pair(v_low, v_high)
    if k2.is_zero():
        raise GeneratorAssertionFailed(f"{alg.label}: node-0 coroot has no k2 part")
    coroot0[("k2",)] = k2
    computed[0] = (v_low, v_high, coroot0)

    # read off the matrix and align with the canonical affine matrix
    n_nodes = len(computed)
    a_comp = [[0] * n_nodes for _ in range(n_nodes)]
    for s in range(n_nodes):
        for t in range(n_nodes):
            if s == t:
                a_comp[s][t] = 2
                continue
            br = galg.bracket(computed[s][2], computed[t][0])
            lamb = proportional(br, computed[t][0])
            if lamb is None or not lamb.is_rational():
                raise GeneratorAssertionFailed(f"{alg.label}: node pairing not diagonal")
            q = lamb.as_fraction()
            if q.denominator != 1:
                raise GeneratorAssertionFailed(f"{alg.label}: node pairing {q} not integral")
            a_comp[s][t] = int(q)
    canonical = canonical_matrix(galg.cls.label)
    iso = _graph_iso(canonical, tuple(tuple(row) for row in a_comp))
    if iso is None:
        raise GeneratorAssertionFailed(
            f"computed matrix for {galg.cls.label} does not match the canonical one"
        )
    return [computed[iso[c]] for c in range(n_nodes)]


# ---------------------------------------------------------------------------
# Realization


class Realization:
    """Everything needed to evaluate brackets of generator modes exactly.

    All coefficients live in one field Q(xi_L), L = lcm(ord mu, r): the
    generators are lifted into it once, here, and the generator images
    carry their phases xi_N^k as elements of it, so brackets of generator
    images never coerce between cyclotomic orders.
    """

    def __init__(self, gcm: Gcm, mu, m1_window: int = 24, m2_window: int = 8):
        self.gcm = gcm
        self.mu = mu if isinstance(mu, DiagramAut) else validate_aut(gcm, mu)
        self.fold = fold_data(gcm, self.mu)
        self.cls = gcm.classify()
        self.m1w = m1_window
        self.m2w = m2_window
        self.n_order = self.mu.order
        self.galg = GAlg(self.cls)
        self.field = lcm(self.n_order, self.galg.r)
        self._phi = euler_phi(self.field)
        alg = self.galg.alg
        self._brackets, self._form = alg.brackets, alg.form
        perm = self._node_perm()
        self.gens = [
            tuple(
                {k: c.lift(self.field) for k, c in v.items()}
                for v in self.galg.canonical_gens[perm[i]]
            )
            for i in range(gcm.n)
        ]
        self._assert_generators()
        self.eps = gcm.symmetrizer(self._coroot_form).eps
        self._theta_cache: dict = {}
        self._mu_g: list | None = None

    def _node_perm(self) -> tuple:
        """Input node -> canonical node.  The classification's isomorphism,
        unless mu moves the node it sends to the affine node 0: then the
        first isomorphism sending a mu-fixed node to 0, if there is one, so
        that a grading-preserving twist keeps its generator images graded."""
        perm, mu = self.cls.perm, self.mu.perm
        if self.cls.kind == "affine" and mu[perm.index(0)] != perm.index(0):
            for f in range(self.gcm.n):
                if mu[f] == f:
                    pinned = _graph_iso(self.gcm.entries, self.cls.canonical, pin=(f, 0))
                    if pinned is not None:
                        return pinned
        return perm

    def _phase(self, k: int) -> CycNum:
        """xi_N ** k as an element of the realization's field Q(xi_L)."""
        return cyc_root(self.field, k * (self.field // self.n_order))

    # -- generator sanity -------------------------------------------------------

    def _assert_generators(self):
        a = self.gcm.entries
        n = self.gcm.n
        g = self.galg
        for i in range(n):
            ei, fi, hi = self.gens[i]
            for j in range(n):
                ej, fj, hj = self.gens[j]
                if g.bracket(hi, hj):
                    raise GeneratorAssertionFailed(f"[h{i}, h{j}] != 0")
                for vec, sign in ((ej, 1), (fj, -1)):
                    got = g.bracket(hi, vec)
                    want = vec_scale(vec, CycNum.from_rational(sign * a[i][j]))
                    if got != want:
                        raise GeneratorAssertionFailed(
                            f"[h{i}, x{j}^{'+' if sign > 0 else '-'}] mismatch"
                        )
                got = g.bracket(ei, fj)
                want = hi if i == j else {}
                if got != want:
                    raise GeneratorAssertionFailed(f"[e{i}, f{j}] mismatch")
                if i != j:
                    for pick in (0, 1):
                        v = (ej, fj)[pick]
                        op = (ei, fi)[pick]
                        for _ in range(1 - a[i][j]):
                            v = g.bracket(op, v)
                        if v:
                            raise GeneratorAssertionFailed(
                                f"ad power relation fails at ({i},{j})"
                            )

    def _coroot_form(self, i: int, j: int) -> Fraction:
        val = self.galg.pair(self.gens[i][2], self.gens[j][2])
        return val.as_fraction()

    # -- ghat-level elements ------------------------------------------------------

    def _check_window(self, m1: int, m2: int):
        if abs(m1) > self.m1w or abs(m2) > self.m2w:
            raise OutOfWindow(f"degree ({m1},{m2}) outside window ({self.m1w},{self.m2w})")

    def embed(self, m1: int, x: AffElem) -> AlgElem:
        out: AlgElem = {}
        for k, c in x.items():
            if k[0] == "g":
                self._check_window(m1, k[1])
                out[("L", m1, k[1], k[2])] = c
            else:
                self._check_window(m1, 0)
                out[("K2", m1)] = c
        return out

    def bracket(self, x: AlgElem, y: AlgElem) -> AlgElem:
        """Exact bracket in the extended algebra; raises OutOfWindow.

        One lazy sum (see `exactnum`): each contributing basis pair adds the
        int convolution of its two numerator tuples, times the structure
        constant, to an unreduced sum per output key, and times the pairing
        to a sum per pair of degree blocks.  A pair outside the int fast
        path (an operand of another order than the running field, or a
        product denominator other than the running one) goes through
        `lazy_align`, which lifts and rescales.  Each output sum is reduced
        modulo Phi_L and canonicalised once, at the end; every coefficient
        lies in Q(xi_lcm) of the orders of the operand coefficients that
        met in a contributing pair.

        Central contributions are summed per pair of degree blocks and
        tested for zero before the symbol reduction: single basis-key
        pairings may be nonzero off the loop lattice even though the block
        contraction of honestly graded elements cancels there.
        """
        brackets, form = self._brackets, self._form
        m1w, m2w = self.m1w, self.m2w
        order, phi, den = self.field, self._phi, 1
        sums: dict = {}  # output key -> unreduced numerators over den
        central: dict = {}  # (m1, m2, n1, n2) -> unreduced summed pairing
        for kx, cx in x.items():
            if kx[0] != "L":
                continue
            m1, m2, b = kx[1], kx[2], kx[3]
            ax, ox, dx = cx.nums, cx.order, cx.den
            for ky, cy in y.items():
                if ky[0] != "L":
                    continue
                bc = (b, ky[3])
                entry = brackets.get(bc)
                pairing = form.get(bc)
                if not entry and not pairing:
                    continue
                n1, n2 = ky[1], ky[2]
                p1 = m1 + n1
                p2 = m2 + n2
                if entry and (abs(p1) > m1w or abs(p2) > m2w):
                    raise OutOfWindow(
                        f"bracket degree ({p1},{p2}) leaves window ({m1w},{m2w})"
                    )
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
            self._central_symbols(central, order, sums)
        return lazy_settle(sums, order, den)

    def _central_symbols(self, central: dict, order: int, sums: dict) -> None:
        """Add the central symbols of the summed block pairings to `sums`."""
        affine = self.galg.mode == "affine"
        r = self.galg.r
        m1w, m2w = self.m1w, self.m2w
        for (m1, m2, n1, n2), total in central.items():
            total = lazy_reduce(order, total)
            if total is None:
                continue
            p1 = m1 + n1
            p2 = m2 + n2
            if affine:
                if p2 == 0:
                    if p1 == 0 and m1 != 0:
                        lazy_add(sums, ("K1",), total, m1)
                    if m2 != 0:
                        if abs(p1) > m1w:
                            raise OutOfWindow(f"central degree {p1} leaves window {m1w}")
                        lazy_add(sums, ("K2", p1), total, m2)
                else:
                    if p2 % r != 0:
                        raise InconsistentPropagation(
                            "central term at a degree outside the loop lattice"
                        )
                    factor = m1 * n2 - m2 * n1
                    if factor:
                        if abs(p1) > m1w or abs(p2) > m2w:
                            raise OutOfWindow(f"central degree ({p1},{p2}) leaves window")
                        lazy_add(sums, ("K1p", p1, p2), total, factor)
            else:
                if p1 == 0 and m1 != 0:
                    lazy_add(sums, ("K1",), total, m1)

    # -- generator images -----------------------------------------------------------

    def theta_x(self, i: int, m: int, sign: int) -> AlgElem:
        """t1^m (x) averaged raising (sign=+1) or lowering (sign=-1) vector."""
        return self._theta(0 if sign > 0 else 1, i, m)

    def theta_h(self, i: int, m: int) -> AlgElem:
        return self._theta(2, i, m)

    def _theta(self, pick: int, i: int, m: int) -> AlgElem:
        """t1^m (x) the mu-average of generator `pick` (e, f, h) of node i."""
        key = (pick, i, m)
        cached = self._theta_cache.get(key)
        if cached is None:
            total: AlgElem = {}
            for k in range(self.n_order):
                node = self.mu.apply(i, k)
                vec_add(total, self.embed(m, self.gens[node][pick]), self._phase(-k * m))
            cached = self._theta_cache[key] = total
        return cached

    def theta_c(self) -> AlgElem:
        return {("K1",): CycNum.one(self.field)}

    # -- the automorphism at g-level ---------------------------------------------------

    def mu_on_g(self) -> Echelon:
        """The diagram automorphism extended to the g-level algebra.

        Generator images (and k2 -> k2) are propagated along bracket words
        of t2-degree at most max(4, m2 window); two routes to the same
        element must agree, which is checked on every insertion.  Returns
        the partial linear map, built once.
        """
        if self._mu_g is None:
            galg = self.galg
            t2_bound = max(4, self.m2w)
            seeds = [
                pair
                for i in range(self.gcm.n)
                for pair in zip(self.gens[i], self.gens[self.mu.perm[i]])
            ]
            if galg.mode == "affine":
                k2 = {("k2",): CycNum.one()}
                seeds.append((k2, k2))
            prop = Echelon()
            close(
                prop,
                seeds,
                seeds,
                galg.bracket,
                keep=lambda v: all(k[0] != "g" or abs(k[1]) <= t2_bound for k in v),
            )
            # a twisted core's eigenspace dimensions vary: coverage is checked on use
            if galg.r == 1:
                dim = galg.alg.dim
                expected = dim * (2 * t2_bound + 1) + 1 if galg.mode == "affine" else dim
                if prop.rank < expected:
                    raise InconsistentPropagation(
                        f"automorphism propagation covers {prop.rank} of {expected}"
                    )
            self._mu_g = prop
        return self._mu_g

    def mu_hat(self) -> "MuHat":
        return MuHat(self)

    # -- fixed subalgebra --------------------------------------------------------------

    def block_keys(self, m1: int, m2: int) -> list:
        """Basis keys of the (t1, t2)-degree block of the extended algebra."""
        keys = [("L", m1, m2, idx) for idx in range(self.galg.alg.dim)]
        if self.galg.mode == "affine":
            if m2 == 0:
                keys.append(("K2", m1))
                if m1 == 0:
                    keys.append(("K1",))
            elif m2 % self.galg.r == 0:
                keys.append(("K1p", m1, m2))
        else:
            if m1 == 0 and m2 == 0:
                keys.append(("K1",))
        return keys

    def fixed_subalgebra_dims(self, inner_m1: int, inner_m2: int | None = None):
        """Per-block fixed dimension against the generated-subalgebra rank.

        Supported when the lifted automorphism preserves the t2-grading:
        finite matrices, untwisted affine matrices with a grading-preserving
        permutation, or the identity.  Returns {block: (fixed, generated)}.
        """
        mu_map = self.mu_on_g()
        if self.galg.mode == "affine" and self.galg.r > 1:
            raise ScopeViolation("fixed-block dimensions need an untwisted loop core")
        if any(
            _t2_blocks(src).keys() != _t2_blocks(img).keys()
            for i in range(self.gcm.n)
            for src, img in zip(self.gens[i], self.gens[self.mu.perm[i]])
        ):
            raise ScopeViolation(
                "fixed-block dimensions need a grading-preserving automorphism"
            )
        if self.galg.mode == "finite":
            inner_m2 = 0
        elif inner_m2 is None:
            inner_m2 = max(1, inner_m1 - 1)
        hat = MuHatClosed(self, mu_map)
        blocks = {}
        span = self._theta_span(inner_m1, inner_m2)
        for m1 in range(-inner_m1, inner_m1 + 1):
            for m2 in range(-inner_m2, inner_m2 + 1):
                keys = self.block_keys(m1, m2)
                key_set = set(keys)
                moved = Echelon()  # the span of mu_hat - 1 on the block
                for key in keys:
                    img = hat.apply({key: CycNum.one()})
                    if not set(img) <= key_set:
                        raise InconsistentPropagation("automorphism left the block")
                    vec_add(img, {key: -CycNum.one()})
                    moved.insert(img, {})
                fixed = len(keys) - moved.rank
                generated = span.get((m1, m2), 0)
                blocks[(m1, m2)] = (fixed, generated)
        return blocks

    def _theta_span(self, inner_m1: int, inner_m2: int):
        """Rank per block of the bracket closure of the generator images.

        The closure keeps |m1| <= inner_m1 + margin, as MuHat keeps its
        m1_bound; brackets further out are skipped.
        """
        margin = 2
        out_m1 = inner_m1 + margin
        out_m2 = inner_m2 + margin
        if out_m1 > self.m1w or out_m2 > self.m2w:
            raise OutOfWindow("window too small for the requested inner blocks")
        seeds = [self.theta_c()]
        for i in range(self.gcm.n):
            for m in range(-out_m1, out_m1 + 1):
                seeds.append(self.theta_x(i, m, +1))
                seeds.append(self.theta_x(i, m, -1))
                seeds.append(self.theta_h(i, m))
        ad = [(s, {}) for s in seeds if s and _max_m1(s) <= 1]
        prop = Echelon()
        close(
            prop,
            [(s, {}) for s in seeds],
            ad,
            self.bracket,
            keep=lambda v: _max_m1(v) <= out_m1,
        )
        ranks: dict = {}
        for pivot in prop.rows:
            m1, m2 = _key_degrees(pivot)
            if abs(m1) <= inner_m1 and abs(m2) <= inner_m2:
                ranks[(m1, m2)] = ranks.get((m1, m2), 0) + 1
        return ranks


def _key_degrees(key) -> tuple[int, int]:
    if key[0] == "L":
        return key[1], key[2]
    if key[0] == "K1p":
        return key[1], key[2]
    if key[0] == "K2":
        return key[1], 0
    return 0, 0


# ---------------------------------------------------------------------------
# the automorphism at ghat-level: the closed form and the propagated map


class MuHatClosed:
    """Degree-wise action when the automorphism preserves the t2-grading.

    Loop vectors transform by the g-level map (`Realization.mu_on_g`) with a
    t1-phase.  The divided center symbols transform by the same phase times
    a per-degree scale that is read off from a central bracket of Cartan
    loop vectors: the one-line naive phase rule is wrong whenever the block
    maps of the automorphism twist the finite form.
    """

    def __init__(self, real: Realization, mu_map: Echelon):
        self.real = real
        self.map = mu_map
        self._k1p_scales: dict[int, CycNum] = {}

    def _k1p_scale(self, m2: int) -> CycNum:
        cached = self._k1p_scales.get(m2)
        if cached is None:
            alg = self.real.galg.alg
            h_idx = alg.h_idx[0]
            u = self.map.apply({("g", 0, h_idx): CycNum.one()})
            v = self.map.apply({("g", m2, h_idx): CycNum.one()})
            num = CycNum.zero()
            for ub in _t2_blocks(u).values():
                for vb in _t2_blocks(v).values():
                    num = num + alg.pair(ub, vb)
            base = alg.form[(h_idx, h_idx)]
            cached = self._k1p_scales[m2] = num.mul_rational(Fraction(1) / base)
        return cached

    def apply(self, x: AlgElem) -> AlgElem:
        out: AlgElem = {}
        for key, c in x.items():
            if key[0] in ("L", "K2"):
                m1 = key[1]
                g_key = ("g", key[2], key[3]) if key[0] == "L" else ("k2",)
                img = self.real.embed(m1, self.map.apply({g_key: CycNum.one()}))
                vec_add(out, img, c * self.real._phase(-m1))
            elif key[0] == "K1":
                vec_add(out, {key: c})
            elif key[0] == "K1p":
                scale = self.real._phase(-key[1]) * self._k1p_scale(key[2])
                vec_add(out, {key: c * scale})
        return out


class MuHat:
    """The lifted automorphism, built extensionally by bracket propagation.

    Valid for every case, including degree-shifting (transitive) twists.
    The span covers the seeds and their iterated brackets; applying the map
    outside the span raises, and conflicting routes raise on insertion.
    """

    def __init__(self, real: Realization, m1_bound: int = 3, depth: int = 3):
        self.real = real
        self.n = real.n_order
        prop = Echelon()
        seeds = []
        for i in range(real.gcm.n):
            for m in range(-m1_bound, m1_bound + 1):
                for pick in range(3):
                    src = real.embed(m, real.gens[i][pick])
                    img = vec_scale(
                        real.embed(m, real.gens[real.mu.perm[i]][pick]), real._phase(-m)
                    )
                    seeds.append((src, img))
        seeds.append((real.theta_c(), real.theta_c()))
        ad = [s for s in seeds if _max_m1(s[0]) <= 1]
        close(
            prop, seeds, ad, real.bracket, keep=lambda v: _max_m1(v) <= m1_bound, rounds=depth - 1
        )
        self.prop = prop

    def apply(self, x: AlgElem) -> AlgElem:
        return self.prop.apply(x)

    def order_check(self, sample: list) -> bool:
        for x in sample:
            cur = x
            for _ in range(self.n):
                cur = self.apply(cur)
            if cur != x:
                return False
        return True

    def bracket_check(self, pairs: list) -> bool:
        for x, y in pairs:
            lhs = self.apply(self.real.bracket(x, y))
            rhs = self.real.bracket(self.apply(x), self.apply(y))
            if lhs != rhs:
                return False
        return True

    def fixes(self, x: AlgElem) -> bool:
        return self.apply(x) == x


def _max_m1(v: AlgElem) -> int:
    out = 0
    for k in v:
        d = abs(_key_degrees(k)[0])
        if d > out:
            out = d
    return out


def affinize(label: str):
    """Concrete generators for a canonical affine label, plus their algebra.

    Returns (GAlg, generator list).  The generators are checked here only
    as far as their construction needs: the matrix is read off [h_s, e_t]
    and matched to the canonical one.  The full defining-relation suite runs
    on them in `Realization._assert_generators`, when a Realization is built.
    """
    from loomfold.cartan import classify, canonical_matrix

    cls = classify(canonical_matrix(label))
    if cls.kind != "affine":
        raise ScopeViolation(f"{label} is not an affine label")
    galg = GAlg(cls)
    return galg, galg.canonical_gens
