"""Concrete exact realization of the extended loop algebra and its twist.

Elements ("AlgElem") are sparse dicts with CycNum coefficients over the keys
    ("L", m1, m2, basis index)   loop vectors t1^m1 t2^m2 (x) v
    ("K1",)                      the t1-direction center
    ("K1p", m1, m2)              divided center symbols, m2 != 0
    ("K2", m1)                   t1^m1 (x) k2
at two levels:

* g-level (`GAlg`): the finite algebra itself, or its loop-affinization
  Aff = (sum_m t2^m (x) gdot_[m]) + C k2 with the degree cocycle: the
  elements of t1-degree 0, over ("L", 0, m2, b) and ("K2", 0).
* ghat-level (`Realization`): the universal central extension of Aff over
  t1.  Every bracket is exact.  The window |m1| <= m1w, |m2| <= m2w bounds
  only the span closures of `fixed_subalgebra_dims` and `MuHat`, which keep
  the brackets inside it (`_inside`) and skip the rest.

One kernel (`kernel`) brackets both levels.  `Realization.bracket` runs
both of its steps at shift 0, with the core's lattice period r;
`accumulate`, `place` and `place_central` apart serve the verifier's
residue classes (see `presentation`): `Verifier._nested` accumulates and
places every bracket of a residue class, for the weighted and the Cartan
rows alike, and `Verifier._class_rows` places the central terms of a member
row.  `GAlg.bracket` passes period 1: it brackets in the full loop
algebra g (x) C[t2^+-1] + C k2, of which a twisted core's Aff is a
subalgebra, so that ungraded elements of a twisted core bracket too; at
t1-degree 0 no K1p symbol arises, since m1 n2 - m2 n1 = 0.

The twist nu of a loop core comes from `chevalley.diagram_twist`.  The
diagram automorphism mu acts at g-level as the `Echelon` that
`Realization.mu_on_g` propagates from the generator images, and at
ghat-level in two variants: `MuHatClosed`, its closed form when mu preserves
the t2-grading, and `MuHat`, propagated by brackets in every case.

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
    JobError,
    OutOfWindow,
    ScopeViolation,
)
from loomfold.exactnum import (
    CycNum,
    Echelon,
    cyc_root,
    kernel_basis,
    perm_orbits,
    proportional,
    vec_add,
    vec_scale,
)
from loomfold.folding import DiagramAut, fold_data, validate_aut
from loomfold.kernel import _central, _loop_bracket, _place

AlgElem = dict


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
        # nu as the monomial map (perm, scale) of `mu_extend_finite`
        self.nu_images = (
            mu_extend_finite(alg, self.nu) if self.r > 1 else (range(alg.dim), (1,) * alg.dim)
        )
        if self.mode == "finite":
            self.canonical_gens = [
                tuple(_lift_finite(v) for v in (alg.e(c), alg.f(c), alg.h(c)))
                for c in range(alg.rank)
            ]
        else:
            self.canonical_gens = _affine_generators(self)

    # -- element arithmetic ---------------------------------------------------

    def bracket(self, x: AlgElem, y: AlgElem) -> AlgElem:
        """The loop bracket: t2^(m+n) (x) [u, v], plus the cocycle
        m (u|v) k2 when m + n = 0 != m (affine only); lattice period 1, as
        the module docstring explains."""
        return _place(_loop_bracket(self.alg, 1, x, y), self.mode == "affine", 1, 0, 0)

    def pair(self, x: AlgElem, y: AlgElem) -> CycNum:
        """The invariant form; k2 pairs to zero with everything."""
        y_blocks = _t2_blocks(y)
        total = CycNum.zero()
        for m, u in _t2_blocks(x).items():
            v = y_blocks.get(-m)
            if v:
                total = total + self.alg.pair(u, v)
        return total


def _t2_blocks(x: AlgElem) -> dict:
    """The loop part of x split by t2-degree: {m2: {basis index: coefficient}}."""
    blocks: dict = {}
    for k, c in x.items():
        if k[0] == "L":
            blocks.setdefault(k[2], {})[k[3]] = c
    return blocks


def _lift_finite(v) -> AlgElem:
    return {("L", 0, 0, i): CycNum.from_rational(c) for i, c in v.items()}


def _affine_generators(galg: GAlg) -> list:
    """Generators for the canonical affine matrix, found uniformly.

    Nodes 1.. are folded orbit triples of the finite core; node 0 comes from
    the lowest-weight line of the t2-degree-1 eigenspace.  The resulting
    matrix is matched to the canonical affine matrix by diagram isomorphism.
    """
    alg = galg.alg
    r = galg.r
    orbits = perm_orbits(galg.nu)

    computed: list[tuple[AlgElem, AlgElem, AlgElem]] = [None]  # node 0 later
    for orbit in orbits:
        adjacent = any(
            alg.matrix[p][q] != 0 for p in orbit for q in orbit if p != q
        )
        lam = 2 if adjacent else 1
        e: AlgElem = {}
        f: AlgElem = {}
        h: AlgElem = {}
        for p in orbit:
            vec_add(e, _lift_finite(alg.e(p)))
            vec_add(f, _lift_finite(alg.f(p)), CycNum.from_rational(lam))
            vec_add(h, _lift_finite(alg.h(p)), CycNum.from_rational(lam))
        computed.append((e, f, h))

    # lowest-weight line of the degree-1 eigenspace, highest of degree -1
    xi = cyc_root(r, 1)
    dim = alg.dim
    nu_perm, nu_scale = galg.nu_images

    def weight_line(eigenvalue: CycNum, ops: list) -> dict:
        """The one v, up to scale, in the finite algebra with nu(v) =
        eigenvalue v and [op, v] = 0 for every op: the kernel of the matrix
        whose column j stacks nu(e_j) - eigenvalue e_j and the [op, e_j]."""
        columns = []
        for j in range(dim):
            col = {(0, nu_perm[j]): CycNum.from_rational(nu_scale[j])}
            vec_add(col, {(0, j): -eigenvalue})
            for o, op in enumerate(ops, 1):
                for key, c in galg.bracket(op, {("L", 0, 0, j): CycNum.one()}).items():
                    if key[0] != "L" or key[2] != 0:
                        raise GeneratorAssertionFailed(
                            f"{alg.label}: weight-line bracket left t2-degree 0 at {key}"
                        )
                    col[(o, key[3])] = c
            columns.append(col)
        kernel = kernel_basis(columns, CycNum.one())
        if len(kernel) != 1:
            raise GeneratorAssertionFailed(
                f"{alg.label}: weight line has dimension {len(kernel)}"
            )
        return kernel[0]

    lows = weight_line(xi, [computed[t][1] for t in range(1, len(computed))])
    highs = weight_line(xi.inverse(), [computed[t][0] for t in range(1, len(computed))])
    v_low: AlgElem = {("L", 0, 1, i): lows[i] for i in sorted(lows)}
    v_high: AlgElem = {("L", 0, -1, i): highs[i] for i in sorted(highs)}
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
    coroot0[("K2", 0)] = k2
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
        # called only for the NotAnAutomorphism it raises when an orbit of mu
        # matches no case of the orbit classification
        fold_data(gcm, self.mu)
        self.cls = gcm.classify()
        self.m1w = m1_window
        self.m2w = m2_window
        self.n_order = self.mu.order
        self.galg = GAlg(self.cls)
        self.field = lcm(self.n_order, self.galg.r)
        perm = self._node_perm()
        self.gens = [
            tuple(
                {k: c.lift(self.field) for k, c in v.items()}
                for v in self.galg.canonical_gens[perm[i]]
            )
            for i in range(gcm.n)
        ]
        self._assert_generators()
        self.eps = gcm.symmetrizer(self._coroot_form)
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

    def embed(self, m1: int, x: AlgElem) -> AlgElem:
        """The g-level element x shifted to t1-degree m1."""
        return {(k[0], m1) + k[2:]: c for k, c in x.items()}

    def bracket(self, x: AlgElem, y: AlgElem) -> AlgElem:
        """The exact bracket in the extended algebra: place(accumulate(x,
        y), 0, 0), with the kernel called directly, since the span closures
        make thousands of these calls."""
        galg = self.galg
        acc = _loop_bracket(galg.alg, self.field, x, y)
        # at shift 0 with no pairing sum, the loop part is the bracket
        return _place(acc, galg.mode == "affine", galg.r, 0, 0) if acc[1] else acc[0]

    def accumulate(self, x: AlgElem, y: AlgElem):
        """The kernel's accumulate step on (x, y)."""
        return _loop_bracket(self.galg.alg, self.field, x, y)

    def place(self, acc, d1: int, d2: int) -> AlgElem:
        """The exact bracket of the operands of `acc` moved d1 and d2 in t1
        (see `_place`)."""
        galg = self.galg
        return _place(acc, galg.mode == "affine", galg.r, d1, d2)

    def place_central(self, acc, d1: int, d2: int) -> AlgElem:
        """The keys other than loop keys of `place(acc, d1, d2)`, with no
        loop key walked (see `_central`)."""
        galg = self.galg
        return _central(acc, galg.mode == "affine", galg.r, d1, d2)

    def omega(self, x: AlgElem, sign: int = 1) -> AlgElem:
        """sign times omega_hat(x), omega_hat the Chevalley involution
        omega_0 of the core (`FiniteAlg.omega`) extended to the keys:

            ("L", m1, m2, b)  ->  ("L", m1, -m2, omega_0 b)
            ("K1",)           ->  ("K1",)
            ("K2", p)         ->  -("K2", p)
            ("K1p", p1, p2)   ->  -("K1p", p1, -p2)

        omega_hat is an automorphism of the bracket that `kernel._loop_bracket`
        and `kernel._place` compute.  It is Q(xi)-linear,
        since it acts on keys only, fixes t1 and negates t2-degrees.  A
        contributing basis pair at degrees (m1, m2), (n1, n2) goes to the
        pair (omega_0 u, omega_0 v) at (m1, -m2), (n1, -n2).  Its loop term
        t1^p1 t2^p2 [u, v] goes to t1^p1 t2^-p2 [omega_0 u, omega_0 v] =
        omega_hat of it, since omega_0 is an automorphism, and its pairing
        (omega_0 u | omega_0 v) = (u | v) is the same, since omega_0 keeps
        the form (both certified by `FiniteAlg._certify`).  So every
        central term of `_central` maps with it:
        * K1 weighs m1, which stays;
        * K2(p1) weighs m2, which changes sign;
        * K1p(p1, p2) weighs m1 n2 - m2 n1, which changes sign, at (p1, -p2).
        Every test of `_central` reads m1, n1, p1, whether m2, p2 or
        m1 n2 - m2 n1 is 0 and whether r divides p2, and each of these
        stays, so the r-lattice maps onto itself and a bracket raises
        exactly where its image raises.  Over every pair this gives
        omega_hat [x, y] = [omega_hat x, omega_hat y]."""
        perm, scale = self.galg.alg.omega
        out: AlgElem = {}
        for key, c in x.items():
            tag = key[0]
            if tag == "L":
                out[("L", key[1], -key[2], perm[key[3]])] = c.mul_rational(sign * scale[key[3]])
            elif tag == "K1":
                out[key] = c.mul_rational(sign)
            elif tag == "K2":
                out[key] = c.mul_rational(-sign)
            else:
                out[("K1p", key[1], -key[2])] = c.mul_rational(-sign)
        return out

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

    def mirrors(self, pick: int, i: int, m: int) -> bool:
        """The image check under which the verifier derives sign -1 from
        sign +1: for pick 0, theta_x(i, m, -1) = -omega_hat theta_x(i, m,
        +1); for pick 2, theta_h(i, m) = -omega_hat theta_h(i, m)."""
        image = self._theta(pick, i, m)
        mirror = image if pick == 2 else self._theta(1, i, m)
        return self.omega(image, -1) == mirror

    def in_period(self, i: int, span: range, picks=(0, 1)) -> bool:
        """Whether every image `_theta(pick, i, m)`, pick in `picks` (by
        default theta_x of either sign), at m in `span` is the first such
        image of m's residue class mod N, at m', moved m - m' in t1, key by
        key.  True when no class of `span` has two members."""
        big_n = self.n_order
        firsts: dict = {}
        for m in span if len(span) > big_n else ():
            for pick in picks:
                image = self._theta(pick, i, m)
                m0, first = firsts.setdefault((pick, m % big_n), (m, image))
                d = m - m0
                if d and image != {(k[0], k[1] + d) + k[2:]: c for k, c in first.items()}:
                    return False
        return True

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
                k2 = {("K2", 0): CycNum.one()}
                seeds.append((k2, k2))
            prop = Echelon()
            close(
                prop,
                seeds,
                seeds,
                galg.bracket,
                keep=lambda v: all(k[0] != "L" or abs(k[2]) <= t2_bound for k in v),
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
        Negative bounds raise JobError, since they name no block, and so
        does a positive inner_m2 on a finite core, which has t2-degree 0 only.

        The bound, scope and window tests come first.  Then the fixed
        dimension of each inner block, the corank of mu_hat - 1 on its keys
        (`MuHatClosed`), and then the span closure (`_theta_span`), capped
        at those dimensions: a block at its cap stops taking brackets, and
        the closure stops once every block is at its cap.  The caps rest on
        a certificate, checked as the closure runs, and a failed certificate
        gives the uncapped closure: see `_theta_span`.
        """
        if inner_m1 < 0 or (inner_m2 is not None and inner_m2 < 0):
            raise JobError(f"block bounds must be >= 0, got ({inner_m1}, {inner_m2})")
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
            if inner_m2:
                raise JobError(f"a finite core has t2-degree 0 only, got inner_m2 = {inner_m2}")
            inner_m2 = 0
        elif inner_m2 is None:
            inner_m2 = max(1, inner_m1 - 1)
        self._span_bounds(inner_m1, inner_m2)
        hat = MuHatClosed(self, self.mu_on_g())
        fixed = {}
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
                fixed[(m1, m2)] = len(keys) - moved.rank
        span = self._theta_span(inner_m1, inner_m2, _Caps(hat, fixed))
        return {block: (dim, span.get(block, 0)) for block, dim in fixed.items()}

    def _span_bounds(self, inner_m1: int, inner_m2: int) -> tuple[int, int]:
        """The degree bounds of the span closure: the inner bounds plus a
        margin of 2.  Raises OutOfWindow where the window is smaller."""
        margin = 2
        out_m1 = inner_m1 + margin
        out_m2 = inner_m2 + margin
        if out_m1 > self.m1w or out_m2 > self.m2w:
            raise OutOfWindow("window too small for the requested inner blocks")
        return out_m1, out_m2

    def _theta_span(self, inner_m1: int, inner_m2: int, caps=None):
        """Rank per block of the bracket closure of the generator images.

        The closure keeps |m1| <= inner_m1 + margin and |m2| <= inner_m2 +
        margin, as MuHat keeps its m1_bound; brackets further out are
        skipped, so the rows do not grow with the window.  Only what can add
        a row is bracketed:

        * It runs on the least node of each mu-orbit: theta(mu^a i, m) =
          xi_N^(am) theta(i, m), so every other node's image is a nonzero
          multiple of one already seeded, of the same degree.  Its bracket
          with any element is that multiple of the kept bracket: it fails
          `keep` or vanishes exactly when the kept one does, and otherwise
          reduces to zero against it.
        * `ad` holds the theta_x images only.  The central theta_c brackets
          to zero.  [e_k, f_l] = delta_kl h_k is certified by
          `_assert_generators`, so [theta_x(i, m, +1), theta_x(i, 0, -1)] is
          (N / |O_i|) theta_h(i, m) plus a central term, and by Jacobi
          ad theta_h(i, m) is the commutator of two members of `ad`: the
          closure reaches its brackets a round later.  theta_h and theta_c
          stay seeds.
        * `close` brackets each mirrored pair of seeds once.

        `caps` (a `_Caps`, from `fixed_subalgebra_dims`) caps each inner
        block at its fixed dimension.  The certificate: every seed is
        homogeneous in (t1, t2) and fixed by mu_hat, and so is every element
        that adds a row in an inner block.  The premise: mu_hat is a Lie
        automorphism of the bracket that fixes the certified seeds.  Then
        every element the closure reaches is fixed, so the certified rows of
        a block at its cap span its whole fixed subspace, and no further
        element of the block could add a row: the closure brackets nothing
        into a block at its cap and stops once every inner block is at its
        cap, with the ranks of the uncapped closure.  Where a seed fails the
        certificate, the closure runs uncapped; where a row fails it, the
        capped closure stops there and the uncapped one runs from the
        seeds.  Either way a wrong image still reports generated != fixed.
        """
        out_m1, out_m2 = self._span_bounds(inner_m1, inner_m2)
        seeds = [(self.theta_c(), {})]
        ad = []
        for orbit in perm_orbits(self.mu.perm):
            for m in range(-out_m1, out_m1 + 1):
                for pick in range(3):
                    pair = (self._theta(pick, orbit[0], m), {})
                    seeds.append(pair)
                    if pick < 2 and abs(m) <= 1 and pair[0]:
                        ad.append(pair)
        keep = _inside(out_m1, out_m2)
        if caps is not None and any(v and not caps.fixes(v) for v, _ in seeds):
            caps = None
        prop = Echelon()
        close(prop, seeds, ad, self.bracket, keep=keep, caps=caps)
        if caps is not None and caps.failed:
            prop = Echelon()
            close(prop, seeds, ad, self.bracket, keep=keep)
        ranks: dict = {}
        for pivot in prop.rows:
            m1, m2 = _key_degrees(pivot)
            if abs(m1) <= inner_m1 and abs(m2) <= inner_m2:
                ranks[(m1, m2)] = ranks.get((m1, m2), 0) + 1
        return ranks


class _Caps:
    """The fixed dimension of each inner block as a cap on the span closure
    of `Realization._theta_span`, with the certificate it rests on (see
    there): the two hooks of `chevalley.close`."""

    def __init__(self, hat: MuHatClosed, fixed: dict):
        self.hat = hat
        self.left = dict(fixed)  # the rows each inner block lacks of its cap
        self.open = sum(1 for dim in fixed.values() if dim)
        self.failed = False

    def fixes(self, v: AlgElem) -> bool:
        """Whether v is homogeneous in (t1, t2) and fixed by mu_hat."""
        return len(set(map(_key_degrees, v))) == 1 and self.hat.apply(v) == v

    def skip(self, s: AlgElem, a: AlgElem) -> bool:
        """Whether [s, a] falls in an inner block at its cap.  s and a are
        certified, so one key of each gives its degree."""
        s1, s2 = _key_degrees(next(iter(s)))
        a1, a2 = _key_degrees(next(iter(a)))
        return self.left.get((s1 + a1, s2 + a2)) == 0

    def row(self, v: AlgElem) -> bool:
        """Certify and count the element v that added a row; True when the
        closure should stop: every inner block is at its cap, or v failed
        the certificate."""
        degrees = set(map(_key_degrees, v))
        block = degrees.pop() if len(degrees) == 1 else None
        left = self.left.get(block)
        if block is None or (left is not None and self.hat.apply(v) != v):
            self.failed = True
            return True
        if left is not None:
            self.left[block] = left - 1
            if left == 1:
                self.open -= 1
        return not self.open


def _key_degrees(key) -> tuple[int, int]:
    if key[0] in ("L", "K1p"):
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
    maps of the automorphism twist the finite form.  The g-level image of
    each key is computed once per instance and kept: blocks of every
    t1-degree share it.
    """

    def __init__(self, real: Realization, mu_map: Echelon):
        self.real = real
        self.map = mu_map
        self._k1p_scales: dict[int, CycNum] = {}
        self._images: dict = {}

    def _k1p_scale(self, m2: int) -> CycNum:
        cached = self._k1p_scales.get(m2)
        if cached is None:
            alg = self.real.galg.alg
            h_idx = alg.h_idx[0]
            u = self.map.apply({("L", 0, 0, h_idx): CycNum.one()})
            v = self.map.apply({("L", 0, m2, h_idx): CycNum.one()})
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
            if key[0] in ("L", "K2"):  # the g-level image, shifted back to t1-degree m1
                m1 = key[1]
                g_key = (key[0], 0) + key[2:]
                img = self._images.get(g_key)
                if img is None:
                    img = self._images[g_key] = self.map.apply({g_key: CycNum.one()})
                vec_add(out, self.real.embed(m1, img), c * self.real._phase(-m1))
            elif key[0] == "K1":
                vec_add(out, {key: c})
            elif key[0] == "K1p":
                scale = self.real._phase(-key[1]) * self._k1p_scale(key[2])
                vec_add(out, {key: c * scale})
        return out


class MuHat:
    """The lifted automorphism, built extensionally by bracket propagation.

    Valid for every case, including degree-shifting (transitive) twists.
    The span covers the seeds and their iterated brackets, kept inside
    |m1| <= min(m1_bound, m1w) and |m2| <= m2w; applying the map outside
    the span raises, and conflicting routes raise on insertion.
    """

    def __init__(self, real: Realization, m1_bound: int = 3, depth: int = 3):
        self.real = real
        self.n = real.n_order
        prop = Echelon()
        seeds, ad = [], []
        for i in range(real.gcm.n):
            for m in range(-m1_bound, m1_bound + 1):
                for pick in range(3):
                    src = real.embed(m, real.gens[i][pick])
                    img = vec_scale(
                        real.embed(m, real.gens[real.mu.perm[i]][pick]), real._phase(-m)
                    )
                    seeds.append((src, img))
                    if abs(m) <= 1:
                        ad.append(seeds[-1])
        seeds.append((real.theta_c(), real.theta_c()))  # central: not in `ad`
        keep = _inside(min(m1_bound, real.m1w), real.m2w)
        close(prop, seeds, ad, real.bracket, keep=keep, rounds=depth - 1)
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


def _inside(b1: int, b2: int):
    """The test that every key of an element has |t1| <= b1 and |t2| <= b2:
    the `keep` of the span closures, which bound their degrees by it."""

    def inside(v: AlgElem) -> bool:
        return all(abs(d1) <= b1 and abs(d2) <= b2 for d1, d2 in map(_key_degrees, v))

    return inside


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
