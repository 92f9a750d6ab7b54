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
  t1.  Every bracket is exact.  The span closures of
  `fixed_subalgebra_dims` and `MuHat` keep the brackets inside degree
  bounds (`_inside`) and skip the rest: the first bounds itself by its
  inner blocks plus a margin of 2, and only `MuHat` reads the window
  |m1| <= m1w, |m2| <= m2w.

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
diagram automorphism mu lifts to ghat-level in two variants: `MuHatClosed`,
where mu preserves the t2-grading, a monomial map on keys built from the
certified twist of the core (`chevalley.mu_extend_finite`) and checked on
the generator images, whose t1-degree-0 part is mu at g-level; and
`MuHat`, propagated by brackets in every case, its deliberate dual.

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
    images never coerce between cyclotomic orders.  The window
    (m1_window, m2_window) bounds only the span closure of `MuHat`.
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
        self._mu_closed: tuple | None = None  # MuHatClosed's map, checked

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

    def in_period(self, i: int, span, picks=(0, 1)) -> bool:
        """Whether every image `_theta(pick, i, m)`, pick in `picks` (by
        default theta_x of either sign), at m in `span` (ints in order) is
        the first such image of m's residue class mod N, at m', moved m - m'
        in t1, key by key.  True when no class of `span` has two members."""
        big_n = self.n_order
        firsts: dict = {}
        for m in span:
            for pick in picks:
                image = self._theta(pick, i, m)
                m0, first = firsts.setdefault((pick, m % big_n), (m, image))
                d = m - m0
                if d and image != {(k[0], k[1] + d) + k[2:]: c for k, c in first.items()}:
                    return False
        return True

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

        The bound and scope tests come first.  Then the fixed
        dimension of each inner block, the corank of mu_hat - 1 on its keys
        (`MuHatClosed`), and then the span closure (`_theta_span`), capped
        at those dimensions: a block at its cap stops taking brackets, and
        the closure stops once every block is at its cap.  The caps rest on
        a certificate, checked as the closure runs, and a failed certificate
        gives the uncapped closure: see `_theta_span`.
        """
        if inner_m1 < 0 or (inner_m2 is not None and inner_m2 < 0):
            raise JobError(f"block bounds must be >= 0, got ({inner_m1}, {inner_m2})")
        hat = MuHatClosed(self)  # raises ScopeViolation out of its scope
        if self.galg.mode == "finite":
            if inner_m2:
                raise JobError(f"a finite core has t2-degree 0 only, got inner_m2 = {inner_m2}")
            inner_m2 = 0
        elif inner_m2 is None:
            inner_m2 = max(1, inner_m1 - 1)
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

    def _theta_span(self, inner_m1: int, inner_m2: int, caps=None):
        """Rank per block of the bracket closure of the generator images.

        The closure keeps |m1| <= inner_m1 + 2 and |m2| <= inner_m2 + 2,
        whatever the window, as MuHat keeps its m1_bound; brackets further
        out are skipped.  Only what can add a row is bracketed:

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
        out_m1, out_m2 = inner_m1 + 2, inner_m2 + 2
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
    """mu_hat where mu keeps the t2-grading, in closed form: a monomial map
    on keys.

    mu permutes the finite nodes of the core, by pi, and its twist there is
    nu = `mu_extend_finite(alg, pi)`, the monomial map (perm, scale) that
    `FiniteAlg._certify` certifies as an automorphism keeping the form.
    Node 0 of an affine core, which mu fixes, adds one scale lam =
    1 / scale[b0], read off the one key ("L", 0, 1, b0) of its e.  Then

        ("L", m1, m2, b)  ->  xi_N^-m1 lam^m2 scale[b] ("L", m1, m2, perm[b])
        ("K1",)           ->  ("K1",)
        ("K2", m1)        ->  xi_N^-m1 ("K2", m1)
        ("K1p", p1, p2)   ->  xi_N^-p1 lam^p2 ("K1p", p1, p2)

    It is an automorphism of the bracket of `kernel`, by the argument of
    `Realization.omega`: it acts on keys only and keeps both degrees.  A
    contributing basis pair (u, v) at degrees m and n goes to (nu u, nu v)
    times f(m) f(n) = f(m + n), f(p) = xi_N^-p1 lam^p2, since lam^m lam^n =
    lam^(m + n).  Its loop term t1^p1 t2^p2 [u, v], p = m + n, goes to f(p)
    t1^p1 t2^p2 [nu u, nu v], its image, since nu is an automorphism, and
    its pairing (nu u | nu v) = (u | v) is the same, since nu keeps the
    form.  So every central term at p gains f(p), which is the factor of K1
    (p = 0), of K2(p1) (p2 = 0) and of K1p(p1, p2), and every test of
    `_central` reads degrees that stay.  mu_hat is the automorphism with
    t1^m (x) gens[i] -> xi_N^-m t1^m (x) gens[mu i] and K1 -> K1 (the seeds
    of `MuHat`), and these generate the realization.  The map moves t1^m
    (x) x as it moves x, times xi_N^-m, so it agrees with mu_hat on every
    generator image once it does at t1-degree 0, which the build checks on
    every gens[i]; two automorphisms that agree on generators are equal.

    Out of scope, before anything is built, it raises ScopeViolation: on a
    twisted core, whose Aff holds no key t2^m2 (x) x_b alone, and where mu
    moves the t2-grading (the rotations and A1a-flip).  nu, lam and the
    check are made once per Realization, and the image of each key is
    tabulated there on its first use.
    """

    def __init__(self, real: Realization):
        self.real = real
        built = real._mu_closed or self._monomial(real)
        self.perm, self.scale, self.lam, self.table = built
        if real._mu_closed is None:
            mu = real.mu.perm
            for i, gens in enumerate(real.gens):
                for src, img in zip(gens, real.gens[mu[i]]):
                    if self.apply(src) != img:
                        raise InconsistentPropagation(f"mu_hat is not mu on node {i}'s generators")
            real._mu_closed = built

    @staticmethod
    def _monomial(real: Realization) -> tuple:
        """(perm, scale, lam, empty key table) after the scope tests."""
        galg, gens, mu = real.galg, real.gens, real.mu.perm
        if galg.mode == "affine" and galg.r > 1:
            raise ScopeViolation("fixed-block dimensions need an untwisted loop core")
        if any(
            _t2_blocks(src).keys() != _t2_blocks(img).keys()
            for i in range(real.gcm.n)
            for src, img in zip(gens[i], gens[mu[i]])
        ):
            raise ScopeViolation(
                "fixed-block dimensions need a grading-preserving automorphism"
            )
        alg = galg.alg
        node = {b: p for p, b in enumerate(alg.e_idx)}
        pi, b0 = list(range(alg.rank)), None
        for i in range(real.gcm.n):
            _, _, m2, b = next(iter(gens[i][0]))
            if m2:
                b0 = b
            else:
                pi[node[b]] = node[next(iter(gens[mu[i]][0]))[3]]
        perm, scale = mu_extend_finite(alg, pi)
        lam = Fraction(1) if b0 is None else Fraction(1, scale[b0])
        return perm, scale, lam, {}

    def apply(self, x: AlgElem) -> AlgElem:
        table = self.table
        out: AlgElem = {}
        for key, c in x.items():
            image = table.get(key)
            if image is None:
                image = table[key] = self._image(key)
            out[image[0]] = c * image[1]
        return out

    def _image(self, key) -> tuple:
        """(image key, factor) of one key, by the table of the docstring."""
        tag = key[0]
        m1, q = (0 if tag == "K1" else key[1]), 1
        if tag == "L":
            q = self.scale[key[3]] * self.lam ** key[2]
            key = ("L", m1, key[2], self.perm[key[3]])
        elif tag == "K1p":
            q = self.lam ** key[2]
        return key, self.real._phase(-m1).mul_rational(q)


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

