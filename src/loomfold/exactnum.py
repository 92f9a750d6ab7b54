"""Exact arithmetic in cyclotomic fields Q(xi_N).

Every coefficient in the package is a CycNum: a residue modulo the N-th
cyclotomic polynomial with rational coordinates.  Working modulo Phi_N
(rather than modulo x^N - 1) keeps representations canonical, so equality
and zero tests are decidable, which every relation check downstream relies
on.  Mixed orders are coerced through Q(xi_lcm(M,N)).

The module also holds the exact linear algebra shared by the layers above:
sparse vectors ({key: coefficient} dicts), permutation orbits, and one
Gauss-Jordan elimination over Fraction or CycNum entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

__all__ = [
    "CycNum",
    "cyc_root",
    "euler_phi",
    "cyclotomic_poly",
    "vec_add",
    "proportional",
    "perm_orbits",
    "matrix_rank",
    "kernel_basis",
    "inverse_matrix",
    "determinant",
    "leading_minors",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient, by trial factorization (orders here are tiny)."""
    assert n >= 1
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high, monic) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the product of Phi_d over proper
    divisors d of n.  Integer arithmetic throughout.
    """
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = _int_poly_divide_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _int_poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """x^(phi+k) mod Phi_n for k = 0..phi-1, as coordinate rows."""
    phi = euler_phi(n)
    poly = cyclotomic_poly(n)
    # x^phi = -(poly without leading term)
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(-c) for c in poly[:phi]]
    rows.append(tuple(cur))
    for _ in range(phi - 1):
        nxt = [_ZERO] + cur[: phi - 1]
        top = cur[phi - 1]
        if top:
            for i in range(phi):
                nxt[i] += top * rows[0][i]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


def _reduce_mod_cyclotomic(n: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a coefficient list (any length) modulo Phi_n."""
    phi = euler_phi(n)
    if len(coeffs) > 2 * phi - 1:
        # long inputs: fold down by repeated single-step reduction
        poly = cyclotomic_poly(n)
        coeffs = list(coeffs)
        for i in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = _ZERO
                for j in range(phi):
                    coeffs[i - phi + j] -= c * poly[j]
        return tuple(coeffs[:phi]) if len(coeffs) >= phi else tuple(
            coeffs + [_ZERO] * (phi - len(coeffs))
        )
    rows = _reduction_rows(n)
    out = list(coeffs[:phi]) + [_ZERO] * max(0, phi - len(coeffs))
    for k, c in enumerate(coeffs[phi:]):
        if c:
            row = rows[k]
            for i in range(phi):
                out[i] += c * row[i]
    return tuple(out)


class CycNum:
    """An element of Q(xi_N), stored as coordinates modulo Phi_N.

    Instances are immutable.  Arithmetic between different orders coerces
    both operands into Q(xi_lcm).  Equality is exact.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        phi = euler_phi(order)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coordinates for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CycNum":
        return CycNum(order, [_ZERO] * euler_phi(order))

    @staticmethod
    def one(order: int = 1) -> "CycNum":
        c = [_ZERO] * euler_phi(order)
        c[0] = _ONE
        return CycNum(order, c)

    @staticmethod
    def from_rational(q, order: int = 1) -> "CycNum":
        c = [_ZERO] * euler_phi(order)
        c[0] = Fraction(q)
        return CycNum(order, c)

    @staticmethod
    def root(order: int, k: int) -> "CycNum":
        """xi_order ** k, canonical."""
        k %= order
        coeffs = [_ZERO] * (k + 1)
        coeffs[k] = _ONE
        return CycNum(order, _reduce_mod_cyclotomic(order, coeffs))

    # -- coercion ----------------------------------------------------------

    def lift(self, order: int) -> "CycNum":
        """Embed into Q(xi_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("target order must be a multiple")
        step = order // self.order
        out: list[Fraction] = []
        for j, c in enumerate(self.coeffs):
            if c:
                idx = j * step
                while len(out) <= idx:
                    out.append(_ZERO)
                out[idx] += c
        if not out:
            out = [_ZERO]
        return CycNum(order, _reduce_mod_cyclotomic(order, out))

    @staticmethod
    def _common(a: "CycNum", b: "CycNum"):
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    @staticmethod
    def _wrap(x) -> "CycNum":
        if isinstance(x, CycNum):
            return x
        return CycNum.from_rational(x)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = CycNum._common(self, CycNum._wrap(other))
        return CycNum(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-CycNum._wrap(other))

    def __rsub__(self, other):
        return CycNum._wrap(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.mul_rational(other)
        a, b = CycNum._common(self, CycNum._wrap(other))
        phi = len(a.coeffs)
        prod = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycNum(a.order, _reduce_mod_cyclotomic(a.order, prod))

    __rmul__ = __mul__

    def mul_rational(self, q) -> "CycNum":
        q = Fraction(q)
        if not q:
            return CycNum.zero(self.order)
        return CycNum(self.order, [c * q for c in self.coeffs])

    def inverse(self) -> "CycNum":
        """Field inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(xi)")
        if self.is_rational():
            return CycNum.from_rational(1 / self.coeffs[0], self.order)
        mod = [Fraction(c) for c in cyclotomic_poly(self.order)]
        a = list(self.coeffs)
        # invariants: s * self == a (mod Phi), t * self == b (mod Phi)
        b = mod
        s: list[Fraction] = [_ONE]
        t: list[Fraction] = []
        while any(c for c in b):
            q, r = _frac_poly_divmod(a, b)
            a, b = b, r
            s, t = t, _frac_poly_sub(s, _frac_poly_mul(q, t))
        # now a = gcd (a nonzero constant, Phi_N irreducible), s*self = a mod Phi
        deg = _frac_poly_deg(a)
        assert deg == 0, "cyclotomic modulus must be irreducible"
        inv_lead = 1 / a[0]
        inv = [c * inv_lead for c in s]
        return CycNum(self.order, _reduce_mod_cyclotomic(self.order, inv))

    def __truediv__(self, other):
        other = CycNum._wrap(other)
        a, b = CycNum._common(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return CycNum._wrap(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNum.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = CycNum._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equal values would hash differently

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return f"CycNum({self.order}, {[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            else:
                xi = f"xi{self.order}" + (f"^{j}" if j > 1 else "")
                if c == 1:
                    parts.append(xi)
                elif c == -1:
                    parts.append(f"-{xi}")
                else:
                    parts.append(f"{c}*{xi}")
        return " + ".join(parts).replace("+ -", "- ")

    def latex(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_rational():
            return _frac_latex(self.coeffs[0])
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(_frac_latex(c))
            else:
                xi = rf"\xi_{{{self.order}}}" + (f"^{{{j}}}" if j > 1 else "")
                if c == 1:
                    parts.append(xi)
                elif c == -1:
                    parts.append("-" + xi)
                else:
                    parts.append(_frac_latex(c) + xi)
        s = "+".join(parts).replace("+-", "-")
        return s

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "CycNum":
        return CycNum(int(obj["order"]), [Fraction(c) for c in obj["coeffs"]])


def cyc_root(order: int, k: int) -> CycNum:
    """The root of unity xi_order ** k as an exact CycNum."""
    return CycNum.root(order, k)


# -- sparse vectors and permutations ---------------------------------------------


def vec_add(target: dict, src: dict, scale=None) -> None:
    """target += scale * src in place, dropping keys that cancel to zero."""
    for k, v in src.items():
        if scale is not None:
            v = v * scale
        cur = target.get(k)
        val = v if cur is None else cur + v
        if val:
            target[k] = val
        elif k in target:
            del target[k]


def proportional(v: dict, w: dict):
    """The scalar c with v = c * w (0 for v = 0), for sparse w != 0; None if
    there is none."""
    k = next(iter(w))
    if k not in v:
        return None if v else w[k] * 0
    c = v[k] / w[k]
    if len(v) != len(w) or any(t not in v or v[t] != x * c for t, x in w.items()):
        return None
    return c


def perm_orbits(perm) -> list[tuple[int, ...]]:
    """Orbits of a permutation of range(len(perm)), each sorted, by least element."""
    seen = [False] * len(perm)
    orbits = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i = perm[i]
        orbits.append(tuple(sorted(orbit)))
    return orbits


# -- exact linear algebra over Q and Q(xi_N) ---------------------------------------


def _gauss_jordan(rows: list):
    """Reduced row echelon form of a dense matrix of Fraction or CycNum entries.

    Column by column, the first nonzero entry at or below the current row is
    swapped up, its row is scaled by the pivot's inverse and the column is
    cleared in every other row.  Returns (reduced rows, pivot columns, pivot
    values, number of row swaps); the input is not modified.  A rational
    pivot is inverted as Fraction(1) / pivot, so no float can appear.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    values: list = []
    swaps = 0
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        pv = m[r][col]
        inv = pv.inverse() if isinstance(pv, CycNum) else _ONE / pv
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        values.append(pv)
    return m, pivots, values, swaps


def _unit_pair(x):
    """(0, 1) in the number type of x."""
    return (CycNum.zero(), CycNum.one()) if isinstance(x, CycNum) else (_ZERO, _ONE)


def matrix_rank(rows: list) -> int:
    return len(_gauss_jordan(rows)[1])


def kernel_basis(rows: list) -> list[list]:
    """Kernel basis: one vector per free column, in column order, with that
    column set to 1 and the pivot entries back-substituted."""
    m, pivots, _, _ = _gauss_jordan(rows)
    ncols = len(rows[0])
    zero, one = _unit_pair(rows[0][0])
    out = []
    for col in range(ncols):
        if col in pivots:
            continue
        vec = [zero] * ncols
        vec[col] = one
        for prow, pcol in enumerate(pivots):
            if m[prow][col]:
                vec[pcol] = -m[prow][col]
        out.append(vec)
    return out


def inverse_matrix(rows: list) -> list[list]:
    """Inverse of a square matrix; raises ZeroDivisionError if it is singular."""
    n = len(rows)
    zero, one = _unit_pair(rows[0][0])
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    m, pivots, _, _ = _gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix has no inverse")
    return [row[n:] for row in m]


def determinant(rows: list):
    """Determinant of a square matrix (Fraction 0 when it is singular)."""
    _, pivots, values, swaps = _gauss_jordan(rows)
    if len(pivots) < len(rows):
        return _ZERO
    out = -_ONE if swaps % 2 else _ONE
    for pv in values:
        out = out * pv
    return out


def leading_minors(rows: list) -> list:
    """Determinants of the leading principal k x k submatrices, k = 1..n."""
    return [determinant([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


# -- fraction polynomial helpers (dense, low-to-high) --------------------------


def _frac_poly_deg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return out


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    db = _frac_poly_deg(b)
    assert db >= 0
    rem = list(a)
    da = _frac_poly_deg(rem)
    if da < db:
        return [], rem
    quot = [_ZERO] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = rem[i + db] / b[db]
        quot[i] = c
        if c:
            for j in range(db + 1):
                rem[i + j] -= c * b[j]
    return quot, rem


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
