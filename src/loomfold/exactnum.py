"""Exact arithmetic in cyclotomic fields Q(xi_N).

Every coefficient in the package is a CycNum: an element of Q(xi_N) in the
power basis 1, xi_N, ..., xi_N^(phi(N)-1), i.e. a residue modulo the N-th
cyclotomic polynomial Phi_N.  Working modulo Phi_N (rather than modulo
x^N - 1) keeps representations canonical, so equality and zero tests are
decidable, which every relation check downstream relies on.

The coordinates are stored as a tuple of int numerators `nums` over one
positive int denominator `den`, in canonical form: gcd(nums, den) = 1, and
zero is all-zero numerators over 1.  Two CycNums of one order are therefore
equal exactly when their (order, nums, den) agree.  Phi_N is monic with
integer coefficients, so products, sums and the reduction modulo Phi_N run
on ints and build no Fraction; only the `coeffs` view does.  The maps
xi -> xi^k, k prime to N, are the automorphisms of Q(xi_N): one int
substitution p(x) -> p(x^k) mod Phi_N (`_subst`) serves them, the lifts
into a bigger field (k = M/N) and the rewrites of a lazy sum.  So `inverse`
needs no Euclid: 1/x is the product of the other conjugates of x over its
norm, a nonzero rational (no Euclid, no Fraction).  Mixed orders are
coerced through Q(xi_lcm(M,N)), with a shortcut for rational operands of
order 1.  A Realization fixes one field Q(xi_L), L = lcm(ord mu, r), for
all of its values, so its bracket loops never coerce.  A CycNum renders only
as `repr`, `latex` (tables) and `to_json` (reports), each printing the
coordinates with str(Fraction).

Long sums of products do not go through CycNum arithmetic: a lazy sum keeps
one unreduced int numerator list per key (the int convolutions of the
operands' numerator tuples, 2 phi(N) - 1 long, or one int when phi(N) = 1)
over one running denominator in one running field.  A product outside that
field or over another denominator rewrites the sum once (`lazy_align`);
`lazy_settle` then reduces each key modulo Phi_N and canonicalises it once.
The bracket kernel of `realize` runs its basis-pair loop on it, and
`lin_comb` sums every relation check with it, in the one field Q(xi_F) it
is given, and rejects a product outside that field with ValueError.

The module also holds the exact linear algebra shared by the layers above:
sparse vectors ({key: coefficient} dicts, with `vec_add` and
`proportional`), permutation orbits (`perm_orbits`), and the one row
reduction, `Echelon`: sparse rows over int, Fraction or CycNum entries,
each carrying its image, pivoted at their highest key and stored without
their unit pivot entry.  A reduction step pops that entry, which cancels
exactly, negates it once, and does no image work for a row without an
image, as in every span closure.  Its rank is the number of rows; `insert`
and `apply` make it a partial linear map (the propagation of
`realize.MuHat`, the span closures, and solving A c = lambda from the
columns of A); `reduce` leaves the residual of a vector, so the kernel of a
matrix is read off its columns (`kernel_basis`, normalised as the reduced
row echelon form), and the pivots that the rows of a symmetric matrix
leave, in order, are the ratios D_k / D_(k-1) of its leading principal
minors (Sylvester's test in `cartan`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from loomfold.errors import InconsistentPropagation

__all__ = [
    "CycNum",
    "cyc_root",
    "euler_phi",
    "cyclotomic_poly",
    "vec_add",
    "vec_scale",
    "lin_comb",
    "proportional",
    "perm_orbits",
    "Echelon",
    "kernel_basis",
]

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
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^e mod Phi_n as its nonzero (index, int) pairs, for every e below
    max(n, 2 phi(n) - 1): the powers that roots, lifts into Q(xi_n) and
    products of two reduced elements reach."""
    phi = euler_phi(n)
    poly = cyclotomic_poly(n)
    rows = [((e, 1),) for e in range(phi)]
    cur = [-c for c in poly[:phi]]  # x^phi
    for _ in range(phi, max(n, 2 * phi - 1)):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(phi):
                cur[i] -= top * poly[i]
    return tuple(rows)


def _subst(nums, k: int, n: int) -> list[int]:
    """p(x^k) mod Phi_n for the int coefficients `nums` of p, k >= 1."""
    top = (len(nums) - 1) * k
    if top < n:  # a lift into Q(xi_n): no exponent reaches n
        out = [0] * (top + 1)
        out[::k] = nums
    else:  # x^j goes to x^(j k mod n), as x^n = 1 modulo Phi_n
        out = [0] * n
        for j, c in enumerate(nums):
            out[j * k % n] += c
    return _reduce(n, out)


def _conv(a, b) -> list[int]:
    """The product of two int coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _reduce(n: int, coeffs: list[int]) -> list[int]:
    """An int coefficient list of any length, reduced modulo Phi_n."""
    phi = euler_phi(n)
    if len(coeffs) <= phi:
        return list(coeffs) + [0] * (phi - len(coeffs))
    rows = _power_rows(n)
    out = coeffs[:phi]
    for e in range(phi, len(coeffs)):
        c = coeffs[e]
        if c:
            for i, r in rows[e]:
                out[i] += c * r
    return out


def _over_common_den(qs: list) -> tuple[list[int], int]:
    """Int numerators of ints or Fractions over the lcm of their denominators."""
    den = lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


def _exact(q) -> Fraction:
    if type(q) is Fraction:
        return q
    if isinstance(q, float):
        raise TypeError(f"CycNum needs exact coordinates, got the float {q!r}")
    return Fraction(q)


class CycNum:
    """An element of Q(xi_N): int numerators `nums` over a denominator `den`.

    Instances are never mutated.  Arithmetic between different orders
    coerces both operands into Q(xi_lcm).  Equality is exact.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        """`coeffs`: the phi(order) coordinates as ints, Fractions or strings."""
        if order < 1:
            raise ValueError("order must be >= 1")
        qs = [c if type(c) is int else _exact(c) for c in coeffs]
        if len(qs) != euler_phi(order):
            raise ValueError(f"expected {euler_phi(order)} coordinates for order {order}")
        nums, den = _over_common_den(qs)
        g = gcd(den, *nums)
        self.order = order
        self.nums = tuple(x // g for x in nums)
        self.den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "CycNum":
        return _make(order, (0,) * euler_phi(order), 1)

    @staticmethod
    def one(order: int = 1) -> "CycNum":
        return _make(order, (1,) + (0,) * (euler_phi(order) - 1), 1)

    @staticmethod
    def from_rational(q, order: int = 1) -> "CycNum":
        if type(q) is not int:
            q = _exact(q)
        return _make(order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    # -- coercion ----------------------------------------------------------

    def lift(self, order: int) -> "CycNum":
        """Embed into Q(xi_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("target order must be a multiple")
        return _canon(order, _subst(self.nums, order // self.order, order), self.den)

    def _scaled(self, p: int, q: int) -> "CycNum":
        """self * p / q, for q > 0."""
        return _canon(self.order, [x * p for x in self.nums], self.den * q)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not CycNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycNum.from_rational(other)
        n = self.order
        if other.order != n:
            if other.order == 1:
                return self._add_rational(other)
            if n == 1:
                return other._add_rational(self)
            a, b = _common(self, other)
            return a + b
        da, db = self.den, other.den
        if len(self.nums) == 1:
            d = da * db
            s = self.nums[0] * db + other.nums[0] * da
            g = gcd(s, d)
            return _make(n, (s // g,), d // g)
        if da == db:
            return _canon(n, [x + y for x, y in zip(self.nums, other.nums)], da)
        return _canon(n, [x * db + y * da for x, y in zip(self.nums, other.nums)], da * db)

    __radd__ = __add__

    def _add_rational(self, q: "CycNum") -> "CycNum":
        """self + q for q rational of order 1."""
        da, db = self.den, q.den
        nums = [x * db for x in self.nums]
        nums[0] += q.nums[0] * da
        return _canon(self.order, nums, da * db)

    def __neg__(self):
        return _make(self.order, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        if not isinstance(other, (CycNum, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CycNum:
            if isinstance(other, (int, Fraction)):
                return self.mul_rational(other)
            return NotImplemented
        n = self.order
        if other.order != n:
            if other.order == 1:
                return self._scaled(other.nums[0], other.den)
            if n == 1:
                return other._scaled(self.nums[0], self.den)
            a, b = _common(self, other)
            return a * b
        a, b = self.nums, other.nums
        d = self.den * other.den
        phi = len(a)
        if phi == 1:
            p = a[0] * b[0]
            g = gcd(p, d)
            return _make(n, (p // g,), d // g)
        return _canon(n, _reduce(n, _conv(a, b)), d)

    __rmul__ = __mul__

    def mul_rational(self, q) -> "CycNum":
        if type(q) is int:
            if q == 1:
                return self
            if q == -1:
                return -self
            return self._scaled(q, 1)
        q = _exact(q)
        return self._scaled(q.numerator, q.denominator)

    def rotated(self, k: int) -> "CycNum":
        """self * xi_order^k.  A root of unity is a unit of Z[xi], so the
        numerators keep their gcd and the result is canonical over the same
        denominator: no product or gcd is taken."""
        n = self.order
        rows = _power_rows(n)
        out = [0] * len(self.nums)
        for j, c in enumerate(self.nums):
            if c:
                for i, v in rows[(j + k) % n]:
                    out[i] += c * v
        return _make(n, tuple(out), self.den)

    def inverse(self) -> "CycNum":
        """Field inverse: for x = p(xi) / den, y = prod of the conjugates
        p(xi^k), k prime to the order and k != 1, makes p * y = N(p), a
        nonzero integer (the norm), so 1/x = den * y / N(p)."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(xi)")
        n, nums, den = self.order, self.nums, self.den
        if self.is_rational():
            p = nums[0]
            return _make(n, (den if p > 0 else -den,) + nums[1:], abs(p))
        y = [1]
        for k in range(2, n):
            if gcd(k, n) == 1:
                y = _reduce(n, _conv(y, _subst(nums, k, n)))
        norm = _reduce(n, _conv(nums, y))[0]
        if norm < 0:
            norm, den = -norm, -den
        return _canon(n, [den * c for c in y], norm)

    def __truediv__(self, other):
        if type(other) is not CycNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycNum.from_rational(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse().mul_rational(other)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not CycNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return (
                self.nums[0] == other.numerator
                and self.den == other.denominator
                and self.is_rational()
            )
        a, b = (self, other) if other.order == self.order else _common(self, other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None  # cross-order equal values would hash differently

    # -- rendering -----------------------------------------------------------

    def __repr__(self):
        return f"CycNum({self.order}, {[str(c) for c in self.coeffs]})"

    def latex(self) -> str:
        if self.is_zero():
            return "0"
        if self.is_rational():
            return _frac_latex(self.as_fraction())
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
        """The order and each coordinate printed as str(Fraction) prints it,
        "n" or "n/d" in lowest terms, with no Fraction built."""
        den = self.den
        coeffs = []
        for x in self.nums:
            g = gcd(x, den)
            coeffs.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return {"order": self.order, "coeffs": coeffs}

    @staticmethod
    def from_json(obj) -> "CycNum":
        """Parse the `to_json` form; raises ValueError on any other shape.

        The order must be an int >= 1 and the coordinates a list of
        phi(order) ints or strings of the form [+-]digits[/digits], such as
        "-3/7"; nothing is coerced.
        """
        if not isinstance(obj, dict) or "order" not in obj or "coeffs" not in obj:
            raise ValueError('a coefficient must be an object with "order" and "coeffs"')
        order, coeffs = obj["order"], obj["coeffs"]
        if type(order) is not int or order < 1:
            raise ValueError(f"coefficient order must be an integer >= 1, got {order!r}")
        if not isinstance(coeffs, list) or not all(
            type(c) in (int, str) and _RATIONAL.fullmatch(str(c)) for c in coeffs
        ):
            raise ValueError('coefficient coordinates must be integers or strings such as "-3/7"')
        # phi(n) >= sqrt(n / 2): rejects a huge order before factoring it
        if 2 * len(coeffs) ** 2 < order or len(coeffs) != euler_phi(order):
            raise ValueError(
                f"a coefficient of order {order} needs phi({order}) coordinates, "
                f"got {len(coeffs)}"
            )
        try:
            return CycNum(order, [Fraction(c) for c in coeffs])
        except ZeroDivisionError as exc:
            raise ValueError(f"coefficient coordinate with a zero denominator: {coeffs}") from exc


_new = object.__new__

# the coordinate strings `CycNum.to_json` prints; `Fraction` alone would also
# take "1.5", " 1", "1_0" and "1e999999999", the last as a billion-digit int
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _make(order: int, nums: tuple, den: int) -> CycNum:
    """A CycNum from coordinates already in canonical form."""
    x = _new(CycNum)
    x.order = order
    x.nums = nums
    x.den = den
    return x


def _canon(order: int, nums: list, den: int) -> CycNum:
    """A CycNum from int numerators over den > 0, divided by their gcd."""
    g = gcd(den, *nums)
    x = _new(CycNum)
    x.order = order
    if g == 1:
        x.nums = tuple(nums)
        x.den = den
    else:
        x.nums = tuple(c // g for c in nums)
        x.den = den // g
    return x


def _common(a: CycNum, b: CycNum):
    n = lcm(a.order, b.order)
    return a.lift(n), b.lift(n)


@lru_cache(maxsize=None)
def _root(order: int, k: int) -> CycNum:
    nums = [0] * euler_phi(order)
    for i, c in _power_rows(order)[k]:
        nums[i] = c
    return _make(order, tuple(nums), 1)


def cyc_root(order: int, k: int) -> CycNum:
    """The root of unity xi_order ** k as an exact CycNum."""
    return _root(order, k % order)


# -- lazily reduced sums -------------------------------------------------------
#
# A lazy sum is a dict {key: value} of unreduced numerators over one shared
# denominator in one field Q(xi_order): a value is an int when phi(order) = 1,
# else an int list of length 2 phi(order) - 1 (products of reduced operands,
# summed as they come).  The caller keeps (order, den) and adds the int
# convolution of each product's numerator tuples; nothing is reduced or
# canonicalised until `lazy_settle`.


def lazy_align(sums: tuple, order: int, den: int, x: CycNum, y: CycNum):
    """The rare path of a lazy sum: bring the product x * y into its field
    and over its denominator.

    Returns (order, den, x, ynums): the field grows to take in lcm(x.order,
    y.order) and the denominator to a multiple of x.den * y.den, rewriting
    every dict of `sums` in place; while all of them are empty the sum simply
    starts afresh in the product's field.  x comes back lifted into the
    field, and ynums are y's numerators lifted and scaled so that the
    convolution of x.nums and ynums is x * y over den.
    """
    started = any(sums)
    target = lcm(x.order, y.order)
    if not started:
        order = target
    elif order % target:
        target = lcm(order, target)
        for s in sums:
            _relift(s, order, target, 1)
        order = target
    x, y = x.lift(order), y.lift(order)
    d = x.den * y.den
    if not started:
        den = d
    elif den % d:
        grown = lcm(den, d)
        for s in sums:
            _relift(s, order, order, grown // den)
        den = grown
    scale = den // d
    return order, den, x, [c * scale for c in y.nums]


def _relift(sums: dict, order: int, target: int, factor: int) -> None:
    """Every value of a lazy sum times `factor`, moved from Q(xi_order) into
    Q(xi_target), a multiple of it; in place."""
    step = target // order
    phi = euler_phi(target)
    for k, v in sums.items():
        red = _reduce(order, [v] if type(v) is int else v)
        out = _subst([c * factor for c in red], step, target)
        sums[k] = out[0] if phi == 1 else out + [0] * (phi - 1)


def lazy_reduce(order: int, v):
    """One lazy value reduced modulo Phi_order: an int or a phi-long list,
    or None when it is zero."""
    if type(v) is int:
        return v or None
    red = _reduce(order, v)
    return red if any(red) else None


def lazy_add(sums: dict, key, v, factor: int) -> None:
    """sums[key] += factor * v, for v a value of `lazy_reduce`."""
    cur = sums.get(key)
    if type(v) is int:
        sums[key] = (cur or 0) + factor * v
        return
    if cur is None:
        cur = sums[key] = [0] * (2 * len(v) - 1)
    for i, c in enumerate(v):
        cur[i] += factor * c


def lazy_settle(sums: dict, order: int, den: int) -> dict:
    """{key: CycNum} of a lazy sum: each value reduced modulo Phi_order once
    and canonicalised once; zero values are dropped."""
    out = {}
    if euler_phi(order) == 1:
        for k, v in sums.items():
            if v:
                g = gcd(v, den)
                out[k] = _make(order, (v // g,), den // g)
        return out
    for k, v in sums.items():
        red = _reduce(order, v)
        if any(red):
            out[k] = _canon(order, red, den)
    return out


def lin_comb(terms: list, order: int) -> dict:
    """sum(c * v for c, v in terms), for CycNums c and sparse vectors v, as
    one lazy sum in Q(xi_order): every product lies in that field, and every
    value of the result is written there.  With c and the values of v in
    the field and of denominator 1, no product leaves the int fast path.  A
    product outside the field raises ValueError.
    """
    if not terms:
        return {}
    sums: dict = {}
    den = 1
    phi = euler_phi(order)
    for c, v in terms:
        a, da, oc = c.nums, c.den, c.order
        for k, y in v.items():
            b = y.nums
            if oc != order or y.order != order or da * y.den != den:
                if order % lcm(oc, y.order):
                    raise ValueError(f"a product of orders {oc}, {y.order} outside Q(xi_{order})")
                _, den, c, b = lazy_align((sums,), order, den, c.lift(order), y.lift(order))
                a, da, oc = c.nums, c.den, order
            if phi == 1:
                sums[k] = sums.get(k, 0) + a[0] * b[0]
                continue
            cur = sums.get(k)
            if cur is None:
                cur = sums[k] = [0] * (2 * phi - 1)
            for i, u in enumerate(a):
                if u:
                    for j, w in enumerate(b, i):
                        cur[j] += u * w
    return lazy_settle(sums, order, den)


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


def vec_scale(v: dict, c) -> dict:
    """c * v as a new vector; {} when c is zero."""
    return {k: x * c for k, x in v.items()} if c else {}


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


class Echelon:
    """A sparse row echelon of (vector, image) pairs: a partial linear map.

    Vectors and images are sparse dicts over ordered keys, with int, Fraction
    or CycNum entries.  Each row is stored under its pivot, the highest key
    of its vector, scaled to 1 there, as (tail, image): the vector without
    that unit entry, and the image scaled alike.  A reduction step pops the
    entry c at the pivot (it cancels exactly) and adds -c times the tail,
    and times the image only when the row has one.  `rank` is the number of
    rows.  Inserting a vector that reduces to zero checks that its image is
    consistent with the map built so far; a contradiction raises
    InconsistentPropagation.
    """

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, v: dict, img: dict) -> tuple[dict, dict]:
        """The residual of (v, img): the row at the highest key of v, times
        that entry, is taken off both until no row is stored at that key or
        v is zero.  The arguments are not modified."""
        v = dict(v)
        img = dict(img)
        rows = self.rows
        while v:
            p = max(v)
            row = rows.get(p)
            if row is None:
                break
            c = v.pop(p)
            tail, image = row
            if image:
                c = -c
                vec_add(v, tail, c)
                vec_add(img, image, c)
            elif tail:
                vec_add(v, tail, -c)
        return v, img

    def insert(self, v: dict, img: dict) -> bool:
        """Add the pair (v, img); True when it adds a row."""
        v, img = self.reduce(v, img)
        if not v:
            if img:
                raise InconsistentPropagation(
                    "two presentations of one element map to different images"
                )
            return False
        self._store(v, img)
        return True

    def _store(self, v: dict, img: dict) -> None:
        """Store a residual of `reduce` with v != 0 as a row under its
        pivot; v and img are consumed."""
        p = max(v)
        c = v.pop(p)
        if c != 1:
            inv = _ONE / c
            v = {k: x * inv for k, x in v.items()}
            img = {k: x * inv for k, x in img.items()}
        self.rows[p] = (v, img)

    def apply(self, v: dict) -> dict:
        """The image of v, which must lie in the span of the rows."""
        v, img = self.reduce(v, {})
        if v:
            raise InconsistentPropagation("element outside the propagated span")
        return {k: -x for k, x in img.items()}

    @property
    def rank(self) -> int:
        return len(self.rows)


def kernel_basis(columns: list, one) -> list[dict]:
    """A basis of the kernel of the matrix with these sparse columns, as
    sparse vectors over the column indices; `one` is the unit of the
    entries' number type.

    The columns are reduced once each, in order, with the unit image
    {j: one}; a nonzero residual is stored as a row, and a column that
    reduces to zero leaves its residual image, a kernel vector
    with `one` at column j and 0 at every later column and at every other
    such column: the normalisation of the reduced row echelon form.
    """
    ech = Echelon()
    out = []
    for j, col in enumerate(columns):
        v, img = ech.reduce(col, {j: one})
        if v:
            ech._store(v, img)
        else:
            out.append(img)
    return out


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return rf"{sign}\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"
