import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loomfold.errors import InconsistentPropagation
from loomfold.exactnum import (
    CycNum,
    Echelon,
    cyc_root,
    cyclotomic_poly,
    euler_phi,
    kernel_basis,
    lin_comb,
    vec_add,
    vec_scale,
)


# Independent oracle: dense integer-coefficient polynomial arithmetic modulo
# Phi_N, written without reference to the CycNum internals.
def _oracle_mul_mod_phi(n, a, b):
    phi = list(cyclotomic_poly(n))
    deg = len(phi) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = Fraction(0)
            for j in range(deg):
                prod[i - deg + j] -= c * phi[j]
    out = prod[:deg] + [Fraction(0)] * max(0, deg - len(prod))
    return out[:deg]


def test_phi_values():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_basics():
    assert cyc_root(1, 5) == 1
    assert cyc_root(2, 1) == -1
    # sum of the two primitive cube roots, via reduction x^2 + x + 1 = 0
    assert cyc_root(3, 1) + cyc_root(3, 2) == -1
    # result depends only on k mod N
    assert cyc_root(5, 7) == cyc_root(5, 2)
    assert cyc_root(4, 1) * cyc_root(4, 1) == -1
    assert cyc_root(3, 1) / cyc_root(3, 1) == 1


def test_mul_against_oracle():
    # (1 + xi_5) * (1 + xi_5^4), expanded by brute-force product mod Phi_5
    a = CycNum(5, [1, 1, 0, 0])
    b = CycNum(5, [1, 0, 0, 0]) + cyc_root(5, 4)
    got = a * b
    expect = _oracle_mul_mod_phi(5, [1, 1, 0, 0], list(b.coeffs))
    assert list(got.coeffs) == expect


def test_order_coercion_through_lcm():
    x = cyc_root(4, 1) * cyc_root(6, 1)
    assert x.order == 12
    assert x == cyc_root(12, 3 + 2)


def test_power_identity_small_orders():
    for n in range(1, 25):
        assert math.prod([cyc_root(n, 1)] * n, start=CycNum.one()) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
def test_averaging_identity(n):
    # sum over k of xi^(k m) is n when n | m, else 0
    for m in range(-2 * n, 2 * n + 1):
        total = CycNum.zero(n)
        for k in range(n):
            total = total + cyc_root(n, k * m)
        if m % n == 0:
            assert total == n
        else:
            assert total.is_zero()


def _cyc(order, coeff_list):
    return CycNum(order, coeff_list)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_numbers(draw, orders=(1, 2, 3, 4, 6)):
    order = draw(st.sampled_from(orders))
    coeffs = draw(
        st.lists(small_fraction, min_size=euler_phi(order), max_size=euler_phi(order))
    )
    return _cyc(order, coeffs)


@settings(max_examples=150, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(cyc_numbers(orders=(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15)))
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        cyc_root(3, 1) / CycNum.zero(3)


def test_json_round_trip():
    x = CycNum(5, [Fraction(1, 2), 0, Fraction(-3, 7), 2])
    assert CycNum.from_json(x.to_json()) == x
    assert x.to_json() == {"order": 5, "coeffs": ["1/2", "0", "-3/7", "2"]}


@given(
    st.sampled_from([1, 3, 5, 7]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(-60, 60), min_size=euler_phi(n), max_size=euler_phi(n)),
        )
    ),
    st.integers(1, 720),
)
def test_to_json_prints_each_coordinate_as_str_fraction(order_nums, den):
    # zero, negative and positive numerators over a shared denominator
    order, nums = order_nums
    x = CycNum(order, [Fraction(n, den) for n in nums])
    assert x.to_json() == {"order": order, "coeffs": [str(Fraction(n, den)) for n in nums]}


def test_latex_non_rational():
    x = CycNum(5, [Fraction(1, 2), 0, Fraction(-3, 4), 0])
    assert x.latex() == r"\frac{1}{2}-\frac{3}{4}\xi_{5}^{2}"


def test_rational_helpers():
    x = CycNum.from_rational(Fraction(3, 4), 6)
    assert x.is_rational() and x.as_fraction() == Fraction(3, 4)
    assert x.mul_rational(4) == 3
    y = cyc_root(3, 1)
    assert not y.is_rational()
    with pytest.raises(ValueError):
        y.as_fraction()


# -- the integer representation, against sympy ---------------------------------


def _sympy_poly(x: CycNum, step: int):
    """x as a polynomial in xi_(step * x.order), with rational coefficients."""
    import sympy

    t = sympy.Symbol("t")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * t ** (j * step)
        for j, c in enumerate(x.coeffs)
    )
    return sympy.Poly(expr, t, domain="QQ")


def _sympy_coords(poly, order: int) -> tuple:
    """Coordinates of a sympy polynomial reduced modulo Phi_order."""
    import sympy

    t = poly.gens[0]
    rem = poly.rem(sympy.Poly(sympy.cyclotomic_poly(order, t), t, domain="QQ"))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (euler_phi(order) - len(coeffs)))


def _assert_canonical(x: CycNum):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int for c in x.nums) and len(x.nums) == euler_phi(x.order)
    assert math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def _sparse_coeffs(order):
    entry = st.one_of(st.just(Fraction(0)), small_fraction)
    return st.lists(entry, min_size=euler_phi(order), max_size=euler_phi(order))


@st.composite
def any_order_numbers(draw):
    order = draw(st.integers(1, 12))
    return CycNum(order, draw(_sparse_coeffs(order)))


@settings(max_examples=200, deadline=None)
@given(any_order_numbers(), any_order_numbers())
def test_arithmetic_against_sympy(a, b):
    n = math.lcm(a.order, b.order)
    pa, pb = _sympy_poly(a, n // a.order), _sympy_poly(b, n // b.order)
    for got, want in ((a * b, pa * pb), (a + b, pa + pb), (a - b, pa - pb)):
        _assert_canonical(got)
        assert got.order == n
        assert got.coeffs == _sympy_coords(want, n)
    if b:
        inv = b.inverse()
        _assert_canonical(inv)
        assert inv.order == b.order
        one = _sympy_poly(b, 1) * _sympy_poly(inv, 1)
        assert _sympy_coords(one, b.order) == _sympy_coords(_sympy_poly(CycNum.one(), 1), b.order)


@settings(max_examples=150, deadline=None)
@given(any_order_numbers(), any_order_numbers())
def test_canonical_form(a, b):
    # equal values of one order have identical (order, nums, den)
    n = math.lcm(a.order, b.order)
    pairs = [(a * b, b * a), (a + b - b, a.lift(n)), (a - a, CycNum.zero(a.order))]
    if b:
        pairs.append((a * b / b, a.lift(n)))
    for x, y in pairs:
        _assert_canonical(x)
        _assert_canonical(y)
        assert x == y
        assert (x.order, x.nums, x.den) == (y.order, y.nums, y.den)


@settings(max_examples=150, deadline=None)
@given(any_order_numbers(), st.integers(-30, 30))
def test_rotated_is_the_product_with_a_root(a, k):
    # a root of unity is a unit of Z[xi]: the rotated numerators need no gcd
    got = a.rotated(k)
    want = a * cyc_root(a.order, k)
    _assert_canonical(got)
    assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)


def test_products_and_sums_build_no_fraction(monkeypatch):
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    xs = [CycNum(n, [Fraction(k + 1, 3 + k) for k in range(euler_phi(n))]) for n in (1, 2, 3, 5, 6)]
    rationals = [CycNum.from_rational(Fraction(-7, 4), n) for n in (1, 5, 12)]
    one = Fraction(1)
    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in xs:
        for y in xs:
            x * y, x + y, x - y, x == y, x.mul_rational(3), -x, cyc_root(12, 5) * x
    for x in xs + rationals:
        x.inverse(), one / x, cyc_root(12, 5) / x
    assert made == []


# -- the shared row reduction, against sympy ----------------------------------


@st.composite
def fraction_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    # entries from a small pool, so that singular matrices come up often
    entry = st.sampled_from([Fraction(x, d) for x in range(-2, 3) for d in (1, 2, 3)])
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if draw(st.booleans()) and nrows > 1:
        rows[-1] = list(rows[0])  # a repeated row: singular whenever square
    return rows


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def _rational(x: Fraction):
    import sympy

    return sympy.Rational(x.numerator, x.denominator)


def _sparse_rows(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _sparse_columns(rows):
    return _sparse_rows(list(zip(*rows)))


def _rank(rows):
    ech = Echelon()
    for row in _sparse_rows(rows):
        ech.insert(row, {})
    return ech.rank


@settings(max_examples=200, deadline=None)
@given(fraction_matrices())
def test_elimination_against_sympy(rows):
    import sympy

    ref = sympy.Matrix([[_rational(x) for x in row] for row in rows])
    n = len(rows[0])
    rank = _rank(rows)
    assert rank == ref.rank()
    kernel = kernel_basis(_sparse_columns(rows), Fraction(1))
    assert all(type(x) is Fraction for v in kernel for x in v.values())
    assert len(kernel) == n - rank == len(ref.nullspace())
    # the same normalisation as sympy: free column 1, pivots back-substituted
    dense = [[_rational(v.get(j, Fraction(0))) for j in range(n)] for v in kernel]
    assert dense == [list(v) for v in ref.nullspace()]
    if len(rows) != n:
        return
    # Sylvester: row k, reduced by the rows before it with the columns in
    # reverse key order, leaves D_k / D_(k-1) at column k
    minors = [ref[:k, :k].det() for k in range(1, n + 1)]
    ech = Echelon()
    previous = 1
    for k, row in enumerate(_sparse_rows(rows)):
        v, img = ech.reduce({-j: x for j, x in row.items()}, {})
        assert img == {}
        pivot = v.get(-k, 0)
        assert _rational(Fraction(pivot)) * previous == minors[k]
        if not pivot:
            break
        ech.insert(v, {})
        previous = minors[k]
    if ref.det() == 0:
        assert rank < n
        return
    # solve: the columns with unit images map e_i to column i of the inverse
    columns = Echelon()
    for j, col in enumerate(_sparse_columns(rows)):
        assert columns.insert(col, {j: Fraction(1)})
    inv = [columns.apply({i: Fraction(1)}) for i in range(n)]
    assert all(type(x) is Fraction for v in inv for x in v.values())
    dense = [[_rational(inv[c].get(r, Fraction(0))) for c in range(n)] for r in range(n)]
    assert sympy.Matrix(dense) == ref.inv()


def test_echelon_rejects_inconsistent_images():
    ech = Echelon()
    assert ech.insert({0: Fraction(1)}, {"a": Fraction(2)})
    assert ech.insert({1: Fraction(1), 0: Fraction(1)}, {"b": Fraction(1)})
    assert not ech.insert({0: Fraction(3)}, {"a": Fraction(6)})
    assert ech.apply({1: Fraction(2)}) == {"b": Fraction(2), "a": Fraction(-4)}
    with pytest.raises(InconsistentPropagation):
        ech.insert({0: Fraction(1)}, {"a": Fraction(1)})
    with pytest.raises(InconsistentPropagation):
        ech.apply({2: Fraction(1)})
    assert ech.rank == 2


def test_lin_comb_sums_in_the_field_it_is_given():
    half, xi4, xi6 = CycNum.from_rational(Fraction(1, 2)), cyc_root(4, 1), cyc_root(6, 1)
    # products of orders 1 and 4 in Q(xi_4): every value is written there,
    # the rational one too
    total = lin_comb([(half, {"a": CycNum.one(), "b": xi4}), (xi4, {"a": xi4})], 4)
    assert total == {"a": CycNum.from_rational(Fraction(-1, 2)), "b": xi4 * half}
    assert {c.order for c in total.values()} == {4}
    assert lin_comb([(xi4, {"a": xi4}), (CycNum.one(4), {"a": CycNum.one()})], 4) == {}
    # a product of order 12 is outside Q(xi_4) and outside Q(xi_6), first or
    # after other terms
    for terms, order in (
        ([(xi4, {"a": xi6})], 4),
        ([(half, {"a": xi4}), (xi6, {"b": xi4})], 4),
        ([(half, {"a": xi6}), (xi6, {"b": xi4})], 6),
    ):
        with pytest.raises(ValueError, match="outside"):
            lin_comb(terms, order)


@pytest.mark.parametrize("order", [3, 5])
def test_cyclotomic_kernel_is_exact(order):
    import random

    rng = random.Random(order)
    phi = euler_phi(order)

    def num():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(phi)]
        return CycNum(order, coeffs)

    for nrows, ncols in [(3, 4), (3, 3), (3, 5), (4, 4)]:
        rows = [[num() for _ in range(ncols)] for _ in range(nrows)]
        xi = cyc_root(order, 1)
        rows[-1] = [xi * a - b for a, b in zip(rows[0], rows[1])]  # force a dependency
        kernel = kernel_basis(_sparse_columns(rows), CycNum.one())
        assert len(kernel) == ncols - _rank(rows)
        assert len(kernel) >= ncols - nrows + 1
        for vec in kernel:
            for row in rows:
                acc = CycNum.zero(order)
                for j, x in vec.items():
                    acc = acc + row[j] * x
                assert acc.is_zero()


# -- the stored rows, against an elimination that keeps each pivot entry ------


class _PivotEchelon:
    """The elimination with the unit pivot entry kept in each row: a step
    takes c = v[p] times the whole row off the vector, and off the image,
    with two `vec_add`s."""

    def __init__(self):
        self.rows = {}

    def reduce(self, v, img):
        v, img = dict(v), dict(img)
        while v:
            p = max(v)
            if p not in self.rows:
                break
            vec, image = self.rows[p]
            c = v[p]
            vec_add(v, vec, -c)
            vec_add(img, image, -c)
        return v, img

    def insert(self, v, img):
        v, img = self.reduce(v, img)
        if not v:
            if img:
                raise InconsistentPropagation("contradicting image")
            return False
        p = max(v)
        inv = Fraction(1) / v[p]
        self.rows[p] = (vec_scale(v, inv), vec_scale(img, inv))
        return True

    def apply(self, v):
        v, img = self.reduce(v, {})
        assert not v
        return vec_scale(img, -1)


def _entries(kind):
    pool = [0, 0, 0, 1, 1, -1, 2, -3]
    if kind == "int":
        return st.sampled_from(pool)
    if kind == "Fraction":
        return st.sampled_from([Fraction(x, d) for x in pool for d in (1, 2, 3)])
    order = int(kind[-1])
    coeffs = st.lists(st.sampled_from(pool), min_size=euler_phi(order), max_size=euler_phi(order))
    return coeffs.map(lambda c: CycNum(order, c))


@st.composite
def echelon_pairs(draw):
    """(kind, one, pairs): sparse (vector, image) pairs of one number type.
    Some are sums of two earlier pairs, consistent or with a perturbed
    image, so that insertions reduce to zero and contradict."""
    kind = draw(st.sampled_from(["int", "Fraction", "CycNum1", "CycNum3", "CycNum4", "CycNum5"]))
    one = {"int": 1, "Fraction": Fraction(1)}.get(kind) or CycNum.one(int(kind[-1]))
    entry = _entries(kind)

    def sparse(keys):
        return {k: x for k, x in draw(st.dictionaries(keys, entry, max_size=4)).items() if x}

    pairs = []
    for _ in range(draw(st.integers(1, 10))):
        move = draw(st.sampled_from(["fresh", "fresh", "sum", "clash"]))
        if move == "fresh" or not pairs:
            img = sparse(st.sampled_from("abc")) if draw(st.booleans()) else {}
            pairs.append((sparse(st.integers(0, 5)), img))
            continue
        (v, img), (w, img2) = draw(st.sampled_from(pairs)), draw(st.sampled_from(pairs))
        c = draw(entry)
        v, img = dict(v), dict(img)
        vec_add(v, w, c)
        vec_add(img, img2, c)
        if move == "clash":
            vec_add(img, {"a": one})
        pairs.append((v, img))
    return kind, one, pairs


@settings(max_examples=300, deadline=None)
@given(echelon_pairs())
def test_echelon_matches_pivot_entry_elimination(case):
    _, one, pairs = case
    ech, ref = Echelon(), _PivotEchelon()
    members = []
    for v, img in pairs:
        try:
            want = ref.insert(v, img)
        except InconsistentPropagation:
            with pytest.raises(InconsistentPropagation):
                ech.insert(v, img)
            continue
        assert ech.insert(v, img) == want
        members.append(v)
    assert list(ech.rows) == list(ref.rows) and ech.rank == len(ref.rows)
    for p, (tail, image) in ech.rows.items():
        vec, ref_image = ref.rows[p]
        assert vec[p] == 1 and tail == {k: x for k, x in vec.items() if k != p}
        assert image == ref_image
    members.append({})
    for v in members:
        assert ech.apply(v) == ref.apply(v)
    columns = [v for v, _ in pairs]
    ref_cols, ref_kernel = _PivotEchelon(), []
    for j, col in enumerate(columns):
        v, img = ref_cols.reduce(col, {j: one})
        if v:
            ref_cols.insert(v, img)
        else:
            ref_kernel.append(img)
    assert kernel_basis(columns, one) == ref_kernel
