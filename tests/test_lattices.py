"""Lattice layer: canonical forms, intersections, indices, enumeration.

Expected values here were recomputed with the brute-force oracles at the
bottom of this file before being frozen into the assertions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauerval.errors import (
    DimensionMismatch,
    EnumerationBound,
    NonContainment,
    UnsupportedConfiguration,
)
from brauerval.lattices import (
    Lattice,
    ValueVector,
    _pivot_columns_mod_p,
    _xgcd,
    enumerate_overlattices,
    forget_memos,
    overlattice_count,
)

F = Fraction
V = ValueVector.of


# ---------------------------------------------------------------- oracles


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank mod p by Gauss-Jordan elimination on the rows: the oracle for the pivots."""
    mat = [[x % p for x in r] for r in rows]
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] % p != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], -1, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] % p != 0:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[row])]
        row += 1
        if row == len(mat):
            break
    return row


def intersection_oracle(a: Lattice, b: Lattice) -> Lattice:
    """Pointwise intersection for lattices containing Z^n.

    Both lattices live in (1/m)Z^n for m = lcm of the denominators, so
    the intersection is generated by Z^n together with its points in
    the fundamental box [0, 1)^n.
    """
    n = a.dim
    m = lcm(a.denominator, b.denominator)
    gens = []
    for coords in itertools.product(range(m), repeat=n):
        v = ValueVector.of(*(F(c, m) for c in coords))
        if a.contains(v) and b.contains(v):
            gens.append(v)
    return Lattice.integers(n).extended(tuple(gens))


def subgroup_count_oracle(dim: int, p: int, q: int) -> int:
    """Subgroups of (Z/q)^dim of order dividing q, counted by closure.

    Overlattices Z^dim <= L <= (1/q)Z^dim with [L : Z^dim] | q biject
    with these subgroups via L -> qL mod q.  Every subgroup of order
    dividing q <= p^2 needs at most two generators.
    """
    zero = (0,) * dim
    elems = list(itertools.product(range(q), repeat=dim))

    def closure(gens: list[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
        seen = {zero}
        frontier = [zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((x + y) % q for x, y in zip(cur, g))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    subgroups = {closure([])}
    for x in elems:
        subgroups.add(closure([x]))
    if q % (p * p) == 0:
        for x in elems:
            for y in elems:
                c = closure([x, y])
                if q % len(c) == 0:
                    subgroups.add(c)
    return sum(1 for s in subgroups if q % len(s) == 0)


def brute_force_overlattices(dim: int, p: int, q: int) -> list[Lattice]:
    """Every lattice Z^dim <= L <= (1/q)Z^dim with [L : Z^dim] | q, by filter.

    Walks every lower Hermite form M of q*L (diagonal entries dividing q
    whose product is a multiple of q^(dim-1), entries below each diagonal
    reduced mod it) and keeps those with q*Z^dim inside M, sorted like
    enumerate_overlattices.
    """
    divs = [d for d in range(1, q + 1) if q % d == 0]
    found = []
    for diag in itertools.product(divs, repeat=dim):
        prod = 1
        for d in diag:
            prod *= d
        if prod % q ** (dim - 1):
            continue
        cells = [(i, j) for i in range(dim) for j in range(i)]
        for off in itertools.product(*(range(diag[j]) for _, j in cells)):
            rows = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
            for (i, j), x in zip(cells, off):
                rows[i][j] = x
            if _contains_scaled_integers(rows, q):
                found.append(Lattice._from_integer_rows(dim, q, rows))
    zn = Lattice.integers(dim)
    return sorted(found, key=lambda lat: (lat.index_over(zn), lat.denominator, lat.rows))


def _contains_scaled_integers(rows: list[list[int]], q: int) -> bool:
    """Whether q * e_i lies in the row span for every i (rows lower triangular)."""
    n = len(rows)
    for i in range(n):
        target = [q if j == i else 0 for j in range(n)]
        for col in range(n - 1, -1, -1):
            if target[col] % rows[col][col] != 0:
                return False
            c = target[col] // rows[col][col]
            if c:
                for j in range(col + 1):
                    target[j] -= c * rows[col][j]
    return True


def fraction_coords_oracle(lat: Lattice, vec: ValueVector) -> tuple[Fraction, ...]:
    """Coefficients of vec in lat's basis by substitution on Fractions.

    The basis is lower triangular, so the last coordinate of vec fixes
    the last coefficient, and so on down to the first.
    """
    basis = [ValueVector.canonical(row, lat.denominator) for row in lat.rows]
    residual = list(vec.coords)
    coeffs = [F(0)] * lat.dim
    for i in reversed(range(lat.dim)):
        coeffs[i] = residual[i] / basis[i].coords[i]
        for j in range(i + 1):
            residual[j] -= coeffs[i] * basis[i].coords[j]
    return tuple(coeffs)


# ---------------------------------------------------------- value vectors


def test_lex_compare_reads_last_coordinate_first():
    assert V(0, F(2, 3)) > V(F(2, 3), 0)
    assert V(F(2, 3), 0) < V(0, F(2, 3))
    assert V(1, 2) == V(1, 2) and V(1, 2) <= V(1, 2) and V(1, 2) >= V(1, 2)
    assert V(-1, 0, 0) < V(0, 0, 0)
    # ties on the outermost coordinate fall through to the next one in
    assert V(F(1, 2), 1) < V(F(3, 4), 1)


def test_value_vector_arithmetic():
    a = V(F(1, 2), F(-1, 3))
    b = V(F(1, 2), F(1, 3))
    assert a + b == V(1, 0)
    assert a - b == V(0, F(-2, 3))
    assert -a == V(F(-1, 2), F(1, 3))
    assert a.scale(6) == V(3, -2)
    assert ValueVector.zero(3).is_zero()


def test_value_vector_dimension_checks():
    with pytest.raises(DimensionMismatch):
        V(1, 2) + V(1, 2, 3)
    with pytest.raises(DimensionMismatch):
        V(1) < V(1, 2)


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
            st.fractions(min_value=-3, max_value=3, max_denominator=6),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_lex_order_matches_reversed_tuple_sort(pairs):
    vecs = [V(*p) for p in pairs]
    by_compare = sorted(vecs, key=lambda v: v.coords[::-1])
    assert by_compare == sorted(vecs)


# --------------------------------- integer vectors against Fraction tuples


def as_integer_vector(coords: tuple[Fraction, ...], k: int) -> ValueVector:
    """coords as integers over an unreduced denominator (k times the lcm), reduced."""
    den = lcm(*(c.denominator for c in coords)) * k
    return ValueVector.canonical([int(c * den) for c in coords], den)


def fraction_lattice_oracle(dim: int, gens: list[tuple[Fraction, ...]]) -> Lattice:
    """Z^dim extended by Fraction tuples: rows over the lcm denominator."""
    den = lcm(1, *(c.denominator for g in gens for c in g))
    rows = [[int(c * den) for c in g] for g in gens]
    rows += [[den if i == j else 0 for j in range(dim)] for i in range(dim)]
    return Lattice._from_integer_rows(dim, den, rows)


def assert_canonical(v: ValueVector) -> None:
    assert v.den > 0 and gcd(v.den, *v.nums) == 1


fraction_coord = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def fraction_pairs(draw):
    """Two Fraction tuples of one dimension 1-4; sometimes equal, sometimes one coordinate apart."""
    dim = draw(st.integers(min_value=1, max_value=4))
    a = draw(st.tuples(*[fraction_coord] * dim))
    shape = draw(st.sampled_from(["free", "equal", "tie"]))
    if shape == "equal":
        return a, a
    b = draw(st.tuples(*[fraction_coord] * dim))
    if shape == "tie":
        # agree on the outer coordinates, so the order is decided further in
        return a, b[:1] + a[1:]
    return a, b


@settings(max_examples=300, deadline=None)
@given(
    fraction_pairs(),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([2, 3, 5, 7]),
)
def test_integer_vectors_match_fraction_tuples(pair, k1, k2, c, p):
    fa, fb = pair
    a, b = as_integer_vector(fa, k1), as_integer_vector(fb, k2)
    for v, f in ((a, fa), (b, fb)):
        assert_canonical(v)
        assert v.coords == f
        assert v == ValueVector.of(*f)
        assert str(v) == "(" + ", ".join(str(x) for x in f) + ")"
    results = {
        a + b: tuple(x + y for x, y in zip(fa, fb)),
        a - b: tuple(x - y for x, y in zip(fa, fb)),
        -a: tuple(-x for x in fa),
        a.scale(c): tuple(c * x for x in fa),
        a / p: tuple(x / p for x in fa),
    }
    for v, f in results.items():
        assert_canonical(v)
        assert v.coords == f
    ka, kb = fa[::-1], fb[::-1]
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a == b) == (fa == fb)
    if fa == fb:
        assert hash(a) == hash(b)


@st.composite
def generators_and_point(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    point = st.tuples(*[fraction_coord] * dim)
    return dim, draw(st.lists(point, max_size=3)), draw(point)


@settings(max_examples=150, deadline=None)
@given(generators_and_point(), st.integers(min_value=1, max_value=6))
def test_lattices_from_integer_vectors_match_fraction_input(case, k):
    dim, gens, point = case
    zn = Lattice.integers(dim)
    lat = zn.extended(tuple(as_integer_vector(g, k) for g in gens))
    assert lat == zn.extended(tuple(ValueVector.of(*g) for g in gens))
    assert lat == fraction_lattice_oracle(dim, gens)
    # grown from a base that is not Z^dim, one value at a time
    for i in range(len(gens)):
        base = fraction_lattice_oracle(dim, gens[:i])
        assert base.extended(tuple(as_integer_vector(g, k) for g in gens[i:])) == lat
    vec = as_integer_vector(point, k)
    nums, m = lat.scaled_coords(vec)
    assert (nums, m) == lat.scaled_coords(ValueVector.of(*point))
    assert tuple(F(a, m) for a in nums) == fraction_coords_oracle(lat, vec)


def test_known_lattices_skip_the_hermite_form():
    zn = Lattice.integers(3)
    assert zn.extended(()) is zn
    assert zn.extended((ValueVector.zero(3),)) is zn
    half = zn.extended((V(F(1, 2), 0, 0),))
    assert half.extended((V(F(3, 2), 1, 0), ValueVector.zero(3))) == half
    with pytest.raises(DimensionMismatch):
        zn.extended((ValueVector.zero(2),))
    with pytest.raises(ValueError):
        V(1, 2) / 0


# -------------------------------------------------------- canonical forms


def test_canonicalize_half_half_example():
    lat = Lattice.integers(2).extended((V(F(1, 2), F(1, 2)),))
    assert lat.denominator == 2
    assert lat.rows == ((2, 0), (1, 1))
    # same group as the basis {(1/2, 1/2), (0, 1)}
    assert lat == Lattice.integers(2).extended((V(F(1, 2), F(1, 2)), V(0, 1)))


def test_canonicalize_is_idempotent_on_examples():
    lat = Lattice.integers(3).extended((V(F(1, 2), 0, F(1, 4)), V(0, F(1, 2), F(3, 4))))
    basis = tuple(ValueVector.canonical(row, lat.denominator) for row in lat.rows)
    assert lat.extended(basis) == lat
    assert Lattice._from_integer_rows(3, lat.denominator, [list(r) for r in lat.rows]) == lat


def test_diagonal_and_integers():
    zn = Lattice.integers(3)
    assert zn.denominator == 1
    assert zn.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    lat = Lattice.diagonal([F(1, 2), F(1, 4), F(1, 2)])
    assert lat.denominator == 4
    assert lat.rows == ((2, 0, 0), (0, 1, 0), (0, 0, 2))
    assert lat.contains_lattice(zn)
    assert Lattice.diagonal([2, 4, 2]).denominator == 1
    assert Lattice.diagonal([2, 4, 2]).rows == ((2, 0, 0), (0, 4, 0), (0, 0, 2))
    # a sign does not change the group: the diagonal stays positive
    neg = Lattice.diagonal([F(-1, 2), -3, F(1, 3)])
    assert neg.denominator == 6
    assert neg.rows == ((3, 0, 0), (0, 18, 0), (0, 0, 2))
    assert neg == Lattice.diagonal([F(1, 2), 3, F(-1, 3)])


def test_hermite_reduction_conditions_hold():
    lat = Lattice.integers(3).extended(
        (V(F(5, 6), F(1, 3), F(1, 2)), V(F(1, 6), F(5, 6), F(1, 3)))
    )
    for i in range(3):
        assert lat.rows[i][i] > 0
        for j in range(3):
            if j > i:
                assert lat.rows[i][j] == 0
            elif j < i:
                assert 0 <= lat.rows[i][j] < lat.rows[j][j]


def test_diagonal_rejects_rank_deficiency():
    with pytest.raises(UnsupportedConfiguration):
        Lattice.diagonal([F(1, 2), 0])


# ------------------------------------- the row insertion against a sweep


def _triangular_basis(rows: list[list[int]], n: int) -> list[list[int]] | None:
    """Rows spanning the same lattice, row i on columns 0..i with a positive
    diagonal entry and nothing below it reduced; None if rank < n."""
    work = [list(r) for r in rows if any(r)]
    result: list[list[int]] = [[]] * n
    for col in range(n - 1, -1, -1):
        pivot: list[int] | None = None
        rest: list[list[int]] = []
        for r in work:
            if r[col] == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            a, b = pivot[col], r[col]
            g, x, y = _xgcd(a, b)
            # the 2x2 transform [[x, y], [-b//g, a//g]] has determinant 1
            new_p = [x * u + y * v for u, v in zip(pivot, r)]
            new_r = [(a // g) * v - (b // g) * u for u, v in zip(pivot, r)]
            pivot = new_p
            if any(new_r):
                rest.append(new_r)
        if pivot is None:
            return None
        result[col] = pivot if pivot[col] > 0 else [-u for u in pivot]
        work = rest
    return result


def sweep_oracle(dim: int, den: int, rows: list[list[int]]) -> Lattice:
    """(1/den) * span(rows) in canonical form, by one column sweep over every row."""
    basis = _triangular_basis(rows, dim)
    if basis is None:
        raise UnsupportedConfiguration("generators do not span the full dimension")
    return Lattice._from_triangular(dim, den, basis)


def outcome(build):
    """build()'s lattice, or the message of the UnsupportedConfiguration it raises."""
    try:
        return build()
    except UnsupportedConfiguration as err:
        return str(err)


@st.composite
def rows_over_a_denominator(draw):
    """dim 1-5, a denominator, and 0-7 integer rows with negative and zero entries
    (all-zero rows too), so full rank and rank-deficient inputs both occur."""
    dim = draw(st.integers(min_value=1, max_value=5))
    den = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12]))
    entry = st.integers(min_value=-9, max_value=9)
    row = st.one_of(st.just([0] * dim), st.lists(entry, min_size=dim, max_size=dim))
    return dim, den, draw(st.lists(row, max_size=7))


@settings(max_examples=300, deadline=None)
@given(rows_over_a_denominator())
def test_row_insertion_matches_the_sweep(case):
    dim, den, rows = case
    want = outcome(lambda: sweep_oracle(dim, den, rows))
    assert outcome(lambda: Lattice._from_integer_rows(dim, den, rows)) == want


@st.composite
def lattice_and_values(draw):
    """A full-rank lattice of dim 1-5 and 0-4 values over mixed denominators,
    some of them zero."""
    dim, den, rows = draw(rows_over_a_denominator())
    # the scaled unit rows keep the base full rank
    units = [[den if i == j else 0 for j in range(dim)] for i in range(dim)]
    lat = sweep_oracle(dim, den, rows + units)
    nums = st.lists(st.integers(min_value=-9, max_value=9), min_size=dim, max_size=dim)
    value = st.builds(ValueVector.canonical, nums, st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9]))
    zero = st.just(ValueVector.zero(dim))
    return lat, tuple(draw(st.lists(st.one_of(value, zero), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(lattice_and_values())
def test_extended_inserts_values_as_the_sweep_would(case):
    lat, values = case
    forget_memos()
    den = lcm(lat.denominator, *(v.den for v in values))
    rows = [[x * (den // lat.denominator) for x in r] for r in lat.rows]
    rows += [[a * (den // v.den) for a in v.nums] for v in values]
    assert lat.extended(values) == sweep_oracle(lat.dim, den, rows)
    zeros = tuple(v for v in values if v.is_zero())
    assert lat.extended(zeros) is lat


# ----------------------------------------------------- coords and indices


def integer_coords(lat: Lattice, vec: ValueVector) -> tuple[int, ...] | None:
    """vec's integer coefficients in the Hermite basis, None if vec is off lat."""
    nums, m = lat.scaled_coords(vec)
    if any(a % m for a in nums):
        return None
    return tuple(a // m for a in nums)


def test_coords_and_membership():
    lat = Lattice.integers(2).extended((V(F(1, 2), F(1, 2)),))
    assert lat.contains(V(F(3, 2), F(1, 2)))
    assert integer_coords(lat, V(F(3, 2), F(1, 2))) == (1, 1)
    assert not lat.contains(V(F(1, 2), 0))
    assert integer_coords(lat, V(F(1, 2), 0)) is None
    assert lat.order_of_class(V(F(1, 2), 0)) == 2
    assert lat.order_of_class(V(F(1, 3), F(1, 2))) == 6
    assert lat.order_of_class(V(2, 3)) == 1


def test_index_examples():
    zn = Lattice.integers(3)
    lat = Lattice.diagonal([F(1, 9), F(1, 3), F(1, 3)])
    assert lat.index_over(zn) == 81
    assert lat.index_over(lat) == 1
    with pytest.raises(NonContainment):
        zn.index_over(lat)


def test_index_over_fractional_lattices():
    # both denominators above 1, so the diagonal ratio needs both scales
    assert Lattice.diagonal([F(1, 4), F(1, 2)]).index_over(Lattice.diagonal([F(1, 2), 1])) == 4
    half = Lattice.integers(2).extended((V(F(1, 2), F(1, 2)),))
    assert Lattice.diagonal([F(1, 4), F(1, 4)]).index_over(half) == 8
    # equal covolumes, yet neither contains the other
    with pytest.raises(NonContainment):
        Lattice.diagonal([F(1, 2), 1]).index_over(Lattice.diagonal([1, F(1, 2)]))


# --------------------------------------------------- duals, intersections


def test_dual_examples():
    assert Lattice.integers(2).dual() == Lattice.integers(2)
    lat = Lattice.diagonal([F(1, 2), F(1, 4), F(1, 2)])
    assert lat.dual() == Lattice.diagonal([2, 4, 2])
    assert lat.dual().dual() == lat


def test_intersection_diagonal_example():
    a = Lattice.diagonal([F(1, 2), F(1, 4), F(1, 2)])
    b = Lattice.diagonal([F(1, 4), F(1, 2), F(1, 2)])
    assert a.intersect(b) == Lattice.diagonal([F(1, 2), F(1, 2), F(1, 2)])


def test_intersection_nondiagonal_example():
    a = Lattice.integers(2).extended((V(F(1, 2), F(1, 2)),))
    b = Lattice.integers(2).extended((V(F(1, 2), 0),))
    meet = a.intersect(b)
    assert meet == Lattice.integers(2)
    assert meet == intersection_oracle(a, b)


small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def overlattices(draw, dim: int):
    count = draw(st.integers(min_value=0, max_value=2))
    gens = [
        ValueVector.of(*(draw(small_fraction) for _ in range(dim)))
        for _ in range(count)
    ]
    return Lattice.integers(dim).extended(tuple(gens))


@settings(max_examples=60, deadline=None)
@given(overlattices(2), overlattices(2))
def test_intersection_matches_pointwise_oracle(a, b):
    assert a.intersect(b) == intersection_oracle(a, b)


@settings(max_examples=40, deadline=None)
@given(overlattices(3), overlattices(3))
def test_intersection_properties_dim3(a, b):
    meet = a.intersect(b)
    assert a.contains_lattice(meet)
    assert b.contains_lattice(meet)
    assert meet.contains_lattice(Lattice.integers(3))
    assert b.intersect(a) == meet
    assert a.intersect(a) == a


def row_values(lat: Lattice) -> tuple[ValueVector, ...]:
    """lat's basis rows as values, so extended grows a lattice by another."""
    return tuple(ValueVector(r, lat.denominator) for r in lat.rows)


@st.composite
def lattice_pairs(draw):
    """Two lattices of one dimension 1-3: unrelated, nested, or one diagonal."""
    dim = draw(st.integers(min_value=1, max_value=3))
    a, b = draw(overlattices(dim)), draw(overlattices(dim))
    shape = draw(st.sampled_from(["free", "nested", "diagonal"]))
    if shape == "nested":
        return a.extended(row_values(b)), b
    if shape == "diagonal":
        # need not contain Z^dim, so either side may miss the other
        scales = draw(st.lists(small_fraction.filter(bool), min_size=dim, max_size=dim))
        return a, Lattice.diagonal(scales)
    return a, b


@settings(max_examples=150, deadline=None)
@given(lattice_pairs())
def test_containment_and_index_match_fraction_oracles(pair):
    def covolume(lat):
        return prod(F(lat.rows[i][i], lat.denominator) for i in range(lat.dim))

    a, b = pair
    # a contains b exactly when adding b to a changes nothing
    assert a.contains_lattice(b) == (a.extended(row_values(b)) == a)
    assert b.contains_lattice(a) == (b.extended(row_values(a)) == b)
    meet = a.intersect(b)
    assert a.index_over(meet) == covolume(meet) / covolume(a)


def stacked_hermite_oracle(dim: int, parts: list[tuple[int, tuple[tuple[int, ...], ...]]]) -> Lattice:
    """One Hermite form from scratch over every (denominator, rows) part, stacked."""
    den = lcm(*(d for d, _ in parts))
    rows = [[x * (den // d) for x in r] for d, part in parts for r in part]
    return Lattice._from_integer_rows(dim, den, rows)


@settings(max_examples=100, deadline=None)
@given(lattice_pairs(), st.lists(st.tuples(small_fraction, small_fraction, small_fraction), max_size=3))
def test_extended_matches_a_fresh_hermite_form(pair, extra):
    a, b = pair
    values = tuple(V(*t[: a.dim]) for t in extra)

    def check():
        # one self with several arguments, so a key that dropped one would show
        for k in range(len(values) + 1):
            parts = [(a.denominator, a.rows)] + [(v.den, (v.nums,)) for v in values[:k]]
            assert a.extended(values[:k]) == stacked_hermite_oracle(a.dim, parts)
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            parts = [(x.denominator, x.rows), (y.denominator, y.rows)]
            assert x.extended(row_values(y)) == stacked_hermite_oracle(a.dim, parts)
        assert a.extended(row_values(b)) == b.extended(row_values(a))

    check()  # the tables still hold earlier examples' answers
    forget_memos()
    check()  # cold
    check()  # warm from this example's own answers


def test_index_over_a_non_sublattice_raises_on_every_call():
    zn = Lattice.integers(2)
    half = Lattice.diagonal([F(1, 2), 1])
    other = Lattice.diagonal([1, F(1, 2)])
    assert half.index_over(zn) == 2
    for _ in range(2):
        with pytest.raises(NonContainment):
            zn.index_over(half)
        # equal covolumes, so only the containment check can refuse
        with pytest.raises(NonContainment):
            half.index_over(other)
    assert half.index_over(zn) == 2


@st.composite
def groups_over_a_base(draw):
    """A base B of dimension 1-3, a group D containing it, and values growing B to E."""
    dim = draw(st.integers(min_value=1, max_value=3))
    base = draw(overlattices(dim))

    def values():
        count = draw(st.integers(min_value=1, max_value=2))
        return tuple(ValueVector.of(*(draw(small_fraction) for _ in range(dim))) for _ in range(count))

    return base, base.extended(values()), values()


@settings(max_examples=150, deadline=None)
@given(groups_over_a_base())
def test_groups_meet_in_the_base_iff_indices_multiply(case):
    # the peel's meet test: D meet E = B exactly when [D+E : B] = [D : B][E : B],
    # with D+E grown from D by the values that grow B to E
    base, d, e_values = case
    e = base.extended(e_values)
    by_index = d.extended(e_values).index_over(base) == d.index_over(base) * e.index_over(base)
    assert (d.intersect(e) == base) == by_index


@settings(max_examples=60, deadline=None)
@given(overlattices(3))
def test_dual_is_an_involution(lat):
    assert lat.dual().dual() == lat


@settings(max_examples=60, deadline=None)
@given(overlattices(3), st.lists(st.tuples(small_fraction, small_fraction, small_fraction), max_size=2))
def test_index_is_multiplicative_in_towers(lower, extra):
    upper = lower.extended(tuple(V(*t) for t in extra))
    zn = Lattice.integers(3)
    assert upper.index_over(zn) * 1 == upper.index_over(lower) * lower.index_over(zn)


@settings(max_examples=60, deadline=None)
@given(overlattices(3), st.tuples(small_fraction, small_fraction, small_fraction))
def test_order_of_class_is_minimal(lat, tup):
    v = V(*tup)
    k = lat.order_of_class(v)
    assert lat.contains(v.scale(k))
    for j in range(1, k):
        assert not lat.contains(v.scale(j))


# ------------------------------------------------------------ mod-p rank


# mixed denominators up to 9, both signs
coord_fraction = st.builds(
    F, st.integers(min_value=-27, max_value=27), st.integers(min_value=1, max_value=9)
)
point5 = st.tuples(*[coord_fraction] * 5)
scales5 = st.tuples(*[coord_fraction.filter(bool)] * 5)
coeffs5 = st.tuples(*[st.integers(min_value=-5, max_value=5)] * 5)


@st.composite
def lattice_and_vector(draw):
    """A lattice of dim 1-5, a vector, and its integer coefficients if known.

    The lattice is spanned by scaled unit vectors plus up to two random
    generators, so it need not contain Z^dim.  The vector is an integer
    combination of the basis, possibly shifted off the lattice.
    """
    dim = draw(st.integers(min_value=1, max_value=5))
    gens = [ValueVector.of(*c[:dim]) for c in draw(st.lists(point5, max_size=2))]
    lat = Lattice.diagonal(draw(scales5)[:dim]).extended(tuple(gens))
    coeffs = draw(coeffs5)[:dim]
    vec = ValueVector.zero(dim)
    for c, row in zip(coeffs, lat.rows):
        vec = vec + ValueVector.canonical(row, lat.denominator).scale(c)
    if draw(st.booleans()):
        return lat, vec, coeffs
    return lat, vec + ValueVector.of(*draw(point5)[:dim]), None


@settings(max_examples=100, deadline=None)
@given(lattice_and_vector())
def test_integer_coords_match_fraction_oracle(case):
    lat, vec, coeffs = case
    want = fraction_coords_oracle(lat, vec)
    nums, m = lat.scaled_coords(vec)
    assert tuple(F(a, m) for a in nums) == want
    inside = all(c.denominator == 1 for c in want)
    assert lat.contains(vec) == inside
    assert lat.order_of_class(vec) == lcm(*(c.denominator for c in want))
    if inside:
        assert integer_coords(lat, vec) == tuple(int(c) for c in want)
    else:
        assert integer_coords(lat, vec) is None
    if coeffs is not None:
        assert integer_coords(lat, vec) == coeffs


def test_coords_reject_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Lattice.integers(2).scaled_coords(V(1, 2, 3))
    with pytest.raises(DimensionMismatch):
        Lattice.integers(2).contains(V(1))


def test_unit_rank_reads_off_the_dual():
    """For Z^n <= L, the rank of the e_k in L/pL is rank(L* mod p)."""
    for lat, rank in [
        # e_0 = 2 * (1/2 e_0) dies mod 2, the other two survive
        (Lattice.diagonal([F(1, 2), 1, 1]), 2),
        (Lattice.integers(3), 3),
        (Lattice.diagonal([F(1, 2), F(1, 2), F(1, 2)]), 0),
        (Lattice.integers(2).extended((V(F(1, 2), F(1, 2)),)), 1),
    ]:
        units = [integer_coords(lat, ValueVector(e)) for e in Lattice.integers(lat.dim).rows]
        assert _rank_mod_p(units, 2) == rank
        assert _rank_mod_p(lat.dual().rows, 2) == rank


def first_independent_pair_oracle(rows: list[list[int]], p: int) -> tuple[int, int] | None:
    """First (k, l), k < l, whose columns are independent mod p, by 2-column ranks."""
    for k, l in itertools.combinations(range(len(rows[0])), 2):
        if _rank_mod_p([[row[k], row[l]] for row in rows], p) == 2:
            return (k, l)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-12, max_value=12), min_size=cols, max_size=cols),
            min_size=1,
            max_size=5,
        )
    ),
    st.sampled_from((2, 3, 5)),
)
def test_pivot_columns_give_rank_and_first_pair(rows, p):
    pivots = _pivot_columns_mod_p(rows, p)
    assert pivots == sorted(set(pivots))
    assert len(pivots) == _rank_mod_p(rows, p)
    assert (tuple(pivots[:2]) if len(pivots) >= 2 else None) == first_independent_pair_oracle(rows, p)


# ------------------------------------------------------------ enumeration


def test_enumerate_small_counts_match_oracle():
    for dim, p, k, frozen in [
        (2, 2, 1, 4),
        (1, 3, 1, 2),
        (2, 3, 1, 5),
        (3, 2, 1, 8),
        (3, 3, 1, 14),
        (4, 2, 2, 171),
    ]:
        got = enumerate_overlattices(dim, p, k)
        assert len(got) == frozen
        assert len(got) == subgroup_count_oracle(dim, p, p**k)
        assert overlattice_count(dim, p, k) == frozen


def test_enumerate_output_is_canonical_and_sorted():
    zn = Lattice.integers(3)
    box = Lattice.diagonal([F(1, 2)] * 3)
    out = [lat for lat, _ in enumerate_overlattices(3, 2, 1)]
    assert len(set(out)) == len(out)
    indices = []
    for lat in out:
        assert lat.contains_lattice(zn)
        assert box.contains_lattice(lat)
        indices.append(lat.index_over(zn))
        assert 2 % indices[-1] == 0
    assert indices == sorted(indices)
    assert out[0] == zn


def test_enumerate_trivial_and_errors():
    zn = Lattice.integers(3)
    assert enumerate_overlattices(3, 2, 0) == [(zn, zn.rows)]
    with pytest.raises(EnumerationBound):
        enumerate_overlattices(2, 2, 1, bound=3)


@pytest.mark.parametrize(
    "dim,p,k",
    [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 2), (3, 5, 1)],
)
def test_enumerate_matches_brute_force(dim, p, k):
    got = [lat for lat, _ in enumerate_overlattices(dim, p, k)]
    assert got == brute_force_overlattices(dim, p, p**k)


@pytest.mark.parametrize("dim,p,k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (3, 5, 1)])
def test_enumerate_hands_out_the_dual_forms(dim, p, k):
    """The s paired with each L is the upper Hermite form of L* = L.dual()."""
    zn = Lattice.integers(dim)
    for lat, s in enumerate_overlattices(dim, p, k):
        for i in range(dim):
            assert s[i][i] > 0
            for j in range(dim):
                if j < i:
                    assert s[i][j] == 0
                elif j > i:
                    assert 0 <= s[i][j] < s[j][j]
        assert Lattice._from_integer_rows(dim, 1, s) == lat.dual()
        assert prod(s[i][i] for i in range(dim)) == lat.index_over(zn)


def test_overlattice_count_closed_form():
    for dim, p, k, count in [
        (3, 2, 1, 8),
        (3, 3, 1, 14),
        (4, 2, 2, 171),
        (4, 3, 2, 1251),
        (5, 2, 3, 12494),
        (5, 3, 3, 936904),
    ]:
        assert overlattice_count(dim, p, k) == count
    assert overlattice_count(4, 2, 0) == 1
