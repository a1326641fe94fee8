"""Exact rational lattices between Z^n and (1/m)Z^n.

Value groups of the algebras we certify are finitely generated subgroups
of Q^n that contain Z^n.  This module gives them a canonical form (a
lower triangular Hermite basis over a minimal common denominator) plus
the handful of operations the verification layer needs: growing a known
group by new values (extended: every value group is Z^n or a base group
plus a few values), containment, intersection, index, duals and
exhaustive enumeration of the overlattices of Z^n of bounded exponent.
A basis is grown one integer row at a time (an incremental Hermite form,
Cohen, A Course in Computational Algebraic Number Theory, 2.4), so
extending a group inserts only the new values into the basis it has.
The enumeration walks each dual S = L* as an upper Hermite form, whose
scaled inverse transpose is already a triangular basis of L.

Values are ValueVectors: integer numerators over one denominator, kept
canonical (den > 0 and gcd(den, *nums) == 1), so every comparison, sum
and lattice coordinate runs on integers; Fraction appears only where
values are parsed (ValueVector.of) and rendered (coords, str).

Coordinates are ordered innermost first.  The valuation on an iterated
Laurent series field compares the *outermost* variable first, so the
lexicographic order used throughout reads tuples from the last
coordinate down to the first.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DimensionMismatch, EnumerationBound, NonContainment, UnsupportedConfiguration

FractionLike = Fraction | int

# default budget of overlattices an enumeration may walk (CLI --max-work)
WORK_BUDGET = 1 << 24

_MEMO_TABLES: list[dict] = []
_MISSING = object()
_KEYWORDS = object()


def memoised(fn):
    """fn answering equal arguments once until forget_memos().

    A positional call is keyed on its args tuple alone; a call with
    keywords on (_KEYWORDS, args, sorted kwargs), which no positional
    call can produce.  A plain function, so tracers still see each call;
    exceptions are not stored.  A hit costs the key's hash and, when the
    arguments are the very objects stored, identity checks only: towers,
    specs and lattices take their hash once (HashedOnce), and a task
    gets one spec per (tower, depth) from FieldTower.spec.
    """
    table: dict = {}
    _MEMO_TABLES.append(table)

    @functools.wraps(fn)
    def answer(*args, **kwargs):
        key = (_KEYWORDS, args, tuple(sorted(kwargs.items()))) if kwargs else args
        hit = table.get(key, _MISSING)
        if hit is _MISSING:
            hit = table[key] = fn(*args, **kwargs)
        return hit

    return answer


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, a field of a frozen record."""


def _refuse(self, name, *value):
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def record(cls=None, /, *, frozen=True, slots=True):
    """Class decorator writing what dataclass(frozen=True, slots=True) writes.

    The fields are the class's own annotations, in order; a class
    attribute is a default, and a dict default is copied per instance.
    One exec compiles __init__ (calling __post_init__ if the class has
    one), __eq__, __hash__ (unless the body sets one), __repr__ and the
    __getstate__/__setstate__ of pickle and copy, all on the field tuple,
    whose names are __match_args__.  A frozen record refuses assignment,
    a mutable one is unhashable.  With slots the class is rebuilt with a
    slot per field; without, instances keep a __dict__ (cached_property).
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, slots=slots)
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    namespace = {"_set": object.__setattr__, **{f"_d_{n}": own[n] for n in names if n in own}}
    params, body = ["self"], []
    for name in names:
        default, value = f"_d_{name}", name
        params.append(f"{name}={default}" if default in namespace else name)
        if isinstance(namespace.get(default), dict):
            value = f"dict({name}) if {name} is {default} else {name}"
        body.append(f"_set(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    fields = "".join(f"self.{name}," for name in names)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    restore = "; ".join(f"_set(self, {name!r}, state[{i}])" for i, name in enumerate(names))
    methods = {"__match_args__": names}
    exec("\n".join([
        f"def __init__({', '.join(params)}):", *(f"    {line}" for line in body),
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({fields}) == ({fields.replace('self.', 'other.')})",
        "    return NotImplemented",
        f'def __repr__(self): return f"{{self.__class__.__qualname__}}({shown})"',
        f"def __hash__(self): return hash(({fields}))",
        f"def __getstate__(self): return ({fields})",
        f"def __setstate__(self, state): {restore}",
    ]), namespace, methods)
    if frozen:
        methods.update(__setattr__=_refuse, __delattr__=_refuse)
    else:
        methods["__hash__"] = None
    # the class is made anew, its body's own methods kept over generated ones
    kept = {k: v for k, v in own.items() if k not in names and k not in ("__dict__", "__weakref__")}
    kept = {**methods, **kept, "__qualname__": cls.__qualname__}
    if slots:
        kept["__slots__"] = names
    return type(cls)(cls.__name__, cls.__bases__, kept)


class HashedOnce:
    """Mixin for frozen slots records used as memo keys: hash taken once.

    The hash is the record's own, hash of the tuple of the fields, so
    set and dict orders do not change.  It is taken on first use, since
    most lattices are never hashed, and kept in a slot that is not a
    field, so equality still compares every field.  A class repeats
    `__hash__ = HashedOnce.__hash__` in its body, or the record
    decorator replaces it.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, name) for name in self.__match_args__))
            object.__setattr__(self, "_hash", h)
            return h


def forget_memos() -> None:
    """Empty every memo table; the CLI does this after each task."""
    for table in _MEMO_TABLES:
        table.clear()


def _ordered(op):
    """op on the keys of two value vectors: last coordinate first, cross-multiplied."""

    def compare(self: ValueVector, other: ValueVector) -> bool:
        self._require_same_dim(other)
        d, e = self.den, other.den
        if d == e:
            return op(self.nums[::-1], other.nums[::-1])
        return op(
            tuple(a * e for a in reversed(self.nums)), tuple(b * d for b in reversed(other.nums))
        )

    return compare


@record
class ValueVector:
    """The point nums/den of Q^n, compared last coordinate first.

    Canonical form: den > 0 and gcd(den, *nums) == 1, so equal points
    have equal fields.  The raw constructor does not normalise; of()
    parses Fractions and canonical() reduces integer data.
    """

    nums: tuple[int, ...]
    den: int = 1

    @staticmethod
    def canonical(nums: tuple[int, ...] | list[int], den: int) -> ValueVector:
        """nums/den for den > 0, reduced to canonical form."""
        g = gcd(den, *nums)
        return ValueVector(tuple(a // g for a in nums), den // g)

    @staticmethod
    def of(*coords: FractionLike) -> ValueVector:
        # reduced denominators: their lcm leaves gcd(den, *nums) == 1
        den = lcm(1, *(c.denominator for c in coords))
        return ValueVector(tuple(c.numerator * (den // c.denominator) for c in coords), den)

    @staticmethod
    @functools.cache
    def zero(dim: int) -> ValueVector:
        """The origin of Q^dim, one shared vector per dim."""
        return ValueVector((0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.nums)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def _require_same_dim(self, other: ValueVector) -> None:
        if len(self.nums) != len(other.nums):
            raise DimensionMismatch(f"dimensions {self.dim} and {other.dim} differ")

    def __add__(self, other: ValueVector) -> ValueVector:
        self._require_same_dim(other)
        d, e = self.den, other.den
        if d == e:
            return ValueVector.canonical([a + b for a, b in zip(self.nums, other.nums)], d)
        m = lcm(d, e)
        s, t = m // d, m // e
        return ValueVector.canonical([a * s + b * t for a, b in zip(self.nums, other.nums)], m)

    def __sub__(self, other: ValueVector) -> ValueVector:
        return self + -other

    def __neg__(self) -> ValueVector:
        return ValueVector(tuple(-a for a in self.nums), self.den)

    def scale(self, k: int) -> ValueVector:
        return ValueVector.canonical([k * a for a in self.nums], self.den)

    def __truediv__(self, k: int) -> ValueVector:
        if k < 1:
            raise ValueError(f"value vectors are divided by positive integers, not {k}")
        return ValueVector.canonical(self.nums, self.den * k)

    __lt__ = _ordered(operator.lt)
    __le__ = _ordered(operator.le)
    __gt__ = _ordered(operator.gt)
    __ge__ = _ordered(operator.ge)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _insert(basis: list[Sequence[int] | None], row: Sequence[int]) -> None:
    """Grow a partial lower triangular basis by one integer row, in place.

    basis[c], when set, is zero after column c and positive at c.  The
    row is combined into the pivot of each of its nonzero columns, last
    column first, by a determinant-1 transform that clears its entry
    there; the first column it reaches that has no pivot takes the row.
    """
    for col in range(len(row) - 1, -1, -1):
        b = row[col]
        if b == 0:
            continue
        pivot = basis[col]
        if pivot is None:
            basis[col] = row if b > 0 else [-u for u in row]
            return
        a = pivot[col]
        g, x, y = _xgcd(a, b)
        # the 2x2 transform [[x, y], [-b//g, a//g]] has determinant 1
        basis[col] = [x * u + y * v for u, v in zip(pivot, row)]
        row = [(a // g) * v - (b // g) * u for u, v in zip(pivot, row)]


@record
class Lattice(HashedOnce):
    """(1/denominator) times the row span of an integer Hermite basis.

    rows is lower triangular with positive diagonal and off-diagonal
    entries reduced mod the diagonal below them, and gcd(denominator,
    all entries) == 1, so equal lattices compare equal as records.
    Construct through the classmethods; the raw constructor performs no
    normalisation.
    """

    dim: int
    denominator: int
    rows: tuple[tuple[int, ...], ...]

    __hash__ = HashedOnce.__hash__

    @classmethod
    def integers(cls, dim: int) -> Lattice:
        rows = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        return cls(dim, 1, rows)

    @classmethod
    def _from_integer_rows(cls, dim: int, denominator: int, rows: list[list[int]]) -> Lattice:
        basis: list[Sequence[int] | None] = [None] * dim
        for row in rows:
            _insert(basis, row)
        if any(r is None for r in basis):
            raise UnsupportedConfiguration("generators do not span the full dimension")
        return cls._from_triangular(dim, denominator, basis)

    @classmethod
    def _from_triangular(cls, dim: int, denominator: int, rows: list[list[int]]) -> Lattice:
        """Lower triangular rows, positive diagonal: reduced in place below each
        pivot, then their common factor divided out of the denominator."""
        for i in range(1, dim):
            for c in range(i - 1, -1, -1):
                k = rows[i][c] // rows[c][c]
                if k:
                    rows[i] = [a - k * b for a, b in zip(rows[i], rows[c])]
        g = gcd(denominator, *itertools.chain.from_iterable(rows))
        if g == 1:
            return cls(dim, denominator, tuple(map(tuple, rows)))
        return cls(dim, denominator // g, tuple(tuple(x // g for x in r) for r in rows))

    @classmethod
    def diagonal(cls, entries: list[FractionLike] | tuple[FractionLike, ...]) -> Lattice:
        """Lattice with orthogonal basis entries[i] * e_i."""
        dim = len(entries)
        den = lcm(1, *(e.denominator for e in entries))
        rows = [[int(e * den) if i == j else 0 for j in range(dim)] for i, e in enumerate(entries)]
        return cls._from_integer_rows(dim, den, rows)

    @memoised
    def extended(self, values: tuple[ValueVector, ...]) -> Lattice:
        """self + <values>, or self itself if every value is zero.

        self's rows are already a triangular basis, so only the values are
        inserted into it and the base rows are not eliminated again.
        """
        for v in values:
            if v.dim != self.dim:
                raise DimensionMismatch(f"value dimension {v.dim}, lattice {self.dim}")
        values = [v for v in values if any(v.nums)]
        if not values:
            return self
        den = lcm(self.denominator, *(v.den for v in values))
        s = den // self.denominator
        basis = list(self.rows) if s == 1 else [[x * s for x in r] for r in self.rows]
        for v in values:
            _insert(basis, [a * (den // v.den) for a in v.nums])
        return Lattice._from_triangular(self.dim, den, basis)

    def scaled_coords(self, vec: ValueVector) -> tuple[list[int], int]:
        """Integers a and m > 0 with a/m the coefficients of vec in the basis.

        Back-substitution on the integer rows from the last coordinate;
        m grows only when a pivot does not divide the running residual.
        """
        if vec.dim != self.dim:
            raise DimensionMismatch(f"vector dimension {vec.dim}, lattice {self.dim}")
        m = vec.den
        # sum_i a_i * rows[i] == m * denominator * vec
        residual = [a * self.denominator for a in vec.nums]
        nums = [0] * self.dim
        for i in range(self.dim - 1, -1, -1):
            row = self.rows[i]
            pivot = row[i]
            grow = pivot // gcd(residual[i], pivot)
            if grow > 1:
                m *= grow
                residual = [r * grow for r in residual]
                nums = [a * grow for a in nums]
            nums[i] = a = residual[i] // pivot
            for j in range(i):
                residual[j] -= a * row[j]
        return nums, m

    def contains(self, vec: ValueVector) -> bool:
        nums, m = self.scaled_coords(vec)
        return not any(a % m for a in nums)

    def contains_lattice(self, other: Lattice) -> bool:
        return all(self.contains(ValueVector(row, other.denominator)) for row in other.rows)

    def order_of_class(self, vec: ValueVector) -> int:
        """Order of vec in Q^dim modulo this lattice (1 if vec lies in it)."""
        nums, m = self.scaled_coords(vec)
        return m // gcd(m, *nums)

    @memoised
    def index_over(self, sub: Lattice) -> int:
        """[self : sub] for a full-rank sublattice, by the ratio of the diagonals."""
        if not self.contains_lattice(sub):
            raise NonContainment("index requested over a non-sublattice")
        n = self.dim
        index, rem = divmod(
            prod(sub.rows[i][i] for i in range(n)) * self.denominator**n,
            prod(self.rows[i][i] for i in range(n)) * sub.denominator**n,
        )
        if rem:
            raise NonContainment("diagonal ratio is not an integer")
        return index

    def dual(self) -> Lattice:
        """{y : <x, y> in Z for all x in self}: the columns of (rows/denominator)^-1."""
        det = prod(self.rows[i][i] for i in range(self.dim))
        cols = _scaled_inverse_columns(self.rows, det)
        return Lattice._from_integer_rows(
            self.dim, det, [[self.denominator * x for x in col] for col in cols]
        )

    def intersect(self, other: Lattice) -> Lattice:
        dual = other.dual()
        rows = tuple(ValueVector(r, dual.denominator) for r in dual.rows)
        return self.dual().extended(rows).dual()

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"(1/{self.denominator})[{body}]"


def _pivot_columns_mod_p(rows: tuple[tuple[int, ...], ...], p: int) -> list[int]:
    """The columns independent mod p of those before them, by one elimination:
    rank(rows mod p) of them, and the first two are the first independent pair."""
    basis: list[tuple[int, list[int]]] = []  # (lead, column with a 1 at lead)
    pivots = []
    for k, col in enumerate(zip(*rows)):
        v = [x % p for x in col]
        for lead, b in basis:
            f = v[lead]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            basis.append((lead, [x * inv % p for x in v]))
            pivots.append(k)
    return pivots


def overlattice_count(dim: int, p: int, k: int) -> int:
    """Number of lattices Z^dim <= L <= (1/p^k)Z^dim with [L : Z^dim] | p^k.

    Duality matches them with the sublattices of Z^dim of index p^j,
    j <= k, and there are [dim+j-1 choose j]_p of those (the zeta
    function of Z^dim, Grunewald-Segal-Smith 1988).
    """
    total = 0
    for j in range(k + 1):
        top = prod(p ** (dim + j - i) - 1 for i in range(1, j + 1))
        total += top // prod(p**i - 1 for i in range(1, j + 1))
    return total


def _scaled_inverse_columns(rows: tuple[tuple[int, ...], ...], q: int) -> list[list[int]]:
    """Columns of X with rows @ X == q * I, rows lower triangular, exactly."""
    n = len(rows)
    cols = []
    for c in range(n):
        x = [0] * n
        for i in range(c, n):
            s = (q if i == c else 0) - sum(rows[i][k] * x[k] for k in range(c, i))
            x[i], rem = divmod(s, rows[i][i])
            if rem:
                raise NonContainment(f"{q} * Z^{n} is not inside the sublattice")
        cols.append(x)
    return cols


def enumerate_overlattices(
    dim: int, p: int, k: int, bound: int = WORK_BUDGET
) -> list[tuple[Lattice, tuple[tuple[int, ...], ...]]]:
    """All lattices L with Z^dim <= L <= (1/q) Z^dim and [L : Z^dim] | q = p^k.

    L is reached through its dual S = L*, a sublattice of Z^dim of index
    p^j with j <= k: S runs over the upper Hermite forms U (a lower form
    read backwards) with diagonal p^e, sum of e = j, and entries above
    the diagonal p^e_c of column c in range(p^e_c).  The rows of
    q * U^-T are lower triangular and span qL, so reducing them gives
    L's canonical form with no Hermite elimination.  Every form gives a
    different valid L, so no candidate is rejected.  Each L comes paired
    with its U, a basis of L.dual(); the pairs are sorted by index p^j,
    then by the canonical form of L.  Raises EnumerationBound, before
    any lattice is built, if overlattice_count exceeds bound.
    """
    expected = overlattice_count(dim, p, k)
    if expected > bound:
        raise EnumerationBound("max-work", bound, expected)
    q = p**k
    found: list[tuple[Lattice, tuple[tuple[int, ...], ...]]] = []
    for j in range(k + 1):
        bucket = []
        for exps in itertools.product(range(j + 1), repeat=dim):
            if sum(exps) != j:
                continue
            diag = [p**e for e in exps]
            # row i's tuples and their reverses (row dim-1-i of U), shared by the forms
            row_choices = [
                [(row, row[::-1]) for row in (
                    off + (diag[i],) + (0,) * (dim - 1 - i)
                    for off in itertools.product(*(range(diag[c]) for c in range(i))))]
                for i in range(dim)
            ]
            for pairs in itertools.product(*row_choices):
                s, upper = zip(*pairs)
                cols = _scaled_inverse_columns(s, q)
                lat = Lattice._from_triangular(dim, q, [c[::-1] for c in reversed(cols)])
                bucket.append((lat, upper[::-1]))
        bucket.sort(key=lambda t: (t[0].denominator, t[0].rows))
        found += bucket
    assert len(found) == expected
    return found
