"""Iterated Laurent series towers and the elements we valuate inside them.

A tower is F_0((u_1))((u_2))...((u_n)) together with a list of certified
degree-p extension generators.  `adjoin` is the one way to add a
generator: its kind (ARTIN_SCHREIER or PTH_ROOT) is an argument, and the
value of the right hand side alone decides whether the extension is
ramified, residual or refused.  That rule (`_ramification_refusal`)
holds at every depth: `generator_value` and `residue_tower` apply it
again under each partial valuation, so a generator that ramifies at
full depth but not at some depth is refused there.  Elements are kept
as formal sums of Laurent monomials in named symbols; no series tails
are ever needed because every computation the verifier checks stays
inside the subring generated by finitely many monomials.

The valuation is the standard rank-n one: the value of a monomial is
read off the exponents of the active variables, and the outermost
variable is the most significant coordinate.  An element only gets a
value when exactly one "active part" realises the minimum, because
distinct residue-level monomials cannot cancel; anything else raises
AmbiguousValuation rather than guessing.

Towers and specs are the keys of most memo tables, so a hit must be
cheap: `FieldTower.spec` gives a task one spec per (tower, depth), and
towers and specs take their hash once (`HashedOnce`), while equality
still compares every field.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import comb, isqrt

from .errors import (
    AmbiguousValuation,
    DimensionMismatch,
    UnsupportedConfiguration,
    ZeroElement,
)
from .lattices import HashedOnce, Lattice, ValueVector, memoised, record

Monomial = tuple[tuple[str, int], ...]

ARTIN_SCHREIER = "artin-schreier"
PTH_ROOT = "pth-root"

KINDS = (ARTIN_SCHREIER, PTH_ROOT)
_JUSTIFICATIONS = ("ramified", "residue-laurent", "residue-generic")


def _merge_monomial(entries: list[tuple[str, int]]) -> Monomial:
    acc: dict[str, int] = {}
    for name, exp in entries:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in acc.items() if e != 0))


@record
class FormalElement:
    """Sum of coeff * monomial over the prime field F_char.

    terms are sorted by monomial and never carry a zero coefficient, so
    equal elements compare equal.  The representation knows nothing
    about towers; names are resolved where values are taken.
    """

    char: int
    terms: tuple[tuple[Monomial, int], ...]

    @staticmethod
    def _normal(char: int, raw: dict[Monomial, int]) -> FormalElement:
        terms = tuple(
            (m, c % char) for m, c in sorted(raw.items()) if c % char != 0
        )
        return FormalElement(char, terms)

    @staticmethod
    def zero(char: int) -> FormalElement:
        return FormalElement(char, ())

    @staticmethod
    def constant(char: int, value: int) -> FormalElement:
        return FormalElement._normal(char, {(): value})

    @staticmethod
    def one(char: int) -> FormalElement:
        return FormalElement.constant(char, 1)

    @staticmethod
    def monomial(char: int, names: dict[str, int], coeff: int = 1) -> FormalElement:
        m = _merge_monomial(list(names.items()))
        return FormalElement._normal(char, {m: coeff})

    @staticmethod
    def symbol(char: int, name: str, exp: int = 1, coeff: int = 1) -> FormalElement:
        return FormalElement.monomial(char, {name: exp}, coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def is_inverse_of(self, other: FormalElement) -> bool:
        """Whether self * other is 1, without the product: units are single terms,
        so both are one term, with negated exponents and inverse coefficients."""
        if len(self.terms) != 1 or len(other.terms) != 1 or self.char != other.char:
            return False
        (m, c), (n, d) = self.terms[0], other.terms[0]
        return (
            len(m) == len(n)
            and all(a == b and e == -f for (a, e), (b, f) in zip(m, n))
            and c == pow(d, -1, self.char)
        )

    def names(self) -> frozenset[str]:
        return frozenset(n for m, _ in self.terms for n, _ in m)

    def _require_same_char(self, other: FormalElement) -> None:
        if self.char != other.char:
            raise UnsupportedConfiguration(
                f"characteristics {self.char} and {other.char} differ"
            )

    def __add__(self, other: FormalElement) -> FormalElement:
        self._require_same_char(other)
        acc: dict[Monomial, int] = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return FormalElement._normal(self.char, acc)

    def __neg__(self) -> FormalElement:
        return FormalElement(self.char, tuple((m, (-c) % self.char) for m, c in self.terms))

    def __sub__(self, other: FormalElement) -> FormalElement:
        return self + (-other)

    def __mul__(self, other: FormalElement) -> FormalElement:
        self._require_same_char(other)
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _merge_monomial(list(m1) + list(m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return FormalElement._normal(self.char, acc)

    def scale(self, k: int) -> FormalElement:
        return FormalElement._normal(self.char, {m: c * k for m, c in self.terms})

    def inverse(self) -> FormalElement:
        """Inverse of a single-term element; sums have no monomial inverse."""
        if len(self.terms) != 1:
            raise UnsupportedConfiguration("only monomial elements can be inverted")
        m, c = self.terms[0]
        inv_m = tuple((n, -e) for n, e in m)
        return FormalElement(self.char, ((inv_m, pow(c, -1, self.char)),))

    def __pow__(self, k: int) -> FormalElement:
        base = self if k >= 0 else self.inverse()
        out = FormalElement.one(self.char)
        for _ in range(abs(k)):
            out = out * base
        return out

    def pow_p(self) -> FormalElement:
        """Frobenius: acts termwise, fixing prime-field coefficients."""
        return FormalElement(
            self.char,
            tuple(
                (tuple((n, e * self.char) for n, e in m), c) for m, c in self.terms
            ),
        )

    def substitute_monomial(self, old: str, new: str, exp_factor: int) -> FormalElement:
        """Rename old -> new^exp_factor inside every monomial."""
        acc: dict[Monomial, int] = {}
        for m, c in self.terms:
            entries = [
                (new, e * exp_factor) if n == old else (n, e) for n, e in m
            ]
            mm = _merge_monomial(entries)
            acc[mm] = acc.get(mm, 0) + c
        return FormalElement._normal(self.char, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            factors = [f"{n}^{e}" if e != 1 else n for n, e in m]
            if not factors or c != 1:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts)


def is_prime(p: int) -> bool:
    """Exact primality by trial division up to isqrt(p)."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def artin_schreier_image(e: FormalElement) -> FormalElement:
    """The additive map x -> x^p - x, taken termwise via Frobenius."""
    return e.pow_p() - e


@record
class GroundField:
    """Residue-level base field F_0.

    constants are names of elements of F_0 treated as independent
    generics: no polynomial identity over the prime field is assumed to
    hold between them, so an Artin-Schreier equation with a nonconstant
    generic right hand side is certified irreducible.
    """

    characteristic: int
    constants: frozenset[str] = frozenset()
    algebraically_closed: bool = False

    def __post_init__(self) -> None:
        if not is_prime(self.characteristic):
            raise UnsupportedConfiguration("ground characteristic must be a prime p >= 2")


@record
class ExtensionGenerator:
    """A certified degree-p element adjoined on top of a tower.

    kind artin-schreier: gen^p - gen = rhs
    kind pth-root:       gen^p = rhs

    justification records why the extension really has degree p: a
    ramified value, a residue-level Laurent value or a generic constant.
    The record is not trusted: `generator_value` and `residue_tower`
    re-certify the rhs at every depth they are asked about.
    """

    name: str
    kind: str
    rhs: FormalElement
    justification: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UnsupportedConfiguration(f"unknown generator kind {self.kind!r}")
        if self.justification not in _JUSTIFICATIONS:
            raise UnsupportedConfiguration(
                f"unknown justification {self.justification!r}"
            )


@record
class FieldTower(HashedOnce):
    """F_0((vars[0]))...((vars[-1])) with generators adjoined in order.

    variables run innermost first.  Each generator may reference ground
    constants, variables and strictly earlier generators in its rhs.
    """

    ground: GroundField
    variables: tuple[str, ...]
    generators: tuple[ExtensionGenerator, ...] = ()

    __hash__ = HashedOnce.__hash__

    def __post_init__(self) -> None:
        seen = set(self.ground.constants)
        for name in self.variables + tuple(g.name for g in self.generators):
            if name in seen:
                raise UnsupportedConfiguration(f"name {name!r} reused in tower")
            seen.add(name)
        allowed = set(self.ground.constants) | set(self.variables)
        for g in self.generators:
            bad = g.rhs.names() - allowed
            if bad:
                raise UnsupportedConfiguration(
                    f"generator {g.name!r} references unknown names {sorted(bad)}"
                )
            allowed.add(g.name)

    @property
    def char(self) -> int:
        return self.ground.characteristic

    @property
    def depth(self) -> int:
        return len(self.variables)

    def names(self) -> frozenset[str]:
        """Every name the tower defines: constants, variables, generators."""
        return (
            self.ground.constants
            | frozenset(self.variables)
            | frozenset(g.name for g in self.generators)
        )

    def generator(self, name: str) -> ExtensionGenerator:
        for g in self.generators:
            if g.name == name:
                return g
        raise UnsupportedConfiguration(f"no generator named {name!r}")

    def with_generator(self, gen: ExtensionGenerator) -> FieldTower:
        return FieldTower(self.ground, self.variables, self.generators + (gen,))

    def spec(self, depth: int | None = None) -> ValuationSpec:
        """The valuation on the outermost depth variables, all by default."""
        return self._spec(self.depth if depth is None else depth)

    @memoised
    def _spec(self, depth: int) -> ValuationSpec:
        return ValuationSpec(self, depth)


@record
class ValuationSpec(HashedOnce):
    """The rank-depth valuation active on the outermost depth variables."""

    tower: FieldTower
    depth: int

    __hash__ = HashedOnce.__hash__

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= self.tower.depth:
            raise DimensionMismatch(
                f"depth {self.depth} outside tower of depth {self.tower.depth}"
            )

    @property
    def inactive_variables(self) -> tuple[str, ...]:
        return self.tower.variables[: self.tower.depth - self.depth]

    @memoised
    def value_group(self) -> Lattice:
        return Lattice.integers(self.depth).extended(
            tuple(generator_value(self, g.name) for g in self.tower.generators)
        )

    def in_p_value_group(self, v: ValueVector) -> bool:
        """Whether v is p times an element of the value group."""
        return self.value_group().contains(v / self.tower.char)


@memoised
def generator_value(spec: ValuationSpec, name: str) -> ValueVector:
    """Value of a generator under spec, recomputed from its rhs.

    The degree-p rule is re-certified at this depth, against the value
    group of everything adjoined before: a nonzero rhs value must
    ramify, exactly as `adjoin` demands at full depth.
    """
    tower = spec.tower
    index = next(i for i, g in enumerate(tower.generators) if g.name == name)
    gen = tower.generators[index]
    below = FieldTower(tower.ground, tower.variables, tower.generators[:index])
    sub = below.spec(spec.depth)
    v = value_of(gen.rhs, sub)
    if v.is_zero():
        return v
    refusal = _ramification_refusal(sub, name, gen.kind, v)
    if refusal is not None:
        raise UnsupportedConfiguration(refusal)
    return v / tower.char


def _term_value_and_active(
    spec: ValuationSpec, m: Monomial, gens: dict[str, ExtensionGenerator]
) -> tuple[ValueVector, Monomial]:
    """Value of one monomial and its active part, the factors of nonzero value.

    An active variable's exponent is its coordinate, so variables add
    integers in place; only generators, whose values may be fractions,
    add value vectors.
    """
    tower = spec.tower
    p = tower.char
    variables = tower.variables
    inactive = tower.depth - spec.depth
    nums = [0] * spec.depth
    generated: ValueVector | None = None
    active: list[tuple[str, int]] = []
    for name, exp in m:
        if name in tower.ground.constants:
            continue
        if name in gens:
            if not -p < exp < p:
                raise UnsupportedConfiguration(
                    f"power {name}^{exp} is not reduced modulo the degree-p relation"
                )
            v = generator_value(spec, name)
            if not v.is_zero():
                v = v.scale(exp)
                generated = v if generated is None else generated + v
                active.append((name, exp))
        elif name in variables:
            i = variables.index(name) - inactive
            if i >= 0:
                nums[i] += exp
                active.append((name, exp))
        else:
            raise UnsupportedConfiguration(f"unknown name {name!r} in element")
    total = ValueVector(tuple(nums))
    if generated is not None:
        total = total + generated
    return total, tuple(sorted(active))


@memoised
def value_of(element: FormalElement, spec: ValuationSpec) -> ValueVector:
    """Certified value of an element, or AmbiguousValuation.

    Terms are grouped by their active part.  When a single active part
    realises the minimal value the remaining factor is a nonzero sum of
    distinct residue-level monomials, so the minimum is the value.  Two
    different active parts at the minimum could cancel; we refuse.
    """
    if element.is_zero():
        raise ZeroElement("the zero element has no value")
    if element.char != spec.tower.char:
        raise UnsupportedConfiguration("element characteristic differs from tower")
    gens = {g.name: g for g in spec.tower.generators}
    best: ValueVector | None = None
    best_parts: set[Monomial] = set()
    for m, _ in element.terms:
        v, part = _term_value_and_active(spec, m, gens)
        if best is None or v < best:
            best = v
            best_parts = {part}
        elif v == best:
            best_parts.add(part)
    assert best is not None
    if len(best_parts) > 1:
        raise AmbiguousValuation(
            "minimal value is reached by several active parts; "
            "terms could cancel"
        )
    return best


@memoised
def residue_of(element: FormalElement, spec: ValuationSpec) -> FormalElement:
    """Image in the residue field of an element of value at least 0.

    Keeps the terms of value exactly 0.  Such a term has an empty active
    part: generator_value lets a generator carry a nonzero value only if
    that value has order p modulo the group of the variables and the
    generators before it, so in a monomial whose generator exponents lie
    in (-p, p) the last active generator's part is outside that group and
    the value cannot be 0; with no active generator, the variables' unit
    values are independent.
    """
    if element.is_zero():
        return element
    gens = {g.name: g for g in spec.tower.generators}
    zero = ValueVector.zero(spec.depth)
    kept: dict[Monomial, int] = {}
    for m, c in element.terms:
        v, part = _term_value_and_active(spec, m, gens)
        if v < zero:
            raise UnsupportedConfiguration("element has negative value, no residue")
        if v == zero:
            if part:
                raise AssertionError(f"unit {m} has the nontrivial active part {part}")
            kept[m] = c
    return FormalElement._normal(element.char, kept)


@memoised
def residue_tower(spec: ValuationSpec) -> FieldTower:
    """The residue field of spec, rebuilt as a tower over the inner variables.

    Generators of value 0 survive with their rhs replaced by its residue
    and are re-certified against the partially built residue tower;
    ramified generators disappear into the value group.  Every generator
    is held to the degree-p rule of `adjoin`; none passes unchecked.
    """
    tower = spec.tower
    out = FieldTower(tower.ground, spec.inactive_variables)
    for i, g in enumerate(tower.generators):
        if not generator_value(spec, g.name).is_zero():
            continue
        below = FieldTower(tower.ground, tower.variables, tower.generators[:i])
        rhs_bar = residue_of(g.rhs, below.spec(spec.depth))
        just = _residue_degree_p_justification(out, g.name, rhs_bar, g.kind)
        out = out.with_generator(ExtensionGenerator(g.name, g.kind, rhs_bar, just))
    return out


def _ramification_refusal(
    spec: ValuationSpec, name: str, kind: str, v: ValueVector
) -> str | None:
    """Why a root of rhs value v over spec does not ramify, or None if it does.

    A positive Artin-Schreier value would split by lifting the trivial
    residue equation, and a value in p * Gamma gives no new value, so
    both are refused; so is 0, which never ramifies.  Any other value
    ramifies totally.
    """
    if kind == ARTIN_SCHREIER and not v < ValueVector.zero(spec.depth):
        return f"rhs for {name!r} has positive value; the equation splits"
    if spec.in_p_value_group(v):
        return f"value of rhs for {name!r} lies in p times the value group"
    return None


def _residue_degree_p_justification(
    tower: FieldTower, name: str, rhs: FormalElement, kind: str
) -> str:
    """Why x with the given residual equation generates a degree-p extension."""
    spec = tower.spec()
    try:
        v = value_of(rhs, spec)
    except AmbiguousValuation:
        v = None
    if v is not None and _ramification_refusal(spec, name, kind, v) is None:
        return "residue-laurent"
    constants = tower.ground.constants
    names = rhs.names()
    if names and names <= constants and not tower.ground.algebraically_closed:
        # generic constants satisfy no Artin-Schreier or p-th power relation
        return "residue-generic"
    raise UnsupportedConfiguration(
        "cannot certify that the residual equation has degree p"
    )


def adjoin(tower: FieldTower, name: str, kind: str, rhs: FormalElement) -> FieldTower:
    """Adjoin a root x of x^p - x = rhs (artin-schreier) or x^p = rhs (pth-root).

    The degree is certified from the value of rhs.  A value of 0 pushes
    the equation to the residue field, where it must itself be
    certified; any other value must ramify (`_ramification_refusal`).
    """
    if kind not in KINDS:
        raise UnsupportedConfiguration(f"unknown generator kind {kind!r}")
    spec = tower.spec()
    v = value_of(rhs, spec)
    if v.is_zero():
        rbar = residue_of(rhs, spec)
        just = _residue_degree_p_justification(residue_tower(spec), name, rbar, kind)
    elif (refusal := _ramification_refusal(spec, name, kind, v)) is not None:
        raise UnsupportedConfiguration(refusal)
    else:
        just = "ramified"
    return tower.with_generator(ExtensionGenerator(name, kind, rhs, just))


def rebase_pth_root(
    tower: FieldTower, variable: str, new_name: str
) -> tuple[FieldTower, Callable[[FormalElement], FormalElement]]:
    """Present F(y) with y^p = variable as a Laurent tower in y.

    The variable is replaced in place by new_name and every occurrence
    in generator right hand sides becomes new_name^p.  Values measured
    in the new tower are p times the old ones in that coordinate.
    """
    if variable not in tower.variables:
        raise UnsupportedConfiguration(f"{variable!r} is not a tower variable")

    def mapper(e: FormalElement) -> FormalElement:
        return e.substitute_monomial(variable, new_name, tower.char)

    variables = tuple(new_name if v == variable else v for v in tower.variables)
    gens = tuple(
        ExtensionGenerator(g.name, g.kind, mapper(g.rhs), g.justification)
        for g in tower.generators
    )
    return FieldTower(tower.ground, variables, gens), mapper


def reduce_generator_powers(e: FormalElement, tower: FieldTower) -> FormalElement:
    """Rewrite generator powers x^k with k >= p through the defining relation.

    Artin-Schreier generators use x^p = x + rhs, p-th roots use
    x^p = rhs.  Powers x^k with k <= -p have no monomial reduction and
    are rejected.
    """
    p = tower.char
    gens = {g.name: g for g in tower.generators}
    acc = e
    while True:
        # the first generator power outside (-p, p), in term order
        hit = next(
            ((m, c, name, exp) for m, c in acc.terms for name, exp in m
             if name in gens and not -p < exp < p),
            None,
        )
        if hit is None:
            return acc
        m, c, name, exp = hit
        if exp <= -p:
            raise UnsupportedConfiguration(
                f"power {name}^{exp} cannot be reduced to monomials"
            )
        g = gens[name]
        lowered = FormalElement(
            acc.char,
            ((tuple((n, x - p if n == name else x) for n, x in m), c),),
        )
        if g.kind == ARTIN_SCHREIER:
            factor = FormalElement.symbol(acc.char, name) + g.rhs
        else:
            factor = g.rhs
        acc = acc - FormalElement(acc.char, ((m, c),)) + lowered * factor


def _poly_reduce(
    coeffs: Sequence[FormalElement], m: FormalElement, p: int
) -> list[FormalElement]:
    """Reduce a polynomial in x modulo x^p - x - m (coeffs[k] is deg k)."""
    coeffs = list(coeffs)
    while len(coeffs) - 1 >= p:
        e = len(coeffs) - 1
        c = coeffs.pop()
        if c.is_zero():
            continue
        coeffs[e - p + 1] = coeffs[e - p + 1] + c
        coeffs[e - p] = coeffs[e - p] + c * m
    return coeffs


@memoised
def _power_sum(e: int, p: int) -> int:
    """sum_j j^e mod p over j in F_p, term by term (0^0 = 1)."""
    return sum(pow(j, e, p) for j in range(p)) % p


@memoised
def _trace_coefficients(i: int, p: int) -> tuple[FormalElement, ...]:
    """Coefficients of sum_j (x + j)^i, the prime-field constants
    comb(i, k) * sum_j j^(i-k) of x^k; every zero is one shared element."""
    zero = FormalElement.zero(p)
    out = []
    for k in range(i + 1):
        s = _power_sum(i - k, p)
        c = comb(i, k) * s % p if s else 0
        out.append(FormalElement.constant(p, c) if c else zero)
    return tuple(out)


def trace_power_oracle(m: FormalElement, i: int, p: int) -> FormalElement:
    """Tr(x^i) for the degree-p extension by x with x^p - x = m.

    Computed from first principles: sum the conjugates (x + j)^i over
    j in F_p and reduce modulo the defining polynomial.  The reduction
    must land in the base field; anything else is a hard error.
    """
    if i < 0:
        raise UnsupportedConfiguration("trace oracle wants a nonnegative power")
    reduced = _poly_reduce(_trace_coefficients(i, p), m, p)
    if any(not c.is_zero() for c in reduced[1:]):
        raise AssertionError("trace did not reduce into the base field")
    return reduced[0]


def norm_element_oracle(
    m: FormalElement, a: FormalElement, b: FormalElement, p: int
) -> FormalElement:
    """N(a*x + b) for x with x^p - x = m, by multiplying the conjugates."""
    if a.is_zero():
        return b**p
    poly = [FormalElement.one(p)]
    for j in range(p):
        shift = b + a.scale(j)
        # multiply by (a*x + shift)
        new = [FormalElement.zero(p) for _ in range(len(poly) + 1)]
        for k, c in enumerate(poly):
            new[k] = new[k] + c * shift
            new[k + 1] = new[k + 1] + c * a
        poly = new
    reduced = _poly_reduce(poly, m, p)
    if any(not c.is_zero() for c in reduced[1:]):
        raise AssertionError("norm did not reduce into the base field")
    return reduced[0]
