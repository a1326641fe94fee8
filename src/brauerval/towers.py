"""Iterated Laurent series towers and the elements we valuate inside them.

A tower is F_0((u_1))((u_2))...((u_n)) together with a list of certified
degree-p extension generators.  `adjoin` is the one way to add a
generator: its kind (ARTIN_SCHREIER or PTH_ROOT) is an argument, and the
value of the right hand side alone decides whether the extension is
ramified, residual or refused.  Elements are kept as formal sums of
Laurent monomials in named symbols; no series tails are ever needed
because every computation the verifier checks stays inside the subring
generated by finitely many monomials.

The valuation is the standard rank-n one: the value of a monomial is
read off the exponents of the active variables, and the outermost
variable is the most significant coordinate.  An element only gets a
value when exactly one "active part" realises the minimum, because
distinct residue-level monomials cannot cancel; anything else raises
AmbiguousValuation rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

from .errors import (
    AmbiguousValuation,
    DimensionMismatch,
    UnsupportedConfiguration,
    ZeroElement,
)
from .lattices import Lattice, ValueVector, memoised

Monomial = tuple[tuple[str, int], ...]

ARTIN_SCHREIER = "artin-schreier"
PTH_ROOT = "pth-root"

KINDS = (ARTIN_SCHREIER, PTH_ROOT)
_JUSTIFICATIONS = (
    "ramified",
    "residue-laurent",
    "residue-generic",
    "hypothesis",
)


def _merge_monomial(entries: list[tuple[str, int]]) -> Monomial:
    acc: dict[str, int] = {}
    for name, exp in entries:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in acc.items() if e != 0))


@dataclass(frozen=True, slots=True)
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
        """Whether self * other is 1, without the product: units are single terms."""
        return len(other.terms) == 1 and self == other.inverse()

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ExtensionGenerator:
    """A certified degree-p element adjoined on top of a tower.

    kind artin-schreier: gen^p - gen = rhs
    kind pth-root:       gen^p = rhs

    justification records why the extension really has degree p: a
    ramified value, a residue-level Laurent value, a generic constant,
    or an explicit hypothesis the caller takes responsibility for (only
    a generator list built by hand carries one).
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


@dataclass(frozen=True, slots=True)
class FieldTower:
    """F_0((vars[0]))...((vars[-1])) with generators adjoined in order.

    variables run innermost first.  Each generator may reference ground
    constants, variables and strictly earlier generators in its rhs.
    """

    ground: GroundField
    variables: tuple[str, ...]
    generators: tuple[ExtensionGenerator, ...] = ()

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
        return ValuationSpec(self, self.depth if depth is None else depth)


@dataclass(frozen=True, slots=True)
class ValuationSpec:
    """The rank-depth valuation active on the outermost depth variables."""

    tower: FieldTower
    depth: int

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= self.tower.depth:
            raise DimensionMismatch(
                f"depth {self.depth} outside tower of depth {self.tower.depth}"
            )

    @property
    def active_variables(self) -> tuple[str, ...]:
        return self.tower.variables[self.tower.depth - self.depth :]

    @property
    def inactive_variables(self) -> tuple[str, ...]:
        return self.tower.variables[: self.tower.depth - self.depth]

    def variable_value(self, name: str) -> ValueVector:
        active = self.active_variables
        if name in active:
            return ValueVector.unit(self.depth, active.index(name))
        return ValueVector.zero(self.depth)

    @memoised
    def value_group(self) -> Lattice:
        return Lattice.integers(self.depth).extended(
            tuple(generator_value(self, g.name) for g in self.tower.generators)
        )

    def in_p_value_group(self, v: ValueVector) -> bool:
        """Whether v lies in p times the value group."""
        return self.value_group().contains(v / self.tower.char)


@memoised
def generator_value(spec: ValuationSpec, name: str) -> ValueVector:
    """Value of a generator under spec, recomputed from its rhs.

    Ramification is re-certified at this depth: a negative rhs value
    must avoid p times the value group of everything adjoined before.
    """
    tower = spec.tower
    p = tower.char
    index = next(i for i, g in enumerate(tower.generators) if g.name == name)
    gen = tower.generators[index]
    below = FieldTower(tower.ground, tower.variables, tower.generators[:index])
    sub = ValuationSpec(below, spec.depth)
    v = value_of(gen.rhs, sub)
    if v.is_zero():
        return ValueVector.zero(spec.depth)
    if gen.kind == PTH_ROOT:
        return v / p
    # artin-schreier: only a negative rhs value outside p * Gamma ramifies
    if not v < ValueVector.zero(spec.depth):
        raise UnsupportedConfiguration(
            f"generator {name!r} has positive rhs value under this valuation"
        )
    if sub.in_p_value_group(v):
        raise UnsupportedConfiguration(
            f"generator {name!r} has rhs value in p times the base value group"
        )
    return v / p


def _term_value_and_active(
    spec: ValuationSpec, m: Monomial, gens: dict[str, ExtensionGenerator]
) -> tuple[ValueVector, Monomial]:
    p = spec.tower.char
    total = ValueVector.zero(spec.depth)
    active: list[tuple[str, int]] = []
    for name, exp in m:
        if name in spec.tower.ground.constants:
            continue
        if name in gens:
            if not -p < exp < p:
                raise UnsupportedConfiguration(
                    f"power {name}^{exp} is not reduced modulo the degree-p relation"
                )
            v = generator_value(spec, name)
        elif name in spec.tower.variables:
            v = spec.variable_value(name)
        else:
            raise UnsupportedConfiguration(f"unknown name {name!r} in element")
        if not v.is_zero():
            total = total + v.scale(exp)
            active.append((name, exp))
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

    Keeps the terms of value exactly 0; such a term must have an empty
    active part, since any unit built from active variables would need
    its residue taken by hand.
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
                raise UnsupportedConfiguration(
                    "unit with a nontrivial active part has no formal residue"
                )
            kept[m] = c
    return FormalElement._normal(element.char, kept)


@memoised
def residue_tower(spec: ValuationSpec) -> FieldTower:
    """The residue field of spec, rebuilt as a tower over the inner variables.

    Generators of value 0 survive with their rhs replaced by its residue
    and are re-certified against the partially built residue tower;
    ramified generators disappear into the value group.  Hypotheses pass
    through on the caller's responsibility.
    """
    tower = spec.tower
    out = FieldTower(tower.ground, spec.inactive_variables)
    for i, g in enumerate(tower.generators):
        if not generator_value(spec, g.name).is_zero():
            continue
        below = FieldTower(tower.ground, tower.variables, tower.generators[:i])
        rhs_bar = residue_of(g.rhs, ValuationSpec(below, spec.depth))
        just = (
            g.justification
            if g.justification == "hypothesis"
            else _residue_degree_p_justification(out, rhs_bar, g.kind)
        )
        out = out.with_generator(ExtensionGenerator(g.name, g.kind, rhs_bar, just))
    return out


def _residue_degree_p_justification(
    tower: FieldTower, rhs: FormalElement, kind: str
) -> str:
    """Why x with the given residual equation generates a degree-p extension."""
    spec = tower.spec()
    zero = ValueVector.zero(spec.depth)
    try:
        v = value_of(rhs, spec)
    except AmbiguousValuation:
        v = None
    if v is not None:
        ramified = v < zero if kind == ARTIN_SCHREIER else v != zero
        if ramified and not spec.in_p_value_group(v):
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
    certified.  A positive Artin-Schreier value would split by lifting
    the trivial residue equation, and a value in p * Gamma gives no new
    value, so both are refused.  Any other value ramifies totally.
    """
    if kind not in KINDS:
        raise UnsupportedConfiguration(f"unknown generator kind {kind!r}")
    spec = tower.spec()
    v = value_of(rhs, spec)
    if v.is_zero():
        rbar = residue_of(rhs, spec)
        just = _residue_degree_p_justification(residue_tower(spec), rbar, kind)
    elif kind == ARTIN_SCHREIER and not v < ValueVector.zero(spec.depth):
        raise UnsupportedConfiguration(
            f"rhs for {name!r} has positive value; the equation splits"
        )
    elif spec.in_p_value_group(v):
        raise UnsupportedConfiguration(
            f"value of rhs for {name!r} lies in p times the value group"
        )
    else:
        just = "ramified"
    return tower.with_generator(ExtensionGenerator(name, kind, rhs, just))


def rebase_pth_root(
    tower: FieldTower, variable: str, new_name: str
) -> tuple[FieldTower, "ElementMap"]:
    """Present F(y) with y^p = variable as a Laurent tower in y.

    The variable is replaced in place by new_name and every occurrence
    in generator right hand sides becomes new_name^p.  Values measured
    in the new tower are p times the old ones in that coordinate.
    """
    if variable not in tower.variables:
        raise UnsupportedConfiguration(f"{variable!r} is not a tower variable")
    mapper = ElementMap(variable, new_name, tower.char)
    variables = tuple(new_name if v == variable else v for v in tower.variables)
    gens = tuple(
        ExtensionGenerator(g.name, g.kind, mapper(g.rhs), g.justification)
        for g in tower.generators
    )
    return FieldTower(tower.ground, variables, gens), mapper


@dataclass(frozen=True, slots=True)
class ElementMap:
    """Substitution old -> new^p used when rebasing a p-th root."""

    old: str
    new: str
    char: int

    def __call__(self, e: FormalElement) -> FormalElement:
        return e.substitute_monomial(self.old, self.new, self.char)


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
        hit: tuple[Monomial, int, str, int] | None = None
        for m, c in acc.terms:
            for name, exp in m:
                g = gens.get(name)
                if g is None:
                    continue
                if exp <= -p:
                    raise UnsupportedConfiguration(
                        f"power {name}^{exp} cannot be reduced to monomials"
                    )
                if exp >= p:
                    hit = (m, c, name, exp)
                    break
            if hit:
                break
        if hit is None:
            return acc
        m, c, name, exp = hit
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
    coeffs: list[FormalElement], m: FormalElement, p: int
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


def trace_power_oracle(m: FormalElement, i: int, p: int) -> FormalElement:
    """Tr(x^i) for the degree-p extension by x with x^p - x = m.

    Computed from first principles: sum the conjugates (x + j)^i over
    j in F_p and reduce modulo the defining polynomial.  The reduction
    must land in the base field; anything else is a hard error.
    """
    if i < 0:
        raise UnsupportedConfiguration("trace oracle wants a nonnegative power")
    zero = FormalElement.zero(p)
    total = [zero for _ in range(i + 1)]
    for j in range(p):
        for k in range(i + 1):
            c = (comb(i, k) * pow(j, i - k, p)) % p
            total[k] = total[k] + FormalElement.constant(p, c)
    reduced = _poly_reduce(total, m, p)
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
