"""Symbol algebra sums and certified rewriting between them.

A degree-p symbol [a, b) is the cyclic algebra generated by x and y
with x^p - x = a, y^p = b and y x y^-1 = x + 1.  Sums of symbols stand
either for Brauer classes (order irrelevant) or for explicit tensor
words (order kept); the same value object serves both, and only the
routines that need a canonical class reorder anything.

Rewrites never assert an identity they cannot check: each step carries
its witness, and check_rewrite_chain replays the defining relations
(slot1 additivity, slot2 multiplicativity, Artin-Schreier shifts, norm
factors, p-th power factors) against the chain's tower.
"""

from __future__ import annotations

from .errors import UnsupportedConfiguration, ZeroElement
from .lattices import _pivot_columns_mod_p, record
from .towers import (
    PTH_ROOT,
    FieldTower,
    FormalElement,
    artin_schreier_image,
    norm_element_oracle,
    reduce_generator_powers,
)

WITNESS_ROOT = "X"

REWRITE_RULES = (
    "slot1-add",
    "slot2-mult",
    "as-shift",
    "negate",
    "slot2-norm",
    "slot2-pthpower",
    "slot2-self",
)


@record
class SymbolTerm:
    """One symbol [slot1, slot2) of the given degree (the prime p)."""

    degree: int
    slot1: FormalElement
    slot2: FormalElement

    def __post_init__(self) -> None:
        if self.slot1.char != self.degree:
            raise UnsupportedConfiguration(
                "an Artin-Schreier symbol needs slot coefficients mod its degree"
            )
        if self.slot2.is_zero():
            raise ZeroElement("slot2 of a symbol must be a unit")

    def __str__(self) -> str:
        return f"[{self.slot1}, {self.slot2})"


@record
class SymbolSum:
    """A formal sum of symbols of one common degree, order preserved."""

    degree: int
    terms: tuple[SymbolTerm, ...]

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.degree != self.degree:
                raise UnsupportedConfiguration("mixed symbol degrees in one sum")

    @staticmethod
    def of(*terms: SymbolTerm) -> SymbolSum:
        if not terms:
            raise UnsupportedConfiguration("use SymbolSum.zero(degree) for empty sums")
        return SymbolSum(terms[0].degree, tuple(terms))

    @staticmethod
    def zero(degree: int) -> SymbolSum:
        return SymbolSum(degree, ())

    def is_zero_sum(self) -> bool:
        return not self.terms

    def __add__(self, other: SymbolSum) -> SymbolSum:
        if self.degree != other.degree:
            raise UnsupportedConfiguration("mixed symbol degrees in one sum")
        return SymbolSum(self.degree, self.terms + other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


def symbol(p: int, slot1: FormalElement, slot2: FormalElement) -> SymbolTerm:
    return SymbolTerm(p, slot1, slot2)


def normal_form(s: SymbolSum) -> SymbolSum:
    """Canonical form of a sum of Artin-Schreier symbols.

    slot1 is additive and slot2 multiplicative, so the sum is determined
    by one slot1 total per slot2 name.  Prime-field scalars in slot2 are
    p-th powers and vanish; zero slot1 totals drop out; the surviving
    atoms come out sorted by name.
    """
    p = s.degree
    buckets: dict[str, FormalElement] = {}
    for term in s.terms:
        if len(term.slot2.terms) != 1:
            raise UnsupportedConfiguration(
                "slot2 must be a monomial to be expanded multiplicatively"
            )
        for name, exp in term.slot2.terms[0][0]:
            prev = buckets.get(name, FormalElement.zero(p))
            buckets[name] = prev + term.slot1.scale(exp)
    terms = tuple(
        symbol(p, slot1, FormalElement.symbol(p, name))
        for name, slot1 in sorted(buckets.items())
        if not slot1.is_zero()
    )
    return SymbolSum(p, terms)


def scalar_power(s: SymbolSum, k: int) -> SymbolSum:
    """k times the class: multiply every slot1 by k."""
    terms = tuple(
        symbol(s.degree, t.slot1.scale(k), t.slot2)
        for t in s.terms
        if not t.slot1.scale(k).is_zero()
    )
    return SymbolSum(s.degree, terms)


# ------------------------------------------------------------- rewriting


@record
class RewriteStep:
    """One certified identity applied to one sum of symbols.

    target_index points at the rewritten term of `before` where the
    rule is local; witness carries the field element justifying the
    step (the reserved name X stands for the Artin-Schreier root of the
    target's slot1 in norm computations).
    """

    rule: str
    before: SymbolSum
    after: SymbolSum
    target_index: int = 0
    witness: FormalElement | None = None

    def __post_init__(self) -> None:
        if self.rule not in REWRITE_RULES:
            raise UnsupportedConfiguration(f"unknown rewrite rule {self.rule!r}")


@record
class RewriteChain:
    """A start class and the steps that transform it, over one tower."""

    tower: FieldTower
    start: SymbolSum
    steps: tuple[RewriteStep, ...]


def _require_context_fixed(step: RewriteStep, removed: bool) -> SymbolTerm:
    """Other terms must match in order; returns the rewritten term."""
    i = step.target_index
    before, after = step.before.terms, step.after.terms
    if not 0 <= i < len(before):
        raise UnsupportedConfiguration("target index outside the sum")
    expected_len = len(before) - 1 if removed else len(before)
    if len(after) != expected_len:
        raise UnsupportedConfiguration(
            f"rule {step.rule!r} changes the number of terms incorrectly"
        )
    rest_after = after[:i] + after[i + 1 :] if not removed else after
    rest_before = before[:i] + before[i + 1 :]
    if rest_after != rest_before:
        raise UnsupportedConfiguration(
            f"rule {step.rule!r} may only touch the target term"
        )
    return before[i]


def _split_witness_linear(
    witness: FormalElement, p: int
) -> tuple[FormalElement, FormalElement]:
    """Split a witness into (a, b) with witness = a*X + b, X reserved."""
    a_terms: dict = {}
    b_terms: dict = {}
    for m, c in witness.terms:
        xs = [e for n, e in m if n == WITNESS_ROOT]
        rest = tuple((n, e) for n, e in m if n != WITNESS_ROOT)
        if not xs:
            b_terms[rest] = b_terms.get(rest, 0) + c
        elif xs == [1]:
            a_terms[rest] = a_terms.get(rest, 0) + c
        else:
            raise UnsupportedConfiguration(
                "norm witnesses must be linear in the reserved root X"
            )
    return (
        FormalElement._normal(p, a_terms),
        FormalElement._normal(p, b_terms),
    )


def _removed_slot2_factor(step: RewriteStep) -> tuple[SymbolTerm, FormalElement]:
    """The target term of a slot2 factor rule and the factor it removes from slot2."""
    removed_term = len(step.after.terms) == len(step.before.terms) - 1
    t = _require_context_fixed(step, removed=removed_term)
    if removed_term:
        return t, t.slot2
    after = step.after.terms[step.target_index]
    if after.slot1 != t.slot1:
        raise UnsupportedConfiguration("slot1 must be preserved by slot2 factor rules")
    return t, t.slot2 * after.slot2.inverse()


def _exponent_vector(e: FormalElement, names: list[str]) -> list[int]:
    mono, _ = e.terms[0]
    lookup = dict(mono)
    return [lookup.get(n, 0) for n in names]


def check_rewrite_step(step: RewriteStep, tower: FieldTower) -> None:
    """Raise unless the step is a certified Brauer class identity."""
    p = tower.char
    if step.before.degree != p or step.after.degree != p:
        raise UnsupportedConfiguration("chain degree differs from tower characteristic")

    if step.rule in ("slot1-add", "slot2-mult"):
        if normal_form(step.before) != normal_form(step.after):
            raise UnsupportedConfiguration(
                f"rule {step.rule!r}: the two sides have different normal forms"
            )
        return

    if step.rule == "as-shift":
        if step.witness is None:
            raise UnsupportedConfiguration("as-shift needs a witness element")
        _require_witness_names(step.witness, tower)
        t = _require_context_fixed(step, removed=False)
        new = step.after.terms[step.target_index]
        if new.slot2 != t.slot2:
            raise UnsupportedConfiguration("as-shift must keep slot2")
        shift = reduce_generator_powers(
            artin_schreier_image(step.witness), tower
        )
        if new.slot1 != t.slot1 + shift:
            raise UnsupportedConfiguration(
                "as-shift witness does not produce the claimed slot1"
            )
        return

    if step.rule == "negate":
        t = _require_context_fixed(step, removed=False)
        new = step.after.terms[step.target_index]
        if new.slot1 != -t.slot1 or new.slot2 != t.slot2.inverse():
            raise UnsupportedConfiguration(
                "negate must negate slot1 and invert slot2 together"
            )
        return

    if step.rule == "slot2-norm":
        if step.witness is None:
            raise UnsupportedConfiguration("slot2-norm needs a witness element")
        _require_witness_names(step.witness, tower, allow_root=True)
        t, removed = _removed_slot2_factor(step)
        a, b = _split_witness_linear(step.witness, p)
        if norm_element_oracle(t.slot1, a, b, p) != removed:
            raise UnsupportedConfiguration(
                "slot2-norm witness norm does not equal the removed factor"
            )
        return

    if step.rule == "slot2-pthpower":
        _, removed = _removed_slot2_factor(step)
        if len(removed.terms) != 1:
            raise UnsupportedConfiguration("removed factor must be a monomial")
        root_rhs = [
            g.rhs
            for g in tower.generators
            if g.kind == PTH_ROOT and len(g.rhs.terms) == 1
        ]
        names = sorted(
            removed.names() | {n for r in root_rhs for n in r.names()}
        )
        vec = _exponent_vector(removed, names)
        basis = [_exponent_vector(r, names) for r in root_rhs]
        # with the vectors as columns, vec is a pivot iff the roots do not span it mod p
        if len(basis) in _pivot_columns_mod_p(tuple(zip(*basis, vec)), p):
            raise UnsupportedConfiguration(
                "removed factor is not a p-th power times declared roots"
            )
        return

    if step.rule == "slot2-self":
        t = _require_context_fixed(step, removed=True)
        if len(t.slot1.terms) != 1 or len(t.slot2.terms) != 1:
            raise UnsupportedConfiguration(
                "slot2-self needs monomial slots to compare exponents"
            )
        m1, _ = t.slot1.terms[0]
        m2, _ = t.slot2.terms[0]
        if not m1:
            raise UnsupportedConfiguration("slot2-self needs a nonconstant slot1")
        e1, e2 = dict(m1), dict(m2)
        if set(e2) - set(e1):
            raise UnsupportedConfiguration("slot2 uses names absent from slot1")
        name0 = next(iter(e1))
        num, den = e2.get(name0, 0), e1[name0]
        if num % den != 0:
            raise UnsupportedConfiguration("slot2 is not an integer power of slot1")
        k = num // den
        if any(e2.get(n, 0) != k * e for n, e in e1.items()):
            raise UnsupportedConfiguration("slot2 is not a scalar times slot1^k")
        return

    raise UnsupportedConfiguration(f"unknown rewrite rule {step.rule!r}")


def _require_witness_names(
    witness: FormalElement, tower: FieldTower, allow_root: bool = False
) -> None:
    known = tower.names() | ({WITNESS_ROOT} if allow_root else set())
    bad = witness.names() - known
    if bad:
        raise UnsupportedConfiguration(
            f"witness references names outside the tower: {sorted(bad)}"
        )


def check_rewrite_chain(chain: RewriteChain) -> SymbolSum:
    """Verify every step and the chaining; return the final sum."""
    current = chain.start
    for k, step in enumerate(chain.steps):
        if step.before != current:
            raise UnsupportedConfiguration(
                f"step {k} does not start from the previous sum"
            )
        check_rewrite_step(step, chain.tower)
        current = step.after
    return current
