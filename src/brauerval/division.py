"""Division certificates for tensor words of degree-p symbols.

Every verdict is backed by a Certificate tree whose leaves are exact
lattice computations or residue-level recursions.  The three routes for
one symbol [a, b) over a henselian Laurent tower are:

  value independence   v(x) = v(a)/p and v(y) = v(b)/p generate p^2
                       distinct classes modulo the base value group;
  semiramified         one slot ramifies with index p, the other is a
                       unit whose residue generates a certified
                       degree-p extension of the residue field;
  inertial lift        both slots are units and the residue symbol is
                       division (recursively, or by hypothesis).

Longer words peel one factor at a time.  A peel holds when, for a
partial valuation, the remaining word is defectless with value group
meeting the peeled factor's only in the base, and the residue algebras
tensor to a division ring.  The candidate partial valuations drop the
variables up to the innermost (then up to the outermost) variable of
the peeled factor; reciprocal slot pairs across factors contribute
composite generators of value v(a)/p^2 that refine the value group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm, prod

from .errors import EngineError, NonContainment, UnsupportedConfiguration, ZeroElement
from .lattices import Lattice, ValueVector
from .symbols import SymbolSum, SymbolTerm, normal_form, symbol
from .towers import (
    ARTIN_SCHREIER,
    PTH_ROOT,
    FieldTower,
    FormalElement,
    ValuationSpec,
    adjoin,
    artin_schreier_image,
    memoised,
    rebase_pth_root,
    residue_of,
    residue_tower,
    trace_power_oracle,
    value_of,
)

CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"
REFUTED = "refuted"

MAX_CLASS_WORK = 1_000_000


@dataclass(frozen=True, slots=True)
class Certificate:
    """One checked inference: rule name, verdict, evidence, children."""

    rule: str
    status: str
    payload: dict[str, object] = field(default_factory=dict)
    children: tuple[Certificate, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == CERTIFIED

    def get(self, key: str) -> object:
        return self.payload[key]

    def find(self, rule: str) -> Certificate | None:
        if self.rule == rule:
            return self
        for child in self.children:
            hit = child.find(rule)
            if hit is not None:
                return hit
        return None


@dataclass(frozen=True, slots=True)
class SymbolValueData:
    """Values of the two generators of one symbol under one valuation."""

    term: SymbolTerm
    slot1_value: ValueVector
    as_value: ValueVector
    root_value: ValueVector
    slot1_residual: bool
    slot2_residual: bool


@dataclass(frozen=True, slots=True)
class AlgebraValueData:
    """Joint value data of a tensor word at one partial valuation.

    pairs lists (i, j) with slot1 of factor i reciprocal to slot2 of
    factor j; then x_i - 1/y_j has p-th power x_i, so its value
    v(slot1_i)/p^2 replaces v(x_i) = v(slot1_i)/p in the monomial basis.
    refined_values lists the 2k generator values so refined, in order.
    """

    degree: int
    depth: int
    factors: tuple[SymbolValueData, ...]
    pairs: tuple[tuple[int, int], ...]
    base_group: Lattice
    refined_values: tuple[ValueVector, ...]
    value_group: Lattice

    @property
    def dim(self) -> int:
        return self.degree ** (2 * len(self.factors))

    @property
    def ram_index(self) -> int:
        """[value_group : base_group], answered once per pair of groups by index_over."""
        return self.value_group.index_over(self.base_group)

    def natural_values(self) -> tuple[ValueVector, ...]:
        """Values of the plain x_i, y_i generators, no refinement."""
        return tuple(v for f in self.factors for v in (f.as_value, f.root_value))


@memoised
def _symbol_value_data(term: SymbolTerm, spec: ValuationSpec) -> SymbolValueData:
    """Value data of one symbol under spec."""
    p = spec.tower.char
    zero = ValueVector.zero(spec.depth)
    va = value_of(term.slot1, spec)
    vb = value_of(term.slot2, spec)
    if va > zero:
        raise UnsupportedConfiguration(
            "slot1 has positive value, the symbol splits at this valuation"
        )
    return SymbolValueData(
        term=term,
        slot1_value=va,
        as_value=va / p if va < zero else zero,
        root_value=vb / p,
        slot1_residual=va == zero,
        slot2_residual=vb == zero,
    )


def algebra_value_data(
    word: SymbolSum, tower: FieldTower, depth: int | None = None
) -> AlgebraValueData:
    if not word.terms:
        raise ZeroElement("an empty tensor word has no value data")
    spec = tower.spec(depth)
    factors = tuple(_symbol_value_data(t, spec) for t in word.terms)
    zero = ValueVector.zero(spec.depth)
    pairs: list[tuple[int, int]] = []
    for i, fi in enumerate(factors):
        if not fi.slot1_value < zero:
            continue
        for j, fj in enumerate(factors):
            if i == j:
                continue
            if fi.term.slot1.is_inverse_of(fj.term.slot2):
                pairs.append((i, j))
                break
    p = spec.tower.char
    base = spec.value_group()
    paired = {i for i, _ in pairs}
    refined = tuple(
        v
        for i, f in enumerate(factors)
        for v in (f.slot1_value / (p * p) if i in paired else f.as_value, f.root_value)
    )
    return AlgebraValueData(
        degree=p,
        depth=spec.depth,
        factors=factors,
        pairs=tuple(pairs),
        base_group=base,
        refined_values=refined,
        value_group=base.extended(refined),
    )


def class_representative(base: Lattice, vec: ValueVector) -> ValueVector:
    """Canonical representative of vec modulo base, inside the unit box.

    With vec = sum (a_i/m) b_i over the basis b_i = rows[i]/denominator,
    the representative keeps each coefficient mod 1: sum (a_i % m) b_i / m.
    """
    nums, m = base.scaled_coords(vec)
    reduced = [a % m for a in nums]
    return ValueVector.canonical(
        [sum(a * row[j] for a, row in zip(reduced, base.rows)) for j in range(base.dim)],
        m * base.denominator,
    )


def independence_division(data: AlgebraValueData) -> Certificate:
    """Division via p^(2k) distinct monomial value classes.

    The monomials x^s y^t (composite-refined) of a division candidate
    have pairwise distinct values modulo the base group exactly when
    the graded algebra is a twisted group ring over the residue field,
    which has no zero divisors; the word is then division and totally
    ramified with the constructed value group.

    A class modulo the base group is read as the base coordinates a/m
    mod 1, from integer back-substitution (Lattice.scaled_coords) and
    held as integers over one common denominator, so the box of
    exponents 0 <= s, t < p is summed on integer tuples.  Composite
    values can have order p^2, so the box need not be a subgroup; its
    classes are collected one generator at a time, the set of partial
    sums deduplicated after each.
    """
    p = data.degree
    if data.dim > MAX_CLASS_WORK:
        raise UnsupportedConfiguration("class enumeration exceeds the work bound")
    coords = [data.base_group.scaled_coords(v) for v in data.refined_values]
    den = lcm(*(m for _, m in coords))
    seen = {(0,) * data.depth}
    for nums, m in coords:
        step = [a * (den // m) for a in nums]
        multiples = [tuple(e * a % den for a in step) for e in range(p)]
        seen = {
            tuple((x + y) % den for x, y in zip(s, m)) for s in seen for m in multiples
        }
    distinct = len(seen)
    status = CERTIFIED if distinct == data.dim else NOT_CERTIFIED
    e = data.ram_index
    return Certificate(
        "value-independence",
        status,
        payload={
            "dimension": data.dim,
            "distinct_classes": distinct,
            "ramification_index": e,
            "residue_degree": 1,
            "value_group": data.value_group,
            "totally_ramified": e == data.dim,
        },
    )


def _fresh(tower: FieldTower, base: str) -> str:
    taken = tower.names()
    name = base
    k = 0
    while name in taken:
        k += 1
        name = f"{base}{k}"
    return name


@memoised
def _residue_extension_certificate(
    res_tower: FieldTower, rhs: FormalElement, kind: str
) -> Certificate:
    """Degree-p residue extension by adjoining to the residue tower."""
    name = _fresh(res_tower, "theta")
    try:
        extended = adjoin(res_tower, name, kind, rhs)
        just = extended.generator(name).justification
        return Certificate(
            "residue-extension",
            CERTIFIED,
            payload={"kind": kind, "rhs": rhs, "justification": just},
        )
    except EngineError as err:
        return Certificate(
            "residue-extension",
            NOT_CERTIFIED,
            payload={"kind": kind, "rhs": rhs, "reason": str(err)},
        )


@memoised
def symbol_division(
    term: SymbolTerm,
    tower: FieldTower,
    depth: int | None = None,
    residue_hypothesis: str | None = None,
) -> Certificate:
    """Certify one symbol as a division algebra over the tower.

    residue_hypothesis ("division" or "split") settles residue symbols
    over the constant field, where no further valuation is available;
    it is the caller's stated assumption and is recorded as such.
    """
    _require_hypothesis(residue_hypothesis)
    spec = tower.spec(depth)
    if term.slot1.is_zero():
        return Certificate(
            "symbol-division",
            REFUTED,
            payload={
                "route": "hensel-split",
                "reason": "slot1 vanishes, the equation splits",
            },
        )
    if value_of(term.slot1, spec) > ValueVector.zero(spec.depth):
        return Certificate(
            "symbol-division",
            REFUTED,
            payload={
                "route": "hensel-split",
                "reason": "slot1 has positive value, the equation splits",
            },
        )
    data = algebra_value_data(SymbolSum.of(term), tower, spec.depth)
    p = data.degree
    residual = _residual_slots(data, spec)

    if not residual:
        child = independence_division(data)
        return Certificate(
            "symbol-division",
            child.status,
            payload={
                "route": "value-independence",
                "value_group": data.value_group,
                "ramification_index": child.get("ramification_index"),
                "residue_degree": 1,
            },
            children=(child,),
        )

    if len(residual) == 1:
        _, kind, rbar = residual[0]
        f = data.factors[0]
        ramified_value = f.root_value if kind == ARTIN_SCHREIER else f.as_value
        res_cert = _residue_extension_certificate(residue_tower(spec), rbar, kind)
        ram_group = data.base_group.extended((ramified_value,))
        e = ram_group.index_over(data.base_group)
        ok = e == p and res_cert.ok
        return Certificate(
            "symbol-division",
            CERTIFIED if ok else NOT_CERTIFIED,
            payload={
                "route": "semiramified",
                "value_group": ram_group,
                "ramification_index": e,
                "residue_degree": p,
            },
            children=(res_cert,),
        )

    # both slots are units: the question descends to the residue field
    res_term = symbol(p, *(rbar for _, _, rbar in residual))
    try:
        split = normal_form(SymbolSum.of(res_term)).is_zero_sum()
    except EngineError:
        split = False
    if split:
        return Certificate(
            "symbol-division",
            REFUTED,
            payload={
                "route": "inertial",
                "reason": "residue symbol has trivial class",
            },
        )
    res_tower = residue_tower(spec)
    inertial = {
        "route": "inertial",
        "value_group": data.base_group,
        "ramification_index": 1,
        "residue_degree": p * p,
    }
    if res_tower.variables:
        child = symbol_division(res_term, res_tower, None, residue_hypothesis)
        return Certificate(
            "symbol-division", child.status, payload=inertial, children=(child,)
        )
    status, entry = _hypothesis_verdict(
        residue_hypothesis, "residue symbol", "no verdict available for the residue symbol"
    )
    head = inertial if status == CERTIFIED else {"route": "inertial"}
    return Certificate("symbol-division", status, payload={**head, **entry})


# the residue hypotheses a caller may assume, and the status each one gives
HYPOTHESIS_STATUS = {"division": CERTIFIED, "split": REFUTED}


def _require_hypothesis(hypothesis: str | None) -> None:
    if hypothesis not in (None, *HYPOTHESIS_STATUS):
        raise UnsupportedConfiguration(f"unknown residue hypothesis {hypothesis!r}")


def _hypothesis_verdict(
    hypothesis: str | None, subject: str, reason: str
) -> tuple[str, dict[str, str]]:
    """Status and payload entry for a symbol no valuation can settle.

    Only the caller's residue hypothesis decides it, and the payload
    records it as an assumption; without one the symbol stays
    not-certified for the given reason.
    """
    status = HYPOTHESIS_STATUS.get(hypothesis)
    if status is None:
        return NOT_CERTIFIED, {"reason": reason}
    return status, {"hypothesis": f"{subject} assumed {hypothesis}"}


def _residual_slots(
    data: AlgebraValueData, spec: ValuationSpec
) -> list[tuple[int, str, FormalElement]]:
    """(factor index, extension kind, residue) of every slot of value 0.

    A residual slot1 defines an Artin-Schreier extension of the residue
    field, a residual slot2 a p-th root one, slot1 listed first.  A lone
    residual slot is read over the residue tower, so that tower is built
    before the residue is taken: a tower that cannot be built reports
    its failure first.
    """
    slots = [
        (i, kind, slot)
        for i, f in enumerate(data.factors)
        for kind, slot, residual in (
            (ARTIN_SCHREIER, f.term.slot1, f.slot1_residual),
            (PTH_ROOT, f.term.slot2, f.slot2_residual),
        )
        if residual
    ]
    if len(slots) == 1:
        residue_tower(spec)
    return [(i, kind, residue_of(slot, spec)) for i, kind, slot in slots]


def _plain_variable(element: FormalElement, tower: FieldTower) -> str | None:
    if len(element.terms) != 1:
        return None
    names, coeff = element.terms[0]
    if coeff != 1 or len(names) != 1 or names[0][1] != 1:
        return None
    return names[0][0] if names[0][0] in tower.variables else None


def _over_extension_certificate(
    res_tower: FieldTower,
    ext_kind: str,
    ext_rhs: FormalElement,
    residue_symbol: SymbolTerm,
    residue_hypothesis: str | None,
) -> Certificate:
    """Residue symbol base-changed to the left factor's residue field.

    The tensor of the residue algebras is the residue symbol over the
    degree-p extension cut out by ext_rhs.  When both the symbol and
    the extension are totally ramified over a residue tower with
    variables, a trace-value comparison can rule the extension out as
    a maximal subfield, which keeps the symbol division after the base
    change.  Otherwise the verdict is whatever the caller hypothesises
    about the extended symbol.
    """
    p = res_tower.char
    payload: dict[str, object] = {
        "shape": "residue-symbol-over-extension",
        "extension_kind": ext_kind,
        "extension_rhs": ext_rhs,
        "residue_symbol": residue_symbol,
    }
    if res_tower.variables:
        res_spec = res_tower.spec()
        zero = ValueVector.zero(res_tower.depth)
        v_ext = value_of(ext_rhs, res_spec)
        v_slot1 = value_of(residue_symbol.slot1, res_spec)
        field_order = res_spec.value_group().order_of_class(v_ext / p)
        if v_ext < zero and v_slot1 < zero and field_order == p:
            data = algebra_value_data(SymbolSum.of(residue_symbol), res_tower)
            ind = independence_division(data)
            if ind.ok and ind.get("totally_ramified"):
                algebra_w = trace_profile(res_tower, residue_symbol.slot1)
                field_w = trace_profile(res_tower, ext_rhs)
                if field_w.minimum < algebra_w.minimum:
                    payload["justification"] = "trace-value-obstruction"
                    payload["algebra_trace_value"] = algebra_w.minimum
                    payload["field_trace_value"] = field_w.minimum
                    return Certificate(
                        "residue-tensor",
                        CERTIFIED,
                        payload=payload,
                        children=(ind,),
                    )
    ext_cert = _residue_extension_certificate(res_tower, ext_rhs, ext_kind)
    if not ext_cert.ok:
        return Certificate(
            "residue-tensor",
            NOT_CERTIFIED,
            payload={**payload, "reason": "extension is not certified degree p"},
            children=(ext_cert,),
        )
    status, entry = _hypothesis_verdict(
        residue_hypothesis,
        "extended residue symbol",
        "no verdict available over the extension",
    )
    return Certificate(
        "residue-tensor", status, payload={**payload, **entry}, children=(ext_cert,)
    )


def residue_tensor_certificate(
    spec: ValuationSpec,
    d_residual: tuple[str, FormalElement] | None,
    e_data: AlgebraValueData,
    residue_hypothesis: str | None = None,
) -> Certificate:
    """Certify that the residue algebras tensor to a division ring.

    The supported shapes follow the constructions this engine checks:
    a trivial side, a reciprocal Artin-Schreier/root pair combining to
    a field of degree p^2 over the residue field, a root rebased to a
    Laurent variable followed by a shift and value independence, and a
    fully residual symbol handled recursively.
    """
    p = spec.tower.char
    res_tower = residue_tower(spec)
    e_slots = [(kind, rbar) for _, kind, rbar in _residual_slots(e_data, spec)]
    slots = ([d_residual] if d_residual else []) + e_slots

    if not slots:
        return Certificate("residue-tensor", CERTIFIED, payload={"shape": "both-trivial"})

    if len(slots) == 1:
        kind, rbar = slots[0]
        child = _residue_extension_certificate(res_tower, rbar, kind)
        return Certificate(
            "residue-tensor",
            child.status,
            payload={"shape": "residue-field"},
            children=(child,),
        )

    if d_residual is None:
        res_symbol = symbol(p, *(rbar for _, rbar in e_slots))
        child = symbol_division(res_symbol, res_tower, None, residue_hypothesis)
        return Certificate(
            "residue-tensor",
            child.status,
            payload={"shape": "residue-symbol"},
            children=(child,),
        )

    d_kind, d_rbar = d_residual
    e_kinds = [kind for kind, _ in e_slots]

    if d_kind == PTH_ROOT and e_kinds == [ARTIN_SCHREIER]:
        e_rbar = e_slots[0][1]
        if not e_rbar.is_inverse_of(d_rbar):
            return Certificate(
                "residue-tensor",
                NOT_CERTIFIED,
                payload={"reason": "residues are not reciprocal"},
            )
        res_spec = res_tower.spec()
        v = value_of(e_rbar, res_spec)
        order = res_spec.value_group().order_of_class(v / (p * p))
        ok = order == p * p
        return Certificate(
            "residue-tensor",
            CERTIFIED if ok else NOT_CERTIFIED,
            payload={
                "shape": "composite-field",
                "composite_value": v / (p * p),
                "class_order": order,
            },
        )

    if len(e_slots) == 2:
        (_, e_rbar1), (_, e_rbar2) = e_slots
        variable = _plain_variable(d_rbar, res_tower)
        if d_kind == PTH_ROOT and variable and e_rbar1.is_inverse_of(d_rbar):
            root_name = _fresh(res_tower, "rho")
            rebased, mapper = rebase_pth_root(res_tower, variable, root_name)
            slot1 = mapper(e_rbar1)
            shift_witness = FormalElement.symbol(p, root_name, -1, p - 1)
            shifted = slot1 + artin_schreier_image(shift_witness)
            if shifted != FormalElement.symbol(p, root_name, -1):
                return Certificate(
                    "residue-tensor",
                    NOT_CERTIFIED,
                    payload={"reason": "shift did not reduce the rebased slot"},
                )
            child = symbol_division(symbol(p, shifted, mapper(e_rbar2)), rebased)
            return Certificate(
                "residue-tensor",
                child.status,
                payload={
                    "shape": "rebase-shift-independence",
                    "rebased_variable": variable,
                    "shift_witness": shift_witness,
                },
                children=(child,),
            )
        return _over_extension_certificate(
            res_tower, d_kind, d_rbar, symbol(p, e_rbar1, e_rbar2), residue_hypothesis
        )

    return Certificate(
        "residue-tensor",
        NOT_CERTIFIED,
        payload={"reason": "unsupported residue shape"},
    )


def morandi_step(
    tower: FieldTower,
    depth: int,
    d_word: SymbolSum,
    e_term: SymbolTerm,
    d_division: Certificate,
    residue_hypothesis: str | None = None,
) -> Certificate:
    """One peel: D tensor E is division when every condition certifies.

    Conditions: D is division (given), D is defectless at this
    valuation, E is division at it, the two value groups meet in the
    base group, and the residue algebras tensor to a division ring.
    """
    _require_hypothesis(residue_hypothesis)
    spec = tower.spec(depth)
    p = tower.char
    d_data = algebra_value_data(d_word, tower, depth)
    e_data = algebra_value_data(SymbolSum.of(e_term), tower, depth)

    residual = _residual_slots(d_data, spec)
    if len(residual) > 1:
        return Certificate(
            "peel",
            NOT_CERTIFIED,
            payload={
                "depth": depth,
                "reason": "more than one residual slot on the left factor",
            },
        )
    conditions = {"left-division": d_division.ok}
    children: list[Certificate] = []

    if residual:
        _, kind, rbar = residual[0]
        f_cert = _residue_extension_certificate(residue_tower(spec), rbar, kind)
        children.append(f_cert)
        f_d = p if f_cert.ok else 1
        d_residual = (kind, rbar)
    else:
        f_d = 1
        d_residual = None
    left_ram = d_data.ram_index
    conditions["left-defectless"] = left_ram * f_d == d_data.dim

    e_cert = symbol_division(e_term, tower, depth, residue_hypothesis)
    children.append(e_cert)
    conditions["right-division"] = e_cert.ok

    # D, E contain the base: they meet in it iff [D+E : base] = [D : base][E : base]
    joint = d_data.value_group.sum_with(e_data.value_group).index_over(d_data.base_group)
    conditions["value-groups-meet-in-base"] = joint == left_ram * e_data.ram_index

    r_cert = residue_tensor_certificate(spec, d_residual, e_data, residue_hypothesis)
    children.append(r_cert)
    conditions["residue-tensor-division"] = r_cert.ok

    ok = all(conditions.values())
    return Certificate(
        "peel",
        CERTIFIED if ok else NOT_CERTIFIED,
        payload={
            "depth": depth,
            "conditions": conditions,
            "left_value_group": d_data.value_group,
            "left_ramification_index": left_ram,
            "left_residue_degree": f_d,
            "left_dimension": d_data.dim,
            "right_value_group": e_data.value_group,
        },
        children=tuple(children),
    )


def peel_depths(e_term: SymbolTerm, tower: FieldTower) -> list[int]:
    """Candidate partial valuations for peeling e_term.

    First drop everything up to the innermost variable of the factor,
    then (if different and nontrivial) up to its outermost variable.
    """
    used = e_term.slot1.names() | e_term.slot2.names()
    positions = sorted(
        i for i, v in enumerate(tower.variables) if v in used
    )
    if not positions:
        raise UnsupportedConfiguration("peeled factor uses no tower variable")
    out = []
    depth_a = tower.depth - (positions[0] + 1)
    depth_b = tower.depth - (positions[-1] + 1)
    if depth_a > 0:
        out.append(depth_a)
    if depth_b > 0 and depth_b != depth_a:
        out.append(depth_b)
    return out


def chain_division(
    word: SymbolSum,
    tower: FieldTower,
    residue_hypothesis: str | None = None,
) -> Certificate:
    """Certify a whole tensor word as division, peeling right to left."""
    _require_hypothesis(residue_hypothesis)
    if not word.terms:
        raise ZeroElement("an empty tensor word cannot be division")
    if len(word.terms) == 1:
        cert = symbol_division(word.terms[0], tower, None, residue_hypothesis)
        return Certificate("chain", cert.status, payload={"factors": 1}, children=(cert,))
    e_term = word.terms[-1]
    d_word = SymbolSum(word.degree, word.terms[:-1])
    d_cert = chain_division(d_word, tower, residue_hypothesis)
    if not d_cert.ok:
        return Certificate(
            "chain",
            d_cert.status,
            payload={"reason": "left part failed"},
            children=(d_cert,),
        )
    try:
        depths = peel_depths(e_term, tower)
    except UnsupportedConfiguration as err:
        return Certificate(
            "chain",
            NOT_CERTIFIED,
            payload={"reason": str(err)},
            children=(d_cert,),
        )
    attempts: dict[str, object] = {}
    for depth in depths:
        try:
            cert = morandi_step(
                tower, depth, d_word, e_term, d_cert, residue_hypothesis
            )
        except EngineError as err:
            attempts[f"depth-{depth}"] = str(err)
            continue
        if cert.ok:
            return Certificate(
                "chain",
                CERTIFIED,
                payload={"peel_depth": depth, "factors": len(word.terms)},
                children=(cert, d_cert),
            )
        attempts[f"depth-{depth}"] = cert
    return Certificate(
        "chain",
        NOT_CERTIFIED,
        payload=attempts or {"reason": "no candidate valuation"},
        children=(d_cert,),
    )


# ----------------------------------------------------- value class counts


def trace_zero_value_classes(
    members: list[AlgebraValueData] | tuple[AlgebraValueData, ...],
    window: Lattice,
) -> frozenset[ValueVector]:
    """Value classes available to trace-zero elements of every member.

    The reduced trace kills every basis monomial except the product of
    the (p-1)-st powers of the Artin-Schreier generators, so each member
    withholds the class of that one monomial from its monomial classes.

    Every natural generator value has order dividing p modulo the base
    group, so the box of monomials x^s y^t with exponents below p
    reaches every class of H_m = base + <natural values of member m>:
    the monomial classes of m are exactly H_m/base.  The classes shared
    by all members inside the window W are therefore
    (W meet H_1 meet ... meet H_k)/base minus the members' excluded
    classes, found from one lattice meet instead of one box per member.
    That precondition and base <= W are checked first; the census raises
    when either fails, since the meet would then differ from the boxes.
    To bound the census by the members alone, pass one member's H_m as W.
    """
    if not members:
        raise UnsupportedConfiguration("the class census needs at least one member")
    base = members[0].base_group
    if not window.contains_lattice(base):
        raise NonContainment("the window does not contain the base group")
    groups: set[Lattice] = set()
    excluded: set[ValueVector] = set()
    for data in members:
        if data.base_group != base:
            raise UnsupportedConfiguration("the members do not share one base group")
        values = data.natural_values()
        if any(data.degree % base.order_of_class(v) for v in values):
            raise UnsupportedConfiguration(
                "a natural value has order other than 1 or p modulo the base group"
            )
        groups.add(base.extended(values))
        excluded.add(excluded_trace_class(data))
    meet = window
    for group in groups:
        meet = meet.intersect(group)
    # both Hermite bases are lower triangular, so the box of diagonal
    # ratios over the meet's basis covers every class of meet/base
    ratios = [
        (b[i] * meet.denominator) // (m[i] * base.denominator)
        for i, (b, m) in enumerate(zip(base.rows, meet.rows))
    ]
    if prod(ratios) > MAX_CLASS_WORK:
        raise UnsupportedConfiguration("class enumeration exceeds the work bound")
    classes = set()
    for coeffs in itertools.product(*(range(r) for r in ratios)):
        nums = [sum(c * row[j] for c, row in zip(coeffs, meet.rows)) for j in range(base.dim)]
        classes.add(class_representative(base, ValueVector.canonical(nums, meet.denominator)))
    return frozenset(classes - excluded)


def excluded_trace_class(data: AlgebraValueData) -> ValueVector:
    """Class of the unique monomial with nonzero reduced trace."""
    vec = sum((f.as_value for f in data.factors), ValueVector.zero(data.depth))
    return class_representative(data.base_group, vec.scale(data.degree - 1))


# ------------------------------------------------------- trace invariants


@dataclass(frozen=True, slots=True)
class TraceProfile:
    """Trace valuation profile of a degree-p Artin-Schreier generator.

    minimum is min over i of v(Tr(x^i)) - i * v(x), over the powers i
    whose trace is nonzero, and the closed form is -(p-1) * v(x).
    """

    minimum: ValueVector
    closed_form: ValueVector


def trace_profile(tower: FieldTower, rhs: FormalElement) -> TraceProfile:
    spec = tower.spec()
    p = tower.char
    zero = ValueVector.zero(spec.depth)
    v_rhs = value_of(rhs, spec)
    if not v_rhs < zero:
        raise UnsupportedConfiguration("trace profile needs a ramified generator")
    gen_value = v_rhs / p
    best: ValueVector | None = None
    for i in range(1, p):
        tr = trace_power_oracle(rhs, i, p)
        if tr.is_zero():
            continue
        diff = value_of(tr, spec) - gen_value.scale(i)
        if best is None or diff < best:
            best = diff
    if best is None:
        raise UnsupportedConfiguration("all small traces vanished")
    return TraceProfile(
        minimum=best,
        closed_form=gen_value.scale(-(p - 1)),
    )
