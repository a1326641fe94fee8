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
from collections.abc import Iterable
from functools import cached_property
from math import gcd

from .errors import (
    EngineError,
    EnumerationBound,
    NonContainment,
    UnsupportedConfiguration,
    ZeroElement,
)
from .lattices import Lattice, ValueVector, record
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

# the most value classes the census may walk, or a certificate may count by index
MAX_CLASS_WORK = 1_000_000


@record
class Certificate:
    """One checked inference: rule name, verdict, evidence, children."""

    rule: str
    status: str
    payload: dict[str, object] = {}
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


@record
class SymbolValueData:
    """Values of the two generators of one symbol under one valuation."""

    term: SymbolTerm
    slot1_value: ValueVector
    as_value: ValueVector
    root_value: ValueVector
    slot1_residual: bool
    slot2_residual: bool


@record(slots=False)
class AlgebraValueData:
    """Joint value data of a tensor word at one partial valuation.

    When slot1 of factor i is reciprocal to slot2 of some factor j,
    x_i - 1/y_j has p-th power x_i, so its value v(slot1_i)/p^2
    replaces v(x_i) = v(slot1_i)/p in the monomial basis.
    refined_values lists the 2k generator values so refined, in order.

    refined_values, value_group and ram_index follow from the fields;
    each is built on its first read and then kept, so data that is never
    asked for its group (the class census reads natural values only)
    never pairs a slot nor builds a group.
    """

    degree: int
    depth: int
    factors: tuple[SymbolValueData, ...]
    base_group: Lattice

    @property
    def dim(self) -> int:
        return self.degree ** (2 * len(self.factors))

    @cached_property
    def refined_values(self) -> tuple[ValueVector, ...]:
        """The natural values, v(slot1_i)/p^2 in place of v(x_i) for each paired i."""
        zero = ValueVector.zero(self.depth)
        factors = self.factors
        paired = {
            i
            for i, fi in enumerate(factors)
            if fi.slot1_value < zero
            and any(
                i != j and fi.term.slot1.is_inverse_of(fj.term.slot2)
                for j, fj in enumerate(factors)
            )
        }
        p = self.degree
        return tuple(
            v
            for i, f in enumerate(factors)
            for v in (f.slot1_value / (p * p) if i in paired else f.as_value, f.root_value)
        )

    @cached_property
    def value_group(self) -> Lattice:
        """The base group grown by the refined values."""
        return self.base_group.extended(self.refined_values)

    @cached_property
    def ram_index(self) -> int:
        """[value_group : base_group]."""
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
        as_value=va / p,
        root_value=vb / p,
        slot1_residual=va == zero,
        slot2_residual=vb == zero,
    )


@memoised
def _one_symbol_data(term: SymbolTerm, spec: ValuationSpec) -> AlgebraValueData:
    """Value data of the word [term] under spec, for the peel, the symbol's own
    certificate and the residue tensor alike: its group is built once per task."""
    return AlgebraValueData(
        degree=spec.tower.char,
        depth=spec.depth,
        factors=(_symbol_value_data(term, spec),),
        base_group=spec.value_group(),
    )


def algebra_value_data(
    word: SymbolSum, tower: FieldTower, depth: int | None = None
) -> AlgebraValueData:
    if not word.terms:
        raise ZeroElement("an empty tensor word has no value data")
    spec = tower.spec(depth)
    return AlgebraValueData(
        degree=spec.tower.char,
        depth=spec.depth,
        factors=tuple(_symbol_value_data(t, spec) for t in word.terms),
        base_group=spec.value_group(),
    )


def independence_division(data: AlgebraValueData) -> Certificate:
    """Division of one symbol via p^2 distinct monomial value classes.

    The monomials x^s y^t of a division candidate have pairwise distinct
    values modulo the base group exactly when the graded algebra is a
    twisted group ring over the residue field, which has no zero
    divisors; the symbol is then division and totally ramified with the
    constructed value group.  v(x) and v(y) have order dividing p modulo
    the base group, so the box of exponents 0 <= s, t < p covers the
    value group modulo the base, and its distinct classes number
    e = [value_group : base_group]: the symbol is certified iff e = p^2.
    """
    if len(data.factors) != 1:
        raise UnsupportedConfiguration("value independence certifies one symbol")
    if data.dim > MAX_CLASS_WORK:
        raise EnumerationBound("class-work", MAX_CLASS_WORK, data.dim)
    e = data.ram_index
    return Certificate(
        "value-independence",
        CERTIFIED if e == data.dim else NOT_CERTIFIED,
        payload={
            "dimension": data.dim,
            "distinct_classes": e,
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
    data = _one_symbol_data(term, spec)
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


def rebase_shift(
    tower: FieldTower,
    variable: str,
    root: str,
    slot1: FormalElement,
    slot2: FormalElement,
) -> tuple[FormalElement, FormalElement, Certificate]:
    """Lemma 7.2's rebase and shift of [slot1, slot2), slot1 = 1/variable.

    Rebasing variable to a p-th root turns slot1 into root^-p; adding the
    Artin-Schreier image of the witness (p-1)/root leaves 1/root.  Returns
    the witness, the shifted slot and the division certificate of
    [shifted, slot2) over the rebased tower.
    """
    p = tower.char
    rebased, mapper = rebase_pth_root(tower, variable, root)
    witness = FormalElement.symbol(p, root, -1, p - 1)
    shifted = mapper(slot1) + artin_schreier_image(witness)
    if shifted != FormalElement.symbol(p, root, -1):
        reason = {"reason": "shift did not reduce the rebased slot"}
        return witness, shifted, Certificate("rebase-shift", NOT_CERTIFIED, payload=reason)
    return witness, shifted, symbol_division(symbol(p, shifted, mapper(slot2)), rebased)


def _over_extension_certificate(
    res_tower: FieldTower,
    ext_kind: str,
    ext_rhs: FormalElement,
    residue_symbol: SymbolTerm,
    residue_hypothesis: str | None,
) -> Certificate:
    """Residue symbol base-changed to the left factor's residue field.

    The tensor of the residue algebras is the residue symbol over the
    degree-p extension cut out by ext_rhs, which `adjoin` must certify
    first.  When the extension is a ramified Artin-Schreier one and the
    symbol is totally ramified, a trace-value comparison (Lemma 7.2,
    which holds for Artin-Schreier roots only) can rule the extension
    out as a maximal subfield, which keeps the symbol division after the
    base change.  Otherwise the verdict is whatever the caller
    hypothesises about the extended symbol.
    """
    payload: dict[str, object] = {
        "shape": "residue-symbol-over-extension",
        "extension_kind": ext_kind,
        "extension_rhs": ext_rhs,
        "residue_symbol": residue_symbol,
    }
    ext_cert = _residue_extension_certificate(res_tower, ext_rhs, ext_kind)
    if not ext_cert.ok:
        return Certificate(
            "residue-tensor",
            NOT_CERTIFIED,
            payload={**payload, "reason": "extension is not certified degree p"},
            children=(ext_cert,),
        )
    if (
        ext_kind == ARTIN_SCHREIER
        and ext_cert.get("justification") == "ramified"
        and value_of(residue_symbol.slot1, res_tower.spec()) < ValueVector.zero(res_tower.depth)
    ):
        data = algebra_value_data(SymbolSum.of(residue_symbol), res_tower)
        ind = independence_division(data)
        if ind.ok:
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
    status, entry = _hypothesis_verdict(
        residue_hypothesis,
        "extended residue symbol",
        "no verdict available over the extension",
    )
    return Certificate(
        "residue-tensor", status, payload={**payload, **entry}, children=(ext_cert,)
    )


@memoised
def residue_tensor_certificate(
    spec: ValuationSpec,
    d_residual: tuple[str, FormalElement] | None,
    e_term: SymbolTerm,
    residue_hypothesis: str | None = None,
) -> Certificate:
    """Certify that the residue algebras tensor to a division ring.

    The supported shapes follow the constructions this engine checks:
    a trivial side, a reciprocal Artin-Schreier/root pair combining to
    a field of degree p^2 over the residue field, a root rebased to a
    Laurent variable followed by a shift and value independence, and a
    fully residual symbol handled recursively.  E's value data is
    built here from e_term, so no memo key holds value data.
    """
    p = spec.tower.char
    res_tower = residue_tower(spec)
    e_data = _one_symbol_data(e_term, spec)
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
            shift_witness, _, child = rebase_shift(
                res_tower, variable, _fresh(res_tower, "rho"), e_rbar1, e_rbar2
            )
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


def _groups_meet_in_base(d_data: AlgebraValueData, e_data: AlgebraValueData) -> bool:
    """D, E contain the base: they meet in it iff [D+E : base] = [D : base][E : base],
    and D+E is D grown by E's refined values, since E is the base grown by them."""
    joint = d_data.value_group.extended(e_data.refined_values).index_over(d_data.base_group)
    return joint == d_data.ram_index * e_data.ram_index


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
    e_data = _one_symbol_data(e_term, spec)

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

    conditions["value-groups-meet-in-base"] = _groups_meet_in_base(d_data, e_data)

    r_cert = residue_tensor_certificate(spec, d_residual, e_term, residue_hypothesis)
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
    """Certify a whole tensor word as division, peeling right to left.

    The last factor is peeled at each of its peel_depths in order, and
    the first peel that certifies is kept; when none does, every attempt,
    a certificate or an error, is reported under depth-d.
    """
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

    attempts: dict[str, Certificate | str] = {}
    for depth in depths:
        try:
            cert = morandi_step(tower, depth, d_word, e_term, d_cert, residue_hypothesis)
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
    members: Iterable[AlgebraValueData], window: Lattice
) -> frozenset[ValueVector]:
    """Value classes available to trace-zero elements of every member.

    The reduced trace kills every basis monomial except the product of
    the (p-1)-st powers of the Artin-Schreier generators, so each member
    withholds the class of that one monomial from its monomial classes.

    Every natural generator value has order dividing p modulo the base
    group, so its class has coordinates in F_p over the basis of
    (1/p)base, and the box of monomials x^s y^t with exponents below p
    reaches exactly the F_p-span of member m's natural values.  The
    classes shared by all members inside the window W are therefore the
    meet of (W meet (1/p)base)/base with every member's span, minus the
    members' excluded classes: the null space mod p of the stacked
    annihilators of those spans, found by elimination instead of one box
    per member.  That precondition and base <= W are checked first; the
    census raises when either fails, since the meet would then differ
    from the boxes.  To bound the census by the members alone, pass one
    member's base + <natural values> as W.

    members may be any iterable, a generator included: it is consumed
    once, in order, and no member is kept after its turn.  The base group
    and p are read from the first member; only the distinct annihilators
    of the spans and the excluded classes, as coordinate tuples, are held.
    """
    base: Lattice | None = None
    coords: dict[ValueVector, tuple[int, ...]] = {}

    def coords_mod_p(v: ValueVector) -> tuple[int, ...]:
        c = coords.get(v)
        if c is None:
            nums, m = base.scaled_coords(v)
            if p % (m // gcd(m, *nums)):
                raise UnsupportedConfiguration(
                    "a natural value has order other than 1 or p modulo the base group"
                )
            c = coords[v] = tuple(a * p // m % p for a in nums)
        return c

    annihilators: set[tuple[tuple[int, ...], ...]] = set()
    excluded: set[tuple[int, ...]] = set()
    for data in members:
        if base is None:
            base, p = data.base_group, data.degree
            if not window.contains_lattice(base):
                raise NonContainment("the window does not contain the base group")
        elif data.base_group != base:
            raise UnsupportedConfiguration("the members do not share one base group")
        span = [coords_mod_p(v) for v in data.natural_values()]
        annihilators.add(_null_space_mod_p(span, base.dim, p))
        # the x_i values are the even places of the natural values
        excluded.add(tuple((p - 1) * sum(col) % p for col in zip(*span[::2])))
    if base is None:
        raise UnsupportedConfiguration("the class census needs at least one member")
    # (1/p)base: base's rows over p times its denominator, reduced by their common factor
    fine = Lattice._from_triangular(base.dim, p * base.denominator, list(map(list, base.rows)))
    low = window.intersect(fine)
    in_window = [coords_mod_p(ValueVector.canonical(row, low.denominator)) for row in low.rows]
    annihilators.add(_null_space_mod_p(in_window, base.dim, p))
    meet = _null_space_mod_p([row for ann in annihilators for row in ann], base.dim, p)
    work = p ** len(meet)
    if work > MAX_CLASS_WORK:
        raise EnumerationBound("class-work", MAX_CLASS_WORK, work)
    classes = []
    for coeffs in itertools.product(range(p), repeat=len(meet)):
        c = tuple(sum(k * b[j] for k, b in zip(coeffs, meet)) % p for j in range(base.dim))
        if c not in excluded:
            nums = [sum(a * row[j] for a, row in zip(c, base.rows)) for j in range(base.dim)]
            classes.append(ValueVector.canonical(nums, p * base.denominator))
    return frozenset(classes)


def _null_space_mod_p(
    rows: list[tuple[int, ...]], dim: int, p: int
) -> tuple[tuple[int, ...], ...]:
    """A basis of {x in F_p^dim : r.x = 0 for every row r}, rows with entries
    in range(p): one vector per free column of the rows' reduced echelon
    form, so equal row spans give equal bases."""
    echelon: dict[int, list[int]] = {}  # pivot column -> row with a 1 there, 0 at other pivots
    for row in rows:
        v = list(row)
        for lead, b in echelon.items():
            if f := v[lead]:
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        for k, b in echelon.items():
            if f := b[lead]:
                echelon[k] = [(x - f * y) % p for x, y in zip(b, v)]
        echelon[lead] = v
    return tuple(
        tuple(1 if j == free else -echelon[j][free] % p if j in echelon else 0 for j in range(dim))
        for free in range(dim)
        if free not in echelon
    )


# ------------------------------------------------------- trace invariants


@record
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
    # Newton's identities give Tr(x^(p-1)) = -1 for every p, so i = p - 1 sets best
    if best is None:
        raise AssertionError("the trace of x^(p-1) vanished")
    return TraceProfile(
        minimum=best,
        closed_form=gen_value.scale(-(p - 1)),
    )
