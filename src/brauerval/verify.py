"""Top-level verifiers assembling the engine primitives into full checks.

Each verifier recomputes one construction from scratch over the standard
Laurent towers and returns a Verdict: a machine-checkable result string,
the parameters, a payload of recomputed quantities, and the certificate
trees backing them.  Nothing is assumed: every claim behind a Verified
verdict is computed this run, each equal sub-question once within a
task (the CLI empties those memo tables after every task).

The checks fall into four groups:

  families     n-2+p^n-p^(n-2) tensor words over F_0((a1))...((an)),
               their division certificates, value groups, and the
               census of trace-zero value classes they share;
  lattices     the pigeonhole argument over all over-lattices of Z^n
               of index dividing p^(n-2), for base fields where the
               symbols are tame;
  two-factor   the decomposition equivalence over one Laurent variable,
               the trace-value subfield obstruction, and the pair of
               degree-p algebras with no common maximal subfield;
  scenarios    a witness chain, or a tensor word under an optional
               residue hypothesis, read from a scenario file.

TASKS declares every CLI task once: its verifier and the inputs it
takes, in order.  INPUTS names every integer input any task takes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from . import division
from .division import (
    CERTIFIED,
    Certificate,
    algebra_value_data,
    chain_division,
    independence_division,
    morandi_step,
    rebase_shift,
    symbol_division,
    trace_profile,
    trace_zero_value_classes,
)
from .division import NOT_CERTIFIED as CERT_NOT_CERTIFIED, REFUTED as CERT_REFUTED
from .errors import EnumerationBound, ScenarioError, UnsupportedConfiguration
from .lattices import (
    WORK_BUDGET, Lattice, ValueVector, _pivot_columns_mod_p, enumerate_overlattices, memoised,
    record,
)
from .symbols import (
    WITNESS_ROOT,
    RewriteChain,
    RewriteStep,
    SymbolSum,
    SymbolTerm,
    check_rewrite_chain,
    normal_form,
    scalar_power,
    symbol,
)
from .towers import (
    ARTIN_SCHREIER,
    PTH_ROOT,
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    is_prime,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .scenario import Scenario

VERIFIED = "Verified"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"
NOT_CERTIFIED = "NotCertified"

# every verdict result, with its exit status
EXIT_CODES = {VERIFIED: 0, REFUTED: 1, INCONCLUSIVE: 2, NOT_CERTIFIED: 2}

# the verdict result a division certificate's status stands for
RESULT_OF_STATUS = {CERTIFIED: VERIFIED, CERT_REFUTED: REFUTED, CERT_NOT_CERTIFIED: NOT_CERTIFIED}


@record
class Verdict:
    """Result of one verifier run, with everything needed to re-check it."""

    task: str
    result: str
    parameters: dict[str, object] = {}
    payload: dict[str, object] = {}
    certificates: tuple[Certificate, ...] = ()

    def __post_init__(self) -> None:
        if self.result not in EXIT_CODES:
            raise ValueError(f"unknown verdict result {self.result!r}")

    def get(self, key: str) -> object:
        return self.payload[key]

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.result]


@record
class FamilyMember:
    name: str
    kind: str  # "shift" or "twist"
    word: SymbolSum


def family_size_formula(n: int, p: int) -> int:
    return n - 2 + p**n - p ** (n - 2)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise UnsupportedConfiguration(f"{p} is not prime")


def _require_prime_and_depth(n: int, p: int) -> None:
    """The inputs of every family and lattice task, p checked before n."""
    _require_prime(p)
    if n < 2:
        raise UnsupportedConfiguration("need at least two Laurent variables")


def standard_tower(n: int, p: int) -> FieldTower:
    """F_0((a1))...((an)) over the prime field, innermost first."""
    return FieldTower(GroundField(p), tuple(f"a{i}" for i in range(1, n + 1)))


@memoised
def _var(p: int, i: int, exp: int = 1) -> FormalElement:
    return FormalElement.symbol(p, f"a{i}", exp)


@memoised
def _link(p: int, k: int, j: int) -> SymbolTerm:
    """[1/a_k, a_j): one shared object per link, so equal family terms are identical."""
    return symbol(p, _var(p, k, -1), _var(p, j))


def _shift_word(n: int, p: int, i: int) -> SymbolSum:
    """Member A_i: a chain through every variable except a_i, ending at a_i.

    Factor j inverts the previous slot, so each consecutive pair is
    reciprocal; the peel certificates lean on exactly that.
    """
    if not 1 <= i <= n - 1:
        raise UnsupportedConfiguration(f"index {i} outside 1..{n - 1}")
    others = [k for k in range(1, n) if k != i]
    seq = [n] + others[::-1] + [i]
    return SymbolSum.of(*(_link(p, seq[j], seq[j + 1]) for j in range(len(seq) - 1)))


def _twist_slot1(n: int, p: int, d: tuple[int, ...], upto: int) -> FormalElement:
    exps = {f"a{k}": -d[k - 1] for k in range(1, upto + 1) if d[k - 1]}
    return FormalElement.monomial(p, exps)


def _twist_word(n: int, p: int, d: tuple[int, ...]) -> SymbolSum:
    """Member B_d, for a weight vector d with (d_{n-1}, d_n) != (0, 0)."""
    if len(d) != n or all(x == 0 for x in d[-2:]):
        raise UnsupportedConfiguration(f"weight vector {d} not admitted")
    if d[-1] != 0:
        head = symbol(p, _twist_slot1(n, p, d, n), _var(p, n - 1))
        return SymbolSum.of(head, *(_link(p, k, k - 1) for k in range(n - 1, 1, -1)))
    if n == 2:
        return SymbolSum.of(symbol(p, _twist_slot1(n, p, d, 1), _var(p, 2)))
    head = symbol(p, _twist_slot1(n, p, d, n - 1), _var(p, n - 2))
    tail = [_link(p, k, k - 1) for k in range(n - 2, 1, -1)]
    return SymbolSum.of(head, *tail, _link(p, 1, n))


def build_family(n: int, p: int) -> tuple[FamilyMember, ...]:
    """All n-2+p^n-p^(n-2) members over the standard tower, shift
    members first, then the twists in the order of their weight vectors.

    A twist is named B and its weights, each padded with zeros to the
    width of p-1, so distinct members have distinct names.

    The shift members run over 2 <= i <= n-1 only: the weight vector
    (0,...,0,1) already produces the i=1 word, so it stays in the twist
    list and is not added twice.
    """
    _require_prime_and_depth(n, p)
    members = [
        FamilyMember(f"A{i}", "shift", _shift_word(n, p, i)) for i in range(2, n)
    ]
    width = len(str(p - 1))
    for d in itertools.product(range(p), repeat=n):
        if d[-2:] == (0, 0):
            continue
        name = "B" + "".join(f"{x:0{width}}" for x in d)
        members.append(FamilyMember(name, "twist", _twist_word(n, p, d)))
    assert len(members) == family_size_formula(n, p)
    return tuple(members)


# ------------------------------------------------------------ families


def verify_shift_lemma(n: int, p: int, i: int) -> Verdict:
    """Certify one shift member as division, with the peel bookkeeping.

    For n >= 3 the top peel must leave a ramification index of exactly
    p^(2n-5) and a degree-p residue extension on the left part; for
    n = 2 the single symbol must be totally ramified of index p^2.
    """
    _require_prime_and_depth(n, p)
    params = {"n": n, "p": p, "i": i}
    tower = standard_tower(n, p)
    word = _shift_word(n, p, i)
    cert = chain_division(word, tower)
    if not cert.ok:
        result = RESULT_OF_STATUS[cert.status]
        return Verdict("shift", result, params, {"word": word}, (cert,))
    if n == 2:
        payload = {
            "word": word,
            "ramification_index": cert.children[0].get("ramification_index"),
            "expected_ramification": p * p,
        }
        ok = cert.children[0].get("ramification_index") == p * p
        return Verdict("shift", VERIFIED if ok else REFUTED, params, payload, (cert,))
    peel = cert.find("peel")
    left_ram = peel.get("left_ramification_index")
    left_deg = peel.get("left_residue_degree")
    ok = left_ram == p ** (2 * n - 5) and left_deg == p
    payload = {
        "word": word,
        "peel_depth": cert.get("peel_depth"),
        "left_ramification_index": left_ram,
        "expected_ramification": p ** (2 * n - 5),
        "left_residue_degree": left_deg,
        "residue_shape": cert.find("residue-tensor").get("shape"),
    }
    return Verdict("shift", VERIFIED if ok else REFUTED, params, payload, (cert,))


def _shift_group_expected(n: int, p: int, i: int) -> Lattice:
    entries = [
        Fraction(1, p) if j in (i - 1, n - 1) else Fraction(1, p * p)
        for j in range(n)
    ]
    return Lattice.diagonal(entries)


def verify_value_groups(n: int, p: int) -> Verdict:
    """Value group of every shift member, and their intersection.

    Expected: diagonal with 1/p at places i and n and 1/p^2 elsewhere,
    totally ramified of index p^(2n-2); the intersection over all i
    collapses to (1/p)Z^n because each place is pinned by one member.
    """
    _require_prime_and_depth(n, p)
    tower = standard_tower(n, p)
    params = {"n": n, "p": p}
    rows: dict[str, object] = {}
    ok = True
    for i in range(1, n):
        data = algebra_value_data(_shift_word(n, p, i), tower)
        expected = _shift_group_expected(n, p, i)
        e = data.ram_index
        match = data.value_group == expected and e == data.dim == p ** (2 * n - 2)
        ok = ok and match
        rows[f"A{i}"] = (data.value_group, expected, match)
    meet = shared_value_window(tower)
    expected_meet = Lattice.diagonal([Fraction(1, p)] * n)
    meet_ok = meet == expected_meet
    payload = {
        "members": rows,
        "intersection": meet,
        "expected_intersection": expected_meet,
        "index_each": p ** (2 * n - 2),
    }
    result = VERIFIED if ok and meet_ok else REFUTED
    return Verdict("value-groups", result, params, payload)


def shared_value_window(tower: FieldTower) -> Lattice:
    """Intersection of the shift members' value groups over a standard tower, recomputed."""
    n, p = tower.depth, tower.char
    meet = None
    for i in range(1, n):
        g = algebra_value_data(_shift_word(n, p, i), tower).value_group
        meet = g if meet is None else meet.intersect(g)
    return meet


def verify_no_common_splitting(n: int, p: int) -> Verdict:
    """The family shares too few trace-zero value classes to be split.

    Pipeline: every member is division-certified; the window lattice
    (the intersection of the shift value groups) is recomputed and
    pinned to (1/p)Z^n; the trace-zero classes the twist members share
    inside the window W are the classes of W meet (1/p)Z^n whose
    coordinates mod p lie in every member's span, the F_p-span of its
    natural values, minus the members' excluded classes; the order-p
    precondition of trace_zero_value_classes makes each span equal to
    the member's monomial box; the count must fall short of the
    p^(n-1)-1 classes a common degree-p^(n-1) splitting field would
    need.  At (n, p) = (2, 2) the count equals the bound, so nothing
    follows and the verdict is Inconclusive.

    Besides the family's words and the memo tables, the task holds one
    status per member and the census's distinct spans mod p and excluded
    coordinate tuples: a member's certificate tree is dropped once its
    status is read, and the twists' value data reach the census one at a
    time.
    """
    params = {"n": n, "p": p}
    family = build_family(n, p)
    # the census walks at most the p^n classes of (1/p)Z^n over Z^n: check that bound first
    if p**n > division.MAX_CLASS_WORK:
        raise EnumerationBound("class-work", division.MAX_CLASS_WORK, p**n)
    tower = standard_tower(n, p)

    statuses = {m.name: chain_division(m.word, tower).status for m in family}
    all_division = all(status == CERTIFIED for status in statuses.values())

    window = shared_value_window(tower)
    window_ok = window == Lattice.diagonal([Fraction(1, p)] * n)

    twists = (algebra_value_data(m.word, tower) for m in family if m.kind == "twist")
    allowed = trace_zero_value_classes(twists, window)
    count = len(allowed)
    needed = p ** (n - 1) - 1
    predicted = p ** (n - 2)

    payload = {
        "family_size": len(family),
        "family_size_formula": family_size_formula(n, p),
        "member_status": statuses,
        "window": window,
        "allowed_classes": tuple(sorted(allowed)),
        "allowed_count": count,
        "predicted_count": predicted,
        "needed_for_common_field": needed,
    }
    if not (all_division and window_ok):
        return Verdict("no-common-splitting", NOT_CERTIFIED, params, payload)
    if count < needed:
        return Verdict("no-common-splitting", VERIFIED, params, payload)
    return Verdict("no-common-splitting", INCONCLUSIVE, params, payload)


# the (n, p) grid of the count identities; n >= 2 keeps each p^(n-2) an integer
COUNT_N_RANGE = range(2, 7)
COUNT_P_RANGE = (2, 3, 5, 7)


def verify_count_identities() -> Verdict:
    """p^n - (p-1)(p^(n-1) + p^(n-2)) = p^(n-2) on that grid, strict except at (2,2)."""
    rows = []
    identities_ok = True
    strict_failures = []
    for n in COUNT_N_RANGE:
        for p in COUNT_P_RANGE:
            lhs = p**n - (p - 1) * (p ** (n - 1) + p ** (n - 2))
            identity = lhs == p ** (n - 2)
            strict = p ** (n - 2) < p ** (n - 1) - 1
            identities_ok = identities_ok and identity
            if not strict:
                strict_failures.append((n, p))
            rows.append(((n, p), lhs, identity, strict))
    expected_failures = [(2, 2)]
    ok = identities_ok and strict_failures == expected_failures
    payload = {
        "rows": tuple(rows),
        "strict_failures": tuple(strict_failures),
        "expected_failures": tuple(expected_failures),
    }
    params = {"n_range": tuple(COUNT_N_RANGE), "p_range": COUNT_P_RANGE}
    return Verdict("counts", VERIFIED if ok else REFUTED, params, payload)


# ------------------------------------------------------------- lattices


def verify_char_not_p(n: int, p: int, max_work: int = WORK_BUDGET) -> Verdict:
    """Pigeonhole over every admissible over-lattice, plus the upper witness.

    Lower bound: for each lattice L with Z^n <= L <= (1/q)Z^n and
    [L : Z^n] dividing q = p^(n-2), the unit vectors keep rank >= 2 in
    L/pL, so some pair has a nonvanishing wedge: two of the defining
    value classes stay independent.  Upper witness: over
    (1/p)Z^(n-1) x Z the rank drops to 1 and every wedge dies.

    The rank, the first witness pair and the index [L : Z^n] are all
    read off the upper Hermite rows U of S = L* that the enumerator
    hands out with each L: in the basis of L dual to U, e_k has
    coordinates column k of U, and one elimination mod p over those
    columns in order gives the rank (the pivot count) and the first
    independent pair (the first two pivots), both invariant under a
    change of basis.  Each form must also meet the Smith-form bound
    rank(S mod p) >= n - j, where p^j = [L : Z^n] = [Z^n : S] (at
    most j elementary divisors of S are divisible by p); a form below it
    means a wrong enumerator and fails an assertion.  max_work bounds
    the closed-form overlattice count, which the enumerator checks before
    any lattice is built: over budget it raises EnumerationBound.
    """
    _require_prime_and_depth(n, p)
    params = {"n": n, "p": p}
    if max_work < 1:
        raise UnsupportedConfiguration(f"max_work must be at least 1, got {max_work}")
    lattices = enumerate_overlattices(n, p, n - 2, bound=max_work)
    min_rank = None
    witnesses = []
    for _, u in lattices:
        index = prod(u[i][i] for i in range(n))
        pivots = _pivot_columns_mod_p(u, p)
        rank = len(pivots)
        # index = p^j with j <= n-2, so the Smith bound forces rank >= 2: every form has a pair
        assert p ** (n - rank) <= index, f"rank {rank} mod {p} breaks the Smith bound at {u}"
        min_rank = rank if min_rank is None else min(min_rank, rank)
        witnesses.append((index, (pivots[0] + 1, pivots[1] + 1)))
    upper = Lattice.diagonal([Fraction(1, p)] * (n - 1) + [Fraction(1)])
    upper_rank = len(_pivot_columns_mod_p(upper.dual().rows, p))
    upper_wedges_vanish = upper_rank < 2
    payload = {
        "lattice_count": len(lattices),
        "max_index": p ** (n - 2),
        "min_unit_rank": min_rank,
        "wedge_witnesses": tuple(witnesses),
        "upper_witness": upper,
        "upper_unit_rank": upper_rank,
        "upper_wedges_vanish": upper_wedges_vanish,
    }
    return Verdict("char-not-p", VERIFIED if upper_wedges_vanish else REFUTED, params, payload)


# ----------------------------------------------------------- two-factor


def verify_prop71(part: int, p: int) -> Verdict:
    """The two-factor decomposition equivalence over F_0((t)).

    The tensor of the two inputs rewrites to D tensor E with D
    semiramified; division of the whole then rides on the residue
    symbol over the degree-p extension cut out by D's residue.  Both
    hypothesis toggles are exercised: assuming that symbol is division
    must certify the peel, assuming it splits must refute the residue
    tensor, which kills the product by the same decomposition.
    """
    _require_prime(p)
    if p == 2:
        raise UnsupportedConfiguration("the decomposition needs odd p")
    if part not in (1, 2):
        raise UnsupportedConfiguration(f"variant must be 1 or 2, got {part}")
    tower = FieldTower(GroundField(p, frozenset({"a", "c", "d"})), ("t",))
    a, c, d, t = (FormalElement.symbol(p, name) for name in ("a", "c", "d", "t"))
    if part == 1:
        left = symbol(p, a, t)
        right = symbol(p, c, d * t)
        d_term = symbol(p, a + c, t)
        e_term = symbol(p, c, d)
    else:
        left = symbol(p, t.inverse(), a)
        right = symbol(p, d + t.inverse(), c)
        d_term = symbol(p, t.inverse(), a * c)
        e_term = symbol(p, d, c)
    nf_ok = normal_form(SymbolSum.of(left, right)) == normal_form(
        SymbolSum.of(d_term, e_term)
    )
    d_cert = symbol_division(d_term, tower)
    division_leg = morandi_step(
        tower, 1, SymbolSum.of(d_term), e_term, d_cert, "division"
    )
    split_leg = morandi_step(tower, 1, SymbolSum.of(d_term), e_term, d_cert, "split")
    split_tensor = split_leg.find("residue-tensor")
    ok = nf_ok and d_cert.ok and division_leg.ok and split_tensor.status == CERT_REFUTED
    payload = {
        "normal_form_identity": nf_ok,
        "left_factor": SymbolSum.of(d_term),
        "right_factor": SymbolSum.of(e_term),
        "extension_kind": split_tensor.get("extension_kind"),
        "extension_rhs": split_tensor.get("extension_rhs"),
        "division_toggle": division_leg.status,
        "split_toggle": split_tensor.status,
    }
    params = {"variant": part, "p": p}
    certs = (d_cert, division_leg, split_leg)
    return Verdict("prop71", VERIFIED if ok else NOT_CERTIFIED, params, payload, certs)


def verify_lemma72(part: int, p: int) -> Verdict:
    """Trace-value obstructions over k((d))((c)).

    Part 1 compares the reduced-trace value of the totally ramified
    symbol [1/c, 1/d) with the trace value of the field extension by a
    root of X^p - X = 1/d: the algebra sits strictly above the field
    in the lexicographic order, so the field cannot embed.  Part 2
    re-bases d to a p-th root y and shifts, leaving [1/y, c), whose
    value independence keeps the product division; again no embedding.
    """
    _require_prime(p)
    if part not in (1, 2):
        raise UnsupportedConfiguration(f"part must be 1 or 2, got {part}")
    tower = FieldTower(GroundField(p), ("d", "c"))
    params = {"part": part, "p": p}
    cinv = FormalElement.symbol(p, "c", -1)
    dinv = FormalElement.symbol(p, "d", -1)
    if part == 1:
        data = algebra_value_data(SymbolSum.of(symbol(p, cinv, dinv)), tower)
        ind = independence_division(data)
        algebra_w = trace_profile(tower, cinv)
        field_w = trace_profile(tower, dinv)
        w = Fraction(p - 1, p)
        expected_algebra = ValueVector.of(0, w)
        expected_field = ValueVector.of(w, 0)
        obstruction = field_w.minimum < algebra_w.minimum
        ok = (
            ind.ok
            and algebra_w.minimum == algebra_w.closed_form == expected_algebra
            and field_w.minimum == field_w.closed_form == expected_field
            and obstruction
        )
        payload = {
            "algebra_trace_value": algebra_w.minimum,
            "algebra_trace_closed_form": algebra_w.closed_form,
            "field_trace_value": field_w.minimum,
            "field_trace_closed_form": field_w.closed_form,
            "subfield_obstruction": obstruction,
            "conclusion": "NotSubfield" if obstruction else None,
        }
        return Verdict(
            "lemma72", VERIFIED if ok else NOT_CERTIFIED, params, payload, (ind,)
        )
    root = "y"
    witness, shifted, cert = rebase_shift(tower, "d", root, dinv, FormalElement.symbol(p, "c"))
    ok = cert.ok
    payload = {
        "rebased_variable": "d",
        "root_name": root,
        "shift_witness": witness,
        "shifted_slot": shifted,
        "division_route": cert.get("route") if cert.ok else None,
        "value_group": cert.get("value_group") if cert.ok else None,
        "conclusion": "NotSubfield" if ok else None,
    }
    return Verdict(
        "lemma72", VERIFIED if ok else NOT_CERTIFIED, params, payload, (cert,)
    )


def _vanishing_chain_shift(p: int) -> RewriteChain:
    """[1/c, 1/d) proves zero over the extension by a root of 2/d - 1/c.

    Splits off [2/d, 1/d), removes it as the norm of X/2, negates, and
    shifts the leftover slot away with the adjoined root.
    """
    base = FieldTower(GroundField(p), ("d", "c"))
    cinv = FormalElement.symbol(p, "c", -1)
    dinv = FormalElement.symbol(p, "d", -1)
    rhs = dinv.scale(2) - cinv
    ell = adjoin(base, "xL", ARTIN_SCHREIER, rhs)
    start = SymbolSum.of(symbol(p, cinv, dinv))
    s1 = SymbolSum.of(symbol(p, cinv - dinv.scale(2), dinv), symbol(p, dinv.scale(2), dinv))
    s2 = SymbolSum.of(symbol(p, cinv - dinv.scale(2), dinv))
    s3 = SymbolSum.of(symbol(p, rhs, FormalElement.symbol(p, "d")))
    s4 = SymbolSum.of(symbol(p, FormalElement.zero(p), FormalElement.symbol(p, "d")))
    steps = (
        RewriteStep("slot1-add", start, s1),
        # the norm witness X/2, reconstructed
        RewriteStep(
            "slot2-norm",
            s1,
            s2,
            target_index=1,
            witness=FormalElement.symbol(p, WITNESS_ROOT, 1, pow(2, -1, p)),
        ),
        RewriteStep("negate", s2, s3, target_index=0),
        RewriteStep(
            "as-shift",
            s3,
            s4,
            target_index=0,
            witness=FormalElement.symbol(p, "xL", 1, p - 1),
        ),
        RewriteStep("slot1-add", s4, SymbolSum.zero(p)),
    )
    return RewriteChain(ell, start, steps)


def _vanishing_chain_root(p: int) -> RewriteChain:
    """[1/d, c) proves zero once a p-th root of d^2/c is declared."""
    base = FieldTower(GroundField(p), ("d", "c"))
    dinv = FormalElement.symbol(p, "d", -1)
    c = FormalElement.symbol(p, "c")
    ell = adjoin(base, "w", PTH_ROOT, FormalElement.monomial(p, {"d": 2, "c": -1}))
    start = SymbolSum.of(symbol(p, dinv, c))
    s1 = SymbolSum.of(
        symbol(p, dinv, FormalElement.monomial(p, {"c": 1, "d": -2})),
        symbol(p, dinv, FormalElement.monomial(p, {"d": 2})),
    )
    s2 = SymbolSum.of(symbol(p, dinv, FormalElement.monomial(p, {"c": 1, "d": -2})))
    s3 = SymbolSum.of(symbol(p, -dinv, FormalElement.monomial(p, {"c": -1, "d": 2})))
    steps = (
        RewriteStep("slot2-mult", start, s1),
        RewriteStep("slot2-self", s1, s2, target_index=1),
        RewriteStep("negate", s2, s3, target_index=0),
        RewriteStep("slot2-pthpower", s3, SymbolSum.zero(p), target_index=0),
    )
    return RewriteChain(ell, start, steps)


def _refuting_peel(
    tower: FieldTower,
    d_term: SymbolTerm,
    e_term: SymbolTerm,
    chain: RewriteChain,
) -> tuple[bool, Certificate, dict[str, object]]:
    """Peel where the extended residue symbol provably vanishes.

    Every structural peel condition must hold, the residue tensor must
    hang on the extended residue symbol alone, and the chain must start
    at that symbol, live over the matching extension, and reach zero.
    Then the decomposition is split at the residue level, so the
    original product is not division.
    """
    d_cert = symbol_division(d_term, tower, 1)
    peel = morandi_step(tower, 1, SymbolSum.of(d_term), e_term, d_cert, "split")
    conditions = peel.get("conditions")
    tensor = peel.find("residue-tensor")
    structural = all(
        flag for name, flag in conditions.items() if name != "residue-tensor-division"
    )
    shape_ok = (
        tensor.get("shape") == "residue-symbol-over-extension"
        and tensor.status == CERT_REFUTED
    )
    gen = chain.tower.generators[-1]
    ext_ok = (
        shape_ok
        and gen.kind == tensor.get("extension_kind")
        and gen.rhs == tensor.get("extension_rhs")
    )
    start_ok = shape_ok and chain.start == SymbolSum.of(tensor.get("residue_symbol"))
    try:
        proves = check_rewrite_chain(chain).is_zero_sum()
    except UnsupportedConfiguration:
        proves = False
    ok = d_cert.ok and structural and shape_ok and ext_ok and start_ok and proves
    detail = {
        "structural_conditions": structural,
        "chain_extension_matches": ext_ok,
        "chain_start_matches": start_ok,
        "chain_proves_zero": proves,
        "chain_steps": tuple(step.rule for step in chain.steps),
    }
    return ok, peel, detail


def verify_example73(part: int, p: int) -> Verdict:
    """Two degree-p algebras with no common maximal subfield.

    Over k((d))((c))((t)) the pair (B, C) tensors to a non-division
    algebra, yet shares no maximal subfield: B is twice A in the group
    of classes, A tensor C is certified division, and a common subfield
    of B and C would split A and C simultaneously.  Part 1 carries the
    twist on the Artin-Schreier slot, part 2 on the root slot.
    """
    _require_prime(p)
    if p == 2:
        raise UnsupportedConfiguration("the decomposition needs odd p")
    if part not in (1, 2):
        raise UnsupportedConfiguration(f"part must be 1 or 2, got {part}")
    tower = FieldTower(GroundField(p), ("d", "c", "t"))
    params = {"part": part, "p": p}
    cinv = FormalElement.symbol(p, "c", -1)
    dinv = FormalElement.symbol(p, "d", -1)
    t = FormalElement.symbol(p, "t")
    if part == 1:
        a_word = symbol(p, dinv - cinv, t)
        b_word = symbol(p, (dinv - cinv).scale(2), t)
        c_word = symbol(p, cinv, dinv * t)
        d_term = symbol(p, dinv, t)
        e_term = symbol(p, cinv, dinv)
        d2_term = symbol(p, dinv.scale(2) - cinv, t)
        chain = _vanishing_chain_shift(p)
    else:
        a_word = symbol(p, t.inverse(), FormalElement.monomial(p, {"d": 1, "c": -1}))
        b_word = symbol(p, t.inverse(), FormalElement.monomial(p, {"d": 2, "c": -2}))
        c_word = symbol(p, dinv + t.inverse(), FormalElement.symbol(p, "c"))
        d_term = symbol(p, t.inverse(), FormalElement.symbol(p, "d"))
        e_term = symbol(p, dinv, FormalElement.symbol(p, "c"))
        d2_term = symbol(p, t.inverse(), FormalElement.monomial(p, {"d": 2, "c": -1}))
        chain = _vanishing_chain_root(p)

    division_nf = normal_form(SymbolSum.of(a_word, c_word)) == normal_form(
        SymbolSum.of(d_term, e_term)
    )
    scalar_nf = normal_form(scalar_power(SymbolSum.of(a_word), 2)) == normal_form(
        SymbolSum.of(b_word)
    )
    split_nf = normal_form(SymbolSum.of(b_word, c_word)) == normal_form(
        SymbolSum.of(d2_term, e_term)
    )

    d_cert = symbol_division(d_term, tower, 1)
    division_peel = morandi_step(tower, 1, SymbolSum.of(d_term), e_term, d_cert, None)

    split_ok, split_peel, split_detail = _refuting_peel(tower, d2_term, e_term, chain)

    obstruction = division_nf and d_cert.ok and division_peel.ok
    non_division = split_nf and split_ok
    ok = obstruction and scalar_nf and non_division
    payload = {
        "left_right_division": division_peel.status,
        "division_decomposition": division_nf,
        "division_residue_shape": division_peel.find("residue-tensor").get("shape"),
        "scalar_relation": scalar_nf,
        "scalar_factor": 2,
        "split_decomposition": split_nf,
        "tensor_non_division": non_division,
        **split_detail,
        "pair_first_third": "NoCommonMaximalSubfield" if obstruction else None,
        "pair_second_third": "NoCommonMaximalSubfield" if ok else None,
    }
    certs = (d_cert, division_peel, split_peel)
    return Verdict(
        "example73", VERIFIED if ok else NOT_CERTIFIED, params, payload, certs
    )


# ------------------------------------------------------------- scenarios


def verify_chain_check(scenario: Scenario) -> Verdict:
    """The scenario's witness chain: Verified when every step checks and
    the final sum is empty, NotCertified otherwise."""
    if scenario.chain is None:
        raise ScenarioError(f"{scenario.path}: chain-check needs a chain block")
    reason = None
    try:
        final = check_rewrite_chain(scenario.chain)
        valid = True
    except UnsupportedConfiguration as err:
        final = None
        valid = False
        reason = str(err)
    proves = bool(valid and final.is_zero_sum())
    return Verdict(
        task="chain-check",
        result=VERIFIED if proves else NOT_CERTIFIED,
        parameters={"p": scenario.prime, "scenario": scenario.path},
        payload={
            "chain_on": scenario.chain_on,
            "steps": tuple(s.rule for s in scenario.chain.steps),
            "valid": valid,
            "proves_zero": proves,
            "remaining_terms": None if final is None else len(final.terms),
            "reason": reason,
        },
    )


def verify_custom_scenario(scenario: Scenario) -> Verdict:
    """The division certificate of the scenario's word, the tensor of
    its named algebras in order, under its residue hypothesis."""
    if not scenario.word:
        raise ScenarioError(f"{scenario.path}: custom-scenario needs a 'word' line")
    word = SymbolSum.zero(scenario.prime)
    for name in scenario.word:
        word = word + scenario.algebras[name]
    cert = chain_division(word, scenario.tower, scenario.hypothesis)
    return Verdict(
        task="custom-scenario",
        result=RESULT_OF_STATUS[cert.status],
        parameters={"p": scenario.prime, "scenario": scenario.path},
        payload={
            "word": scenario.word,
            "factors": len(word.terms),
            "hypothesis": scenario.hypothesis,
            "division_status": cert.status,
        },
        certificates=(cert,),
    )


# every integer input a task can take, with the help text of its flag
INPUTS = {
    "n": "tower depth",
    "p": "symbol degree, a prime",
    "i": "distinguished place for shift tasks",
    "part": "statement part or variant",
    "max_work": "enumeration budget",
}

# every task: its verifier and the inputs it takes, which are the names of
# the verifier's parameters in order ("scenario" is the parsed scenario
# file, any other input a key of INPUTS)
TASKS = {
    "shift": (verify_shift_lemma, ("n", "p", "i")),
    "value-groups": (verify_value_groups, ("n", "p")),
    "no-common-splitting": (verify_no_common_splitting, ("n", "p")),
    "counts": (verify_count_identities, ()),
    "char-not-p": (verify_char_not_p, ("n", "p", "max_work")),
    "prop71": (verify_prop71, ("part", "p")),
    "lemma72": (verify_lemma72, ("part", "p")),
    "example73": (verify_example73, ("part", "p")),
    "chain-check": (verify_chain_check, ("scenario",)),
    "custom-scenario": (verify_custom_scenario, ("scenario",)),
}
