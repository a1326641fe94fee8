"""Text scenarios: towers, named algebras, witness chains, task parameters.

Format (version 1), one directive per line, '#' starts a comment:

    version 1
    task custom-scenario
    prime 3
    ground constants a c d        # optional generic constants
    ground closed                 # optional: F_0 algebraically closed
    variables d c t               # innermost first
    generator xL = artin-schreier(2*d^-1 + -2*c^-1)
    generator w = pth-root(d^2*c^-1)
    algebra D = [d^-1, t)
    algebra E = [c^-1, d^-1)
    word D E                      # tensor the named algebras in order
    hypothesis division           # optional residue-level assumption
    chain on E                    # witness chain, closed by 'end'
      step slot1-add -> [c^-1 + -2*d^-1, d^-1) + [2*d^-1, d^-1)
      step slot2-norm at 1 witness 2*X -> [c^-1 + -2*d^-1, d^-1)
    end
    expect Verified               # golden verdict for replays

Elements are sums of signed-integer-exponent monomials: factors like
2, d, c^-1, joined by '*', terms joined by '+' (so a negative term is
written '+ -2*c^-1').  A bare 0 is the zero element or the empty sum
of symbols.  Every name must come from the tower, except the reserved
norm variable X inside witnesses.  A line 'n 3', 'p 2', 'i 2', 'part 1'
or 'max_work 1000' (a key of verify.INPUTS) gives the task an input; the
CLI refuses one the task does not take.
"""

from __future__ import annotations

import re

from .division import HYPOTHESIS_STATUS
from .errors import EngineError, ScenarioError, UnsupportedConfiguration
from .lattices import record
from .symbols import WITNESS_ROOT, RewriteChain, RewriteStep, SymbolSum, SymbolTerm, symbol
from .towers import (
    KINDS,
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    is_prime,
)
from .verify import EXIT_CODES, INPUTS, TASKS

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"[+-]?\d+\Z")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([+-]?\d+))?\Z")
_GENERATOR = re.compile(
    rf"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*({'|'.join(map(re.escape, KINDS))})\((.*)\)\s*\Z"
)


@record(frozen=False, slots=False)
class Scenario:
    """What a scenario file says; the parser fills it in line by line."""

    path: str
    task: str | None = None
    prime: int | None = None
    params: dict[str, int] = {}
    tower: FieldTower | None = None
    algebras: dict[str, SymbolSum] = {}
    word: tuple[str, ...] = ()
    hypothesis: str | None = None
    chain: RewriteChain | None = None
    chain_on: str | None = None
    expect: str | None = None


def _split_top(text: str, sep: str) -> list[tuple[int, str]]:
    """Split on sep at bracket depth zero; yields (offset, piece)."""
    pieces = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            pieces.append((start, text[start:k]))
            start = k + 1
    pieces.append((start, text[start:]))
    return pieces


class _Parser:
    def __init__(self, text: str, path: str) -> None:
        self.lines = text.splitlines()
        self.ln = 0  # the line being parsed
        self.start = 1  # the column of its first non-blank character
        self.out = Scenario(path)
        self.version: int | None = None
        self.constants: list[str] = []
        self.closed = False
        self.chain_steps: list[RewriteStep] = []
        self.in_chain = False
        self.chain_current: SymbolSum | None = None

    def _fail(self, msg: str, col: int | None = None) -> None:
        """Raise at col, or at the start of the line when no token is to blame."""
        raise ScenarioError(f"{self.out.path}:{self.ln}:{col or self.start}: {msg}")

    # ---------------------------------------------------------- elements

    def _element(self, text: str, col: int, extra: tuple[str, ...] = ()) -> FormalElement:
        p = self._need_prime(col)
        if text.strip() == "0":
            return FormalElement.zero(p)
        known = self._need_tower().names().union(extra)
        total = FormalElement.zero(p)
        for off, term in _split_top(text, "+"):
            if not term.strip():
                self._fail("empty term in element", col + off)
            coeff = 1
            exps: dict[str, int] = {}
            pos = off
            for factor in term.split("*"):
                fpos = col + pos + (len(factor) - len(factor.lstrip()))
                f = factor.strip()
                pos += len(factor) + 1
                if not f:
                    self._fail("empty factor in element", fpos)
                if _INT.match(f):
                    coeff = coeff * int(f) % p
                    continue
                m = _FACTOR.match(f)
                if not m:
                    self._fail(f"bad factor {f!r}", fpos)
                name, exp = m.group(1), int(m.group(2) or 1)
                if name not in known:
                    self._fail(f"unknown names {[name]}", fpos)
                exps[name] = exps.get(name, 0) + exp
            exps = {k: v for k, v in exps.items() if v}
            term_el = FormalElement.monomial(p, exps).scale(coeff)
            total = total + term_el
        return total

    def _symbol(self, text: str, col: int) -> SymbolTerm:
        p = self._need_prime(col)
        s = text.strip()
        shift = col + len(text) - len(text.lstrip())
        if not (s.startswith("[") and s.endswith(")")):
            self._fail(f"symbol must look like [a, b), got {s!r}", shift)
        inner = s[1:-1]
        if "," not in inner:
            self._fail("symbol needs two comma-separated slots", shift)
        slot1, slot2 = inner.split(",", 1)
        left = self._element(slot1, shift + 1)
        right = self._element(slot2, shift + 2 + len(slot1))
        try:
            return symbol(p, left, right)
        except EngineError as err:
            self._fail(str(err), shift)

    def _terms(self, text: str, col: int, sep: str) -> SymbolSum:
        """Symbols joined by sep ('*' in an algebra, '+' in a step); a bare 0 is the empty sum."""
        p = self._need_prime(col)
        if text.strip() == "0":
            return SymbolSum.zero(p)
        terms = [self._symbol(piece, col + off) for off, piece in _split_top(text, sep)]
        return SymbolSum.of(*terms)

    # -------------------------------------------------------- directives

    def _need_prime(self, col: int | None = None) -> int:
        if self.out.prime is None:
            self._fail("a 'prime' line must come first", col)
        return self.out.prime

    def _need_tower(self) -> FieldTower:
        if self.out.tower is None:
            self._fail("a 'variables' line must come first")
        return self.out.tower

    def _int_value(self, rest: str, key: str) -> int:
        if not _INT.match(rest.strip()):
            self._fail(f"{key} wants an integer, got {rest.strip()!r}")
        return int(rest.strip())

    def _known(self, rest: str, at: int, table: dict, what: str) -> str:
        """The name rest holds, which must be a key of table."""
        name = rest.strip()
        if name not in table:
            self._fail(f"unknown {what} {name!r}", at)
        return name

    def _directive_ground(self, rest: str) -> None:
        tokens = rest.split()
        if tokens and tokens[0] == "constants":
            for name in tokens[1:]:
                if not _NAME.match(name):
                    self._fail(f"bad constant name {name!r}")
            self.constants.extend(tokens[1:])
        elif tokens == ["closed"]:
            self.closed = True
        else:
            self._fail(f"bad ground clause {rest.strip()!r}")

    def _directive_variables(self, rest: str) -> None:
        if self.out.tower is not None:
            self._fail("duplicate 'variables' line")
        names = rest.split()
        for name in names:
            if not _NAME.match(name):
                self._fail(f"bad variable name {name!r}")
        p = self._need_prime()
        try:
            self.out.tower = FieldTower(
                GroundField(p, frozenset(self.constants), self.closed), tuple(names)
            )
        except UnsupportedConfiguration as err:
            self._fail(str(err))

    def _directive_generator(self, rest: str, at: int) -> None:
        m = _GENERATOR.match(rest)
        if not m:
            self._fail("generator wants: name = " + " or ".join(f"{k}(...)" for k in KINDS))
        name, kind, body = m.group(1), m.group(2), m.group(3)
        rhs = self._element(body, at + m.start(3))
        try:
            self.out.tower = adjoin(self._need_tower(), name, kind, rhs)
        except UnsupportedConfiguration as err:
            self._fail(str(err))

    def _directive_algebra(self, rest: str, at: int) -> None:
        m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)\Z", rest)
        if not m:
            self._fail("algebra wants: name = [a, b) * ...")
        name, body = m.group(1), m.group(2)
        if name in self.out.algebras:
            self._fail(f"duplicate algebra {name!r}")
        col = at + m.start(2)
        word = self._terms(body, col, "*")
        if not word.terms:
            self._fail("empty algebra", col)
        self.out.algebras[name] = word

    def _directive_word(self, rest: str) -> None:
        names = rest.split()
        if not names:
            self._fail("word wants at least one algebra name")
        for name in names:
            if name not in self.out.algebras:
                self._fail(f"word references unknown algebra {name!r}")
        self.out.word = tuple(names)

    def _directive_chain(self, rest: str) -> None:
        m = re.match(r"\s*on\s+([A-Za-z_][A-Za-z0-9_]*)\s*\Z", rest)
        if not m:
            self._fail("chain wants: chain on <algebra>")
        name = m.group(1)
        if name not in self.out.algebras:
            self._fail(f"chain references unknown algebra {name!r}")
        if self.out.chain_on is not None:
            self._fail("only one chain per scenario")
        self.out.chain_on = name
        self.chain_current = self.out.algebras[name]
        self.in_chain = True

    def _directive_step(self, line: str) -> None:
        if not self.in_chain:
            self._fail("'step' outside a chain block")
        if "->" not in line:
            self._fail("step wants '-> <sum>'")
        head, after_text = line.split("->", 1)
        tokens = head.split()
        # tokens: step RULE [at N] [witness ...]
        if len(tokens) < 2:
            self._fail("step wants a rule name")
        rule = tokens[1]
        target = 0
        witness = None
        rest = tokens[2:]
        if rest and rest[0] == "at":
            if len(rest) < 2 or not _INT.match(rest[1]):
                self._fail("'at' wants an index")
            target = int(rest[1])
            rest = rest[2:]
        if rest and rest[0] == "witness":
            wtext = head.split("witness", 1)[1]
            wcol = line.index("witness") + len("witness") + 1
            witness = self._element(wtext, wcol, extra=(WITNESS_ROOT,))
            rest = []
        if rest:
            self._fail(f"unexpected step tokens {rest}")
        after = self._terms(after_text, line.index("->") + 3, "+")
        try:
            step = RewriteStep(
                rule, self.chain_current, after, target_index=target, witness=witness
            )
        except UnsupportedConfiguration as err:
            self._fail(str(err))
        self.chain_steps.append(step)
        self.chain_current = after

    # ------------------------------------------------------------ driver

    def parse(self) -> Scenario:
        for ln, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.lstrip()
            self.ln, self.start = ln, len(line) - len(stripped) + 1
            if self.version is None:
                if line.split() == ["version", "1"]:
                    self.version = 1
                    continue
                self._fail("first directive must be 'version 1'")
            key = stripped.split(None, 1)[0]
            rest = stripped[len(key):].lstrip()
            # the column of rest[0] in the raw line, so diagnostics count indentation
            at = len(line) - len(rest) + 1
            if self.in_chain and key not in ("step", "end"):
                self._fail("chain block must close with 'end'")
            # the tower is built at 'variables', so later tower inputs would never reach it
            if key in ("prime", "ground") and self.out.tower is not None:
                self._fail(f"a {key!r} line must come before 'variables'")
            if key == "task":
                self.out.task = self._known(rest, at, TASKS, "task")
            elif key == "prime":
                value = self._int_value(rest, "prime")
                if not is_prime(value):
                    self._fail(f"{value} is not prime", at)
                self.out.prime = value
            elif key in INPUTS:
                self.out.params[key] = self._int_value(rest, key)
            elif key == "ground":
                self._directive_ground(rest)
            elif key == "variables":
                self._directive_variables(rest)
            elif key == "generator":
                self._directive_generator(rest, at)
            elif key == "algebra":
                self._directive_algebra(rest, at)
            elif key == "word":
                self._directive_word(rest)
            elif key == "hypothesis":
                value = rest.strip()
                if value not in HYPOTHESIS_STATUS:
                    self._fail("hypothesis must be " + " or ".join(HYPOTHESIS_STATUS))
                self.out.hypothesis = value
            elif key == "chain":
                self._directive_chain(rest)
            elif key == "step":
                self._directive_step(line)
            elif key == "end":
                if not self.in_chain:
                    self._fail("'end' outside a chain block")
                self.in_chain = False
            elif key == "expect":
                self.out.expect = self._known(rest, at, EXIT_CODES, "verdict")
            else:
                self._fail(f"unknown directive {key!r}")
        self.ln, self.start = max(len(self.lines), 1), 1
        if self.in_chain:
            self._fail("unterminated chain block")
        if self.out.task is None:
            self._fail("scenario has no task")
        if self.out.chain_on is not None:
            if not self.chain_steps:
                self._fail("chain block has no steps")
            self.out.chain = RewriteChain(
                self._need_tower(),
                self.out.algebras[self.out.chain_on],
                tuple(self.chain_steps),
            )
        return self.out


def parse_scenario(text: str, path: str = "<scenario>") -> Scenario:
    return _Parser(text, path).parse()


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err
    return parse_scenario(text, path)
