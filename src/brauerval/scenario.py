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
    n 3                           # family-task parameters
    p 2
    i 2
    part 1
    expect Verified               # golden verdict for replays

Elements are sums of signed-integer-exponent monomials: factors like
2, d, c^-1, joined by '*', terms joined by '+' (so a negative term is
written '+ -2*c^-1').  A bare 0 is the zero element or the empty sum
of symbols.  Every name must come from the tower, except the reserved
norm variable X inside witnesses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .division import HYPOTHESIS_STATUS
from .errors import EngineError, ScenarioError, UnsupportedConfiguration
from .symbols import RewriteChain, RewriteStep, SymbolSum, SymbolTerm, symbol
from .towers import (
    KINDS,
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    is_prime,
)
from .verify import EXIT_CODES, TASKS

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"[+-]?\d+\Z")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([+-]?\d+))?\Z")
_GENERATOR = re.compile(
    rf"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*({'|'.join(map(re.escape, KINDS))})\((.*)\)\s*\Z"
)


@dataclass(frozen=True)
class Scenario:
    task: str
    path: str
    prime: int | None = None
    params: dict[str, int] = field(default_factory=dict)
    tower: FieldTower | None = None
    algebras: dict[str, SymbolSum] = field(default_factory=dict)
    word: tuple[str, ...] = ()
    hypothesis: str | None = None
    chain: RewriteChain | None = None
    chain_on: str | None = None
    expect: str | None = None

    def algebra(self, name: str) -> SymbolSum:
        try:
            return self.algebras[name]
        except KeyError:
            raise ScenarioError(f"{self.path}: no algebra named {name!r}") from None


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
        self.path = path
        self.lines = text.splitlines()
        self.ln = 0  # the line being parsed
        self.start = 1  # the column of its first non-blank character
        self.version: int | None = None
        self.task: str | None = None
        self.prime: int | None = None
        self.params: dict[str, int] = {}
        self.constants: list[str] = []
        self.closed = False
        self.variables: list[str] | None = None
        self.tower: FieldTower | None = None
        self.algebras: dict[str, SymbolSum] = {}
        self.word: tuple[str, ...] = ()
        self.hypothesis: str | None = None
        self.expect: str | None = None
        self.chain_on: str | None = None
        self.chain_steps: list[RewriteStep] = []
        self.in_chain = False
        self.chain_current: SymbolSum | None = None

    def _fail(self, msg: str, col: int | None = None) -> None:
        """Raise at col, or at the start of the line when no token is to blame."""
        raise ScenarioError(f"{self.path}:{self.ln}:{col or self.start}: {msg}")

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

    def _tensor(self, text: str, col: int) -> SymbolSum:
        terms = [
            self._symbol(piece, col + off) for off, piece in _split_top(text, "*")
        ]
        return SymbolSum.of(*terms)

    def _sum(self, text: str, col: int) -> SymbolSum:
        p = self._need_prime(col)
        if text.strip() == "0":
            return SymbolSum.zero(p)
        terms = [
            self._symbol(piece, col + off) for off, piece in _split_top(text, "+")
        ]
        return SymbolSum.of(*terms)

    # -------------------------------------------------------- directives

    def _need_prime(self, col: int | None = None) -> int:
        if self.prime is None:
            self._fail("a 'prime' line must come first", col)
        return self.prime

    def _need_tower(self) -> FieldTower:
        if self.tower is None:
            self._fail("a 'variables' line must come first")
        return self.tower

    def _int_value(self, rest: str, key: str) -> int:
        if not _INT.match(rest.strip()):
            self._fail(f"{key} wants an integer, got {rest.strip()!r}")
        return int(rest.strip())

    def _directive_task(self, rest: str, at: int) -> None:
        name = rest.strip()
        if name not in TASKS:
            self._fail(f"unknown task {name!r}", at)
        self.task = name

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
        if self.variables is not None:
            self._fail("duplicate 'variables' line")
        names = rest.split()
        for name in names:
            if not _NAME.match(name):
                self._fail(f"bad variable name {name!r}")
        p = self._need_prime()
        self.variables = names
        try:
            self.tower = FieldTower(
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
            self.tower = adjoin(self._need_tower(), name, kind, rhs)
        except UnsupportedConfiguration as err:
            self._fail(str(err))

    def _directive_algebra(self, rest: str, at: int) -> None:
        m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)\Z", rest)
        if not m:
            self._fail("algebra wants: name = [a, b) * ...")
        name, body = m.group(1), m.group(2)
        if name in self.algebras:
            self._fail(f"duplicate algebra {name!r}")
        col = at + m.start(2)
        word = self._tensor(body, col)
        if not word.terms:
            self._fail("empty algebra", col)
        self.algebras[name] = word

    def _directive_word(self, rest: str) -> None:
        names = rest.split()
        if not names:
            self._fail("word wants at least one algebra name")
        for name in names:
            if name not in self.algebras:
                self._fail(f"word references unknown algebra {name!r}")
        self.word = tuple(names)

    def _directive_chain(self, rest: str) -> None:
        m = re.match(r"\s*on\s+([A-Za-z_][A-Za-z0-9_]*)\s*\Z", rest)
        if not m:
            self._fail("chain wants: chain on <algebra>")
        name = m.group(1)
        if name not in self.algebras:
            self._fail(f"chain references unknown algebra {name!r}")
        if self.chain_on is not None:
            self._fail("only one chain per scenario")
        self.chain_on = name
        self.chain_current = self.algebras[name]
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
            witness = self._element(wtext, wcol, extra=("X",))
            rest = []
        if rest:
            self._fail(f"unexpected step tokens {rest}")
        after = self._sum(after_text, line.index("->") + 3)
        try:
            step = RewriteStep(
                rule, self.chain_current, after, target_index=target, witness=witness
            )
        except UnsupportedConfiguration as err:
            self._fail(str(err))
        self.chain_steps.append(step)
        self.chain_current = after

    def _directive_expect(self, rest: str, at: int) -> None:
        name = rest.strip()
        if name not in EXIT_CODES:
            self._fail(f"unknown verdict {name!r}", at)
        self.expect = name

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
            if key == "task":
                self._directive_task(rest, at)
            elif key == "prime":
                value = self._int_value(rest, "prime")
                if not is_prime(value):
                    self._fail(f"{value} is not prime", at)
                self.prime = value
            elif key in ("n", "p", "i", "part"):
                self.params[key] = self._int_value(rest, key)
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
                self.hypothesis = value
            elif key == "chain":
                self._directive_chain(rest)
            elif key == "step":
                self._directive_step(line)
            elif key == "end":
                if not self.in_chain:
                    self._fail("'end' outside a chain block")
                self.in_chain = False
            elif key == "expect":
                self._directive_expect(rest, at)
            else:
                self._fail(f"unknown directive {key!r}")
        self.ln, self.start = max(len(self.lines), 1), 1
        if self.in_chain:
            self._fail("unterminated chain block")
        if self.task is None:
            self._fail("scenario has no task")
        chain = None
        if self.chain_on is not None:
            if not self.chain_steps:
                self._fail("chain block has no steps")
            chain = RewriteChain(
                self._need_tower(),
                self.algebras[self.chain_on],
                tuple(self.chain_steps),
            )
        return Scenario(
            task=self.task,
            path=self.path,
            prime=self.prime,
            params=self.params,
            tower=self.tower,
            algebras=self.algebras,
            word=self.word,
            hypothesis=self.hypothesis,
            chain=chain,
            chain_on=self.chain_on,
            expect=self.expect,
        )


def parse_scenario(text: str, path: str = "<scenario>") -> Scenario:
    return _Parser(text, path).parse()


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioError(f"cannot read scenario {path}: {err}") from err
    return parse_scenario(text, path)
