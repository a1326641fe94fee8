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

from .errors import EngineError, ScenarioError, UnsupportedConfiguration
from .symbols import RewriteChain, RewriteStep, SymbolSum, SymbolTerm, symbol
from .towers import (
    FieldTower,
    FormalElement,
    GroundField,
    adjoin,
    is_prime,
)

TASKS = (
    "shift",
    "value-groups",
    "no-common-splitting",
    "counts",
    "char-not-p",
    "prop71",
    "lemma72",
    "example73",
    "chain-check",
    "custom-scenario",
)

VERDICTS = ("Verified", "Refuted", "Inconclusive", "NotCertified")

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT = re.compile(r"[+-]?\d+\Z")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([+-]?\d+))?\Z")


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

    def param(self, key: str) -> int | None:
        return self.params.get(key)

    def algebra(self, name: str) -> SymbolSum:
        try:
            return self.algebras[name]
        except KeyError:
            raise ScenarioError(f"{self.path}: no algebra named {name!r}") from None


def _fail(path: str, ln: int, col: int, msg: str) -> None:
    raise ScenarioError(f"{path}:{ln}:{col}: {msg}")


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

    # ---------------------------------------------------------- elements

    def _element(self, text: str, ln: int, col: int) -> FormalElement:
        p = self._need_prime(ln, col)
        if text.strip() == "0":
            return FormalElement.zero(p)
        total = FormalElement.zero(p)
        for off, term in _split_top(text, "+"):
            if not term.strip():
                _fail(self.path, ln, col + off, "empty term in element")
            coeff = 1
            exps: dict[str, int] = {}
            pos = off
            for k, factor in enumerate(term.split("*")):
                fpos = col + pos + (len(factor) - len(factor.lstrip()))
                f = factor.strip()
                pos += len(factor) + 1
                if not f:
                    _fail(self.path, ln, fpos, "empty factor in element")
                if _INT.match(f):
                    coeff = coeff * int(f) % p
                    continue
                m = _FACTOR.match(f)
                if not m:
                    _fail(self.path, ln, fpos, f"bad factor {f!r}")
                name, exp = m.group(1), int(m.group(2) or 1)
                exps[name] = exps.get(name, 0) + exp
            exps = {k: v for k, v in exps.items() if v}
            term_el = FormalElement.monomial(p, exps).scale(coeff)
            total = total + term_el
        return total

    def _symbol(self, text: str, ln: int, col: int) -> SymbolTerm:
        p = self._need_prime(ln, col)
        s = text.strip()
        shift = col + len(text) - len(text.lstrip())
        if not (s.startswith("[") and s.endswith(")")):
            _fail(self.path, ln, shift, f"symbol must look like [a, b), got {s!r}")
        inner = s[1:-1]
        if "," not in inner:
            _fail(self.path, ln, shift, "symbol needs two comma-separated slots")
        slot1, slot2 = inner.split(",", 1)
        left = self._element(slot1, ln, shift + 1)
        right = self._element(slot2, ln, shift + 2 + len(slot1))
        try:
            return symbol(p, left, right)
        except EngineError as err:
            _fail(self.path, ln, shift, str(err))

    def _tensor(self, text: str, ln: int, col: int) -> SymbolSum:
        terms = [
            self._symbol(piece, ln, col + off) for off, piece in _split_top(text, "*")
        ]
        return SymbolSum.of(*terms)

    def _sum(self, text: str, ln: int, col: int) -> SymbolSum:
        p = self._need_prime(ln, col)
        if text.strip() == "0":
            return SymbolSum.zero(p)
        terms = [
            self._symbol(piece, ln, col + off) for off, piece in _split_top(text, "+")
        ]
        return SymbolSum.of(*terms)

    # -------------------------------------------------------- directives

    def _need_prime(self, ln: int, col: int) -> int:
        if self.prime is None:
            _fail(self.path, ln, col, "a 'prime' line must come first")
        return self.prime

    def _need_tower(self, ln: int) -> FieldTower:
        if self.tower is None:
            _fail(self.path, ln, 1, "a 'variables' line must come first")
        return self.tower

    def _check_names(self, element: FormalElement, ln: int, col: int, extra=()) -> None:
        tower = self._need_tower(ln)
        bad = element.names() - tower.names() - set(extra)
        if bad:
            _fail(self.path, ln, col, f"unknown names {sorted(bad)}")

    def _int_value(self, rest: str, ln: int, key: str) -> int:
        if not _INT.match(rest.strip()):
            _fail(self.path, ln, 1, f"{key} wants an integer, got {rest.strip()!r}")
        return int(rest.strip())

    def _directive_task(self, rest: str, ln: int, at: int) -> None:
        name = rest.strip()
        if name not in TASKS:
            _fail(self.path, ln, at, f"unknown task {name!r}")
        self.task = name

    def _directive_ground(self, rest: str, ln: int) -> None:
        tokens = rest.split()
        if tokens and tokens[0] == "constants":
            for name in tokens[1:]:
                if not _NAME.match(name):
                    _fail(self.path, ln, 1, f"bad constant name {name!r}")
            self.constants.extend(tokens[1:])
        elif tokens == ["closed"]:
            self.closed = True
        else:
            _fail(self.path, ln, 1, f"bad ground clause {rest.strip()!r}")

    def _directive_variables(self, rest: str, ln: int) -> None:
        if self.variables is not None:
            _fail(self.path, ln, 1, "duplicate 'variables' line")
        names = rest.split()
        for name in names:
            if not _NAME.match(name):
                _fail(self.path, ln, 1, f"bad variable name {name!r}")
        p = self._need_prime(ln, 1)
        self.variables = names
        try:
            self.tower = FieldTower(
                GroundField(p, frozenset(self.constants), self.closed), tuple(names)
            )
        except UnsupportedConfiguration as err:
            _fail(self.path, ln, 1, str(err))

    def _directive_generator(self, rest: str, ln: int, at: int) -> None:
        m = re.match(
            r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(artin-schreier|pth-root)\((.*)\)\s*\Z",
            rest,
        )
        if not m:
            _fail(self.path, ln, 1, "generator wants: name = artin-schreier(...) or pth-root(...)")
        name, kind, body = m.group(1), m.group(2), m.group(3)
        col = at + m.start(3)
        rhs = self._element(body, ln, col)
        self._check_names(rhs, ln, col)
        try:
            self.tower = adjoin(self._need_tower(ln), name, kind, rhs)
        except UnsupportedConfiguration as err:
            _fail(self.path, ln, 1, str(err))

    def _directive_algebra(self, rest: str, ln: int, at: int) -> None:
        m = re.match(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)\Z", rest)
        if not m:
            _fail(self.path, ln, 1, "algebra wants: name = [a, b) * ...")
        name, body = m.group(1), m.group(2)
        if name in self.algebras:
            _fail(self.path, ln, 1, f"duplicate algebra {name!r}")
        col = at + m.start(2)
        word = self._tensor(body, ln, col)
        if not word.terms:
            _fail(self.path, ln, col, "empty algebra")
        for term in word.terms:
            self._check_names(term.slot1, ln, col)
            self._check_names(term.slot2, ln, col)
        self.algebras[name] = word

    def _directive_word(self, rest: str, ln: int) -> None:
        names = rest.split()
        if not names:
            _fail(self.path, ln, 1, "word wants at least one algebra name")
        for name in names:
            if name not in self.algebras:
                _fail(self.path, ln, 1, f"word references unknown algebra {name!r}")
        self.word = tuple(names)

    def _directive_chain(self, rest: str, ln: int) -> None:
        m = re.match(r"\s*on\s+([A-Za-z_][A-Za-z0-9_]*)\s*\Z", rest)
        if not m:
            _fail(self.path, ln, 1, "chain wants: chain on <algebra>")
        name = m.group(1)
        if name not in self.algebras:
            _fail(self.path, ln, 1, f"chain references unknown algebra {name!r}")
        if self.chain_on is not None:
            _fail(self.path, ln, 1, "only one chain per scenario")
        self.chain_on = name
        self.chain_current = self.algebras[name]
        self.in_chain = True

    def _directive_step(self, line: str, ln: int) -> None:
        if not self.in_chain:
            _fail(self.path, ln, 1, "'step' outside a chain block")
        if "->" not in line:
            _fail(self.path, ln, 1, "step wants '-> <sum>'")
        head, after_text = line.split("->", 1)
        tokens = head.split()
        # tokens: step RULE [at N] [witness ...]
        if len(tokens) < 2:
            _fail(self.path, ln, 1, "step wants a rule name")
        rule = tokens[1]
        target = 0
        witness = None
        rest = tokens[2:]
        if rest and rest[0] == "at":
            if len(rest) < 2 or not _INT.match(rest[1]):
                _fail(self.path, ln, 1, "'at' wants an index")
            target = int(rest[1])
            rest = rest[2:]
        if rest and rest[0] == "witness":
            wtext = head.split("witness", 1)[1]
            wcol = line.index("witness") + len("witness") + 1
            witness = self._element(wtext, ln, wcol)
            self._check_names(witness, ln, wcol, extra=("X",))
            rest = []
        if rest:
            _fail(self.path, ln, 1, f"unexpected step tokens {rest}")
        after = self._sum(after_text, ln, line.index("->") + 3)
        try:
            step = RewriteStep(
                rule, self.chain_current, after, target_index=target, witness=witness
            )
        except UnsupportedConfiguration as err:
            _fail(self.path, ln, 1, str(err))
        self.chain_steps.append(step)
        self.chain_current = after

    def _directive_expect(self, rest: str, ln: int, at: int) -> None:
        name = rest.strip()
        if name not in VERDICTS:
            _fail(self.path, ln, at, f"unknown verdict {name!r}")
        self.expect = name

    # ------------------------------------------------------------ driver

    def parse(self) -> Scenario:
        for ln, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if self.version is None:
                if line.split() == ["version", "1"]:
                    self.version = 1
                    continue
                _fail(self.path, ln, 1, "first directive must be 'version 1'")
            stripped = line.strip()
            key = stripped.split(None, 1)[0]
            rest = stripped[len(key):].lstrip()
            # the column of rest[0] in the raw line, so diagnostics count indentation
            at = len(line) - len(rest) + 1
            if self.in_chain and key not in ("step", "end"):
                _fail(self.path, ln, 1, "chain block must close with 'end'")
            if key == "task":
                self._directive_task(rest, ln, at)
            elif key == "prime":
                value = self._int_value(rest, ln, "prime")
                if not is_prime(value):
                    _fail(self.path, ln, at, f"{value} is not prime")
                self.prime = value
            elif key in ("n", "p", "i", "part"):
                self.params[key] = self._int_value(rest, ln, key)
            elif key == "ground":
                self._directive_ground(rest, ln)
            elif key == "variables":
                self._directive_variables(rest, ln)
            elif key == "generator":
                self._directive_generator(rest, ln, at)
            elif key == "algebra":
                self._directive_algebra(rest, ln, at)
            elif key == "word":
                self._directive_word(rest, ln)
            elif key == "hypothesis":
                value = rest.strip()
                if value not in ("division", "split"):
                    _fail(self.path, ln, 1, "hypothesis must be division or split")
                self.hypothesis = value
            elif key == "chain":
                self._directive_chain(rest, ln)
            elif key == "step":
                self._directive_step(line, ln)
            elif key == "end":
                if not self.in_chain:
                    _fail(self.path, ln, 1, "'end' outside a chain block")
                self.in_chain = False
            elif key == "expect":
                self._directive_expect(rest, ln, at)
            else:
                _fail(self.path, ln, 1, f"unknown directive {key!r}")
        if self.in_chain:
            _fail(self.path, len(self.lines), 1, "unterminated chain block")
        if self.task is None:
            _fail(self.path, max(len(self.lines), 1), 1, "scenario has no task")
        chain = None
        if self.chain_on is not None:
            if not self.chain_steps:
                _fail(self.path, len(self.lines), 1, "chain block has no steps")
            chain = RewriteChain(
                self._need_tower(len(self.lines)),
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
