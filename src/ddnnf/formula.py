"""Propositional formulas: AST, text format, NNF rewriting, Tseitin encoding.

The text grammar (one formula per file, ``#`` starts a line comment):

    formula := iff
    iff     := or ("<=>" or)*
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | atom
    atom    := IDENT | "true" | "false" | "(" formula ")"

``<=>`` associates to the left; ``&`` and ``|`` chains are collected into
n-ary nodes. Operator precedence is ``!`` > ``&`` > ``|`` > ``<=>``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cnf import CnfInstance
from .errors import ToolkitError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_RESERVED = {"true", "false"}


class Formula:
    """Base class for formula nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name) or self.name in _RESERVED:
            raise ValueError(f"bad variable name: {self.name!r}")


@dataclass(frozen=True, slots=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("And needs at least 2 children")


@dataclass(frozen=True, slots=True)
class Or(Formula):
    children: tuple[Formula, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ValueError("Or needs at least 2 children")


@dataclass(frozen=True, slots=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


def conj(children) -> Formula:
    """N-ary conjunction that collapses the 0- and 1-child cases."""
    cs = tuple(children)
    if not cs:
        return TRUE
    if len(cs) == 1:
        return cs[0]
    return And(cs)


def disj(children) -> Formula:
    """N-ary disjunction that collapses the 0- and 1-child cases."""
    cs = tuple(children)
    if not cs:
        return FALSE
    if len(cs) == 1:
        return cs[0]
    return Or(cs)


def vars_of(f: Formula) -> set[str]:
    """All variable names mentioned in ``f``."""
    return set(_collect_names(f))


def _collect_names(f: Formula) -> list[str]:
    """The variable names of ``f`` in order of first occurrence, reading
    the formula left to right."""
    seen: dict[str, None] = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            seen.setdefault(g.name)
        elif isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, (And, Or)):
            stack.extend(reversed(g.children))
        elif isinstance(g, Iff):
            stack.append(g.right)
            stack.append(g.left)
    return list(seen)


# ---------------------------------------------------------------------------
# Parsing and printing


class ParseError(ToolkitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"<=>|[()&|!]|[A-Za-z_][A-Za-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append((m.group(), line, col))
        col += m.end() - i
        i = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
        elif self.tokens:
            _, line, col = self.tokens[-1]
        else:
            line, col = 1, 1
        return ParseError(message, line, col)

    def formula(self) -> Formula:
        f = self.disjunction()
        while self.peek() == "<=>":
            self.next()
            f = Iff(f, self.disjunction())
        return f

    def disjunction(self) -> Formula:
        parts = [self.conjunction()]
        while self.peek() == "|":
            self.next()
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == "&":
            self.next()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        if self.peek() == "!":
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input")
        if tok == "(":
            self.next()
            f = self.formula()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.next()
            return f
        if tok == "true":
            self.next()
            return TRUE
        if tok == "false":
            self.next()
            return FALSE
        if _NAME_RE.match(tok):
            self.next()
            return Var(tok)
        raise self.error(f"unexpected token {tok!r}")


def parse_formula(text: str) -> Formula:
    """Parse a formula from text. Raises ParseError with line/column info."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    parser = _Parser(tokens)
    f = parser.formula()
    if parser.peek() is not None:
        raise parser.error(f"trailing input {parser.peek()!r}")
    return f


# Precedence levels used by the printer; a child is parenthesized when its
# level is below the minimum its context requires.
_LEVEL_IFF, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 0, 1, 2, 3, 4


def format_formula(f: Formula) -> str:
    """Render ``f`` so that parse_formula(format_formula(f)) == f."""
    return _fmt(f, _LEVEL_IFF)


def _fmt(f: Formula, min_level: int) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        text, level = "!" + _fmt(f.child, _LEVEL_NOT), _LEVEL_NOT
    elif isinstance(f, And):
        text, level = " & ".join(_fmt(c, _LEVEL_NOT) for c in f.children), _LEVEL_AND
    elif isinstance(f, Or):
        text, level = " | ".join(_fmt(c, _LEVEL_AND) for c in f.children), _LEVEL_OR
    elif isinstance(f, Iff):
        text = _fmt(f.left, _LEVEL_IFF) + " <=> " + _fmt(f.right, _LEVEL_OR)
        level = _LEVEL_IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    return "(" + text + ")" if level < min_level else text


# ---------------------------------------------------------------------------
# Rewriting


def nnf_rewrite(f: Formula) -> Formula:
    """Equivalent formula with negation pushed to variables and Iff expanded
    as (l & r) | (!l & !r)."""
    return _nnf(f, positive=True)


def _nnf(f: Formula, positive: bool) -> Formula:
    if isinstance(f, Var):
        return f if positive else Not(f)
    if isinstance(f, Const):
        return Const(f.value == positive)
    if isinstance(f, Not):
        return _nnf(f.child, not positive)
    if isinstance(f, And):
        parts = tuple(_nnf(c, positive) for c in f.children)
        return And(parts) if positive else Or(parts)
    if isinstance(f, Or):
        parts = tuple(_nnf(c, positive) for c in f.children)
        return Or(parts) if positive else And(parts)
    if isinstance(f, Iff):
        both = And((_nnf(f.left, True), _nnf(f.right, True)))
        neither = And((_nnf(f.left, False), _nnf(f.right, False)))
        expanded = Or((both, neither))
        return expanded if positive else _nnf(expanded, False)
    raise TypeError(f"not a formula: {f!r}")


def const_fold(f: Formula) -> Formula:
    """Absorb ``true``/``false`` so no constant remains below the root."""
    if isinstance(f, (Var, Const)):
        return f
    if isinstance(f, Not):
        child = const_fold(f.child)
        if isinstance(child, Const):
            return Const(not child.value)
        return Not(child)
    if isinstance(f, And):
        kept = []
        for c in map(const_fold, f.children):
            if isinstance(c, Const):
                if not c.value:
                    return FALSE
            else:
                kept.append(c)
        return conj(kept)
    if isinstance(f, Or):
        kept = []
        for c in map(const_fold, f.children):
            if isinstance(c, Const):
                if c.value:
                    return TRUE
            else:
                kept.append(c)
        return disj(kept)
    if isinstance(f, Iff):
        left, right = const_fold(f.left), const_fold(f.right)
        if isinstance(left, Const):
            return right if left.value else const_fold(Not(right))
        if isinstance(right, Const):
            return left if right.value else const_fold(Not(left))
        return Iff(left, right)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Tseitin encoding


@dataclass
class TseitinOutput:
    """CNF encoding of a formula plus the bookkeeping needed to undo it."""

    cnf: CnfInstance
    var_map: dict[str, int]
    tseitin_vars: frozenset[int]
    original_vars: frozenset[int]

    def names(self) -> dict[int, str]:
        """Inverse of var_map (index -> variable name)."""
        return {i: n for n, i in self.var_map.items()}


def tseitin_transform(f: Formula) -> TseitinOutput:
    """Encode ``f`` as an equisatisfiable CNF.

    One auxiliary variable is introduced per distinct internal And/Or node,
    except that the asserted top-level structure is inlined: conjuncts at the
    root are asserted directly, a root disjunction becomes a single clause
    over its children's gate literals, and a top-level conjunct of the form
    ``literal <=> body`` reuses the literal as the gate head instead of
    expanding the equivalence. Auxiliary variables get the highest indices.
    """
    # Numbered over the *input* formula, so variables that constant folding
    # removes still count toward the CNF universe.
    names = _collect_names(f)
    index = {name: i + 1 for i, name in enumerate(names)}
    folded = const_fold(f)

    clauses: list[tuple[int, ...]] = []
    tseitin: list[int] = []
    gate_of: dict[Formula, int | Const] = {}
    counter = [len(names)]

    def lit_code(g: Formula) -> int:
        if isinstance(g, Var):
            return index[g.name]
        if isinstance(g, Not) and isinstance(g.child, Var):
            return -index[g.child.name]
        raise TypeError(f"not a literal: {g!r}")

    def is_literal(g: Formula) -> bool:
        return isinstance(g, Var) or (isinstance(g, Not) and isinstance(g.child, Var))

    def simplify(lits: list[int | Const], is_and: bool) -> list[int] | Const:
        # Resolve constants and complementary literals inside one gate body,
        # so every emitted gate is a clean equivalence over distinct literals.
        absorbing, neutral = (FALSE, TRUE) if is_and else (TRUE, FALSE)
        kept: list[int] = []
        seen: set[int] = set()
        for l in lits:
            if isinstance(l, Const):
                if l == absorbing:
                    return absorbing
                continue
            if -l in seen:
                return absorbing
            if l not in seen:
                seen.add(l)
                kept.append(l)
        if not kept:
            return neutral
        return kept

    def emit_gate(head: int, body: list[int], is_and: bool) -> None:
        if is_and:
            for b in body:
                clauses.append((-head, b))
            clauses.append((head, *[-b for b in body]))
        else:
            for b in body:
                clauses.append((head, -b))
            clauses.append((-head, *body))

    def encode(g: Formula) -> int | Const:
        """Return a literal equivalent to NNF node ``g``, creating gates."""
        if is_literal(g):
            return lit_code(g)
        if isinstance(g, Const):
            return g
        cached = gate_of.get(g)
        if cached is not None:
            return cached
        assert isinstance(g, (And, Or))
        is_and = isinstance(g, And)
        body = simplify([encode(c) for c in g.children], is_and)
        if isinstance(body, Const):
            result: int | Const = body
        elif len(body) == 1:
            result = body[0]
        else:
            counter[0] += 1
            aux = counter[0]
            tseitin.append(aux)
            emit_gate(aux, body, is_and)
            result = aux
        gate_of[g] = result
        return result

    def assert_head_equiv(head: int, body: Formula) -> None:
        body_nnf = nnf_rewrite(body)
        if is_literal(body_nnf):
            b = lit_code(body_nnf)
            clauses.append(tuple(sorted({-head, b})))
            clauses.append(tuple(sorted({head, -b})))
            return
        assert isinstance(body_nnf, (And, Or))
        is_and = isinstance(body_nnf, And)
        lits = simplify([encode(c) for c in body_nnf.children], is_and)
        if isinstance(lits, Const):
            clauses.append((head,) if lits.value else (-head,))
        elif len(lits) == 1:
            clauses.append((-head, lits[0]))
            clauses.append((head, -lits[0]))
        else:
            emit_gate(head, lits, is_and)

    def assert_spine(g: Formula) -> None:
        """Assert ``g`` as a top-level conjunct."""
        if isinstance(g, And):
            for c in g.children:
                assert_spine(c)
            return
        if isinstance(g, Iff):
            if is_literal(g.left):
                assert_head_equiv(lit_code(g.left), g.right)
                return
            if is_literal(g.right):
                assert_head_equiv(lit_code(g.right), g.left)
                return
            g = nnf_rewrite(g)
            assert_spine(g)
            return
        g = nnf_rewrite(g)
        if is_literal(g):
            clauses.append((lit_code(g),))
        elif isinstance(g, And):
            for c in g.children:
                assert_spine(c)
        elif isinstance(g, Or):
            lits = simplify([encode(c) for c in g.children], is_and=False)
            if isinstance(lits, Const):
                if not lits.value:
                    clauses.append(())
            else:
                clauses.append(tuple(lits))
        else:
            raise TypeError(f"unexpected node after NNF: {g!r}")

    if isinstance(folded, Const):
        if not folded.value:
            clauses.append(())
    else:
        assert_spine(folded)

    num_vars = len(names) + len(tseitin)
    cnf = CnfInstance.from_raw(num_vars, clauses, tseitin_vars=tseitin)
    return TseitinOutput(
        cnf=cnf,
        var_map=index,
        tseitin_vars=frozenset(tseitin),
        original_vars=frozenset(index.values()),
    )


# ---------------------------------------------------------------------------
# Variable map sidecar (.map file: one "name index" pair per line)


def format_var_map(var_map: dict[str, int]) -> str:
    lines = [f"{name} {idx}" for name, idx in sorted(var_map.items(), key=lambda kv: kv[1])]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_var_map(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, idx = line.split()
        out[name] = int(idx)
    return out
