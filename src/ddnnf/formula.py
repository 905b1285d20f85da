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


def _children(g: Formula) -> tuple[Formula, ...]:
    if isinstance(g, (And, Or)):
        return g.children
    if isinstance(g, Not):
        return (g.child,)
    if isinstance(g, Iff):
        return (g.left, g.right)
    if isinstance(g, (Var, Const)):
        return ()
    raise TypeError(f"not a formula: {g!r}")


def _fold(f: Formula, combine, done: dict[int, object] | None = None):
    """Bottom-up value of ``f`` on an explicit stack: ``combine(g, values of
    g's children)`` once per subformula object, memoized by ``id`` in
    ``done``, so shared sub-objects are visited once. Internal nodes are
    combined in post-order, left to right, which fixes the order of any side
    effects (Tseitin gates); leaves, which have none, as soon as their parent
    is reached. A caller that passes ``done`` keeps its objects alive."""
    if done is None:
        done = {}
    stack = [(f, None)]  # (g, None) expands g; (g, its children) combines it
    while stack:
        g, kids = stack.pop()
        if kids is not None:
            done[id(g)] = combine(g, [done[id(c)] for c in kids])
            continue
        if id(g) in done:
            continue
        kids = _children(g)
        stack.append((g, kids))
        for c in reversed(kids):
            key = id(c)
            if key in done:
                continue
            if isinstance(c, (Var, Const)):
                done[key] = combine(c, ())
            else:
                stack.append((c, None))
    return done[id(f)]


# ---------------------------------------------------------------------------
# Parsing and printing


class ParseError(ToolkitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# Blanks, a comment, a newline, or a token (group 1).
_TOKEN_RE = re.compile(r"[ \t\r]+|#[^\n]*|\n|(<=>|[()&|!]|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", line, i - line_start + 1)
        if m.group(1):
            tokens.append((m.group(1), line, i - line_start + 1))
        elif m.group() == "\n":
            line, line_start = line + 1, i + 1
        i = m.end()
    return tokens


def parse_formula(text: str) -> Formula:
    """Parse a formula from text. Raises ParseError with line/column info.

    One precedence-climbing loop: ``ands`` and ``ors`` hold the operands of
    the open ``&`` and ``|`` chains, ``iff`` the left side of an open
    ``<=>`` and ``nots`` the count of pending ``!``. Each ``(`` saves these
    on ``outer`` and its ``)`` restores them.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1, 1)
    # End of input, reported at the last token.
    tokens.append((None, *tokens[-1][1:]))
    outer: list[tuple] = []
    iff, ors, ands, nots = None, [], [], 0
    pos = 0
    while True:
        # An operand is due: "!" and "(" prefixes, then an atom.
        tok = tokens[pos][0]
        if tok == "!":
            nots += 1
            pos += 1
            continue
        if tok == "(":
            outer.append((iff, ors, ands, nots))
            iff, ors, ands, nots = None, [], [], 0
            pos += 1
            continue
        if tok is None:
            raise ParseError("unexpected end of input", *tokens[pos][1:])
        if tok in ("true", "false"):
            f = TRUE if tok == "true" else FALSE
        elif _NAME_RE.match(tok):
            f = Var(tok)
        else:
            raise ParseError(f"unexpected token {tok!r}", *tokens[pos][1:])
        pos += 1
        # An operand is complete: close the chains the next token ends.
        while True:
            for _ in range(nots):
                f = Not(f)
            nots = 0
            ands.append(f)
            tok = tokens[pos][0]
            if tok == "&":
                break
            ors.append(conj(ands))
            ands = []
            if tok == "|":
                break
            g = disj(ors)
            ors = []
            iff = g if iff is None else Iff(iff, g)
            if tok == "<=>":
                break
            f = iff
            if not outer:
                if tok is not None:
                    raise ParseError(f"trailing input {tok!r}", *tokens[pos][1:])
                return f
            if tok != ")":
                raise ParseError("expected ')'", *tokens[pos][1:])
            pos += 1
            iff, ors, ands, nots = outer.pop()
        pos += 1


# Precedence levels used by the printer; a child is parenthesized when its
# level is below the minimum its context requires.
_LEVEL_IFF, _LEVEL_OR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = 0, 1, 2, 3, 4


def format_formula(f: Formula) -> str:
    """Render ``f`` so that parse_formula(format_formula(f)) == f."""
    return _fold(f, _format_node)[0]


def _wrap(kid: tuple[str, int], min_level: int) -> str:
    text, level = kid
    return "(" + text + ")" if level < min_level else text


def _format_node(g: Formula, kids: list[tuple[str, int]]) -> tuple[str, int]:
    """Text of ``g`` and its precedence level, from its children's."""
    if isinstance(g, Var):
        return g.name, _LEVEL_ATOM
    if isinstance(g, Const):
        return ("true" if g.value else "false"), _LEVEL_ATOM
    if isinstance(g, Not):
        return "!" + _wrap(kids[0], _LEVEL_NOT), _LEVEL_NOT
    if isinstance(g, And):
        return " & ".join(_wrap(k, _LEVEL_NOT) for k in kids), _LEVEL_AND
    if isinstance(g, Or):
        return " | ".join(_wrap(k, _LEVEL_AND) for k in kids), _LEVEL_OR
    return _wrap(kids[0], _LEVEL_IFF) + " <=> " + _wrap(kids[1], _LEVEL_OR), _LEVEL_IFF


# ---------------------------------------------------------------------------
# Rewriting


def nnf_rewrite(f: Formula) -> Formula:
    """Equivalent formula with negation pushed to variables and Iff expanded
    as (l & r) | (!l & !r)."""
    return _fold(f, _nnf_pair)[0]


def _nnf_pair(g: Formula, kids: list[tuple[Formula, Formula]]) -> tuple[Formula, Formula]:
    """NNF of ``g`` and of ``!g``, from its children's pairs. The NNF of a
    negated Iff is the negation of its expansion, (!l | !r) & (l | r), so
    each side of an Iff is built once and shared by both results."""
    if isinstance(g, Var):
        return g, Not(g)
    if isinstance(g, Const):
        return Const(bool(g.value)), Const(not g.value)
    if isinstance(g, Not):
        return kids[0][1], kids[0][0]
    pos = tuple(p for p, _ in kids)
    neg = tuple(n for _, n in kids)
    if isinstance(g, And):
        return And(pos), Or(neg)
    if isinstance(g, Or):
        return Or(pos), And(neg)
    (lp, ln), (rp, rn) = kids
    return Or((And((lp, rp)), And((ln, rn)))), And((Or((ln, rn)), Or((lp, rp))))


def const_fold(f: Formula) -> Formula:
    """Absorb ``true``/``false`` so no constant remains below the root."""
    return _fold(f, _const_node)


def _negate(g: Formula) -> Formula:
    return Const(not g.value) if isinstance(g, Const) else Not(g)


def _const_node(g: Formula, kids: list[Formula]) -> Formula:
    """``g`` with constants absorbed, from its children already folded."""
    if isinstance(g, (Var, Const)):
        return g
    if isinstance(g, Not):
        return _negate(kids[0])
    if isinstance(g, (And, Or)):
        absorbing = isinstance(g, Or)
        kept = []
        for c in kids:
            if not isinstance(c, Const):
                kept.append(c)
            elif bool(c.value) == absorbing:
                return TRUE if absorbing else FALSE
        return disj(kept) if absorbing else conj(kept)
    left, right = kids
    if isinstance(left, Const):
        return right if left.value else _negate(right)
    if isinstance(right, Const):
        return left if right.value else _negate(left)
    return Iff(left, right)


# ---------------------------------------------------------------------------
# Tseitin encoding


@dataclass
class TseitinOutput:
    """CNF encoding of a formula plus the bookkeeping needed to undo it."""

    cnf: CnfInstance
    var_map: dict[str, int]
    tseitin_vars: frozenset[int]

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
    # The gate cache: NNF nodes are interned by structure into ids, from the
    # literal code of a literal and (is_and, child ids) of a gate, and
    # ``value[id]`` is the literal or constant the node encodes to (a gate
    # whose body simplifies away is a constant). Equal subformulas therefore
    # share a gate.
    ids: dict[object, int] = {}
    value: list[int | Const] = []

    def lit_code(g: Formula) -> int | None:
        if isinstance(g, Var):
            return index[g.name]
        if isinstance(g, Not) and isinstance(g.child, Var):
            return -index[g.child.name]
        return None

    def simplify(lits: list[int | Const], is_and: bool) -> list[int] | Const:
        # Resolve constants and complementary literals inside one gate body,
        # so every emitted gate is a clean equivalence over distinct literals.
        absorbing = FALSE if is_and else TRUE
        kept: dict[int, None] = {}
        for l in lits:
            if isinstance(l, Const):
                if l.value == absorbing.value:
                    return absorbing
            elif -l in kept:
                return absorbing
            else:
                kept[l] = None
        return list(kept) or (TRUE if is_and else FALSE)

    def emit_gate(head: int, body: list[int], is_and: bool) -> None:
        # An Or gate is the And gate of the negated head over negated literals.
        sign = 1 if is_and else -1
        clauses.extend((-sign * head, sign * b) for b in body)
        clauses.append((sign * head, *[-sign * b for b in body]))

    def intern(g: Formula, kids: list[int]) -> int:
        """Interned id of NNF node ``g``, creating its gate on first sight."""
        if isinstance(g, Var):
            key: object = index[g.name]
        elif isinstance(g, Not):
            key = -value[kids[0]]
        else:
            key = (isinstance(g, And), *kids)
        i = ids.get(key)
        if i is not None:
            return i
        if isinstance(g, (And, Or)):
            is_and = isinstance(g, And)
            body = simplify([value[k] for k in kids], is_and)
            if isinstance(body, Const):
                v: int | Const = body
            elif len(body) == 1:
                v = body[0]
            else:
                v = len(names) + len(tseitin) + 1
                tseitin.append(v)
                emit_gate(v, body, is_and)
        else:
            v = key
        ids[key] = len(value)
        value.append(v)
        return ids[key]

    def gate_body(g: Formula) -> list[int] | Const:
        """The simplified literals of And/Or node ``g``'s children."""
        done: dict[int, object] = {}
        return simplify([value[_fold(c, intern, done)] for c in g.children],
                        isinstance(g, And))

    # Assert the top-level conjuncts, leftmost first.
    stack = [folded]
    while stack:
        g = stack.pop()
        if isinstance(g, Const):  # only the root can be one after folding
            if not g.value:
                clauses.append(())
            continue
        if isinstance(g, And):
            stack.extend(reversed(g.children))
            continue
        if isinstance(g, Iff):
            # `literal <=> body`: the literal is the gate head.
            h, body = lit_code(g.left), g.right
            if h is None:
                h, body = lit_code(g.right), g.left
            if h is not None:
                body = nnf_rewrite(body)
                b = lit_code(body)
                lits = [b] if b is not None else gate_body(body)
                if isinstance(lits, Const):
                    clauses.append((h,) if lits.value else (-h,))
                elif len(lits) == 1:
                    clauses.append((-h, lits[0]))
                    clauses.append((h, -lits[0]))
                else:
                    emit_gate(h, lits, isinstance(body, And))
                continue
        g = nnf_rewrite(g)
        lit = lit_code(g)
        if lit is not None:
            clauses.append((lit,))
        elif isinstance(g, And):
            stack.extend(reversed(g.children))
        elif isinstance(g, Or):
            lits = gate_body(g)
            if isinstance(lits, Const):
                if not lits.value:
                    clauses.append(())
            else:
                clauses.append(tuple(lits))
        else:
            raise TypeError(f"unexpected node after NNF: {g!r}")

    cnf = CnfInstance.from_raw(len(names) + len(tseitin), clauses, tseitin_vars=tseitin)
    return TseitinOutput(cnf, index, frozenset(tseitin))


# ---------------------------------------------------------------------------
# Variable map sidecar (.map file: one "name index" pair per line)


def format_var_map(var_map: dict[str, int]) -> str:
    lines = [f"{name} {idx}" for name, idx in sorted(var_map.items(), key=lambda kv: kv[1])]
    return "\n".join(lines) + ("\n" if lines else "")

