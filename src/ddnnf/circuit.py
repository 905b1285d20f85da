"""d-DNNF circuits: a deduplicated DAG arena, the binary-node size metric,
structural property checks, and c2d-style NNF serialization."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import OracleBoundError

TRUE, FALSE, LIT, AND, OR = "T", "F", "L", "A", "O"

ORACLE_ENV = "DDNNF_ORACLE_MAX_VARS"


def _env_bound(default: int) -> int:
    raw = os.environ.get(ORACLE_ENV)
    return int(raw) if raw else default


@dataclass(frozen=True, slots=True)
class Node:
    kind: str
    lit: int = 0
    children: tuple[int, ...] = ()
    decision: int = 0
    varset: frozenset[int] = frozenset()


_TRUE_KEY, _FALSE_KEY = (TRUE,), (FALSE,)
_TRUE_NODE, _FALSE_NODE = Node(TRUE), Node(FALSE)


class Circuit:
    """Single-rooted DAG of AND/OR/literal/constant nodes.

    Nodes live in an arena in topological order (children precede parents)
    and are structurally deduplicated: adding an AND/OR with the same child
    multiset, or the same literal, returns the existing id. The arena never
    simplifies; constant propagation belongs to the pruning pass.
    """

    def __init__(self, universe, tseitin_vars=(), determinism_verified=False):
        self.universe = frozenset(universe)
        self.tseitin_vars = frozenset(tseitin_vars)
        if not self.tseitin_vars <= self.universe:
            raise ValueError("tseitin_vars outside declared universe")
        self.determinism_verified = determinism_verified
        self.root: int | None = None
        self._nodes: list[Node] = []
        self._dedup: dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, nid: int) -> Node:
        return self._nodes[nid]

    def _append(self, key: tuple, node: Node) -> int:
        nid = len(self._nodes)
        self._nodes.append(node)
        self._dedup[key] = nid
        return nid

    # Every lookup comes before any Node is built: most calls find the node.

    def add_true(self) -> int:
        nid = self._dedup.get(_TRUE_KEY)
        return self._append(_TRUE_KEY, _TRUE_NODE) if nid is None else nid

    def add_false(self) -> int:
        nid = self._dedup.get(_FALSE_KEY)
        return self._append(_FALSE_KEY, _FALSE_NODE) if nid is None else nid

    def add_literal(self, lit: int) -> int:
        key = (LIT, lit)
        nid = self._dedup.get(key)
        if nid is not None:
            return nid
        var = abs(lit)
        if lit == 0 or var not in self.universe:
            raise ValueError(f"literal {lit} outside universe")
        return self._append(key, Node(LIT, lit=lit, varset=frozenset((var,))))

    def _add_internal(self, kind: str, children, decision: int = 0) -> int:
        kids = tuple(sorted(children))
        if not kids:
            raise ValueError(f"{kind} node needs children")
        key = (kind, kids)
        nid = self._dedup.get(key)
        if nid is not None:
            return nid
        if kids[0] < 0 or kids[-1] >= len(self._nodes):
            bad = next(c for c in kids if not 0 <= c < len(self._nodes))
            raise ValueError(f"unknown child id {bad}")
        varset = frozenset().union(*(self._nodes[c].varset for c in kids))
        return self._append(key, Node(kind, children=kids, decision=decision, varset=varset))

    def add_and(self, children) -> int:
        return self._add_internal(AND, children)

    def add_or(self, children, decision: int = 0) -> int:
        return self._add_internal(OR, children, decision)

    def set_root(self, nid: int) -> None:
        if not 0 <= nid < len(self._nodes):
            raise ValueError(f"unknown node id {nid}")
        self.root = nid

    def reachable(self) -> list[int]:
        """Ids reachable from the root, ascending (= topological order)."""
        if self.root is None:
            return []
        seen = {self.root}
        stack = [self.root]
        while stack:
            for c in self._nodes[stack.pop()].children:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return sorted(seen)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if (
            self.universe != other.universe
            or self.tseitin_vars != other.tseitin_vars
            or (self.root is None) != (other.root is None)
        ):
            return False
        if self.root is None:
            return True
        return write_nnf(self) == write_nnf(other)

    __hash__ = None


# ---------------------------------------------------------------------------
# Metrics and checks


def size(circuit: Circuit) -> int:
    """Number of binary operations: an internal node with k inputs counts
    as k - 1. Literals and constants count as zero."""
    total = 0
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind in (AND, OR):
            total += max(len(node.children) - 1, 0)
    return total


def stats_line(circuit: Circuit) -> str:
    reach = circuit.reachable()
    edges = sum(len(circuit.node(n).children) for n in reach)
    return (
        f"size={size(circuit)} nodes={len(reach)} edges={edges} "
        f"vars={len(circuit.universe)} tseitin={len(circuit.tseitin_vars)}"
    )


def check_decomposable(circuit: Circuit) -> tuple[bool, int | None]:
    """True iff every AND's children mention pairwise-disjoint variables.
    Returns the first violating node id otherwise."""
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == AND:
            total = sum(len(circuit.node(c).varset) for c in node.children)
            if total != len(node.varset):
                return False, nid
    return True, None


def check_smooth(circuit: Circuit) -> bool:
    """True iff every OR's children mention identical variable sets."""
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == OR:
            first = circuit.node(node.children[0]).varset
            if any(circuit.node(c).varset != first for c in node.children[1:]):
                return False
    return True


def check_deterministic_oracle(circuit: Circuit, max_vars: int | None = None) -> bool:
    """Brute-force determinism check: no two children of any OR share a
    model. Only usable on small universes (default bound 16, overridable via
    DDNNF_ORACLE_MAX_VARS)."""
    bound = max_vars if max_vars is not None else _env_bound(16)
    order = sorted(circuit.universe)
    if len(order) > bound:
        raise OracleBoundError(
            f"universe of {len(order)} variables exceeds oracle bound {bound}"
        )
    tables = _truth_tables(circuit, order)
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == OR:
            kids = node.children
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    if tables[kids[i]] & tables[kids[j]]:
                        return False
    circuit.determinism_verified = True
    return True


def _truth_tables(circuit: Circuit, order: list[int]) -> dict[int, int]:
    # Whole truth table per node as a 2^n-bit integer; assignment i sets
    # variable order[j] true iff bit j of i is set.
    n = len(order)
    nbits = 1 << n
    full = (1 << nbits) - 1
    var_masks = {}
    for j, v in enumerate(order):
        block = 1 << j
        mask = ((1 << block) - 1) << block
        width = block << 1
        while width < nbits:
            mask |= mask << width
            width <<= 1
        var_masks[v] = mask
    tables: dict[int, int] = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == TRUE:
            tables[nid] = full
        elif node.kind == FALSE:
            tables[nid] = 0
        elif node.kind == LIT:
            mask = var_masks[abs(node.lit)]
            tables[nid] = mask if node.lit > 0 else full ^ mask
        elif node.kind == AND:
            acc = full
            for c in node.children:
                acc &= tables[c]
            tables[nid] = acc
        else:
            acc = 0
            for c in node.children:
                acc |= tables[c]
            tables[nid] = acc
    return tables


# ---------------------------------------------------------------------------
# c2d NNF serialization

# Node lines follow the c2d conventions: `L <lit>`, `A <c> <ids...>`,
# `O <j> <c> <ids...>` with `A 0` for true and `O 0 0` for false; nodes are
# 0-indexed in topological order and the last node is the root. Universe and
# designated-variable information that the header cannot carry is written as
# comment directives so that circuits round-trip exactly.


def write_nnf(circuit: Circuit) -> str:
    if circuit.root is None:
        raise ValueError("circuit has no root")
    reach = circuit.reachable()
    position = {nid: i for i, nid in enumerate(reach)}
    num_vars = max(circuit.universe, default=0)
    edges = sum(len(circuit.node(n).children) for n in reach)
    lines = [f"nnf {len(reach)} {edges} {num_vars}"]
    if circuit.universe != frozenset(range(1, num_vars + 1)):
        lines.append("c universe " + " ".join(str(v) for v in sorted(circuit.universe)))
    if circuit.tseitin_vars:
        lines.append("c tseitin " + " ".join(str(v) for v in sorted(circuit.tseitin_vars)))
    for nid in reach:
        node = circuit.node(nid)
        if node.kind == TRUE:
            lines.append("A 0")
        elif node.kind == FALSE:
            lines.append("O 0 0")
        elif node.kind == LIT:
            lines.append(f"L {node.lit}")
        elif node.kind == AND:
            ids = " ".join(str(position[c]) for c in node.children)
            lines.append(f"A {len(node.children)} {ids}")
        else:
            ids = " ".join(str(position[c]) for c in node.children)
            lines.append(f"O {node.decision} {len(node.children)} {ids}")
    return "\n".join(lines) + "\n"
