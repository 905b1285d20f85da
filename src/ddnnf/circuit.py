"""d-DNNF circuits: a deduplicated DAG arena, the binary-node size metric,
structural property checks, and c2d-style NNF serialization."""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import or_
from typing import NamedTuple

TRUE, FALSE, LIT, AND, OR = "T", "F", "L", "A", "O"

# Maps the digits of bin() to the bytes 0 and 1, so that compress() can
# select by them.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def mask_bits(mask: int) -> bytes:
    """Byte j is 1 iff bit j of ``mask`` is set: a selector for
    ``itertools.compress`` over a sequence indexed by variable."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def reached_from(root: int, children, stop=frozenset()) -> set[int]:
    """The ids reached from ``root`` through no node of ``stop`` above them.
    ``children(i)`` gives the ids below node i, which are all smaller than
    i, so one downward sweep finds them all."""
    reached = {root}
    for nid in range(root, -1, -1):
        if nid in reached and nid not in stop:
            reached.update(children(nid))
    return reached


def mask_of(variables) -> int:
    """The bitmask with bit v set for each variable v. It is read from one
    string of binary digits: ``mask |= 1 << v`` would copy the whole mask
    per variable, which is quadratic in the highest variable."""
    variables = tuple(variables)
    if min(variables, default=0) < 0:
        raise ValueError("negative variable")
    digits = bytearray(b"0") * (max(variables, default=0) + 1)
    for v in variables:
        digits[v] = 49  # b"1"
    digits.reverse()
    return int(digits, 2)


class Node(NamedTuple):
    """One arena node. A tuple: building one skips a dataclass ``__init__``,
    which matters because parsing and pruning build one per line or node."""

    kind: str
    lit: int = 0
    children: tuple[int, ...] = ()
    decision: int = 0
    mask: int = 0  # bit v is set iff the node mentions variable v

    @property
    def varset(self) -> frozenset[int]:
        """The variables the node mentions."""
        return frozenset(compress(count(), mask_bits(self.mask)))


_TRUE_KEY, _FALSE_KEY = (TRUE,), (FALSE,)
_TRUE_NODE, _FALSE_NODE = Node(TRUE), Node(FALSE)


class Circuit:
    """Single-rooted DAG of AND/OR/literal/constant nodes.

    Nodes live in an arena in topological order (children precede parents)
    and are structurally deduplicated: adding an AND/OR with the same child
    multiset, or the same literal, returns the existing id. The arena never
    simplifies; constant propagation belongs to the pruning pass.
    """

    def __init__(self, universe, tseitin_vars=()):
        self.universe = frozenset(universe)
        self.tseitin_vars = frozenset(tseitin_vars)
        if not self.tseitin_vars <= self.universe:
            raise ValueError("tseitin_vars outside declared universe")
        self.root: int | None = None
        self._reachable: tuple[int | None, tuple[int, ...]] = (None, ())  # root, ids
        self._nodes: list[Node] = []
        # node(nid) is the Node with that id: the list's own lookup, the
        # cheapest call, since every pass over the circuit makes it per node.
        self.node = self._nodes.__getitem__
        self._dedup: dict[tuple, int] = {}
        # ANDs whose children share a variable, ascending: check_decomposable
        # looks only at these.
        self._overlapping_ands: list[int] = []

    def __len__(self) -> int:
        return len(self._nodes)

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
        return self._append(key, Node(LIT, lit=lit, mask=1 << var))

    def _add_internal(self, kind: str, children, decision: int = 0) -> int:
        kids = tuple(sorted(children))
        if not kids:
            raise ValueError(f"{kind} node needs children")
        key = (kind, kids)
        nid = self._dedup.get(key)
        if nid is not None:
            return nid
        nodes = self._nodes
        nid = len(nodes)
        if kids[0] < 0 or kids[-1] >= nid:
            bad = next(c for c in kids if not 0 <= c < nid)
            raise ValueError(f"unknown child id {bad}")
        masks = [nodes[c].mask for c in kids]
        mask = reduce(or_, masks)
        nodes.append(Node(kind, 0, kids, decision, mask))
        self._dedup[key] = nid
        # The masks of pairwise disjoint children add up to their union.
        if kind == AND and sum(masks) != mask:
            self._overlapping_ands.append(nid)
        return nid

    def add_and(self, children) -> int:
        return self._add_internal(AND, children)

    def add_or(self, children, decision: int = 0) -> int:
        return self._add_internal(OR, children, decision)

    def set_root(self, nid: int) -> None:
        if not 0 <= nid < len(self._nodes):
            raise ValueError(f"unknown node id {nid}")
        self.root = nid

    def reachable(self) -> tuple[int, ...]:
        """Ids reachable from the root, ascending (= topological order).

        Nodes never change and the arena only grows, so the result is kept
        for as long as the root stays the same.
        """
        root = self.root
        if self._reachable[0] != root:
            nodes = self._nodes
            reached = reached_from(root, lambda nid: nodes[nid].children)
            self._reachable = (root, tuple(sorted(reached)))
        return self._reachable[1]

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
    return sum(len(node.children) - 1 for node in map(circuit.node, circuit.reachable())
               if node.children)


def stats_line(circuit: Circuit) -> str:
    reach = circuit.reachable()
    edges = sum(len(circuit.node(n).children) for n in reach)
    return (
        f"size={size(circuit)} nodes={len(reach)} edges={edges} "
        f"vars={len(circuit.universe)} tseitin={len(circuit.tseitin_vars)}"
    )


def check_decomposable(circuit: Circuit) -> tuple[bool, int | None]:
    """True iff every AND's children mention pairwise-disjoint variables.
    Returns the first violating node id otherwise. The arena records such
    ANDs as it adds them, so this only looks for a reachable one."""
    if circuit._overlapping_ands:
        reach = set(circuit.reachable())
        for nid in circuit._overlapping_ands:
            if nid in reach:
                return False, nid
    return True, None


def check_smooth(circuit: Circuit) -> bool:
    """True iff every OR's children mention identical variable sets."""
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == OR:
            first = circuit.node(node.children[0]).mask
            if any(circuit.node(c).mask != first for c in node.children[1:]):
                return False
    return True


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
