"""d-DNNF circuits: a deduplicated DAG arena that admits only decomposable
ANDs, the binary-node size metric, and the c2d and d4 text formats: c2d
written and read, d4 read."""

from __future__ import annotations

import re
import warnings
from collections.abc import Generator
from functools import reduce
from operator import or_

from .errors import ToolkitError

LIT, AND, OR = "L", "A", "O"  # the c2d node tags


class NnfFormatError(ToolkitError):
    pass


def _run(task: Generator):
    # Drives generator-based recursion on an explicit stack: a task yields a
    # subtask, and is resumed with the subtask's return value.
    stack = [task]
    result = None
    while stack:
        try:
            subtask = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(subtask)
            result = None
    return result


# A mask of at most this many set bits is read one top bit at a time, and
# built from shifted bits: each step copies the mask, so past a few dozen
# bits one string of all its binary digits is cheaper. At 16 bits the two
# ways are within a microsecond of each other on masks of 64-1,000 bits,
# and the top-bit way is 2-28 times faster on masks of 10^4-10^6 bits.
_FEW_BITS = 16


def variables(mask: int):
    """The variables set in ``mask``, ascending. Few are read off the top of
    the mask, more from one string of binary digits searched for each set
    bit: the work follows the bits that are set, and a mask of few bits
    builds no string of all its digits."""
    if (count := mask.bit_count()) <= _FEW_BITS:
        top = [mask.bit_length() - 1]  # -1 for no bits, dropped below
        for _ in range(1, count):
            mask -= 1 << top[-1]
            top.append(mask.bit_length() - 1)
        yield from reversed(top[:count])
        return
    digits = bin(mask)[:1:-1]  # digit v is bit v
    v = digits.find("1")
    while v >= 0:
        yield v
        v = digits.find("1", v + 1)


def reached_from(root: int, nodes, stop=frozenset()) -> set[int]:
    """The ids reached from ``root`` through no node of ``stop`` above them.
    ``nodes`` is indexed by id, and ``nodes[i][2]`` holds the ids below node
    i, which are all smaller than i: one downward sweep finds them all, and
    adds each node's children with one ``set.update``."""
    reached = {root}
    update = reached.update
    for nid in range(root, -1, -1):
        if nid in reached and nid not in stop:
            update(nodes[nid][2])
    return reached


def mask_of(variables) -> int:
    """The bitmask with bit v set for each variable v. Many variables are
    read from one string of binary digits: ``mask |= 1 << v`` copies the
    whole mask per variable, which is quadratic in the highest variable,
    but for few variables it is the cheaper way."""
    variables = tuple(variables)
    if min(variables, default=0) < 0:
        raise ValueError("negative variable")
    if len(variables) <= _FEW_BITS:  # ascending: only the last OR is wide
        return reduce(or_, [1 << v for v in sorted(variables)], 0)
    digits = bytearray(b"0") * (max(variables) + 1)
    for v in variables:
        digits[v] = 49  # b"1"
    digits.reverse()
    return int(digits, 2)


def range_mask(n: int) -> int:  # the variables 1..n
    return (1 << (n + 1)) - 2 if n > 0 else 0


def mask_within(vs, universe: int) -> int | None:
    """The mask of the variables ``vs`` (an int is one already), or None when
    one lies outside the mask ``universe``; a variable beyond it costs nothing."""
    if not isinstance(vs, int):
        vs = tuple(vs)
        if not all(0 <= v < universe.bit_length() for v in vs):
            return None
        vs = mask_of(vs)
    return None if vs & ~universe else vs


class Circuit:
    """Single-rooted DAG of AND/OR/literal nodes. True is the AND of nothing
    and false the OR of nothing.

    Nodes live in an arena in topological order (children precede parents)
    and are structurally deduplicated: adding an AND/OR with the same child
    multiset, or the same literal, returns the existing id. An AND whose
    children share a variable is refused, so every circuit is decomposable.
    An OR whose children repeat is refused too: it would count a child's
    models twice.
    The arena never simplifies; constant propagation belongs to the pruning
    pass. A node is the plain tuple ``(kind, lit, children, decision, mask)``:
    a c2d tag, its literal (0 unless a literal), the ascending child ids, an
    OR's decision variable (else 0), and the mask of the variables it
    mentions. The declared universe and its gate variables are the masks
    ``universe_mask`` and ``tseitin_mask``; each argument is such a mask or a
    set of variables, and variables start at 1.
    """

    def __init__(self, universe, tseitin_vars=()):
        self.universe_mask = universe if isinstance(universe, int) else mask_of(universe)
        if self.universe_mask & 1:
            raise ValueError("variable 0 in universe")
        tseitin_mask = mask_within(tseitin_vars, self.universe_mask)
        if tseitin_mask is None:
            raise ValueError("tseitin_vars outside declared universe")
        self.tseitin_mask = tseitin_mask
        self.root: int | None = None
        self._reachable: tuple[int | None, tuple[int, ...]] = (None, ())  # root, ids
        self._nodes: list[tuple] = []
        # node(nid) is the node with that id: the list's own lookup, the
        # cheapest call, since every pass over the circuit makes it per node.
        self.node = self._nodes.__getitem__
        # The id of each literal's node, keyed by the literal: a known
        # literal costs one lookup and no key tuple. Read only outside.
        self.literal_ids: dict[int, int] = {}
        self._dedup: dict[tuple, int] = {}  # (kind, children) -> id of an AND or OR

    # Read-only set views of the two masks.
    universe = property(lambda self: frozenset(variables(self.universe_mask)))
    tseitin_vars = property(lambda self: frozenset(variables(self.tseitin_mask)))

    def __len__(self) -> int:
        return len(self._nodes)

    # Every lookup comes before any node is built: most calls find the node.

    def add_literal(self, lit: int) -> int:
        nid = self.literal_ids.get(lit)
        if nid is not None:
            return nid
        # Shifting the universe instead would copy it once per literal.
        var = abs(lit)
        universe = self.universe_mask
        if lit == 0 or var >= universe.bit_length() or not universe & (mask := 1 << var):
            raise ValueError(f"literal {lit} outside universe")
        nid = len(self._nodes)
        self._nodes.append((LIT, lit, (), 0, mask))
        self.literal_ids[lit] = nid
        return nid

    def _add_internal(self, kind: str, children, decision: int = 0) -> int:
        kids = tuple(sorted(children))
        key = (kind, kids)
        nid = self._dedup.get(key)
        if nid is not None:
            return nid
        nodes = self._nodes
        nid = len(nodes)
        if kids and (kids[0] < 0 or kids[-1] >= nid):
            bad = next(c for c in kids if not 0 <= c < nid)
            raise ValueError(f"unknown child id {bad}")
        masks = [nodes[c][4] for c in kids]
        mask = reduce(or_, masks, 0)
        # The masks of pairwise disjoint children add up to their union.
        if kind == AND and sum(masks) != mask:
            raise ValueError("AND children share a variable")
        if kind == OR and len(set(kids)) < len(kids):
            raise ValueError("OR children repeat")
        # A decision picks one child, so the OR of nothing (false) has none.
        nodes.append((kind, 0, kids, decision if kids else 0, mask))
        self._dedup[key] = nid
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
            self._reachable = (root, tuple(sorted(reached_from(root, self._nodes))))
        return self._reachable[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        if (
            self.universe_mask != other.universe_mask
            or self.tseitin_mask != other.tseitin_mask
            or (self.root is None) != (other.root is None)
        ):
            return False
        if self.root is None:
            return True
        return write_nnf(self) == write_nnf(other)

    __hash__ = None


# ---------------------------------------------------------------------------
# Metrics


def edges_and_size(nodes, ids) -> tuple[int, int]:
    """The edges below the nodes ``ids`` of the id-indexed ``nodes``, and
    their binary operations: a node with k >= 1 children adds k - 1, so the
    size is the edge count less the number of nodes with children. Both are
    C-level passes over the child tuples, which ``nodes[i][2]`` holds."""
    kids = [nodes[nid][2] for nid in ids]
    edges = sum(map(len, kids))
    return edges, edges - len(kids) + kids.count(())


def size(circuit: Circuit) -> int:
    """Number of binary operations: an internal node with k inputs counts
    as k - 1. Literals, true and false count as zero."""
    return edges_and_size(circuit._nodes, circuit.reachable())[1]


def stats_line(circuit: Circuit) -> str:
    edges, ops = edges_and_size(circuit._nodes, circuit.reachable())
    return (
        f"size={ops} nodes={len(circuit.reachable())} edges={edges} "
        f"vars={circuit.universe_mask.bit_count()} tseitin={circuit.tseitin_mask.bit_count()}"
    )


# ---------------------------------------------------------------------------
# Text formats: c2d written and read, d4 read

# Node lines follow the c2d conventions: `L <lit>`, `A <c> <ids...>`,
# `O <j> <c> <ids...>`, so true is `A 0` and false `O 0 0`; an OR's
# decision field j is 0 or a universe variable. Nodes are 0-indexed in
# topological order and the last node is the root. Universe and
# designated-variable information that the header cannot carry is written as
# comment directives so that circuits round-trip exactly.


def write_nnf(circuit: Circuit) -> str:
    if circuit.root is None:
        raise ValueError("circuit has no root")
    reach = circuit.reachable()
    # Each node's position as text, made once per node, not once per edge.
    position = dict(zip(reach, map(str, range(len(reach)))))
    universe, gates = circuit.universe_mask, circuit.tseitin_mask
    num_vars = max(universe.bit_length() - 1, 0)
    nodes = circuit._nodes
    lines = [f"nnf {len(reach)} {edges_and_size(nodes, reach)[0]} {num_vars}"]
    if universe != range_mask(num_vars):
        lines.append("c universe " + " ".join(map(str, variables(universe))))
    if gates:
        lines.append("c tseitin " + " ".join(map(str, variables(gates))))
    for nid in reach:
        kind, lit, children, decision, _ = nodes[nid]
        if kind == LIT:
            lines.append(f"L {lit}")
        else:
            tag = "A" if kind == AND else f"O {decision}"
            lines.append(" ".join([tag, str(len(children)), *map(position.__getitem__, children)]))
    return "\n".join(lines) + "\n"


_FIRST_TOKEN = re.compile(r"^[^\S\n]*([^c\s]\S*)", re.M)
_D4_KINDS = ("o", "a", "t", "f")


def parse_nnf(text: str) -> Circuit:
    """Parse a c2d or d4 circuit. The first token of the first line that is
    neither blank nor begins with ``c`` picks the reader: a d4 node kind or
    a decimal number means d4, anything else c2d. An AND whose children
    share a variable, or an OR whose children repeat, is refused, reachable
    or not; determinism is assumed, not checked."""
    first = _FIRST_TOKEN.search(text)
    if first and (first[1] in _D4_KINDS or first[1].isdecimal()):
        return _parse_d4(text)
    return _parse_c2d(text)


# First characters that make a line a node line at a glance: its first token
# is then neither a comment nor the header.
_NODE_STARTS = frozenset("LAO")


def _parse_c2d(text: str) -> Circuit:
    # First pass: the header and the directives, which may come anywhere;
    # the node lines' numbers are recorded. Second pass: each node line is
    # split once and its node added.
    lines = text.splitlines()
    header = None
    universe: list[int] | None = None
    tseitin: list[int] = []
    node_lines: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        if raw[:1] not in _NODE_STARTS:
            fields = raw.split()
            if not fields:
                continue
            if fields[0] == "c":
                if len(fields) > 1 and fields[1] in ("universe", "tseitin"):
                    try:
                        listed = list(map(int, fields[2:]))
                    except ValueError:
                        raise NnfFormatError(f"line {lineno}: non-integer argument") from None
                    if fields[1] == "universe":
                        universe = listed
                    else:
                        tseitin = listed
                continue
            if fields[0] == "nnf":
                if header is not None:
                    raise NnfFormatError(f"line {lineno}: duplicate header")
                try:
                    header = tuple(int(t) for t in fields[1:])
                except ValueError:
                    header = None
                if header is None or len(header) != 3:
                    raise NnfFormatError(f"line {lineno}: malformed header {raw.strip()!r}")
                continue
        if header is None:
            raise NnfFormatError(f"line {lineno}: node before 'nnf' header")
        node_lines.append(lineno)

    if header is None:
        raise NnfFormatError("missing 'nnf' header")
    num_nodes, num_edges, num_vars = header
    if universe is not None and any(v < 1 or v > num_vars for v in universe):
        raise NnfFormatError("universe directive outside header variable range")
    try:
        circuit = Circuit(range_mask(num_vars) if universe is None else universe, tseitin)
    except ValueError:
        raise NnfFormatError("tseitin directive outside universe") from None
    found = len(node_lines)
    if not found:
        raise NnfFormatError("no nodes")
    if num_nodes != found:
        warnings.warn(f"header declares {num_nodes} nodes, found {found}", stacklevel=3)

    # Each node line's position, as written, to its arena id: a reference
    # that is a key needs no int() and no range check.
    ref: dict[str, int] = {}
    lookup = ref.__getitem__
    universe_mask = circuit.universe_mask
    edges = 0

    def checked(lineno: int, fields: list[str]) -> tuple[int, list[int]]:
        # Every field through int(), then the checks in their order; the
        # first fault is the one named. Gives an internal line's decision
        # and child ids: every valid literal line takes the fast path.
        tag = fields[0]
        try:
            args = list(map(int, fields[1:]))
        except ValueError:
            raise NnfFormatError(f"line {lineno}: non-integer argument") from None
        if tag == "L":
            raise NnfFormatError(f"line {lineno}: malformed literal node")
        if tag == "A":
            if not args or args[0] != len(args) - 1:
                raise NnfFormatError(f"line {lineno}: AND child count mismatch")
            value, refs = 0, args[1:]
        elif tag == "O":
            if len(args) < 2 or args[1] != len(args) - 2:
                raise NnfFormatError(f"line {lineno}: OR child count mismatch")
            if args[0] and not (args[0] > 0 and universe_mask >> args[0] & 1):
                raise NnfFormatError(f"line {lineno}: decision variable {args[0]} out of range")
            value, refs = args[0], args[2:]
        else:
            raise NnfFormatError(f"line {lineno}: unknown node tag {tag!r}")
        if refs and (min(refs) < 0 or max(refs) >= len(ref)):
            bad = next(i for i in refs if not 0 <= i < len(ref))
            raise NnfFormatError(f"line {lineno}: dangling node reference {bad}")
        return value, [ref[str(i)] for i in refs]

    for position, lineno in zip(map(str, range(found)), node_lines):
        fields = lines[lineno - 1].split()
        lines[lineno - 1] = None  # freed as the arena grows: a lower peak
        tag = fields[0]
        # A line's value is its literal or its decision. The common line's
        # references are keys and its counts right; any other is checked.
        try:
            if tag == "A":
                value, kids = 0, list(map(lookup, fields[2:]))
                valid = int(fields[1]) == len(kids)
            elif tag == "O":
                value, kids = int(fields[1]), list(map(lookup, fields[3:]))
                valid = int(fields[2]) == len(kids) and (
                    not value or value > 0 and universe_mask >> value & 1)
            elif tag == "L":
                value, kids = int(fields[1]), None
                valid = len(fields) == 2 and value != 0
            else:
                valid = False
        except (KeyError, ValueError, IndexError):
            valid = False
        if not valid:
            value, kids = checked(lineno, fields)
        if kids is None:
            try:
                ref[position] = circuit.add_literal(value)
            except ValueError:
                raise NnfFormatError(f"line {lineno}: literal {value} out of range") from None
            continue
        edges += len(kids)
        try:
            if tag == "A":
                ref[position] = circuit.add_and(kids)
            else:
                ref[position] = circuit.add_or(kids, decision=value)
        except ValueError as exc:
            raise NnfFormatError(f"line {lineno}: {exc}") from None

    if num_edges != edges:
        warnings.warn(f"header declares {num_edges} edges, found {edges}", stacklevel=3)
    circuit.set_root(ref[position])
    return circuit


def _parse_d4(text: str) -> Circuit:
    kinds: dict[int, str] = {}
    edges: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    first_node: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[-1] != "0":
            raise NnfFormatError(f"line {lineno}: line must end with 0")
        fields = fields[:-1]
        if len(fields) == 2 and (fields[0] in _D4_KINDS or fields[1] in _D4_KINDS):
            # Accept both `<id> o` (spec order) and `o <id>` (d4 output order).
            kind, raw_id = (fields[0], fields[1]) if fields[0] in _D4_KINDS else (fields[1], fields[0])
            try:
                nid = int(raw_id)
            except ValueError:
                raise NnfFormatError(f"line {lineno}: bad node id {raw_id!r}") from None
            if nid in kinds:
                raise NnfFormatError(f"line {lineno}: duplicate node {nid}")
            kinds[nid] = kind
            edges.setdefault(nid, [])
            if first_node is None:
                first_node = nid
        else:
            try:
                ints = [int(t) for t in fields]
            except ValueError:
                raise NnfFormatError(f"line {lineno}: non-integer token") from None
            if len(ints) < 2:
                raise NnfFormatError(f"line {lineno}: malformed edge")
            src, dst, lits = ints[0], ints[1], tuple(ints[2:])
            if src not in kinds or dst not in kinds:
                raise NnfFormatError(f"line {lineno}: edge references undeclared node")
            if 0 in lits:
                raise NnfFormatError(f"line {lineno}: literal 0 in edge guard")
            if kinds[src] in "tf":
                raise NnfFormatError(f"line {lineno}: edge leaves leaf node {src}")
            edges[src].append((dst, lits))

    max_var = max((abs(l) for ps in edges.values() for _, lits in ps for l in lits), default=0)
    circuit = Circuit(range_mask(max_var))
    built: dict[int, int] = {}
    in_progress: set[int] = set()

    def join(nid: int, kind: str, kids: list[int]) -> int:
        """The AND or OR of ``kids``, built for d4 node ``nid``, where the AND
        of one child is that child: a refusal names the node."""
        if kind == AND and len(kids) == 1:
            return kids[0]
        try:
            return circuit.add_and(kids) if kind == AND else circuit.add_or(kids)
        except ValueError as exc:
            raise NnfFormatError(f"node {nid}: {exc}") from None

    # A generator run by _run, so a deep circuit needs no Python recursion:
    # ``yield build(dst)`` gives the id of node ``dst``.
    def build(nid: int):
        if nid in built:
            return built[nid]
        if nid in in_progress:
            raise NnfFormatError(f"cyclic reference through node {nid}")
        in_progress.add(nid)
        kind = kinds[nid]
        if kind in "oa" and not edges[nid]:
            raise NnfFormatError(f"node {nid} has no outgoing edges")
        if kind in "of":  # f has no edges: the OR of nothing
            parts = []
            for dst, lits in edges[nid]:
                conj = [circuit.add_literal(l) for l in lits]
                if kinds[dst] != "t":  # an edge into true is its guards alone
                    conj.append((yield build(dst)))
                parts.append(join(nid, AND, conj))
            result = join(nid, OR, parts)
        else:  # t has no edges: the AND of nothing
            flat: list[int] = []
            for dst, lits in edges[nid]:
                flat.extend(circuit.add_literal(l) for l in lits)
                if kinds[dst] != "t":  # true adds nothing to an AND
                    flat.append((yield build(dst)))
            result = join(nid, AND, flat)
        in_progress.discard(nid)
        built[nid] = result
        return result

    circuit.set_root(_run(build(first_node)))
    return circuit
