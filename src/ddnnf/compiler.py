"""Top-down d-DNNF compilation: exhaustive DPLL with unit propagation,
component decomposition, and component caching. Also parses externally
compiled circuits in the c2d and d4 text formats."""

from __future__ import annotations

import random
import warnings
from collections import defaultdict
from collections.abc import Generator
from dataclasses import dataclass
from heapq import heappop, heappush
from sys import maxsize

from .circuit import AND, FALSE, TRUE, Circuit, check_decomposable
from .cnf import Clause, CnfInstance
from .errors import ToolkitError

ComponentKey = tuple[Clause, ...]


class CompileBudgetError(ToolkitError):
    pass


class NnfFormatError(ToolkitError):
    pass


@dataclass
class CompileConfig:
    """Branching behaviour of the compiler.

    ``order`` is ``"input"`` (smallest variable first), ``"dynamic"`` (most
    clause occurrences first), ``"random"`` (a seed-shuffled fixed order), or
    an explicit variable list. An explicit order may cover a subset of the
    variables; the rest fall back to input order.
    """

    order: str | tuple[int, ...] | list[int] = "input"
    seed: int = 0
    cache_enabled: bool = True
    max_decisions: int | None = None


def component_key(clauses) -> ComponentKey:
    """Canonical form of a clause set, the sorted tuple of its distinct
    clauses; equal keys iff equal sets."""
    return tuple(sorted(set(clauses)))


def compile(cnf: CnfInstance, config: CompileConfig | None = None) -> Circuit:
    """Compile a CNF into an equivalent d-DNNF circuit.

    Every OR in the output is a two-way decision on a variable, so the
    result is deterministic by construction; ANDs combine variable-disjoint
    components and propagated unit literals, so it is decomposable. Variables
    in no clause stay out of the circuit and are handled by counting via the
    declared universe. The search runs on an explicit stack, so its depth is
    not bounded by Python's recursion limit.
    """
    cfg = config or CompileConfig()
    explicit = _explicit_order(cfg, cnf.num_vars)
    rank = None if explicit is None else {v: i for i, v in enumerate(explicit)}
    circuit = Circuit(universe=range(1, cnf.num_vars + 1), tseitin_vars=cnf.tseitin_vars)
    cache: dict[ComponentKey, int] | None = {} if cfg.cache_enabled else None
    decisions = 0

    def pick_var(occ: dict[int, list[int]]) -> int:
        if rank is not None:
            ranked = [v for v in occ if v in rank]
            return min(ranked, key=rank.__getitem__) if ranked else min(occ)
        if cfg.order == "dynamic":
            return max(occ, key=lambda v: (len(occ[v]), -v))
        return min(occ)

    def mk_and(parts: list[int]) -> int:
        merged: dict[int, None] = {}
        for p in parts:
            node = circuit.node(p)
            if node.kind == FALSE:
                return circuit.add_false()
            if node.kind == TRUE:
                continue
            if node.kind == AND:
                for c in node.children:
                    merged.setdefault(c)
            else:
                merged.setdefault(p)
        if not merged:
            return circuit.add_true()
        if len(merged) == 1:
            return next(iter(merged))
        return circuit.add_and(merged)

    def branch(clauses: tuple[Clause, ...]):
        nonlocal decisions
        decisions += 1
        if cfg.max_decisions is not None and decisions > cfg.max_decisions:
            raise CompileBudgetError(f"decision budget {cfg.max_decisions} exceeded")
        occ = _occurrences(clauses)
        v = pick_var(occ)
        hi_task = rec(_propagate(clauses, occ, v))
        lo_task = rec(_propagate(clauses, occ, -v))
        del occ  # a deep stack keeps only the pending residual clauses alive
        hi = yield hi_task
        lo = yield lo_task
        children = []
        if circuit.node(hi).kind != FALSE:
            children.append(mk_and([circuit.add_literal(v), hi]))
        if circuit.node(lo).kind != FALSE:
            children.append(mk_and([circuit.add_literal(-v), lo]))
        if not children:
            return circuit.add_false()
        if len(children) == 1:
            return children[0]
        return circuit.add_or(children, decision=v)

    def rec(split: _Split | None):
        if split is None:
            return circuit.add_false()
        units, components = split
        parts = [circuit.add_literal(l) for l in units]
        for comp in components:
            if cache is None:
                nid = yield branch(comp)
            else:
                key = component_key(comp)
                nid = cache.get(key)
                if nid is None:
                    nid = cache[key] = yield branch(comp)
            parts.append(nid)
        return mk_and(parts)

    root_split = _propagate(cnf.clauses, _occurrences(cnf.clauses), 0)
    try:
        circuit.set_root(_run(rec(root_split)))
    finally:
        # branch and rec refer to each other; breaking that cycle frees the
        # cache and the circuit now, not when the cycle collector next runs.
        del branch, rec
    return circuit


def _run(task: Generator) -> int:
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


def _explicit_order(cfg: CompileConfig, num_vars: int) -> tuple[int, ...] | None:
    if cfg.order == "random":
        order = list(range(1, num_vars + 1))
        random.Random(cfg.seed).shuffle(order)
        return tuple(order)
    if isinstance(cfg.order, (tuple, list)):
        order = tuple(cfg.order)
        if len(set(order)) != len(order):
            raise ValueError("explicit order contains duplicates")
        for v in order:
            if not 1 <= v <= num_vars:
                raise ValueError(f"order variable {v} out of range 1..{num_vars}")
        return order
    if cfg.order in ("input", "dynamic"):
        return None
    raise ValueError(f"unknown branch order {cfg.order!r}")


# Propagated unit literals, and the residual components in branching order.
_Split = tuple[list[int], list[tuple[Clause, ...]]]

# Clause states in _propagate besides open (0): satisfied, and open but
# already placed in a component.
_SATISFIED, _PLACED = 1, 2


def _occurrences(clauses: tuple[Clause, ...]) -> dict[int, list[int]]:
    """Variable -> positions of the clauses mentioning it, one entry per
    literal occurrence (so a clause repeating a literal is listed twice)."""
    occ: dict[int, list[int]] = defaultdict(list)
    for i, c in enumerate(clauses):
        for l in c:
            occ[abs(l)].append(i)
    return occ


def _propagate(clauses: tuple[Clause, ...], occ: dict[int, list[int]], lit: int) -> _Split | None:
    """Condition ``clauses`` on ``lit`` (0: on nothing), unit-propagate to a
    fixpoint and split the residual clauses into variable-disjoint
    components. Returns None on a conflict.

    The result is what conditioning the clause tuple on one unit at a time
    gives, taking the first unit clause in clause order each time: a heap of
    clause positions yields the units in that order, and each clause keeps
    a count of its literals not yet falsified. Each component lists its
    residual clauses in input order, literals in place; the components are
    sorted by their smallest variable. ``lit`` is not among the units.
    """
    m = len(clauses)
    state = bytearray(m)
    remaining = list(map(len, clauses))
    true: set[int] = set()
    units: list[int] = []

    def assign(u: int) -> bool:
        true.add(u)
        for i in occ[abs(u)]:
            if state[i]:
                continue
            if u in clauses[i]:
                state[i] = _SATISFIED
                continue
            remaining[i] -= 1
            if remaining[i] == 1:
                heappush(heap, i)
            elif not remaining[i]:
                return False
        return True

    if 0 in remaining:
        return None
    heap = [i for i, n in enumerate(remaining) if n == 1]  # ascending: a heap
    if lit and not assign(lit):
        return None
    while heap:
        i = heappop(heap)
        if state[i]:
            continue
        for u in clauses[i]:
            if -u not in true:
                break
        units.append(u)
        if not assign(u):
            return None

    # Breadth-first search over variable -> clause lists; assigned variables
    # count as seen, so it never crosses a falsified literal.
    seen = {abs(u) for u in true}
    found: list[tuple[int, tuple[Clause, ...]]] = []
    for start in range(m):
        if state[start]:
            continue
        state[start] = _PLACED
        members = [start]
        low = maxsize
        for j in members:
            for l in clauses[j]:
                x = abs(l)
                if x in seen:
                    continue
                seen.add(x)
                if x < low:
                    low = x
                for k in occ[x]:
                    if not state[k]:
                        state[k] = _PLACED
                        members.append(k)
        members.sort()
        comp = []
        for j in members:
            c = clauses[j]
            if remaining[j] != len(c):
                c = tuple(l for l in c if -l not in true)
            comp.append(c)
        found.append((low, tuple(comp)))
    found.sort(key=lambda entry: entry[0])
    return units, [comp for _, comp in found]


# ---------------------------------------------------------------------------
# Reading compiled circuits


def parse_nnf(text: str, format: str = "c2d") -> Circuit:
    """Parse a compiled circuit. Decomposability is verified on load;
    determinism is assumed (the circuit is flagged unverified)."""
    if format == "c2d":
        circuit = _parse_c2d(text)
    elif format == "d4":
        circuit = _parse_d4(text)
    else:
        raise ValueError(f"unknown NNF format {format!r}")
    ok, bad = check_decomposable(circuit)
    if not ok:
        raise NnfFormatError(f"AND node {bad} has children sharing variables")
    return circuit


# First characters that make a line a node line at a glance: its first token
# is then neither a comment nor the header.
_NODE_STARTS = frozenset("LAO")
_NOT_NODES = ("c", "nnf")


def _parse_c2d(text: str) -> Circuit:
    # First pass: the header and the directives, which may come anywhere;
    # node lines are only counted. Second pass: each node line is split once
    # and its node added.
    lines = text.splitlines()
    header = None
    universe: frozenset[int] | None = None
    tseitin: frozenset[int] = frozenset()
    found = 0  # node lines
    for lineno, raw in enumerate(lines, start=1):
        if raw[:1] not in _NODE_STARTS:
            fields = raw.split()
            if not fields:
                continue
            if fields[0] == "c":
                if len(fields) > 1 and fields[1] in ("universe", "tseitin"):
                    try:
                        variables = frozenset(map(int, fields[2:]))
                    except ValueError:
                        raise NnfFormatError(f"line {lineno}: non-integer argument") from None
                    if fields[1] == "universe":
                        universe = variables
                    else:
                        tseitin = variables
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
        found += 1

    if header is None:
        raise NnfFormatError("missing 'nnf' header")
    num_nodes, _, num_vars = header
    if universe is None:
        universe = frozenset(range(1, num_vars + 1))
    elif any(v < 1 or v > num_vars for v in universe):
        raise NnfFormatError("universe directive outside header variable range")
    if not tseitin <= universe:
        raise NnfFormatError("tseitin directive outside universe")
    if not found:
        raise NnfFormatError("no nodes")
    if num_nodes != found:
        warnings.warn(f"header declares {num_nodes} nodes, found {found}", stacklevel=3)

    circuit = Circuit(universe, tseitin)
    ids: list[int] = []

    def child_ids(lineno: int, refs: list[int]) -> list[int]:
        if min(refs) < 0 or max(refs) >= len(ids):
            bad = next(i for i in refs if not 0 <= i < len(ids))
            raise NnfFormatError(f"line {lineno}: dangling node reference {bad}")
        return [ids[i] for i in refs]

    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0] in _NOT_NODES:
            continue
        tag = fields[0]
        try:
            args = list(map(int, fields[1:]))
        except ValueError:
            raise NnfFormatError(f"line {lineno}: non-integer argument") from None
        if tag == "L":
            if len(args) != 1 or args[0] == 0:
                raise NnfFormatError(f"line {lineno}: malformed literal node")
            if abs(args[0]) not in universe:
                raise NnfFormatError(f"line {lineno}: literal {args[0]} out of range")
            ids.append(circuit.add_literal(args[0]))
        elif tag == "A":
            if not args or args[0] != len(args) - 1:
                raise NnfFormatError(f"line {lineno}: AND child count mismatch")
            if args[0] == 0:
                ids.append(circuit.add_true())
            else:
                ids.append(circuit.add_and(child_ids(lineno, args[1:])))
        elif tag == "O":
            if len(args) < 2 or args[1] != len(args) - 2:
                raise NnfFormatError(f"line {lineno}: OR child count mismatch")
            if args[1] == 0:
                ids.append(circuit.add_false())
            else:
                ids.append(circuit.add_or(child_ids(lineno, args[2:]), decision=args[0]))
        else:
            raise NnfFormatError(f"line {lineno}: unknown node tag {tag!r}")

    circuit.set_root(ids[-1])
    return circuit


_D4_KINDS = ("o", "a", "t", "f")


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
            edges[src].append((dst, lits))
    if first_node is None:
        raise NnfFormatError("no nodes")

    max_var = max(
        (abs(l) for pairs in edges.values() for _, lits in pairs for l in lits),
        default=0,
    )
    circuit = Circuit(range(1, max_var + 1))
    built: dict[int, int] = {}
    in_progress: set[int] = set()

    # A generator run by _run, so a deep circuit needs no Python recursion:
    # ``yield build(dst)`` gives the id of node ``dst``.
    def build(nid: int):
        if nid in built:
            return built[nid]
        if nid in in_progress:
            raise NnfFormatError(f"cyclic reference through node {nid}")
        in_progress.add(nid)
        kind = kinds[nid]
        if kind == "t":
            result = circuit.add_true()
        elif kind == "f":
            result = circuit.add_false()
        elif kind == "o":
            if not edges[nid]:
                raise NnfFormatError(f"node {nid} has no outgoing edges")
            parts = []
            for dst, lits in edges[nid]:
                conj = [circuit.add_literal(l) for l in lits] + [(yield build(dst))]
                parts.append(conj[0] if len(conj) == 1 else circuit.add_and(conj))
            result = circuit.add_or(parts)
        else:
            if not edges[nid]:
                raise NnfFormatError(f"node {nid} has no outgoing edges")
            flat: list[int] = []
            for dst, lits in edges[nid]:
                flat.extend(circuit.add_literal(l) for l in lits)
                flat.append((yield build(dst)))
            result = flat[0] if len(flat) == 1 else circuit.add_and(flat)
        in_progress.discard(nid)
        built[nid] = result
        return result

    circuit.set_root(_run(build(first_node)))
    return circuit
