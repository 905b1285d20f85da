"""Top-down d-DNNF compilation: exhaustive DPLL with unit propagation,
component decomposition, and component caching."""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from sys import maxsize

from .circuit import AND, OR, Circuit, _run, range_mask
from .cnf import Clause, CnfInstance
from .errors import ToolkitError

ComponentKey = tuple[Clause, ...]


class CompileBudgetError(ToolkitError):
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
    circuit = Circuit(universe=range_mask(cnf.num_vars), tseitin_vars=cnf.tseitin_vars)
    cache: dict[ComponentKey, int] | None = {} if cfg.cache_enabled else None
    decisions = 0

    def pick_var(occ: dict[int, list[int]]) -> int:
        if rank is not None:
            ranked = [v for v in occ if v in rank]
            return min(ranked, key=rank.__getitem__) if ranked else min(occ)
        if cfg.order == "dynamic":
            return max(occ, key=lambda v: (len(occ[v]), -v))
        return min(occ)

    def is_false(nid: int) -> bool:  # the OR of nothing
        node = circuit.node(nid)
        return node.kind == OR and not node.children

    def mk_and(parts: list[int]) -> int:
        # Flattens AND parts, true (the AND of nothing) among them.
        merged: dict[int, None] = {}
        for p in parts:
            node = circuit.node(p)
            if node.kind == AND:
                for c in node.children:
                    merged.setdefault(c)
            elif node.kind == OR and not node.children:
                return p  # false
            else:
                merged.setdefault(p)
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
        if not is_false(hi):
            children.append(mk_and([circuit.add_literal(v), hi]))
        if not is_false(lo):
            children.append(mk_and([circuit.add_literal(-v), lo]))
        if len(children) == 1:
            return children[0]
        return circuit.add_or(children, decision=v)  # false when empty

    def rec(split: _Split | None):
        if split is None:
            return circuit.add_or(())  # false
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
