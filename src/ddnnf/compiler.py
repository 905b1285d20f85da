"""Top-down d-DNNF compilation: exhaustive DPLL with unit propagation,
component decomposition, and component caching."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from sys import maxsize

from .circuit import AND, OR, Circuit, _run, range_mask
from .cnf import Clause, CnfInstance
from .errors import ToolkitError


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
    max_decisions: int | None = None


def compile(cnf: CnfInstance, config: CompileConfig | None = None) -> Circuit:
    """Compile a CNF into an equivalent d-DNNF circuit.

    Every OR in the output is a two-way decision on a variable, so the
    result is deterministic by construction; ANDs combine variable-disjoint
    components and propagated unit literals, so it is decomposable. Variables
    in no clause stay out of the circuit and are handled by counting via the
    declared universe. The search runs on an explicit stack, so its depth is
    not bounded by Python's recursion limit, and every branch works on one
    shared search state, undone when the branch returns.
    """
    cfg = config or CompileConfig()
    explicit = _explicit_order(cfg, cnf.num_vars)
    rank = None if explicit is None else {v: i for i, v in enumerate(explicit)}
    circuit = Circuit(universe=range_mask(cnf.num_vars), tseitin_vars=cnf.tseitin_vars)
    search = _Search(cnf)
    residual = search.residual
    # Key hash -> (the key as a tuple, node id); a colliding key takes the
    # next free hash. Kept frozensets would nearly triple a compile's memory.
    cache: dict[int, tuple[tuple[Clause, ...], int]] = {}
    decisions = 0

    def pick_var(low: int, comp: list[int]) -> int:
        if rank is None and cfg.order != "dynamic":
            return low
        variables = map(abs, chain.from_iterable(map(residual.__getitem__, comp)))
        if rank is not None:
            ranked = [v for v in set(variables) if v in rank]
            return min(ranked, key=rank.__getitem__) if ranked else low
        occ = Counter(variables)
        return max(occ, key=lambda v: (occ[v], -v))

    def is_false(nid: int) -> bool:  # the OR of nothing
        node = circuit.node(nid)
        return node.kind == OR and not node.children

    def mk_and(literals, parts: list[int]) -> int:
        # The AND of the literal ids and the parts, AND parts flattened.
        merged = set(literals)
        for p in parts:
            node = circuit.node(p)
            if node.kind == AND:
                merged.update(node.children)
            elif node.kind == OR and not node.children:
                return p  # false
            else:
                merged.add(p)
        if len(merged) == 1:
            return next(iter(merged))
        return circuit.add_and(merged)

    def branch(low: int, comp: list[int]):
        nonlocal decisions
        decisions += 1
        if cfg.max_decisions is not None and decisions > cfg.max_decisions:
            raise CompileBudgetError(f"decision budget {cfg.max_decisions} exceeded")
        v = pick_var(low, comp)
        mark = search.mark()
        hi = yield rec(search.propagate(v, comp))
        search.undo(mark)
        lo = yield rec(search.propagate(-v, comp))
        search.undo(mark)
        children = []
        if not is_false(hi):
            children.append(mk_and((circuit.add_literal(v),), [hi]))
        if not is_false(lo):
            children.append(mk_and((circuit.add_literal(-v),), [lo]))
        if len(children) == 1:
            return children[0]
        return circuit.add_or(children, decision=v)  # false when empty

    def rec(split: tuple[list[int], list[tuple[int, list[int]]]] | None):
        if split is None:
            return circuit.add_or(())  # false
        units, components = split
        literals = list(map(circuit.add_literal, units))
        parts = []
        for low, comp in components:
            # The set of the distinct residual clauses: keys are equal iff
            # the clause sets are equal.
            key = frozenset(map(residual.__getitem__, comp))
            h = hash(key)
            while (entry := cache.get(h)) and not (
                len(entry[0]) == len(key) and key.issuperset(entry[0])
            ):
                h += 1
            if entry:
                nid = entry[1]
            else:
                key = tuple(key)  # held down the subtree, the set would cost thrice
                nid = yield branch(low, comp)
                while h in cache:  # the subtree may have taken slot h
                    h += 1
                cache[h] = (key, nid)
            parts.append(nid)
        return mk_and(literals, parts)

    try:
        circuit.set_root(_run(rec(search.propagate(0, range(len(cnf.clauses))))))
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


class _Search:
    """The search state one compile shares across all its branches. Built
    once: the input clauses and, for each literal, the positions of the
    clauses holding it, one entry per occurrence. Per clause, changed only
    through the trail: the count of its literals not yet falsified, whether
    it is satisfied, and its residual clause (its literals not falsified, in
    place). ``undo`` restores the state of a ``mark``."""

    def __init__(self, cnf: CnfInstance):
        self.clauses = clauses = cnf.clauses
        # Lists for the variables in clauses only: memory follows the clauses.
        self.occ: dict[int, list[int]] = {}
        for i, c in enumerate(clauses):
            for l in c:
                self.occ.setdefault(l, []).append(i)
                self.occ.setdefault(-l, [])
        self.true: set[int] = set()  # the literals that hold
        self.count = list(map(len, clauses))
        self.satisfied = bytearray(len(clauses))
        self.residual = list(clauses)
        # The trail, three stacks: each propagation's literal and units; the
        # clauses changed, i for a count decremented and ~i for a clause
        # satisfied; the residual clauses replaced, with their positions.
        self.assigned: list[tuple[int, list[int]]] = []
        self.changed: list[int] = []
        self.replaced: list[tuple[int, Clause]] = []

    def mark(self) -> tuple[int, int, int]:
        return len(self.assigned), len(self.changed), len(self.replaced)

    def undo(self, mark: tuple[int, int, int]) -> None:
        assigned, changed, replaced = mark
        true, count, satisfied, residual = self.true, self.count, self.satisfied, self.residual
        for lit, units in self.assigned[assigned:]:
            true.discard(lit)
            true.difference_update(units)
        del self.assigned[assigned:]
        for i in self.changed[changed:]:
            if i < 0:
                satisfied[~i] = 0
            else:
                count[i] += 1
        del self.changed[changed:]
        for i, c in reversed(self.replaced[replaced:]):
            residual[i] = c
        del self.replaced[replaced:]

    def propagate(self, lit: int, positions):
        """Assign ``lit``, unit-propagate to a fixpoint and split the open
        clauses among ``positions`` into variable-disjoint components; None
        on a conflict. ``lit`` 0 starts from the unit and empty clauses among
        ``positions``, which otherwise hold none, as after any propagation.

        The units (``lit`` not among them) come as conditioning on the first
        unit clause in clause order, one at a time, gives them: a heap of
        clause positions yields them in that order. A component is its
        smallest variable and the ascending list of its clause positions,
        their residual clauses brought up to date, in the order of those
        variables."""
        clauses, occ, true, count, satisfied, residual = (
            self.clauses, self.occ, self.true, self.count, self.satisfied, self.residual)
        changed = self.changed.append
        units: list[int] = []
        self.assigned.append((lit, units))
        heap = [] if lit else [i for i in positions if count[i] < 2]  # ascending: a heap
        if any(not count[i] for i in heap):
            return None
        u = lit
        while True:
            if u:
                true.add(u)
                for i in occ[u]:
                    if not satisfied[i]:
                        satisfied[i] = 1
                        changed(~i)
                for i in occ[-u]:
                    if satisfied[i]:
                        continue
                    n = count[i] = count[i] - 1
                    changed(i)
                    if n == 1:
                        heappush(heap, i)
                    elif not n:
                        return None
            while heap:
                i = heappop(heap)
                if not satisfied[i]:
                    break
            else:
                break
            for u in clauses[i]:
                if -u not in true:
                    break
            units.append(u)

        # Breadth-first search over the occurrence lists of the variables in
        # the residual clauses, which hold no assigned variable. A placed
        # clause is flagged like a satisfied one until the search ends.
        seen: set[int] = set()
        found: list[tuple[int, list[int]]] = []
        for start in positions:
            if satisfied[start]:
                continue
            satisfied[start] = 1
            members = [start]
            low = maxsize
            for j in members:
                c = residual[j]
                if count[j] != len(c):
                    self.replaced.append((j, c))
                    c = residual[j] = tuple(l for l in c if -l not in true)
                for l in c:
                    x = abs(l)
                    if x in seen:
                        continue
                    seen.add(x)
                    if x < low:
                        low = x
                    for k in occ[l]:
                        if not satisfied[k]:
                            satisfied[k] = 1
                            members.append(k)
                    for k in occ[-l]:
                        if not satisfied[k]:
                            satisfied[k] = 1
                            members.append(k)
            members.sort()
            found.append((low, members))
        for _, members in found:
            for j in members:
                satisfied[j] = 0
        found.sort()  # by smallest variable: no two are equal
        return units, found
