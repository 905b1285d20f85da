"""Top-down d-DNNF compilation: exhaustive DPLL with unit propagation,
component decomposition, and component caching."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, filterfalse
from sys import maxsize

from .circuit import AND, OR, Circuit, _run, range_mask
from .cnf import Clause, CnfInstance
from .errors import ToolkitError


class CompileBudgetError(ToolkitError):
    pass


@dataclass(frozen=True)
class CompileConfig:
    """Branching behaviour of the compiler, checked when it is built.

    ``order`` is ``"input"`` (smallest variable first), ``"dynamic"`` (most
    clause occurrences first), or an explicit list of distinct variables
    from 1, kept as a tuple. An explicit order may cover a subset of the
    variables; the rest fall back to input order. Any other order raises
    ``ValueError`` here; whether its variables lie within a CNF's header is
    checked by ``compile``.
    """

    order: str | tuple[int, ...] = "input"
    max_decisions: int | None = None

    def __post_init__(self):
        order = self.order
        if not isinstance(order, (tuple, list)):
            if order not in ("input", "dynamic"):
                raise ValueError(f"unknown branch order {order!r}")
            return
        for v in order:
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"order entry {v!r} is not a variable from 1")
        if len(set(order)) != len(order):
            raise ValueError("explicit order contains duplicates")
        object.__setattr__(self, "order", tuple(order))


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
    rank = None
    if isinstance(cfg.order, tuple):
        for v in cfg.order:
            if v > cnf.num_vars:
                raise ValueError(f"order variable {v} out of range 1..{cnf.num_vars}")
        rank = {v: i for i, v in enumerate(cfg.order)}
    circuit = Circuit(universe=range_mask(cnf.num_vars), tseitin_vars=cnf.tseitin_vars)
    search = _Search(cnf)
    residual = search.residual
    literal_id = circuit.literal_ids.get
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

    def rec(split: tuple[list[int], list[tuple[int, list[int]]]] | None):
        # One propagation's units and components; a cache miss is a decision.
        nonlocal decisions
        if split is None:
            return circuit.add_or(())  # false
        units, components = split
        # Most units are known literals: one table lookup each. Id 0 is a
        # node, so only None is a miss.
        literals = [nid if (nid := literal_id(u)) is not None else circuit.add_literal(u)
                    for u in units]
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
                parts.append(entry[1])
                continue
            key = tuple(key)  # held down the subtree, the set would cost thrice
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
            nid = children[0] if len(children) == 1 else circuit.add_or(children, decision=v)
            while h in cache:  # the subtree may have taken slot h
                h += 1
            cache[h] = (key, nid)
            parts.append(nid)
        return mk_and(literals, parts)

    try:
        circuit.set_root(_run(rec(search.propagate(0, range(len(cnf.clauses))))))
    finally:
        # rec refers to itself; breaking that cycle frees the cache and the
        # circuit now, not when the cycle collector next runs.
        del rec
    return circuit


class _Search:
    """The search state one compile shares across all its branches. Built
    once: for each literal, the positions of the clauses holding it, one
    entry per occurrence. Per clause, changed only through the trail:
    whether it is satisfied, and its residual clause, its literals not yet
    falsified in place, kept current as literals are assigned. The trail is
    two stacks: the positions of the clauses satisfied, and the residual
    clauses replaced with their positions. ``undo`` restores the state of a
    ``mark``."""

    def __init__(self, cnf: CnfInstance):
        # Lists for the variables in clauses only: memory follows the clauses.
        self.occ: dict[int, list[int]] = {}
        for i, c in enumerate(cnf.clauses):
            for l in c:
                self.occ.setdefault(l, []).append(i)
                self.occ.setdefault(-l, [])
        self.satisfied = bytearray(len(cnf.clauses))
        self.residual = list(cnf.clauses)
        self.changed: list[int] = []
        self.replaced: list[tuple[int, Clause]] = []

    def mark(self) -> tuple[int, int]:
        return len(self.changed), len(self.replaced)

    def undo(self, mark: tuple[int, int]) -> None:
        changed, replaced = mark
        satisfied, residual = self.satisfied, self.residual
        for i in self.changed[changed:]:
            satisfied[i] = 0
        del self.changed[changed:]
        for i, c in reversed(self.replaced[replaced:]):
            residual[i] = c
        del self.replaced[replaced:]

    def propagate(self, lit: int, positions):
        """Assign ``lit``, unit-propagate to a fixpoint and split the open
        clauses among ``positions`` into variable-disjoint components; None
        on a conflict. ``lit`` 0 starts from the unit and empty clauses among
        ``positions``; any other ``lit`` is decided on one component of an
        earlier propagation, which holds none.

        Each literal assigned is taken out of the residual clauses that are
        still open, one occurrence at a time, so a residual clause of one
        literal is a unit and an empty one a conflict. The units (``lit``
        not among them) come as conditioning on the first unit clause in
        clause order, one at a time, gives them: a heap of clause positions
        yields them in that order. A component is its smallest variable and
        the ascending list of its clause positions, in the order of those
        variables."""
        occ, satisfied, residual = self.occ, self.satisfied, self.residual
        changed, replaced = self.changed, self.replaced
        start, shrunk = len(changed), len(replaced)
        units: list[int] = []
        heap = [] if lit else [i for i in positions if len(residual[i]) < 2]  # ascending: a heap
        if any(not residual[i] for i in heap):
            return None
        u = lit
        while True:
            if u:
                for i in occ[u]:
                    if not satisfied[i]:
                        satisfied[i] = 1
                        changed.append(i)
                for i in occ[-u]:
                    if satisfied[i]:
                        continue
                    c = residual[i]
                    replaced.append((i, c))
                    if len(c) == 2:  # the other literal is left, a unit
                        residual[i] = (c[1],) if c[0] == -u else (c[0],)
                        heappush(heap, i)
                        continue
                    k = c.index(-u)
                    c = residual[i] = c[:k] + c[k + 1:]
                    if not c:
                        return None
            while heap:
                i = heappop(heap)
                if not satisfied[i]:
                    break
            else:
                break
            u = residual[i][0]
            units.append(u)

        if lit:
            # Every clause this satisfied is in ``positions``, all open
            # before. If none is left, there is nothing to split.
            if len(changed) - start == len(positions):
                return units, []
            # With no units, the clauses ``lit`` changed meet the rest only
            # at the clauses it shrank and at the free variables of the ones
            # it satisfied. With at most one such point, any path between two
            # remaining clauses that ran through the changed ones enters and
            # leaves there, so the rest is still one component. ``points``
            # holds abs(lit) besides the points: a variable, or ~i for clause i.
            if not units:
                points = {~i for i, _ in replaced[shrunk:]}
                points.add(abs(lit))
                for i in changed[start:]:
                    if len(points) > 2:
                        break
                    points.update(map(abs, residual[i]))
                if len(points) <= 2:
                    comp = list(filterfalse(satisfied.__getitem__, positions))
                    low = min(map(abs, chain.from_iterable(map(residual.__getitem__, comp))))
                    return units, [(low, comp)]

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
                for l in residual[j]:
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
