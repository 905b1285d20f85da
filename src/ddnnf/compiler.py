"""Top-down d-DNNF compilation: exhaustive DPLL with unit propagation,
component decomposition, and component caching."""

from __future__ import annotations

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
    # The search runs on the variables in clauses, renumbered 1..k in
    # increasing order, so its per-variable lists follow the clauses, not the
    # header. The map keeps every comparison that steers the search (the
    # smallest variable, the most occurrences with the smallest on a tie,
    # explicit ranks) and the cache's key equality, so the search, its
    # decisions and the output are those on the original numbers. Only the
    # circuit sees original numbers, through ``original``; where the clause
    # variables already are 1..k the map is the identity.
    original = [0, *sorted({abs(l) for c in cnf.clauses for l in c})]
    k = len(original) - 1
    dense = {v: x for x, v in enumerate(original)}
    clauses = cnf.clauses
    if original[-1] != k:
        clauses = tuple(tuple(dense[l] if l > 0 else -dense[-l] for l in c) for c in clauses)
    rank = None
    if isinstance(cfg.order, tuple):
        for v in cfg.order:
            if v > cnf.num_vars:
                raise ValueError(f"order variable {v} out of range 1..{cnf.num_vars}")
        rank = {dense[v]: i for i, v in enumerate(cfg.order) if v in dense}
    circuit = Circuit(universe=range_mask(cnf.num_vars), tseitin_vars=cnf.tseitin_vars)
    search = _Search(CnfInstance(k, clauses))
    residual, rid = search.residual, search.rid
    literal_id = circuit.literal_ids.get
    # The ascending ids of a component's distinct residual clauses -> node
    # id: keys are equal iff the clause sets are equal.
    cache: dict[tuple[int, ...], int] = {}
    decisions = 0

    def pick_var(low: int, comp: list[int], best: int) -> int:
        # ``best`` is the variable the component search counted most, 0
        # where no search ran.
        if rank is None:
            if cfg.order != "dynamic":
                return low
            if best:
                return best
        variables = map(abs, chain.from_iterable(map(residual.__getitem__, comp)))
        if rank is not None:
            ranked = [v for v in set(variables) if v in rank]
            return min(ranked, key=rank.__getitem__) if ranked else low
        # A component no search walked: count its residual literals here.
        occ = Counter(variables)
        return max(occ, key=lambda v: (occ[v], -v))

    def is_false(nid: int) -> bool:  # the OR of nothing
        kind, _, children, _, _ = circuit.node(nid)
        return kind == OR and not children

    def mk_and(literals, parts: list[int]) -> int:
        # The AND of the literal ids and the parts, AND parts flattened.
        merged = set(literals)
        for p in parts:
            kind, _, children, _, _ = circuit.node(p)
            if kind == AND:
                merged.update(children)
            elif kind == OR and not children:
                return p  # false
            else:
                merged.add(p)
        if len(merged) == 1:
            return next(iter(merged))
        return circuit.add_and(merged)

    def rec(split: tuple[list[int], list[tuple[int, list[int], int]]] | None):
        # One propagation's units and components; a cache miss is a decision.
        nonlocal decisions
        if split is None:
            return circuit.add_or(())  # false
        units, components = split
        # Most units are known literals: one table lookup each. Id 0 is a
        # node, so only None is a miss.
        literals = []
        for u in units:
            u = original[u] if u > 0 else -original[-u]
            literals.append(nid if (nid := literal_id(u)) is not None else circuit.add_literal(u))
        parts = []
        for low, comp, best in components:
            key = tuple(sorted(set(map(rid.__getitem__, comp))))
            nid = cache.get(key)
            if nid is not None:
                parts.append(nid)
                continue
            decisions += 1
            if cfg.max_decisions is not None and decisions > cfg.max_decisions:
                raise CompileBudgetError(f"decision budget {cfg.max_decisions} exceeded")
            v = pick_var(low, comp, best)
            mark = search.mark()
            hi = yield rec(search.propagate(v, comp))
            search.undo(mark)
            lo = yield rec(search.propagate(-v, comp))
            search.undo(mark)
            v = original[v]
            children = []
            if not is_false(hi):
                children.append(mk_and((circuit.add_literal(v),), [hi]))
            if not is_false(lo):
                children.append(mk_and((circuit.add_literal(-v),), [lo]))
            nid = children[0] if len(children) == 1 else circuit.add_or(children, decision=v)
            cache[key] = nid
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
    """The search state one compile shares across all its branches, sized
    by its instance's ``num_vars``: ``compile`` builds it on the variables
    in clauses only, renumbered 1..k, so memory follows the clauses. Built
    once: for each variable x, ``pos[x]`` and ``neg[x]``, the positions of
    the clauses holding x and -x, one entry per occurrence, and ``occ[x]``,
    the two joined, which the component search walks. Per clause, changed
    only through the trail: its ``state``, 0 once it is satisfied and
    nonzero while it is open, its residual clause, its literals not yet
    falsified in place, kept current as literals are assigned, and
    ``rid``, the id of that residual in ``ids``, which numbers each
    distinct residual clause as it is first seen. ``rid`` is current
    wherever the residual holds two literals or more; a unit's is not, as
    a unit is satisfied or conflicts before any component is returned. An
    open clause holds 1, or the stamp of the last component search that
    placed it: each search takes a new stamp, writes it into the clauses it
    places and into ``seen`` for the variables it reaches, so nothing is
    reset when it ends. The trail is three stacks: the positions of the
    clauses satisfied, the residual clauses replaced with their positions,
    and the ids replaced with their positions. ``undo`` restores the state
    of a ``mark``, a reopened clause to 1."""

    def __init__(self, cnf: CnfInstance):
        n = cnf.num_vars
        pos: list[list[int]] = [[] for _ in range(n + 1)]
        neg: list[list[int]] = [[] for _ in range(n + 1)]
        for i, c in enumerate(cnf.clauses):
            for l in c:
                (pos[l] if l > 0 else neg[-l]).append(i)
        self.pos, self.neg = pos, neg
        self.occ = list(map(list.__add__, pos, neg))
        self.state = [1] * len(cnf.clauses)
        self.seen = [0] * (n + 1)
        self.stamp = 1
        self.residual = list(cnf.clauses)
        self.ids: dict[Clause, int] = {}
        self.rid = [self.ids.setdefault(c, len(self.ids)) for c in cnf.clauses]
        self.changed: list[int] = []
        self.replaced: list[tuple[int, Clause]] = []
        self.renamed: list[tuple[int, int]] = []

    def mark(self) -> tuple[int, int, int]:
        return len(self.changed), len(self.replaced), len(self.renamed)

    def undo(self, mark: tuple[int, int, int]) -> None:
        changed, replaced, renamed = mark
        state, residual, rid = self.state, self.residual, self.rid
        for i in self.changed[changed:]:
            state[i] = 1
        del self.changed[changed:]
        for i, c in reversed(self.replaced[replaced:]):
            residual[i] = c
        del self.replaced[replaced:]
        for i, r in reversed(self.renamed[renamed:]):
            rid[i] = r
        del self.renamed[renamed:]

    def propagate(self, lit: int, positions):
        """Assign ``lit``, unit-propagate to a fixpoint and split the open
        clauses among ``positions`` into variable-disjoint components; None
        on a conflict. ``lit`` 0 starts from the unit and empty clauses among
        ``positions``; any other ``lit`` is decided on one component of an
        earlier propagation, which holds none.

        Each literal assigned is taken out of the residual clauses that are
        still open, one occurrence at a time, so a residual clause of one
        literal is a unit and an empty one a conflict. A literal's
        occurrences are ``pos`` or ``neg`` of its variable, by its sign. A
        residual of three literals or more that shrinks takes the id of the
        shorter one from ``ids``. The units (``lit`` not among them) come as
        conditioning on the first unit clause in clause order, one at a
        time, gives them: a heap of clause positions yields them in that
        order. A component is its smallest variable, the list of its clause
        positions in no promised order, and its branch variable, in the
        order of those smallest variables. The branch variable is the one
        with the most occurrences in the component's residual clauses, the
        smallest on a tie, counted by the search that found the component;
        it is 0 for a component returned without a search.

        A clause this satisfies gets state 0 and goes on the trail. The
        component search takes a new stamp: a clause it placed is one whose
        state equals the stamp, a variable it reached one whose ``seen``
        entry does, and an older stamp reads as open but not yet placed."""
        pos, neg, state, residual = self.pos, self.neg, self.state, self.residual
        ids, rid = self.ids, self.rid
        changed, replaced, renamed = self.changed, self.replaced, self.renamed
        start, shrunk = len(changed), len(replaced)
        units: list[int] = []
        heap = [] if lit else [i for i in positions if len(residual[i]) < 2]  # ascending: a heap
        if any(not residual[i] for i in heap):
            return None
        u = lit
        while True:
            if u:
                if u > 0:
                    holding, falsified = pos[u], neg[u]
                else:
                    holding, falsified = neg[-u], pos[-u]
                for i in holding:
                    if state[i]:
                        state[i] = 0
                        changed.append(i)
                for i in falsified:
                    if not state[i]:
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
                    renamed.append((i, rid[i]))
                    rid[i] = ids.setdefault(c, len(ids))
            while heap:
                i = heappop(heap)
                if state[i]:
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
                    comp = list(filter(state.__getitem__, positions))
                    low = min(map(abs, chain.from_iterable(map(residual.__getitem__, comp))))
                    return units, [(low, comp, 0)]

        # Breadth-first search over ``occ`` of the variables in the residual
        # clauses, which hold no assigned variable. A clause or variable
        # holds this search's stamp once placed or reached. A variable's
        # entries in open clauses, placed or not, are its occurrences in its
        # component's residual clauses: the component branches on the
        # variable with the most, the smallest on a tie.
        self.stamp = stamp = self.stamp + 1
        seen, occ = self.seen, self.occ
        found: list[tuple[int, list[int], int]] = []
        for start in positions:
            s = state[start]
            if not s or s == stamp:
                continue
            state[start] = stamp
            members = [start]
            low = maxsize
            best = most = 0
            for j in members:
                for l in residual[j]:
                    x = abs(l)
                    if seen[x] == stamp:
                        continue
                    seen[x] = stamp
                    if x < low:
                        low = x
                    n = 0
                    for k in occ[x]:
                        s = state[k]
                        if s:
                            n += 1
                            if s != stamp:
                                state[k] = stamp
                                members.append(k)
                    if n > most or n == most and x < best:
                        most, best = n, x
            found.append((low, members, best))
        found.sort()  # by smallest variable: no two are equal
        return units, found
