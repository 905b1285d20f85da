"""Shared random generators and hypothesis strategies for the test suite."""

import random

import hypothesis.strategies as st

from ddnnf import And, CnfInstance, Const, Iff, Not, Or, Var, conj, disj, vars_of
from ddnnf.circuit import variables as mask_variables
from ddnnf.cnf import Clause

NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]


def formulas(max_vars: int = 6, max_leaves: int = 12, constants: bool = True):
    """Hypothesis strategy for formula ASTs over a small variable pool."""
    leaves = st.sampled_from(NAMES[:max_vars]).map(Var)
    if constants:
        leaves = leaves | st.sampled_from([Const(True), Const(False)])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.lists(sub, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(sub, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
            st.builds(Iff, sub, sub),
        ),
        max_leaves=max_leaves,
    )


def random_formula(rng: random.Random, max_vars: int = 5, depth: int = 3):
    """Seeded random formula (no constants), for bulk corpus generation."""
    if depth == 0 or rng.random() < 0.3:
        return Var(NAMES[rng.randrange(max_vars)])
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, max_vars, depth - 1))
    if kind == 3 and depth >= 2:
        return Iff(
            random_formula(rng, max_vars, depth - 1),
            random_formula(rng, max_vars, depth - 1),
        )
    parts = [
        random_formula(rng, max_vars, depth - 1) for _ in range(rng.randint(2, 3))
    ]
    return conj(parts) if kind == 1 else disj(parts)


def shuffled_order(num_vars: int, seed: int = 0) -> tuple[int, ...]:
    """The variables 1..num_vars as ``random.Random(seed)`` shuffles them, as
    an explicit compile order. The pinned outputs named ``random`` were
    recorded in this order."""
    order = list(range(1, num_vars + 1))
    random.Random(seed).shuffle(order)
    return tuple(order)


def random_cnf(
    rng: random.Random,
    max_vars: int = 10,
    max_clauses: int = 25,
    gate_prob: float = 0.0,
) -> CnfInstance:
    """Seeded random CNF. With ``gate_prob``, some fresh variables get a full
    AND/OR gate clause pattern appended so gate recovery has work to do."""
    num_vars = rng.randint(1, max_vars)
    clauses = []
    # mostly ternary clauses: keeps instances satisfiable often enough to
    # produce circuits worth pruning
    for _ in range(rng.randint(0, min(max_clauses, 3 * num_vars))):
        width = min(num_vars, rng.choice((2, 3, 3, 3)))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    while gate_prob and rng.random() < gate_prob and num_vars + 1 <= max_vars:
        head = num_vars + 1
        num_vars += 1
        body_width = rng.randint(1, min(3, head - 1))
        body_vars = rng.sample(range(1, head), body_width)
        body = [v if rng.random() < 0.5 else -v for v in body_vars]
        if rng.random() < 0.5:
            clauses.extend([[-head, b] for b in body])
            clauses.append([head] + [-b for b in body])
        else:
            clauses.extend([[head, -b] for b in body])
            clauses.append([-head] + body)
    return CnfInstance.from_raw(num_vars, clauses)


def cnf_strategy(max_vars: int = 8, max_clauses: int = 15):
    """Hypothesis strategy for normalized CNF instances."""

    def build(num_vars, layout):
        clauses = []
        for signs_and_vars in layout:
            clause = [
                v if sign else -v for sign, v in signs_and_vars if v <= num_vars
            ]
            if clause:
                clauses.append(clause)
        return CnfInstance.from_raw(num_vars, clauses)

    literal = st.tuples(st.booleans(), st.integers(min_value=1, max_value=max_vars))
    clause = st.lists(literal, min_size=1, max_size=4)
    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_vars),
        st.lists(clause, min_size=0, max_size=max_clauses),
    )


# ---------------------------------------------------------------------------
# Conditioning and components, one step at a time: the reference that
# the compiler's search state, which does both in one pass, is tested against.


def condition(cnf: CnfInstance, lit: int) -> CnfInstance:
    """Condition on ``lit``: satisfied clauses vanish, the complementary
    literal is deleted. The variable stays in the universe as a free var."""
    if lit == 0 or abs(lit) > cnf.num_vars:
        raise ValueError(f"literal {lit} out of range")
    new_clauses = []
    for clause in cnf.clauses:
        if lit in clause:
            continue
        if -lit in clause:
            new_clauses.append(tuple(l for l in clause if l != -lit))
        else:
            new_clauses.append(clause)
    return CnfInstance(cnf.num_vars, tuple(new_clauses), cnf.tseitin_vars)


def split_components(cnf: CnfInstance) -> list[CnfInstance]:
    """Partition clauses into variable-disjoint groups (union-find).

    Empty clauses, having no variables, are grouped into one leading
    component. Each component keeps the parent's num_vars; its tseitin set is
    restricted to the variables it mentions.
    """
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for clause in cnf.clauses:
        for l in clause:
            parent.setdefault(abs(l), abs(l))
        for l in clause[1:]:
            union(abs(clause[0]), abs(l))

    groups: dict[int, list[Clause]] = {}
    empties: list[Clause] = []
    for clause in cnf.clauses:
        if not clause:
            empties.append(clause)
            continue
        groups.setdefault(find(abs(clause[0])), []).append(clause)

    components = []
    if empties:
        components.append(CnfInstance(cnf.num_vars, tuple(empties), frozenset()))
    for root in sorted(groups, key=lambda r: min(abs(l) for c in groups[r] for l in c)):
        group = groups[root]
        group_vars = {abs(l) for c in group for l in c}
        components.append(
            CnfInstance(cnf.num_vars, tuple(group), cnf.tseitin_vars & group_vars)
        )
    return components


# ---------------------------------------------------------------------------
# Strongly connected components by mutual reachability: the reference that
# cnf._cyclic_vars (Tarjan's algorithm) is tested against.


def cyclic_components(deps: dict[int, set[int]]) -> list[set[int]]:
    """The components of the graph ``v -> deps[v]`` that contain a cycle:
    v and w share one when each reaches the other by a path of one or more
    edges, and a lone node counts when it has a self-loop."""
    reach = {}
    for v in deps:
        seen: set[int] = set()
        todo = list(deps[v])
        while todo:
            w = todo.pop()
            if w not in seen:
                seen.add(w)
                todo.extend(deps[w])
        reach[v] = seen
    sccs: list[set[int]] = []
    for v in deps:
        scc = {w for w in reach[v] if v in reach[w]}
        if scc and scc not in sccs:
            sccs.append(scc)
    return sccs


# ---------------------------------------------------------------------------
# Truth one assignment at a time: the reference that the packed truth tables
# of ddnnf.oracle are tested against.


def assignments(universe):
    """Each assignment over ``universe`` as (i, env): bit j of i is the value
    env gives universe[j]."""
    for i in range(1 << len(universe)):
        yield i, {v: bool(i >> j & 1) for j, v in enumerate(universe)}


def eval_formula(f, env) -> bool:
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not eval_formula(f.child, env)
    if isinstance(f, And):
        return all(eval_formula(c, env) for c in f.children)
    if isinstance(f, Or):
        return any(eval_formula(c, env) for c in f.children)
    if isinstance(f, Iff):
        return eval_formula(f.left, env) == eval_formula(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


def formula_models(f) -> tuple[tuple, frozenset[int]]:
    universe = tuple(sorted(vars_of(f)))
    return universe, frozenset(i for i, env in assignments(universe) if eval_formula(f, env))


def cnf_models(cnf: CnfInstance) -> tuple[tuple, frozenset[int]]:
    universe = tuple(range(1, cnf.num_vars + 1))
    return universe, frozenset(
        i
        for i, env in assignments(universe)
        if all(any(env[abs(l)] == (l > 0) for l in c) for c in cnf.clauses)
    )


def circuit_rows(circuit) -> list[tuple[dict, dict[int, bool]]]:
    """Per assignment over the sorted universe, in order: the assignment and
    the value of every reachable node under it."""
    rows = []
    for _, env in assignments(tuple(sorted(circuit.universe))):
        values: dict[int, bool] = {}
        for nid in circuit.reachable():
            kind, lit, children, _, _ = circuit.node(nid)
            kids = [values[c] for c in children]
            if kind == "L":
                values[nid] = env[abs(lit)] == (lit > 0)
            else:  # true is an AND of nothing, false an OR of nothing
                values[nid] = all(kids) if kind in ("T", "A") else any(kids)
        rows.append((env, values))
    return rows


def circuit_models(circuit) -> tuple[tuple, frozenset[int]]:
    rows = circuit_rows(circuit)
    return tuple(sorted(circuit.universe)), frozenset(
        i for i, (_, values) in enumerate(rows) if values[circuit.root]
    )


def circuit_deterministic(circuit, rows) -> bool:
    """No assignment sets two children of one OR."""
    ors = [circuit.node(nid)[2] for nid in circuit.reachable()
           if circuit.node(nid)[0] == "O"]
    return all(sum(values[c] for c in kids) <= 1 for _, values in rows for kids in ors)


def tautology_after_exists(circuit, rows, variables, nid) -> bool:
    """Does every assignment to the variables ``nid`` mentions outside
    ``variables`` extend to one that makes ``nid`` true?"""
    kept = sorted(set(mask_variables(circuit.node(nid)[4])) - set(variables))
    seen = {tuple(env[v] for v in kept) for env, values in rows if values[nid]}
    return len(seen) == 1 << len(kept)


def exists_equiv(universe, models, variables, reference, names) -> bool:
    """Do ``models`` over ``universe``, with ``variables`` forgotten and the
    rest renamed by ``names``, have exactly the models of ``reference``?"""
    kept = [v for v in universe if v not in variables]
    named = [names.get(v, v) for v in kept]
    if not vars_of(reference) <= set(named):
        return False
    projected = {
        frozenset(names.get(v, v) for j, v in enumerate(universe) if v in kept and i >> j & 1)
        for i in models
    }
    expected = {
        frozenset(nm for nm in named if env[nm])
        for _, env in assignments(named)
        if eval_formula(reference, env)
    }
    return projected == expected
