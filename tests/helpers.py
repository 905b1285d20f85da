"""Shared random generators and hypothesis strategies for the test suite."""

import random

import hypothesis.strategies as st

from ddnnf import And, CnfInstance, Const, Iff, Not, Or, Var, conj, disj
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
# compiler._propagate, which does both in one pass, is tested against.


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
