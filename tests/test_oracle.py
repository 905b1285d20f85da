import random
from itertools import combinations

import pytest

from ddnnf import (
    And,
    Circuit,
    CnfInstance,
    Const,
    Iff,
    Not,
    Or,
    Var,
    parse_dimacs,
    parse_formula,
    tseitin_transform,
)
from ddnnf.circuit import mask_of
from ddnnf.errors import OracleBoundError
from ddnnf.oracle import (
    CircuitTables,
    ModelSet,
    check_exists_equiv,
    enumerate_models,
    oracle_bound,
)

from helpers import (
    NAMES,
    circuit_deterministic,
    circuit_models,
    circuit_rows,
    cnf_models,
    exists_equiv,
    formula_models,
    random_cnf,
    tautology_after_exists,
)
from test_cnf import OVERLAP_DIMACS


class TestEnumerate:
    def test_formula_models(self):
        assert enumerate_models(parse_formula("(a & b) | (c & d)")).count() == 7

    def test_false_circuit(self):
        c = Circuit({1, 2})
        c.set_root(c.add_or(()))
        assert enumerate_models(c).count() == 0

    def test_encoded_cnf_models(self):
        assert enumerate_models(parse_dimacs(OVERLAP_DIMACS)).count() == 7

    def test_circuit_models_match_structure(self):
        c = Circuit({1, 2})
        c.set_root(c.add_or([c.add_literal(1), c.add_and([c.add_literal(-1), c.add_literal(2)])]))
        assert enumerate_models(c).true_sets() == {
            frozenset({1}),
            frozenset({1, 2}),
            frozenset({2}),
        }

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            enumerate_models(42)

    def test_bound_enforced(self, monkeypatch):
        monkeypatch.setenv("DDNNF_ORACLE_MAX_VARS", "3")
        assert oracle_bound() == 3
        with pytest.raises(OracleBoundError):
            enumerate_models(parse_formula("a & b | c & d"))

    def test_bound_can_be_raised(self, monkeypatch):
        monkeypatch.setenv("DDNNF_ORACLE_MAX_VARS", "25")
        assert oracle_bound() == 25


class TestModelSet:
    def test_projection_collapses_duplicates(self):
        ms = ModelSet(universe=(1, 2), models=frozenset({0b00, 0b10, 0b11}))
        projected = ms.project((1,))
        assert projected.universe == (1,)
        assert projected.models == {0b0, 0b1}

    def test_true_sets(self):
        ms = ModelSet(universe=("a", "b"), models=frozenset({0b01}))
        assert ms.true_sets() == {frozenset({"a"})}


class TestExistsEquiv:
    def test_encoding_projects_to_source(self):
        f = parse_formula("(a & b) | (c & d)")
        out = tseitin_transform(f)
        assert check_exists_equiv(out, out.tseitin_vars, f)

    def test_trivial_literal(self):
        f = parse_formula("a")
        out = tseitin_transform(f)
        assert check_exists_equiv(out.cnf, frozenset(), f, names={1: "a"})

    def test_wrong_reference_rejected(self):
        f = parse_formula("(a & b) | c")
        out = tseitin_transform(f)
        assert not check_exists_equiv(out, out.tseitin_vars, parse_formula("a | c"))

    def test_reference_with_unknown_variable(self):
        f = parse_formula("a")
        out = tseitin_transform(f)
        assert not check_exists_equiv(out, out.tseitin_vars, parse_formula("a & z"))


def _tautology_at_root(c: Circuit, variables) -> bool:
    return CircuitTables(c).tautology_after_exists(mask_of(variables), c.root)


class TestTautologyAfterExists:
    def test_gate_equivalence(self):
        # x2 <=> (c & d), quantifying x2
        c = Circuit({3, 4, 6})
        both = c.add_and([c.add_literal(6), c.add_literal(3), c.add_literal(4)])
        not_c = c.add_and([c.add_literal(-6), c.add_literal(-3)])
        not_d = c.add_and([c.add_literal(-6), c.add_literal(3), c.add_literal(-4)])
        c.set_root(c.add_or([both, not_c, not_d]))
        assert _tautology_at_root(c, {6})
        assert not _tautology_at_root(c, ())

    def test_conjunction_is_not(self):
        c = Circuit({1, 2})
        c.set_root(c.add_and([c.add_literal(1), c.add_literal(2)]))
        assert not _tautology_at_root(c, ())

    def test_excluded_middle_is(self):
        c = Circuit({1})
        c.set_root(c.add_or([c.add_literal(1), c.add_literal(-1)]))
        assert _tautology_at_root(c, ())

    def test_subcircuit_node_argument(self):
        c = Circuit({1, 2}, tseitin_vars={1})
        lit = c.add_literal(1)
        root = c.add_and([lit, c.add_literal(2)])
        c.set_root(root)
        tables = CircuitTables(c)
        assert tables.tautology_after_exists(c.tseitin_mask, lit)
        assert not tables.tautology_after_exists(c.tseitin_mask, root)


def _shared_formula(rng: random.Random, num_vars: int, depth: int, pool: list):
    """Random formula with constants, nested <=> and sub-objects shared
    through ``pool``, which collects every internal node built."""
    if pool and rng.random() < 0.15:
        return rng.choice(pool)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return Const(rng.random() < 0.5)
        return Var(NAMES[rng.randrange(num_vars)])
    kind = rng.randrange(4)
    if kind == 0:
        g = Not(_shared_formula(rng, num_vars, depth - 1, pool))
    elif kind == 1:
        g = Iff(_shared_formula(rng, num_vars, depth - 1, pool),
                _shared_formula(rng, num_vars, depth - 1, pool))
    else:
        kids = tuple(_shared_formula(rng, num_vars, depth - 1, pool)
                     for _ in range(rng.randint(2, 3)))
        g = And(kids) if kind == 2 else Or(kids)
    pool.append(g)
    return g


def _sparse_circuit(rng: random.Random) -> Circuit:
    """Random decomposable circuit over a few variables drawn from 1..10^4;
    some universe variables are never mentioned. Children that share a
    variable are joined by an OR, as the arena refuses their AND; children
    are distinct, as the arena refuses an OR whose children repeat."""
    universe = sorted(rng.sample(range(1, 10**4), rng.randint(1, 7)))
    gates = rng.sample(universe, rng.randint(0, len(universe) // 2))
    c = Circuit(universe, tseitin_vars=gates)
    mentioned = rng.sample(universe, rng.randint(1, len(universe)))
    nodes = [c.add_literal(v if rng.random() < 0.5 else -v) for v in mentioned]
    nodes += [c.add_and(()), c.add_or(())][: rng.randrange(3)]
    for _ in range(rng.randint(0, 8)):
        distinct = list(dict.fromkeys(nodes))  # a node found again is listed again
        kids = rng.sample(distinct, rng.randint(1, min(3, len(distinct))))
        disjoint = not any(c.node(a)[4] & c.node(b)[4] for a, b in combinations(kids, 2))
        nodes.append(c.add_and(kids) if rng.random() < 0.5 and disjoint else c.add_or(kids))
    c.set_root(nodes[-1])
    return c


class TestAgainstPerAssignment:
    """The packed tables against the one-assignment-at-a-time reference of
    tests/helpers.py."""

    def test_formulas(self):
        rng = random.Random(41)
        for _ in range(300):
            num_vars = rng.randint(1, 6)
            f = _shared_formula(rng, num_vars, rng.randint(0, 5), [])
            ms = enumerate_models(f)
            assert (ms.universe, ms.models) == formula_models(f), f
            out = tseitin_transform(f)
            if out.cnf.num_vars > 12:  # kept small for the reference
                continue
            wrong = _shared_formula(rng, num_vars, 2, [])
            models = cnf_models(out.cnf)
            for ref in (f, wrong):
                assert check_exists_equiv(out, out.tseitin_vars, ref) == exists_equiv(
                    *models, out.tseitin_vars, ref, out.names()), (f, ref)

    def test_cnfs(self):
        rng = random.Random(43)
        cnfs = [CnfInstance(0, ()), CnfInstance(0, ((),))]
        for i in range(300):
            cnf = random_cnf(rng, max_vars=8, max_clauses=20, gate_prob=0.3)
            clauses = cnf.clauses + (((),) if i % 5 == 0 else ())
            cnfs.append(CnfInstance(cnf.num_vars + i % 3, clauses))  # i % 3 unused variables
        for cnf in cnfs:
            ms = enumerate_models(cnf)
            assert (ms.universe, ms.models) == cnf_models(cnf), cnf

    def test_sparse_circuits(self):
        rng = random.Random(47)
        for _ in range(300):
            c = _sparse_circuit(rng)
            rows = circuit_rows(c)
            ms = enumerate_models(c)
            assert (ms.universe, ms.models) == circuit_models(c)
            tables = CircuitTables(c)
            assert tables.deterministic() == circuit_deterministic(c, rows)
            xs = set(rng.sample(sorted(c.universe), min(2, len(c.universe)))) | c.tseitin_vars
            for nid in c.reachable():
                assert tables.tautology_after_exists(mask_of(xs), nid) == tautology_after_exists(
                    c, rows, xs, nid), (nid, xs)
