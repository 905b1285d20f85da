import random

import pytest

from ddnnf import (
    Circuit,
    CircuitTables,
    model_count,
    parse_dimacs,
    parse_nnf,
    size,
    stats_line,
    write_nnf,
)
from ddnnf.circuit import mask_of, variables
from ddnnf.compiler import CompileConfig, compile
from ddnnf.errors import OracleBoundError

from test_cnf import OVERLAP_DIMACS


def _and_of_literals(*lits, universe=None):
    c = Circuit(universe or {abs(l) for l in lits})
    c.set_root(c.add_and([c.add_literal(l) for l in lits]))
    return c


class TestArena:
    def test_dedup_idempotent(self):
        c = Circuit({1, 2})
        n1 = c.add_and([c.add_literal(1), c.add_literal(2)])
        n2 = c.add_and([c.add_literal(2), c.add_literal(1)])
        assert n1 == n2
        assert len(c) == 3

    def test_constants_are_singletons(self):
        c = Circuit({1})
        assert c.add_and(()) == c.add_and(())
        assert c.add_or(()) == c.add_or(())

    def test_constants_are_empty_gates(self):
        # True is the AND of nothing, false the OR of nothing; a decision
        # picks one child, so false keeps none.
        c = Circuit({1})
        assert c.add_and([]) == c.add_and(())
        assert c.add_or([], decision=1) == c.add_or(())
        assert c.node(c.add_or(())).decision == 0
        assert len(c) == 2

    def test_literal_outside_universe(self):
        c = Circuit({1})
        with pytest.raises(ValueError):
            c.add_literal(2)

    def test_varsets_cached_correctly(self):
        c = Circuit({1, 2, 3})
        lit = c.add_literal(1)
        inner = c.add_and([lit, c.add_literal(2)])
        outer = c.add_or([inner, c.add_literal(3)])
        c.set_root(outer)
        for nid in c.reachable():
            node = c.node(nid)
            if node.kind == "L":
                assert node.varset == {abs(node.lit)}
            elif node.children:
                expected = frozenset().union(
                    *(c.node(ch).varset for ch in node.children)
                )
                assert node.varset == expected

    def test_reachable_follows_set_root_and_is_immutable(self):
        c = Circuit({1, 2, 3})
        a, b = c.add_literal(1), c.add_literal(2)
        ab = c.add_and([a, b])
        c.set_root(ab)
        first = c.reachable()
        assert list(first) == [a, b, ab]
        with pytest.raises((TypeError, AttributeError)):
            first.append(0)
        with pytest.raises(TypeError):
            first[0] = 5
        assert c.reachable() == first
        lit3 = c.add_literal(3)
        top = c.add_or([ab, lit3])
        c.set_root(a)
        assert list(c.reachable()) == [a]
        c.set_root(top)
        assert list(c.reachable()) == [a, b, ab, lit3, top]

    def test_tseitin_must_be_inside_universe(self):
        with pytest.raises(ValueError):
            Circuit({1}, tseitin_vars={2})

    @pytest.mark.parametrize("universe", [{0, 1}, {0}, 0b111, 0b1],
                             ids=["set", "set_of_zero", "mask", "mask_of_zero"])
    def test_universe_refuses_variable_0(self, universe):
        # Variables start at 1: a universe holding 0 would be written as a
        # directive the reader refuses.
        with pytest.raises(ValueError, match="^variable 0 in universe$"):
            Circuit(universe)


class TestLiteralTable:
    def test_known_literal_adds_no_node(self):
        c = Circuit({1, 2})
        x, nx = c.add_literal(1), c.add_literal(-1)
        assert (x, nx) == (0, 1)  # id 0 is a node like any other
        assert c.add_literal(1) == x and c.add_literal(-1) == nx
        assert len(c) == 2
        assert c.literal_ids == {1: x, -1: nx}

    @pytest.mark.parametrize("lit", [0, 2, -2, 4, 2**70])  # 2: the gap in {1, 3}
    def test_refused_literal_leaves_arena_and_table(self, lit):
        c = Circuit({1, 3})
        x = c.add_literal(1)
        for _ in range(2):  # refused again, not found in the table
            with pytest.raises(ValueError, match=f"^literal {lit} outside universe$"):
                c.add_literal(lit)
            assert len(c) == 1 and c.literal_ids == {1: x}
        assert c.add_literal(-3) == 1

    def test_c2d_literal_lines_share_one_node(self):
        circuit = parse_nnf("nnf 4 2 2\nL 1\nL 2\nL 1\nO 0 2 1 2\n")
        assert len(circuit) == 3  # the second L 1 is the first one's node
        assert circuit.literal_ids == {1: 0, 2: 1}
        assert circuit.node(circuit.root).children == (0, 1)
        assert write_nnf(circuit) == "nnf 3 2 2\nL 1\nL 2\nO 0 2 0 1\n"


class TestSize:
    def test_ternary_and_counts_two(self):
        assert size(_and_of_literals(1, 2, 3)) == 2

    def test_single_literal(self):
        c = Circuit({1})
        c.set_root(c.add_literal(1))
        assert size(c) == 0

    def test_disjunction_of_conjunctions(self):
        c = Circuit({1, 2, 3, 4})
        left = c.add_and([c.add_literal(1), c.add_literal(2)])
        right = c.add_and([c.add_literal(3), c.add_literal(4)])
        c.set_root(c.add_or([left, right]))
        assert size(c) == 3

    def test_unreachable_nodes_ignored(self):
        c = Circuit({1, 2})
        c.add_and([c.add_literal(1), c.add_literal(2)])
        c.set_root(c.add_literal(1))
        assert size(c) == 0


class TestChecks:
    def test_non_decomposable(self):
        with pytest.raises(ValueError, match="^AND children share a variable$"):
            _and_of_literals(1, -1, universe={1})
        c = Circuit({1, 2, 3})
        ab = c.add_and([c.add_literal(1), c.add_literal(2)])
        with pytest.raises(ValueError):
            c.add_and([ab, c.add_literal(-2)])  # shared below the children
        with pytest.raises(ValueError):
            c.add_and([ab, ab])  # one child twice

    def test_or_children_repeat(self):
        # An OR of one child twice would count that child's models twice.
        c = Circuit({1})
        x, false = c.add_literal(1), c.add_or(())
        for kids in ([x, x], [false, x, false]):
            with pytest.raises(ValueError, match="^OR children repeat$"):
                c.add_or(kids)
            assert len(c) == 2
        assert c.add_or([x, false]) == 2

    def test_refused_and_leaves_the_arena_as_it_was(self):
        c = Circuit({1, 2})
        x, nx = c.add_literal(1), c.add_literal(-1)
        dedup = dict(c._dedup)
        for _ in range(2):  # refused again, not found in the table
            with pytest.raises(ValueError):
                c.add_and([x, nx])
            assert len(c) == 2 and c._dedup == dedup
        assert c.add_literal(2) == 2
        assert c.add_and([x, 2]) == 3

    def test_decomposable(self):
        c = _and_of_literals(1, 2)
        assert len(c) == 3 and size(c) == 1

    def test_compile_outputs_decomposable(self):
        # The arena refuses any other AND, so compiling raises nothing.
        circuit = compile(parse_dimacs(OVERLAP_DIMACS))
        assert model_count(circuit) == 7  # (a & b) | (c & d); gates 5 and 6 are defined

    def test_deterministic_oracle(self):
        c = Circuit({1, 2})
        branch = c.add_and([c.add_literal(-1), c.add_literal(2)])
        c.set_root(c.add_or([c.add_literal(1), branch]))
        assert CircuitTables(c).deterministic()

        c2 = Circuit({1, 2})
        c2.set_root(c2.add_or([c2.add_literal(1), c2.add_literal(2)]))
        assert not CircuitTables(c2).deterministic()

    def test_oracle_bound(self, monkeypatch):
        c = Circuit(range(1, 30))
        c.set_root(c.add_and(()))
        with pytest.raises(OracleBoundError):
            CircuitTables(c)
        monkeypatch.setenv("DDNNF_ORACLE_MAX_VARS", "30")
        assert CircuitTables(c).deterministic()


class TestSerialization:
    def test_true_circuit_format(self):
        c = Circuit({1, 2, 3, 4})
        c.set_root(c.add_and(()))
        assert write_nnf(c) == "nnf 1 0 4\nA 0\n"

    def test_and_roundtrip(self):
        c = _and_of_literals(1, 2)
        assert parse_nnf(write_nnf(c)) == c

    def test_emit_parse_emit_idempotent(self):
        circuit = compile(parse_dimacs(OVERLAP_DIMACS), CompileConfig(order=[5]))
        once = write_nnf(circuit)
        assert write_nnf(parse_nnf(once)) == once

    def test_universe_and_tseitin_directives_roundtrip(self):
        c = Circuit({1, 3}, tseitin_vars={3})
        c.set_root(c.add_and([c.add_literal(1), c.add_literal(3)]))
        text = write_nnf(c)
        assert "c universe 1 3" in text
        assert "c tseitin 3" in text
        assert parse_nnf(text) == c

    def test_size_invariant_under_reserialization(self):
        circuit = compile(parse_dimacs(OVERLAP_DIMACS))
        assert size(parse_nnf(write_nnf(circuit))) == size(circuit)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Circuit({1}).add_and([5]), "unknown child id 5"),
        (lambda: Circuit({1}).set_root(9), "unknown node id 9"),
        (lambda: write_nnf(Circuit({1})), "circuit has no root"),
        (lambda: model_count(Circuit({1})), "circuit has no root"),
    ],
    ids=["add_and", "set_root", "write_nnf", "model_count"],
)
def test_refusal_message_pinned(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_stats_line():
    circuit = compile(parse_dimacs(OVERLAP_DIMACS), CompileConfig(order=[5]))
    line = stats_line(circuit)
    assert line.startswith("size=16 ")
    assert "vars=6" in line and "tseitin=0" in line


def test_variables_of_sparse_and_dense_masks():
    # Masks of few set bits are read off the top, the others through one
    # string of binary digits: both give the set bits ascending.
    rng = random.Random(11)
    for k in (0, 1, 2, 15, 16, 17, 64, 300):
        for top in (k, 2 * k + 5, 10**5):
            vs = set(rng.sample(range(top + 1), k))
            assert list(variables(sum(1 << v for v in vs))) == sorted(vs)
            assert mask_of(vs) == sum(1 << v for v in vs)


def test_mask_of_matches_shifted_bits():
    rng = random.Random(5)
    cases = [set(), {1, 10**6}, {0}, set(range(1, 300))]
    cases += [{rng.randrange(2000) for _ in range(rng.randrange(40))} for _ in range(200)]
    for vs in cases:
        assert mask_of(vs) == sum(1 << v for v in set(vs))
    assert mask_of(iter([3, 3, 1])) == 0b1010
    with pytest.raises(ValueError):
        mask_of({1, -2})
