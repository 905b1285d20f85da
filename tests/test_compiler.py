import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    CnfInstance,
    tseitin_transform,
    check_decomposable,
    check_deterministic_oracle,
    model_count,
    parse_dimacs,
    parse_nnf,
    size,
    write_nnf,
)
from ddnnf.compiler import (
    CompileBudgetError,
    CompileConfig,
    NnfFormatError,
    _occurrences,
    _propagate,
    compile,
    component_key,
)
from ddnnf.bench import gen_mutex_cpt, gen_noisy_or, gen_overlapping_disjunction
from ddnnf.oracle import circuit_truth_tables, enumerate_models

from helpers import cnf_strategy, condition, random_cnf, split_components
from test_cnf import OVERLAP_DIMACS


class TestCompile:
    def test_unit_clause_becomes_literal(self):
        circuit = compile(CnfInstance.from_raw(1, [[1]]))
        assert circuit.node(circuit.root).kind == "L"
        assert circuit.node(circuit.root).lit == 1

    def test_conflict_becomes_false(self):
        circuit = compile(CnfInstance.from_raw(1, [[1], [-1]]))
        assert circuit.node(circuit.root).kind == "F"

    def test_empty_cnf_becomes_true(self):
        circuit = compile(CnfInstance.from_raw(3, []))
        assert circuit.node(circuit.root).kind == "T"
        assert model_count(circuit) == 8

    def test_gate_subcircuit_under_first_branch(self):
        # Branching the overlap encoding on x1 first isolates the second
        # gate as a variable-disjoint component over {x2, c, d}.
        cnf = parse_dimacs(OVERLAP_DIMACS)
        circuit = compile(cnf, CompileConfig(order=[5]))
        gate_nodes = [
            nid
            for nid in circuit.reachable()
            if circuit.node(nid).varset == {3, 4, 6}
            and circuit.node(nid).kind in ("A", "O")
        ]
        assert gate_nodes
        tables, full = circuit_truth_tables(circuit)
        reference = _gate_table(circuit)
        assert any(tables[nid] == reference for nid in gate_nodes)

    def test_all_branching_modes_equivalent(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        expected = enumerate_models(cnf).models
        configs = [
            CompileConfig(order="input"),
            CompileConfig(order="dynamic"),
            CompileConfig(order="random", seed=3),
            CompileConfig(order=[6, 2, 4]),
            CompileConfig(order="input", cache_enabled=False),
        ]
        for cfg in configs:
            circuit = compile(cnf, cfg)
            assert enumerate_models(circuit).models == expected

    def test_random_cnfs_match_brute_force(self):
        rng = random.Random(42)
        for i in range(60):
            cnf = random_cnf(rng, max_vars=10, max_clauses=30)
            cfg = [
                CompileConfig(order="input"),
                CompileConfig(order="dynamic"),
                CompileConfig(order="random", seed=i),
            ][i % 3]
            circuit = compile(cnf, cfg)
            assert enumerate_models(circuit).models == enumerate_models(cnf).models
            assert check_decomposable(circuit)[0]

    @given(cnf_strategy(max_vars=7, max_clauses=12))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_by_construction(self, cnf):
        circuit = compile(cnf, CompileConfig(order="dynamic"))
        assert check_deterministic_oracle(circuit, max_vars=10)

    def test_cache_only_changes_sharing(self):
        rng = random.Random(9)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=8, max_clauses=20)
            with_cache = compile(cnf, CompileConfig(cache_enabled=True))
            without = compile(cnf, CompileConfig(cache_enabled=False))
            assert size(with_cache) == size(without)
            assert model_count(with_cache) == model_count(without)

    def test_budget_exceeded(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        with pytest.raises(CompileBudgetError):
            compile(cnf, CompileConfig(max_decisions=1))

    def test_explicit_order_validation(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        with pytest.raises(ValueError):
            compile(cnf, CompileConfig(order=[1, 1]))
        with pytest.raises(ValueError):
            compile(cnf, CompileConfig(order=[99]))

    def test_free_variables_tracked_by_universe(self):
        cnf = CnfInstance.from_raw(4, [[1]])
        circuit = compile(cnf)
        assert circuit.universe == {1, 2, 3, 4}
        assert model_count(circuit) == 8

    def test_tseitin_designation_carried(self):
        cnf = CnfInstance.from_raw(2, [[1, 2]], tseitin_vars={2})
        assert compile(cnf).tseitin_vars == {2}


def _gate_table(circuit):
    # truth table of x2 <=> (c & d) over the full universe, from a
    # hand-built reference circuit
    from ddnnf import Circuit

    c = Circuit(circuit.universe)
    both = c.add_and([c.add_literal(6), c.add_literal(3), c.add_literal(4)])
    neither_c = c.add_and([c.add_literal(-6), c.add_literal(-3)])
    neither_d = c.add_and([c.add_literal(-6), c.add_literal(-4)])
    c.set_root(c.add_or([both, neither_c, neither_d]))
    tables, _ = circuit_truth_tables(c)
    return tables[c.root]


def _chain(n):
    # x1 -> x2 -> ... -> xn: n + 1 models, one decision level per variable
    # in input order
    return CnfInstance.from_raw(n, [[-i, i + 1] for i in range(1, n)])


def _golden_instances():
    cnfs = [tseitin_transform(gen_mutex_cpt(n, 2, seed)).cnf for n, seed in ((3, 0), (5, 1), (7, 2))]
    cnfs += [tseitin_transform(gen_noisy_or(n)).cnf for n in (2, 4, 8)]
    cnfs += [tseitin_transform(gen_overlapping_disjunction(n)).cnf for n in (2, 3, 6)]
    cnfs += [_chain(n) for n in (2, 9, 40)]
    # Unnormalized clauses: repeated literals, a tautology, an empty clause.
    cnfs += [
        CnfInstance(3, ((1, 1, 2), (-2,), (-1, -1, 3))),
        CnfInstance(4, ((1, -1), (2, 3, 3), (-3, 4), (-4, 2, 1))),
        CnfInstance(2, ((1,), ())),
    ]
    rng = random.Random(2024)
    cnfs += [random_cnf(rng, max_vars=9, max_clauses=24, gate_prob=0.3) for _ in range(60)]
    return cnfs


# sha256 over the concatenated write_nnf texts of _golden_instances(),
# recorded from the recursive compiler that the explicit-stack one replaced.
GOLDEN_NNF_SHA256 = {
    "input": "47bfc1aff227e02af4d2c8c5289d3e0f7cdf7ba40b00b46efd422c917a334d68",
    "dynamic": "43fb6eb5faa0bff0e6183d7a830099762b7c78bd93876337fe0cd5367de87119",
    "random": "75fd5491e5a40bdf7d29f5203179e793591288a6e9897bb942c34f7792bc9a2a",
}


@pytest.mark.parametrize("cache_enabled", [True, False])
@pytest.mark.parametrize("order", sorted(GOLDEN_NNF_SHA256))
def test_output_bytes_pinned(order, cache_enabled):
    digest = hashlib.sha256()
    for cnf in _golden_instances():
        circuit = compile(cnf, CompileConfig(order=order, cache_enabled=cache_enabled))
        digest.update(write_nnf(circuit).encode())
    assert digest.hexdigest() == GOLDEN_NNF_SHA256[order]


def test_result_freed_without_cycle_collector():
    # Nothing of a compile run may keep the circuit (or the cache) alive
    # once the caller drops it.
    gc.disable()
    try:
        ref = weakref.ref(compile(parse_dimacs(OVERLAP_DIMACS)))
        assert ref() is None
    finally:
        gc.enable()


class TestDeepInputs:
    def test_long_implication_chain(self):
        circuit = compile(_chain(800), CompileConfig(order="input"))
        assert model_count(circuit) == 801

    def test_wide_overlapping_disjunction(self):
        n = 250
        encoded = tseitin_transform(gen_overlapping_disjunction(n))
        circuit = compile(encoded.cnf, CompileConfig(order="input"))
        assert model_count(circuit) == 4**n - 3**n


def _propagate_reference(cnf, lit):
    # Condition on ``lit`` (0: on nothing), then on the first unit clause in
    # clause order until none is left, then split into components.
    units = []
    while True:
        if lit:
            cnf = condition(cnf, lit)
        if any(not c for c in cnf.clauses):
            return None
        lit = next((c[0] for c in cnf.clauses if len(c) == 1), 0)
        if not lit:
            return units, [comp.clauses for comp in split_components(cnf)]
        units.append(lit)


class TestPropagate:
    @given(cnf_strategy(max_vars=8, max_clauses=16), st.integers(min_value=-8, max_value=8))
    @settings(max_examples=300, deadline=None)
    def test_matches_one_unit_at_a_time(self, cnf, lit):
        if abs(lit) > cnf.num_vars:
            lit = 0
        clauses = cnf.clauses
        assert _propagate(clauses, _occurrences(clauses), lit) == _propagate_reference(cnf, lit)

    def test_matches_on_unnormalized_clauses(self):
        # Repeated literals, tautologies, unit and empty clauses, as a
        # CnfInstance built directly keeps them.
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 7)
            clauses = [
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(0, 12))
            ]
            clauses = [c for c in clauses if c or rng.random() < 0.1]
            cnf = CnfInstance(n, tuple(clauses))
            for lit in (0, rng.randint(1, n), -rng.randint(1, n)):
                got = _propagate(cnf.clauses, _occurrences(cnf.clauses), lit)
                assert got == _propagate_reference(cnf, lit)


def test_component_key_canonical():
    assert component_key([(1, 2), (3,)]) == component_key([(3,), (1, 2), (1, 2)])
    assert component_key([(1, 2)]) != component_key([(1, 3)])


class TestParseC2d:
    def test_two_literal_conjunction(self):
        circuit = parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 2 0 1")
        root = circuit.node(circuit.root)
        assert root.kind == "A"
        assert {circuit.node(c).lit for c in root.children} == {1, 2}
        assert circuit.universe == {1, 2}

    def test_constants(self):
        assert parse_nnf("nnf 1 0 0\nA 0").node(0).kind == "T"
        assert parse_nnf("nnf 1 0 0\nO 0 0").node(0).kind == "F"

    def test_decision_variable_preserved(self):
        text = "nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1"
        circuit = parse_nnf(text)
        assert circuit.node(circuit.root).decision == 1
        assert write_nnf(circuit) == text + "\n"

    def test_dangling_reference(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 2 0 99")

    def test_forward_reference_rejected(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 2 1 1\nA 1 1\nL 1")

    def test_literal_out_of_range(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 1 0 1\nL 5")

    def test_missing_header(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("L 1")

    def test_child_count_mismatch(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 3 0 1")

    def test_node_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse_nnf("nnf 5 0 1\nL 1")

    def test_non_decomposable_rejected(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 1\nL 1\nL -1\nA 2 0 1")

    # Messages and line numbers recorded from the reader that kept every
    # line's tokens before building any node.
    @pytest.mark.parametrize(
        "text, message",
        [
            (  # comments and a blank line between node lines count as lines
                "nnf 4 3 2\nc first\nL 1\nc between nodes\n\nL 2\nc universe 1 2\n"
                "A 2 0 1\nc last\nO 0 2 2 x",
                "line 10: non-integer argument",
            ),
            (  # a universe directive after the node lines still applies
                "nnf 3 2 3\nL 1\nL 3\nA 2 0 1\nc universe 1 2",
                "line 3: literal 3 out of range",
            ),
            ("nnf 3 2 2\nL 1\nL 2\nA 2 0 99", "line 4: dangling node reference 99"),
            ("nnf 3 2 2\nL 1\nL 2\nA 2 -1 1", "line 4: dangling node reference -1"),
            ("nnf 2 1 1\nL 1\nA 1 zero", "line 3: non-integer argument"),
            ("nnf 1 0 1\nL one", "line 2: non-integer argument"),
            ("nnf 2 1 1\nL 1\nX 1 0", "line 3: unknown node tag 'X'"),
            ("c hello\nL 1\nnnf 1 0 1", "line 2: node before 'nnf' header"),
            ("nnf 1 0 1\nL 1\nnnf 1 0 1", "line 3: duplicate header"),
            # directive tokens are arguments too
            ("nnf 1 0 2\nc universe 1 x\nL 1", "line 2: non-integer argument"),
            ("nnf 1 0 2\nL 1\nc tseitin 2 y", "line 3: non-integer argument"),
        ],
    )
    def test_error_message_pinned(self, text, message):
        with pytest.raises(NnfFormatError, match=f"^{message}$"):
            parse_nnf(text)

    def test_node_count_mismatch_warning_pinned(self):
        with pytest.warns(UserWarning, match="^header declares 5 nodes, found 3$") as record:
            circuit = parse_nnf("nnf 5 2 2\nL 1\nc between\nL 2\nA 2 0 1")
        assert record[0].filename == __file__
        assert size(circuit) == 1


class TestParseD4:
    def test_or_with_guarded_edge(self):
        circuit = parse_nnf("1 o 0\n2 t 0\n1 2 3 0", format="d4")
        root = circuit.node(circuit.root)
        assert root.kind == "O"
        assert len(root.children) == 1
        child = circuit.node(root.children[0])
        assert child.kind == "A"
        kinds = {circuit.node(c).kind for c in child.children}
        assert kinds == {"L", "T"}
        assert circuit.universe == {1, 2, 3}

    def test_d4_native_token_order(self):
        # real d4 output puts the type letter first
        circuit = parse_nnf("o 1 0\nt 2 0\n1 2 3 0", format="d4")
        assert circuit.node(circuit.root).kind == "O"

    def test_and_node_flattens_edges(self):
        text = "1 a 0\n2 t 0\n3 t 0\n1 2 1 0\n1 3 2 0"
        circuit = parse_nnf(text, format="d4")
        root = circuit.node(circuit.root)
        assert root.kind == "A"

    def test_model_equivalence_with_c2d_writer(self):
        circuit = parse_nnf("1 o 0\n2 t 0\n3 t 0\n1 2 -1 0\n1 3 1 2 0", format="d4")
        again = parse_nnf(write_nnf(circuit))
        assert enumerate_models(again).models == enumerate_models(circuit).models

    def test_deep_chain(self):
        # 3,000 nested OR nodes, each with one edge guarded by its own
        # literal: x1 & ... & x3000, one model.
        n = 3000
        lines = [f"{k} o 0" for k in range(1, n + 1)] + [f"{n + 1} t 0"]
        lines += [f"{k} {k + 1} {k} 0" for k in range(1, n + 1)]
        circuit = parse_nnf("\n".join(lines), format="d4")
        assert len(circuit.universe) == n
        assert model_count(circuit) == 1

    def test_undeclared_node(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("1 o 0\n1 9 2 0", format="d4")

    def test_cyclic_reference(self):
        text = "1 o 0\n2 o 0\n1 2 1 0\n2 1 -1 0"
        with pytest.raises(NnfFormatError):
            parse_nnf(text, format="d4")

    def test_missing_terminator(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("1 o", format="d4")

    @pytest.mark.parametrize(
        "text, line", [("o 1 0\nt 2 0\n1 2 0 0", 3), ("1 o 0\n2 t 0\nc x\n1 2 3 0 -1 0", 4)]
    )
    def test_literal_zero_in_edge_guard(self, text, line):
        with pytest.raises(NnfFormatError, match=f"^line {line}: literal 0 in edge guard$"):
            parse_nnf(text, format="d4")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            parse_nnf("nnf 1 0 0\nA 0", format="dimacs")
