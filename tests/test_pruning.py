import random
from dataclasses import replace

import pytest

from ddnnf import (
    Circuit,
    CircuitTables,
    CompileConfig,
    compile_cnf,
    detect_tseitin_vars,
    model_count,
    parse_dimacs,
    parse_formula,
    parse_nnf,
    size,
    tseitin_transform,
    write_nnf,
)
from ddnnf.bench import gen_mutex_cpt
from ddnnf.oracle import check_exists_equiv, enumerate_models
from ddnnf.pruning import (
    artifact_flags,
    detect_artifacts,
    exists_quantify,
    prune,
    residual_artifacts,
)

from helpers import random_cnf, random_formula, shuffled_order
from test_cnf import OVERLAP_DIMACS


def _overlap_circuit(order=(5,)):
    cnf = replace(parse_dimacs(OVERLAP_DIMACS), tseitin_vars=frozenset({5, 6}))
    return compile_cnf(cnf, CompileConfig(order=list(order)))


def _gate_circuit():
    # x2 <=> (c & d) over {3, 4, 6}, with x2=6 designated
    c = Circuit({3, 4, 6}, tseitin_vars={6})
    both = c.add_and([c.add_literal(6), c.add_literal(3), c.add_literal(4)])
    not_c = c.add_and([c.add_literal(-6), c.add_literal(-3)])
    not_d = c.add_and([c.add_literal(-6), c.add_literal(3), c.add_literal(-4)])
    c.set_root(c.add_or([both, not_c, not_d]))
    return c


class TestExistsQuantify:
    def test_bare_literal_becomes_true(self):
        c = Circuit({1}, tseitin_vars={1})
        c.set_root(c.add_literal(1))
        out = exists_quantify(c, {1})
        root = out.node(out.root)
        assert (root.kind, root.children) == ("A", ())
        assert out.universe == frozenset()

    def test_and_with_quantified_literal(self):
        c = Circuit({1, 2})
        c.set_root(c.add_and([c.add_literal(1), c.add_literal(2)]))
        out = exists_quantify(c, {1})
        assert out.node(out.root).kind == "L"
        assert out.node(out.root).lit == 2

    def test_or_collapses_on_true(self):
        c = Circuit({1, 2})
        c.set_root(c.add_or([c.add_literal(1), c.add_literal(2)]))
        out = exists_quantify(c, {1})
        root = out.node(out.root)
        assert (root.kind, root.children) == ("A", ())

    def test_count_unchanged_on_encoded_overlap(self):
        circuit = _overlap_circuit()
        out = exists_quantify(circuit, {5, 6})
        assert out.universe == {1, 2, 3, 4}
        assert model_count(out) == 7

    def test_outside_universe_rejected(self):
        c = Circuit({1})
        c.set_root(c.add_literal(1))
        with pytest.raises(ValueError):
            exists_quantify(c, {9})

    def test_original_untouched(self):
        circuit = _overlap_circuit()
        text_before = model_count(circuit)
        exists_quantify(circuit, {5, 6})
        assert model_count(circuit) == text_before


class TestDetect:
    def test_gate_equivalence_flagged(self):
        c = _gate_circuit()
        flags = artifact_flags(c)
        assert c.root in flags
        assert detect_artifacts(c) == {c.root}

    def test_plain_conjunction_not_flagged(self):
        c = Circuit({1, 2})
        root = c.add_and([c.add_literal(1), c.add_literal(2)])
        c.set_root(root)
        assert root not in artifact_flags(c)

    def test_tseitin_literal_is_degenerate_artifact(self):
        c = Circuit({1, 2}, tseitin_vars={1})
        lit = c.add_literal(1)
        c.set_root(c.add_and([lit, c.add_literal(2)]))
        assert lit in artifact_flags(c)

    def test_maximality(self):
        # the whole gate circuit is flagged, so inner flagged nodes (the
        # x2 literals) must not be reported as roots
        c = _gate_circuit()
        assert detect_artifacts(c) == {c.root}

    def test_rootless_circuit_has_no_roots(self):
        assert detect_artifacts(Circuit({1}, tseitin_vars={1})) == set()

    def test_flags_match_tautology_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            f = random_formula(rng, max_vars=4, depth=3)
            out = tseitin_transform(f)
            circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
            flags = artifact_flags(circuit)
            tables = CircuitTables(circuit)
            for nid in circuit.reachable():
                expected = tables.tautology_after_exists(circuit.tseitin_mask, nid)
                assert (nid in flags) == expected


class TestPrune:
    def test_worked_example(self):
        circuit = _overlap_circuit()
        pruned, report = prune(circuit)
        assert report.artifacts_internal >= 1
        assert model_count(pruned) == 7
        assert pruned.universe == {1, 2, 3, 4}
        assert (
            report.size_after_artifacts
            < report.size_after_exists
            < report.size_before
        )

    def test_ordering_sensitivity(self):
        out = tseitin_transform(parse_formula("(a & b) | c"))
        with_artifact = compile_cnf(out.cnf, CompileConfig(order=[3, 1, 2, 4]))
        _, report = prune(with_artifact)
        assert report.artifacts_internal >= 1

        without = compile_cnf(out.cnf, CompileConfig(order=[4, 1, 2, 3]))
        _, report2 = prune(without)
        assert report2.artifacts_internal == 0

    def test_identity_without_tseitin_vars(self):
        circuit = compile_cnf(parse_dimacs(OVERLAP_DIMACS))
        pruned, report = prune(circuit)
        assert pruned is circuit
        assert report.artifacts_found == 0
        assert report.size_before == report.size_after_artifacts

    def test_degenerate_roots_only_prune_like_quantification(self):
        # Every artifact root of a mutually exclusive CPT circuit is a gate
        # literal or true; quantification alone turns those into true.
        encoded = tseitin_transform(gen_mutex_cpt(3, 2, 0))
        circuit = compile_cnf(encoded.cnf, CompileConfig(order="dynamic"))
        pruned, report = prune(circuit)
        assert report.artifacts_internal == 0 < report.artifacts_degenerate
        assert write_nnf(pruned) == write_nnf(exists_quantify(circuit, circuit.tseitin_vars))
        assert report.size_after_artifacts == report.size_after_exists

    def test_report_fields(self):
        circuit = _overlap_circuit()
        _, report = prune(circuit)
        assert report.artifacts_found == (
            report.artifacts_internal + report.artifacts_degenerate
        )
        assert report.artifact_node_ids == sorted(report.artifact_node_ids)
        assert 0 < report.frac_t <= report.frac_p <= 1.0
        assert f"before={report.size_before}" in report.summary()

    def test_structure_preserved(self):
        rng = random.Random(19)
        for _ in range(25):
            f = random_formula(rng, max_vars=4, depth=3)
            out = tseitin_transform(f)
            circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
            pruned, report = prune(circuit)
            assert residual_artifacts(pruned) == []
            assert CircuitTables(pruned).deterministic()
            assert report.size_after_artifacts <= report.size_after_exists
            assert report.size_after_exists <= report.size_before

    def test_equivalence_and_count_preserved(self):
        rng = random.Random(29)
        for _ in range(25):
            f = random_formula(rng, max_vars=4, depth=3)
            out = tseitin_transform(f)
            circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
            pruned, _ = prune(circuit)
            assert model_count(pruned) == model_count(circuit)
            assert check_exists_equiv(pruned, frozenset(), f, names=out.names())

    def test_detected_vars_from_external_cnf(self):
        # pipeline on a CNF whose gate variables were recovered, not given
        rng = random.Random(37)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=8, max_clauses=16, gate_prob=0.8)
            cnf = replace(cnf, tseitin_vars=detect_tseitin_vars(cnf))
            circuit = compile_cnf(cnf, CompileConfig(order="dynamic"))
            pruned, _ = prune(circuit)
            assert residual_artifacts(pruned) == []
            expected = enumerate_models(cnf).project(
                tuple(v for v in range(1, cnf.num_vars + 1) if v not in cnf.tseitin_vars)
            )
            got = enumerate_models(pruned)
            assert got.models == expected.models

    def test_verify_mode_accepts_clean_pipeline(self):
        assert residual_artifacts(prune(_overlap_circuit())[0]) == []

    def test_monotone_size_across_orders(self):
        for order in ([5], [6], [1, 2, 3, 4, 5, 6], [4, 2, 6]):
            circuit = _overlap_circuit(order=order)
            _, report = prune(circuit)
            assert (
                report.size_after_artifacts
                <= report.size_after_exists
                <= report.size_before
            )


def test_verify_refuses_residual_tautology():
    # Variable 2 is declared a gate but a does not define it. (a & g) | !a
    # has 3 models, so no node is flagged, yet forgetting g leaves a | !a,
    # node 3 of the pruned circuit.
    c = Circuit({1, 2}, tseitin_vars={2})
    a_g = c.add_and([c.add_literal(1), c.add_literal(2)])
    c.set_root(c.add_or([a_g, c.add_literal(-1)], decision=1))
    pruned, report = prune(c)
    assert residual_artifacts(pruned) == [3]
    assert report.artifacts_internal == 0


def test_prop1_iff_on_hand_built_artifact():
    c = _gate_circuit()
    tables = CircuitTables(c)
    assert tables.tautology_after_exists(c.tseitin_mask, c.root)
    assert not tables.tautology_after_exists(0, c.root)


# x5 <=> (x1 & x2) under x3, with x5 designated. The artifact root (node 10)
# and the non-artifact OR of node 7 share the subtree (!x1 | (x1 & !x2)) with
# the other branch of the root.
SHARED_ARTIFACT_C2D = """nnf 16 17 5
c universe 1 2 3 5
c tseitin 5
L 1
L 2
L 5
A 3 0 1 2
L -1
L -2
A 2 0 5
O 1 2 4 6
L -5
A 2 8 7
O 5 2 3 9
L 3
A 2 11 10
L -3
A 2 13 7
O 3 2 12 14
"""


# Quantifying x3 turns node 7 into x1 | x2, an OR over the same children as
# the AND of node 2. Nodes 7 and 15 (x5 <=> x4) are internal artifact roots.
SAME_CHILDREN_C2D = """nnf 17 18 5
c tseitin 3 5
L 1
L 2
A 2 0 1
L 3
A 2 3 0
L -3
A 2 5 1
O 3 2 4 6
O 0 2 2 7
L 5
L 4
A 2 9 10
L -5
L -4
A 2 12 13
O 5 2 11 14
A 2 8 15
"""


class TestSizeAfterExists:
    """The report's quantified-only size equals the size of the circuit that
    quantification alone builds."""

    def _check(self, circuit):
        pruned, report = prune(circuit)
        exists_only = exists_quantify(circuit, circuit.tseitin_vars)
        assert report.size_after_exists == size(exists_only)
        assert report.size_after_artifacts == size(pruned)
        return report

    def test_shared_artifact_subtree(self):
        circuit = parse_nnf(SHARED_ARTIFACT_C2D)
        report = self._check(circuit)
        assert report.artifact_node_ids == [10]
        assert report.size_after_artifacts < report.size_after_exists

    def test_and_and_or_over_same_children(self):
        report = self._check(parse_nnf(SAME_CHILDREN_C2D))
        assert report.artifacts_internal == 2

    def test_random_compiled_circuits(self):
        rng = random.Random(53)
        internal = 0
        for i in range(150):
            cnf = random_cnf(rng, max_vars=12, max_clauses=20, gate_prob=0.8)
            cnf = replace(cnf, tseitin_vars=detect_tseitin_vars(cnf))
            order = ("input", "dynamic", shuffled_order(cnf.num_vars, i))[i % 3]
            circuit = compile_cnf(cnf, CompileConfig(order=order))
            internal += self._check(circuit).artifacts_internal
        assert internal > 0
