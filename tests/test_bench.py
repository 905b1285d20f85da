import pytest

from ddnnf import (
    And,
    CompileConfig,
    Iff,
    Or,
    Var,
    compile_cnf,
    model_count,
    parse_formula,
    tseitin_transform,
)
from ddnnf.bench import (
    CSV_HEADER,
    gen_mutex_cpt,
    gen_noisy_or,
    gen_overlapping_disjunction,
    run_bench,
)
from ddnnf.oracle import enumerate_models


class TestOverlapGenerator:
    def test_n2_matches_textbook_instance(self):
        assert gen_overlapping_disjunction(2) == parse_formula("(a & b) | (c & d)")

    def test_n1_degenerates_to_conjunction(self):
        assert gen_overlapping_disjunction(1) == And((Var("a"), Var("b")))

    def test_n3_model_count(self):
        f = gen_overlapping_disjunction(3)
        # complement: each pair has 3 non-satisfying settings
        assert enumerate_models(f).count() == 2**6 - 3**3 == 37

    def test_large_n_names_stay_valid(self):
        f = gen_overlapping_disjunction(20)
        assert len(f.children) == 20

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_overlapping_disjunction(0)


class TestNoisyOrGenerator:
    def test_structure(self):
        f = gen_noisy_or(2)
        assert isinstance(f, And)
        assert isinstance(f.children[1], Iff)

    def test_model_counts(self):
        assert enumerate_models(gen_noisy_or(1)).count() == 1
        assert enumerate_models(gen_noisy_or(2)).count() == 7  # 4^2 - 3^2

    def test_gate_variable_per_parent(self):
        for n in (2, 3, 5):
            out = tseitin_transform(gen_noisy_or(n))
            assert len(out.tseitin_vars) == n

    def test_deterministic(self):
        assert gen_noisy_or(4) == gen_noisy_or(4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_noisy_or(0)


class TestMutexGenerator:
    def test_single_node_two_parents_has_four_cases(self):
        f = gen_mutex_cpt(1, 2, seed=0)
        assert isinstance(f, Iff)
        assert isinstance(f.right, Or)
        assert len(f.right.children) == 4

    def test_zero_parents_degenerates(self):
        f = gen_mutex_cpt(1, 0, seed=0)
        assert f == Iff(Var("c1"), Var("t1_0"))

    def test_cases_mutually_exclusive(self):
        f = gen_mutex_cpt(1, 2, seed=3)
        cases = f.right.children
        for i in range(len(cases)):
            for j in range(i + 1, len(cases)):
                pair = And((cases[i], cases[j]))
                assert enumerate_models(pair).count() == 0

    def test_single_parent_instance_count(self):
        f = gen_mutex_cpt(1, 1, seed=0)
        # 4 variables: the node, one exogenous parent, two parameters; the
        # node value is determined, everything else is free.
        assert enumerate_models(f).count() == 8

    def test_deterministic_given_seed(self):
        assert gen_mutex_cpt(4, 2, 11) == gen_mutex_cpt(4, 2, 11)
        assert gen_mutex_cpt(4, 2, 11) != gen_mutex_cpt(4, 2, 12)

    def test_parent_bounds(self):
        with pytest.raises(ValueError):
            gen_mutex_cpt(2, 4, seed=0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            gen_mutex_cpt(0, 2, seed=0)


class TestRunBench:
    def test_empty_range(self):
        report = run_bench("overlap", [])
        assert report.rows == []
        assert report.to_csv() == CSV_HEADER + "\n"

    def test_noisy_or_monotone_artifacts(self):
        report = run_bench("noisy_or", range(2, 6))
        artifacts = [row.artifacts for row in report.rows]
        assert artifacts == sorted(artifacts)
        for row in report.rows:
            assert row.ddnnf_t < row.ddnnf_p < row.ddnnf
            assert row.frac_t <= row.frac_p <= 1.0

    def test_mutex_rows_have_tiny_artifact_gain(self):
        report = run_bench("mutex", [3, 3, 3], seed=0, parents=2)
        for row in report.rows:
            assert row.ddnnf_p - row.ddnnf_t <= 0.05 * row.ddnnf

    def test_csv_schema(self):
        report = run_bench("overlap", [2, 3])
        lines = report.to_csv().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "overlap_n2"
        assert first[1] == "2"

    def test_timeout_row(self):
        cfg = CompileConfig(order="dynamic", max_decisions=1)
        report = run_bench("noisy_or", [4], config=cfg, oracle_check=False)
        row = report.rows[0]
        assert row.timeout
        assert row.ddnnf is None
        assert report.to_csv().splitlines()[1] == "noisy_or_n4,4,,,,,,,"

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            run_bench("nosuch", [2])

    def test_oracle_chain_on_small_instances(self):
        # instances within the verification bound go through the full
        # equivalence chain inside run_bench; absence of an exception is the
        # assertion, plus the counts must match the closed form
        report = run_bench("noisy_or", [2, 3])
        for row, n in zip(report.rows, (2, 3)):
            out = tseitin_transform(gen_noisy_or(n))
            circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
            assert model_count(circuit) == 4**n - 3**n
