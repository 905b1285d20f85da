"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass. The corpus (500 random CNFs plus all generator instances
within oracle bounds) is built once per session.
"""

import random
import time
from dataclasses import dataclass, replace

import pytest

from ddnnf import (
    Circuit,
    CircuitTables,
    CnfInstance,
    CompileConfig,
    Formula,
    PruneReport,
    WeightMap,
    compile_cnf,
    detect_tseitin_vars,
    model_count,
    parse_dimacs,
    parse_formula,
    parse_nnf,
    tseitin_transform,
    weighted_model_count,
    write_dimacs,
    write_nnf,
)
from ddnnf.bench import gen_mutex_cpt, gen_noisy_or, gen_overlapping_disjunction, run_bench
from ddnnf.oracle import check_exists_equiv, enumerate_models
from ddnnf.pruning import artifact_flags, exists_quantify, prune, residual_artifacts

from helpers import random_cnf

RANDOM_CNF_COUNT = 500
RANDOM_CNF_MAX_VARS = 10
RANDOM_CNF_MAX_CLAUSES = 25
GENERATOR_MAX_VARS = 12

# Harness parameter for the mutually-exclusive trend (criterion 5): the
# extra reduction artifact pruning may add beyond quantification, as a
# fraction of the original size. This is a harness choice, not a reported
# number.
MUTEX_EXTRA_REDUCTION_LIMIT = 0.05
MUTEX_INSTANCES = 20
MUTEX_REQUIRED_WITHIN_LIMIT = 18


@dataclass
class PipelineRecord:
    name: str
    source: Formula | None  # None for raw random CNFs
    names: dict[int, str] | None
    cnf: CnfInstance
    circuit: Circuit
    exists_only: Circuit
    pruned: Circuit
    report: PruneReport


def _configs():
    return [
        CompileConfig(order="input"),
        CompileConfig(order="dynamic"),
        CompileConfig(order="random", seed=101),
    ]


def _build_record(name, cnf, cfg, source=None, names=None) -> PipelineRecord:
    circuit = compile_cnf(cnf, cfg)
    pruned, report = prune(circuit)
    assert residual_artifacts(pruned) == [], name
    exists_only = (
        exists_quantify(circuit, circuit.tseitin_vars)
        if circuit.tseitin_vars
        else circuit
    )
    return PipelineRecord(name, source, names, cnf, circuit, exists_only, pruned, report)


@pytest.fixture(scope="module")
def corpus() -> list[PipelineRecord]:
    records = []
    rng = random.Random(2024)
    configs = _configs()
    for i in range(RANDOM_CNF_COUNT):
        cnf = random_cnf(
            rng,
            max_vars=RANDOM_CNF_MAX_VARS,
            max_clauses=RANDOM_CNF_MAX_CLAUSES,
            gate_prob=0.9 if i % 2 else 0.0,
        )
        cnf = replace(cnf, tseitin_vars=detect_tseitin_vars(cnf))
        records.append(_build_record(f"random_{i}", cnf, configs[i % 3]))

    generated = []
    for n in range(1, 5):
        generated.append((f"overlap_n{n}", gen_overlapping_disjunction(n)))
    for n in range(1, 4):
        generated.append((f"noisy_or_n{n}", gen_noisy_or(n)))
    for seed in range(3):
        generated.append((f"mutex_1x2_s{seed}", gen_mutex_cpt(1, 2, seed)))
        generated.append((f"mutex_2x1_s{seed}", gen_mutex_cpt(2, 1, seed)))
        generated.append((f"mutex_3x1_s{seed}", gen_mutex_cpt(3, 1, seed)))
    for idx, (name, f) in enumerate(generated):
        out = tseitin_transform(f)
        if out.cnf.num_vars > GENERATOR_MAX_VARS:
            continue
        for ci, cfg in enumerate(_configs()):
            records.append(
                _build_record(f"{name}_cfg{ci}", out.cnf, cfg, source=f, names=out.names())
            )
    return records


def test_criterion_1_worked_example():
    """Compile the encoded overlapping disjunction branching on the first
    gate variable; an internal artifact must appear and pruning must beat
    quantification alone while preserving the count."""
    f = parse_formula("(a & b) | (c & d)")
    out = tseitin_transform(f)
    assert out.cnf.num_vars == 6 and len(out.cnf.clauses) == 7
    x1 = sorted(out.tseitin_vars)[0]
    started = time.perf_counter()
    circuit = compile_cnf(out.cnf, CompileConfig(order=[x1]))
    pruned, report = prune(circuit)
    assert residual_artifacts(pruned) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    assert report.artifacts_internal >= 1
    oracle_count = enumerate_models(f).count()
    assert oracle_count == 7
    assert model_count(pruned) == oracle_count
    assert pruned.universe == set(out.var_map.values())
    assert report.size_after_artifacts < report.size_after_exists < report.size_before
    print(
        f"\nPASS criterion 1: sizes {report.size_before} -> "
        f"{report.size_after_exists} -> {report.size_after_artifacts}, "
        f"{report.artifacts_internal} internal artifact(s), count 7 preserved"
    )


def test_criterion_2_artifact_flag_iff_oracle(corpus):
    """Every node's count-based artifact flag agrees with the brute-force
    tautology oracle, over the whole corpus, with zero disagreements."""
    started = time.perf_counter()
    nodes_checked = 0
    for record in corpus:
        flags = artifact_flags(record.circuit)
        tables = CircuitTables(record.circuit)
        xs = record.circuit.tseitin_mask
        for nid in record.circuit.reachable():
            expected = tables.tautology_after_exists(xs, nid)
            assert (nid in flags) == expected, (
                f"{record.name}: node {nid} flag {nid in flags} vs oracle {expected}"
            )
            nodes_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"\nPASS criterion 2: {nodes_checked} nodes over {len(corpus)} circuits, "
        f"zero disagreements in {elapsed:.1f}s"
    )


def test_criterion_3_equivalence_and_count_preservation(corpus):
    """Pruning preserves the projected model set and the exact count at
    every stage; with unit gate weights, the weighted count survives to
    within 1e-12 relative."""
    rng = random.Random(7)
    wmc_checked = 0
    for record in corpus:
        base = model_count(record.circuit)
        assert model_count(record.exists_only) == base
        assert model_count(record.pruned) == base
        plain = tuple(
            v for v in range(1, record.cnf.num_vars + 1)
            if v not in record.circuit.tseitin_vars
        )
        expected = enumerate_models(record.cnf).project(plain)
        assert enumerate_models(record.pruned).models == expected.models
        if record.source is not None:
            assert check_exists_equiv(
                record.pruned, frozenset(), record.source, names=record.names
            )
            assert enumerate_models(record.source).count() == base
        if record.circuit.tseitin_vars and wmc_checked < 120:
            weights = {}
            for v in plain:
                weights[v] = rng.random()
                weights[-v] = rng.random()
            w = WeightMap(weights, default=1.0)  # gate vars default to (1, 1)
            raw = weighted_model_count(record.circuit, w)
            after = weighted_model_count(record.pruned, w)
            scale = max(abs(raw), abs(after), 1e-30)
            assert abs(raw - after) / scale <= 1e-12
            wmc_checked += 1
    print(
        f"\nPASS criterion 3: model sets and counts preserved on {len(corpus)} "
        f"pipelines, {wmc_checked} weighted checks within 1e-12"
    )


def test_criterion_4_noisy_or_trend():
    """For n=2..10 under the dynamic heuristic: strictly shrinking size
    chain, non-decreasing artifact count, and the closed-form count."""
    started = time.perf_counter()
    report = run_bench("noisy_or", range(2, 11))
    previous_artifacts = 0
    for row, n in zip(report.rows, range(2, 11)):
        assert not row.timeout
        assert row.ddnnf_t < row.ddnnf_p < row.ddnnf, f"n={n}: {row}"
        assert row.artifacts >= previous_artifacts, f"artifact count dropped at n={n}"
        previous_artifacts = row.artifacts
        out = tseitin_transform(gen_noisy_or(n))
        circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
        pruned, _ = prune(circuit)
        assert model_count(pruned) == 4**n - 3**n
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 4: strict size chain and monotone artifacts for "
        f"n=2..10 in {elapsed:.1f}s"
    )


def test_criterion_5_mutually_exclusive_trend():
    """On seeded mutually-exclusive CPT networks, artifact pruning adds at
    most MUTEX_EXTRA_REDUCTION_LIMIT of the original size beyond plain
    quantification, on at least 18 of 20 instances."""
    within = 0
    for seed in range(MUTEX_INSTANCES):
        f = gen_mutex_cpt(4, 2, seed)
        out = tseitin_transform(f)
        circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
        _, report = prune(circuit)
        extra = (report.size_after_exists - report.size_after_artifacts) / max(
            report.size_before, 1
        )
        if extra <= MUTEX_EXTRA_REDUCTION_LIMIT:
            within += 1
    assert within >= MUTEX_REQUIRED_WITHIN_LIMIT
    print(
        f"\nPASS criterion 5: {within}/{MUTEX_INSTANCES} instances within the "
        f"{MUTEX_EXTRA_REDUCTION_LIMIT:.0%} harness threshold"
    )


def test_criterion_6_ordering_sensitivity():
    """Conditioning the small mixed instance on the plain variable first
    creates an internal artifact; conditioning on the gate variable first
    does not."""
    out = tseitin_transform(parse_formula("(a & b) | c"))
    # variables: a=1, b=2, c=3, gate=4
    artifact_order = compile_cnf(out.cnf, CompileConfig(order=[3, 1, 2, 4]))
    _, with_artifact = prune(artifact_order)
    assert with_artifact.artifacts_internal >= 1

    clean_order = compile_cnf(out.cnf, CompileConfig(order=[4, 1, 2, 3]))
    _, without = prune(clean_order)
    assert without.artifacts_internal == 0
    print(
        f"\nPASS criterion 6: order [c,a,b,x1] -> "
        f"{with_artifact.artifacts_internal} internal artifact(s), "
        f"order [x1,a,b,c] -> 0"
    )


def test_criterion_7_structural_preservation(corpus):
    """Every pruned circuit stays decomposable, which the arena refuses to
    break, and each oracle-sized one stays deterministic."""
    checked_det = 0
    for record in corpus:
        if len(record.pruned.universe) <= 16:
            assert CircuitTables(record.pruned).deterministic(), record.name
            checked_det += 1
    assert checked_det == len(corpus)
    print(
        f"\nPASS criterion 7: decomposability and determinism on "
        f"{len(corpus)}/{len(corpus)} pruned circuits"
    )


def test_criterion_8_format_fidelity(corpus):
    """write/parse is the identity for 1000 pipeline circuits and DIMACS
    round-trips exactly."""
    circuits = []
    for record in corpus:
        circuits.append(record.circuit)
        circuits.append(record.pruned)
    circuits = circuits[:1000]
    assert len(circuits) == 1000
    for circuit in circuits:
        assert parse_nnf(write_nnf(circuit)) == circuit
    dimacs_checked = 0
    for record in corpus[:200]:
        again = parse_dimacs(write_dimacs(record.cnf))
        assert again.num_vars == record.cnf.num_vars
        assert again.clauses == record.cnf.clauses
        dimacs_checked += 1
    print(
        f"\nPASS criterion 8: {len(circuits)} circuit round-trips and "
        f"{dimacs_checked} DIMACS round-trips are identities"
    )


def test_criterion_9_report_schema_for_external_corpora():
    """The paper-scale dataset averages are out of desk-scale reach; the
    harness emits the same report schema so those corpora can be rerun
    elsewhere."""
    report = run_bench("overlap", [2, 3])
    lines = report.to_csv().splitlines()
    assert lines[0] == "instance,size,ddnnf,ddnnf_p,ddnnf_t,artifacts,frac_p,frac_t,compile_ms"
    assert all(len(line.split(",")) == 9 for line in lines)
    print(
        "\nPASS criterion 9: dataset-scale averages not reproducible here; "
        "report schema verified for external reruns"
    )
