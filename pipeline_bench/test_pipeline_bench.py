"""Tests of the benchmark's own parts: every closed form against a plain
brute-force enumeration at small sizes, the c2d reader, and one checked
operation per workload.

    python3 -m pytest -q pipeline_bench
"""

import itertools
import random
from fractions import Fraction

import pytest

import instances
import run
from c2d_reader import C2dCheckError, count_models

assert run.add_source_path(), "run from a source checkout"

import tracing  # noqa: E402
import workloads  # noqa: E402
from ddnnf import compile_cnf, parse_formula, tseitin_transform, write_nnf  # noqa: E402


def evaluate(f, assignment) -> bool:
    kind = f[0]
    if kind == "var":
        return assignment[f[1]]
    if kind == "not":
        return not evaluate(f[1], assignment)
    if kind == "iff":
        return evaluate(f[1], assignment) == evaluate(f[2], assignment)
    parts = (evaluate(c, assignment) for c in f[1])
    return all(parts) if kind == "and" else any(parts)


def variables(f, out=None) -> list[str]:
    out = {} if out is None else out
    if f[0] == "var":
        out.setdefault(f[1])
    else:
        for c in f[1:]:
            for g in c if isinstance(c, list) else [c]:
                variables(g, out)
    return list(out)


def brute_force(inst):
    """(model count, weighted count) by enumerating every assignment."""
    names = variables(inst.formula)
    models, weighted = 0, Fraction(0)
    for bits in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, bits))
        if evaluate(inst.formula, assignment):
            models += 1
            w = Fraction(1)
            for name, value in inst.weights.items():
                w *= value if assignment[name] else 1 - value
            weighted += w
    return models, weighted


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("structure", [0, 1, 2])
def test_mutex_count_closed_form(n, structure):
    inst = instances.mutex_cpt(n, structure, random.Random(7))
    assert brute_force(inst)[0] == inst.models


@pytest.mark.parametrize("n", [1, 2, 3])
def test_noisy_or_closed_forms(n):
    inst = instances.noisy_or(n, random.Random(n))
    assert brute_force(inst) == (inst.models, inst.wmc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_overlap_closed_forms(n):
    inst = instances.overlap(n, random.Random(n))
    assert brute_force(inst) == (inst.models, inst.wmc)


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_count_closed_form(n):
    inst = instances.implication_chain(n, random.Random(n))
    clauses = [[int(t) for t in line.split()[:-1]] for line in inst.text.splitlines()[1:]]
    models = sum(
        all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
        for bits in itertools.product((False, True), repeat=n)
    )
    assert models == inst.models


def test_seed_changes_text_not_circuit():
    a = instances.mutex_cpt(8, 1, random.Random(1))
    b = instances.mutex_cpt(8, 1, random.Random(2))
    assert a.text != b.text
    circuits = [
        write_nnf(compile_cnf(tseitin_transform(parse_formula(i.text)).cnf, workloads.DYNAMIC))
        for i in (a, b)
    ]
    assert circuits[0] == circuits[1]


# x1 | x2 as a decision on x1: nodes 0..4, root last.
OR_TEXT = "nnf 5 5 2\nL 1\nL -1\nL 2\nA 2 1 2\nO 1 2 0 3\n"


def test_c2d_reader_counts():
    assert count_models(OR_TEXT) == 3
    assert count_models("nnf 1 0 3\nL 2\n") == 4
    assert count_models("nnf 1 0 2\nc universe 1 2\nA 0\n") == 4
    assert count_models("nnf 1 0 2\nO 0 0\n") == 0


@pytest.mark.parametrize(
    "text",
    [
        "nnf 3 2 1\nL 1\nL -1\nA 2 0 1\n",  # x1 & !x1 shares x1
        "nnf 2 0 2\nL 1\n",  # header declares two nodes
        "nnf 1 0 3\nc universe 1 2\nL 3\n",  # literal outside the universe
    ],
)
def test_c2d_reader_rejects(text):
    with pytest.raises(C2dCheckError):
        count_models(text)


def plain_job(inst):
    return workloads.Job(inst, inst.text)


SMALL_JOBS = {
    "mutex_pipeline": lambda: plain_job(instances.mutex_cpt(6, 0, random.Random(3))),
    "chain_compile": lambda: plain_job(instances.implication_chain(12, random.Random(3))),
    "query_circuits": lambda: workloads.query_job(instances.noisy_or(5, random.Random(3))),
}


def test_every_workload_is_runnable():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(SMALL_JOBS)


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_operation_passes_its_checks(name):
    job = SMALL_JOBS[name]()
    tracer = tracing.SpanTracer()
    tracer.op = 1
    out = workloads.WORKLOADS[name].op(job, tracer)
    assert workloads.check(job, out) == []
    assert {op for _, op, _, _ in tracer.spans} == {1}
    assert {span for span, _, _, _ in tracer.spans} <= set(run.SPANS)


def test_check_reports_a_wrong_count():
    job = SMALL_JOBS["query_circuits"]()
    out = workloads.query_op(job, tracing.Untraced())
    out.count += 1
    out.wmc_exact += 1
    problems = workloads.check(job, out)
    assert any(p.startswith("count ") for p in problems)
    assert any(p.startswith("exact WMC") for p in problems)
