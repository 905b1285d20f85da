"""The three workloads: set-up, one operation, and the checks of its output.

Why these three:

- ``mutex_pipeline`` takes Bayesian-network CPT formulas from text to a
  pruned circuit. The compiler does most of the work, with many component
  splits and cache hits; pruning is quantification only, since artifact
  removal never shrinks these circuits.
- ``chain_compile`` runs implication chains through the same compiler used
  the opposite way: deep and narrow, no component split, no cache hit, unit
  propagation and conditioning doing nearly all the work. A compiler change
  that helps ``mutex_pipeline`` at this shape's cost shows here.
- ``query_circuits`` never compiles inside an operation: set-up compiles
  artifact-rich circuits to c2d text, and each operation parses, prunes and
  answers exact and weighted count queries. Artifact removal is what shrinks
  these circuits; this is the paper's regime and its downstream query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from c2d_reader import C2dCheckError, count_models
from ddnnf import (
    CompileConfig,
    WeightMap,
    compile_cnf,
    model_count,
    parse_dimacs,
    parse_formula,
    parse_nnf,
    prune,
    size,
    tseitin_transform,
    weighted_model_count,
    write_nnf,
)
from instances import Instance, chain_instances, mutex_instances, query_instances

DYNAMIC = CompileConfig(order="dynamic")
INPUT = CompileConfig(order="input")
FLOAT_WMC_RTOL = 1e-9


@dataclass
class Job:
    """One operation's input: the instance and the text the program gets
    (the instance text, or for ``query_circuits`` its compiled c2d text)."""

    instance: Instance
    text: str
    weights: WeightMap | None = None
    exact_weights: WeightMap | None = None


@dataclass
class Outcome:
    circuit: object  # the circuit pruned: compiled in the operation, or parsed
    pruned: object
    report: object
    count: int
    nnf: str
    encoded: object = None
    compiled: bool = True
    wmc: float | None = None
    wmc_exact: Fraction | None = None


def mutex_setup(seed: int) -> list[Job]:
    return [Job(inst, inst.text) for inst in mutex_instances(seed)]


def mutex_op(job: Job, t) -> Outcome:
    f = t.call("formula.parse", parse_formula, job.text)
    encoded = t.call("formula.tseitin", tseitin_transform, f)
    circuit = t.call("compiler.compile", compile_cnf, encoded.cnf, DYNAMIC)
    pruned, report = t.call("pruning.prune", prune, circuit)
    count = t.call("counting.count", model_count, pruned)
    nnf = t.call("circuit.write_nnf", write_nnf, pruned)
    return Outcome(circuit, pruned, report, count, nnf, encoded=encoded)


def chain_setup(seed: int) -> list[Job]:
    return [Job(inst, inst.text) for inst in chain_instances(seed)]


def chain_op(job: Job, t) -> Outcome:
    cnf = t.call("cnf.parse_dimacs", parse_dimacs, job.text)
    circuit = t.call("compiler.compile", compile_cnf, cnf, INPUT)
    pruned, report = t.call("pruning.prune", prune, circuit)
    count = t.call("counting.count", model_count, pruned)
    nnf = t.call("circuit.write_nnf", write_nnf, pruned)
    return Outcome(circuit, pruned, report, count, nnf)


def query_job(inst: Instance) -> Job:
    """Compile one formula to c2d text, with weight maps keyed by the
    program's variable numbers. Gate variables get no weight, so a weighted
    count that reaches one fails."""
    encoded = tseitin_transform(parse_formula(inst.text))
    text = write_nnf(compile_cnf(encoded.cnf, DYNAMIC))
    floats: dict[int, float] = {}
    exact: dict[int, Fraction] = {}
    for name, w in inst.weights.items():
        v = encoded.var_map[name]
        exact[v], exact[-v] = w, 1 - w
        floats[v], floats[-v] = float(w), float(1 - w)
    return Job(inst, text, WeightMap(floats, default=None), WeightMap(exact, default=None))


def query_setup(seed: int) -> list[Job]:
    return [query_job(inst) for inst in query_instances(seed)]


def query_op(job: Job, t) -> Outcome:
    circuit = t.call("compiler.parse_nnf", parse_nnf, job.text)
    pruned, report = t.call("pruning.prune", prune, circuit)
    count = t.call("counting.count", model_count, pruned)
    wmc = t.call("counting.wmc", weighted_model_count, pruned, job.weights)
    wmc_exact = t.call("counting.wmc_exact", weighted_model_count, pruned, job.exact_weights)
    nnf = t.call("circuit.write_nnf", write_nnf, pruned)
    return Outcome(circuit, pruned, report, count, nnf, compiled=False, wmc=wmc, wmc_exact=wmc_exact)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    op: object
    setup_samples: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mutex_pipeline", mutex_setup, mutex_op, 5),
        Workload("chain_compile", chain_setup, chain_op, 5),
        Workload("query_circuits", query_setup, query_op, 3),
    )
}


def check(job: Job, out: Outcome) -> list[str]:
    """Mismatches between one operation's outputs and the instance's closed
    forms; empty when the operation is correct."""
    inst = job.instance
    problems = []
    r = out.report
    if not r.size_after_artifacts <= r.size_after_exists <= r.size_before:
        problems.append(f"sizes out of order: {r.summary()}")
    if out.count != inst.models:
        problems.append(f"count {out.count} != {inst.models}")
    before = model_count(out.circuit)
    if before != inst.models:
        problems.append(f"count before pruning {before} != {inst.models}")
    try:
        written = count_models(out.nnf)
    except C2dCheckError as e:
        problems.append(f"written circuit: {e}")
    else:
        if written != inst.models:
            problems.append(f"written circuit counts {written} != {inst.models}")
    if inst.wmc is not None:
        if out.wmc_exact != inst.wmc:
            problems.append(f"exact WMC {out.wmc_exact} != {inst.wmc}")
        if not math.isclose(out.wmc, float(inst.wmc), rel_tol=FLOAT_WMC_RTOL, abs_tol=0.0):
            problems.append(f"float WMC {out.wmc!r} != {float(inst.wmc)!r}")
    return problems


def sizes(out: Outcome) -> tuple[int, int]:
    """(compiled, pruned) binary-operation counts of one operation."""
    return size(out.circuit), size(out.pruned)


def layer_counts(out: Outcome) -> dict[str, int]:
    """Work counts of one operation, by layer, for the traced run."""
    counts = {
        "pruning.size_after_p": out.report.size_after_exists,
        "pruning.artifact_roots": out.report.artifacts_found,
        "pruning.artifacts_internal": out.report.artifacts_internal,
        "circuit.nnf_bytes": len(out.nnf.encode()),
    }
    if out.encoded is not None:
        counts["formula.clauses"] = len(out.encoded.cnf.clauses)
        counts["formula.gate_vars"] = len(out.encoded.tseitin_vars)
    if out.compiled:
        counts["compiler.arena_nodes"] = len(out.circuit)
        counts["compiler.reachable_nodes"] = len(out.circuit.reachable())
    return counts
