"""Instance generators and a size-reduction harness.

The three families target the regimes where artifact pruning behaves
differently: overlapping disjunctions (artifacts emerge readily), noisy-OR
style networks (artifact count grows with size), and Bayesian-network CPTs
encoded with mutually exclusive cases (artifacts are rare, quantification
alone does nearly all the work).
"""

from __future__ import annotations

import csv
import io
import random
import string
import time
from dataclasses import dataclass

from . import formula as fm
from .compiler import CompileBudgetError, CompileConfig, compile
from .counting import model_count
from .errors import ToolkitError
from .oracle import check_exists_equiv, oracle_bound
from .pruning import prune

CSV_HEADER = "instance,size,ddnnf,ddnnf_p,ddnnf_t,artifacts,frac_p,frac_t,compile_ms"


class BenchVerificationError(ToolkitError):
    pass


@dataclass
class BenchRow:
    instance: str
    size: int
    ddnnf: int | None = None
    ddnnf_p: int | None = None
    ddnnf_t: int | None = None
    artifacts: int | None = None
    frac_p: float | None = None
    frac_t: float | None = None
    compile_ms: float | None = None
    timeout: bool = False

    def csv_fields(self) -> list[str]:
        """The cells under CSV_HEADER, whose names are the fields'; a value
        that is None is an empty cell."""
        formats = ("{}",) * 6 + ("{:.6f}", "{:.6f}", "{:.3f}")
        values = (getattr(self, name) for name in CSV_HEADER.split(","))
        return ["" if v is None else fmt.format(v) for v, fmt in zip(values, formats)]


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in self.rows:
            writer.writerow(row.csv_fields())
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Generators


def _letter_names(count: int) -> list[str]:
    if count <= 26:
        return list(string.ascii_lowercase[:count])
    return [f"v{i}" for i in range(1, count + 1)]


def gen_overlapping_disjunction(n: int) -> fm.Formula:
    """Disjunction of n variable-disjoint two-literal conjunctions, e.g.
    (a & b) | (c & d) for n=2. The disjuncts overlap in models, the regime
    where pruning artifacts appear."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = _letter_names(2 * n)
    pairs = [fm.And((fm.Var(names[2 * i]), fm.Var(names[2 * i + 1]))) for i in range(n)]
    return fm.disj(pairs)


def gen_noisy_or(n: int) -> fm.Formula:
    """Noisy-OR network with n parents: the child holds iff some parent is
    active and its signal passes, and the child is observed true."""
    if n < 1:
        raise ValueError("n must be >= 1")
    child = fm.Var("a")
    cases = [fm.And((fm.Var(f"p{i}"), fm.Var(f"q{i}"))) for i in range(1, n + 1)]
    return fm.And((child, fm.Iff(child, fm.disj(cases))))


def gen_mutex_cpt(num_nodes: int, parents_per_node: int, seed: int) -> fm.Formula:
    """Bayesian network whose probability tables are encoded case-by-case:
    each node is equivalent to a disjunction over complete parent
    assignments, every case carrying its own parameter variable. The cases
    are pairwise mutually exclusive by construction.

    Parents are sampled from earlier network nodes; nodes too early in the
    layering draw fresh exogenous root variables instead, so every node has
    exactly ``parents_per_node`` parents (0 degenerates to ``node <=> theta``).
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if parents_per_node not in (0, 1, 2, 3):
        raise ValueError("parents_per_node must be in 0..3")
    rng = random.Random(seed)
    conjuncts = []
    roots = 0
    for i in range(1, num_nodes + 1):
        node = fm.Var(f"c{i}")
        sampled = rng.sample(range(1, i), min(parents_per_node, i - 1))
        parents = [fm.Var(f"c{p}") for p in sorted(sampled)]
        while len(parents) < parents_per_node:
            roots += 1
            parents.append(fm.Var(f"r{roots}"))
        cases = []
        for case_idx in range(1 << len(parents)):
            literals: list[fm.Formula] = []
            for bit, pv in enumerate(parents):
                literals.append(pv if case_idx >> bit & 1 else fm.Not(pv))
            literals.append(fm.Var(f"t{i}_{case_idx}"))
            cases.append(fm.conj(literals))
        conjuncts.append(fm.Iff(node, fm.disj(cases)))
    return fm.conj(conjuncts)


_FAMILIES = {
    "overlap": lambda n, parents, seed: gen_overlapping_disjunction(n),
    "noisy_or": lambda n, parents, seed: gen_noisy_or(n),
    "mutex": lambda n, parents, seed: gen_mutex_cpt(n, parents, seed),
}


def run_bench(
    family: str,
    sizes,
    config: CompileConfig | None = None,
    seed: int = 0,
    parents: int = 2,
    oracle_check: bool = True,
) -> BenchReport:
    """Generate, encode, compile, and prune one instance per size; report
    raw/quantified/pruned sizes. Instances small enough for the brute-force
    oracle are verified end to end. Rows that blow the decision budget are
    marked as timeouts."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r} (choose from {sorted(_FAMILIES)})")
    cfg = config or CompileConfig(order="dynamic")
    rows = []
    for idx, n in enumerate(sizes):
        row_seed = seed + idx
        if family == "mutex":
            name = f"mutex_p{parents}_n{n}_s{row_seed}"
        else:
            name = f"{family}_n{n}"
        f = _FAMILIES[family](n, parents, row_seed)
        encoded = fm.tseitin_transform(f)
        started = time.perf_counter()
        try:
            circuit = compile(encoded.cnf, cfg)
        except CompileBudgetError:
            rows.append(BenchRow(instance=name, size=n, timeout=True))
            continue
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        pruned, report = prune(circuit)
        if oracle_check and encoded.cnf.num_vars <= oracle_bound():
            if not check_exists_equiv(encoded, encoded.tseitin_vars, f):
                raise BenchVerificationError(f"{name}: encoding does not project back")
            if not check_exists_equiv(pruned, frozenset(), f, names=encoded.names()):
                raise BenchVerificationError(f"{name}: pruned circuit differs from source")
            if model_count(pruned) != model_count(circuit):
                raise BenchVerificationError(f"{name}: pruning changed the model count")
        rows.append(
            BenchRow(
                instance=name,
                size=n,
                ddnnf=report.size_before,
                ddnnf_p=report.size_after_exists,
                ddnnf_t=report.size_after_artifacts,
                artifacts=report.artifacts_found,
                frac_p=report.frac_p,
                frac_t=report.frac_t,
                compile_ms=elapsed_ms,
            )
        )
    return BenchReport(rows)
