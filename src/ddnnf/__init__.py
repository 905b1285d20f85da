"""Knowledge-compilation toolkit: Tseitin CNF encoding, d-DNNF compilation,
gate-variable quantification and artifact pruning, and exact (weighted)
model counting."""

from .bench import (
    BenchReport,
    BenchRow,
    gen_mutex_cpt,
    gen_noisy_or,
    gen_overlapping_disjunction,
    run_bench,
)
from .circuit import (
    Circuit,
    parse_nnf,
    size,
    stats_line,
    write_nnf,
)
from .cnf import (
    CnfInstance,
    detect_tseitin_vars,
    format_tvars,
    parse_dimacs,
    parse_tvars,
    write_dimacs,
)
from .compiler import CompileBudgetError, CompileConfig
from .compiler import compile as compile_cnf
from .counting import WeightMap, annotate_counts, model_count, weighted_model_count
from .errors import OracleBoundError, ToolkitError
from .formula import (
    FALSE,
    TRUE,
    And,
    Const,
    Formula,
    Iff,
    Not,
    Or,
    TseitinOutput,
    Var,
    conj,
    const_fold,
    disj,
    format_formula,
    nnf_rewrite,
    parse_formula,
    tseitin_transform,
    vars_of,
)
from .oracle import (
    CircuitTables,
    ModelSet,
    check_exists_equiv,
    enumerate_models,
)
from .pruning import (
    PruneReport,
    artifact_flags,
    detect_artifacts,
    exists_quantify,
    prune,
    residual_artifacts,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
