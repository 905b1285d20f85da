"""Independent brute-force semantics for formulas, CNFs, and circuits.

Everything here enumerates complete assignments directly (circuit nodes are
evaluated as whole truth tables packed into integers, one bit per
assignment). None of it reuses the counting or compilation machinery, so it
can serve as ground truth for them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from . import formula as fm
from .circuit import AND, FALSE, LIT, OR, TRUE, Circuit, mask_of, variables as mask_variables
from .cnf import CnfInstance
from .errors import OracleBoundError

DEFAULT_MAX_VARS = 20
ORACLE_ENV = "DDNNF_ORACLE_MAX_VARS"


def oracle_bound(default: int = DEFAULT_MAX_VARS) -> int:
    raw = os.environ.get(ORACLE_ENV)
    return int(raw) if raw else default


@dataclass(frozen=True)
class ModelSet:
    """Explicit satisfying assignments over a fixed, ordered universe.

    Assignment masks set bit j iff universe[j] is true.
    """

    universe: tuple
    models: frozenset[int]

    def count(self) -> int:
        return len(self.models)

    def true_sets(self) -> set[frozenset]:
        """Models as sets of the variables assigned true."""
        return {
            frozenset(v for j, v in enumerate(self.universe) if m >> j & 1)
            for m in self.models
        }

    def project(self, keep) -> "ModelSet":
        kept = [(j, v) for j, v in enumerate(self.universe) if v in set(keep)]
        projected = frozenset(
            sum(1 << k for k, (j, _) in enumerate(kept) if m >> j & 1) for m in self.models
        )
        return ModelSet(tuple(v for _, v in kept), projected)


def _check_bound(n: int) -> None:
    bound = oracle_bound()
    if n > bound:
        raise OracleBoundError(f"{n} variables exceeds oracle bound {bound}")


def enumerate_models(source) -> ModelSet:
    """Exact model set of a Formula, CnfInstance, or Circuit by evaluating
    every assignment over its variable universe."""
    if isinstance(source, fm.Formula):
        return _formula_models(source)
    if isinstance(source, CnfInstance):
        return _cnf_models(source)
    if isinstance(source, Circuit):
        return _circuit_models(source)
    raise TypeError(f"cannot enumerate models of {type(source).__name__}")


def _formula_models(f: fm.Formula) -> ModelSet:
    universe = tuple(sorted(fm.vars_of(f)))
    _check_bound(len(universe))
    models = set()
    for mask in range(1 << len(universe)):
        env = {v: bool(mask >> j & 1) for j, v in enumerate(universe)}
        if _eval_formula(f, env):
            models.add(mask)
    return ModelSet(universe, frozenset(models))


def _eval_formula(f: fm.Formula, env: dict[str, bool]) -> bool:
    if isinstance(f, fm.Var):
        return env[f.name]
    if isinstance(f, fm.Const):
        return f.value
    if isinstance(f, fm.Not):
        return not _eval_formula(f.child, env)
    if isinstance(f, fm.And):
        return all(_eval_formula(c, env) for c in f.children)
    if isinstance(f, fm.Or):
        return any(_eval_formula(c, env) for c in f.children)
    if isinstance(f, fm.Iff):
        return _eval_formula(f.left, env) == _eval_formula(f.right, env)
    raise TypeError(f"not a formula: {f!r}")


def _cnf_models(cnf: CnfInstance) -> ModelSet:
    universe = tuple(range(1, cnf.num_vars + 1))
    _check_bound(len(universe))
    models = frozenset(
        mask
        for mask in range(1 << cnf.num_vars)
        if all(any((l > 0) == bool(mask >> (abs(l) - 1) & 1) for l in c) for c in cnf.clauses)
    )
    return ModelSet(universe, models)


def _circuit_models(circuit: Circuit) -> ModelSet:
    universe = tuple(mask_variables(circuit.universe_mask))
    tables, _ = circuit_truth_tables(circuit)
    root_table = tables[circuit.root]
    models = frozenset(i for i in range(1 << len(universe)) if root_table >> i & 1)
    return ModelSet(universe, models)


def circuit_truth_tables(circuit: Circuit) -> tuple[dict[int, int], int]:
    """Truth table per reachable node, packed as a 2^n-bit integer over the
    sorted universe (assignment i sets variable j iff bit j of i is set).
    Returns the tables and the all-assignments mask."""
    if circuit.root is None:
        raise ValueError("circuit has no root")
    order = list(mask_variables(circuit.universe_mask))
    _check_bound(len(order))
    return _truth_tables(circuit, order)


def _truth_tables(circuit: Circuit, order) -> tuple[dict[int, int], int]:
    # Tables over ``order``, which must contain every variable a reachable
    # node mentions; no bound is checked.
    nbits = 1 << len(order)
    full = (1 << nbits) - 1
    masks = {v: _var_mask(j, nbits) for j, v in enumerate(order)}
    tables: dict[int, int] = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == TRUE:
            tables[nid] = full
        elif node.kind == FALSE:
            tables[nid] = 0
        elif node.kind == LIT:
            m = masks[abs(node.lit)]
            tables[nid] = m if node.lit > 0 else full ^ m
        elif node.kind == AND:
            tables[nid] = reduce(and_, map(tables.__getitem__, node.children), full)
        elif node.kind == OR:
            tables[nid] = reduce(or_, map(tables.__getitem__, node.children), 0)
    return tables, full


def check_deterministic_oracle(circuit: Circuit, max_vars: int | None = None) -> bool:
    """Brute-force determinism check: no two children of any OR share a
    model. Only usable on small universes (default bound 16, overridable via
    DDNNF_ORACLE_MAX_VARS). The truth tables range over the variables the
    root mentions; the others cannot tell two children apart."""
    bound = max_vars if max_vars is not None else oracle_bound(16)
    n = circuit.universe_mask.bit_count()
    if n > bound:
        raise OracleBoundError(f"universe of {n} variables exceeds oracle bound {bound}")
    if circuit.root is not None:
        tables, _ = _truth_tables(circuit, list(mask_variables(circuit.node(circuit.root).mask)))
        for nid in circuit.reachable():
            node = circuit.node(nid)
            if node.kind == OR:
                kids = node.children
                for i in range(len(kids)):
                    for j in range(i + 1, len(kids)):
                        if tables[kids[i]] & tables[kids[j]]:
                            return False
    return True


def _var_mask(position: int, nbits: int) -> int:
    block = 1 << position
    mask = ((1 << block) - 1) << block
    width = block << 1
    while width < nbits:
        mask |= mask << width
        width <<= 1
    return mask


def _exists_at(table: int, position: int, nbits: int) -> int:
    # OR the two half-tables of the variable, duplicated back to both halves.
    block = 1 << position
    low_mask = _var_mask(position, nbits) >> block
    merged = (table | (table >> block)) & low_mask
    return merged | (merged << block)


def is_tautology_after_exists(circuit: Circuit, variables, node: int | None = None) -> bool:
    """Ground truth for artifact detection: is the subcircuit rooted at
    ``node`` (default: the root) a tautology over the non-quantified
    variables it mentions, once ``variables`` (a set or its mask) are
    existentially quantified?"""
    xs = variables if isinstance(variables, int) else mask_of(variables)
    tables, full = circuit_truth_tables(circuit)
    nid = circuit.root if node is None else node
    order = list(mask_variables(circuit.universe_mask))
    nbits = 1 << len(order)
    table = tables[nid]
    mask = circuit.node(nid).mask
    for j, v in enumerate(order):
        if xs >> v & 1 or not mask >> v & 1:
            table = _exists_at(table, j, nbits)
    return table == full


def check_exists_equiv(source, variables, reference: fm.Formula, names=None) -> bool:
    """Does forgetting ``variables`` from ``source`` leave exactly the
    models of ``reference``?

    ``source`` is a TseitinOutput (variable names taken from its map), a
    CnfInstance, or a Circuit; for the latter two, ``names`` maps variable
    indices to the reference's variable names (identity on indices left
    unmapped is assumed otherwise).
    """
    xs = frozenset(variables)
    if isinstance(source, fm.TseitinOutput):
        if names is None:
            names = source.names()
        source = source.cnf
    names = names or {}
    ms = enumerate_models(source)
    keep = [v for v in ms.universe if v not in xs]
    named = [names.get(v, v) for v in keep]
    ref_vars = fm.vars_of(reference)
    if not ref_vars <= set(named):
        return False

    positions = [ms.universe.index(v) for v in keep]
    projected = set()
    for m in ms.models:
        projected.add(frozenset(named[k] for k, p in enumerate(positions) if m >> p & 1))

    _check_bound(len(named))
    reference_models = set()
    for mask in range(1 << len(named)):
        env = {nm: bool(mask >> j & 1) for j, nm in enumerate(named)}
        if _eval_formula(reference, env):
            reference_models.add(frozenset(nm for nm in named if env[nm]))
    return projected == reference_models
