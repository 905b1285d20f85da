"""Independent brute-force semantics for formulas, CNFs, and circuits.

Each is a truth table over an ordered universe of n <= ``oracle_bound()``
variables: a 2^n-bit integer whose bit i is set iff assignment i (setting
universe[j] iff bit j of i is set) is a model. It reuses no counting,
compilation or encoding code, only the fold that walks a formula, so it can
serve as their ground truth."""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from . import formula as fm
from .circuit import AND, LIT, OR, Circuit, variables as mask_variables
from .cnf import CnfInstance
from .errors import OracleBoundError


def oracle_bound() -> int:
    raw = os.environ.get("DDNNF_ORACLE_MAX_VARS")
    return int(raw) if raw else 20


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


def _var_mask(position: int, nbits: int) -> int:
    block = 1 << position
    mask = ((1 << block) - 1) << block
    width = block << 1
    while width < nbits:
        mask |= mask << width
        width <<= 1
    return mask


def _masks(order) -> tuple[dict, int]:
    """The table of each variable of ``order``, and the all-assignments one."""
    _check_bound(len(order))
    nbits = 1 << len(order)
    return {v: _var_mask(j, nbits) for j, v in enumerate(order)}, (1 << nbits) - 1


def _exists_at(table: int, position: int, nbits: int) -> int:
    # OR the two half-tables of the variable, duplicated back to both halves.
    block = 1 << position
    low_mask = _var_mask(position, nbits) >> block
    merged = (table | (table >> block)) & low_mask
    return merged | (merged << block)


def _insert_free(table: int, position: int, nbits: int) -> int:
    """``table`` (``nbits`` bits) with a free variable inserted at
    ``position``: block c of 2^position bits moves to block 2c in halving
    steps, as a Morton code spreads its bits, and is copied to block 2c + 1."""
    wide = nbits << 1
    full = (1 << wide) - 1
    for j in range(nbits.bit_length() - 2, position - 1, -1):
        table = (table | table << (1 << j)) & (full ^ _var_mask(j, wide))
    return table | table << (1 << position)


def _formula_table(f: fm.Formula, masks: dict, full: int) -> int:
    """Table of ``f``, given the table of each variable name, by the formula
    fold: a sub-formula shared by several parents is tabled once."""

    def combine(g: fm.Formula, ts: list[int]) -> int:
        if isinstance(g, fm.Var):
            return masks[g.name]
        if isinstance(g, fm.Const):
            return full if g.value else 0
        if isinstance(g, fm.Not):
            return full ^ ts[0]
        if isinstance(g, fm.And):
            return reduce(and_, ts, full)
        if isinstance(g, fm.Or):
            return reduce(or_, ts, 0)
        return full ^ ts[0] ^ ts[1]  # Iff

    return fm._fold(f, combine)


class CircuitTables:
    """The truth table of every reachable node of a circuit, built once over
    the variables the root mentions (``order``, ascending), which no other
    reachable node exceeds. The bound applies to the whole universe.
    Every brute-force question about a circuit is asked of one instance:
    its models (``enumerate_models``), ``deterministic`` and
    ``tautology_after_exists``."""

    def __init__(self, circuit: Circuit):
        if circuit.root is None:
            raise ValueError("circuit has no root")
        _check_bound(circuit.universe_mask.bit_count())
        self.circuit = circuit
        self.order = tuple(mask_variables(circuit.node(circuit.root).mask))
        self.nbits = 1 << len(self.order)
        # True is an AND of nothing, false an OR of nothing.
        masks, full = _masks(self.order)
        tables: dict[int, int] = {}
        for nid in circuit.reachable():
            node = circuit.node(nid)
            ts = map(tables.__getitem__, node.children)
            if node.kind == LIT:
                m = masks[abs(node.lit)]
                tables[nid] = m if node.lit > 0 else full ^ m
            else:
                tables[nid] = reduce(and_, ts, full) if node.kind == AND else reduce(or_, ts, 0)
        self.tables, self.full = tables, full

    def deterministic(self) -> bool:
        """No two children of any OR share a model: nonnegative tables add up
        to their union iff no bit is set in two of them."""
        tables, circuit = self.tables, self.circuit
        for nid in circuit.reachable():
            kids = [tables[c] for c in circuit.node(nid).children]
            if circuit.node(nid).kind == OR and sum(kids) != reduce(or_, kids, 0):
                return False
        return True

    def tautology_after_exists(self, variables: int, nid: int) -> bool:
        """Is node ``nid`` a tautology over the variables it mentions outside
        the mask ``variables``, once those in it are forgotten?"""
        table = self.tables[nid]
        mask = self.circuit.node(nid).mask
        for j, v in enumerate(self.order):
            if variables >> v & 1 or not mask >> v & 1:
                table = _exists_at(table, j, self.nbits)
        return table == self.full


def _table(source) -> tuple[tuple, int]:
    """The ordered universe of a Formula, CnfInstance, Circuit or
    CircuitTables, and its truth table over it."""
    if isinstance(source, fm.Formula):
        universe = tuple(sorted(fm.vars_of(source)))
        return universe, _formula_table(source, *_masks(universe))
    if isinstance(source, CnfInstance):
        universe = tuple(range(1, source.num_vars + 1))
        masks, full = _masks(universe)
        lits = {**masks, **{-v: full ^ m for v, m in masks.items()}}
        clauses = (reduce(or_, map(lits.__getitem__, c), 0) for c in source.clauses)
        return universe, reduce(and_, clauses, full)
    if isinstance(source, Circuit):
        source = CircuitTables(source)
    if isinstance(source, CircuitTables):
        # Each universe variable the root does not mention is a free one.
        universe = tuple(mask_variables(source.circuit.universe_mask))
        table, nbits = source.tables[source.circuit.root], source.nbits
        for position, v in enumerate(universe):
            if v not in source.order:
                table = _insert_free(table, position, nbits)
                nbits <<= 1
        return universe, table
    raise TypeError(f"cannot enumerate models of {type(source).__name__}")


def enumerate_models(source) -> ModelSet:
    """Exact model set of a Formula, CnfInstance, Circuit or CircuitTables:
    the set bits of its truth table over its variable universe."""
    universe, table = _table(source)
    return ModelSet(universe, frozenset(mask_variables(table)))


def check_exists_equiv(source, variables, reference: fm.Formula, names=None) -> bool:
    """Does forgetting ``variables`` from ``source`` leave exactly the
    models of ``reference``? ``source`` is a TseitinOutput (variable names
    taken from its map), a CnfInstance, a Circuit or its CircuitTables; for
    the latter three, ``names`` maps variable indices to the reference's
    names (an unmapped index names itself). The reference is tabled over
    the positions of the source's kept variables."""
    xs = frozenset(variables)
    if isinstance(source, fm.TseitinOutput):
        if names is None:
            names = source.names()
        source = source.cnf
    names = names or {}
    universe, table = _table(source)
    nbits = 1 << len(universe)
    named = {}
    for j, v in enumerate(universe):
        if v in xs:
            table = _exists_at(table, j, nbits)
        else:
            named[names.get(v, v)] = _var_mask(j, nbits)
    if not fm.vars_of(reference) <= named.keys():
        return False
    return table == _formula_table(reference, named, (1 << nbits) - 1)
