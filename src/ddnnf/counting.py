"""Exact model counting and weighted model counting over d-DNNF circuits.

Neither pass materializes a smoothing transformation: the variables an OR
child fails to mention ("free" at that gap) are corrected by a factor of
2 per variable (or ``w(v) + w(!v)`` in the weighted case), and likewise for
universe variables the root never mentions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .circuit import AND, FALSE, LIT, TRUE, Circuit, check_decomposable
from .errors import ToolkitError

# Per-node exact model counts, keyed by node id; each node's count is taken
# over its own mentioned-variable set.
CountAnnotation = dict[int, int]


class NonDecomposableError(ToolkitError):
    pass


class MissingWeightError(ToolkitError):
    pass


@dataclass
class WeightMap:
    """Signed-literal weights. Unlisted literals use ``default`` (pass
    ``default=None`` to make missing entries an error). Exact arithmetic
    falls out of supplying Fraction values."""

    literal_weights: dict[int, object] = field(default_factory=dict)
    default: object | None = 1.0

    def weight(self, lit: int):
        w = self.literal_weights.get(lit)
        if w is None:
            if self.default is None:
                raise MissingWeightError(f"no weight for literal {lit}")
            return self.default
        return w

    def pair_sum(self, var: int):
        return self.weight(var) + self.weight(-var)

    @staticmethod
    def from_text(text: str, exact: bool = False) -> "WeightMap":
        """Parse ``w <lit> <real>`` lines; ``#`` starts a comment."""
        weights: dict[int, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] != "w":
                raise ValueError(f"line {lineno}: expected 'w <lit> <weight>'")
            lit = int(fields[1])
            if lit == 0:
                raise ValueError(f"line {lineno}: literal 0")
            weights[lit] = Fraction(fields[2]) if exact else float(fields[2])
        return WeightMap(weights, default=Fraction(1) if exact else 1.0)


def annotate_counts(circuit: Circuit) -> CountAnnotation:
    """Exact model count per node, over that node's own variable set."""
    counts: CountAnnotation = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == TRUE or node.kind == LIT:
            counts[nid] = 1
        elif node.kind == FALSE:
            counts[nid] = 0
        elif node.kind == AND:
            total = 1
            for c in node.children:
                total *= counts[c]
            counts[nid] = total
        else:
            nvars = len(node.varset)
            counts[nid] = sum(
                counts[c] << (nvars - len(circuit.node(c).varset))
                for c in node.children
            )
    return counts


def model_count(circuit: Circuit) -> int:
    """Exact number of models over the circuit's declared universe."""
    _require_decomposable(circuit)
    if circuit.root is None:
        raise ValueError("circuit has no root")
    counts = annotate_counts(circuit)
    gap = len(circuit.universe) - len(circuit.node(circuit.root).varset)
    return counts[circuit.root] << gap


def weighted_model_count(circuit: Circuit, weights: WeightMap):
    """Sum over models of the product of literal weights (over the declared
    universe). With all weights 1 this equals model_count exactly.

    When every weight is an int or a Fraction, the sum is taken over the
    integers ``w * D``, D being the weights' common denominator, and divided
    once by ``D ** len(universe)`` at the end: every model assigns every
    universe variable, so each term is a product of exactly that many
    weights.
    """
    _require_decomposable(circuit)
    if circuit.root is None:
        raise ValueError("circuit has no root")
    denominator = _common_denominator(weights)
    if denominator == 1:
        return _weighted_fold(circuit, weights)
    scaled = WeightMap(
        {lit: _scale(w, denominator) for lit, w in weights.literal_weights.items()
         if w is not None},
        default=None if weights.default is None else _scale(weights.default, denominator),
    )
    total = _weighted_fold(circuit, scaled)
    return Fraction(total, denominator ** len(circuit.universe))


def _common_denominator(weights: WeightMap) -> int:
    """Least common denominator of the map's weights, or 1 when any weight
    is neither an int nor a Fraction (such a map is folded as given)."""
    exact = [w for w in weights.literal_weights.values() if w is not None]
    if weights.default is not None:
        exact.append(weights.default)
    if not all(isinstance(w, (int, Fraction)) for w in exact):
        return 1
    return math.lcm(*(w.denominator for w in exact))


def _scale(w, denominator: int) -> int:
    return w.numerator * (denominator // w.denominator)


def _weighted_fold(circuit: Circuit, weights: WeightMap):
    # Each variable's pair sum is looked up on first use, so a missing weight
    # raises for the same literal as it would without the cache.
    pair_sums: dict[int, object] = {}

    def gap_factor(missing):
        factor = 1
        for v in missing:
            s = pair_sums.get(v)
            if s is None:
                s = pair_sums[v] = weights.pair_sum(v)
            factor *= s
        return factor

    values: dict[int, object] = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == TRUE:
            values[nid] = 1
        elif node.kind == FALSE:
            values[nid] = 0
        elif node.kind == LIT:
            values[nid] = weights.weight(node.lit)
        elif node.kind == AND:
            total = 1
            for c in node.children:
                total *= values[c]
            values[nid] = total
        else:
            values[nid] = sum(
                values[c] * gap_factor(node.varset - circuit.node(c).varset)
                for c in node.children
            )
    root = circuit.node(circuit.root)
    return values[circuit.root] * gap_factor(circuit.universe - root.varset)


def _require_decomposable(circuit: Circuit) -> None:
    ok, bad = check_decomposable(circuit)
    if not ok:
        raise NonDecomposableError(f"AND node {bad} has children sharing variables")
