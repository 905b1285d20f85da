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
from itertools import compress

from .circuit import AND, FALSE, LIT, TRUE, Circuit, check_decomposable, mask_bits, mask_of
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
    nvars: dict[int, int] = {}  # popcount of each node's mask
    for nid in circuit.reachable():
        node = circuit.node(nid)
        nvars[nid] = n = node.mask.bit_count()
        if node.kind == TRUE or node.kind == LIT:
            counts[nid] = 1
        elif node.kind == FALSE:
            counts[nid] = 0
        elif node.kind == AND:
            counts[nid] = math.prod(map(counts.__getitem__, node.children))
        else:
            counts[nid] = sum(counts[c] << (n - nvars[c]) for c in node.children)
    return counts


def model_count(circuit: Circuit) -> int:
    """Exact number of models over the circuit's declared universe."""
    _require_decomposable(circuit)
    if circuit.root is None:
        raise ValueError("circuit has no root")
    counts = annotate_counts(circuit)
    gap = len(circuit.universe) - circuit.node(circuit.root).mask.bit_count()
    return counts[circuit.root] << gap


def weighted_model_count(circuit: Circuit, weights: WeightMap):
    """Sum over models of the product of literal weights (over the declared
    universe). With all weights 1 this equals model_count exactly.

    When every weight is an int or a Fraction and at least one is a
    Fraction, the sum is taken over the integers ``w * D``, D being the
    weights' common denominator, and divided once by ``D ** len(universe)``
    at the end: every model assigns every universe variable, so each term is
    a product of exactly that many weights. The result is then a Fraction,
    also when D is 1; a map of ints alone gives an int.
    """
    _require_decomposable(circuit)
    if circuit.root is None:
        raise ValueError("circuit has no root")
    denominator = _common_denominator(weights)
    if denominator is None:
        return _weighted_fold(circuit, weights)
    scaled = WeightMap(
        {lit: _scale(w, denominator) for lit, w in weights.literal_weights.items()
         if w is not None},
        default=None if weights.default is None else _scale(weights.default, denominator),
    )
    total = _weighted_fold(circuit, scaled)
    return Fraction(total, denominator ** len(circuit.universe))


def _common_denominator(weights: WeightMap) -> int | None:
    """Least common denominator of the map's weights, or None when the map
    is folded as given: some weight is neither an int nor a Fraction, or no
    weight is a Fraction."""
    exact = [w for w in weights.literal_weights.values() if w is not None]
    if weights.default is not None:
        exact.append(weights.default)
    if not all(isinstance(w, (int, Fraction)) for w in exact):
        return None
    if not any(isinstance(w, Fraction) for w in exact):
        return None
    return math.lcm(*(w.denominator for w in exact))


def _scale(w, denominator: int) -> int:
    return w.numerator * (denominator // w.denominator)


def _weighted_fold(circuit: Circuit, weights: WeightMap):
    gap_factor = _gap_factors(circuit.universe, weights)
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
            # math.prod multiplies left to right from 1, as a loop would.
            values[nid] = math.prod(map(values.__getitem__, node.children))
        else:
            mask = node.mask
            values[nid] = sum(
                values[c] * gap_factor(mask ^ circuit.node(c).mask)
                for c in node.children
            )
    root = circuit.node(circuit.root)
    return values[circuit.root] * gap_factor(mask_of(circuit.universe) ^ root.mask)


def _gap_factors(universe, weights: WeightMap):
    """The function from a gap (the mask of the variables an OR child, or the
    root, leaves out) to the product of their pair sums ``w(v) + w(-v)``.

    Pair sums that cannot change a product are taken out of the one-by-one
    multiplication, the "neutral sum" case of algebraic model counting
    (Kimmig, Van den Broeck & De Raedt, JAL 2017). When every pair sum is an
    int, the most common one, p, becomes one power ``p ** k``. When every
    pair sum is a float, those equal to 1.0 are dropped: multiplying a float
    by 1.0 leaves it unchanged, and a gap of 1.0s alone gives 1.0. The rest
    are multiplied in ascending variable order, which fixes float rounding;
    an empty gap gives 1.
    """
    pair_sums: list[object] = [0] * (max(universe, default=0) + 1)
    # A variable whose pair sum cannot be formed has its bit in ``unpaired``;
    # a gap reaching one forms it again, for the lowest such variable, which
    # raises for the same literal as walking the gap in ascending order would.
    unpaired = 0
    masks: dict[object, int] = {}  # pair sum -> the variables that have it
    for v in universe:
        try:
            pair_sums[v] = s = weights.pair_sum(v)
        except MissingWeightError:
            unpaired |= 1 << v
        else:
            masks[s] = masks.get(s, 0) | 1 << v
    kinds = set(map(type, masks))
    neutral, take_out = 0, None
    if kinds == {int}:
        common = max(masks, key=lambda s: masks[s].bit_count())
        neutral, take_out = masks[common], common.__pow__
    elif kinds == {float}:
        neutral, take_out = masks.get(1.0, 0), lambda k: 1.0
    rest = ~neutral

    def gap_factor(gap: int):
        if gap & unpaired:
            low = gap & unpaired
            weights.pair_sum((low & -low).bit_length() - 1)
        kept = gap & rest
        product = math.prod(compress(pair_sums, mask_bits(kept))) if kept else 1
        taken = gap & neutral
        return take_out(taken.bit_count()) * product if taken else product

    return gap_factor


def _require_decomposable(circuit: Circuit) -> None:
    ok, bad = check_decomposable(circuit)
    if not ok:
        raise NonDecomposableError(f"AND node {bad} has children sharing variables")
