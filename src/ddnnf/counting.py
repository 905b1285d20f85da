"""Exact model counting and weighted model counting over d-DNNF circuits.

Every count is one bottom-up weighted fold; a model count is the fold with
every literal weighing 1. The fold materializes no smoothing transformation:
the variables an OR child fails to mention ("free" at that gap) are corrected
by a factor ``w(v) + w(!v)`` per variable (2 for a model count), and likewise
for universe variables the root never mentions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_

from .circuit import AND, LIT, OR, TRUE, Circuit, check_decomposable, mask_bits, mask_of
from .errors import ToolkitError

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


# Every literal weighs 1: every pair sum is 2, and a node's weighted count is
# its model count.
_UNIT = WeightMap(default=1)


def annotate_counts(circuit: Circuit) -> dict[int, int]:
    """Exact model count per node, over that node's own variable set: the
    weighted fold with every literal weighing 1."""
    return _weighted_fold(circuit, _UNIT, _gap_factors(circuit.universe, _UNIT))


def model_count(circuit: Circuit) -> int:
    """Exact number of models over the circuit's declared universe: the
    weighted count with every literal weighing 1."""
    return weighted_model_count(circuit, _UNIT)


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
    if denominator is not None:
        weights = WeightMap(
            {lit: _scale(w, denominator) for lit, w in weights.literal_weights.items()
             if w is not None},
            default=None if weights.default is None else _scale(weights.default, denominator),
        )
    gap_factor = _gap_factors(circuit.universe, weights)
    values = _weighted_fold(circuit, weights, gap_factor)
    root_gap = mask_of(circuit.universe) ^ circuit.node(circuit.root).mask
    total = values[circuit.root] * gap_factor(root_gap)
    if denominator is None:
        return total
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


def _weighted_fold(circuit: Circuit, weights: WeightMap, gap_factor) -> dict[int, object]:
    """The weighted count of every reachable node, over the variables that
    node mentions: the one bottom-up pass behind every count."""
    node_of, weight = circuit.node, weights.weight
    values: dict[int, object] = {}
    value = values.__getitem__
    for nid in circuit.reachable():
        kind, lit, children, _, mask = node_of(nid)
        if kind == AND:
            # math.prod multiplies left to right from 1, as a loop would.
            values[nid] = math.prod(map(value, children))
        elif kind == OR:
            values[nid] = sum(value(c) * gap_factor(mask ^ node_of(c).mask) for c in children)
        elif kind == LIT:
            values[nid] = weight(lit)
        else:
            values[nid] = 1 if kind == TRUE else 0
    return values


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
    sums: dict[int, object] = {}
    # A variable whose pair sum cannot be formed has its bit in ``unpaired``;
    # a gap reaching one forms it again, for the lowest such variable, which
    # raises for the same literal as walking the gap in ascending order would.
    unpaired = 0
    masks: dict[object, int] = {}  # pair sum -> the variables that have it
    for v in universe:
        try:
            sums[v] = s = weights.pair_sum(v)
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
    # The pair sums left in the products, by variable. The list ends at the
    # highest such variable, so neutral ones cost nothing on a sparse universe.
    top = (reduce(or_, masks.values(), 0) & rest).bit_length()
    pair_sums = list(map(sums.get, range(top)))
    if not top and not unpaired:
        # Every pair sum is neutral (unit and normalized maps).
        return lambda gap: take_out(gap.bit_count()) if gap else 1

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
