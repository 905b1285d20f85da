"""Exact model counting and weighted model counting over d-DNNF circuits.

Every count is one bottom-up weighted fold; a model count is the fold with
every literal weighing 1. There is no smoothing: the variables an OR child,
or the root, fails to mention (its "gap") contribute ``w(v) + w(-v)`` each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat

from .circuit import AND, OR, Circuit, check_decomposable, mask_of, variables
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
            try:
                lit = int(fields[1])
                w = Fraction(fields[2]) if exact else float(fields[2])
            except (ValueError, ZeroDivisionError):  # Fraction("1/0") divides
                raise ValueError(f"line {lineno}: non-numeric literal or weight") from None
            if lit == 0:
                raise ValueError(f"line {lineno}: literal 0")
            if not (exact or math.isfinite(w)):
                raise ValueError(f"line {lineno}: weight {fields[2]} is not finite")
            weights[lit] = w
        return WeightMap(weights, default=Fraction(1) if exact else 1.0)


# Every literal weighs 1: every pair sum is 2, and a node's weighted count is
# its model count.
_UNIT = WeightMap(default=1)


def annotate_counts(circuit: Circuit) -> dict[int, int]:
    """Exact model count per node, over that node's own variable set: the
    weighted fold with every literal weighing 1."""
    return _weighted_fold(circuit, _UNIT, _gap_factors(circuit.universe_mask, _UNIT))


def model_count(circuit: Circuit) -> int:
    """Exact number of models over the circuit's declared universe: the
    weighted count with every literal weighing 1."""
    return weighted_model_count(circuit, _UNIT)


def weighted_model_count(circuit: Circuit, weights: WeightMap):
    """Sum over models of the product of literal weights (over the declared
    universe). With all weights 1 this equals model_count exactly.

    When every weight is an int or a Fraction and at least one is a Fraction,
    the sum is taken over the integers ``w * D``, D being the weights' common
    denominator, and divided once by ``D ** len(universe)``: each term is a
    product of exactly that many weights. The result is then a Fraction, also
    when D is 1; a map of ints alone gives an int.
    """
    _require_decomposable(circuit)
    if circuit.root is None:
        raise ValueError("circuit has no root")
    denominator = _common_denominator(weights)
    if denominator is not None:
        def scale(w):
            return None if w is None else w.numerator * (denominator // w.denominator)

        listed = {lit: scale(w) for lit, w in weights.literal_weights.items() if w is not None}
        weights = WeightMap(listed, default=scale(weights.default))
    universe = circuit.universe_mask
    gap_factor = _gap_factors(universe, weights)
    values = _weighted_fold(circuit, weights, gap_factor)
    total = values[circuit.root] * gap_factor(universe ^ circuit.node(circuit.root).mask)
    if denominator is None:
        return total
    return Fraction(total, denominator ** universe.bit_count())


def _common_denominator(weights: WeightMap) -> int | None:
    """Least common denominator of the map's weights, or None when the map
    is folded as given: some weight is neither an int nor a Fraction, or no
    weight is a Fraction."""
    exact = [w for w in weights.literal_weights.values() if w is not None]
    if weights.default is not None:
        exact.append(weights.default)
    if not all(isinstance(w, (int, Fraction)) for w in exact) or not any(
        isinstance(w, Fraction) for w in exact
    ):
        return None
    return math.lcm(*(w.denominator for w in exact))


def _weighted_fold(circuit: Circuit, weights: WeightMap, gap_factor) -> dict[int, object]:
    """The weighted count of every reachable node, over the variables that
    node mentions: the one bottom-up pass behind every count. True and false
    are the empty product 1 and the empty sum 0."""
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
        else:
            values[nid] = weight(lit)
    return values


def _gap_factors(universe: int, weights: WeightMap):
    """The function from a gap (the mask of the variables an OR child, or the
    root, leaves out) to the product of their pair sums ``w(v) + w(-v)`` in
    ascending variable order, which fixes float rounding; an empty gap gives
    1. Pair sums are read once, and only for the variables the map lists.
    When every universe variable has the same pair sum p, an int or the float
    1.0, a gap of k variables gives ``p ** k``: the "neutral sum" case of
    algebraic model counting (Kimmig, Van den Broeck & De Raedt, JAL 2017),
    which unit, scaled exact and normalized weights take."""
    bound, default = universe.bit_length(), weights.default
    listed = universe & mask_of({v for v in map(abs, weights.literal_weights) if v < bound})
    unlisted = None if default is None else default + default  # the others' pair sum
    sums, missing = {}, []
    for v in variables(listed):
        try:
            sums[v] = weights.pair_sum(v)
        except MissingWeightError:
            missing.append(v)
    distinct = {(type(s), s) for s in sums.values()}
    others = universe ^ listed
    unpaired = mask_of(missing) | (others if unlisted is None else 0)
    if others and unlisted is not None:
        distinct.add((type(unlisted), unlisted))
    if len(distinct) == 1 and not unpaired:
        ((kind, p),) = distinct
        if kind is int or kind is float and p == 1.0:
            return lambda gap: p ** gap.bit_count() if gap else 1
    # A gap reaching variables without a pair sum forms the lowest one's
    # again: it raises for the literal an ascending walk would reach first.

    def gap_factor(gap: int):
        if gap & unpaired:
            low = gap & unpaired
            weights.pair_sum((low & -low).bit_length() - 1)
        return math.prod(map(sums.get, variables(gap), repeat(unlisted)))

    return gap_factor


def _require_decomposable(circuit: Circuit) -> None:
    ok, bad = check_decomposable(circuit)
    if not ok:
        raise NonDecomposableError(f"AND node {bad} has children sharing variables")
