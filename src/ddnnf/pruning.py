"""Removing gate (Tseitin) variables and the tautological subcircuits they
leave behind in compiled d-DNNF circuits.

``exists_quantify`` forgets a variable set by replacing its literals with
true and propagating constants. A subcircuit whose model count equals
2 to the number of non-gate variables it mentions is a tautology once the
gate variables are forgotten; ``detect_artifacts`` finds the maximal such
subcircuits from a single bottom-up count annotation, and ``prune`` replaces
them with true before quantifying.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import AND, LIT, OR, Circuit, mask_within, reached_from, size
from .counting import annotate_counts
from .errors import ToolkitError


class PruneVerificationError(ToolkitError):
    pass


@dataclass
class PruneReport:
    """Sizes before/after each pruning stage, in binary-operation counts.

    ``size_after_exists`` is quantification alone; ``size_after_artifacts``
    additionally replaces detected tautological subcircuits. Artifact roots
    without children (bare literals and true) are tallied as degenerate,
    separate from internal roots.
    """

    size_before: int
    size_after_exists: int
    size_after_artifacts: int
    artifacts_found: int
    artifact_node_ids: list[int]
    artifacts_internal: int
    artifacts_degenerate: int

    @property
    def frac_p(self) -> float:
        return self.size_after_exists / self.size_before if self.size_before else 1.0

    @property
    def frac_t(self) -> float:
        return self.size_after_artifacts / self.size_before if self.size_before else 1.0

    def summary(self) -> str:
        return (
            f"before={self.size_before} after_p={self.size_after_exists} "
            f"after_t={self.size_after_artifacts} artifacts={self.artifacts_found} "
            f"frac_p={self.frac_p:.4f} frac_t={self.frac_t:.4f}"
        )

    def to_key_values(self) -> dict[str, object]:
        return {
            "before": self.size_before,
            "after_p": self.size_after_exists,
            "after_t": self.size_after_artifacts,
            "artifacts": self.artifacts_found,
            "artifacts_internal": self.artifacts_internal,
            "artifacts_degenerate": self.artifacts_degenerate,
            "frac_p": f"{self.frac_p:.6f}",
            "frac_t": f"{self.frac_t:.6f}",
        }


def exists_quantify(circuit: Circuit, variables) -> Circuit:
    """Forget ``variables``, a set or its mask: replace their literals with
    true, propagate constants to fixpoint, and drop them from the universe."""
    xs = mask_within(variables, circuit.universe_mask)
    if xs is None:
        raise ValueError("quantified variables outside universe")
    return _rebuild(circuit, xs, frozenset())


def artifact_flags(circuit: Circuit) -> set[int]:
    """All reachable nodes whose model count equals 2^(mentioned non-gate
    variables) -- exactly the subcircuits that become tautologies when the
    circuit's designated gate variables are forgotten."""
    counts = annotate_counts(circuit)
    plain = circuit.universe_mask & ~circuit.tseitin_mask
    flagged = set()
    for nid in circuit.reachable():
        if counts[nid] == 1 << (circuit.node(nid).mask & plain).bit_count():
            flagged.add(nid)
    return flagged


def detect_artifacts(circuit: Circuit) -> set[int]:
    """Maximal artifact roots: flagged nodes with no flagged ancestor."""
    flagged = artifact_flags(circuit)
    if circuit.root is None:
        return set()
    below = reached_from(circuit.root, lambda nid: circuit.node(nid).children, flagged)
    return flagged & below


def prune(circuit: Circuit) -> tuple[Circuit, PruneReport]:
    """Full pipeline: detect artifact roots, replace them with true, forget
    the gate variables, and propagate. Returns the pruned circuit and a size
    report; the input circuit is left untouched, and is itself returned when
    it has no gate variables.

    Only the pruned circuit is built: the size after quantification alone
    comes from a walk that records no more than each node's children.
    """
    before = size(circuit)
    xs = circuit.tseitin_mask
    if not xs:
        return circuit, PruneReport(before, before, before, 0, [], 0, 0)

    roots = detect_artifacts(circuit)
    # A degenerate root (a gate-variable literal or true) becomes true under
    # quantification anyway, so only roots with children can change the rebuild.
    internal = frozenset(nid for nid in roots if circuit.node(nid).children)
    pruned = _rebuild(circuit, xs, internal)
    size_after_artifacts = size(pruned)
    if internal:
        sink = _SizeSink()
        size_after_exists = sink.size(_quantify(circuit, xs, frozenset(), sink))
    else:
        size_after_exists = size_after_artifacts
    report = PruneReport(
        size_before=before,
        size_after_exists=size_after_exists,
        size_after_artifacts=size_after_artifacts,
        artifacts_found=len(roots),
        artifact_node_ids=sorted(roots),
        artifacts_internal=len(internal),
        artifacts_degenerate=len(roots) - len(internal),
    )
    if not report.size_after_artifacts <= report.size_after_exists <= before:
        raise PruneVerificationError(f"size regression: {report.summary()}")
    return pruned, report


def residual_artifacts(pruned: Circuit) -> list[int]:
    """The tautologies ``prune`` left behind, ascending: a pruned circuit has
    no gate variables, so every flagged node is one; true, the one without
    children, may stay. Nonempty when the input broke a precondition of
    pruning, such as a gate variable the other variables do not define."""
    return sorted(nid for nid in artifact_flags(pruned) if pruned.node(nid).children)


def _rebuild(circuit: Circuit, xs: int, replace_true: frozenset[int]) -> Circuit:
    out = Circuit(universe=circuit.universe_mask & ~xs, tseitin_vars=circuit.tseitin_mask & ~xs)
    if circuit.root is not None:
        out.set_root(_quantify(circuit, xs, replace_true, out))
    return out


def _quantify(circuit: Circuit, xs: int, replace_true: frozenset[int], out) -> int:
    """Add to ``out`` the image of every node reachable from the root, and
    return the root's image. The literals of the mask ``xs``'s variables and
    the nodes of ``replace_true`` become true, the AND of nothing; then
    constants propagate: a false child makes an AND false and a true child
    makes an OR true, other constant children are dropped, and a node left
    with one child is that child.

    ``out`` is a ``Circuit`` or a ``_SizeSink``; both deduplicate alike, so
    they receive the same nodes in the same order. A constant is added when
    first needed.
    """
    mapping: dict[int, int] = {}
    image = mapping.__getitem__
    true = false = -1  # the constants' ids in ``out``, once added
    for nid in circuit.reachable():
        node = circuit.node(nid)
        kind = node.kind
        if nid in replace_true or (kind == LIT and xs & node.mask):
            kind, kept = AND, ()
        elif kind == LIT:
            mapping[nid] = out.add_literal(node.lit)
            continue
        else:
            unit, zero = (true, false) if kind == AND else (false, true)
            kept = dict.fromkeys(map(image, node.children))
            kept.pop(unit, None)
            if zero in kept:
                mapping[nid] = zero
                continue
        if len(kept) == 1:
            mapping[nid] = next(iter(kept))
        elif kind == AND:
            mapping[nid] = out.add_and(kept)
        else:
            decision = 0 if node.decision > 0 and xs >> node.decision & 1 else node.decision
            mapping[nid] = out.add_or(kept, decision=decision)
        if not kept:
            if kind == AND:
                true = mapping[nid]
            else:
                false = mapping[nid]
    return mapping[circuit.root]


class _SizeSink:
    """Takes ``_quantify``'s output in place of a ``Circuit`` when only the
    result's size is wanted: it deduplicates nodes as ``Circuit`` does, but
    keeps only their child tuples."""

    def __init__(self) -> None:
        self._children: list[tuple[int, ...]] = []
        self._dedup: dict[object, int] = {}

    def _add(self, key, kids: tuple[int, ...] = ()) -> int:
        nid = self._dedup.get(key)
        if nid is None:
            nid = self._dedup[key] = len(self._children)
            self._children.append(kids)
        return nid

    add_literal = _add

    def add_and(self, children, kind: str = AND) -> int:
        kids = tuple(sorted(children))
        return self._add((kind, kids), kids)

    def add_or(self, children, decision: int = 0) -> int:
        return self.add_and(children, OR)

    def size(self, root: int) -> int:
        """``circuit.size`` of the nodes reachable from ``root``."""
        reached = map(self._children.__getitem__, reached_from(root, self._children.__getitem__))
        return sum(len(kids) - 1 for kids in reached if kids)
