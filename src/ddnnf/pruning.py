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
    return _rebuild(circuit, xs, frozenset())[0]


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
    comes from re-imaging the nodes at or above an internal artifact root
    (see ``_size_quantified``).
    """
    before = size(circuit)
    xs = circuit.tseitin_mask
    if not xs:
        return circuit, PruneReport(before, before, before, 0, [], 0, 0)

    roots = detect_artifacts(circuit)
    # A degenerate root (a gate-variable literal or true) becomes true under
    # quantification anyway, so only roots with children can change the rebuild.
    internal = frozenset(nid for nid in roots if circuit.node(nid).children)
    pruned, mapping = _rebuild(circuit, xs, internal)
    after_p = _size_quantified(circuit, internal, pruned, mapping) if internal else None
    del mapping  # before the sweep that sizes ``pruned``: a lower peak
    size_after_artifacts = size(pruned)
    report = PruneReport(
        size_before=before,
        size_after_exists=size_after_artifacts if after_p is None else after_p,
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


def _rebuild(
    circuit: Circuit, xs: int, replace_true: frozenset[int]
) -> tuple[Circuit, dict[int, int]]:
    """The quantified circuit, and the id of each input node's image in it."""
    out = Circuit(universe=circuit.universe_mask & ~xs, tseitin_vars=circuit.tseitin_mask & ~xs)
    mapping: dict[int, int] = {}
    if circuit.root is not None:
        mapping = _quantify(circuit, xs, replace_true, out)
        out.set_root(mapping[circuit.root])
    return out, mapping


def _quantify(
    circuit: Circuit, xs: int, replace_true: frozenset[int], out: Circuit
) -> dict[int, int]:
    """Add to ``out`` the image of every node reachable from the root, and
    return each node's image id. The literals of the mask ``xs``'s variables
    and the nodes of ``replace_true`` become true, the AND of nothing; then
    constants propagate: a false child makes an AND false and a true child
    makes an OR true, other constant children are dropped, and a node left
    with one child is that child. A constant is added when first needed.

    This is the one quantifying pass: the report's size after quantification
    alone is read from its images by ``_size_quantified``, which adds nothing.
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
            kept = set(map(image, node.children))
            kept.discard(unit)
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
    return mapping


def _size_quantified(
    circuit: Circuit, internal: frozenset[int], pruned: Circuit, mapping: dict[int, int]
) -> int:
    """``size(exists_quantify(circuit, gates))``, from the images ``mapping``
    of the build of ``pruned``, which replaced the nodes ``internal`` with
    true. The two images of a node differ only at or above a node of
    ``internal``, so only those nodes are imaged again, as ``_quantify``
    would image them, and ``mapping`` is overwritten there. An image already
    in ``pruned`` keeps its id; any other goes to a side table, with ids from
    ``len(pruned)`` up, so a child's id is still below its parent's. Nothing
    is added to ``pruned``.
    """
    table = dict(pruned._dedup)  # (kind, children) -> id, the side's ids added
    base = len(pruned)
    side_children: list[tuple[int, ...]] = []  # of the side's nodes, by id - base
    image = mapping.__getitem__
    # A re-imaged node is a constant only where a child's image already is
    # one, so no side node is: the constants are those of ``pruned``, and
    # None where it has none.
    true, false = table.get((AND, ())), table.get((OR, ()))
    redo: set[int] = set()
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if nid not in internal and redo.isdisjoint(node.children):
            continue
        redo.add(nid)
        kind = node.kind
        unit, zero = (true, false) if kind == AND else (false, true)
        kept = set(map(image, node.children))
        kept.discard(unit)
        if zero in kept:
            mapping[nid] = zero
            continue
        if len(kept) == 1:
            mapping[nid] = next(iter(kept))
            continue
        key = (kind, tuple(sorted(kept)))
        fresh = base + len(side_children)
        mapping[nid] = found = table.setdefault(key, fresh)
        if found == fresh:
            side_children.append(key[1])

    children = [node.children for node in map(pruned.node, range(base))] + side_children
    reached = map(children.__getitem__, reached_from(mapping[circuit.root], children.__getitem__))
    return sum(len(kids) - 1 for kids in reached if kids)
