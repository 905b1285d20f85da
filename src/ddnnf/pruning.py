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

from .circuit import AND, LIT, OR, Circuit, edges_and_size, mask_within, reached_from, size
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
    nodes, plain = circuit._nodes, circuit.universe_mask & ~circuit.tseitin_mask
    return {nid for nid, count in annotate_counts(circuit).items()
            if count == 1 << (nodes[nid][4] & plain).bit_count()}


def detect_artifacts(circuit: Circuit) -> set[int]:
    """Maximal artifact roots: flagged nodes with no flagged ancestor."""
    flagged = artifact_flags(circuit)
    if circuit.root is None:
        return set()
    return flagged & reached_from(circuit.root, circuit._nodes, flagged)


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
    internal = frozenset(nid for nid in roots if circuit._nodes[nid][2])
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
    return sorted(nid for nid in artifact_flags(pruned) if pruned.node(nid)[2])


def _rebuild(
    circuit: Circuit, xs: int, replace_true: frozenset[int]
) -> tuple[Circuit, dict[int, int]]:
    """The quantified circuit, and the id of each input node's image in it."""
    out = Circuit(universe=circuit.universe_mask & ~xs, tseitin_vars=circuit.tseitin_mask & ~xs)
    mapping: dict[int, int] = {}
    if circuit.root is not None:
        _image(circuit._nodes, circuit.reachable(), xs, replace_true, mapping,
               out.add_literal, out._add_internal, None, None)
        out.set_root(mapping[circuit.root])
    return out, mapping


def _image(nodes, ids, xs, replace_true, mapping, add_literal, add_internal, true, false):
    """Image the nodes ``ids``, ascending, into ``mapping``, which holds the
    image of every child already; ``true`` and ``false`` are the constants'
    image ids, None while there is none. The literals of the mask ``xs``'s
    variables and the nodes of ``replace_true`` become true, the AND of
    nothing; then constants propagate: a false child makes an AND false and
    a true child makes an OR true, other constant children are dropped, and
    a node left with one child is that child. An OR that decides a variable
    of ``xs`` decides nothing. Literals go to ``add_literal(lit)``, other
    nodes to ``add_internal(kind, children, decision)``.

    This is the one constant rule: the pruned build images every node, and
    ``_size_quantified`` the nodes at or above an internal artifact root.
    """
    image = mapping.__getitem__
    for nid in ids:
        kind, lit, children, decision, mask = nodes[nid]
        if nid in replace_true or (kind == LIT and xs & mask):
            kind, kept = AND, ()
        elif kind == LIT:
            mapping[nid] = add_literal(lit)
            continue
        else:
            unit, zero = (true, false) if kind == AND else (false, true)
            kept = set(map(image, children))
            kept.discard(unit)
            if zero in kept:
                mapping[nid] = zero
                continue
        if len(kept) == 1:
            mapping[nid] = next(iter(kept))
            continue
        if decision > 0 and xs >> decision & 1:
            decision = 0
        mapping[nid] = new = add_internal(kind, kept, decision)
        if not kept:
            if kind == AND:
                true = new
            else:
                false = new


def _size_quantified(
    circuit: Circuit, internal: frozenset[int], pruned: Circuit, mapping: dict[int, int]
) -> int:
    """``size(exists_quantify(circuit, gates))``, from the images ``mapping``
    of the build of ``pruned``, which replaced the nodes ``internal`` with
    true. The two images of a node differ only at or above a node of
    ``internal``, so ``_image`` images only those nodes again, overwriting
    ``mapping`` there. An image already in ``pruned`` keeps its id; any
    other goes to a side table, with ids from ``len(pruned)`` up, so a
    child's id is still below its parent's. Nothing is added to ``pruned``.
    """
    nodes = circuit._nodes
    redo: set[int] = set()
    for nid in circuit.reachable():
        if nid in internal or not redo.isdisjoint(nodes[nid][2]):
            redo.add(nid)

    table = dict(pruned._dedup)  # (kind, children) -> id, the side's ids added
    base = len(pruned)
    side: list[tuple] = []  # the side's nodes, by id - base: (kind, 0, children)

    def add_side(kind, children, decision):
        key = (kind, tuple(sorted(children)))
        nid = table.get(key)
        if nid is None:
            nid = table[key] = base + len(side)
            side.append((kind, 0, key[1]))
        return nid

    # The redone nodes all have children, so none is a literal. One is a
    # constant only where a child's image already is one, so the constants
    # are those of ``pruned``, and None where it has none.
    _image(nodes, sorted(redo), circuit.tseitin_mask, (), mapping, None, add_side,
           table.get((AND, ())), table.get((OR, ())))
    nodes = pruned._nodes + side
    return edges_and_size(nodes, reached_from(mapping[circuit.root], nodes))[1]
