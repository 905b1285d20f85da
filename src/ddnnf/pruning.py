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

from .circuit import AND, FALSE, LIT, OR, TRUE, Circuit, size
from .counting import CountAnnotation, annotate_counts
from .errors import ToolkitError


class PruneVerificationError(ToolkitError):
    pass


@dataclass
class PruneReport:
    """Sizes before/after each pruning stage, in binary-operation counts.

    ``size_after_exists`` is quantification alone; ``size_after_artifacts``
    additionally replaces detected tautological subcircuits. Artifact roots
    that are bare literals or constants are tallied as degenerate, separate
    from internal (AND/OR) roots.
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
    """Forget ``variables``: replace their literals with true, propagate
    constants to fixpoint, and drop them from the universe."""
    xs = frozenset(variables)
    if not xs <= circuit.universe:
        raise ValueError("quantified variables outside universe")
    return _rebuild(circuit, xs, frozenset())


def artifact_flags(circuit: Circuit, counts: CountAnnotation | None = None) -> set[int]:
    """All reachable nodes whose model count equals 2^(mentioned non-gate
    variables) -- exactly the subcircuits that become tautologies when the
    circuit's designated gate variables are forgotten."""
    if counts is None:
        counts = annotate_counts(circuit)
    plain = circuit.universe - circuit.tseitin_vars
    flagged = set()
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if counts[nid] == 1 << len(node.varset & plain):
            flagged.add(nid)
    return flagged


def detect_artifacts(circuit: Circuit, counts: CountAnnotation | None = None) -> set[int]:
    """Maximal artifact roots: flagged nodes with no flagged ancestor."""
    flagged = artifact_flags(circuit, counts)
    if circuit.root is None:
        return set()
    roots: set[int] = set()
    seen: set[int] = set()
    stack = [circuit.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if nid in flagged:
            roots.add(nid)
            continue
        stack.extend(circuit.node(nid).children)
    return roots


def prune(circuit: Circuit, verify: bool = False) -> tuple[Circuit, PruneReport]:
    """Full pipeline: detect artifact roots, replace them with true, forget
    the gate variables, and propagate. Returns the pruned circuit and a size
    report; the input circuit is left untouched.

    With ``verify`` a re-detection pass asserts that no tautological
    subcircuit survived pruning.
    """
    _, pruned, report = prune_stages(circuit, verify)
    return pruned, report


def prune_stages(
    circuit: Circuit, verify: bool = False
) -> tuple[Circuit, Circuit, PruneReport]:
    """``prune`` that also returns the circuit after quantification alone,
    which it builds anyway to measure: ``(exists_only, pruned, report)``.
    Without gate variables both are the input circuit."""
    before = size(circuit)
    xs = circuit.tseitin_vars
    if not xs:
        report = PruneReport(before, before, before, 0, [], 0, 0)
        return circuit, circuit, report

    counts = annotate_counts(circuit)
    roots = detect_artifacts(circuit, counts)
    # A degenerate root (a gate-variable literal or true) becomes true under
    # quantification anyway, so only AND/OR roots can change the rebuild.
    internal = frozenset(nid for nid in roots if circuit.node(nid).kind in (AND, OR))
    exists_only = _rebuild(circuit, xs, frozenset())
    pruned = _rebuild(circuit, xs, internal) if internal else exists_only
    size_after_exists = size(exists_only)
    report = PruneReport(
        size_before=before,
        size_after_exists=size_after_exists,
        size_after_artifacts=size(pruned) if internal else size_after_exists,
        artifacts_found=len(roots),
        artifact_node_ids=sorted(roots),
        artifacts_internal=len(internal),
        artifacts_degenerate=len(roots) - len(internal),
    )
    if not report.size_after_artifacts <= report.size_after_exists <= before:
        raise PruneVerificationError(f"size regression: {report.summary()}")
    if verify:
        _assert_no_residual_artifacts(pruned)
    return exists_only, pruned, report


def _assert_no_residual_artifacts(pruned: Circuit) -> None:
    counts = annotate_counts(pruned)
    for nid in pruned.reachable():
        node = pruned.node(nid)
        if node.kind in (TRUE, FALSE):
            continue
        if counts[nid] == 1 << len(node.varset):
            raise PruneVerificationError(f"node {nid} is still a tautology after pruning")


def _rebuild(circuit: Circuit, xs: frozenset[int], replace_true: frozenset[int]) -> Circuit:
    out = Circuit(
        universe=circuit.universe - xs,
        tseitin_vars=circuit.tseitin_vars - xs,
        determinism_verified=circuit.determinism_verified,
    )
    if circuit.root is None:
        return out
    mapping: dict[int, int] = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if nid in replace_true:
            mapping[nid] = out.add_true()
            continue
        if node.kind == TRUE:
            mapping[nid] = out.add_true()
        elif node.kind == FALSE:
            mapping[nid] = out.add_false()
        elif node.kind == LIT:
            if abs(node.lit) in xs:
                mapping[nid] = out.add_true()
            else:
                mapping[nid] = out.add_literal(node.lit)
        elif node.kind == AND:
            kept: dict[int, None] = {}
            short_circuit = None
            for c in node.children:
                m = mapping[c]
                kind = out.node(m).kind
                if kind == FALSE:
                    short_circuit = out.add_false()
                    break
                if kind != TRUE:
                    kept.setdefault(m)
            if short_circuit is not None:
                mapping[nid] = short_circuit
            elif not kept:
                mapping[nid] = out.add_true()
            elif len(kept) == 1:
                mapping[nid] = next(iter(kept))
            else:
                mapping[nid] = out.add_and(kept)
        else:
            kept = {}
            short_circuit = None
            for c in node.children:
                m = mapping[c]
                kind = out.node(m).kind
                if kind == TRUE:
                    short_circuit = out.add_true()
                    break
                if kind != FALSE:
                    kept.setdefault(m)
            if short_circuit is not None:
                mapping[nid] = short_circuit
            elif not kept:
                mapping[nid] = out.add_false()
            elif len(kept) == 1:
                mapping[nid] = next(iter(kept))
            else:
                decision = 0 if node.decision in xs else node.decision
                mapping[nid] = out.add_or(kept, decision=decision)
    out.set_root(mapping[circuit.root])
    return out
