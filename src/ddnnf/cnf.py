"""CNF instances: DIMACS I/O and reverse-engineering of gate-defined
(Tseitin) variables."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .errors import ToolkitError

Clause = tuple[int, ...]


class DimacsError(ToolkitError):
    pass


def normalize_clause(lits) -> Clause | None:
    """Sorted, duplicate-free clause; None if the clause is a tautology."""
    seen = set(lits)
    for l in seen:
        if l == 0:
            raise ValueError("literal 0 in clause")
        if -l in seen:
            return None
    return tuple(sorted(seen))


@dataclass(frozen=True)
class CnfInstance:
    """Immutable clause set over variables 1..num_vars.

    ``tseitin_vars`` designates auxiliary variables introduced by a gate
    encoding (possibly empty, possibly recovered after the fact).
    """

    num_vars: int
    clauses: tuple[Clause, ...]
    tseitin_vars: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        object.__setattr__(self, "tseitin_vars", frozenset(self.tseitin_vars))
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
        if any(not 1 <= v <= self.num_vars for v in self.tseitin_vars):
            raise ValueError("tseitin_vars outside variable universe")

    @staticmethod
    def from_raw(num_vars: int, clauses, tseitin_vars=()) -> "CnfInstance":
        """Build an instance, deduplicating literals and dropping tautologies."""
        normalized = []
        for raw in clauses:
            clause = normalize_clause(raw)
            if clause is not None:
                normalized.append(clause)
        return CnfInstance(num_vars, tuple(normalized), frozenset(tseitin_vars))

    def variables(self) -> set[int]:
        """Variables that actually occur in some clause."""
        return {abs(l) for clause in self.clauses for l in clause}


# ---------------------------------------------------------------------------
# DIMACS I/O


def parse_dimacs(text: str) -> CnfInstance:
    """Parse DIMACS CNF. Duplicate literals are dropped, tautological clauses
    removed; a clause-count mismatch warns instead of failing."""
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, declared_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            if num_vars < 0:
                raise DimacsError(f"line {lineno}: negative variable count {num_vars}")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        try:
            tokens.extend(int(t) for t in line.split())
        except ValueError:
            raise DimacsError(f"line {lineno}: non-integer token in {line!r}") from None
    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")

    clauses = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            clauses.append(current)
            current = []
        else:
            if abs(tok) > num_vars:
                raise DimacsError(f"literal {tok} out of range 1..{num_vars}")
            current.append(tok)
    if current:
        raise DimacsError("unterminated clause at end of input")
    if declared_clauses != len(clauses):
        warnings.warn(
            f"header declares {declared_clauses} clauses, found {len(clauses)}",
            stacklevel=2,
        )
    return CnfInstance.from_raw(num_vars, clauses)


def write_dimacs(cnf: CnfInstance) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# Sidecar listing designated auxiliary variables: "t <count>" then the
# space-separated indices on the second line.


def format_tvars(tvars) -> str:
    ordered = sorted(tvars)
    return f"t {len(ordered)}\n" + " ".join(str(v) for v in ordered) + "\n"


def parse_tvars(text: str) -> frozenset[int]:
    # "#" starts a comment anywhere on a line.
    lines = [l for l in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if l]
    header = lines[0].split() if lines else []
    if len(header) < 2 or not header[0].startswith("t"):
        raise DimacsError("tvars sidecar must start with 't <count>'")
    try:
        count = int(header[1])
        values = [int(t) for l in lines[1:] for t in l.split()]
    except ValueError:
        raise DimacsError("tvars sidecar: non-integer count or variable") from None
    if len(values) != count:
        warnings.warn(f"tvars header declares {count}, found {len(values)}", stacklevel=2)
    return frozenset(values)


# ---------------------------------------------------------------------------
# Gate recovery


def detect_tseitin_vars(cnf: CnfInstance) -> frozenset[int]:
    """Recover variables that look like gate heads: ``x <=> AND(lits)`` or
    ``x <=> OR(lits)`` with the full clause pattern present.

    The returned set is acyclic as a definition graph: circular definitions
    are broken by dropping the head with the smaller variable index, since
    gate encoders conventionally append auxiliary variables last.
    """
    clause_set = set(cnf.clauses)
    candidates: dict[int, list[frozenset[int]]] = {}
    for clause in cnf.clauses:
        if len(clause) < 2:
            continue
        for head in clause:
            # Read the clause as (head | !l1 | ... | !lk), i.e. an AND gate
            # head <=> l1 & ... & lk. The OR-gate pattern is the same clause
            # set seen from the complementary head, so one reading suffices.
            body = [-l for l in clause if l != head]
            if all(normalize_clause((-head, b)) in clause_set for b in body):
                var = abs(head)
                entry = frozenset(body)
                if entry not in candidates.setdefault(var, []):
                    candidates[var].append(entry)

    selected = set(candidates)
    while True:
        deps = {}
        for v in sorted(selected):
            # Prefer the definition least entangled with other candidates.
            body = min(
                candidates[v],
                key=lambda b: (len({abs(l) for l in b} & selected), sorted(b)),
            )
            deps[v] = {abs(l) for l in body} & selected
        cyclic = _cyclic_vars(deps)
        if not cyclic:
            return frozenset(selected)
        for scc in cyclic:
            selected.discard(min(scc))


def _cyclic_vars(deps: dict[int, set[int]]) -> list[set[int]]:
    """Nontrivial strongly connected components of the definition graph."""
    index_of: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = [0]

    def strongconnect(v: int) -> None:
        # Iterative Tarjan to avoid recursion limits on long chains.
        work = [(v, iter(sorted(deps[v])))]
        index_of[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(deps[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.add(w)
                    if w == node:
                        break
                if len(scc) > 1 or node in deps[node]:
                    sccs.append(scc)

    for v in sorted(deps):
        if v not in index_of:
            strongconnect(v)
    return sccs
