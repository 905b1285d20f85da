"""Seeded text inputs for the three workloads, each with its closed-form answer.

The structure of every instance is fixed, so every seed measures the same
work. The seed draws only what that work does not depend on: variable names,
clause and literal order in DIMACS text, and per-variable weights. Renaming a
formula's variables leaves the program's variable numbering (first occurrence)
and therefore its circuits unchanged, byte for byte.

Formulas are built as small tuple trees, rendered to the program's formula
language, and evaluated by the benchmark's own tests:
``("var", name)``, ``("not", f)``, ``("and", [fs])``, ``("or", [fs])`` and
``("iff", f, g)``.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from fractions import Fraction

MUTEX_SIZES = (24, 26, 28, 30)
MUTEX_STRUCTURES = (0, 1, 2)
CHAIN_SIZES = tuple(range(100, 401, 50))
NOISY_OR_SIZES = (128, 192, 256)
OVERLAP_SIZES = (150, 200, 250)

WEIGHT_DENOMINATOR = 1000
NAME_LENGTH = 6


@dataclass
class Instance:
    """One program input. ``models`` is the model count over the instance's
    own variables; ``weights`` maps a name to the weight of its positive
    literal (the negative literal weighs the rest of 1), and ``wmc`` is the
    weighted count under them."""

    name: str
    text: str
    models: int
    formula: tuple | None = None
    weights: dict[str, Fraction] = field(default_factory=dict)
    wmc: Fraction | None = None


class _Names:
    """Distinct random identifiers of one length, so text length, and with it
    parsing work, does not depend on the seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self) -> str:
        while True:
            name = self.rng.choice(string.ascii_lowercase) + "".join(
                self.rng.choices(string.ascii_lowercase + string.digits, k=NAME_LENGTH - 1)
            )
            if name not in self.used:
                self.used.add(name)
                return name


def render(f: tuple) -> str:
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind == "not":
        return "!" + render(f[1])
    if kind == "iff":
        return f"({render(f[1])} <=> {render(f[2])})"
    joiner = " & " if kind == "and" else " | "
    return "(" + joiner.join(render(c) for c in f[1]) + ")"


def mutex_cpt(n: int, structure: int, rng: random.Random) -> Instance:
    """Bayesian network of ``n`` nodes with two parents each, every CPT
    encoded case by case: node <=> OR over the four parent cases, each case
    carrying its own parameter variable. Parents are earlier nodes drawn by
    ``structure`` (the draws of ``ddnnf.bench.gen_mutex_cpt``); a node short
    of earlier nodes gets fresh root variables instead.

    Every assignment to roots and parameters fixes every node, so the count
    is 2^(variables - n)."""
    names = _Names(rng)
    pick = random.Random(structure)
    nodes = [names.fresh() for _ in range(n)]
    num_vars = n
    iffs = []
    for i in range(n):
        parents = [nodes[p] for p in sorted(pick.sample(range(i), min(2, i)))]
        while len(parents) < 2:
            parents.append(names.fresh())
            num_vars += 1
        cases = []
        for case in range(4):
            lits = [("var", p) if case >> bit & 1 else ("not", ("var", p)) for bit, p in enumerate(parents)]
            lits.append(("var", names.fresh()))
            num_vars += 1
            cases.append(("and", lits))
        iffs.append(("iff", ("var", nodes[i]), ("or", cases)))
    f = ("and", iffs)
    return Instance(f"mutex_p2_n{n}_s{structure}", render(f), 2 ** (num_vars - n), formula=f)


def implication_chain(n: int, rng: random.Random) -> Instance:
    """DIMACS text of x1 -> x2 -> ... -> xn, clauses and literals in seeded
    order. The models are the n + 1 monotone sequences 0..01..1."""
    clauses = [[-i, i + 1] for i in range(1, n)]
    rng.shuffle(clauses)
    for clause in clauses:
        rng.shuffle(clause)
    lines = [f"p cnf {n} {len(clauses)}"] + [f"{a} {b} 0" for a, b in clauses]
    return Instance(f"chain_n{n}", "\n".join(lines) + "\n", n + 1)


def _weights(rng: random.Random, names) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(1, WEIGHT_DENOMINATOR - 1), WEIGHT_DENOMINATOR) for v in names}


def _none_of_pairs(weights, pairs) -> Fraction:
    out = Fraction(1)
    for a, b in pairs:
        out *= 1 - weights[a] * weights[b]
    return out


def noisy_or(n: int, rng: random.Random) -> Instance:
    """Noisy-OR with n parents, child observed true:
    a & (a <=> OR_i (p_i & q_i)). Count 4^n - 3^n; weighted count
    w(a) * (1 - prod_i (1 - w(p_i) w(q_i)))."""
    names = _Names(rng)
    child = names.fresh()
    pairs = [(names.fresh(), names.fresh()) for _ in range(n)]
    weights = _weights(rng, [child] + [v for pair in pairs for v in pair])
    body = ("or", [("and", [("var", p), ("var", q)]) for p, q in pairs])
    f = ("and", [("var", child), ("iff", ("var", child), body)])
    wmc = weights[child] * (1 - _none_of_pairs(weights, pairs))
    return Instance(f"noisy_or_n{n}", render(f), 4**n - 3**n, f, weights, wmc)


def overlap(n: int, rng: random.Random) -> Instance:
    """n variable-disjoint pairs, OR_i (x_i & y_i). Count 4^n - 3^n;
    weighted count 1 - prod_i (1 - w(x_i) w(y_i))."""
    names = _Names(rng)
    pairs = [(names.fresh(), names.fresh()) for _ in range(n)]
    weights = _weights(rng, [v for pair in pairs for v in pair])
    f = ("or", [("and", [("var", a), ("var", b)]) for a, b in pairs])
    wmc = 1 - _none_of_pairs(weights, pairs)
    return Instance(f"overlap_n{n}", render(f), 4**n - 3**n, f, weights, wmc)


def mutex_instances(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [mutex_cpt(n, s, rng) for n in MUTEX_SIZES for s in MUTEX_STRUCTURES]


def chain_instances(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [implication_chain(n, rng) for n in CHAIN_SIZES]


def query_instances(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [noisy_or(n, rng) for n in NOISY_OR_SIZES] + [overlap(n, rng) for n in OVERLAP_SIZES]
