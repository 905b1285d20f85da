import gc
import hashlib
import random
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddnnf import (
    CircuitTables,
    CnfInstance,
    tseitin_transform,
    model_count,
    parse_dimacs,
    parse_nnf,
    prune,
    size,
    stats_line,
    write_nnf,
)
from ddnnf.circuit import NnfFormatError
from ddnnf.compiler import (
    CompileBudgetError,
    CompileConfig,
    _Search,
    compile,
)
from ddnnf.bench import gen_mutex_cpt, gen_noisy_or, gen_overlapping_disjunction
from ddnnf.oracle import enumerate_models
from ddnnf.pruning import exists_quantify

from helpers import cnf_strategy, condition, random_cnf, shuffled_order, split_components
from test_cnf import OVERLAP_DIMACS


class TestCompile:
    def test_unit_clause_becomes_literal(self):
        circuit = compile(CnfInstance.from_raw(1, [[1]]))
        assert circuit.node(circuit.root).kind == "L"
        assert circuit.node(circuit.root).lit == 1

    def test_conflict_becomes_false(self):
        circuit = compile(CnfInstance.from_raw(1, [[1], [-1]]))
        root = circuit.node(circuit.root)
        assert (root.kind, root.children) == ("O", ())  # false: the OR of nothing

    def test_empty_cnf_becomes_true(self):
        circuit = compile(CnfInstance.from_raw(3, []))
        root = circuit.node(circuit.root)
        assert (root.kind, root.children) == ("A", ())  # true: the AND of nothing
        assert model_count(circuit) == 8

    def test_gate_subcircuit_under_first_branch(self):
        # Branching the overlap encoding on x1 first isolates the second
        # gate as a variable-disjoint component over {x2, c, d}.
        cnf = parse_dimacs(OVERLAP_DIMACS)
        circuit = compile(cnf, CompileConfig(order=[5]))
        gate_nodes = [
            nid
            for nid in circuit.reachable()
            if circuit.node(nid).varset == {3, 4, 6}
            and circuit.node(nid).kind in ("A", "O")
        ]
        assert gate_nodes
        reference = _gate_models(circuit)
        assert any(_models_at(circuit, nid) == reference for nid in gate_nodes)

    def test_all_branching_modes_equivalent(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        expected = enumerate_models(cnf).models
        configs = [
            CompileConfig(order="input"),
            CompileConfig(order="dynamic"),
            CompileConfig(order=shuffled_order(cnf.num_vars, 3)),
            CompileConfig(order=[6, 2, 4]),
        ]
        for cfg in configs:
            circuit = compile(cnf, cfg)
            assert enumerate_models(circuit).models == expected

    def test_random_cnfs_match_brute_force(self):
        rng = random.Random(42)
        for i in range(60):
            cnf = random_cnf(rng, max_vars=10, max_clauses=30)
            cfg = [
                CompileConfig(order="input"),
                CompileConfig(order="dynamic"),
                CompileConfig(order=shuffled_order(cnf.num_vars, i)),
            ][i % 3]
            circuit = compile(cnf, cfg)
            assert enumerate_models(circuit).models == enumerate_models(cnf).models

    @given(cnf_strategy(max_vars=7, max_clauses=12))
    @settings(max_examples=60, deadline=None)
    def test_deterministic_by_construction(self, cnf):
        circuit = compile(cnf, CompileConfig(order="dynamic"))
        assert CircuitTables(circuit).deterministic()

    def test_budget_exceeded(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        with pytest.raises(CompileBudgetError):
            compile(cnf, CompileConfig(max_decisions=1))

    def test_explicit_order_validation(self):
        # Wrong whatever the CNF: refused when the config is built.
        for order in ([1, 1], "random", "dyn", [0], [-1], [2, 2]):
            with pytest.raises(ValueError):
                CompileConfig(order=order)
        with pytest.raises(ValueError, match="^unknown branch order 'bogus'$"):
            CompileConfig(order="bogus")
        # Beyond the header: refused by compile.
        with pytest.raises(ValueError, match="^order variable 99 out of range 1..6$"):
            compile(parse_dimacs(OVERLAP_DIMACS), CompileConfig(order=[99]))
        assert CompileConfig(order=[3, 2, 1]) == CompileConfig(order=(3, 2, 1))
        with pytest.raises(FrozenInstanceError):
            CompileConfig().order = "dynamic"

    def test_free_variables_tracked_by_universe(self):
        cnf = CnfInstance.from_raw(4, [[1]])
        circuit = compile(cnf)
        assert circuit.universe == {1, 2, 3, 4}
        assert model_count(circuit) == 8

    def test_tseitin_designation_carried(self):
        cnf = CnfInstance.from_raw(2, [[1, 2]], tseitin_vars={2})
        assert compile(cnf).tseitin_vars == {2}


def _models_at(circuit, nid):
    # the models over the full universe of the circuit re-rooted at nid
    root = circuit.root
    circuit.set_root(nid)
    try:
        return enumerate_models(circuit)
    finally:
        circuit.set_root(root)


def _gate_models(circuit):
    # models of x2 <=> (c & d) over the full universe, from a hand-built
    # reference circuit
    from ddnnf import Circuit

    c = Circuit(circuit.universe)
    both = c.add_and([c.add_literal(6), c.add_literal(3), c.add_literal(4)])
    neither_c = c.add_and([c.add_literal(-6), c.add_literal(-3)])
    neither_d = c.add_and([c.add_literal(-6), c.add_literal(-4)])
    c.set_root(c.add_or([both, neither_c, neither_d]))
    return enumerate_models(c)


def _chain(n):
    # x1 -> x2 -> ... -> xn: n + 1 models, one decision level per variable
    # in input order
    return CnfInstance.from_raw(n, [[-i, i + 1] for i in range(1, n)])


def _golden_instances():
    cnfs = [tseitin_transform(gen_mutex_cpt(n, 2, seed)).cnf for n, seed in ((3, 0), (5, 1), (7, 2))]
    cnfs += [tseitin_transform(gen_noisy_or(n)).cnf for n in (2, 4, 8)]
    cnfs += [tseitin_transform(gen_overlapping_disjunction(n)).cnf for n in (2, 3, 6)]
    cnfs += [_chain(n) for n in (2, 9, 40)]
    # Unnormalized clauses: repeated literals, a tautology, an empty clause.
    cnfs += [
        CnfInstance(3, ((1, 1, 2), (-2,), (-1, -1, 3))),
        CnfInstance(4, ((1, -1), (2, 3, 3), (-3, 4), (-4, 2, 1))),
        CnfInstance(2, ((1,), ())),
    ]
    rng = random.Random(2024)
    cnfs += [random_cnf(rng, max_vars=9, max_clauses=24, gate_prob=0.3) for _ in range(60)]
    return cnfs


# sha256 over the concatenated write_nnf texts of _golden_instances(),
# recorded from the recursive compiler that the explicit-stack one replaced.
# ``random`` is each instance's ``shuffled_order`` of seed 0.
GOLDEN_NNF_SHA256 = {
    "input": "47bfc1aff227e02af4d2c8c5289d3e0f7cdf7ba40b00b46efd422c917a334d68",
    "dynamic": "43fb6eb5faa0bff0e6183d7a830099762b7c78bd93876337fe0cd5367de87119",
    "random": "75fd5491e5a40bdf7d29f5203179e793591288a6e9897bb942c34f7792bc9a2a",
}


@pytest.mark.parametrize("cached", [True])  # see DECISIONS
@pytest.mark.parametrize("order", sorted(GOLDEN_NNF_SHA256))
def test_output_bytes_pinned(order, cached):
    digest = hashlib.sha256()
    for cnf in _golden_instances():
        named = shuffled_order(cnf.num_vars) if order == "random" else order
        circuit = compile(cnf, CompileConfig(order=named))
        digest.update(write_nnf(circuit).encode())
    assert digest.hexdigest() == GOLDEN_NNF_SHA256[order]


def _smallest_budget(cnf, order):
    budget = 0
    while True:
        try:
            compile(cnf, CompileConfig(order=order, max_decisions=budget))
            return budget
        except CompileBudgetError:
            budget += 1


def test_renumbering_is_invisible():
    # compile searches on the variables in clauses renumbered 1..k. Spread
    # out as 3v + 1 under the header 3n + 1, the same clauses must give the
    # same circuit node for node, under that renaming, and the same search.
    def spread(lit):
        return 3 * lit + 1 if lit > 0 else 3 * lit - 1

    rng = random.Random(29)
    for t in range(90):
        n = rng.randint(1, 7)
        # Built directly, so repeated literals and tautologies stay.
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(1, 14))
        ]
        clauses = tuple(c for c in clauses if c or rng.random() < 0.1)
        order = ["input", "dynamic", rng.sample(range(1, n + 1), rng.randint(1, n))][t % 3]
        spread_order = order if isinstance(order, str) else [spread(v) for v in order]
        cnf = CnfInstance(n, clauses)
        spread_cnf = CnfInstance(3 * n + 1, tuple(tuple(map(spread, c)) for c in clauses))
        a = compile(cnf, CompileConfig(order=order))
        b = compile(spread_cnf, CompileConfig(order=spread_order))
        assert (len(b), b.root) == (len(a), a.root)
        for nid in range(len(a)):
            x, y = a.node(nid), b.node(nid)
            assert (y.kind, y.children) == (x.kind, x.children)
            assert y.lit == (spread(x.lit) if x.lit else 0)
            assert y.decision == (spread(x.decision) if x.decision else 0)
        assert _smallest_budget(spread_cnf, spread_order) == _smallest_budget(cnf, order)


def test_result_freed_without_cycle_collector():
    # Nothing of a compile run may keep the circuit (or the cache) alive
    # once the caller drops it.
    gc.disable()
    try:
        ref = weakref.ref(compile(parse_dimacs(OVERLAP_DIMACS)))
        assert ref() is None
    finally:
        gc.enable()


# Instances whose decision counts are pinned, and their search: order
# (``random`` is the instance's ``shuffled_order`` of the seed column),
# seed, cache, and the decisions of a whole compile, recorded from the
# compiler that rebuilt each component's occurrence index per decision. A
# budget of exactly that many passes and one fewer raises, which pins the
# search and its cache hits, not only the output bytes. The cache column is
# True in every row, as every compile caches components; it stays so that
# the rows, and the ids of the tests they make, keep their recorded form.
_PINNED_SEARCH = {
    "mutex_12": lambda: tseitin_transform(gen_mutex_cpt(12, 2, 0)).cnf,
    "mutex_13": lambda: tseitin_transform(gen_mutex_cpt(13, 2, 1)).cnf,
    "mutex_14": lambda: tseitin_transform(gen_mutex_cpt(14, 2, 1)).cnf,
    "mutex_16": lambda: tseitin_transform(gen_mutex_cpt(16, 2, 2)).cnf,
    "noisy_or_16": lambda: tseitin_transform(gen_noisy_or(16)).cnf,
    "overlap_12": lambda: tseitin_transform(gen_overlapping_disjunction(12)).cnf,
    "chain_200": lambda: _chain(200),
}
DECISIONS = [
    ("mutex_12", "input", 0, True, 61),
    ("mutex_16", "input", 0, True, 265),
    ("noisy_or_16", "input", 0, True, 60),
    ("overlap_12", "input", 0, True, 44),
    ("chain_200", "input", 0, True, 199),
    ("mutex_14", "dynamic", 0, True, 93),
    ("mutex_16", "dynamic", 0, True, 129),
    ("noisy_or_16", "dynamic", 0, True, 46),
    ("overlap_12", "dynamic", 0, True, 34),
    ("chain_200", "dynamic", 0, True, 100),
    ("mutex_13", "random", 2, True, 2145),
    ("noisy_or_16", "random", 0, True, 195),
    ("overlap_12", "random", 0, True, 807),
    ("chain_200", "random", 0, True, 135),
]


@pytest.mark.parametrize("instance, order, seed, cached, decisions", DECISIONS)
def test_decisions_pinned(instance, order, seed, cached, decisions):
    cnf = _PINNED_SEARCH[instance]()
    named = shuffled_order(cnf.num_vars, seed) if order == "random" else order
    config = CompileConfig(order=named)
    compile(cnf, replace(config, max_decisions=decisions))
    with pytest.raises(CompileBudgetError):
        compile(cnf, replace(config, max_decisions=decisions - 1))


# ``dynamic`` order at the sizes the benchmark compiles, where the most
# occurrences tie far more often than on the instances above: size, sha256
# of the written text and decisions, recorded from the compiler that counted
# a component's occurrences apart from the search that found it.
SCALE_PINS = {
    "mutex_p2_n24_s0": (
        lambda: gen_mutex_cpt(24, 2, 0), 3945,
        "93a6abf29dfa1ec8110d3631dcb1057534171afdb2488183c9fbda7936f59038", 353),
    "noisy_or_n64": (
        lambda: gen_noisy_or(64), 2714,
        "398c947ac0c27a88d40e093c3b59490387e4956fd567cf96c5fb9d8f33b4632b", 190),
    "overlap_n150": (
        lambda: gen_overlapping_disjunction(150), 12818,
        "b4e36e6b30b272ecb6b41028744093d3db693b028a5a6936de5d15a854c2ca18", 448),
}


@pytest.mark.parametrize("instance", sorted(SCALE_PINS))
def test_dynamic_order_pinned_at_scale(instance):
    formula, expected_size, digest, decisions = SCALE_PINS[instance]
    cnf = tseitin_transform(formula()).cnf
    circuit = compile(cnf, CompileConfig(order="dynamic", max_decisions=decisions))
    assert size(circuit) == expected_size
    assert hashlib.sha256(write_nnf(circuit).encode()).hexdigest() == digest
    with pytest.raises(CompileBudgetError):
        compile(cnf, CompileConfig(order="dynamic", max_decisions=decisions - 1))


# tracemalloc peaks in bytes of two compiles, per Python version, recorded
# from the compiler that rebuilt each component's occurrence index per
# decision. A frozenset kept per cache entry (2.8 and 2.3 times these), or
# each pending component's residual clauses kept next to its positions (1.4
# times both), exceeds the 1.2 allowed.
COMPILE_PEAK_BYTES = {
    (3, 10): {"chain_400": 2_897_591, "noisy_or_128": 1_356_950},
    (3, 11): {"chain_400": 2_700_562, "noisy_or_128": 1_297_288},
    (3, 12): {"chain_400": 2_710_114, "noisy_or_128": 1_300_360},
    (3, 13): {"chain_400": 2_710_154, "noisy_or_128": 1_300_240},
}


@pytest.mark.parametrize("instance", ["chain_400", "noisy_or_128"])
def test_compile_peak_memory(instance):
    recorded = COMPILE_PEAK_BYTES.get(sys.version_info[:2])
    if recorded is None:
        pytest.skip(f"no peak recorded for Python {sys.version_info[0]}.{sys.version_info[1]}")
    if instance == "chain_400":
        cnf, order = _chain(400), "input"
    else:
        cnf, order = tseitin_transform(gen_noisy_or(128)).cnf, "dynamic"
    gc.collect()
    tracemalloc.start()
    try:
        compile(cnf, CompileConfig(order=order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * recorded[instance]


# The first three ids are those of the cases on variable 1 alone.
@pytest.mark.parametrize("variable, order", [
    pytest.param(1, "input", id="input"),
    pytest.param(1, "dynamic", id="dynamic"),
    pytest.param(1, (1,), id="order2"),
    pytest.param(10**7, "input", id="highest-input"),
    pytest.param(10**7, "dynamic", id="highest-dynamic"),
    pytest.param(10**7, (10**7,), id="highest-explicit"),
])
def test_compile_memory_follows_clauses(variable, order):
    # The declared variable count alone costs the search no memory: a state
    # sized by it would hold three lists per declared variable, over 200 MB
    # here. Nor does the highest variable in a clause, as the search runs on
    # the clause variables renumbered from 1. An explicit order costs what it
    # names, not a rank per declared variable.
    cnf = parse_dimacs(f"p cnf {10**7} 1\n{variable} 0\n")
    gc.collect()
    tracemalloc.start()
    try:
        circuit = compile(cnf, CompileConfig(order=order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert circuit.node(circuit.root).lit == variable


class TestDeepInputs:
    def test_long_implication_chain(self):
        circuit = compile(_chain(800), CompileConfig(order="input"))
        assert model_count(circuit) == 801

    def test_wide_overlapping_disjunction(self):
        n = 250
        encoded = tseitin_transform(gen_overlapping_disjunction(n))
        circuit = compile(encoded.cnf, CompileConfig(order="input"))
        assert model_count(circuit) == 4**n - 3**n


def _propagate_reference(cnf, lit):
    # Condition on ``lit`` (0: on nothing), then on the first unit clause in
    # clause order until none is left, then split into components.
    units = []
    while True:
        if lit:
            cnf = condition(cnf, lit)
        if any(not c for c in cnf.clauses):
            return None
        lit = next((c[0] for c in cnf.clauses if len(c) == 1), 0)
        if not lit:
            return units, [comp.clauses for comp in split_components(cnf)]
        units.append(lit)


def _split_clauses(search, split):
    # A propagation's units and each component's residual clauses. A
    # searched component carries the variable that ``dynamic`` order
    # branches on: the most occurrences in its residual clauses, the
    # smallest on a tie; one returned without a search carries 0.
    if split is None:
        return None
    units, components = split
    for low, comp, best in components:
        assert best or len(components) == 1
        residual = [search.residual[i] for i in comp]
        assert low == min(abs(l) for c in residual for l in c)
        if best:
            occ = Counter(abs(l) for c in residual for l in c)
            assert best == max(occ.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    return units, [tuple(search.residual[i] for i in comp) for _, comp, _ in components]


def _state(search):
    return [bool(s) for s in search.state], list(search.residual)


def _branch_literal(search, components, rng, lit=None):
    # A literal on one of the components: ``lit`` on the one holding its
    # variable when given, else a random one.
    if lit is not None:
        comp = next(comp for _, comp, _ in components
                    if any(abs(l) == abs(lit) for i in comp for l in search.residual[i]))
        return comp, lit
    _, comp, _ = rng.choice(components)
    variables = sorted({abs(l) for i in comp for l in search.residual[i]})
    return comp, rng.choice(variables) * rng.choice((1, -1))


def _check_shared_state(cnf, rng, lits=(None, None, None)):
    """One search state against conditioning one unit at a time: the root
    propagation, a literal ``a`` on one of its components, ``b`` on one of
    a's components undone again, then ``c`` on one of a's components (the
    literals of ``lits`` where given). Every step must match the reference
    on the component's residual CNF, ``c`` must leave what it leaves on a
    fresh state, and undoing to the first mark must restore every flag and
    residual."""

    def step(search, lit, comp):
        before = CnfInstance(cnf.num_vars, tuple(search.residual[i] for i in comp))
        split = search.propagate(lit, comp)
        assert _split_clauses(search, split) == _propagate_reference(before, lit)
        return split

    search = _Search(cnf)
    first = search.mark()
    everything = range(len(cnf.clauses))
    root = search.propagate(0, everything)
    assert _split_clauses(search, root) == _propagate_reference(cnf, 0)
    if root is not None and root[1]:
        comp_a, a = _branch_literal(search, root[1], rng, lits[0])
        split_a = step(search, a, comp_a)
        if split_a is not None and split_a[1]:
            after_a = search.mark()
            comp_b, b = _branch_literal(search, split_a[1], rng, lits[1])
            step(search, b, comp_b)
            search.undo(after_a)
            comp_c, c = _branch_literal(search, split_a[1], rng, lits[2])
            got = _split_clauses(search, step(search, c, comp_c))
            fresh = _Search(cnf)
            fresh.propagate(0, everything)
            fresh.propagate(a, comp_a)
            assert _split_clauses(fresh, fresh.propagate(c, comp_c)) == got
            assert _state(search) == _state(fresh)
    search.undo(first)
    assert _state(search) == _state(_Search(cnf))
    assert search.mark() == (0, 0)


class TestPropagate:
    @given(cnf_strategy(max_vars=8, max_clauses=16), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=300, deadline=None)
    def test_matches_one_unit_at_a_time(self, cnf, seed):
        _check_shared_state(cnf, random.Random(seed))

    def test_matches_on_unnormalized_clauses(self):
        # Repeated literals, tautologies, unit and empty clauses, as a
        # CnfInstance built directly keeps them.
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 7)
            clauses = [
                tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(0, 12))
            ]
            clauses = [c for c in clauses if c or rng.random() < 0.1]
            _check_shared_state(CnfInstance(n, tuple(clauses)), rng)

    # A decision that cannot split its component skips the search; these
    # decide the literals a, b and c on each side of that line.
    @pytest.mark.parametrize(
        "clauses, lits",
        [
            # an input-order chain decided at its ends: one free variable
            # of the satisfied clause is the one point
            ([(-1, 2), (-2, 3), (-3, 4), (-4, 5), (-5, 6)], (-1, 6, -2)),
            # a path decided in the middle: two points, two components
            ([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)], (4, 1, 7)),
            # a pendant clause whose shrink is the one point: its residual
            # is refreshed, then undone
            ([(1, 2, 3), (2, 4), (3, 4), (4, 5)], (-1, -5, 5)),
            # a star decided at its hub: three shrunk clauses, the search runs
            ([(1, 2, 3), (1, 4, 5), (1, 6, 7)], (-1, -2, 6)),
            # one decision satisfies its component whole
            ([(1, 2), (1, -3), (1, 1, 4), (5, 6), (-5, 6, 7)], (1, None, None)),
            # a clause holding the decided literal twice is satisfied once
            ([(1, 1, 2), (2, 3)], (1, None, None)),
        ],
        ids=["chain-ends", "path-middle", "pendant", "star-hub", "satisfied-whole", "repeated"],
    )
    def test_decisions_that_cannot_split(self, clauses, lits):
        n = max(abs(l) for c in clauses for l in c)
        _check_shared_state(CnfInstance(n, tuple(clauses)), random.Random(0), lits)

    # A falsified literal leaves a binary residual's other literal as a
    # unit; each occurrence entry removes one literal.
    @pytest.mark.parametrize(
        "clauses, lits",
        [
            # deciding 1 leaves the units 2 and -2
            ([(-1, 2), (-1, -2)], (1, None, None)),
            # the units 2 and 3 empty the clause deciding 1 left as -3
            ([(-1, 2), (-2, 3), (-3, -1)], (1, None, None)),
            # deciding -2 leaves (2,) from its first occurrence, then () from
            # its second
            ([(2, 2), (1, 2)], (-2, None, None)),
            # the same reached through the unit -2
            ([(-1, -2), (2, 2), (1, 3)], (1, None, None)),
            # deciding -1 leaves the units 2 and 3; 2 satisfies the clause
            # holding it twice once
            ([(2, 2), (1, 2), (1, 3), (-3, 4)], (-1, None, None)),
        ],
        ids=["conflict", "conflict-in-chain", "repeated-decided", "repeated-unit", "repeated-sat"],
    )
    def test_binary_residuals(self, clauses, lits):
        n = max(abs(l) for c in clauses for l in c)
        _check_shared_state(CnfInstance(n, tuple(clauses)), random.Random(0), lits)

    @pytest.mark.parametrize("order", ["input", "dynamic", "random"])
    def test_all_binary_clauses_unsatisfiable(self, order):
        # Every decision ends in a conflict found through binary residuals.
        cnf = parse_dimacs("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
        named = shuffled_order(cnf.num_vars) if order == "random" else order
        circuit = compile(cnf, CompileConfig(order=named))
        assert model_count(circuit) == 0


class TestParseC2d:
    def test_two_literal_conjunction(self):
        circuit = parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 2 0 1")
        root = circuit.node(circuit.root)
        assert root.kind == "A"
        assert {circuit.node(c).lit for c in root.children} == {1, 2}
        assert circuit.universe == {1, 2}

    def test_constants(self):
        true, false = parse_nnf("nnf 1 0 0\nA 0").node(0), parse_nnf("nnf 1 0 0\nO 0 0").node(0)
        assert (true.kind, true.children) == ("A", ())
        assert (false.kind, false.children) == ("O", ())

    def test_decision_variable_preserved(self):
        text = "nnf 3 2 1\nL 1\nL -1\nO 1 2 0 1"
        circuit = parse_nnf(text)
        assert circuit.node(circuit.root).decision == 1
        assert write_nnf(circuit) == text + "\n"

    def test_dangling_reference(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 2 0 99")

    def test_forward_reference_rejected(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 2 1 1\nA 1 1\nL 1")

    def test_literal_out_of_range(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 1 0 1\nL 5")

    def test_missing_header(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("L 1")

    def test_child_count_mismatch(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 2\nL 1\nL 2\nA 3 0 1")

    def test_node_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse_nnf("nnf 5 0 1\nL 1")

    def test_non_decomposable_rejected(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("nnf 3 2 1\nL 1\nL -1\nA 2 0 1")

    def test_unreachable_non_decomposable_rejected(self):
        # The root (line 5) cannot reach the AND of line 4; the arena refuses
        # it all the same, and the reader names its line.
        with pytest.raises(NnfFormatError, match="^line 4: AND children share a variable$"):
            parse_nnf("nnf 4 2 2\nL 1\nL -1\nA 2 0 1\nL 2")

    def test_or_children_repeat(self):
        # One child twice would count its models twice.
        with pytest.raises(NnfFormatError, match="^line 3: OR children repeat$"):
            parse_nnf("nnf 2 2 1\nL 1\nO 0 2 0 0")

    # Messages and line numbers recorded from the reader that kept every
    # line's tokens before building any node.
    @pytest.mark.parametrize(
        "text, message",
        [
            (  # comments and a blank line between node lines count as lines
                "nnf 4 3 2\nc first\nL 1\nc between nodes\n\nL 2\nc universe 1 2\n"
                "A 2 0 1\nc last\nO 0 2 2 x",
                "line 10: non-integer argument",
            ),
            (  # a universe directive after the node lines still applies
                "nnf 3 2 3\nL 1\nL 3\nA 2 0 1\nc universe 1 2",
                "line 3: literal 3 out of range",
            ),
            ("nnf 3 2 2\nL 1\nL 2\nA 2 0 99", "line 4: dangling node reference 99"),
            ("nnf 3 2 2\nL 1\nL 2\nA 2 -1 1", "line 4: dangling node reference -1"),
            ("nnf 2 1 1\nL 1\nA 1 zero", "line 3: non-integer argument"),
            ("nnf 1 0 1\nL one", "line 2: non-integer argument"),
            ("nnf 2 1 1\nL 1\nX 1 0", "line 3: unknown node tag 'X'"),
            ("c hello\nL 1\nnnf 1 0 1", "line 2: node before 'nnf' header"),
            ("nnf 1 0 1\nL 1\nnnf 1 0 1", "line 3: duplicate header"),
            # directive tokens are arguments too
            ("nnf 1 0 2\nc universe 1 x\nL 1", "line 2: non-integer argument"),
            ("nnf 1 0 2\nL 1\nc tseitin 2 y", "line 3: non-integer argument"),
            # an OR's decision field is 0 or a universe variable
            ("nnf 3 2 2\nL 1\nL 2\nO 7 2 0 1", "line 4: decision variable 7 out of range"),
            ("nnf 3 2 1\nL 1\nL -1\nO -5 2 0 1", "line 4: decision variable -5 out of range"),
            ("nnf 3 2 3\nc universe 1 3\nL 1\nL -1\nO 2 2 0 1",
             "line 5: decision variable 2 out of range"),
            ("c only a comment\n", "missing 'nnf' header"),
            ("nnf 0 0 0\n", "no nodes"),
        ],
    )
    def test_error_message_pinned(self, text, message):
        with pytest.raises(NnfFormatError, match=f"^{message}$"):
            parse_nnf(text)

    def test_node_count_mismatch_warning_pinned(self):
        with pytest.warns(UserWarning, match="^header declares 5 nodes, found 3$") as record:
            circuit = parse_nnf("nnf 5 2 2\nL 1\nc between\nL 2\nA 2 0 1")
        assert record[0].filename == __file__
        assert size(circuit) == 1

    def test_edge_count_mismatch_warning_pinned(self):
        with pytest.warns(UserWarning, match="^header declares 99 edges, found 2$") as record:
            circuit = parse_nnf("nnf 3 99 2\nL 1\nL 2\nA 2 0 1")
        assert record[0].filename == __file__
        assert write_nnf(circuit).startswith("nnf 3 2 2\n")

    def test_written_files_parse_without_warning(self):
        circuit = compile(tseitin_transform(gen_noisy_or(4)).cnf)
        for pruned in (circuit, prune(circuit)[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parse_nnf(write_nnf(pruned))

    def test_empty_or_reads_as_false(self):
        # An OR of nothing has no child to decide on: its field is dropped.
        circuit = parse_nnf("nnf 1 0 5\nO 5 0")
        assert model_count(circuit) == 0
        assert write_nnf(circuit) == "nnf 1 0 5\nO 0 0\n"


class TestParseD4:
    def test_or_with_guarded_edge(self):
        # An edge into true is its guard alone.
        circuit = parse_nnf("1 o 0\n2 t 0\n1 2 3 0")
        root = circuit.node(circuit.root)
        assert root.kind == "O"
        assert len(root.children) == 1
        assert circuit.node(root.children[0])[:2] == ("L", 3)
        assert circuit.universe == {1, 2, 3}

    @pytest.mark.parametrize(
        "text, stats",
        [
            ("1 o 0\n2 t 0\n1 2 -1 0\n1 2 1 0", "size=1 nodes=3 edges=2 vars=1 tseitin=0"),
            ("1 a 0\n2 t 0\n1 2 1 0\n1 2 2 0", "size=1 nodes=3 edges=2 vars=2 tseitin=0"),
        ],
        ids=["or", "and"],
    )
    def test_edges_into_true_add_no_and(self, text, stats):
        circuit = parse_nnf(text)
        assert stats_line(circuit) == stats
        assert write_nnf(exists_quantify(circuit, set())) == write_nnf(circuit)

    def test_d4_native_token_order(self):
        # real d4 output puts the type letter first
        circuit = parse_nnf("o 1 0\nt 2 0\n1 2 3 0")
        assert circuit.node(circuit.root).kind == "O"

    def test_and_node_flattens_edges(self):
        text = "1 a 0\n2 t 0\n3 t 0\n1 2 1 0\n1 3 2 0"
        circuit = parse_nnf(text)
        root = circuit.node(circuit.root)
        assert root.kind == "A"

    def test_model_equivalence_with_c2d_writer(self):
        circuit = parse_nnf("1 o 0\n2 t 0\n3 t 0\n1 2 -1 0\n1 3 1 2 0")
        again = parse_nnf(write_nnf(circuit))
        assert enumerate_models(again).models == enumerate_models(circuit).models

    def test_deep_chain(self):
        # 3,000 nested OR nodes, each with one edge guarded by its own
        # literal: x1 & ... & x3000, one model.
        n = 3000
        lines = [f"{k} o 0" for k in range(1, n + 1)] + [f"{n + 1} t 0"]
        lines += [f"{k} {k + 1} {k} 0" for k in range(1, n + 1)]
        circuit = parse_nnf("\n".join(lines))
        assert len(circuit.universe) == n
        assert model_count(circuit) == 1

    def test_undeclared_node(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("1 o 0\n1 9 2 0")

    def test_cyclic_reference(self):
        text = "1 o 0\n2 o 0\n1 2 1 0\n2 1 -1 0"
        with pytest.raises(NnfFormatError):
            parse_nnf(text)

    def test_missing_terminator(self):
        with pytest.raises(NnfFormatError):
            parse_nnf("1 o")

    @pytest.mark.parametrize(
        "text, line", [("o 1 0\nt 2 0\n1 2 0 0", 3), ("1 o 0\n2 t 0\nc x\n1 2 3 0 -1 0", 4)]
    )
    def test_literal_zero_in_edge_guard(self, text, line):
        with pytest.raises(NnfFormatError, match=f"^line {line}: literal 0 in edge guard$"):
            parse_nnf(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 t 0\n2 f 0\n1 2 0", "line 3: edge leaves leaf node 1"),
            ("1 a 0\n2 t 0\n3 f 0\n1 2 1 0\n2 3 0", "line 5: edge leaves leaf node 2"),
        ],
        ids=["from_root", "below_and"],
    )
    def test_edge_from_leaf_refused(self, text, message):
        with pytest.raises(NnfFormatError, match=f"^{message}$"):
            parse_nnf(text)

    @pytest.mark.parametrize(
        "text, node",
        [
            ("1 a 0\n2 t 0\n1 2 1 0\n1 2 -1 0", 1),  # two edges of an AND node
            ("1 o 0\n2 a 0\n3 t 0\n1 2 1 0\n2 3 1 0", 1),  # a guard and its edge's target
        ],
        ids=["and_node", "guarded_edge"],
    )
    def test_non_decomposable_rejected(self, text, node):
        with pytest.raises(NnfFormatError, match=f"^node {node}: AND children share a variable$"):
            parse_nnf(text)

    def test_or_children_repeat(self):
        # Two edges of one guard into true: the same literal twice under an OR
        with pytest.raises(NnfFormatError, match="^node 1: OR children repeat$"):
            parse_nnf("o 1 0\nt 2 0\n1 2 1 0\n1 2 1 0")


class TestFormatRule:
    """The first token of the first line that is neither blank nor begins
    with c picks the reader: a d4 node kind or a decimal number reads as d4,
    anything else as c2d."""

    @pytest.mark.parametrize(
        "text",
        [
            "\n  \n\nnnf 3 2 2\nL 1\nL 2\nA 2 0 1\n",
            "c made by hand\nc 1 o 0\nnnf 3 2 2\nL 1\nL 2\nA 2 0 1\n",
            "c tseitin 2\nnnf 3 2 2\nL 1\nL 2\nA 2 0 1\n",
        ],
        ids=["blank_lines", "comments", "tseitin_directive"],
    )
    def test_c2d_openings(self, text):
        circuit = parse_nnf(text)
        assert stats_line(circuit).startswith("size=1 nodes=3 edges=2 vars=2")
        assert circuit.tseitin_vars == ({2} if "tseitin" in text else set())

    @pytest.mark.parametrize("text", ["c from d4\n1 o 0\n2 t 0\n1 2 -1 0\n1 2 1 0\n",
                                      "\n  c indented\no 1 0\nt 2 0\n1 2 -1 0\n1 2 1 0\n"],
                             ids=["comment", "indented_comment"])
    def test_d4_after_a_comment(self, text):
        circuit = parse_nnf(text)
        assert stats_line(circuit) == "size=1 nodes=3 edges=2 vars=1 tseitin=0"
        assert model_count(circuit) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x 1 0\nnnf 1 0 0\nA 0\n", "line 1: node before 'nnf' header"),
            ("1o 0\n", "line 1: node before 'nnf' header"),
            ("", "missing 'nnf' header"),
        ],
        ids=["garbage", "no_decimal", "empty"],
    )
    def test_other_openings_get_c2d_errors(self, text, message):
        with pytest.raises(NnfFormatError, match=f"^{message}$"):
            parse_nnf(text)

    def test_d4_errors_name_d4_lines(self):
        with pytest.raises(NnfFormatError, match="^line 2: line must end with 0$"):
            parse_nnf("c d4\n7 o\n")


class TestUniverseOfOneNumber:
    # A c2d header's variable count, or one d4 guard literal, declares 10^7
    # variables: what a parse holds must follow the file, not that number.
    N = 10**7
    C2D = f"nnf 1 0 {N}\nA 0\n"

    @pytest.mark.parametrize("text", [C2D, f"1 o 0\n2 t 0\n1 2 {N} 0\n"], ids=["c2d", "d4"])
    def test_parse_peak_memory(self, text):
        tracemalloc.start()
        try:
            circuit = parse_nnf(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert circuit.universe_mask == (1 << self.N + 1) - 2

    def test_count_and_write(self):
        circuit = parse_nnf(self.C2D)
        assert model_count(circuit) == 2**self.N
        assert write_nnf(circuit) == self.C2D

    @pytest.mark.parametrize("tseitin", ["-1", "0", "3", str(10**12)])
    def test_tseitin_directive_outside_universe(self, tseitin):
        with pytest.raises(NnfFormatError, match="^tseitin directive outside universe$"):
            parse_nnf(f"nnf 1 0 2\nc tseitin 1 {tseitin}\nL 1\n")
