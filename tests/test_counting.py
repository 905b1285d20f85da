import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from ddnnf import (
    Circuit,
    CnfInstance,
    CompileConfig,
    WeightMap,
    annotate_counts,
    compile_cnf,
    detect_tseitin_vars,
    model_count,
    parse_dimacs,
    parse_nnf,
    prune,
    tseitin_transform,
    weighted_model_count,
)
from ddnnf.bench import gen_mutex_cpt, gen_noisy_or, gen_overlapping_disjunction
from ddnnf.counting import MissingWeightError, NonDecomposableError
from ddnnf.oracle import CircuitTables, enumerate_models

from helpers import random_cnf, random_formula
from test_cnf import OVERLAP_DIMACS


def _overlap_circuit(tvars=()):
    cnf = parse_dimacs(OVERLAP_DIMACS)
    if tvars:
        from dataclasses import replace

        cnf = replace(cnf, tseitin_vars=frozenset(tvars))
    return compile_cnf(cnf, CompileConfig(order=[5]))


def _decision_overlap():
    # deterministic circuit for (a & b) | (c & d):
    # (a & b) | (!(a & b) & c & d) as a decision on the first conjunction
    c = Circuit({1, 2, 3, 4})
    ab = c.add_and([c.add_literal(1), c.add_literal(2)])
    cd = c.add_and([c.add_literal(3), c.add_literal(4)])
    not_ab = c.add_or(
        [c.add_literal(-1), c.add_and([c.add_literal(1), c.add_literal(-2)])]
    )
    c.set_root(c.add_or([ab, c.add_and([not_ab, cd])]))
    return c


class TestModelCount:
    def test_overlap_formula_circuit(self):
        assert model_count(_decision_overlap()) == 7

    def test_encoded_overlap_circuit(self):
        assert model_count(_overlap_circuit()) == 7

    def test_true_circuit(self):
        c = Circuit(range(1, 6))
        c.set_root(c.add_and(()))
        assert model_count(c) == 32

    def test_empty_universe(self):
        c = Circuit(())
        c.set_root(c.add_and(()))
        assert repr(model_count(c)) == "1"
        assert repr(weighted_model_count(c, WeightMap(default=0.5))) == "1"

    def test_false_circuit(self):
        c = Circuit(range(1, 4))
        c.set_root(c.add_or(()))
        assert model_count(c) == 0

    def test_non_decomposable_rejected(self):
        c = Circuit({1})
        c.set_root(c.add_and([c.add_literal(1), c.add_literal(-1)]))
        with pytest.raises(NonDecomposableError):
            model_count(c)

    def test_matches_enumeration_on_random_pipeline(self):
        rng = random.Random(5)
        for _ in range(40):
            cnf = random_cnf(rng, max_vars=10, max_clauses=20)
            circuit = compile_cnf(cnf, CompileConfig(order="dynamic"))
            assert model_count(circuit) == enumerate_models(cnf).count()

    def test_component_factorization(self):
        # two independent components times a free variable
        cnf = CnfInstance.from_raw(5, [[1, -2], [1, -3], [-4, 5]])
        circuit = compile_cnf(cnf)
        comp1 = CnfInstance.from_raw(3, [[1, -2], [1, -3]])
        comp2 = CnfInstance.from_raw(2, [[-1, 2]])
        expected = (
            enumerate_models(comp1).count() * enumerate_models(comp2).count()
        )
        assert model_count(circuit) == expected


class TestAnnotate:
    def test_gate_equivalence_node(self):
        # x2 <=> (c & d) compiles to a component subcircuit with count 4
        circuit = _overlap_circuit()
        counts = annotate_counts(circuit)
        gate_nodes = [
            nid
            for nid in circuit.reachable()
            if circuit.node(nid).varset == {3, 4, 6}
        ]
        assert gate_nodes
        # the component root over {x2, c, d} carries the full gate count
        assert any(counts[nid] == 4 for nid in gate_nodes)

    def test_literal_counts_one(self):
        c = Circuit({1})
        lit = c.add_literal(1)
        c.set_root(lit)
        assert annotate_counts(c)[lit] == 1

    def test_or_with_varset_gap(self):
        # a | (!a & b) over {a, b}: 1*2 + 1 = 3
        c = Circuit({1, 2})
        branch = c.add_and([c.add_literal(-1), c.add_literal(2)])
        root = c.add_or([c.add_literal(1), branch])
        c.set_root(root)
        assert annotate_counts(c)[root] == 3

    def test_counts_bounded_by_varset(self):
        rng = random.Random(17)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=8, max_clauses=15)
            circuit = compile_cnf(cnf)
            counts = annotate_counts(circuit)
            for nid in circuit.reachable():
                assert counts[nid] <= 1 << len(circuit.node(nid).varset)

    def test_counts_match_oracle_tables(self):
        # A node's table ranges over the variables the root mentions, so it
        # holds each model over the node's own variables 2^(the rest) times.
        rng = random.Random(29)
        for _ in range(80):
            cnf = random_cnf(rng, max_vars=10, max_clauses=18, gate_prob=0.5)
            cnf = CnfInstance(cnf.num_vars, cnf.clauses, detect_tseitin_vars(cnf))
            compiled = compile_cnf(cnf, CompileConfig(order="dynamic"))
            for circuit in (compiled, prune(compiled)[0]):
                tables = CircuitTables(circuit)
                counts = annotate_counts(circuit)
                assert counts.keys() == set(circuit.reachable())
                for nid in circuit.reachable():
                    free = len(tables.order) - len(circuit.node(nid).varset)
                    assert counts[nid] << free == tables.tables[nid].bit_count()
                count = model_count(circuit)
                assert type(count) is int
                assert count == weighted_model_count(circuit, WeightMap(default=1))

    def test_sparse_universe_allocates_by_mentioned_variables(self):
        # x1 over the universe {1, 10^7}: the variable numbers say nothing
        # about the work or memory a count needs.
        n = 10**7
        circuit = parse_nnf(f"nnf 1 0 {n}\nc universe 1 {n}\nL 1\n")
        normalized = WeightMap({1: 0.5, -1: 0.5, n: 0.25, -n: 0.75}, default=None)
        for query, expected in (
            (model_count, 2),
            (lambda c: weighted_model_count(c, normalized), 0.5),
        ):
            tracemalloc.start()
            try:
                assert query(circuit) == expected
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20

    def test_sparse_universe_time_follows_mentioned_variables(self):
        # Pair sums that differ take the general gap path: its masks of the
        # variables 1 and 10^7 cost 0.12 s when read through strings of all
        # their binary digits.
        n = 10**7
        circuit = Circuit({1, n})
        circuit.set_root(circuit.add_literal(1))
        weights = WeightMap({1: 0.3, -1: 0.5, n: 0.25, -n: 0.5})
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert weighted_model_count(circuit, weights) == pytest.approx(0.3 * 0.75)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.010


class TestWeighted:
    def test_uniform_half_weights(self):
        w = WeightMap(default=0.5)
        assert weighted_model_count(_decision_overlap(), w) == pytest.approx(0.4375)

    def test_false_is_zero(self):
        c = Circuit({1})
        c.set_root(c.add_or(()))
        assert weighted_model_count(c, WeightMap()) == 0.0

    def test_all_ones_equals_model_count_int_path(self):
        circuit = _overlap_circuit()
        w = WeightMap(default=1)
        assert weighted_model_count(circuit, w) == model_count(circuit)

    def test_all_ones_float_path_close(self):
        rng = random.Random(3)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=9, max_clauses=18)
            circuit = compile_cnf(cnf)
            wmc = weighted_model_count(circuit, WeightMap(default=1.0))
            mc = model_count(circuit)
            if mc:
                assert abs(wmc - mc) / mc <= 1e-12
            else:
                assert wmc == 0.0

    def test_unit_tseitin_weights_match_pruned(self):
        circuit = _overlap_circuit(tvars={5, 6})
        pruned, _ = prune(circuit)
        weights = {1: 0.3, -1: 0.7, 2: 0.9, -2: 0.1, 3: 0.25, -3: 0.75}
        w = WeightMap({k: v for k, v in weights.items()})
        raw = weighted_model_count(circuit, w)
        after = weighted_model_count(pruned, w)
        assert raw == pytest.approx(after, rel=1e-12)

    def test_bernoulli_weights_ignore_free_universe_vars(self):
        # when w(v) + w(!v) == 1 the count is invariant under free variables
        clauses = [[1, -2], [2, 3]]
        w = WeightMap({1: 0.2, -1: 0.8, 2: 0.5, -2: 0.5, 3: 0.9, -3: 0.1},
                      default=None)
        small = compile_cnf(CnfInstance.from_raw(3, clauses))
        padded = compile_cnf(CnfInstance.from_raw(5, clauses))
        w_padded = WeightMap(
            {**w.literal_weights, 4: 0.6, -4: 0.4, 5: 0.5, -5: 0.5}, default=None
        )
        assert weighted_model_count(small, w) == pytest.approx(
            weighted_model_count(padded, w_padded), rel=1e-12
        )

    def test_matches_enumeration(self):
        rng = random.Random(23)
        for _ in range(15):
            cnf = random_cnf(rng, max_vars=7, max_clauses=12)
            circuit = compile_cnf(cnf)
            lits = {}
            for v in range(1, cnf.num_vars + 1):
                lits[v] = rng.random()
                lits[-v] = rng.random()
            w = WeightMap(lits, default=None)
            expected = 0.0
            ms = enumerate_models(cnf)
            for m in ms.models:
                product = 1.0
                for j, v in enumerate(ms.universe):
                    product *= lits[v] if m >> j & 1 else lits[-v]
                expected += product
            assert weighted_model_count(circuit, w) == pytest.approx(expected, rel=1e-9)

    def test_missing_weight_without_default(self):
        c = Circuit({1})
        c.set_root(c.add_literal(1))
        with pytest.raises(MissingWeightError):
            weighted_model_count(c, WeightMap(default=None))


def _brute_force_wmc(circuit, weights):
    """Sum over the circuit's models of the product of literal weights."""
    ms = enumerate_models(circuit)
    total = 0
    for m in ms.models:
        product = 1
        for j, v in enumerate(ms.universe):
            product *= weights.weight(v if m >> j & 1 else -v)
        total += product
    return total


def _random_exact_weights(rng, num_vars):
    """Fraction weights over ``num_vars`` variables and three the circuit never
    mentions, mixing denominators, zeros, negatives and pair sums of 0; some
    literals are left to a Fraction default."""
    values = [Fraction(0), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 6), Fraction(7, 10), 3]
    lits = {}
    for v in range(1, num_vars + 4):
        shape = rng.randrange(4)
        if shape == 0:
            lits[v] = rng.choice(values)
            lits[-v] = -lits[v]
        elif shape == 1:
            lits[v], lits[-v] = rng.choice(values), rng.choice(values)
        elif shape == 2:
            lits[rng.choice((v, -v))] = rng.choice(values)
    return WeightMap(lits, default=Fraction(rng.randint(-3, 3), rng.randint(1, 5)))


class TestExactWeighted:
    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(60):
            cnf = random_cnf(rng, max_vars=8, max_clauses=14)
            circuit = compile_cnf(cnf, CompileConfig(order="dynamic"))
            weights = _random_exact_weights(rng, cnf.num_vars)
            result = weighted_model_count(circuit, weights)
            assert isinstance(result, Fraction)
            assert result == _brute_force_wmc(circuit, weights)

    def test_pruned_circuit_matches_brute_force(self):
        rng = random.Random(29)
        for _ in range(30):
            cnf = random_cnf(rng, max_vars=10, max_clauses=12, gate_prob=0.6)
            circuit = compile_cnf(cnf, CompileConfig(order="dynamic"))
            pruned, _ = prune(circuit)
            weights = _random_exact_weights(rng, cnf.num_vars)
            assert weighted_model_count(pruned, weights) == _brute_force_wmc(pruned, weights)

    def test_integer_weights_return_int(self):
        rng = random.Random(37)
        for _ in range(20):
            cnf = random_cnf(rng, max_vars=8, max_clauses=14)
            circuit = compile_cnf(cnf)
            lits = {lit: rng.randint(-3, 3) for v in range(1, cnf.num_vars + 1) for lit in (v, -v)}
            weights = WeightMap(lits, default=None)
            result = weighted_model_count(circuit, weights)
            assert type(result) is int
            assert result == _brute_force_wmc(circuit, weights)

    def test_fraction_weights_with_unit_denominator_stay_fractions(self):
        circuit = _decision_overlap()
        result = weighted_model_count(circuit, WeightMap({1: Fraction(3)}, default=Fraction(1)))
        assert isinstance(result, Fraction)
        assert result == _brute_force_wmc(circuit, WeightMap({1: 3}, default=1))

    def test_float_and_fraction_mix_is_folded_as_given(self):
        circuit = _decision_overlap()
        weights = WeightMap({1: Fraction(1, 3), -1: Fraction(2, 3)}, default=0.5)
        assert weighted_model_count(circuit, weights) == pytest.approx(
            float(_brute_force_wmc(circuit, weights)), rel=1e-12
        )

    def test_missing_weight_names_the_same_literal(self):
        # Literals recorded from the fold before exact maps were scaled to
        # integers and pair sums cached; None marks a complete map.
        expected = [-7, None, -7, 4, -6, -2, 6, None]
        rng = random.Random(41)
        for lit in expected:
            cnf = random_cnf(rng, max_vars=8, max_clauses=14)
            circuit = compile_cnf(cnf, CompileConfig(order="dynamic"))
            lits = [x for v in range(1, cnf.num_vars + 1) for x in (v, -v)]
            exact = {
                x: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for x in lits
                if rng.random() < 0.7
            }
            floats = {x: float(w) for x, w in exact.items()}
            for w in (exact, floats):
                weights = WeightMap(w, default=None)
                if lit is None:
                    assert weighted_model_count(circuit, weights) == _brute_force_wmc(
                        circuit, weights
                    )
                else:
                    with pytest.raises(MissingWeightError, match=f"literal {lit}$"):
                        weighted_model_count(circuit, weights)

    @pytest.mark.parametrize("exact", [True, False])
    def test_missing_gap_weight_names_the_same_literal(self, exact):
        # x1 decides between x1 & (x3, x17, x18, x30) and !x1, so the second
        # child misses those four variables. Only their negative weights are
        # missing, and only from the gap. Literal recorded from the fold before
        # varsets became bitmasks.
        c = Circuit(range(1, 41))
        hi = c.add_and([c.add_literal(v) for v in (1, 3, 17, 18, 30)])
        c.set_root(c.add_or([hi, c.add_literal(-1)], decision=1))
        lits = {v: Fraction(1, 3) for v in range(1, 41)}
        lits.update({-v: Fraction(2, 3) for v in range(1, 41) if v not in (18, 30)})
        if not exact:
            lits = {x: float(w) for x, w in lits.items()}
        with pytest.raises(MissingWeightError, match="literal -18$"):
            weighted_model_count(c, WeightMap(lits, default=None))


def _sequential_wmc(circuit, weights):
    """The weighted fold one multiplication at a time: node values bottom-up,
    every pair sum of a gap multiplied in, in ascending variable order,
    starting from 1. A map of ints and Fractions with at least one Fraction
    gives a Fraction."""

    def gap_factor(variables):
        product = 1
        for v in sorted(variables):
            product = product * weights.pair_sum(v)
        return product

    values = {}
    for nid in circuit.reachable():
        node = circuit.node(nid)
        if node.kind == "T":
            values[nid] = 1
        elif node.kind == "F":
            values[nid] = 0
        elif node.kind == "L":
            values[nid] = weights.weight(node.lit)
        elif node.kind == "A":
            product = 1
            for c in node.children:
                product = product * values[c]
            values[nid] = product
        else:
            # sum(), as the library adds: Python 3.12 compensates float sums.
            values[nid] = sum(
                [values[c] * gap_factor(node.varset - circuit.node(c).varset)
                 for c in node.children]
            )
    root = circuit.node(circuit.root)
    total = values[circuit.root] * gap_factor(circuit.universe - root.varset)
    exact = [w for w in (*weights.literal_weights.values(), weights.default) if w is not None]
    if all(isinstance(w, (int, Fraction)) for w in exact) and any(
        isinstance(w, Fraction) for w in exact
    ):
        return Fraction(total)
    return total


def _pinned_weight_maps(rng, universe):
    """Weight maps whose pair sums the fold may take out of a gap's product,
    and maps whose pair sums it may not."""
    vs = sorted(universe)
    maps = []
    # Floats: pair sums mostly exactly 1.0, some one ulp off 1.0, some
    # repeating a common other value, some arbitrary.
    lits = {}
    for v in vs:
        shape = rng.random()
        if shape < 0.6:
            w = Fraction(rng.randint(1, 999), 1000)
            lits[v], lits[-v] = float(w), float(1 - w)
        elif shape < 0.7:
            lits[v], lits[-v] = 0.5, rng.choice((0.4999999999999999, 0.5000000000000001))
        elif shape < 0.85:
            lits[v], lits[-v] = 0.7, 0.6
        else:
            lits[v], lits[-v] = rng.random(), rng.random()
    maps.append(WeightMap(lits, default=None))
    # Exact: one dominant pair sum (1 before scaling), a few others.
    lits = {}
    for v in vs:
        w = Fraction(rng.randint(1, 999), 1000)
        lits[v], lits[-v] = (w, 1 - w) if rng.random() < 0.8 else (w, Fraction(rng.randint(1, 9), 7))
    maps.append(WeightMap(lits, default=None))
    # ints with a dominant pair sum
    maps.append(WeightMap({x: rng.choice((1, 1, 1, 2, -3)) for v in vs for x in (v, -v)}, default=None))
    # No pair sum repeated: floats, Fractions, ints, and floats mixed with ints.
    maps.append(WeightMap({x: rng.random() for v in vs for x in (v, -v)}, default=None))
    maps.append(WeightMap({v: Fraction(1, v + 1) for v in vs} | {-v: Fraction(v, 3) for v in vs}, default=None))
    maps.append(WeightMap({v: 2 * v for v in vs} | {-v: v for v in vs}, default=None))
    maps.append(WeightMap({x: 2 * v if v % 2 else v + 0.25 for v in vs for x in (v, -v)}, default=1))
    # Missing weights: the same maps with literals left out.
    for m in maps[:5]:
        kept = {x: w for x, w in m.literal_weights.items() if rng.random() < 0.9}
        maps.append(WeightMap(kept, default=None))
    return maps


@pytest.mark.parametrize("seed", range(4))
def test_fold_matches_sequential_reference(seed):
    # repr and type, bit for bit, on compiled and pruned circuits; a missing
    # weight names the same literal.
    rng = random.Random(seed)
    for _ in range(40):
        cnf = random_cnf(rng, max_vars=12, max_clauses=20, gate_prob=0.5)
        if rng.random() < 0.5:
            cnf = CnfInstance(cnf.num_vars, cnf.clauses, detect_tseitin_vars(cnf))
        circuit = compile_cnf(cnf, CompileConfig(order=rng.choice(["input", "dynamic"])))
        for c in (circuit, prune(circuit)[0]):
            for weights in _pinned_weight_maps(rng, c.universe):
                try:
                    expected = _sequential_wmc(c, weights)
                except MissingWeightError as e:
                    with pytest.raises(MissingWeightError, match=f"^{e}$"):
                        weighted_model_count(c, weights)
                    continue
                got = weighted_model_count(c, weights)
                assert (type(got), repr(got)) == (type(expected), repr(expected))


@pytest.mark.parametrize(
    "family, pruned, random_weights, expected",
    [
        ("noisy_or", False, True, "6.182597030468025e-06"),
        ("noisy_or", True, True, "0.004094818033989181"),
        ("overlap", False, True, "4.074766513626873e-05"),
        ("overlap", True, True, "0.003981514417246344"),
        ("mutex", False, True, "4.543483836537301e-10"),
        ("mutex", True, True, "1.529902325174938e-05"),
        ("noisy_or", False, False, "0.0213623046875"),
        ("overlap", True, False, "0.68359375"),
        ("mutex", False, False, "9.5367431640625e-07"),
    ],
)
def test_float_wmc_pinned(family, pruned, random_weights, expected):
    # Values recorded before pair sums were cached per call: caching must not
    # reorder the float arithmetic.
    formula = {
        "noisy_or": gen_noisy_or(4),
        "overlap": gen_overlapping_disjunction(4),
        "mutex": gen_mutex_cpt(4, 2, 0),
    }[family]
    circuit = compile_cnf(tseitin_transform(formula).cnf, CompileConfig(order="dynamic"))
    if pruned:
        circuit, _ = prune(circuit)
    if random_weights:
        rng = random.Random(7)
        lits = {}
        for v in sorted(circuit.universe):
            lits[v] = rng.random()
            lits[-v] = rng.random()
        weights = WeightMap(lits, default=None)
    else:
        weights = WeightMap(default=0.5)
    assert repr(weighted_model_count(circuit, weights)) == expected


class TestWeightsFile:
    def test_parse(self):
        w = WeightMap.from_text("# comment\nw 3 0.25\nw -3 0.75\n")
        assert w.weight(3) == 0.25
        assert w.weight(-3) == 0.75
        assert w.weight(1) == 1.0

    def test_exact_mode(self):
        w = WeightMap.from_text("w 1 0.25\n", exact=True)
        assert w.weight(1) == Fraction(1, 4)
        assert isinstance(w.weight(2), Fraction)

    def test_malformed(self):
        with pytest.raises(ValueError):
            WeightMap.from_text("w 1\n")
        with pytest.raises(ValueError):
            WeightMap.from_text("w 0 0.5\n")

    @pytest.mark.parametrize(
        "text, exact",
        [("w x 0.5\n", False), ("# c\n\nw 1 abc\n", False), ("w 1 0.5\nw 2 1/0", True)],
    )
    def test_non_numeric_field_names_the_line(self, text, exact):
        line = len(text.rstrip("\n").splitlines())
        with pytest.raises(ValueError, match=f"^line {line}: non-numeric literal or weight$"):
            WeightMap.from_text(text, exact=exact)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "-Infinity"])
    def test_float_weight_must_be_finite(self, weight):
        # Exact weights refuse these as non-numeric already.
        with pytest.raises(ValueError, match=f"^line 2: weight {weight} is not finite$"):
            WeightMap.from_text(f"w 1 0.5\nw -1 {weight}\n")


def test_tseitin_weighted_one_preserves_formula_wmc():
    rng = random.Random(31)
    for _ in range(10):
        f = random_formula(rng, max_vars=4, depth=3)
        out = tseitin_transform(f)
        circuit = compile_cnf(out.cnf, CompileConfig(order="dynamic"))
        lits = {}
        for name, idx in out.var_map.items():
            lits[idx] = rng.random()
            lits[-idx] = rng.random()
        # gate variables weighted (1, 1); original weights arbitrary
        w = WeightMap(lits, default=1.0)
        ms = enumerate_models(f)
        expected = 0.0
        for m in ms.models:
            product = 1.0
            for j, name in enumerate(ms.universe):
                idx = out.var_map[name]
                product *= lits[idx] if m >> j & 1 else lits[-idx]
            expected += product
        assert weighted_model_count(circuit, w) == pytest.approx(expected, rel=1e-9)
