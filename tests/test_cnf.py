import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings

from ddnnf import (
    CnfInstance,
    detect_tseitin_vars,
    format_tvars,
    parse_dimacs,
    parse_tvars,
    tseitin_transform,
    write_dimacs,
)
from ddnnf.cnf import DimacsError, _cyclic_vars, normalize_clause
from ddnnf.oracle import enumerate_models

from helpers import cnf_strategy, condition, cyclic_components, random_formula, split_components

# Seven clauses over a,b,c,d,x1,x2 = 1..6: the encoded overlapping
# disjunction used throughout the suite.
OVERLAP_DIMACS = """\
c encoded (a & b) | (c & d)
p cnf 6 7
5 -1 -2 0
-5 1 0
-5 2 0
6 -4 -3 0
-6 4 0
-6 3 0
5 6 0
"""


class TestParseDimacs:
    def test_basic(self):
        cnf = parse_dimacs("p cnf 2 1\n1 -2 0")
        assert cnf.num_vars == 2
        assert cnf.clauses == ((-2, 1),)

    def test_overlap_instance(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        assert cnf.num_vars == 6
        assert len(cnf.clauses) == 7

    def test_tautology_dropped(self):
        cnf = parse_dimacs("p cnf 1 1\n1 -1 0")
        assert cnf.num_vars == 1
        assert cnf.clauses == ()

    def test_duplicate_literals_dropped(self):
        cnf = parse_dimacs("p cnf 2 1\n1 1 2 0")
        assert cnf.clauses == ((1, 2),)

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0")
        assert cnf.clauses == ((1, 2, 3),)

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 2 0")

    def test_comment_only_file(self):
        with pytest.raises(DimacsError, match="^missing 'p cnf' header$"):
            parse_dimacs("c only\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n3 0")

    def test_literal_out_of_range_names_its_line(self):
        with pytest.raises(DimacsError, match="^line 3: literal -3 out of range 1..2$"):
            parse_dimacs("p cnf 2 2\n1 2 0\n-3 0\n")

    def test_satlib_end_marker(self):
        # SATLIB files end with a % line and then a 0 line, which is no clause.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cnf = parse_dimacs("c x\np cnf 2 1\n1 2 0\n%\n0\n")
        assert cnf.clauses == ((1, 2),)

    def test_count_mismatch_warns(self):
        with pytest.warns(UserWarning):
            parse_dimacs("p cnf 2 5\n1 0")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 2 1\n1 2")

    @given(cnf_strategy())
    @settings(max_examples=100)
    def test_roundtrip(self, cnf):
        again = parse_dimacs(write_dimacs(cnf))
        assert again.num_vars == cnf.num_vars
        assert again.clauses == cnf.clauses


def test_normalize_clause():
    assert normalize_clause([3, -1, 3]) == (-1, 3)
    assert normalize_clause([1, -1]) is None
    with pytest.raises(ValueError):
        normalize_clause([0])


def test_negative_num_vars_refused():
    with pytest.raises(ValueError, match="^num_vars must be nonnegative$"):
        CnfInstance(-1, ())


def test_instance_validation():
    with pytest.raises(ValueError):
        CnfInstance(2, ((3,),))
    with pytest.raises(ValueError):
        CnfInstance(2, (), tseitin_vars={5})


class TestCondition:
    def test_removes_satisfied_clauses(self):
        # (a | !b) & (a | !c) conditioned on !b leaves (a | !c)
        cnf = CnfInstance.from_raw(3, [[1, -2], [1, -3]])
        assert condition(cnf, -2).clauses == ((-3, 1),)

    def test_to_true(self):
        cnf = CnfInstance.from_raw(3, [[1, -2], [1, -3]])
        assert condition(condition(cnf, -2), 1).clauses == ()

    def test_contradiction_leaves_empty_clause(self):
        cnf = CnfInstance.from_raw(1, [[1]])
        assert condition(cnf, -1).clauses == ((),)

    def test_universe_unchanged(self):
        cnf = CnfInstance.from_raw(3, [[1, 2]])
        assert condition(cnf, 1).num_vars == 3

    @given(cnf_strategy(max_vars=6, max_clauses=10))
    @settings(max_examples=60, deadline=None)
    def test_semantics_against_enumeration(self, cnf):
        lit = 1
        conditioned = condition(cnf, lit)
        var_bit = abs(lit) - 1
        expected = {
            m & ~(1 << var_bit)
            for m in enumerate_models(cnf).models
            if (m >> var_bit & 1) == (lit > 0)
        }
        got = {
            m & ~(1 << var_bit) for m in enumerate_models(conditioned).models
        }
        assert got == expected


class TestComponents:
    def test_example_split(self):
        # (a | !b) & (a | !c) & (!d | e): first two clauses form one
        # component, the third another.
        cnf = CnfInstance.from_raw(5, [[1, -2], [1, -3], [-4, 5]])
        comps = split_components(cnf)
        assert [c.clauses for c in comps] == [((-2, 1), (-3, 1)), ((-4, 5),)]
        assert all(c.num_vars == 5 for c in comps)

    def test_single_clause(self):
        cnf = CnfInstance.from_raw(2, [[1, 2]])
        assert len(split_components(cnf)) == 1

    def test_no_clauses(self):
        assert split_components(CnfInstance.from_raw(2, [])) == []

    def test_tseitin_sets_restricted(self):
        cnf = CnfInstance.from_raw(5, [[1, -2], [-4, 5]], tseitin_vars={2, 4})
        comps = split_components(cnf)
        assert comps[0].tseitin_vars == {2}
        assert comps[1].tseitin_vars == {4}

    @given(cnf_strategy(max_vars=8, max_clauses=12))
    @settings(max_examples=60, deadline=None)
    def test_count_factorizes(self, cnf):
        comps = split_components(cnf)
        covered = set()
        product = 1
        for comp in comps:
            comp_vars = comp.variables()
            covered |= comp_vars
            product *= enumerate_models(comp).project(tuple(comp_vars)).count()
        free = cnf.num_vars - len(covered)
        assert enumerate_models(cnf).count() == product * (1 << free)


class TestDetect:
    def test_overlap_instance(self):
        cnf = parse_dimacs(OVERLAP_DIMACS)
        assert detect_tseitin_vars(cnf) == {5, 6}

    def test_no_gate_shapes(self):
        cnf = CnfInstance.from_raw(3, [[1, 2, 3], [-1, -2, -3]])
        assert detect_tseitin_vars(cnf) == frozenset()

    def test_or_gate_recovered(self):
        # x3 <=> (1 | 2)
        cnf = CnfInstance.from_raw(3, [[-3, 1, 2], [3, -1], [3, -2]])
        assert detect_tseitin_vars(cnf) == {3}

    def test_binary_equivalence_cycle_keeps_larger(self):
        cnf = CnfInstance.from_raw(2, [[-1, 2], [1, -2]])
        assert detect_tseitin_vars(cnf) == {2}

    def test_equivalence_chain(self):
        # a <=> b and b <=> c: two of the three heads survive acyclically.
        cnf = CnfInstance.from_raw(3, [[-1, 2], [1, -2], [-2, 3], [2, -3]])
        detected = detect_tseitin_vars(cnf)
        assert len(detected) == 2

    def test_roundtrip_superset(self):
        rng = random.Random(7)
        for _ in range(100):
            f = random_formula(rng, max_vars=5, depth=3)
            out = tseitin_transform(f)
            assert detect_tseitin_vars(out.cnf) >= out.tseitin_vars

    def test_detected_vars_are_defined(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_formula(rng, max_vars=4, depth=3)
            cnf = tseitin_transform(f).cnf
            detected = detect_tseitin_vars(cnf)
            models = enumerate_models(cnf)
            rest = [v for v in models.universe if v not in detected]
            projected = models.project(tuple(rest))
            # each model restriction extends in at most one way
            assert projected.count() == models.count()


def _as_sorted(sccs):
    return sorted(sorted(scc) for scc in sccs)


class TestCyclicVars:
    def test_matches_mutual_reachability(self):
        rng = random.Random(5)
        for _ in range(1000):
            nodes = rng.sample(range(1, 60), rng.randint(1, 30))
            density = rng.random() * 3 / len(nodes)  # self-loops included
            deps = {v: {w for w in nodes if rng.random() < density} for v in nodes}
            assert _as_sorted(_cyclic_vars(deps)) == _as_sorted(cyclic_components(deps))

    @pytest.mark.parametrize("closed", [True, False], ids=["cycle", "open_chain"])
    def test_long_chain(self, closed):
        # 20,000 nodes in a row: far deeper than Python's recursion limit.
        n = 20_000
        deps = {v: {v + 1} for v in range(1, n)}
        deps[n] = {1} if closed else set()
        assert _as_sorted(_cyclic_vars(deps)) == ([list(range(1, n + 1))] if closed else [])


def test_tvars_sidecar_roundtrip():
    assert parse_tvars(format_tvars({5, 6})) == {5, 6}
    assert parse_tvars("t 0\n\n") == frozenset()
    with pytest.raises(DimacsError):
        parse_tvars("5 6\n")


def test_tvars_sidecar_indented_comment():
    assert parse_tvars("# gates\nt 2\n  # note\n5 6\n") == {5, 6}


def test_tvars_sidecar_trailing_comment():
    assert parse_tvars("t 2 # header\n5 6 # gates\n") == {5, 6}


def test_negative_variable_count_is_dimacs_error():
    with pytest.raises(DimacsError, match="^line 2: negative variable count -1$"):
        parse_dimacs("c empty\np cnf -1 0\n")


def test_large_header_allocates_by_clauses():
    # The declared variable count alone costs no memory.
    tracemalloc.start()
    try:
        cnf = parse_dimacs("p cnf 2000000 1\n1 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (cnf.num_vars, cnf.clauses) == (2000000, ((1,),))
    assert peak < 8 * 2**20
    with pytest.raises(ValueError, match="tseitin_vars outside variable universe"):
        CnfInstance(3, (), frozenset({0}))
