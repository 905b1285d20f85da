import hashlib
import itertools
import json
import random
import signal

import pytest
from hypothesis import assume, example, given, settings

from ddnnf import (
    And,
    Const,
    Iff,
    Not,
    Or,
    Var,
    const_fold,
    format_formula,
    nnf_rewrite,
    parse_formula,
    tseitin_transform,
    vars_of,
)
from ddnnf.formula import FALSE, TRUE, ParseError
from ddnnf.oracle import check_exists_equiv, enumerate_models, oracle_bound

from helpers import formulas

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")

# Three source variables, but its Tseitin encoding has 21: one more than the
# oracle enumerates by default.
OVER_ORACLE_BOUND = Iff(Iff(a, a), Iff(Iff(a, b), Iff(a, c)))


class TestParse:
    def test_overlapping_disjunction(self):
        assert parse_formula("(a & b) | (c & d)") == Or((And((a, b)), And((c, d))))

    def test_constants(self):
        assert parse_formula("true") is TRUE
        assert parse_formula("false") is FALSE

    def test_iff_binds_loosest(self):
        assert parse_formula("a <=> b & c") == Iff(a, And((b, c)))

    def test_chains_flatten(self):
        assert parse_formula("a & b & c") == And((a, b, c))
        assert parse_formula("a | b | c") == Or((a, b, c))

    def test_iff_left_associative(self):
        assert parse_formula("a <=> b <=> c") == Iff(Iff(a, b), c)

    def test_comments_and_whitespace(self):
        text = "# formula\n a &  # conjunction\n b\n"
        assert parse_formula(text) == And((a, b))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("   # nothing here\n")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("a &\n& b")
        assert exc.value.line == 2
        assert exc.value.col == 1

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(a & b")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("a b")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_formula("a + b")

    @pytest.mark.parametrize(
        "text,message,line,col",
        [
            ("  # only a comment\n", "empty input", 1, 1),
            ("a &", "unexpected end of input", 1, 3),
            ("!(a <=> ", "unexpected end of input", 1, 5),
            ("(a | b", "expected ')'", 1, 6),
            ("(a | b c)", "expected ')'", 1, 8),
            ("a & )", "unexpected token ')'", 1, 5),
            ("a b", "trailing input 'b'", 1, 3),
            ("a <=> b)", "trailing input ')'", 1, 8),
            ("a + b", "unexpected character '+'", 1, 3),
            ("a &\n& b", "unexpected token '&'", 2, 1),
            ("a &\n  (b | c\n", "expected ')'", 2, 8),
            ("a\n\n   $", "unexpected character '$'", 3, 4),
        ],
    )
    def test_error_message_pinned(self, text, message, line, col):
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert str(exc.value) == f"{message} (line {line}, column {col})"
        assert (exc.value.line, exc.value.col) == (line, col)

    def test_fuzz_parses_or_raises_parse_error(self):
        # Random token strings, half of them printed formulas with a word or
        # two dropped, inserted or replaced, so both outcomes are common.
        pieces = ["a", "b", "true", "false", "(", ")", "&", "|", "!", "<=>",
                  " ", "\n", "# c\n", "\t", "+", "<", "x_1", "(("]
        rng = random.Random(2024)
        parsed = 0
        for i in range(2400):
            if i % 2:
                tokens = [rng.choice(pieces) for _ in range(rng.randint(0, 14))]
            else:
                tokens = format_formula(_pin_draw(rng, 3, [])).split(" ")
                for _ in range(rng.randint(0, 2)):
                    j = rng.randrange(len(tokens) + 1)
                    tokens[j:j + rng.randint(0, 1)] = rng.choice(([], [rng.choice(pieces)]))
            text = " ".join(tokens)
            try:
                f = parse_formula(text)
            except ParseError:
                continue
            parsed += 1
            assert parse_formula(format_formula(f)) == f
        assert parsed > 300


# Twenty fixed strings checked against an independent truth-table reference:
# the expected column is a plain Python function over a bool environment.
PRECEDENCE_CASES = [
    ("!a & b", lambda e: (not e["a"]) and e["b"]),
    ("!(a & b)", lambda e: not (e["a"] and e["b"])),
    ("a & b | c", lambda e: (e["a"] and e["b"]) or e["c"]),
    ("a | b & c", lambda e: e["a"] or (e["b"] and e["c"])),
    ("a <=> b | c", lambda e: e["a"] == (e["b"] or e["c"])),
    ("a <=> b <=> c", lambda e: (e["a"] == e["b"]) == e["c"]),
    ("a <=> (b <=> c)", lambda e: e["a"] == (e["b"] == e["c"])),
    ("!a | !b", lambda e: (not e["a"]) or (not e["b"])),
    ("!!a", lambda e: e["a"]),
    ("!a <=> b", lambda e: (not e["a"]) == e["b"]),
    ("a & (b | c)", lambda e: e["a"] and (e["b"] or e["c"])),
    ("(a <=> b) & c", lambda e: (e["a"] == e["b"]) and e["c"]),
    ("a & b & c | d", lambda e: (e["a"] and e["b"] and e["c"]) or e["d"]),
    ("a | b | c & d", lambda e: e["a"] or e["b"] or (e["c"] and e["d"])),
    ("!(a | b) & c", lambda e: (not (e["a"] or e["b"])) and e["c"]),
    ("a & !b | !c & d", lambda e: (e["a"] and not e["b"]) or ((not e["c"]) and e["d"])),
    ("true | a", lambda e: True),
    ("false & a | b", lambda e: (False and e["a"]) or e["b"]),
    ("!true | a", lambda e: e["a"]),
    ("a <=> a & b | c", lambda e: e["a"] == ((e["a"] and e["b"]) or e["c"])),
]


@pytest.mark.parametrize("text,expected", PRECEDENCE_CASES)
def test_precedence_against_truth_tables(text, expected):
    f = parse_formula(text)
    for values in itertools.product([False, True], repeat=4):
        env = dict(zip(["a", "b", "c", "d"], values))
        assert _eval(f, env) == expected(env)


@given(formulas())
@settings(max_examples=200)
def test_print_parse_roundtrip(f):
    assert parse_formula(format_formula(f)) == f


class TestNnf:
    def test_de_morgan(self):
        assert nnf_rewrite(Not(And((a, b)))) == Or((Not(a), Not(b)))

    def test_double_negation(self):
        assert nnf_rewrite(Not(Not(a))) == a

    def test_iff_expansion(self):
        assert nnf_rewrite(Iff(a, b)) == Or((And((a, b)), And((Not(a), Not(b)))))

    @given(formulas())
    @settings(max_examples=150)
    def test_nnf_shape_and_equivalence(self, f):
        g = nnf_rewrite(f)
        stack = [g]
        while stack:
            node = stack.pop()
            assert not isinstance(node, Iff)
            if isinstance(node, Not):
                assert isinstance(node.child, Var)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children)
        # Equivalence over the union of both variable sets.
        union = vars_of(f) | vars_of(g)
        assert _models_over(f, union) == _models_over(g, union)


def _models_over(f, names):
    names = sorted(names)
    out = set()
    for values in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, values))
        if _eval(f, env):
            out.add(frozenset(n for n in names if env[n]))
    return out


def _eval(f, env):
    if isinstance(f, Var):
        return env[f.name]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not _eval(f.child, env)
    if isinstance(f, And):
        return all(_eval(c, env) for c in f.children)
    if isinstance(f, Or):
        return any(_eval(c, env) for c in f.children)
    return _eval(f.left, env) == _eval(f.right, env)


class TestConstFold:
    @given(formulas())
    @settings(max_examples=150)
    def test_no_constant_below_root(self, f):
        g = const_fold(f)
        if isinstance(g, Const):
            return
        stack = [g]
        while stack:
            node = stack.pop()
            assert not isinstance(node, Const)
            if isinstance(node, Not):
                stack.append(node.child)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children)
            elif isinstance(node, Iff):
                stack.extend((node.left, node.right))

    def test_examples(self):
        assert const_fold(And((a, TRUE))) == a
        assert const_fold(Or((a, TRUE))) is TRUE
        assert const_fold(Iff(FALSE, a)) == Not(a)


class TestTseitin:
    def test_overlapping_disjunction_shape(self):
        out = tseitin_transform(parse_formula("(a & b) | (c & d)"))
        assert out.cnf.num_vars == 6
        assert len(out.cnf.clauses) == 7
        assert out.tseitin_vars == {5, 6}
        assert set(out.var_map.values()) == {1, 2, 3, 4}
        assert out.var_map == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_single_literal(self):
        out = tseitin_transform(a)
        assert out.cnf.clauses == ((1,),)
        assert out.tseitin_vars == frozenset()

    def test_ordering_example_clauses(self):
        out = tseitin_transform(parse_formula("(a & b) | c"))
        assert out.tseitin_vars == {4}
        assert set(out.cnf.clauses) == {(3, 4), (-4, 1), (-4, 2), (-2, -1, 4)}

    def test_constants(self):
        top = tseitin_transform(TRUE)
        assert top.cnf.clauses == ()
        bottom = tseitin_transform(FALSE)
        assert bottom.cnf.clauses == ((),)

    def test_head_literal_gate_reused(self):
        # A top-level `literal <=> body` conjunct uses the literal as gate
        # head instead of expanding the equivalence.
        out = tseitin_transform(parse_formula("a & (a <=> b & c)"))
        assert out.tseitin_vars == frozenset()
        assert set(out.cnf.clauses) == {(1,), (-1, 2), (-1, 3), (-3, -2, 1)}

    def test_shared_subformulas_share_gates(self):
        shared = And((a, b))
        f = Or((And((shared, c)), And((shared, d))))
        out = tseitin_transform(f)
        # one gate for (a & b), one per outer conjunct
        assert len(out.tseitin_vars) == 3

    def test_invariants(self):
        out = tseitin_transform(parse_formula("(a & b) | (c & d)"))
        originals = set(out.var_map.values())
        assert not out.tseitin_vars & originals
        assert out.tseitin_vars | originals == set(
            range(1, out.cnf.num_vars + 1)
        )

    @given(formulas(max_vars=5, max_leaves=10))
    @example(OVER_ORACLE_BOUND)
    @settings(max_examples=150, deadline=None)
    def test_model_bijection(self, f):
        out = _encode_within_oracle_bound(f)
        assert enumerate_models(f).count() == enumerate_models(out.cnf).count()

    @given(formulas(max_vars=5, max_leaves=10))
    @example(OVER_ORACLE_BOUND)
    @settings(max_examples=100, deadline=None)
    def test_projection_recovers_formula(self, f):
        out = _encode_within_oracle_bound(f)
        assert check_exists_equiv(out, out.tseitin_vars, f)

    @given(formulas(max_vars=5, max_leaves=10))
    @settings(max_examples=100, deadline=None)
    def test_clause_count_linear(self, f):
        out = tseitin_transform(f)
        folded = const_fold(f)
        if isinstance(folded, Const):
            assert len(out.cnf.clauses) <= 1
            return
        tree_nodes = _tree_size(nnf_rewrite(folded))
        # Every gate of fan-in k yields k+1 clauses and gates are a subset of
        # the internal nodes, so 3x the tree size bounds the clause count.
        assert len(out.cnf.clauses) <= 3 * tree_nodes


def _pin_draw(rng, depth, shared):
    """Seeded random formula with constants. Each internal node joins
    ``shared`` with probability 0.3 and later leaves may reuse it, so some
    sub-objects have two parents."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.1:
            return rng.choice((TRUE, FALSE))
        if r < 0.25 and shared:
            return rng.choice(shared)
        return Var(rng.choice("abcdef"))
    kind = rng.randrange(4)
    if kind == 0:
        g = Not(_pin_draw(rng, depth - 1, shared))
    elif kind == 1:
        g = Iff(_pin_draw(rng, depth - 1, shared), _pin_draw(rng, depth - 1, shared))
    else:
        cs = tuple(_pin_draw(rng, depth - 1, shared) for _ in range(rng.randint(2, 3)))
        g = And(cs) if kind == 2 else Or(cs)
    if rng.random() < 0.3:
        shared.append(g)
    return g


def _pin_formula(rng, i):
    """The ``i``-th pinned formula: a plain draw, top-level ``literal <=>
    body`` conjuncts, a nested ``<=>`` chain under a disjunction, or one
    sub-object under two parents."""
    shared = []
    shape = i % 4
    if shape == 0:
        return _pin_draw(rng, 5, shared)
    if shape == 1:
        parts = []
        for _ in range(rng.randint(2, 4)):
            head = Var(rng.choice("abcdef"))
            head = Not(head) if rng.random() < 0.5 else head
            body = _pin_draw(rng, 3, shared)
            parts.append(Iff(head, body) if rng.random() < 0.5 else Iff(body, head))
        return And(tuple(parts))
    if shape == 2:
        f = _pin_draw(rng, 1, shared)
        for _ in range(rng.randint(2, 5)):
            f = Iff(f, _pin_draw(rng, 2, shared))
        return Or((Var("z"), f))
    s = _pin_draw(rng, 3, shared)
    return And((Or((s, _pin_draw(rng, 2, shared))), Iff(_pin_draw(rng, 2, shared), s)))


# sha256 over 600 _pin_formula records, recorded from the recursive walks
# that the one fold replaced.
PINNED_SHA256 = {
    "tseitin": "fcc2e8d2d6ba5a17e27b01dc1663a4ec1fbd5c9ad7a56e6605704774d73d105d",
    "format": "2750362289ba8b9c97f47be2759189a51d804f28493742d0afc7fec9e656197c",
    "rewrite": "6b0c54f6737d04edee645add39f21eda39b2a58df1b589673556a555bcc1097e",
}


def test_formula_passes_pinned():
    rng = random.Random(31)
    digests = {k: hashlib.sha256() for k in PINNED_SHA256}
    for i in range(600):
        f = _pin_formula(rng, i)
        out = tseitin_transform(f)
        records = {
            "tseitin": [out.cnf.num_vars, out.cnf.clauses, sorted(out.tseitin_vars),
                        list(out.var_map.items())],
            "format": format_formula(f),
            "rewrite": [repr(const_fold(f)), repr(nnf_rewrite(f))],
        }
        for k, rec in records.items():
            digests[k].update((json.dumps(rec) + "\n").encode())
    assert {k: d.hexdigest() for k, d in digests.items()} == PINNED_SHA256


@pytest.fixture
def alarm():
    """``alarm(seconds)`` raises ``TimeoutError`` in the test once that many
    seconds have passed: a bound on a walk that would otherwise never end."""

    def expire(signum, frame):
        raise TimeoutError("walk did not finish")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_shared_sub_objects_are_read_once(alarm):
    # g = (g | x_i) & (g | !x_i): a tree walk reads the innermost g 2^depth
    # times, which at depth 40 would never end.
    depth = 40
    g = Var("x0")
    for i in range(1, depth + 1):
        x = Var(f"x{i}")
        g = And((Or((g, x)), Or((g, Not(x)))))
    names = [f"x{i}" for i in range(depth + 1)]
    alarm(20)
    assert vars_of(g) == set(names)
    out = tseitin_transform(g)
    assert list(out.var_map) == names
    assert out.cnf.num_vars < 4 * depth + 1


def _encode_within_oracle_bound(f):
    """Tseitin-encode ``f``, discarding the draw when the encoding has more
    variables than the oracle will enumerate: the oracle refuses it, which
    says nothing about the program."""
    out = tseitin_transform(f)
    assume(out.cnf.num_vars <= oracle_bound())
    return out


def _tree_size(f) -> int:
    if isinstance(f, (Var, Const)):
        return 1
    if isinstance(f, Not):
        return 1 + _tree_size(f.child)
    if isinstance(f, Iff):
        return 1 + _tree_size(f.left) + _tree_size(f.right)
    return 1 + sum(_tree_size(c) for c in f.children)


def test_var_name_validation():
    with pytest.raises(ValueError):
        Var("2bad")
    with pytest.raises(ValueError):
        Var("true")
