"""The one reachability sweep, ``reached_from``, and what is read through it:
``Circuit.reachable()``, ``size``, ``detect_artifacts`` and the report's
size after quantification alone, each against a depth-first search written
here, on arenas that hold unreachable nodes."""

import random

import pytest

from ddnnf import Circuit, CompileConfig, compile_cnf, size, stats_line, tseitin_transform
from ddnnf.bench import gen_mutex_cpt
from ddnnf.circuit import reached_from
from ddnnf.pruning import artifact_flags, detect_artifacts, exists_quantify, prune


def _dfs(circuit, root, stop=frozenset()):
    """The ids reached from ``root``, not descending below a node of ``stop``."""
    seen, stack = set(), [root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        if nid not in stop:
            stack.extend(circuit.node(nid)[2])
    return seen


def _dfs_size(circuit, root):
    return sum(max(len(circuit.node(nid)[2]) - 1, 0) for nid in _dfs(circuit, root))


def _random_arena(rng, num_vars=10, num_nodes=80):
    """A decomposable arena of literals, constants, ANDs over disjoint
    variables and ORs over distinct children, built bottom-up; most nodes
    have no parent, so any root leaves many unreachable."""
    universe = set(range(1, num_vars + 1))
    c = Circuit(universe, set(rng.sample(sorted(universe), num_vars // 3)))
    c.add_and(())
    c.add_or(())
    for v in universe:
        c.add_literal(v)
        c.add_literal(-v)
    while len(c) < num_nodes:
        picks = rng.sample(range(len(c)), min(len(c), rng.randint(1, 4)))
        if rng.random() < 0.5:
            kids, used = [], 0
            for nid in picks:
                if not c.node(nid)[4] & used:
                    kids.append(nid)
                    used |= c.node(nid)[4]
            c.add_and(kids)
        else:
            c.add_or(picks)
    return c


def _random_arenas():
    rng = random.Random(11)
    for _ in range(40):
        yield _random_arena(rng, rng.randint(3, 12), rng.randint(30, 150)), rng


def test_reachable_and_size_match_dfs():
    unreachable = 0
    for c, rng in _random_arenas():
        for root in rng.sample(range(len(c)), 5):  # set_root moves the root each time
            c.set_root(root)
            expected = _dfs(c, root)
            assert c.reachable() == tuple(sorted(expected))
            assert size(c) == _dfs_size(c, root)
            edges = sum(len(c.node(nid)[2]) for nid in expected)
            assert f" nodes={len(expected)} edges={edges} " in stats_line(c)
            unreachable += len(c) - len(expected)
    assert unreachable > 0


def test_sweep_stops_at_stop_set():
    for c, rng in _random_arenas():
        root = len(c) - 1
        stop = frozenset(rng.sample(range(len(c)), len(c) // 4))
        assert reached_from(root, c._nodes, stop) == _dfs(c, root, stop)


def _check_detect_and_after_p(c):
    flagged = artifact_flags(c)
    assert detect_artifacts(c) == flagged & _dfs(c, c.root, flagged)
    _, report = prune(c)
    assert report.size_after_exists == size(exists_quantify(c, c.tseitin_mask))
    return report


def test_detect_and_after_p_on_random_arenas():
    internal = 0
    for c, rng in _random_arenas():
        c.set_root(rng.choice(range(len(c) // 2, len(c))))
        internal += _check_detect_and_after_p(c).artifacts_internal
    assert internal > 0


@pytest.fixture(scope="module")
def mutex_arena():
    # A dynamic-order compile leaves 696 of the 2,193 arena nodes unreachable.
    encoded = tseitin_transform(gen_mutex_cpt(24, 2, 0))
    return compile_cnf(encoded.cnf, CompileConfig(order="dynamic"))


def test_compile_arena(mutex_arena):
    c = mutex_arena
    assert (len(c), len(c.reachable())) == (2193, 1497)
    assert c.reachable() == tuple(sorted(_dfs(c, c.root)))
    assert size(c) == _dfs_size(c, c.root) == 3945
    report = _check_detect_and_after_p(c)
    assert (report.size_after_exists, report.size_after_artifacts) == (1847, 1847)
