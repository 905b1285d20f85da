"""Seeded token-level mutations of valid reader inputs: every mutated text
either parses or raises its reader's own error, never anything else."""

import random

import pytest

from ddnnf import parse_dimacs, parse_nnf, parse_tvars
from ddnnf.cnf import DimacsError
from ddnnf.compiler import NnfFormatError

from test_cnf import OVERLAP_DIMACS

C2D = """\
nnf 11 11 5
c universe 1 2 3 4 5
c tseitin 5
L 1
L 2
L 4
L 3
L -2
A 2 0 4
L -1
O 1 2 5 6
A 2 0 1
A 3 2 3 7
O 0 2 8 9
"""

D4 = """\
c d4 output order and spec order mixed
o 1 0
a 2 0
t 3 0
4 o 0
f 5 0
1 2 1 0
1 4 -1 0
2 3 2 0
2 3 3 0
4 3 2 0
4 5 -2 -3 0
"""

TVARS = "# gates\nt 3\n4 5 # first two\n6\n"

READERS = {
    "c2d": (C2D, parse_nnf, NnfFormatError),
    "d4": (D4, lambda text: parse_nnf(text, format="d4"), NnfFormatError),
    "dimacs": (OVERLAP_DIMACS, parse_dimacs, DimacsError),
    "tvars": (TVARS, parse_tvars, DimacsError),
}

# Small numbers only: a mutated header or literal must not declare a huge
# variable universe.
VOCABULARY = (
    "0 1 -1 2 -2 3 -3 7 -7 12 L A O o a t f c p cnf nnf universe tseitin x 1.5 - # %"
).split()


def _mutate(rng: random.Random, text: str) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        op = rng.randrange(7)
        if op == 0 and line:
            del line[rng.randrange(len(line))]
        elif op == 1 and line:
            j = rng.randrange(len(line))
            line.insert(j, line[j])
        elif op == 2:
            token = rng.choice(VOCABULARY + [t for l in lines for t in l])
            line.insert(rng.randint(0, len(line)), token)
        elif op == 3 and line:
            line[rng.randrange(len(line))] = rng.choice(VOCABULARY)
        elif op == 4:
            other = lines[rng.randrange(len(lines))]
            if line and other:
                j, k = rng.randrange(len(line)), rng.randrange(len(other))
                line[j], other[k] = other[k], line[j]
        elif op == 5 and len(lines) > 1:
            del lines[i]
        else:  # split the line in two
            j = rng.randint(0, len(line))
            lines[i:i + 1] = [line[:j], line[j:]]
    return "\n".join(" ".join(line) for line in lines)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutations_parse_or_raise_the_reader_error(reader):
    text, parse, error = READERS[reader]
    parse(text)  # the unmutated text is valid
    rng = random.Random(f"fuzz {reader}")
    outcomes = {"parsed": 0, "refused": 0}
    for _ in range(2000):
        mutated = _mutate(rng, text)
        try:
            parse(mutated)
        except error:
            outcomes["refused"] += 1
        except Exception as exc:  # any other error fails the test, naming the input
            pytest.fail(f"{type(exc).__name__}: {exc} on {mutated!r}")
        else:
            outcomes["parsed"] += 1
    # Both outcomes occur, so the mutations neither always break the text
    # nor always leave it alone.
    assert min(outcomes.values()) > 100, outcomes
