"""Seeded token-level mutations of valid reader inputs: every mutated text
either parses or raises its reader's own error, never anything else."""

import hashlib
import random

import pytest

from ddnnf import model_count, parse_dimacs, parse_nnf, parse_tvars, write_nnf
from ddnnf.cnf import DimacsError
from ddnnf.circuit import NnfFormatError

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
    "d4": (D4, parse_nnf, NnfFormatError),
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


# The sha256 of the outcomes of 20,000 mutations of C2D, recorded before the
# c2d reader resolved references by their text: parsing them must keep every
# circuit and every message, and which message a line with several faults
# gets.
C2D_OUTCOMES_SHA256 = "23f05a1bf2ba44556790e4d6585908f06ac617aa4254dbca5a714ed505991a66"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_c2d_outcomes_pinned():
    rng = random.Random("c2d outcomes")
    digest = hashlib.sha256()
    for _ in range(20_000):
        mutated = _mutate(rng, C2D)
        try:
            outcome = "ok:" + write_nnf(parse_nnf(mutated))
        except NnfFormatError as exc:
            outcome = f"err:{exc}"
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == C2D_OUTCOMES_SHA256


C2D_PREFIX = "nnf 3 2 2\nL 1\nL 2\n"


@pytest.mark.parametrize("line", ["A 2 +0 01", "A 2 -0 1"])
def test_c2d_reference_not_in_canonical_form(line):
    # A reference that is not its position's text is read through int().
    assert model_count(parse_nnf(C2D_PREFIX + line + "\n")) == 1


@pytest.mark.parametrize("line, message", [
    ("A 3 0 99", "AND child count mismatch"),
    ("A 2 x 99", "non-integer argument"),
    ("O 9 2 0 99", "decision variable 9 out of range"),
])
def test_c2d_line_with_two_faults_names_the_first(line, message):
    with pytest.raises(NnfFormatError, match=f"^line 4: {message}$"):
        parse_nnf(C2D_PREFIX + line + "\n")
