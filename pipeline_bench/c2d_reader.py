"""The benchmark's own reading of the program's c2d output text.

It shares no code with the program: it checks that every AND is
decomposable and counts models over the declared universe, so the program's
written circuit is checked apart from the program's own counter.
"""

from __future__ import annotations


class C2dCheckError(ValueError):
    pass


def count_models(text: str) -> int:
    """Model count of a c2d NNF text over its universe (``1..vars`` from the
    header, or the ``c universe`` directive). Raises C2dCheckError when an
    AND's children share a variable, a literal lies outside the universe, or
    the header's node count is wrong."""
    header = None
    universe = None
    nodes: list[tuple[int, int]] = []  # (variable bitmask, count over those variables)
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "c":
            if fields[1:2] == ["universe"]:
                universe = [int(v) for v in fields[2:]]
        elif tag == "nnf":
            header = [int(v) for v in fields[1:]]
        elif tag == "L":
            lit = int(fields[1])
            nodes.append((1 << abs(lit), 1))
        elif tag == "A":
            mask, count = 0, 1
            for child in fields[2:]:
                child_mask, child_count = nodes[int(child)]
                if mask & child_mask:
                    raise C2dCheckError(f"AND node {len(nodes)} is not decomposable")
                mask |= child_mask
                count *= child_count
            nodes.append((mask, count))
        elif tag == "O":
            kids = [nodes[int(child)] for child in fields[3:]]
            mask = 0
            for child_mask, _ in kids:
                mask |= child_mask
            width = mask.bit_count()
            nodes.append((mask, sum(c << (width - m.bit_count()) for m, c in kids)))
        else:
            raise C2dCheckError(f"unknown node line {line!r}")
    if header is None or not nodes:
        raise C2dCheckError("no header or no nodes")
    if header[0] != len(nodes):
        raise C2dCheckError(f"header declares {header[0]} nodes, found {len(nodes)}")
    if universe is None:
        universe = range(1, header[2] + 1)
    universe_mask = 0
    for v in universe:
        universe_mask |= 1 << v
    root_mask, root_count = nodes[-1]
    if root_mask & ~universe_mask:
        raise C2dCheckError("a literal lies outside the universe")
    return root_count << (len(universe) - root_mask.bit_count())
