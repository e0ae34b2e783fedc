"""Reference data for the output gate, written out independently of the program.

The letter figures are transcribed in the compact pair notation the paper
uses (Latin letter a-f for the multiple-of-x part, Greek letter alpha-zeta
for the 1..x part).  The golden squares are the paper's published squares.
The census and oracle counts are the exact published totals.  Nothing here
imports latinmagic, so a defect in the program cannot hide in its own check.
"""
from __future__ import annotations

import itertools

LATIN = "abcdef"
GREEK = "αβγδεζ"

# (family id, variant) -> letter-pair figure, rows top to bottom.
FIGURES = {
    ("e3.reflect", "c"): """
        aγ bβ cα
        bα cγ aβ
        cβ aα bγ""",
    ("e3.rotated", "c"): """
        bβ cα aγ
        cγ aβ bα
        aα bγ cβ""",
    ("e4.diag", "c"): """
        aα bδ cβ dγ
        dβ cγ bα aδ
        bγ aβ dδ cα
        cδ dα aγ bβ""",
    ("e4.diag", "d"): """
        aα bγ cδ dβ
        cβ dδ aγ bα
        dγ cα bβ aδ
        bδ aβ dα cγ""",
    ("e4.rotated", "c"): """
        bδ cβ dγ aα
        cγ bα aδ dβ
        aβ dδ cα bγ
        dα aγ bβ cδ""",
    ("e4.block", "c"): """
        aα aδ dβ dγ
        dα dδ aβ aγ
        bδ bα cγ cβ
        cδ cα bγ bβ""",
    ("e4.interleave", "c"): """
        aα dβ aδ dγ
        bδ cγ bα cβ
        dα aβ dδ aγ
        cδ bγ cα bβ""",
    ("e5.diag", "c"): """
        aε bδ cγ dβ eα
        eβ cα dδ aγ bε
        dα eγ bβ cε aδ
        bγ dε aα eδ cβ
        cδ aβ eε bα dγ""",
    ("e5.rotated", "c"): """
        bδ cγ dβ eα aε
        cα dδ aγ bε eβ
        eγ bβ cε aδ dα
        dε aα eδ cβ bγ
        aβ eε bα dγ cδ""",
    ("e5.center", "c"): """
        cδ dε eα aβ bγ
        bε cα dβ eγ aδ
        aα bβ cγ dδ eε
        eβ aγ bδ cε dα
        dγ eδ aε bα cβ""",
}

# Every family id with its order, as `families` lists them.
FAMILY_ORDERS = {
    "e3.reflect": 3,
    "e3.rotated": 3,
    "e4.diag": 4,
    "e4.rotated": 4,
    "e4.block": 4,
    "e4.interleave": 4,
    "e5.diag": 5,
    "e5.rotated": 5,
    "e5.center": 5,
    "e6.paired": 6,
    "e6.editor": 6,
}

# (family id, variant) -> (assignments, distinct squares, dihedral classes).
CENSUS = {
    ("e3.reflect", "c"): (4, 4, 1),
    ("e3.rotated", "c"): (4, 4, 1),
    ("e4.diag", "c"): (576, 576, 144),
    ("e4.diag", "d"): (576, 576, 144),
    ("e4.rotated", "c"): (64, 64, 8),
    ("e4.block", "c"): (64, 64, 16),
    ("e4.interleave", "c"): (64, 64, 16),
    ("e5.diag", "c"): (14400, 14400, 3600),
    ("e5.rotated", "c"): (16, 16, 16),
    ("e5.center", "c"): (576, 576, 144),
}

# order -> (magic squares over 1..x*x, dihedral classes among them).
ORACLE = {3: (8, 1), 4: (7040, 880)}

_GOLDEN_TEXT = {
    "e3_reflect": "2 9 4 / 7 5 3 / 6 1 8",
    "e4_block": "1 4 14 15 / 13 16 2 3 / 8 5 11 10 / 12 9 7 6",
    "e4_interleave": "1 14 4 15 / 8 11 5 10 / 13 2 16 3 / 12 7 9 6",
    "e4_rotated": "8 10 15 1 / 11 5 4 14 / 2 16 9 7 / 13 3 6 12",
    "e5_center_a": "14 20 21 2 8 / 10 11 17 23 4 / 1 7 13 19 25 / 22 3 9 15 16 / 18 24 5 6 12",
    "e5_center_b": "11 24 7 20 3 / 4 12 25 8 16 / 17 5 13 21 9 / 10 18 1 14 22 / 23 6 19 2 15",
    "e5_rotated": "8 20 2 21 14 / 16 3 15 9 22 / 25 7 19 13 1 / 4 11 23 17 10 / 12 24 6 5 18",
    "e6_editor": "3 36 30 4 11 27 / 22 13 35 12 14 15 / 16 18 8 31 17 21 / "
    "28 20 6 29 19 9 / 32 23 25 2 24 5 / 10 1 7 33 26 34",
}

GOLDENS = {
    name: tuple(tuple(int(v) for v in row.split()) for row in text.split("/"))
    for name, text in _GOLDEN_TEXT.items()
}


def _pair_grid(text: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(
        tuple((LATIN.index(token[0]), GREEK.index(token[1])) for token in line.split())
        for line in text.strip().splitlines()
    )


# (family id, variant) -> figure as (latin index, greek index) cells.
PAIR_GRIDS = {key: _pair_grid(text) for key, text in FIGURES.items()}


def evaluate(key, latin, greek):
    """Cells of a figure under letter values: latin value plus greek value."""
    return tuple(
        tuple(latin[l] + greek[g] for l, g in row) for row in PAIR_GRIDS[key]
    )


def domains(x: int):
    """Every (latin values, greek values) pair of order x, lexicographically."""
    greeks = list(itertools.permutations(range(1, x + 1)))
    for latin in itertools.permutations(range(0, x * x, x)):
        for greek in greeks:
            yield latin, greek

