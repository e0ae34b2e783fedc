"""Shared fixtures and small parsers for the test suite.

Figures are written here in the same compact letter-pair notation the
library renders, so the expected grids are independent transcriptions
rather than re-derivations through the code under test.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path

from latinmagic import (
    GREEK_LETTERS,
    LATIN_LETTERS,
    LineKind,
    LinearConstraint,
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    VerificationReport,
    Verdict,
    all_lines,
    line_positions,
    magic_constant,
)

DATA_DIR = Path(__file__).parent / "data"

_LATIN_INDEX = {ch: k for k, ch in enumerate(LATIN_LETTERS)}
_GREEK_INDEX = {ch: k for k, ch in enumerate(GREEK_LETTERS)}


def letter_grid(role: Role, text: str) -> SymbolGrid:
    """Parse a single-alphabet grid like 'a b c / b c a / c a b'."""
    table = _LATIN_INDEX if role is Role.LATIN else _GREEK_INDEX
    cells = tuple(
        tuple(table[token] for token in line.split())
        for line in text.strip().splitlines()
    )
    return SymbolGrid(role, cells)


def pair_grid(text: str) -> SuperposedGrid:
    """Parse a letter-pair grid like 'aγ bβ cα / bα cγ aβ / cβ aα bγ'."""
    cells = tuple(
        tuple(
            (_LATIN_INDEX[token[0]], _GREEK_INDEX[token[1]])
            for token in line.split()
        )
        for line in text.strip().splitlines()
    )
    return SuperposedGrid(cells)


_TERM = re.compile(r"^(\d*)([a-fα-ζ])$")


def constraint(text: str, order: int) -> LinearConstraint:
    """Parse '2c+2δ = a+e+α+γ' into a LinearConstraint of the given order."""
    latin = [0] * order
    greek = [0] * order
    left, right = text.split("=")
    for side, sign in ((left, 1), (right, -1)):
        for raw in side.split("+"):
            match = _TERM.match(raw.strip())
            assert match, f"bad term {raw!r} in {text!r}"
            coeff = int(match.group(1) or "1") * sign
            letter = match.group(2)
            if letter in _LATIN_INDEX:
                latin[_LATIN_INDEX[letter]] += coeff
            else:
                greek[_GREEK_INDEX[letter]] += coeff
    return LinearConstraint(tuple(latin), tuple(greek))


def reference_system_basis(constraints) -> tuple[LinearConstraint, ...]:
    """constraint_system_basis the textbook way: Gauss-Jordan elimination
    over Fraction, each row scaled to 1 at its pivot, then to integers by
    the lcm of its denominators."""
    constraints = tuple(constraints)
    if not constraints:
        return ()
    x = constraints[0].order
    basis: list[list[Fraction]] = []
    pivots: list[int] = []
    for c in constraints:
        row = [Fraction(v) for v in c.vector()]
        for brow, bp in zip(basis, pivots):
            if row[bp]:
                f = row[bp]
                row = [r - f * b for r, b in zip(row, brow)]
        pivot = next((k for k, v in enumerate(row) if v), None)
        if pivot is None:
            continue
        row = [r / row[pivot] for r in row]
        for k, (brow, bp) in enumerate(zip(basis, pivots)):
            if brow[pivot]:
                f = brow[pivot]
                basis[k] = [b - f * r for b, r in zip(brow, row)]
        basis.append(row)
        pivots.append(pivot)
    rows = []
    for _, row in sorted(zip(pivots, basis)):
        scale = lcm(*(v.denominator for v in row))
        ints = tuple(int(v * scale) for v in row)
        rows.append(LinearConstraint(ints[:x], ints[x:]))
    return tuple(rows)


def load_square(name: str) -> Square:
    cells = tuple(
        tuple(int(token) for token in line.split())
        for line in (DATA_DIR / name).read_text().strip().splitlines()
    )
    return Square(cells)


def reference_verify_magic(square: Square) -> VerificationReport:
    """verify_magic written the direct way: each line read cell by cell
    through line_positions, and every value located on its own."""
    x = square.order
    expected = magic_constant(x)
    sums = {
        line: sum(square.cells[i][j] for (i, j) in line_positions(line, x))
        for line in all_lines(x)
    }
    violations = tuple(line for line in all_lines(x) if sums[line] != expected)
    positions: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(square.cells):
        for j, value in enumerate(row):
            positions.setdefault(value, []).append((i, j))
    duplicates = tuple(
        (value, tuple(places))
        for value, places in sorted(positions.items())
        if len(places) > 1
    )
    bijection_ok = not duplicates and set(positions) == set(range(1, x * x + 1))
    rows_cols_ok = all(
        sums[line] == expected
        for line in all_lines(x)
        if line.kind in (LineKind.ROW, LineKind.COLUMN)
    )
    if bijection_ok and not violations:
        verdict = Verdict.MAGIC
    elif bijection_ok and rows_cols_ok:
        verdict = Verdict.SEMI_MAGIC
    else:
        verdict = Verdict.NOT_MAGIC
    return VerificationReport(
        order=x,
        expected_sum=expected,
        line_sums=sums,
        bijection_ok=bijection_ok,
        duplicate_values=duplicates,
        violations=violations,
        verdict=verdict,
    )


@dataclass(frozen=True)
class Golden:
    """A reference square: its family, value assignment, and expected sum."""

    family: str
    file: str
    expected_sum: int
    latin_values: tuple[int, ...] | None = None
    greek_values: tuple[int, ...] | None = None

    def square(self) -> Square:
        return load_square(self.file)


GOLDENS = (
    Golden("e3.reflect", "golden_e3_reflect.txt", 15, (0, 6, 3), (1, 3, 2)),
    Golden("e4.rotated", "golden_e4_rotated.txt", 34, (0, 4, 8, 12), (1, 2, 3, 4)),
    Golden("e4.block", "golden_e4_block.txt", 34, (0, 4, 8, 12), (1, 2, 3, 4)),
    Golden("e4.interleave", "golden_e4_interleave.txt", 34, (0, 4, 8, 12), (1, 2, 3, 4)),
    Golden("e5.rotated", "golden_e5_rotated.txt", 65, (10, 5, 15, 0, 20), (1, 2, 5, 3, 4)),
    Golden("e5.center", "golden_e5_center_a.txt", 65, (0, 5, 10, 15, 20), (1, 2, 3, 4, 5)),
    Golden("e5.center", "golden_e5_center_b.txt", 65, (15, 0, 10, 20, 5), (2, 5, 3, 1, 4)),
    Golden("e6.editor", "golden_e6_editor.txt", 111),
)

# Independent transcriptions of every family figure, cell for cell.
FIGURES = {
    "e3.reflect": """
        aγ bβ cα
        bα cγ aβ
        cβ aα bγ
    """,
    "e3.rotated": """
        bβ cα aγ
        cγ aβ bα
        aα bγ cβ
    """,
    "e4.diag": """
        aα bδ cβ dγ
        dβ cγ bα aδ
        bγ aβ dδ cα
        cδ dα aγ bβ
    """,
    "e4.rotated": """
        bδ cβ dγ aα
        cγ bα aδ dβ
        aβ dδ cα bγ
        dα aγ bβ cδ
    """,
    "e4.block": """
        aα aδ dβ dγ
        dα dδ aβ aγ
        bδ bα cγ cβ
        cδ cα bγ bβ
    """,
    "e4.interleave": """
        aα dβ aδ dγ
        bδ cγ bα cβ
        dα aβ dδ aγ
        cδ bγ cα bβ
    """,
    "e5.diag": """
        aε bδ cγ dβ eα
        eβ cα dδ aγ bε
        dα eγ bβ cε aδ
        bγ dε aα eδ cβ
        cδ aβ eε bα dγ
    """,
    "e5.rotated": """
        bδ cγ dβ eα aε
        cα dδ aγ bε eβ
        eγ bβ cε aδ dα
        dε aα eδ cβ bγ
        aβ eε bα dγ cδ
    """,
    "e5.center": """
        cδ dε eα aβ bγ
        bε cα dβ eγ aδ
        aα bβ cγ dδ eε
        eβ aγ bδ cε dα
        dγ eδ aε bα cβ
    """,
    "e6.paired": """
        aα aζ aβ fε fγ fδ
        fα fζ fβ aε aγ aδ
        bα bζ bβ eε eγ eδ
        eζ eα eε bβ bδ bγ
        cζ cα cε dβ dδ dγ
        dζ dα dε cβ cδ cγ
    """,
}

# The order-3 component grids the first figure is superposed from.
LATIN_3 = """
    a b c
    b c a
    c a b
"""
GREEK_3 = """
    γ β α
    α γ β
    β α γ
"""

# Expected letter-value conditions per family, one string per condition,
# in extraction order (rows, columns, main diagonal, anti diagonal).
CONSTRAINT_FIXTURES = {
    "e3.reflect": ("2γ = α+β", "2c = a+b"),
    "e3.rotated": ("2β = α+γ", "2a = b+c"),
    "e4.diag": (),
    "e4.rotated": ("b+c = a+d", "α+δ = β+γ"),
    "e4.block": ("a+d = b+c", "α+δ = β+γ"),
    "e5.diag": (),
    "e5.rotated": ("2c+2δ = a+e+α+γ", "2a+2ε = d+e+γ+δ"),
    "e5.center": ("4c = a+b+d+e", "4γ = α+β+δ+ε"),
}

# Simpler per-alphabet conditions that are sufficient (not necessary) for
# the e5.rotated pair above; every assignment passing these must satisfy
# the coupled conditions as well.
E5_ROTATED_SUFFICIENT_SPLIT = ("2c = a+e", "2a = d+e", "2δ = α+γ", "2ε = γ+δ")
