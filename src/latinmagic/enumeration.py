"""Family enumeration, symmetry reduction, and the exhaustive oracle.

The oracle searches the full space of squares over 1..x*x independently of
any figure construction, so family output can be checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .construct import diagonal_constraints, magic_figure, solve_assignments
from .model import Square, evaluate, magic_constant
from .verify import Verdict, verify_magic

ORACLE_MAX_ORDER = 4

Cells = tuple[tuple[int, ...], ...]


def _rotate(cells: Cells) -> Cells:
    x = len(cells)
    return tuple(
        tuple(cells[x - 1 - j][i] for j in range(x)) for i in range(x)
    )


def _flip(cells: Cells) -> Cells:
    return tuple(tuple(reversed(row)) for row in cells)


def dihedral_images(cells: Cells) -> tuple[Cells, ...]:
    """The eight rotations and reflections of a square's cells."""
    images = []
    current = cells
    for _ in range(4):
        images.append(current)
        images.append(_flip(current))
        current = _rotate(current)
    return tuple(images)


@dataclass(frozen=True)
class CanonicalSquare:
    """The row-major lexicographic minimum over a square's dihedral orbit."""

    square: Square


def canonicalize(square: Square) -> CanonicalSquare:
    return CanonicalSquare(Square(min(dihedral_images(square.cells))))


@dataclass(frozen=True)
class FamilyCensus:
    family_id: str
    assignments_total: int
    squares_distinct: int
    squares_distinct_dihedral: int


def enumerate_family(family_id: str, variant: str = "c") -> Iterator[Square]:
    """All squares a family can produce, one per satisfying assignment.

    Squares come out in the solver's lexicographic assignment order and each
    is re-verified before it is emitted.  A family without a figure that
    can make magic squares is not enumerable and raises ValueError on the
    first step (OrthogonalityError for a figure that repeats a letter pair).
    """
    figure = magic_figure(family_id, variant)
    constraints = diagonal_constraints(figure)
    for assignment in solve_assignments(constraints, figure.order):
        square = evaluate(figure, assignment)
        report = verify_magic(square)
        if report.verdict is not Verdict.MAGIC:
            raise AssertionError(
                f"family {family_id} produced a non-magic square for "
                f"{assignment}; constraint extraction is unsound"
            )
        yield square


def census(family_id: str, variant: str = "c") -> FamilyCensus:
    """Counts for a family: assignments, distinct squares, dihedral classes."""
    total = 0
    distinct: set[Cells] = set()
    classes: set[Cells] = set()
    for square in enumerate_family(family_id, variant=variant):
        total += 1
        distinct.add(square.cells)
        classes.add(canonicalize(square).square.cells)
    return FamilyCensus(
        family_id=family_id,
        assignments_total=total,
        squares_distinct=len(distinct),
        squares_distinct_dihedral=len(classes),
    )


def oracle_search(x: int) -> set[Square]:
    """Every order-x magic square over 1..x*x, by exhaustive backtracking.

    Fills cells row-major.  A cell completing a line must complete it to the
    magic constant exactly; other candidates are cut when the line cannot
    reach the constant with distinct values from 1..x*x.  The search space
    explodes beyond order 4, so larger orders are rejected.
    """
    if x < 1:
        raise ValueError(f"order must be >= 1, got {x}")
    if x > ORACLE_MAX_ORDER:
        raise ValueError(
            f"exhaustive search is capped at order {ORACLE_MAX_ORDER}, got {x}"
        )
    target = magic_constant(x)
    n = x * x

    # line ids: 0..x-1 rows, x..2x-1 columns, 2x main diag, 2x+1 anti diag
    lines_at: list[tuple[int, ...]] = []
    for i in range(x):
        for j in range(x):
            ids = [i, x + j]
            if i == j:
                ids.append(2 * x)
            if i + j == x - 1:
                ids.append(2 * x + 1)
            lines_at.append(tuple(ids))

    sums = [0] * (2 * x + 2)
    empties = [x] * (2 * x + 2)
    used = [False] * (n + 1)
    grid = [0] * n
    found: list[Square] = []

    # cheapest feasibility bounds: e distinct values from 1..n sum to at
    # least 1+2+..+e and at most n+(n-1)+..+(n-e+1)
    min_fill = [e * (e + 1) // 2 for e in range(x + 1)]
    max_fill = [e * n - e * (e - 1) // 2 for e in range(x + 1)]

    def fill(pos: int) -> None:
        if pos == n:
            found.append(
                Square(tuple(tuple(grid[r * x:(r + 1) * x]) for r in range(x)))
            )
            return
        cell_lines = lines_at[pos]
        forced = None
        for li in cell_lines:
            if empties[li] == 1:
                forced = target - sums[li]
                break
        if forced is not None:
            if forced < 1 or forced > n or used[forced]:
                return
            candidates = (forced,)
        else:
            candidates = tuple(v for v in range(1, n + 1) if not used[v])
        for v in candidates:
            ok = True
            for li in cell_lines:
                s = sums[li] + v
                e = empties[li] - 1
                if e == 0:
                    if s != target:
                        ok = False
                        break
                elif not s + min_fill[e] <= target <= s + max_fill[e]:
                    ok = False
                    break
                elif e == 1:
                    # the line's one remaining cell is already determined
                    f = target - s
                    if f < 1 or f > n or f == v or used[f]:
                        ok = False
                        break
            if not ok:
                continue
            grid[pos] = v
            used[v] = True
            for li in cell_lines:
                sums[li] += v
                empties[li] -= 1
            fill(pos + 1)
            used[v] = False
            for li in cell_lines:
                sums[li] -= v
                empties[li] += 1
        return

    fill(0)
    return set(found)


@dataclass(frozen=True)
class SubsetReport:
    """Result of checking a family's output against an oracle set."""

    ok: bool
    missing: tuple[Square, ...]


def subset_check(
    family_id: str, oracle: set[Square], variant: str = "c"
) -> SubsetReport:
    """Verify every square a family yields is present in the oracle set."""
    order = None
    for square in oracle:
        order = square.order
        break
    missing: list[Square] = []
    seen_missing: set[Cells] = set()
    for square in enumerate_family(family_id, variant=variant):
        if order is not None and square.order != order:
            raise ValueError(
                f"family {family_id} has order {square.order}, oracle squares "
                f"have order {order}"
            )
        if square not in oracle and square.cells not in seen_missing:
            seen_missing.add(square.cells)
            missing.append(square)
    return SubsetReport(ok=not missing, missing=tuple(missing))
