"""Family enumeration, symmetry reduction, and the exhaustive oracle.

The oracle searches the full space of squares over 1..x*x independently of
any figure construction, so family output can be checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .construct import diagonal_constraints, magic_figure, solve_assignments
from .model import Square, _rref, magic_constant
from .verify import _flat, _geometry, _is_magic, _unflat

ORACLE_MAX_ORDER = 4

Cells = tuple[tuple[int, ...], ...]


def dihedral_images(cells: Cells) -> tuple[Cells, ...]:
    """The eight rotations and reflections of a square's cells.

    In order: 0, 1, 2 and 3 clockwise quarter turns, each followed by its
    left-right mirror image.  The first image is cells itself.
    """
    x = len(cells)
    flat = _flat(cells)
    pickers = _geometry(x).symmetry_pickers[1:]
    return (cells, *(_unflat(pick(flat), x) for pick in pickers))


@dataclass(frozen=True)
class CanonicalSquare:
    """The row-major lexicographic minimum over a square's dihedral orbit."""

    square: Square


def _canonical_flat(flat: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The least of the eight images of row-major cells, as row-major cells."""
    return min([pick(flat) for pick in _geometry(x).symmetry_pickers])


def canonicalize(square: Square) -> CanonicalSquare:
    """The least of the square's eight images, compared as row-major tuples."""
    flat = _flat(square.cells)
    least = _canonical_flat(flat, square.order)
    if least == flat:  # keep the square's own rows rather than copies
        return CanonicalSquare(square)
    return CanonicalSquare(Square(_unflat(least, square.order)))


@dataclass(frozen=True)
class FamilyCensus:
    family_id: str
    assignments_total: int
    squares_distinct: int
    squares_distinct_dihedral: int


def _family_cells(family_id: str, variant: str) -> Iterator[tuple[int, ...]]:
    """Row-major cells of enumerate_family's squares, each audited by _is_magic."""
    figure = magic_figure(family_id, variant)
    constraints = diagonal_constraints(figure)
    x = figure.order
    pairs = _flat(figure.cells)
    for assignment in solve_assignments(constraints, x):
        latin, greek = assignment.latin_values, assignment.greek_values
        flat = tuple(latin[l] + greek[g] for l, g in pairs)
        if not _is_magic(flat, x):
            raise AssertionError(
                f"family {family_id} produced a non-magic square for "
                f"{assignment}; constraint extraction is unsound"
            )
        yield flat


def enumerate_family(family_id: str, variant: str = "c") -> Iterator[Square]:
    """All squares a family can produce, one per satisfying assignment.

    Squares come out in the solver's lexicographic assignment order and each
    is re-verified before it is emitted.  A family without a figure that
    can make magic squares is not enumerable and raises ValueError on the
    first step (OrthogonalityError for a figure that repeats a letter pair).
    """
    for flat in _family_cells(family_id, variant):
        yield Square(_unflat(flat, isqrt(len(flat))))


def census(family_id: str, variant: str = "c") -> FamilyCensus:
    """Counts for a family: assignments, distinct squares, dihedral classes."""
    flats = list(_family_cells(family_id, variant))
    x = isqrt(len(flats[0])) if flats else 1
    return FamilyCensus(
        family_id=family_id,
        assignments_total=len(flats),
        squares_distinct=len(set(flats)),
        squares_distinct_dihedral=len({_canonical_flat(flat, x) for flat in flats}),
    )


def _fill_order(x: int) -> tuple[int, ...]:
    """The oracle's cell order: corners, the rest of both diagonals, then the rest.

    After the diagonals, each step takes the cell on the line with the fewest
    empty cells (row-major among ties), so rows and columns close early and
    their last cells are forced.
    """
    last = x - 1
    order: list[int] = []
    for i, j in (
        (0, 0), (0, last), (last, 0), (last, last),
        *((i, i) for i in range(x)),
        *((i, last - i) for i in range(x)),
    ):
        if i * x + j not in order:
            order.append(i * x + j)
    lines = _geometry(x).lines

    def open_cells(cell: int) -> int:
        return min(sum(c not in order for c in line) for line in lines if cell in line)

    rest = [c for c in range(x * x) if c not in order]
    while rest:
        cell = min(rest, key=open_cells)
        rest.remove(cell)
        order.append(cell)
    return tuple(order)


def _forced_cells(x: int) -> list[tuple | None]:
    """Per fill step: None for a free cell, (den, const, terms) for a forced one.

    A forced cell's value v satisfies den*v = const + sum(coef * value of
    cell) over its terms, whose cells are free cells filled earlier.  The
    rules are the rows of model._rref, the one integer elimination, applied
    to the line equations with the columns in reverse fill order, so each
    row's pivot is its last-filled cell and every other entry is zero at
    the other pivots.
    """
    order = _fill_order(x)
    n = x * x
    # one row per line: a coefficient per cell, last-filled first, then the sum
    rows = [
        [int(cell in line) for cell in reversed(order)] + [magic_constant(x)]
        for line in _geometry(x).lines
    ]
    rules: list[tuple | None] = [None] * n
    for row, col in zip(*_rref(rows)):
        terms = tuple(
            (-row[c], order[n - 1 - c]) for c in range(col + 1, n) if row[c]
        )
        rules[n - 1 - col] = (row[col], row[n], terms)
    return rules


def _frenicle_forms(x: int) -> list[Cells]:
    """The Frénicle normal form of every order-x magic square; see oracle_search."""
    target = magic_constant(x)
    n = x * x
    last = x - 1
    order = _fill_order(x)
    forced = _forced_cells(x)
    lines = _geometry(x).lines
    lines_at = [
        tuple(li for li, line in enumerate(lines) if cell in line) for cell in order
    ]
    # (smaller, larger) cell pairs of the normal form: (0,0) against the
    # other three corners, then (0,1) against (1,0)
    less = [(0, last), (0, last * x), (0, n - 1), (1, x)] if x > 1 else []
    step = {cell: k for k, cell in enumerate(order)}
    above: list[list[int]] = [[] for _ in order]  # cells this step must exceed
    below: list[list[int]] = [[] for _ in order]  # cells this step must undercut
    for small, large in less:
        if step[small] < step[large]:
            above[step[large]].append(small)
        else:
            below[step[small]].append(large)

    sums = [0] * len(lines)
    empties = [x] * len(lines)
    used = [False] * (n + 1)
    grid = [0] * n
    forms: list[Cells] = []

    # cheapest feasibility bounds: e distinct values from 1..n sum to at
    # least 1+2+..+e and at most n+(n-1)+..+(n-e+1)
    min_fill = [e * (e + 1) // 2 for e in range(x + 1)]
    max_fill = [e * n - e * (e - 1) // 2 for e in range(x + 1)]

    def fill(k: int) -> None:
        if k == n:
            forms.append(tuple(tuple(grid[r * x:(r + 1) * x]) for r in range(x)))
            return
        cell = order[k]
        cell_lines = lines_at[k]
        lo, hi = 1, n
        if forced[k] is not None:
            den, total, terms = forced[k]
            for coef, c in terms:
                total += coef * grid[c]
            if total % den or not den <= total <= n * den:
                return
            lo = hi = total // den
        for li in cell_lines:
            rest = target - sums[li]
            e = empties[li] - 1
            if rest - max_fill[e] > lo:
                lo = rest - max_fill[e]
            if rest - min_fill[e] < hi:
                hi = rest - min_fill[e]
        for c in above[k]:
            if grid[c] >= lo:
                lo = grid[c] + 1
        for c in below[k]:
            if grid[c] <= hi:
                hi = grid[c] - 1
        for v in range(lo, hi + 1):
            if used[v]:
                continue
            for li in cell_lines:
                # the line's one remaining cell is then determined
                if empties[li] == 2:
                    f = target - sums[li] - v
                    if f == v or used[f]:
                        break
            else:
                grid[cell] = v
                used[v] = True
                for li in cell_lines:
                    sums[li] += v
                    empties[li] -= 1
                fill(k + 1)
                used[v] = False
                for li in cell_lines:
                    sums[li] -= v
                    empties[li] += 1

    fill(0)
    return forms


def oracle_search(x: int) -> set[Square]:
    """Every order-x magic square over 1..x*x, by exhaustive backtracking.

    Fill order: the four corners first, then the rest of both diagonals,
    then at each step the cell on the line with the fewest empty cells, so
    rows and columns close early and their last cells are forced.

    Normal form: only Frénicle normal forms are searched, in which cell
    (0,0) is smaller than the other three corners and cell (0,1) is smaller
    than cell (1,0); each comparison bounds the later-filled of its two
    cells.  Every class of squares under the eight rotations and reflections
    has exactly one normal form.  The values are distinct, so one corner is
    the smallest, and exactly two of the eight symmetries put it at (0,0).
    Those two are transposes of each other, and transposing swaps (0,1) and
    (1,0), so exactly one of them has (0,1) < (1,0).  Order 1 has a single
    cell and no comparisons.

    Each cell's candidates form one integer range: every line through it
    must still be completable by distinct values from 1..x*x, so a line's
    last cell is forced.  Forcing: the line sums are linear equations, so
    some cells are fixed by the cells filled before them; at order 4 the
    four corners sum to the magic constant, so the fourth corner is one.
    _forced_cells finds every such cell (9 of 16 at order 4) with model._rref,
    the exact integer elimination that also reduces the diagonal constraints,
    and the search computes its value instead of trying each one,
    pruning when the value is not an integer in 1..x*x.  Each rule is a sum
    of multiples of line equations, so every magic square satisfies it and
    no square is lost.  Expansion: each normal form is mapped by
    dihedral_images to its whole class.  The search space explodes beyond
    order 4, so larger orders are rejected.
    """
    if x < 1:
        raise ValueError(f"order must be >= 1, got {x}")
    if x > ORACLE_MAX_ORDER:
        raise ValueError(
            f"exhaustive search is capped at order {ORACLE_MAX_ORDER}, got {x}"
        )
    return {
        Square(cells) for form in _frenicle_forms(x) for cells in dihedral_images(form)
    }


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
