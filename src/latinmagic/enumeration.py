"""Family enumeration, symmetry reduction, and the exhaustive oracle.

The oracle searches the full space of squares over 1..x*x independently of
any figure construction, so family output can be checked against it.
"""
from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import Iterator

from .construct import _solve_values, diagonal_constraints, magic_figure
from .model import Square, SuperposedGrid, _Record, _check_order, _rref, _shorten, magic_constant
from .verify import _flat, _geometry, _is_magic, _picker, _unflat

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


class CanonicalSquare(_Record):
    """The row-major lexicographic minimum over a square's dihedral orbit."""

    square: Square


def _canonical_flat(flat: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The least of the eight images of row-major cells, as row-major cells.

    Every image starts with a corner, so the least image starts with the
    least corner value.  When one corner holds it, as in every magic
    square, only that corner's two images are compared; otherwise all eight.
    """
    geometry = _geometry(x)
    corners = geometry.corner_picker(flat)
    least = min(corners)
    if corners.count(least) == 1:
        first, second = geometry.corner_pickers[corners.index(least)]
        return min(first(flat), second(flat))
    return min(pick(flat) for pick in geometry.symmetry_pickers)


def canonicalize(square: Square) -> CanonicalSquare:
    """The least of the square's eight images, compared as row-major tuples."""
    least = _canonical_flat(_flat(square.cells), square.order)
    return CanonicalSquare(Square(_unflat(least, square.order)))


class FamilyCensus(_Record):
    family_id: str
    assignments_total: int
    squares_distinct: int
    squares_distinct_dihedral: int


def _figure_cells(figure: SuperposedGrid, family_id: str) -> Iterator[tuple[int, ...]]:
    """Row-major cells of the squares a figure makes, each audited by _is_magic.

    Each cell is its Latin letter's value plus its Greek letter's: the
    figure's two letter grids are pickers over the value tuples, each
    remembered for this call (an alphabet has at most x! value tuples),
    and a square is the cellwise sum of the two picks.
    """
    constraints = diagonal_constraints(figure)
    x = figure.order
    is_magic = _geometry(x).is_magic
    pairs = _flat(figure.cells)
    pick_latin = lru_cache(maxsize=None)(_picker(tuple(l for l, _ in pairs)))
    pick_greek = lru_cache(maxsize=None)(_picker(tuple(g for _, g in pairs)))
    for latin, greek in _solve_values(constraints, x):
        flat = tuple(map(add, pick_latin(latin), pick_greek(greek)))
        if not is_magic(flat):
            raise AssertionError(
                f"family {family_id} produced a non-magic square for latin values "
                f"{latin} and greek values {greek}; constraint extraction is unsound"
            )
        yield flat


def enumerate_family(family_id: str, variant: str = "c") -> Iterator[Square]:
    """All squares a family can produce, one per satisfying assignment.

    Squares come out in the solver's lexicographic assignment order and each
    is re-verified before it is emitted.  A family without a figure that
    can make magic squares is not enumerable and raises ValueError on the
    first step (OrthogonalityError for a figure that repeats a letter pair).
    """
    figure = magic_figure(family_id, variant)
    for flat in _figure_cells(figure, family_id):
        yield Square(_unflat(flat, figure.order))


def census(family_id: str, variant: str = "c") -> FamilyCensus:
    """Counts for a family: assignments, distinct squares, dihedral classes."""
    figure = magic_figure(family_id, variant)
    x = figure.order
    flats = list(_figure_cells(figure, family_id))
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
    geometry = _geometry(x)
    lines = geometry.lines
    order = list(dict.fromkeys((*geometry.corners, *lines[-2], *lines[-1])))

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


def _oracle_plan(x: int) -> tuple[tuple, ...]:
    """The oracle's steps in fill order: (free cell, beyond, chain) per free cell.

    beyond: normal-form comparisons with earlier cells, as (other cell,
    sign) with (value - other value) * sign > 0.  chain: the forced cells
    up to the next free cell, as (cell, den, const, terms, coef, beyond)
    with den * value = const + coef * v + sum(c * value of t for c, t in
    terms), v the step's free value and t free cells of earlier steps.
    Orders 1 and 2 have no free cell; their chain follows the spare cell
    x*x, which takes only the value 0.
    """
    n = x * x
    order = _fill_order(x)
    step = {cell: k for k, cell in enumerate(order)}
    beyond: dict[int, list] = {cell: [] for cell in order}
    # (smaller, larger) cell pairs of the normal form: (0,0) against the
    # other three corners, then (0,1) against (1,0)
    first, *others = _geometry(x).corners
    for small, large in [(first, corner) for corner in others] + [(1, x)] if x > 1 else []:
        later, earlier, sign = (large, small, 1) if step[small] < step[large] else (small, large, -1)
        beyond[later].append((earlier, sign))
    steps: list = []
    for cell, rule in zip(order, _forced_cells(x)):
        if rule is None:
            steps.append((cell, tuple(beyond[cell]), []))
            continue
        if not steps:
            steps.append((n, (), []))
        own, _, chain = steps[-1]
        den, const, terms = rule
        coef = sum(c for c, t in terms if t == own)
        terms = tuple((c, t) for c, t in terms if t != own)
        chain.append((cell, den, const, terms, coef, tuple(beyond[cell])))
    return tuple((cell, b, tuple(chain)) for cell, b, chain in steps)


def _frenicle_flats(x: int) -> list[tuple[int, ...]]:
    """The Frénicle normal forms as row-major cells; see oracle_search."""
    n = x * x
    steps = _oracle_plan(x)
    grid = [0] * (n + 1)  # the last is the spare cell
    flats: list[tuple[int, ...]] = []

    def fill(k: int, used: int) -> None:
        """Fill the free steps from k on; bit v of used is set once v is placed."""
        if k == len(steps):
            flat = tuple(grid[:n])
            if not _is_magic(flat, x):
                raise AssertionError(f"oracle found non-magic {flat}; forced-cell rules are unsound")
            flats.append(flat)
            return
        cell, beyond, chain = steps[k]
        lo, hi = (1, n) if cell < n else (0, 0)
        for c, s in beyond:
            lo, hi = (max(lo, grid[c] + 1), hi) if s > 0 else (lo, min(hi, grid[c] - 1))
        # each chained value is (base + coef*v) / den: keep den <= base + coef*v <= den*n
        links = []
        for w, den, base, terms, coef, w_beyond in chain:
            for c, t in terms:
                base += c * grid[t]
            if coef:
                p, q = (den, den * n) if coef > 0 else (den * n, den)
                low, high = -((base - p) // coef), (q - base) // coef
                if low > lo:
                    lo = low
                if high < hi:
                    hi = high
            elif not den <= base <= den * n:
                return
            links.append((w, den, base, coef, w_beyond))
        for v in range(lo, hi + 1):
            if used >> v & 1:
                continue
            taken = used | 1 << v
            grid[cell] = v
            for w, den, base, coef, w_beyond in links:
                num = base + coef * v
                value = num // den
                if num % den or taken >> value & 1 or w_beyond and any(
                    (value - grid[c]) * s <= 0 for c, s in w_beyond
                ):
                    break
                grid[w] = value
                taken |= 1 << value
            else:
                fill(k + 1, taken)

    fill(0, 0)
    return flats


def _oracle_flats(x: int) -> set[tuple[int, ...]]:
    """Row-major cells of every order-x magic square; see oracle_search."""
    _check_order(x)
    if x > ORACLE_MAX_ORDER:
        raise ValueError(f"exhaustive search is capped at order {ORACLE_MAX_ORDER}, got {_shorten(str(x))}")
    return {pick(flat) for flat in _frenicle_flats(x) for pick in _geometry(x).symmetry_pickers}


def oracle_search(x: int) -> set[Square]:
    """Every order-x magic square over 1..x*x, by exhaustive backtracking.

    Only Frénicle normal forms are searched: (0,0) is the smallest corner
    and (0,1) < (1,0).  Each class under the eight symmetries has exactly
    one, since the two symmetries that put the smallest corner at (0,0)
    are transposes of each other and swap (0,1) and (1,0).  The cells are
    filled corners first, then diagonals.  _forced_cells reduces the 2x+2
    line equations with model._rref; each row fixes one cell from free
    cells filled before it (9 of 16 at order 4).  The search recurses over
    the free cells only, and each forced cell up to the next free cell is
    linear in the newest free value v: v's range keeps them in 1..x*x, and
    a v is dropped when one is not an integer, repeats a value or breaks a
    comparison.  No line sums are tracked: the rules span the line
    equations, so distinct values in 1..x*x that meet them form a magic
    square, and every magic square meets them.  Each form is audited, then
    mapped over flat row-major cells to its class.  Orders above 4 fail.
    """
    return {Square(_unflat(flat, x)) for flat in _oracle_flats(x)}


class SubsetReport(_Record):
    """Result of checking a family's output against an oracle set."""

    ok: bool
    missing: tuple[Square, ...]


def subset_check(
    family_id: str, oracle: set[Square], variant: str = "c"
) -> SubsetReport:
    """Verify every square a family yields is present in the oracle set."""
    order = next(iter(oracle)).order if oracle else None
    missing: list[Square] = []
    for square in enumerate_family(family_id, variant=variant):
        if order is not None and square.order != order:
            raise ValueError(
                f"family {family_id} has order {square.order}, oracle squares "
                f"have order {order}"
            )
        if square not in oracle:
            missing.append(square)
    return SubsetReport(ok=not missing, missing=tuple(missing))
