"""Family enumeration, symmetry reduction, and the exhaustive oracle.

The oracle searches the full space of squares over 1..x*x independently of
any figure construction, so family output can be checked against it.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import permutations

from . import construct
from .model import (
    Square, SuperposedGrid, _Record, _brief, _check_instance, _check_items, _check_order, _check_square, _rref,
    magic_constant,
)
from .verify import _flat, _geometry, _grouped, _is_magic, _picker, _unflat

ORACLE_MAX_ORDER = 4

Cells = tuple[tuple[int, ...], ...]


def dihedral_images(cells: Cells) -> tuple[Cells, ...]:
    """The eight rotations and reflections of a square's cells.

    In order: 0, 1, 2 and 3 clockwise quarter turns, each followed by its
    left-right mirror image.  The first image is cells itself, as a tuple
    of tuple rows.
    """
    cells = _check_square(cells, "square")
    x = len(cells)
    flat = _flat(cells)
    pickers = _geometry(x).symmetry_pickers[1:]
    return (cells, *(_unflat(pick(flat), x) for pick in pickers))


class CanonicalSquare(_Record):
    """The row-major lexicographic minimum over a square's dihedral orbit."""

    square: Square


def _canonical_flat(flat: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The least of the eight images of row-major cells, as row-major cells."""
    return min(pick(flat) for pick in _geometry(x).symmetry_pickers)


def _classes(flats, x: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Row-major order-x squares grouped by class key, _canonical_flat.

    Keys and each key's members come in first-seen order.  The keyed
    reference for _automorphisms and _oracle_classes.
    """
    return _grouped((_canonical_flat(flat, x), flat) for flat in flats)


def canonicalize(square: Square) -> CanonicalSquare:
    """The least of the square's eight images, compared as row-major tuples."""
    _check_instance(square, Square, "square")
    least = _canonical_flat(_flat(square.cells), square.order)
    return CanonicalSquare(Square(_unflat(least, square.order)))


class FamilyCensus(_Record):
    family_id: str
    assignments_total: int
    squares_distinct: int
    squares_distinct_dihedral: int


def _builder_source(figure: SuperposedGrid, automorphisms) -> str:
    """A figure's squares as the source of build(pairs), audited inline.

    For each (latin, greek) pair of value tuples, build unpacks the values
    into the locals a0.. and b0.., sets cell k's local c{k} = a{l} + b{g}
    for its letters l and g, and runs _Geometry.audit_text over those
    locals (the name values holds 1..x*x); a square that fails raises its
    AssertionError, naming the family by the name family_id.  Each given
    automorphism, a cell map, renames the letters a0.., b0.. (numbered
    0..2x-1) and takes the square to the one made from the renamed pair;
    build skips the square if some renamed pair is less than (latin,
    greek), and yields the rest as row-major tuples.  The two pairs first
    differ at the first letter the renaming moves, so the comparisons are
    _least_image_pairs of the renamings, each of two locals (a2 < a0);
    the identity and repeats give none.
    """
    x = figure.order
    n = x * x
    pairs = _flat(figure.cells)
    lines = [
        "def build(pairs):",
        "    for latin, greek in pairs:",
        f"        {''.join(f'a{k}, ' for k in range(x))}= latin",
        f"        {''.join(f'b{k}, ' for k in range(x))}= greek",
        *(f"        c{k} = a{l} + b{g}" for k, (l, g) in enumerate(pairs)),
        f"        flat = ({''.join(f'c{k}, ' for k in range(n))})",
        f"        if not ({_geometry(x).audit_text([f'c{k}' for k in range(n)], 'flat')}):",
        "            raise AssertionError(f'family {family_id} produced a non-magic square for latin values '",
        "                                 f'{latin} and greek values {greek}; constraint extraction is unsound')",
    ]
    names = [f"{letter}{k}" for letter in "ab" for k in range(x)]
    renamings = [
        {r * x + pair[r]: r * x + pairs[s][r] for pair, s in zip(pairs, sym) for r in (0, 1)} for sym in automorphisms
    ]
    earlier = [f"{names[large]} < {names[small]}" for small, large in _least_image_pairs(renamings, range(2 * x))]
    if earlier:
        lines.append(f"        if {' or '.join(earlier)}: continue")
    lines.append("        yield flat")
    return "\n".join(lines) + "\n"


def _figure_cells(figure: SuperposedGrid, family_id: str, automorphisms=()) -> Iterator[tuple[int, ...]]:
    """Row-major cells of the squares a figure makes, each audited inline.

    Each cell is its Latin letter's value plus its Greek letter's.  The
    figure is compiled, on each call, into one generator (_builder_source)
    that runs over the solver's value pairs in their order and audits
    every square by the line sums and values of _Geometry.audit_text, the
    test _is_magic runs, before anything else.  A square is skipped after
    its audit when one of the given automorphisms maps it to a square made
    from a smaller pair.
    """
    constraints = construct.diagonal_constraints(figure)
    x = figure.order
    namespace: dict = {"values": list(range(1, x * x + 1)), "family_id": family_id}
    exec(compile(_builder_source(figure, automorphisms), f"<figure of order {x}>", "exec"), namespace)
    yield from namespace["build"](construct._solve_values(constraints, x))


def _automorphisms(figure: SuperposedGrid) -> set[tuple[int, ...]]:
    """The distinct _Geometry.symmetries (one at order 1) that map a figure
    to itself with each alphabet renamed.

    These map the figure's squares onto each other, as a value splits one
    way only into a Latin and a Greek value.  From order 2 on only the
    identity fixes a square of distinct values, so each class holds one of
    the figure's squares per automorphism.
    """
    x = figure.order
    pairs = _flat(figure.cells)
    return {
        sym for sym in _geometry(x).symmetries
        if all(len({(p[r], pairs[k][r]) for p, k in zip(pairs, sym)}) == x for r in (0, 1))
    }


def _figure_classes(figure: SuperposedGrid, family_id: str) -> Iterator[tuple[int, ...]]:
    """The first square of each dihedral class a figure makes, in _figure_cells order.

    An automorphism renames the letters, and maps the square made from
    (latin, greek) to the one made from the renamed pair.  The solver
    yields the pairs in lexicographic order, and every image of one of its
    squares is one, so a square has an earlier square in its class exactly
    when one of the automorphisms gives a smaller pair: _figure_cells
    skips it after its audit, and no set of squares already seen is kept.
    All of Aut F is passed; the identity moves no letter, so
    _least_image_pairs gives it no comparison.
    """
    yield from _figure_cells(figure, family_id, sorted(_automorphisms(figure)))


def enumerate_family(family_id: str, variant: str = "c") -> Iterator[Square]:
    """All squares a family can produce, one per satisfying assignment.

    Squares come out in the solver's lexicographic assignment order and each
    is re-verified before it is emitted.  A family without a figure that
    can make magic squares is not enumerable and raises ValueError on the
    first step (OrthogonalityError for a figure that repeats a letter pair).
    """
    figure = construct.magic_figure(family_id, variant)
    for flat in _figure_cells(figure, family_id):
        yield Square(_unflat(flat, figure.order))


def census(family_id: str, variant: str = "c") -> FamilyCensus:
    """Counts for a family: assignments, distinct squares, dihedral classes (_automorphisms).

    Every square the solver yields is audited inline (_figure_cells)
    before it is counted; the classes are the squares over |Aut F|.
    """
    figure = construct.magic_figure(family_id, variant)
    flats = list(_figure_cells(figure, family_id))
    return FamilyCensus(
        family_id=family_id,
        assignments_total=len(flats),
        squares_distinct=len(set(flats)),
        squares_distinct_dihedral=len(flats) // len(_automorphisms(figure)),
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


def _symmetry_group(x: int) -> tuple[tuple[int, ...], ...]:
    """G, the distinct cell maps that keep every magic square magic, in blocks of 8.

    Each permutation of 0..x-1 that commutes with i -> x-1-i, put on the rows
    and the columns at once, is followed by each of _Geometry.symmetries: the
    first block is those, and the images under one block are one dihedral class.
    """
    keep = [s for s in permutations(range(x)) if all(s[x - 1 - i] == x - 1 - s[i] for i in range(x))]
    symmetries = _geometry(x).symmetries
    return tuple(dict.fromkeys(tuple(s[k // x] * x + s[k % x] for k in sym) for s in keep for sym in symmetries))


def _least_image_pairs(symmetries, cells) -> list[tuple[int, int]]:
    """The (smaller, larger) cell pairs of a least image, cells read in the given order.

    Per map, repeats dropped: the first cell c it moves and the cell sym[c] it
    reads into c.  The dihedral maps with cells row-major give Frénicle's.
    """
    firsts = [next((c for c in cells if sym[c] != c), None) for sym in symmetries]
    return list(dict.fromkeys((c, sym[c]) for c, sym in zip(firsts, symmetries) if c is not None))


def _oracle_plan(x: int, pairs=None) -> tuple[tuple, ...]:
    """The oracle's steps in fill order: (free cell, beyond, chain) per free cell.

    beyond: the normal form's pairs (Frénicle's unless given) with earlier
    cells, as (other cell, sign) with (value - other value) * sign > 0.  chain:
    the forced cells up to the next free cell, as (cell, den, const, terms,
    coef, beyond) with den * value = const + coef * v + sum(c * value of t for
    c, t in terms), v the step's free value and t free cells of earlier steps.
    Orders 1 and 2 have no free cell; their chain follows the spare cell
    x*x, which takes only the value 0.
    """
    n = x * x
    order = _fill_order(x)
    step = {cell: k for k, cell in enumerate(order)}
    beyond: dict[int, list] = {cell: [] for cell in order}
    if pairs is None:
        pairs = _least_image_pairs(_geometry(x).symmetries, range(n))
    for small, large in pairs:
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


def _times(coef: int, var: str) -> str:
    """coef * var as a term of a sum of generated source, sign first."""
    size = "" if abs(coef) == 1 else f"{abs(coef)} * "
    return f"{'-' if coef < 0 else '+'} {size}{var}"


def _oracle_source(x: int, pairs=None) -> str:
    """The oracle's search as the source of the generator search(): one for loop per free step.

    Cell c's value is the local gc, the values used once step k has placed
    its cells are the bits of uk, and a chained cell c's base (its rule
    without the step's free value v) is bc, computed on entering the step.
    v's loop runs from lok to hik, which start at 1 and x*x (0 and 0 for
    the spare cell) and are raised or lowered by one plain comparison per
    normal-form comparison and chain bound.  Each chained value is
    base + coef*v, divided by den when den is not 1; a remainder, a used
    value or a broken comparison skips to the next v.  Each value's bit is
    built once, tested against the mask and added to it; the first step has
    nothing to test.  The innermost body audits the row-major cells with
    the name _is_magic, raises if they are not magic and yields them.
    Python allows 20 nested loops, so the source compiles up to order 5
    (14 free cells).
    """
    n = x * x
    steps = _oracle_plan(x, pairs)
    lines = ["def search():"]
    used = ""
    for k, (cell, beyond, chain) in enumerate(steps):
        pad = "    " * (k + 1)
        lows, highs = (["1"], [str(n)]) if cell < n else (["0"], ["0"])
        for c, s in beyond:
            if s > 0:
                lows.append(f"g{c} + 1")
            else:
                highs.append(f"g{c} - 1")
        # each chained value is (base + coef*v) / den: keep den <= base + coef*v <= den*n
        for w, den, const, terms, coef, _ in chain:
            lines.append(f"{pad}b{w} = {' '.join([str(const), *(_times(c, f'g{t}') for c, t in terms)])}")
            p, q = (den, den * n) if coef > 0 else (den * n, den)
            if coef in (1, -1):  # the two bounds below, with the division folded
                lows.append(f"{p} - b{w}" if coef > 0 else f"b{w} - {p}")
                highs.append(f"{q} - b{w}" if coef > 0 else f"b{w} - {q}")
            elif coef:
                lows.append(f"-((b{w} - {p}) // {coef})")
                highs.append(f"({q} - b{w}) // {coef}")
            else:
                lines.append(f"{pad}if not {den} <= b{w} <= {den * n}: {'continue' if k else 'return'}")
        lines += [f"{pad}lo{k} = {lows[0]}", *(f"{pad}if {e} > lo{k}: lo{k} = {e}" for e in lows[1:])]
        lines += [f"{pad}hi{k} = {highs[0]}", *(f"{pad}if {e} < hi{k}: hi{k} = {e}" for e in highs[1:])]
        lines.append(f"{pad}for g{cell} in range(lo{k}, hi{k} + 1):")
        pad += "    "
        mask = f"u{k}"
        if used:
            lines += [f"{pad}bit = 1 << g{cell}", f"{pad}if {used} & bit: continue", f"{pad}{mask} = {used} | bit"]
        else:
            lines.append(f"{pad}{mask} = 1 << g{cell}")
        for w, den, _, _, coef, w_beyond in chain:
            num = f"b{w} {_times(coef, f'g{cell}')}" if coef else f"b{w}"
            rejects = [f"{mask} & bit", *(f"g{w} {'<=' if s > 0 else '>='} g{c}" for c, s in w_beyond)]
            if den == 1:
                lines.append(f"{pad}g{w} = {num}")
            else:
                lines.append(f"{pad}g{w}, r = divmod({num}, {den})")
                rejects.insert(0, "r")
            lines += [f"{pad}bit = 1 << g{w}", f"{pad}if {' or '.join(rejects)}: continue", f"{pad}{mask} |= bit"]
        used = mask
    lines += [  # pad is now the innermost loop body's indent
        f"{pad}flat = ({''.join(f'g{c}, ' for c in range(n))})",
        f"{pad}if not _is_magic(flat, {x}):",
        f"{pad}    raise AssertionError(f'oracle found non-magic {{flat}}; forced-cell rules are unsound')",
        f"{pad}yield flat",
    ]
    return "\n".join(lines) + "\n"


def _least_forms(x: int, pairs=None) -> list[tuple[int, ...]]:
    """The forms the oracle's search finds under these pairs (_oracle_plan), as row-major cells."""
    namespace: dict = {"_is_magic": _is_magic}
    exec(compile(_oracle_source(x, pairs), f"<oracle order {x}>", "exec"), namespace)
    return list(namespace["search"]())


def _frenicle_flats(x: int) -> list[tuple[int, ...]]:
    """The Frénicle normal forms as row-major cells: the reference for _oracle_classes."""
    return _least_forms(x)


def _oracle_classes(x: int) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Every order-x magic square by dihedral class, keyed by its audited Frénicle form; see oracle_search."""
    _check_order(x)
    if x > ORACLE_MAX_ORDER:
        raise ValueError(f"exhaustive search is capped at order {ORACLE_MAX_ORDER}, got {_brief(x)}")
    group = _symmetry_group(x)
    pickers = [_picker(sym) for sym in group]
    classes: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for form in _least_forms(x, _least_image_pairs(group, _fill_order(x))):
        for block in range(0, len(group), 8):
            members = {pick(form) for pick in pickers[block:block + 8]}
            key = min(members)
            if key in classes:
                raise AssertionError(f"oracle class key {key} found twice; the normal form is not unique")
            if not _is_magic(key, x):
                raise AssertionError(f"oracle class key {key} is not magic; the symmetry group is unsound")
            classes[key] = members
    return classes


def _oracle_flats(x: int) -> set[tuple[int, ...]]:
    """Row-major cells of every order-x magic square; see oracle_search."""
    return set().union(*_oracle_classes(x).values())


def oracle_search(x: int) -> set[Square]:
    """Every order-x magic square over 1..x*x, by exhaustive backtracking.

    G (_symmetry_group) keeps every magic square magic: at order 4 its 32 maps
    split the 7,040 squares into 220 orbits of 32.  The search finds each
    orbit's least image, cells read in fill order (_least_image_pairs).  The
    cells are filled corners first, then diagonals.  _forced_cells reduces the
    2x+2 line equations with model._rref; each row fixes one cell from free
    cells filled before it (9 of 16 at order 4).  _oracle_source writes the
    search out as one nested for loop per free cell (7 at order 4), compiled
    on each call; each forced cell up to the next free cell is computed
    inline, linear in the newest free value v: v's range keeps them in 1..x*x,
    and a v is skipped when one is not an integer, repeats a value or breaks a
    comparison.  No line sums are tracked: the rules span the line equations,
    so distinct values in 1..x*x that meet them form a magic square, and every
    magic square meets them.  The search yields each form once
    verify._is_magic has audited it (220 after 4,797 loop entries at order 4;
    Frénicle's 880 take 35,361).  Each block of G maps a form to a dihedral
    class, keyed by its least member, the Frénicle form; every key is audited
    too, and one found twice raises.  Orders above 4 fail.
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
    order = construct.magic_figure(family_id, variant).order
    oracle = set(_check_items(oracle, Square, "oracle square"))
    other = next((square.order for square in oracle if square.order != order), None)
    if other is not None:
        raise ValueError(f"family {family_id} has order {order}, oracle squares have order {other}")
    missing = tuple(square for square in enumerate_family(family_id, variant=variant) if square not in oracle)
    return SubsetReport(ok=not missing, missing=missing)
