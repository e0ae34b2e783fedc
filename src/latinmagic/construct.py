"""Figure families, reflection and rotation rules, and line constraints.

Each family is a grid of letter pairs whose rows and columns already sum
correctly for every value assignment; lines that repeat letters force linear
conditions on the letter values.  Solving those conditions and evaluating
the figure yields magic squares.
"""
from __future__ import annotations

import itertools

from .model import (
    GREEK_LETTERS,
    LATIN_LETTERS,
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    ValueAssignment,
    _primitive,
    _Record,
    _brief,
    _check_instance,
    _check_integer,
    _check_integers,
    _check_items,
    _check_member,
    _check_sequence,
    _reduce,
    _rref,
    evaluate,
    superpose,
)
from .verify import (
    Axis,
    OrthogonalityError,
    _flat,
    _geometry,
    _grouped,
    _unflat,
    verify_orthogonality,
)

MAX_SOLVE_ORDER = 6


class MirrorConflictError(ValueError):
    """Two cells that mirror each other hold the same Latin letter."""

    def __init__(self, axis, first, second, letter):
        self.axis = axis
        self.first = first
        self.second = second
        self.letter = letter
        super().__init__(
            f"cells {first} and {second} mirror across the {axis.value} "
            f"but both hold '{letter}'"
        )


class ConstraintViolationError(ValueError):
    """A value assignment breaks one of a figure's line constraints."""

    def __init__(self, constraint, assignment):
        self.constraint = constraint
        self.assignment = assignment
        super().__init__(f"assignment violates line constraint: {constraint}")


def reflect_greek(latin: SymbolGrid, axis: Axis) -> SymbolGrid:
    """Derive the Greek component by mirroring the Latin one.

    A cell on the axis keeps its own Latin letter's index; any other cell
    takes the index of the Latin letter at its mirror image.  Requires every
    off-axis mirror pair to hold two different Latin letters, otherwise the
    superposed figure would repeat a doubled pair.
    """
    _check_instance(latin, SymbolGrid, "latin")
    _check_member(axis, Axis, "axis")
    if latin.role is not Role.LATIN:
        raise ValueError("reflect_greek expects a latin component")
    x = latin.order
    if axis in (Axis.MIDDLE_COLUMN, Axis.MIDDLE_ROW) and x % 2 == 0:
        raise ValueError(f"{axis.value} axis needs an odd order, got {x}")
    mirror = _geometry(x).mirrors[axis]
    flat = _flat(latin.cells)
    for k, m in enumerate(mirror):
        if k < m and flat[k] == flat[m]:
            letter = SymbolId(Role.LATIN, flat[k]).letter
            raise MirrorConflictError(axis, divmod(k, x), divmod(m, x), letter)
    return SymbolGrid(Role.GREEK, _unflat(tuple(flat[m] for m in mirror), x))


def rotate_lines(grid: SuperposedGrid, axis: str, shift: int) -> SuperposedGrid:
    """Cyclically shift whole columns or rows.

    axis is "columns" or "rows".  A shift of -1 moves the first column (or
    row) to the far end; +1 moves the last one to the front.
    """
    _check_instance(grid, SuperposedGrid, "grid")
    if axis not in ("columns", "rows"):
        raise ValueError(f"axis must be 'columns' or 'rows', got {_brief(axis)}")
    _check_integer(shift, "shift")
    x = grid.order
    shift %= x
    if axis == "columns":
        cells = tuple(
            tuple(row[(j - shift) % x] for j in range(x)) for row in grid.cells
        )
    else:
        cells = tuple(grid.cells[(i - shift) % x] for i in range(x))
    return SuperposedGrid(cells)


class LinearConstraint(_Record):
    """A linear condition on letter values: sum of coeff * value == 0.

    Coefficients are integers listed per alphabet in letter order.  Within
    each alphabet they sum to zero, because they arise as letter
    multiplicities of an x-cell line minus one each.
    """

    latin: tuple[int, ...]
    greek: tuple[int, ...]

    def _post_init(self) -> None:
        latin = _check_sequence(self.latin, "latin coefficients")
        greek = _check_sequence(self.greek, "greek coefficients")
        self.__dict__.update(latin=latin, greek=greek)
        _check_integers(latin, "latin coefficient")
        _check_integers(greek, "greek coefficient")
        if len(latin) != len(greek):
            raise ValueError("latin and greek coefficient lists differ in length")
        if not latin:
            raise ValueError("constraint must cover at least one letter")
        if sum(latin) != 0 or sum(greek) != 0:
            raise ValueError("coefficients must sum to zero within each alphabet")
        if not any(latin) and not any(greek):
            raise ValueError("constraint must have a nonzero coefficient")

    @property
    def order(self) -> int:
        return len(self.latin)

    def vector(self) -> tuple[int, ...]:
        return self.latin + self.greek

    def is_coupled(self) -> bool:
        return any(self.latin) and any(self.greek)

    def latin_side(self) -> "LinearConstraint":
        return LinearConstraint(self.latin, (0,) * self.order)

    def greek_side(self) -> "LinearConstraint":
        return LinearConstraint((0,) * self.order, self.greek)

    def canonical_key(self) -> tuple[int, ...]:
        """Sign- and scale-normalized vector; equal keys mean equal conditions."""
        return _primitive(self.vector())

    def residual(self, assignment: ValueAssignment) -> int:
        return sum(
            c * v for c, v in zip(self.latin, assignment.latin_values)
        ) + sum(c * v for c, v in zip(self.greek, assignment.greek_values))

    def holds(self, assignment: ValueAssignment) -> bool:
        return self.residual(assignment) == 0

    def __str__(self) -> str:
        left: list[str] = []
        right: list[str] = []
        for role, coeffs in ((Role.LATIN, self.latin), (Role.GREEK, self.greek)):
            for index, coeff in enumerate(coeffs):
                if coeff == 0:
                    continue
                letter = SymbolId(role, index).letter
                term = letter if abs(coeff) == 1 else f"{abs(coeff)}{letter}"
                (left if coeff > 0 else right).append(term)
        return f"{'+'.join(left)} = {'+'.join(right)}"


def constraint_system_basis(
    constraints,
) -> tuple[LinearConstraint, ...]:
    """Canonical basis of a constraint system, for equivalence comparisons.

    Two systems constrain assignments identically exactly when their bases
    are equal.  Rows come out with integer coefficients, positive leading
    coefficient, sorted by leading position.
    """
    constraints = _check_items(constraints, LinearConstraint, "constraint")
    if not constraints:
        return ()
    x = constraints[0].order
    for c in constraints:
        if c.order != x:
            raise ValueError("constraints mix different orders")
    basis, _pivots = _rref(c.vector() for c in constraints)
    return tuple(LinearConstraint(row[:x], row[x:]) for row in basis)


def equivalent_systems(first, second) -> bool:
    """True when two constraint sets admit exactly the same assignments."""
    return constraint_system_basis(first) == constraint_system_basis(second)


def diagonal_constraints(pairs: SuperposedGrid) -> tuple[LinearConstraint, ...]:
    """Extract the value conditions imposed by lines with repeated letters.

    Every line must sum to the total of all Latin plus all Greek values, so
    a line whose letter multiset deviates from one-of-each forces a linear
    condition (multiplicity minus one per letter).  Lines are scanned in
    row, column, diagonal order; duplicates collapse to the first form seen.
    A condition that couples both alphabets is split into its per-alphabet
    halves when the system already implies each half separately.
    """
    _check_instance(pairs, SuperposedGrid, "pairs")
    x = pairs.order
    flat = _flat(pairs.cells)
    raw: list[LinearConstraint] = []
    for line in _geometry(x).lines:
        latin_count = [0] * x
        greek_count = [0] * x
        for k in line:
            l, g = flat[k]
            latin_count[l] += 1
            greek_count[g] += 1
        latin = tuple(c - 1 for c in latin_count)
        greek = tuple(c - 1 for c in greek_count)
        if not any(latin) and not any(greek):
            continue
        raw.append(LinearConstraint(latin, greek))

    basis, pivots = _rref(c.vector() for c in raw)
    # each condition by its canonical key, in first-seen order
    out: dict[tuple[int, ...], LinearConstraint] = {}
    for constraint in raw:
        parts = [constraint]
        if constraint.is_coupled() and not any(
            _reduce(constraint.latin_side().vector(), basis, pivots)
        ):
            parts = [constraint.latin_side(), constraint.greek_side()]
        for part in parts:
            out.setdefault(part.canonical_key(), part)
    return tuple(out.values())


def solve_assignments(constraints, x: int):
    """Yield every ValueAssignment of order x satisfying all constraints.

    Enumerates the full permutation space, so x is capped at
    MAX_SOLVE_ORDER.  Output order is lexicographic over the pair
    (latin value tuple, greek value tuple).
    """
    return itertools.starmap(ValueAssignment, _solve_values(constraints, x))


def _solve_values(constraints, x: int):
    """The (latin values, greek values) tuple pairs of solve_assignments, in its order."""
    _check_integer(x, "order")
    if not 1 <= x <= MAX_SOLVE_ORDER:
        raise ValueError(
            f"assignment enumeration is capped at order {MAX_SOLVE_ORDER}, got {_brief(x)}"
        )
    constraints = _check_items(constraints, LinearConstraint, "constraint")
    for c in constraints:
        if c.order != x:
            raise ValueError(
                f"constraint order {c.order} does not match requested order {x}"
            )
    latin_domain = tuple(i * x for i in range(x))
    greek_domain = tuple(range(1, x + 1))

    # A pair satisfies a constraint when the latin part's contribution is
    # the exact negative of the greek part's, so bucket greek permutations
    # by their contribution vector and look latin ones up against it.
    buckets = _grouped(
        (tuple(sum(c * v for c, v in zip(constraint.greek, greek)) for constraint in constraints), greek)
        for greek in itertools.permutations(greek_domain)
    )
    for latin in itertools.permutations(latin_domain):
        need = tuple(
            -sum(c * v for c, v in zip(constraint.latin, latin))
            for constraint in constraints
        )
        for greek in buckets.get(need, ()):
            yield latin, greek


# --- figure families -------------------------------------------------------

def _letter_grid(text: str, read) -> tuple[tuple, ...]:
    """The rows of whitespace-separated tokens written in text, each token as read(token)."""
    return tuple(tuple(map(read, line.split())) for line in text.strip().splitlines())


def _pair_grid(text: str) -> SuperposedGrid:
    return SuperposedGrid(_letter_grid(text, lambda token: (LATIN_LETTERS.index(token[0]), GREEK_LETTERS.index(token[1]))))


def _mirrored(text: str, axis: Axis) -> SuperposedGrid:
    """The Latin grid written in text, superposed on its own mirror image as the Greek part."""
    latin = SymbolGrid(Role.LATIN, _letter_grid(text, LATIN_LETTERS.index))
    return superpose(latin, reflect_greek(latin, axis))


def _shifted(figure: SuperposedGrid) -> SuperposedGrid:
    """A figure with its first column moved to the end."""
    return rotate_lines(figure, "columns", -1)


_E3_REFLECT = _mirrored("""
a b c
b c a
c a b
""", Axis.MIDDLE_COLUMN)

_E4_DIAG = _mirrored("""
a b c d
d c b a
b a d c
c d a b
""", Axis.MAIN_DIAGONAL)

# The only other order-4 arrangement with both diagonals complete once the
# first row is fixed: the main diagonal runs a, d, b, c instead of a, c, d, b.
_E4_DIAG_D = _mirrored("""
a b c d
c d a b
d c b a
b a d c
""", Axis.MAIN_DIAGONAL)

_E4_BLOCK = _mirrored("""
a a d d
d d a a
b b c c
c c b b
""", Axis.MAIN_DIAGONAL)

_E4_INTERLEAVE = _mirrored("""
a d a d
b c b c
d a d a
c b c b
""", Axis.MAIN_DIAGONAL)

_E5_DIAG = _mirrored("""
a b c d e
e c d a b
d e b c a
b d a e c
c a e b d
""", Axis.MIDDLE_COLUMN)

_E5_CENTER = _mirrored("""
c d e a b
b c d e a
a b c d e
e a b c d
d e a b c
""", Axis.MIDDLE_ROW)

_E6_PAIRED = _pair_grid("""
aα aζ aβ fε fγ fδ
fα fζ fβ aε aγ aδ
bα bζ bβ eε eγ eδ
eζ eα eε bβ bδ bγ
cζ cα cε dβ dδ dγ
dζ dα dε cβ cδ cγ
""")

_EDITOR_CELLS = (
    (3, 36, 30, 4, 11, 27),
    (22, 13, 35, 12, 14, 15),
    (16, 18, 8, 31, 17, 21),
    (28, 20, 6, 29, 19, 9),
    (32, 23, 25, 2, 24, 5),
    (10, 1, 7, 33, 26, 34),
)


class Family(_Record):
    """A named family: id, order, summary and variant -> figure ({} if fixed).

    Families compare by all four fields and hash by the first three.
    """

    family_id: str
    order: int
    summary: str
    figures: dict[str, SuperposedGrid] = None

    def _post_init(self) -> None:
        if self.figures is None:
            self.__dict__["figures"] = {}

    def __hash__(self) -> int:
        return hash((self.family_id, self.order, self.summary))


FAMILIES: dict[str, Family] = {
    f.family_id: f
    for f in (
        Family("e3.reflect", 3, "Greek part mirrors the Latin part across the middle column", {"c": _E3_REFLECT}),
        Family("e3.rotated", 3, "e3.reflect with its first column moved to the end", {"c": _shifted(_E3_REFLECT)}),
        Family("e4.diag", 4, "both diagonals complete; mirrored across the main diagonal (variants c and d)", {"c": _E4_DIAG, "d": _E4_DIAG_D}),
        Family("e4.rotated", 4, "e4.diag with its first column moved to the end", {"c": _shifted(_E4_DIAG)}),
        Family("e4.block", 4, "rows pair two letters; mirrored across the main diagonal", {"c": _E4_BLOCK}),
        Family("e4.interleave", 4, "rows alternate two letters; mirrored across the main diagonal", {"c": _E4_INTERLEAVE}),
        Family("e5.diag", 5, "both diagonals complete; mirrored across the middle column", {"c": _E5_DIAG}),
        Family("e5.rotated", 5, "e5.diag with its first column moved to the end", {"c": _shifted(_E5_DIAG)}),
        Family("e5.center", 5, "main diagonal repeats one letter; mirrored across the middle row", {"c": _E5_CENTER}),
        Family("e6.paired", 6, "letters paired by rows and columns; repeats two pairs, kept as a negative fixture", {"c": _E6_PAIRED}),
        Family("e6.editor", 6, "one fixed order-6 magic square with no free letter values"),
    )
}


def family_figure(family_id: str, variant: str = "c") -> SuperposedGrid:
    """The lettered pair grid of one variant of a family."""
    # an id or variant that is not a str is unknown, though it may not hash
    family = FAMILIES.get(family_id) if isinstance(family_id, str) else None
    if family is None:
        known = ", ".join(FAMILIES)
        raise ValueError(f"unknown family {_brief(family_id)} (known: {known})")
    if not family.figures:
        raise ValueError(
            f"{family_id} is a fixed square, not enumerable; use gen without "
            "letter values or variant, or editor_square()"
        )
    if not isinstance(variant, str) or variant not in family.figures:
        raise ValueError(
            f"variant {_brief(variant)} does not apply to {family_id} "
            f"(variants: {', '.join(family.figures)})"
        )
    return family.figures[variant]


def magic_figure(family_id: str, variant: str = "c") -> SuperposedGrid:
    """family_figure, raising OrthogonalityError if it repeats a letter pair."""
    figure = family_figure(family_id, variant)
    orth = verify_orthogonality(figure)
    if not orth.ok:
        raise OrthogonalityError(orth)
    return figure


def editor_square() -> Square:
    """The fixed order-6 square attached to the e6.editor family."""
    return Square(_EDITOR_CELLS)


def build_square(
    family_id: str, assignment: ValueAssignment, variant: str = "c"
) -> Square:
    """Evaluate a family figure under an assignment, checking preconditions.

    The figure must use each letter pair exactly once (see magic_figure)
    and the assignment must satisfy every line constraint of the figure.
    """
    _check_instance(assignment, ValueAssignment, "assignment")
    figure = magic_figure(family_id, variant)
    if figure.order != assignment.order:
        raise ValueError(
            f"family {family_id} has order {figure.order}, assignment has "
            f"order {assignment.order}"
        )
    for constraint in diagonal_constraints(figure):
        if not constraint.holds(assignment):
            raise ConstraintViolationError(constraint, assignment)
    return evaluate(figure, assignment)
