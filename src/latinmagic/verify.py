"""Line-sum and pair-uniqueness audits for squares and letter grids.

A square of order x has 2x+2 lines: x rows, x columns, the main diagonal
(top-left to bottom-right) and the anti diagonal (top-right to bottom-left).
Magic means every line hits the expected sum and the cells are a bijection
onto 1..x*x; SemiMagic keeps rows and columns right but misses at least one
diagonal.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter

from .model import (
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    _Record,
    _brief,
    _check_instance,
    _check_integer,
    _check_member,
    _check_order,
    _check_sequence,
    magic_constant,
)


class LineKind(Enum):
    ROW = "row"
    COLUMN = "column"
    MAIN_DIAGONAL = "main diagonal"
    ANTI_DIAGONAL = "anti diagonal"


_DIAGONALS = (LineKind.MAIN_DIAGONAL, LineKind.ANTI_DIAGONAL)


class Axis(Enum):
    """Mirror axis used to derive a Greek component from a Latin one."""

    MIDDLE_COLUMN = "middle column"
    MIDDLE_ROW = "middle row"
    MAIN_DIAGONAL = "main diagonal"
    ANTI_DIAGONAL = "anti diagonal"


class LineId(_Record):
    """One of the 2x+2 lines of an order-x square; a diagonal's index is 0."""

    kind: LineKind
    index: int = 0

    def _post_init(self) -> None:
        _check_member(self.kind, LineKind, "kind")
        _check_integer(self.index, "line index")
        if self.kind in _DIAGONALS and self.index != 0:
            raise ValueError(f"{self.kind.value} index must be 0, got {_brief(self.index)}")

    def __str__(self) -> str:
        if self.kind in (LineKind.ROW, LineKind.COLUMN):
            return f"{self.kind.value} {_brief(self.index)}"
        return self.kind.value


class Verdict(Enum):
    MAGIC = "Magic"
    SEMI_MAGIC = "SemiMagic"
    NOT_MAGIC = "NotMagic"


def all_lines(x: int) -> tuple[LineId, ...]:
    """Rows first, then columns, then the two diagonals."""
    _check_order(x)
    return _geometry(x).line_ids


def line_positions(line: LineId, x: int) -> tuple[tuple[int, int], ...]:
    """Row-major cell positions belonging to the given line."""
    _check_instance(line, LineId, "line")
    _check_order(x)
    if line.kind in (LineKind.ROW, LineKind.COLUMN) and not 0 <= line.index < x:
        raise ValueError(f"line index {_brief(line.index)} outside 0..{_brief(x - 1)}")
    if line.kind is LineKind.ROW:
        return tuple((line.index, j) for j in range(x))
    if line.kind is LineKind.COLUMN:
        return tuple((i, line.index) for i in range(x))
    if line.kind is LineKind.MAIN_DIAGONAL:
        return tuple((i, i) for i in range(x))
    return tuple((i, x - 1 - i) for i in range(x))


_Pick = Callable[[Sequence[int]], tuple[int, ...]]


def _picker(indices: tuple[int, ...]) -> _Pick:
    """The items at these indices, always as a tuple.

    itemgetter with a single index returns the bare item, so order 1 (and
    the empty grid) needs its own case.
    """
    if len(indices) < 2:
        return lambda flat: tuple(flat[k] for k in indices)
    return itemgetter(*indices)


class _Geometry:
    """The lines and symmetries of an order-x grid over flat cells i*x + j.

    line_ids: all_lines(x).
    lines: the same lines as flat indices; line_pickers read them.
    symmetries: the eight rotations and reflections in dihedral_images
    order, each as the source cell of every image cell; a figure's
    automorphisms are chosen from them.  symmetry_pickers apply them to
    flat cells.
    mirrors: the reflection across each Axis, as one of the symmetries.
    corners: the four corner cells (top-left, top-right, bottom-left,
    bottom-right), which the oracle fills first.
    audit_text: the audit as one expression over named cells; is_magic:
    it compiled over a tuple.

    Only the lines and corners are built with the table; the symmetries,
    mirrors, their pickers and the audit are built on first use, since
    verify_magic reads the table at any order and never reads them: eight
    tables of x*x indices cost about half of verify_magic's time and
    memory on a large square.
    """

    def __init__(self, x: int) -> None:
        self.order = x
        self.line_ids = (
            tuple(LineId(LineKind.ROW, i) for i in range(x))
            + tuple(LineId(LineKind.COLUMN, j) for j in range(x))
            + (LineId(LineKind.MAIN_DIAGONAL), LineId(LineKind.ANTI_DIAGONAL))
        )
        self.lines = tuple(
            tuple(i * x + j for i, j in line_positions(line, x))
            for line in self.line_ids
        )
        self.line_pickers = tuple(map(_picker, self.lines))
        self.corners = (0, x - 1, x * x - x, x * x - 1)

    @cached_property
    def symmetries(self) -> tuple[tuple[int, ...], ...]:
        x = self.order
        # cell (i, j) of a clockwise quarter turn comes from cell (x-1-j, i),
        # and of a left-right flip from cell (i, x-1-j)
        turn = tuple((x - 1 - j) * x + i for i in range(x) for j in range(x))
        flip = tuple(i * x + x - 1 - j for i in range(x) for j in range(x))
        # each symmetry as the source cell of every image cell
        symmetries = []
        current = tuple(range(x * x))
        for _ in range(4):
            symmetries.append(current)
            symmetries.append(tuple(current[k] for k in flip))
            current = tuple(current[k] for k in turn)
        return tuple(symmetries)

    @cached_property
    def symmetry_pickers(self) -> tuple[_Pick, ...]:
        return tuple(map(_picker, self.symmetries))

    @cached_property
    def mirrors(self) -> dict[Axis, tuple[int, ...]]:
        return dict(zip(
            (Axis.MIDDLE_COLUMN, Axis.MAIN_DIAGONAL, Axis.MIDDLE_ROW, Axis.ANTI_DIAGONAL),
            self.symmetries[1::2],
        ))

    def audit_text(self, cells: Sequence[str], flat: str) -> str:
        """The magic test as one expression: every line sum, then the values.

        cells[k] is the text of cell k and flat that of the row-major cells;
        the values 1..x*x are read from the name values.  For example
        f[0]+f[1]+f[2] == 15 and ... and sorted(f) == values at order 3.
        is_magic and the enumeration's figure builders run this one text.
        """
        sums = " and ".join(
            f"{'+'.join(cells[k] for k in line)} == {magic_constant(self.order)}"
            for line in self.lines
        )
        return f"{sums} and sorted({flat}) == values"

    @cached_property
    def is_magic(self) -> Callable[[Sequence[int]], bool]:
        """audit_text over f[k] as a function of the row-major cells f.

        With its 2x*x + 2x terms it takes 0.16 s to compile at order 100,
        so it is built on the first audit of an order, not with the table,
        which verify_magic reads at any order.
        """
        n = self.order * self.order
        test = self.audit_text([f"f[{k}]" for k in range(n)], "f")
        return eval(f"lambda f: {test}", {"values": list(range(1, n + 1))})


@lru_cache(maxsize=None)
def _geometry(x: int) -> _Geometry:
    """The order-x table, built once per order; it holds indices only."""
    return _Geometry(x)


def _flat(cells: Sequence[Sequence[int]]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(cells))


def _unflat(flat: tuple[int, ...], x: int) -> tuple[tuple[int, ...], ...]:
    return tuple(flat[k:k + x] for k in range(0, x * x, x))


def _grouped(keyed: Iterable[tuple]) -> dict:
    """(key, item) pairs as {key: [items]}, with keys and each key's items in first-seen order."""
    groups: dict = {}
    for key, item in keyed:
        groups.setdefault(key, []).append(item)
    return groups


def _repeats(keyed: Iterable[tuple]) -> tuple[tuple, ...]:
    """Every key held at two or more positions, as (key, positions), in key order."""
    return tuple((key, tuple(at)) for key, at in sorted(_grouped(keyed).items()) if len(at) > 1)


def line_sums(square: Square) -> dict[LineId, int]:
    """Sum of every line of the square, keyed by line."""
    _check_instance(square, Square, "square")
    geometry = _geometry(square.order)
    flat = _flat(square.cells)
    return {
        line: sum(pick(flat))
        for line, pick in zip(geometry.line_ids, geometry.line_pickers)
    }


class VerificationReport(_Record):
    order: int
    expected_sum: int
    line_sums: dict[LineId, int]
    bijection_ok: bool
    duplicate_values: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    violations: tuple[LineId, ...]
    verdict: Verdict


def verify_magic(square: Square) -> VerificationReport:
    """Audit an arbitrary integer square against the order-x magic contract.

    The expected sum is always magic_constant(x) for the square's own order;
    input values are not assumed to lie in 1..x*x, they are just checked.
    """
    _check_instance(square, Square, "square")
    x = square.order
    expected = magic_constant(x)
    sums = line_sums(square)
    violations = tuple(line for line, s in sums.items() if s != expected)
    rows_cols_ok = all(line.kind in _DIAGONALS for line in violations)

    flat = _flat(square.cells)
    bijection_ok = sorted(flat) == list(range(1, x * x + 1))
    duplicates = () if bijection_ok else _repeats((v, divmod(k, x)) for k, v in enumerate(flat))

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


def _is_magic(flat: tuple[int, ...], x: int) -> bool:
    """verify_magic's MAGIC verdict for row-major cells, without the report.

    Every line sums to magic_constant(x) and the sorted cells are 1..x*x.
    The line sums are one expression per order, compiled from the
    geometry's line indices on the order's first audit (_Geometry.is_magic).
    """
    return _geometry(x).is_magic(flat)


class RepeatReport(_Record):
    """Lines of a component grid that repeat a symbol, with multiplicities."""

    ok: bool
    repeats: tuple[tuple[LineId, SymbolId, int], ...]


def verify_latin(grid: SymbolGrid, include_diagonals: bool = False) -> RepeatReport:
    """Report symbols appearing two or more times in any row or column.

    With include_diagonals=True the two diagonals are audited as well; the
    construction rules deliberately allow repeats there, so the caller picks.
    """
    _check_instance(grid, SymbolGrid, "grid")
    geometry = _geometry(grid.order)
    flat = _flat(grid.cells)
    # rows and columns come first, the two diagonals last
    audited = len(geometry.lines) if include_diagonals else 2 * grid.order
    repeats: list[tuple[LineId, SymbolId, int]] = []
    for line, indices in zip(geometry.line_ids[:audited], geometry.lines):
        for index, places in _repeats((flat[k], k) for k in indices):
            repeats.append((line, SymbolId(grid.role, index), len(places)))
    return RepeatReport(ok=not repeats, repeats=tuple(repeats))


class OrthogonalityReport(_Record):
    """Whether every (latin, greek) pair occurs exactly once in a pair grid."""

    ok: bool
    duplicate_pairs: tuple[
        tuple[tuple[int, int], tuple[tuple[int, int], ...]], ...
    ]
    missing_pairs: tuple[tuple[int, int], ...]


def verify_orthogonality(pairs: SuperposedGrid) -> OrthogonalityReport:
    """Check pair uniqueness; duplicates come with their cell positions."""
    _check_instance(pairs, SuperposedGrid, "pairs")
    x = pairs.order
    flat = _flat(pairs.cells)
    duplicates = _repeats((pair, divmod(k, x)) for k, pair in enumerate(flat))
    seen = set(flat)
    missing = tuple(
        (l, g)
        for l in range(x)
        for g in range(x)
        if (l, g) not in seen
    )
    return OrthogonalityReport(
        ok=not duplicates and not missing,
        duplicate_pairs=duplicates,
        missing_pairs=missing,
    )


class OrthogonalityError(ValueError):
    """A figure repeats some letter pair, so no assignment can be magic."""

    def __init__(self, report: OrthogonalityReport):
        self.report = report
        dups = ", ".join(
            f"{pair_name(pair)} at {', '.join(map(str, places))}"
            for pair, places in report.duplicate_pairs
        )
        super().__init__(f"figure repeats letter pairs: {dups}, so it is not enumerable")


def pair_name(pair: tuple[int, int]) -> str:
    """Compact letter form of a (latin, greek) index pair, e.g. 'bβ'."""
    pair = _check_sequence(pair, "pair")
    if len(pair) != 2:
        raise ValueError(f"pair must hold a latin and a greek index, got {_brief(pair)}")
    return (
        SymbolId(Role.LATIN, pair[0]).letter
        + SymbolId(Role.GREEK, pair[1]).letter
    )
