"""Audits: line sums, magic verdicts, letter repeats, pair uniqueness."""
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latinmagic import (
    LineId,
    LineKind,
    OrthogonalityReport,
    RepeatReport,
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    ValueAssignment,
    Verdict,
    all_lines,
    canonicalize,
    dihedral_images,
    evaluate,
    line_positions,
    line_sums,
    magic_constant,
    pair_name,
    verify_latin,
    verify_magic,
    verify_orthogonality,
)
from latinmagic.verify import _flat, _geometry, _grouped, _is_magic, _repeats
from helpers import (
    FIGURES,
    GOLDENS,
    LATIN_3,
    letter_grid,
    pair_grid,
    reference_verify_magic,
)

LO_SHU = Square(((2, 9, 4), (7, 5, 3), (6, 1, 8)))


def test_all_lines_counts_and_order():
    for x in (1, 3, 5):
        lines = all_lines(x)
        assert len(lines) == 2 * x + 2
        assert lines[0] == LineId(LineKind.ROW, 0)
        assert lines[x] == LineId(LineKind.COLUMN, 0)
        assert lines[-2] == LineId(LineKind.MAIN_DIAGONAL)
        assert lines[-1] == LineId(LineKind.ANTI_DIAGONAL)
    with pytest.raises(ValueError):
        all_lines(0)


def test_line_id_names():
    assert str(LineId(LineKind.ROW, 0)) == "row 0"
    assert str(LineId(LineKind.COLUMN, 2)) == "column 2"
    assert str(LineId(LineKind.MAIN_DIAGONAL)) == "main diagonal"
    assert str(LineId(LineKind.ANTI_DIAGONAL)) == "anti diagonal"


def test_line_positions():
    assert line_positions(LineId(LineKind.ROW, 1), 3) == ((1, 0), (1, 1), (1, 2))
    assert line_positions(LineId(LineKind.COLUMN, 2), 3) == ((0, 2), (1, 2), (2, 2))
    assert line_positions(LineId(LineKind.MAIN_DIAGONAL), 3) == ((0, 0), (1, 1), (2, 2))
    assert line_positions(LineId(LineKind.ANTI_DIAGONAL), 3) == ((0, 2), (1, 1), (2, 0))
    with pytest.raises(ValueError):
        line_positions(LineId(LineKind.ROW, 3), 3)


def test_line_sums_of_reference_square():
    sums = line_sums(LO_SHU)
    assert set(sums.values()) == {15}
    assert len(sums) == 8


def test_line_sums_of_single_cell():
    sums = line_sums(Square(((7,),)))
    assert all(s == 7 for s in sums.values())
    assert len(sums) == 4


def test_goldens_verify_magic():
    for golden in GOLDENS:
        report = verify_magic(golden.square())
        assert report.verdict is Verdict.MAGIC, golden.file
        assert report.expected_sum == golden.expected_sum
        assert report.bijection_ok
        assert report.violations == ()
        assert report.duplicate_values == ()


def test_swapped_cells_break_columns_and_diagonal():
    report = verify_magic(Square(((9, 2, 4), (7, 5, 3), (6, 1, 8))))
    assert report.verdict is Verdict.NOT_MAGIC
    assert report.bijection_ok
    assert set(report.violations) == {
        LineId(LineKind.COLUMN, 0),
        LineId(LineKind.COLUMN, 1),
        LineId(LineKind.MAIN_DIAGONAL),
    }
    assert report.line_sums[LineId(LineKind.COLUMN, 0)] == 22
    assert report.line_sums[LineId(LineKind.MAIN_DIAGONAL)] == 22


def test_semi_magic_keeps_rows_and_columns():
    # the cyclically shifted order-3 figure under the reflected family's
    # values: every row and column sums to 15 but both diagonals miss
    square = evaluate(
        pair_grid(FIGURES["e3.rotated"]),
        ValueAssignment((0, 6, 3), (1, 3, 2)),
    )
    report = verify_magic(square)
    assert report.verdict is Verdict.SEMI_MAGIC
    assert report.bijection_ok
    assert set(report.violations) == {
        LineId(LineKind.MAIN_DIAGONAL),
        LineId(LineKind.ANTI_DIAGONAL),
    }
    assert report.line_sums[LineId(LineKind.MAIN_DIAGONAL)] == 18
    assert report.line_sums[LineId(LineKind.ANTI_DIAGONAL)] == 6


def test_constant_square_sums_right_but_is_not_magic():
    report = verify_magic(Square(tuple((5,) * 3 for _ in range(3))))
    assert report.violations == ()
    assert not report.bijection_ok
    assert report.verdict is Verdict.NOT_MAGIC


def test_duplicate_values_carry_positions():
    report = verify_magic(Square(((2, 9, 4), (7, 5, 3), (6, 1, 4))))
    assert not report.bijection_ok
    assert report.duplicate_values == ((4, ((0, 2), (2, 2))),)
    assert report.verdict is Verdict.NOT_MAGIC


def test_expected_sum_always_tracks_order():
    for x in (1, 2, 3, 4, 5, 6):
        square = Square(tuple(tuple(0 for _ in range(x)) for _ in range(x)))
        assert verify_magic(square).expected_sum == magic_constant(x)


@pytest.mark.parametrize("audit", [verify_magic, line_sums, canonicalize])
@pytest.mark.parametrize("value, shown", [
    (None, "None"),
    (((2, 9, 4), (7, 5, 3), (6, 1, 8)), "((2, 9, 4), (7, 5, 3), (6, 1, 8))"),
    (letter_grid(Role.LATIN, LATIN_3), "SymbolGrid(role=... 0), (2, 0, 1)))"),
], ids=["None", "rows", "SymbolGrid"])
def test_square_audits_refuse_anything_but_a_square(audit, value, shown):
    with pytest.raises(ValueError) as info:
        audit(value)
    assert str(info.value) == f"square must be a Square, got {shown}"


def test_verify_latin_rows_and_columns():
    grid = letter_grid(Role.LATIN, LATIN_3)
    report = verify_latin(grid)
    assert report.ok
    assert report.repeats == ()


def test_verify_latin_sees_diagonal_repeats_when_asked():
    grid = letter_grid(Role.LATIN, LATIN_3)
    report = verify_latin(grid, include_diagonals=True)
    assert not report.ok
    assert report.repeats == (
        (LineId(LineKind.ANTI_DIAGONAL), SymbolId(Role.LATIN, 2), 3),
    )


def test_verify_latin_full_for_complete_diagonal_grid():
    grid = pair_grid(FIGURES["e4.diag"]).latin_component()
    assert verify_latin(grid, include_diagonals=True).ok


def test_verify_latin_reports_row_repeats():
    grid = letter_grid(Role.LATIN, "a a\nb b")
    report = verify_latin(grid)
    assert not report.ok
    kinds = {line.kind for (line, _, _) in report.repeats}
    assert kinds == {LineKind.ROW}
    assert all(count == 2 for (_, _, count) in report.repeats)


def test_orthogonality_of_complete_pair_grid():
    report = verify_orthogonality(pair_grid(FIGURES["e4.diag"]))
    assert report.ok
    assert report.duplicate_pairs == ()
    assert report.missing_pairs == ()


def test_orthogonality_failure_lists_duplicates_and_gaps():
    report = verify_orthogonality(pair_grid(FIGURES["e6.paired"]))
    assert not report.ok
    assert report.duplicate_pairs == (
        ((1, 1), ((2, 2), (3, 3))),
        ((4, 4), ((2, 3), (3, 2))),
    )
    assert report.missing_pairs == ((1, 4), (4, 1))
    assert [pair_name(p) for (p, _) in report.duplicate_pairs] == ["bβ", "eε"]
    assert [pair_name(p) for p in report.missing_pairs] == ["bε", "eβ"]


def test_pair_name():
    assert pair_name((0, 0)) == "aα"
    assert pair_name((5, 5)) == "fζ"


def test_verdict_is_symmetry_invariant():
    for golden in GOLDENS:
        for image in dihedral_images(golden.square().cells):
            assert verify_magic(Square(image)).verdict is Verdict.MAGIC
    for image in dihedral_images(((9, 2, 4), (7, 5, 3), (6, 1, 8))):
        assert verify_magic(Square(image)).verdict is Verdict.NOT_MAGIC


MAGIC_BY_ORDER: dict[int, list] = {1: [((1,),)]}
for _cells in (golden.square().cells for golden in GOLDENS):
    MAGIC_BY_ORDER.setdefault(len(_cells), []).append(_cells)


def _grid(x, values):
    return Square(tuple(tuple(values[i * x:(i + 1) * x]) for i in range(x)))


def audit_cases():
    """Squares of orders 1-6: permutations of 1..x*x, values with repeats or
    out of range, and magic squares with their rows reordered (semi-magic
    whenever a diagonal breaks)."""

    def of_order(x):
        cases = [
            st.permutations(range(1, x * x + 1)).map(lambda v: _grid(x, v)),
            st.lists(
                st.integers(-2, x * x + 2), min_size=x * x, max_size=x * x
            ).map(lambda v: _grid(x, v)),
        ]
        if x in MAGIC_BY_ORDER:
            cases.append(
                st.tuples(
                    st.sampled_from(MAGIC_BY_ORDER[x]), st.permutations(range(x))
                ).map(lambda t: Square(tuple(t[0][i] for i in t[1])))
            )
        return st.one_of(cases)

    return st.integers(1, 6).flatmap(of_order)


@given(audit_cases())
def test_verify_magic_matches_reference(square):
    report = verify_magic(square)
    expected = reference_verify_magic(square)
    assert report == expected
    assert list(report.line_sums.items()) == list(expected.line_sums.items())
    assert list(line_sums(square).items()) == list(expected.line_sums.items())


@given(audit_cases())
def test_integer_audit_matches_the_magic_verdict(square):
    flat = tuple(value for row in square.cells for value in row)
    assert _is_magic(flat, square.order) == (
        verify_magic(square).verdict is Verdict.MAGIC
    )


def test_integer_audit_accepts_every_known_magic_square():
    for x, known in MAGIC_BY_ORDER.items():
        for cells in known:
            for image in dihedral_images(cells):
                assert _is_magic(tuple(v for row in image for v in row), x), image


def _siamese(x):
    """De la Loubère's magic square of odd order x."""
    cells = [[0] * x for _ in range(x)]
    i, j = 0, x // 2
    for value in range(1, x * x + 1):
        cells[i][j] = value
        up, right = (i - 1) % x, (j + 1) % x
        i, j = (up, right) if not cells[up][right] else ((i + 1) % x, j)
    return tuple(map(tuple, cells))


def _doubly_even(x):
    """The magic square of order x = 4k: 1..x*x row by row, with the cells
    on the diagonals of every 4x4 block replaced by x*x + 1 - value."""
    return tuple(
        tuple(
            x * x - v + 1 if (i % 4 in (0, 3)) == (j % 4 in (0, 3)) else v
            for j, v in enumerate(range(i * x + 1, (i + 1) * x + 1))
        )
        for i in range(x)
    )


LARGE_MAGIC = {7: _siamese(7), 8: _doubly_even(8)}


def large_audit_cases():
    """Squares of orders 7 and 8, drawn as audit_cases draws them, plus
    magic squares with one diagonal broken or two cells swapped, and
    squares whose lines all hit the sum with repeated values."""

    def of_order(x):
        magic = LARGE_MAGIC[x]
        return st.one_of(
            st.permutations(range(1, x * x + 1)).map(lambda v: _grid(x, v)),
            st.lists(
                st.integers(-2, x * x + 2), min_size=x * x, max_size=x * x
            ).map(lambda v: _grid(x, v)),
            st.sampled_from(dihedral_images(magic)).map(Square),
            st.permutations(range(x)).map(
                lambda rows: Square(tuple(magic[i] for i in rows))
            ),
            st.tuples(
                st.sampled_from(dihedral_images(magic)), st.permutations(range(x)), st.booleans()
            ).map(_conjugated),
            st.tuples(st.integers(0, x * x - 1), st.integers(0, x * x - 1)).map(
                lambda swap: _grid(x, _swapped(_flat(magic), *swap))
            ),
            st.sampled_from(dihedral_images(magic)[1:]).map(
                lambda image: _grid(
                    x, [2 * a - b for a, b in zip(_flat(magic), _flat(image))]
                )
            ),
        )

    return st.sampled_from(sorted(LARGE_MAGIC)).flatmap(of_order)


def _conjugated(case):
    """Rows and columns of a square reordered alike, which keeps the main
    diagonal's sum and usually breaks the anti diagonal, optionally mirrored
    left to right, which swaps the two."""
    cells, perm, mirror = case
    cells = tuple(tuple(cells[i][j] for j in perm) for i in perm)
    return Square(tuple(row[::-1] for row in cells) if mirror else cells)


def _swapped(values, a, b):
    values = list(values)
    values[a], values[b] = values[b], values[a]
    return values


def test_large_squares_are_magic():
    for x, cells in LARGE_MAGIC.items():
        assert reference_verify_magic(Square(cells)).verdict is Verdict.MAGIC, x


@given(large_audit_cases())
def test_integer_audit_matches_the_magic_verdict_at_orders_7_and_8(square):
    flat = _flat(square.cells)
    assert _is_magic(flat, square.order) == (
        verify_magic(square).verdict is Verdict.MAGIC
    )


@pytest.mark.parametrize("x", range(1, 9))
def test_geometry_corners_are_the_corner_cells(x):
    last = x - 1
    assert _geometry(x).corners == tuple(i * x + j for i, j in ((0, 0), (0, last), (last, 0), (last, last)))


def test_verify_magic_leaves_the_compiled_audit_unbuilt():
    x = 60
    square = Square(_doubly_even(x))
    assert verify_magic(square).verdict is Verdict.MAGIC
    assert "is_magic" not in vars(_geometry(x))
    assert _is_magic(_flat(square.cells), x)
    assert "is_magic" in vars(_geometry(x))


def test_verify_magic_leaves_the_symmetry_tables_unbuilt():
    x = 300
    assert verify_magic(Square(_doubly_even(x))).verdict is Verdict.MAGIC
    built = vars(_geometry(x))
    for name in ("symmetries", "symmetry_pickers", "mirrors", "corner_pickers"):
        assert name not in built, name


def test_row_shuffled_magic_square_is_semi_magic():
    semi = Square(LO_SHU.cells[1:] + LO_SHU.cells[:1])
    assert reference_verify_magic(semi).verdict is Verdict.SEMI_MAGIC
    assert verify_magic(semi) == reference_verify_magic(semi)


def _index_cells(x, indices):
    """An order-x grid of the given letter indices, row by row."""
    return st.lists(indices, min_size=x * x, max_size=x * x).map(
        lambda flat: tuple(tuple(flat[i * x:(i + 1) * x]) for i in range(x))
    )


FIGURE_GRIDS = [pair_grid(text) for text in FIGURES.values()]


def letter_grids():
    """Letter grids of orders 1-6 with indices in 0..x-1, so that repeats are
    common, and the components of the transcribed figures."""
    drawn = st.integers(1, 6).flatmap(
        lambda x: st.tuples(st.sampled_from(Role), _index_cells(x, st.integers(0, x - 1)))
    ).map(lambda t: SymbolGrid(*t))
    figures = st.sampled_from(
        [grid.latin_component() for grid in FIGURE_GRIDS]
        + [grid.greek_component() for grid in FIGURE_GRIDS]
    )
    return st.one_of(drawn, figures)


def pair_grids():
    """Pair grids of orders 1-6 with indices in 0..x-1, and the transcribed figures."""
    drawn = st.integers(1, 6).flatmap(
        lambda x: _index_cells(x, st.tuples(st.integers(0, x - 1), st.integers(0, x - 1)))
    ).map(SuperposedGrid)
    return st.one_of(drawn, st.sampled_from(FIGURE_GRIDS))


def reference_verify_latin(grid, include_diagonals):
    """verify_latin the direct way: each line's cells listed by hand and counted."""
    x, cells = grid.order, grid.cells
    lines = [(LineId(LineKind.ROW, i), [cells[i][j] for j in range(x)]) for i in range(x)]
    lines += [(LineId(LineKind.COLUMN, j), [cells[i][j] for i in range(x)]) for j in range(x)]
    if include_diagonals:
        lines.append((LineId(LineKind.MAIN_DIAGONAL), [cells[i][i] for i in range(x)]))
        lines.append((LineId(LineKind.ANTI_DIAGONAL), [cells[i][x - 1 - i] for i in range(x)]))
    repeats = []
    for line, symbols in lines:
        counts = Counter(symbols)
        for index in sorted(counts):
            if counts[index] >= 2:
                repeats.append((line, SymbolId(grid.role, index), counts[index]))
    return RepeatReport(ok=not repeats, repeats=tuple(repeats))


def reference_verify_orthogonality(pairs):
    """verify_orthogonality the direct way: every pair in order, looked up in
    every cell in row-major order."""
    x = pairs.order
    duplicates, missing = [], []
    for l in range(x):
        for g in range(x):
            places = tuple(
                (i, j) for i in range(x) for j in range(x) if tuple(pairs.cells[i][j]) == (l, g)
            )
            if len(places) > 1:
                duplicates.append(((l, g), places))
            if not places:
                missing.append((l, g))
    return OrthogonalityReport(
        ok=not duplicates and not missing,
        duplicate_pairs=tuple(duplicates),
        missing_pairs=tuple(missing),
    )


@given(letter_grids(), st.booleans())
def test_verify_latin_matches_reference(grid, include_diagonals):
    assert verify_latin(grid, include_diagonals) == reference_verify_latin(grid, include_diagonals)


@given(pair_grids())
def test_verify_orthogonality_matches_reference(pairs):
    assert verify_orthogonality(pairs) == reference_verify_orthogonality(pairs)


# keys and items that compare in the opposite order to the one they come in
KEYED = [(3, "z"), (1, "y"), (3, "x"), (2, "w"), (1, "v"), (3, "u")]


def test_grouping_keeps_keys_and_items_in_first_seen_order():
    grouped = _grouped(iter(KEYED))
    assert list(grouped) == [3, 1, 2]
    assert grouped == {3: ["z", "x", "u"], 1: ["y", "v"], 2: ["w"]}
    assert _grouped([]) == {}


def test_repeats_sorts_the_grouping_and_keeps_keys_held_twice():
    assert _repeats(KEYED) == ((1, ("y", "v")), (3, ("z", "x", "u")))
    assert _repeats([(2, "w"), (1, "v")]) == ()
    assert _repeats([]) == ()
