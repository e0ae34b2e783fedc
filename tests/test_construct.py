"""Figure families, mirroring, line shifting, constraints, and solving."""
import itertools
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latinmagic import (
    FAMILIES,
    Axis,
    ConstraintViolationError,
    LinearConstraint,
    LineKind,
    MirrorConflictError,
    OrthogonalityError,
    Role,
    SuperposedGrid,
    SymbolGrid,
    ValueAssignment,
    Verdict,
    build_square,
    constraint_system_basis,
    diagonal_constraints,
    editor_square,
    equivalent_systems,
    evaluate,
    family_figure,
    reflect_greek,
    rotate_lines,
    solve_assignments,
    verify_latin,
    verify_magic,
    verify_orthogonality,
)
from latinmagic.construct import _solve_values
from latinmagic.verify import _geometry
from helpers import (
    CONSTRAINT_FIXTURES,
    E5_ROTATED_SUFFICIENT_SPLIT,
    FIGURES,
    GOLDENS,
    GREEK_3,
    LATIN_3,
    constraint,
    letter_grid,
    load_square,
    pair_grid,
    reference_system_basis,
)

# Mirror axis used by each family built directly from a Latin component.
REFLECTION_AXES = {
    "e3.reflect": Axis.MIDDLE_COLUMN,
    "e4.diag": Axis.MAIN_DIAGONAL,
    "e4.block": Axis.MAIN_DIAGONAL,
    "e4.interleave": Axis.MAIN_DIAGONAL,
    "e5.diag": Axis.MIDDLE_COLUMN,
    "e5.center": Axis.MIDDLE_ROW,
}


def test_family_listing():
    assert len(FAMILIES) == 11
    assert {f.order for f in FAMILIES.values()} == {3, 4, 5, 6}
    for family_id, family in FAMILIES.items():
        assert family.family_id == family_id
        assert family.summary


def test_family_records_hold_figures_of_their_order():
    for family in FAMILIES.values():
        for figure in family.figures.values():
            assert figure.order == family.order, family.family_id
    assert [f.family_id for f in FAMILIES.values() if not f.figures] == ["e6.editor"]
    assert len(set(FAMILIES.values())) == len(FAMILIES)


@pytest.mark.parametrize("family_id", sorted(FIGURES))
def test_family_figures_match_transcriptions(family_id):
    assert family_figure(family_id) == pair_grid(FIGURES[family_id])


def test_family_figure_rejections():
    with pytest.raises(ValueError, match="unknown family"):
        family_figure("e7.nope")
    with pytest.raises(ValueError, match="editor_square"):
        family_figure("e6.editor")
    with pytest.raises(ValueError, match="variant"):
        family_figure("e4.diag", variant="x")
    with pytest.raises(ValueError, match="variant 'd'"):
        family_figure("e3.reflect", variant="d")


def test_diag_variant_d_structure():
    figure = family_figure("e4.diag", variant="d")
    latin = figure.latin_component()
    assert latin.cells[0] == (0, 1, 2, 3)
    assert tuple(latin.cells[i][i] for i in range(4)) == (0, 3, 1, 2)
    assert verify_latin(latin, include_diagonals=True).ok
    assert figure.greek_component() == reflect_greek(latin, Axis.MAIN_DIAGONAL)
    assert verify_orthogonality(figure).ok
    assert figure != family_figure("e4.diag", variant="c")


def test_diag_variants_are_the_only_latin_squares_with_first_row_abcd_and_both_diagonals_complete():
    first = (0, 1, 2, 3)
    squares = [(first, *rest) for rest in itertools.product(itertools.permutations(first), repeat=3)]
    complete = [
        square for square in squares
        if all(
            len(set(line)) == 4
            for line in (*zip(*square), [square[i][i] for i in range(4)], [square[i][3 - i] for i in range(4)])
        )
    ]
    assert len(complete) == 2
    assert set(complete) == {family_figure("e4.diag", variant=v).latin_component().cells for v in "cd"}


def test_reflection_rule_generates_each_greek_component():
    for family_id, axis in REFLECTION_AXES.items():
        figure = family_figure(family_id)
        latin = figure.latin_component()
        assert reflect_greek(latin, axis) == figure.greek_component(), family_id


def test_reflect_greek_on_first_family_components():
    latin = letter_grid(Role.LATIN, LATIN_3)
    assert reflect_greek(latin, Axis.MIDDLE_COLUMN) == letter_grid(
        Role.GREEK, GREEK_3
    )


def test_reflect_greek_keeps_axis_cells():
    latin = letter_grid(Role.LATIN, LATIN_3)
    greek = reflect_greek(latin, Axis.MIDDLE_COLUMN)
    for i in range(3):
        assert greek.cells[i][1] == latin.cells[i][1]


def test_reflect_greek_rejects_even_order_middle_axes():
    latin = pair_grid(FIGURES["e4.diag"]).latin_component()
    for axis in (Axis.MIDDLE_COLUMN, Axis.MIDDLE_ROW):
        with pytest.raises(ValueError, match="odd order"):
            reflect_greek(latin, axis)


def test_reflect_greek_rejects_greek_input():
    greek = letter_grid(Role.GREEK, GREEK_3)
    with pytest.raises(ValueError, match="latin component"):
        reflect_greek(greek, Axis.MIDDLE_COLUMN)


def test_reflect_greek_rejects_an_axis_given_by_name():
    latin = letter_grid(Role.LATIN, LATIN_3)
    with pytest.raises(ValueError) as info:
        reflect_greek(latin, "middle column")
    assert str(info.value) == (
        "axis must be one of Axis.MIDDLE_COLUMN, Axis.MIDDLE_ROW, "
        "Axis.MAIN_DIAGONAL, Axis.ANTI_DIAGONAL, got 'middle column'"
    )


# where each axis sends cell (i, j) of an order-x grid
EXPLICIT_MIRRORS = {
    Axis.MIDDLE_COLUMN: lambda i, j, x: (i, x - 1 - j),
    Axis.MIDDLE_ROW: lambda i, j, x: (x - 1 - i, j),
    Axis.MAIN_DIAGONAL: lambda i, j, x: (j, i),
    Axis.ANTI_DIAGONAL: lambda i, j, x: (x - 1 - j, x - 1 - i),
}


@pytest.mark.parametrize("x", range(1, 9))
@pytest.mark.parametrize("axis", list(Axis))
def test_geometry_mirrors_follow_the_explicit_mirror(axis, x):
    mirror = EXPLICIT_MIRRORS[axis]
    expected = tuple(mi * x + mj for i in range(x) for j in range(x) for mi, mj in [mirror(i, j, x)])
    assert _geometry(x).mirrors[axis] == expected


@pytest.mark.parametrize("axis", list(Axis))
def test_reflect_greek_follows_the_explicit_mirror(axis):
    mirror = EXPLICIT_MIRRORS[axis]
    families = ["e5.diag"]
    if axis in (Axis.MAIN_DIAGONAL, Axis.ANTI_DIAGONAL):
        families.append("e4.diag")
    for family_id in families:
        latin = family_figure(family_id).latin_component()
        x = latin.order
        greek = reflect_greek(latin, axis)
        assert greek.role is Role.GREEK
        for i in range(x):
            for j in range(x):
                mi, mj = mirror(i, j, x)
                assert greek.cells[i][j] == latin.cells[mi][mj], (family_id, i, j)


@pytest.mark.parametrize("axis", list(Axis))
def test_mirror_conflict_names_the_first_mirrored_pair(axis):
    x = 5
    mirror = EXPLICIT_MIRRORS[axis]
    latin = family_figure("e5.diag").latin_component()
    # the first off-axis cell in row-major order, given its mirror's letter
    i, j = next(
        (i, j) for i in range(x) for j in range(x) if mirror(i, j, x) > (i, j)
    )
    mi, mj = mirror(i, j, x)
    cells = [list(row) for row in latin.cells]
    cells[i][j] = cells[mi][mj]
    with pytest.raises(MirrorConflictError) as info:
        reflect_greek(SymbolGrid(Role.LATIN, tuple(map(tuple, cells))), axis)
    assert (info.value.first, info.value.second) == ((i, j), (mi, mj))
    assert info.value.letter == "abcde"[cells[i][j]]


def test_mirror_conflict_reports_the_pair():
    latin = letter_grid(Role.LATIN, "a b a\nb c b\nc a c")
    with pytest.raises(MirrorConflictError) as info:
        reflect_greek(latin, Axis.MIDDLE_COLUMN)
    err = info.value
    assert err.axis is Axis.MIDDLE_COLUMN
    assert err.first == (0, 0)
    assert err.second == (0, 2)
    assert err.letter == "a"


def test_all_letter_families_are_orthogonal_except_paired():
    for family_id in FIGURES:
        report = verify_orthogonality(family_figure(family_id))
        assert report.ok == (family_id != "e6.paired"), family_id


def test_rotate_lines_matches_rotated_families():
    for rotated, source in (
        ("e3.rotated", "e3.reflect"),
        ("e4.rotated", "e4.diag"),
        ("e5.rotated", "e5.diag"),
    ):
        shifted = rotate_lines(family_figure(source), "columns", -1)
        assert shifted == family_figure(rotated)


def test_rotate_lines_rows_and_inverses():
    figure = family_figure("e3.reflect")
    assert rotate_lines(figure, "columns", 0) == figure
    assert rotate_lines(rotate_lines(figure, "columns", -1), "columns", 1) == figure
    assert rotate_lines(figure, "columns", 3) == figure
    assert rotate_lines(figure, "rows", -1).cells == (
        figure.cells[1],
        figure.cells[2],
        figure.cells[0],
    )
    assert rotate_lines(rotate_lines(figure, "rows", 2), "rows", 1) == figure
    with pytest.raises(ValueError, match="columns"):
        rotate_lines(figure, "diagonals", 1)


def test_rotation_preserves_row_and_column_sums():
    # shifting whole lines permutes rows and columns, so only the two
    # diagonals can lose the common sum
    assignment = ValueAssignment((0, 6, 3), (1, 3, 2))
    figure = family_figure("e3.reflect")
    for axis in ("columns", "rows"):
        for shift in (-2, -1, 1, 2):
            square = evaluate(rotate_lines(figure, axis, shift), assignment)
            report = verify_magic(square)
            assert report.verdict in (Verdict.MAGIC, Verdict.SEMI_MAGIC)
            for line in report.violations:
                assert line.kind in (
                    LineKind.MAIN_DIAGONAL,
                    LineKind.ANTI_DIAGONAL,
                )


@pytest.mark.parametrize("family_id", sorted(CONSTRAINT_FIXTURES))
def test_diagonal_constraints_presentation(family_id):
    found = diagonal_constraints(family_figure(family_id))
    assert tuple(str(c) for c in found) == CONSTRAINT_FIXTURES[family_id]


@pytest.mark.parametrize("family_id", sorted(CONSTRAINT_FIXTURES))
def test_diagonal_constraints_equivalence(family_id):
    x = FAMILIES[family_id].order
    found = diagonal_constraints(family_figure(family_id))
    expected = tuple(constraint(text, x) for text in CONSTRAINT_FIXTURES[family_id])
    assert equivalent_systems(found, expected)


def test_diag_variant_d_has_no_constraints():
    assert diagonal_constraints(family_figure("e4.diag", variant="d")) == ()


def test_paired_family_constraints():
    found = diagonal_constraints(family_figure("e6.paired"))
    assert tuple(str(c) for c in found) == (
        "2a+2f = b+c+d+e",
        "2b+2e = a+c+d+f",
        "2c+2d = a+b+e+f",
        "2α+2ζ = β+γ+δ+ε",
        "2β+2ε = α+γ+δ+ζ",
        "2γ+2δ = α+β+ε+ζ",
        "b+β = e+ε",
    )
    assert sum(1 for c in found if c.is_coupled()) == 1


def test_rotated_e5_stays_coupled():
    found = diagonal_constraints(family_figure("e5.rotated"))
    assert all(c.is_coupled() for c in found)
    assert len(found) == 2


def test_linear_constraint_validation():
    with pytest.raises(ValueError):
        LinearConstraint((1, -1), (0, 0, 0))
    with pytest.raises(ValueError):
        LinearConstraint((), ())
    with pytest.raises(ValueError):
        LinearConstraint((1, 1, -1), (0, 0, 0))
    with pytest.raises(ValueError):
        LinearConstraint((0, 0, 0), (0, 0, 0))


@pytest.mark.parametrize("latin, greek, message", [
    ((1.5, -1.5), (0, 0), "latin coefficient 0 is not an integer: 1.5"),
    ((1, -1), (0, 0.0), "greek coefficient 1 is not an integer: 0.0"),
    ((True, -1), (0, 0), "latin coefficient 0 is not an integer: True"),
    ((1, -1), ("1", 0), "greek coefficient 0 is not an integer: '1'"),
])
def test_linear_constraint_rejects_non_integer_coefficients(latin, greek, message):
    with pytest.raises(ValueError) as info:
        LinearConstraint(latin, greek)
    assert str(info.value) == message


def test_linear_constraint_sides_and_coupling():
    coupled = constraint("2c+2δ = a+e+α+γ", 5)
    assert coupled.is_coupled()
    assert not coupled.latin_side().is_coupled()
    assert coupled.latin_side().greek == (0,) * 5
    assert coupled.greek_side().latin == (0,) * 5
    assert str(coupled.latin_side()) == "2c = a+e"
    assert str(coupled.greek_side()) == "2δ = α+γ"


def test_canonical_key_ignores_scale_and_sign():
    base = constraint("2c = a+b", 3)
    doubled = LinearConstraint((-2, -2, 4), (0, 0, 0))
    flipped = LinearConstraint((1, 1, -2), (0, 0, 0))
    assert base.canonical_key() == doubled.canonical_key()
    assert base.canonical_key() == flipped.canonical_key()
    assert base.canonical_key() != constraint("2a = b+c", 3).canonical_key()


def test_residual_and_holds():
    cond = constraint("2c = a+b", 3)
    good = ValueAssignment((0, 6, 3), (1, 2, 3))
    bad = ValueAssignment((3, 6, 0), (1, 2, 3))
    assert cond.residual(good) == 0
    assert cond.holds(good)
    assert cond.residual(bad) == -9
    assert not cond.holds(bad)


def test_constraint_rendering():
    assert str(constraint("2c = a+b", 3)) == "2c = a+b"
    assert str(LinearConstraint((0, 0, 0), (-1, -1, 2))) == "2γ = α+β"
    assert (
        str(LinearConstraint((-1, 1, 1, -1, 0), (-1, 0, -1, 2, 0)))
        == "b+c+2δ = a+d+α+γ"
    )


def test_constraint_system_basis_is_order_insensitive():
    a = constraint("2γ = α+β", 3)
    b = constraint("2c = a+b", 3)
    assert constraint_system_basis([a, b]) == constraint_system_basis([b, a])
    assert constraint_system_basis([]) == ()
    assert constraint_system_basis([a, a, b]) == constraint_system_basis([a, b])
    with pytest.raises(ValueError):
        constraint_system_basis([a, constraint("b+c = a+d", 4)])


@st.composite
def constraint_systems(draw):
    """Random systems of one order in 1..6, with repeated and dependent rows."""
    x = draw(st.integers(1, 6))
    coeff = st.integers(-4, 4)

    def side():
        if draw(st.booleans()):
            return (0,) * x
        head = draw(st.lists(coeff, min_size=x - 1, max_size=x - 1))
        return (*head, -sum(head))

    rows = []
    for _ in range(draw(st.integers(0, 2 * x + 2))):
        latin, greek = side(), side()
        if any(latin) or any(greek):
            rows.append(LinearConstraint(latin, greek))
    # k*a + m*b over drawn rows a, b: repeats when k = 1 and m = 0
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k, m = draw(coeff), draw(coeff)
        vec = tuple(k * p + m * q for p, q in zip(a.vector(), b.vector()))
        if any(vec):
            rows.append(LinearConstraint(vec[:x], vec[x:]))
    return draw(st.permutations(rows))


@settings(deadline=None)
@given(constraint_systems())
def test_constraint_system_basis_matches_rational_elimination(system):
    assert constraint_system_basis(system) == reference_system_basis(system)


ORDER_5_FIGURES = [family_figure(family_id) for family_id in ("e5.diag", "e5.rotated", "e5.center")]


@st.composite
def order_5_figures(draw):
    """The 25 letter pairs in any arrangement, or an e5 figure with rows and columns permuted."""
    if draw(st.booleans()):
        pairs = draw(st.permutations([(l, g) for l in range(5) for g in range(5)]))
        return SuperposedGrid(tuple(tuple(pairs[k:k + 5]) for k in range(0, 25, 5)))
    figure = draw(st.sampled_from(ORDER_5_FIGURES))
    rows, columns = draw(st.permutations(range(5))), draw(st.permutations(range(5)))
    return SuperposedGrid(tuple(tuple(figure.cells[i][j] for j in columns) for i in rows))


@settings(max_examples=8, deadline=None)
@given(order_5_figures())
def test_solver_finds_every_value_pair_whose_square_is_magic_at_order_5(figure):
    # the 12 lines as (latin letter, greek letter) pairs; a line's sum is a
    # sum of latin values plus a sum of greek values
    lines = [list(row) for row in figure.cells]
    lines += [list(column) for column in zip(*figure.cells)]
    lines += [[figure.cells[i][i] for i in range(5)], [figure.cells[i][4 - i] for i in range(5)]]

    def parts(values, side):
        return [sum(values[pair[side]] for pair in line) for line in lines]

    greeks = [(greek, parts(greek, 1)) for greek in itertools.permutations(range(1, 6))]
    expected = []
    for latin in itertools.permutations(range(0, 25, 5)):
        latin_parts = parts(latin, 0)
        expected += [
            (latin, greek) for greek, greek_parts in greeks
            if all(l + g == 65 for l, g in zip(latin_parts, greek_parts))
        ]
    assert list(_solve_values(diagonal_constraints(figure), 5)) == expected


def test_constraint_system_basis_of_figures_matches_rational_elimination():
    for family in FAMILIES.values():
        for figure in family.figures.values():
            found = diagonal_constraints(figure)
            assert constraint_system_basis(found) == reference_system_basis(found)


def test_equivalent_systems():
    assert equivalent_systems(
        [constraint("b+c = a+d", 4)], [constraint("a+d = b+c", 4)]
    )
    assert not equivalent_systems([constraint("2c = a+b", 3)], [])
    # the per-alphabet split is strictly stronger than the coupled pair
    coupled = diagonal_constraints(family_figure("e5.rotated"))
    split = [constraint(text, 5) for text in E5_ROTATED_SUFFICIENT_SPLIT]
    assert not equivalent_systems(coupled, split)


def test_solver_on_first_family():
    found = list(
        solve_assignments(diagonal_constraints(family_figure("e3.reflect")), 3)
    )
    assert found == [
        ValueAssignment((0, 6, 3), (1, 3, 2)),
        ValueAssignment((0, 6, 3), (3, 1, 2)),
        ValueAssignment((6, 0, 3), (1, 3, 2)),
        ValueAssignment((6, 0, 3), (3, 1, 2)),
    ]


def test_solver_output_is_lexicographic_and_valid():
    constraints = diagonal_constraints(family_figure("e4.rotated"))
    found = list(solve_assignments(constraints, 4))
    assert len(found) == 64
    keys = [(a.latin_values, a.greek_values) for a in found]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(c.holds(a) for a in found for c in constraints)


def test_solver_without_constraints_counts_all_permutations():
    found = list(solve_assignments([], 3))
    assert len(found) == 36
    assert len(set(found)) == 36


def test_solver_bounds():
    with pytest.raises(ValueError, match="capped"):
        next(solve_assignments([], 7))
    with pytest.raises(ValueError, match="capped"):
        next(solve_assignments([], 0))
    with pytest.raises(ValueError, match="order"):
        next(solve_assignments([constraint("2c = a+b", 3)], 4))


def test_split_solutions_satisfy_the_coupled_system():
    coupled = diagonal_constraints(family_figure("e5.rotated"))
    split = [constraint(text, 5) for text in E5_ROTATED_SUFFICIENT_SPLIT]
    split_solutions = list(solve_assignments(split, 5))
    assert split_solutions
    golden = ValueAssignment((10, 5, 15, 0, 20), (1, 2, 5, 3, 4))
    assert golden in split_solutions
    coupled_solutions = set(solve_assignments(coupled, 5))
    assert set(split_solutions) <= coupled_solutions
    assert golden in coupled_solutions


def test_build_square_reproduces_goldens():
    for golden in GOLDENS:
        if golden.latin_values is None:
            continue
        square = build_square(
            golden.family,
            ValueAssignment(golden.latin_values, golden.greek_values),
        )
        assert square == golden.square(), golden.file


def test_build_square_rejects_constraint_violations():
    with pytest.raises(ConstraintViolationError) as info:
        build_square("e3.reflect", ValueAssignment((0, 6, 3), (2, 1, 3)))
    err = info.value
    assert str(err.constraint) == "2γ = α+β"
    assert err.assignment == ValueAssignment((0, 6, 3), (2, 1, 3))


def test_build_square_rejects_pair_repeats():
    with pytest.raises(OrthogonalityError) as info:
        build_square(
            "e6.paired",
            ValueAssignment(
                (0, 6, 12, 18, 24, 30), (1, 2, 3, 4, 5, 6)
            ),
        )
    assert not info.value.report.ok
    assert "bβ" in str(info.value)


def test_build_square_rejects_order_mismatch():
    with pytest.raises(ValueError, match="order"):
        build_square("e3.reflect", ValueAssignment((0, 4, 8, 12), (1, 2, 3, 4)))


def test_editor_square_matches_reference():
    square = editor_square()
    assert square == load_square("golden_e6_editor.txt")
    assert verify_magic(square).verdict is Verdict.MAGIC


def test_every_solver_assignment_builds_a_magic_square():
    for family_id in ("e3.reflect", "e3.rotated"):
        constraints = diagonal_constraints(family_figure(family_id))
        for assignment in solve_assignments(constraints, 3):
            square = build_square(family_id, assignment)
            assert verify_magic(square).verdict is Verdict.MAGIC


def test_variant_d_assignments_build_magic_squares():
    sample = itertools.islice(solve_assignments([], 4), 40)
    for assignment in sample:
        square = build_square("e4.diag", assignment, variant="d")
        assert verify_magic(square).verdict is Verdict.MAGIC


def _solver_cases():
    for family in FAMILIES.values():
        for variant, figure in family.figures.items():
            constraints = diagonal_constraints(figure)
            yield pytest.param(constraints, family.order, id=f"{family.family_id}-{variant}")
    for x in range(1, 6):
        yield pytest.param([], x, id=f"unconstrained-{x}")


@pytest.mark.parametrize("constraints, x", list(_solver_cases()))
def test_solver_records_pass_the_check_they_skip(constraints, x):
    # the solver's core yields plain value pairs: each must pass the checked
    # constructor, and the public solver gives the same pairs in the same order
    found = list(solve_assignments(constraints, x))
    for assignment in found:
        assert ValueAssignment(assignment.latin_values, assignment.greek_values) == assignment
    if not constraints:
        assert len(found) == factorial(x) ** 2
    assert list(_solve_values(constraints, x)) == [
        (a.latin_values, a.greek_values) for a in found
    ]
