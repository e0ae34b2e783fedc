"""Core types: number splitting, superposition, evaluation."""
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latinmagic import (
    FAMILIES,
    LineId,
    LineKind,
    Role,
    Square,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    ValueAssignment,
    build_square,
    census,
    compose,
    decompose,
    enumerate_family,
    evaluate,
    family_figure,
    line_positions,
    magic_constant,
    magic_figure,
    oracle_search,
    pair_name,
    solve_assignments,
    subset_check,
    superpose,
    verify_orthogonality,
)
from latinmagic.model import _brief, _shorten
from helpers import GOLDENS, GREEK_3, LATIN_3, letter_grid, pair_grid

EXPECTED_CONSTANTS = {1: 1, 2: 5, 3: 15, 4: 34, 5: 65, 6: 111, 7: 175, 8: 260, 9: 369}


def test_magic_constant_table():
    for x, expected in EXPECTED_CONSTANTS.items():
        assert magic_constant(x) == expected


def test_magic_constant_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        magic_constant(0)
    with pytest.raises(ValueError):
        magic_constant(-3)


def test_decompose_examples():
    assert decompose(9, 3) == (2, 3)
    assert decompose(1, 5) == (0, 1)
    assert decompose(16, 4) == (3, 4)
    # the unit part is 1-based: multiples of x split as (m-1, x), not (m, 0)
    assert decompose(3, 3) == (0, 3)
    assert decompose(25, 5) == (4, 5)


def test_decompose_rejects_out_of_range():
    with pytest.raises(ValueError):
        decompose(0, 3)
    with pytest.raises(ValueError):
        decompose(10, 3)
    with pytest.raises(ValueError):
        decompose(1, 0)


def test_compose_examples():
    assert compose(2, 3, 3) == 9
    assert compose(0, 1, 5) == 1
    assert compose(3, 4, 4) == 16


def test_compose_rejects_out_of_range_parts():
    with pytest.raises(ValueError):
        compose(3, 1, 3)
    with pytest.raises(ValueError):
        compose(0, 0, 3)
    with pytest.raises(ValueError):
        compose(0, 4, 3)


def test_compose_rejects_nonpositive_order():
    with pytest.raises(ValueError, match="order must be >= 1"):
        compose(0, 1, 0)


def test_round_trip_exhaustive_through_order_nine():
    for x in range(1, 10):
        for k in range(1, x * x + 1):
            m, n = decompose(k, x)
            assert 0 <= m <= x - 1
            assert 1 <= n <= x
            assert compose(m, n, x) == k


@given(st.integers(min_value=1, max_value=9), st.data())
def test_round_trip_property(x, data):
    k = data.draw(st.integers(min_value=1, max_value=x * x))
    m, n = decompose(k, x)
    assert compose(m, n, x) == k


def test_superpose_reproduces_first_figure():
    latin = letter_grid(Role.LATIN, LATIN_3)
    greek = letter_grid(Role.GREEK, GREEK_3)
    assert superpose(latin, greek) == pair_grid(
        """
        aγ bβ cα
        bα cγ aβ
        cβ aα bγ
        """
    )


def test_superpose_rejects_role_mismatch():
    latin = letter_grid(Role.LATIN, LATIN_3)
    greek = letter_grid(Role.GREEK, GREEK_3)
    with pytest.raises(ValueError):
        superpose(greek, latin)
    with pytest.raises(ValueError):
        superpose(latin, latin)


def test_superpose_rejects_order_mismatch():
    latin = letter_grid(Role.LATIN, LATIN_3)
    greek = letter_grid(Role.GREEK, "α β\nβ α")
    with pytest.raises(ValueError):
        superpose(latin, greek)


def test_evaluate_first_golden_square():
    figure = pair_grid(
        """
        aγ bβ cα
        bα cγ aβ
        cβ aα bγ
        """
    )
    assignment = ValueAssignment((0, 6, 3), (1, 3, 2))
    square = evaluate(figure, assignment)
    assert square.cells == ((2, 9, 4), (7, 5, 3), (6, 1, 8))


def test_evaluate_rejects_order_mismatch():
    figure = pair_grid("aα bβ\nbβ aα")
    with pytest.raises(ValueError):
        evaluate(figure, ValueAssignment((0, 3, 6), (1, 2, 3)))


def test_value_assignment_validation():
    ValueAssignment((0, 3, 6), (1, 2, 3))
    with pytest.raises(ValueError):
        ValueAssignment((0, 1, 2), (1, 2, 3))  # latin not multiples of 3
    with pytest.raises(ValueError):
        ValueAssignment((0, 3, 6), (0, 1, 2))  # greek must be 1..3
    with pytest.raises(ValueError):
        ValueAssignment((0, 3, 6), (1, 2))  # length mismatch
    with pytest.raises(ValueError):
        ValueAssignment((0, 3, 3), (1, 2, 3))  # repeat is not a permutation
    with pytest.raises(ValueError):
        ValueAssignment((), ())


def test_symbol_grid_validation():
    with pytest.raises(ValueError):
        SymbolGrid(Role.LATIN, ((0, 1), (1,)))
    with pytest.raises(ValueError):
        SymbolGrid(Role.LATIN, ((0, 2), (1, 0)))  # index 2 in an order-2 grid
    with pytest.raises(ValueError):
        SymbolGrid(Role.LATIN, ())


@pytest.mark.parametrize("index", [0.0, "a", True, None])
def test_superposed_grid_rejects_non_integer_indices(index):
    with pytest.raises(ValueError) as info:
        SuperposedGrid((((index, 0),),))
    assert str(info.value) == "cell (0, 0) is not an integer index"
    with pytest.raises(ValueError) as info:
        SuperposedGrid((((0, 0), (0, 1)), ((1, 1), (1, index))))
    assert str(info.value) == "cell (1, 1) is not an integer index"


def test_square_validation():
    Square(((1, -4), (0, 99)))  # any integers are allowed
    with pytest.raises(ValueError):
        Square(((1, 2), (3,)))
    with pytest.raises(ValueError):
        Square(((1, "2"), (3, 4)))


def test_component_extraction_round_trips():
    figure = pair_grid(
        """
        aγ bβ cα
        bα cγ aβ
        cβ aα bγ
        """
    )
    rebuilt = superpose(figure.latin_component(), figure.greek_component())
    assert rebuilt == figure


def _random_orthogonal_case(rng, x):
    pairs = [(l, g) for l in range(x) for g in range(x)]
    rng.shuffle(pairs)
    cells = tuple(
        tuple(pairs[i * x + j] for j in range(x)) for i in range(x)
    )
    latin = [i * x for i in range(x)]
    greek = list(range(1, x + 1))
    rng.shuffle(latin)
    rng.shuffle(greek)
    return SuperposedGrid(cells), ValueAssignment(tuple(latin), tuple(greek))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_orthogonal_grids_evaluate_to_bijections(x, seed):
    # any placement using every pair once is orthogonal, whatever its rows do
    grid, assignment = _random_orthogonal_case(random.Random(seed), x)
    assert verify_orthogonality(grid).ok
    values = sorted(v for row in evaluate(grid, assignment).cells for v in row)
    assert values == list(range(1, x * x + 1))


def test_goldens_have_expected_orders():
    for golden in GOLDENS:
        square = golden.square()
        assert square.order in (3, 4, 5, 6)
        if golden.latin_values is not None:
            assert len(golden.latin_values) == square.order


@pytest.fixture
def digit_limit_4300():
    """The interpreter's default integer limit of 4,300 digits, whatever the environment set."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


HUGE = 10 ** 5000
HUGE_TEXT = "1000000000000000...0000000000000000"
MINUS_HUGE_TEXT = "-100000000000000...0000000000000000"
UNKNOWN_HUGE = f"unknown family {HUGE_TEXT} (known: {', '.join(FAMILIES)})"


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: decompose(HUGE, 3), f"value {HUGE_TEXT} outside 1..9", id="decompose"),
    pytest.param(lambda: decompose(0, HUGE), f"value 0 outside 1..{HUGE_TEXT}", id="decompose-order"),
    pytest.param(lambda: compose(HUGE, 1, 3), f"multiple part {HUGE_TEXT} outside 0..2", id="compose"),
    pytest.param(lambda: compose(0, HUGE, 3), f"unit part {HUGE_TEXT} outside 1..3", id="compose-unit"),
    pytest.param(lambda: magic_constant(-HUGE), f"order must be >= 1, got {MINUS_HUGE_TEXT}", id="magic_constant"),
    pytest.param(
        lambda: SymbolId(Role.LATIN, -HUGE), f"symbol index must be >= 0, got {MINUS_HUGE_TEXT}", id="SymbolId",
    ),
    pytest.param(
        lambda: line_positions(LineId(LineKind.ROW, HUGE), 3), f"line index {HUGE_TEXT} outside 0..2",
        id="line_positions",
    ),
    pytest.param(
        lambda: SymbolGrid(Role.LATIN, ((HUGE,),)), f"cell (0, 0) index {HUGE_TEXT} outside 0..0", id="SymbolGrid",
    ),
    pytest.param(
        lambda: ValueAssignment((HUGE, 0, 3), (1, 2, 3)),
        f"latin values must be a permutation of multiples of 3 (0..6), got [{HUGE_TEXT}, 0, 3]",
        id="ValueAssignment",
    ),
    pytest.param(
        lambda: next(solve_assignments((), HUGE)),
        f"assignment enumeration is capped at order 6, got {HUGE_TEXT}",
        id="solve_assignments",
    ),
    pytest.param(
        lambda: oracle_search(HUGE), f"exhaustive search is capped at order 4, got {HUGE_TEXT}", id="oracle_search",
    ),
    pytest.param(lambda: family_figure(HUGE), UNKNOWN_HUGE, id="family_figure"),
    pytest.param(
        lambda: family_figure(-HUGE),
        f"unknown family {MINUS_HUGE_TEXT} (known: {', '.join(FAMILIES)})",
        id="family_figure-negative",
    ),
    pytest.param(
        lambda: family_figure("e3.reflect", HUGE),
        f"variant {HUGE_TEXT} does not apply to e3.reflect (variants: c)",
        id="family_figure-variant",
    ),
    pytest.param(lambda: magic_figure(HUGE), UNKNOWN_HUGE, id="magic_figure"),
    pytest.param(lambda: census(HUGE), UNKNOWN_HUGE, id="census"),
    pytest.param(lambda: next(enumerate_family(HUGE)), UNKNOWN_HUGE, id="enumerate_family"),
    pytest.param(
        lambda: build_square(HUGE, ValueAssignment((0, 6, 3), (1, 3, 2))), UNKNOWN_HUGE, id="build_square",
    ),
    pytest.param(lambda: subset_check(HUGE, set()), UNKNOWN_HUGE, id="subset_check"),
])
def test_range_messages_shorten_an_integer_past_the_digit_limit(digit_limit_4300, make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_letter_and_line_names_shorten_an_index_past_the_digit_limit(digit_limit_4300):
    assert SymbolId(Role.LATIN, HUGE).letter == f"latin{HUGE_TEXT}"
    assert str(LineId(LineKind.ROW, HUGE)) == f"row {HUGE_TEXT}"
    assert pair_name((HUGE, 0)) == f"latin{HUGE_TEXT}α"


def test_record_repr_shortens_an_integer_field_past_the_digit_limit(digit_limit_4300):
    assert repr(LineId(LineKind.ROW, HUGE)) == f"LineId(kind=<LineKind.ROW: 'row'>, index={HUGE_TEXT})"
    assert repr(SymbolId(Role.GREEK, HUGE)) == f"SymbolId(role=<Role.GREEK: 'greek'>, index={HUGE_TEXT})"
    # a field under 2,000 bits is shown whole, as repr shows it
    assert repr(LineId(LineKind.ROW, 10 ** 600)) == f"LineId(kind=<LineKind.ROW: 'row'>, index={10 ** 600})"


@given(st.integers(1, 3000).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)), st.sampled_from([1, -1]))
def test_brief_shows_an_integer_as_shorten_does(magnitude, sign):
    value = sign * magnitude
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = _shorten(repr(value))
    finally:
        sys.set_int_max_str_digits(saved)
    assert _brief(value) == expected
