"""The package's immutable value types: construction, equality, hashing,
repr, immutability and the checks their initializers run."""
import inspect

import pytest

from latinmagic import (
    FAMILIES,
    Axis,
    CanonicalSquare,
    Family,
    FamilyCensus,
    LinearConstraint,
    LineId,
    LineKind,
    OrthogonalityReport,
    RepeatReport,
    Role,
    Square,
    SubsetReport,
    SuperposedGrid,
    SymbolGrid,
    SymbolId,
    ValueAssignment,
    Verdict,
    VerificationReport,
    all_lines,
    build_square,
    census,
    compose,
    constraint_system_basis,
    decompose,
    diagonal_constraints,
    dihedral_images,
    enumerate_family,
    equivalent_systems,
    evaluate,
    family_figure,
    line_positions,
    magic_constant,
    magic_figure,
    oracle_search,
    pair_name,
    reflect_greek,
    rotate_lines,
    solve_assignments,
    subset_check,
    superpose,
    verify_latin,
    verify_magic,
    verify_orthogonality,
)
from latinmagic.cli import SquareDocument
from latinmagic.model import _Record

LO_SHU = ((2, 9, 4), (7, 5, 3), (6, 1, 8))

# one instance of every value type, built positionally
SAMPLES = {
    SymbolId: (Role.LATIN, 1),
    SymbolGrid: (Role.GREEK, ((0, 1), (1, 0))),
    SuperposedGrid: ((((0, 0), (1, 1)), ((1, 0), (0, 1))),),
    ValueAssignment: ((0, 3, 6), (1, 2, 3)),
    Square: (LO_SHU,),
    LinearConstraint: ((1, -1), (0, 0)),
    Family: ("e9.test", 3, "a test family", {}),
    CanonicalSquare: (Square(LO_SHU),),
    FamilyCensus: ("e9.test", 8, 8, 1),
    SubsetReport: (True, ()),
    LineId: (LineKind.COLUMN, 2),
    VerificationReport: (3, 15, {}, True, (), (), Verdict.MAGIC),
    RepeatReport: (True, ()),
    OrthogonalityReport: (True, (), ()),
    SquareDocument: (3, LO_SHU, "e3.reflect", (0, 6, 3), (1, 2, 3)),
}

RECORDS = list(SAMPLES)

# the records whose fields are containers, each built from lists equal to its sample's tuples
LIST_ARGS = {
    SymbolGrid: lambda: (Role.GREEK, [[0, 1], [1, 0]]),
    SuperposedGrid: lambda: ([[[0, 0], [1, 1]], [[1, 0], [0, 1]]],),
    ValueAssignment: lambda: ([0, 3, 6], [1, 2, 3]),
    Square: lambda: ([[2, 9, 4], [7, 5, 3], [6, 1, 8]],),
    LinearConstraint: lambda: ([1, -1], [0, 0]),
}

UNKNOWN_LIST_ID = f"unknown family ['x'] (known: {', '.join(FAMILIES)})"


def fields(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


def sample(cls):
    return cls(*SAMPLES[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_the_annotations_in_order(cls):
    assert fields(cls) == list(cls.__annotations__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_equals_positional(cls):
    by_keyword = cls(**dict(zip(fields(cls), SAMPLES[cls])))
    assert by_keyword == sample(cls)
    for name, value in zip(fields(cls), SAMPLES[cls]):
        assert getattr(by_keyword, name) is value


def test_defaults():
    assert LineId(LineKind.MAIN_DIAGONAL) == LineId(LineKind.MAIN_DIAGONAL, 0)
    assert LineId(kind=LineKind.ROW).index == 0
    document = SquareDocument(order=3, cells=LO_SHU)
    assert (document.family, document.latin_values, document.greek_values) == (
        None, None, None,
    )


def test_family_without_figures_gets_its_own_empty_dict():
    first = Family("e9.test", 3, "a test family")
    second = Family("e9.test", 3, "a test family")
    assert first.figures == {} and second.figures == {}
    assert first.figures is not second.figures


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_missing_or_unknown_argument_is_a_type_error(cls):
    required = [
        p for p in inspect.signature(cls).parameters.values()
        if p.default is inspect.Parameter.empty
    ]
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls][: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls], bogus=1)
    with pytest.raises(TypeError):
        cls(*SAMPLES[cls], 0)
    with pytest.raises(TypeError):
        cls()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_by_fields_in_order(cls):
    record = sample(cls)
    assert record == sample(cls)
    assert not record != sample(cls)
    assert record != SAMPLES[cls]
    assert record != SAMPLES[cls][0]


def test_equality_needs_the_same_class():
    # same field names and values, different classes
    assert RepeatReport(True, ()) != SubsetReport(True, ())
    assert SymbolId(Role.LATIN, 0) != LineId(LineKind.ROW, 0)
    assert LineId(LineKind.ROW, 0) != (LineKind.ROW, 0)


def test_one_differing_field_breaks_equality():
    assert SymbolId(Role.LATIN, 0) != SymbolId(Role.GREEK, 0)
    assert SymbolId(Role.LATIN, 0) != SymbolId(Role.LATIN, 1)
    assert LineId(LineKind.ROW, 1) != LineId(LineKind.COLUMN, 1)
    assert FamilyCensus("a", 1, 2, 3) != FamilyCensus("a", 1, 2, 4)
    assert SquareDocument(3, LO_SHU) != SquareDocument(3, LO_SHU, "e3.reflect")


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c is not VerificationReport], ids=lambda c: c.__name__
)
def test_equal_records_hash_equal(cls):
    assert hash(sample(cls)) == hash(sample(cls))
    assert len({sample(cls), sample(cls)}) == 1


def test_records_work_as_keys():
    sums = {LineId(LineKind.ROW, i): i for i in range(3)}
    assert sums[LineId(LineKind.ROW, 2)] == 2
    assert Square(LO_SHU) in {Square(tuple(map(tuple, map(list, LO_SHU))))}


def _empty(value) -> None:
    """Clear a list and every list inside it."""
    if isinstance(value, list):
        for item in value:
            _empty(item)
        value.clear()


def _tuples_throughout(value) -> bool:
    return not isinstance(value, list) and (
        not isinstance(value, tuple) or all(map(_tuples_throughout, value))
    )


@pytest.mark.parametrize("cls", list(LIST_ARGS), ids=lambda c: c.__name__)
def test_records_built_from_lists_keep_tuples(cls):
    args = LIST_ARGS[cls]()
    record = cls(*args)
    assert record == sample(cls) and sample(cls) == record
    assert hash(record) == hash(sample(cls))
    assert record in {sample(cls)}
    assert all(map(_tuples_throughout, vars(record).values()))
    # the caller's lists are copied, not kept
    for arg in args:
        _empty(arg)
    assert record == sample(cls)
    # fields given as tuples throughout are kept as the same objects
    for name, value in zip(fields(cls), SAMPLES[cls]):
        assert getattr(sample(cls), name) is value


def test_a_square_built_from_lists_is_a_value():
    square = Square([[2, 9, 4], [7, 5, 3], [6, 1, 8]])
    assert square in oracle_search(3)
    with pytest.raises(TypeError):
        square.cells[0][0] = 99
    assert verify_magic(square).verdict is Verdict.MAGIC
    assert LinearConstraint([1, -1, 0], [0, 0, 0]).latin_side().vector() == (1, -1, 0, 0, 0, 0)


def test_family_hashes_despite_its_figures_dict():
    grid = SuperposedGrid(SAMPLES[SuperposedGrid][0])
    with_figure = Family("e9.test", 2, "a test family", {"c": grid})
    assert hash(with_figure) == hash(Family("e9.test", 2, "a test family"))
    assert with_figure != Family("e9.test", 2, "a test family")
    assert with_figure == Family("e9.test", 2, "a test family", {"c": grid})


def test_verification_report_is_unhashable():
    report = verify_magic(Square(LO_SHU))
    assert report == verify_magic(Square(LO_SHU))
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_lists_the_fields_in_order(cls):
    record = sample(cls)
    assert list(vars(record)) == fields(cls)
    shown = ", ".join(
        f"{name}={value!r}" for name, value in zip(fields(cls), SAMPLES[cls])
    )
    assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_names_every_field():
    assert repr(SymbolId(Role.LATIN, 1)) == "SymbolId(role=<Role.LATIN: 'latin'>, index=1)"
    assert repr(LineId(LineKind.ROW, 2)) == "LineId(kind=<LineKind.ROW: 'row'>, index=2)"
    assert repr(Square(((1,),))) == "Square(cells=((1,),))"
    assert repr(SquareDocument(1, ((1,),))) == (
        "SquareDocument(order=1, cells=((1,),), family=None, "
        "latin_values=None, greek_values=None)"
    )
    assert repr(CanonicalSquare(Square(((1,),)))) == (
        "CanonicalSquare(square=Square(cells=((1,),)))"
    )
    assert repr(Family("e9.test", 1, "s")) == (
        "Family(family_id='e9.test', order=1, summary='s', figures={})"
    )


def test_str_of_a_value_assignment_is_its_repr():
    # the solver-soundness AssertionError prints the assignment this way
    assignment = ValueAssignment((0, 3, 6), (1, 2, 3))
    assert str(assignment) == (
        "ValueAssignment(latin_values=(0, 3, 6), greek_values=(1, 2, 3))"
    )
    assert str(SymbolId(Role.GREEK, 1)) == "β"
    assert str(LineId(LineKind.ANTI_DIAGONAL)) == "anti diagonal"


def test_symbol_beyond_its_alphabet_is_named_by_role_and_index():
    assert SymbolId(Role.LATIN, 6).letter == "latin6"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    record = sample(cls)
    name = fields(cls)[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before
    assert not hasattr(record, "not_a_field")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SymbolId(Role.LATIN, -1), "symbol index must be >= 0, got -1"),
        (lambda: SymbolGrid(Role.LATIN, ()), "symbol grid must have at least one row"),
        (
            lambda: SymbolGrid(Role.LATIN, ((0, 1), (1,))),
            "symbol grid row 1 has 1 cells, expected 2",
        ),
        (
            lambda: SymbolGrid(Role.LATIN, ((0, 1), (1, True))),
            "cell (1, 1) is not an integer index",
        ),
        (
            lambda: SymbolGrid(Role.GREEK, ((0, 2), (1, 0))),
            "cell (0, 1) index 2 outside 0..1",
        ),
        (lambda: SuperposedGrid(()), "superposed grid must have at least one row"),
        (
            lambda: SuperposedGrid((((0, 0), (1, 1)), ((1, 0),))),
            "superposed grid row 1 has 1 cells, expected 2",
        ),
        (lambda: SuperposedGrid((((0, 0, 0),),)), "cell (0, 0) must hold a pair"),
        (lambda: SuperposedGrid((((0, 0.0),),)), "cell (0, 0) is not an integer index"),
        (lambda: SuperposedGrid((((0, 1),),)), "cell (0, 0) index 1 outside 0..0"),
        (
            lambda: ValueAssignment((0, 2), (1,)),
            "latin and greek value lists must have the same length, got 2 and 1",
        ),
        (
            lambda: ValueAssignment((), ()),
            "value assignment must cover at least one letter",
        ),
        (
            lambda: ValueAssignment(("a", 0, 3), (1, 2, 3)),
            "latin value 0 is not an integer: 'a'",
        ),
        (
            lambda: ValueAssignment((0.0, 3, 6), (1, 2, 3)),
            "latin value 0 is not an integer: 0.0",
        ),
        (
            lambda: ValueAssignment((0, 3, 6), (True, 2, 3)),
            "greek value 0 is not an integer: True",
        ),
        (
            lambda: ValueAssignment((0, 1), (1, 2)),
            "latin values must be a permutation of multiples of 2 (0..2), got [0, 1]",
        ),
        (
            lambda: ValueAssignment((0, 2), (1, 1)),
            "greek values must be a permutation of 1..2, got [1, 1]",
        ),
        (lambda: Square(()), "square must have at least one row"),
        (lambda: Square(((1, 2), (3,))), "square row 1 has 1 cells, expected 2"),
        (lambda: Square(((1, 2), (3, 4.0))), "cell (1, 1) is not an integer"),
        (lambda: Square(((False,),)), "cell (0, 0) is not an integer"),
        (
            lambda: LinearConstraint((1, "a"), (0, 0)),
            "latin coefficient 1 is not an integer: 'a'",
        ),
        (
            lambda: LinearConstraint((1, -1), (0, True)),
            "greek coefficient 1 is not an integer: True",
        ),
        (
            lambda: LinearConstraint((1, -1), (0,)),
            "latin and greek coefficient lists differ in length",
        ),
        (lambda: LinearConstraint((), ()), "constraint must cover at least one letter"),
        (
            lambda: LinearConstraint((1, 0), (0, 0)),
            "coefficients must sum to zero within each alphabet",
        ),
        (
            lambda: LinearConstraint((0, 0), (0, 0)),
            "constraint must have a nonzero coefficient",
        ),
        (
            lambda: line_positions(LineId("row", 0), 3),
            "kind must be one of LineKind.ROW, LineKind.COLUMN, "
            "LineKind.MAIN_DIAGONAL, LineKind.ANTI_DIAGONAL, got 'row'",
        ),
        # explicit ids, kept as pytest numbered them: the two messages are the same
        pytest.param(
            lambda: SymbolId("latin", 0).letter,
            "role must be one of Role.LATIN, Role.GREEK, got 'latin'",
            id="<lambda>-role must be one of Role.LATIN, Role.GREEK, got 'latin'0",
        ),
        pytest.param(
            lambda: SymbolGrid("latin", ((0,),)),
            "role must be one of Role.LATIN, Role.GREEK, got 'latin'",
            id="<lambda>-role must be one of Role.LATIN, Role.GREEK, got 'latin'1",
        ),
        (lambda: magic_constant(2.5), "order must be an integer, got 2.5"),
        (lambda: magic_constant(True), "order must be an integer, got True"),
        (lambda: all_lines(2.0), "order must be an integer, got 2.0"),
        (lambda: decompose(2.5, 3), "value must be an integer, got 2.5"),
        (lambda: compose(1.0, 2, 3), "multiple part must be an integer, got 1.0"),
        (lambda: compose(1, 2.0, 3), "unit part must be an integer, got 2.0"),
        # explicit ids: the messages repeat magic_constant's and all_lines'
        pytest.param(
            lambda: next(solve_assignments((), True)), "order must be an integer, got True",
            id="solve_assignments-True",
        ),
        pytest.param(
            lambda: next(solve_assignments((), 2.0)), "order must be an integer, got 2.0",
            id="solve_assignments-2.0",
        ),
        (lambda: next(solve_assignments((), "3")), "order must be an integer, got '3'"),
        (lambda: SymbolId(Role.LATIN, True).letter, "symbol index must be an integer, got True"),
        (
            lambda: line_positions(LineId(LineKind.ROW, 1.0), 3),
            "line index must be an integer, got 1.0",
        ),
        pytest.param(
            lambda: rotate_lines(sample(SuperposedGrid), "columns", True),
            "shift must be an integer, got True",
            id="rotate_lines-True",
        ),
        pytest.param(
            lambda: rotate_lines(sample(SuperposedGrid), "columns", 1.5),
            "shift must be an integer, got 1.5",
            id="rotate_lines-1.5",
        ),
        pytest.param(
            lambda: rotate_lines(sample(SuperposedGrid), "rows", "1"),
            "shift must be an integer, got '1'",
            id="rotate_lines-str",
        ),
        pytest.param(
            lambda: line_positions(LineId(LineKind.ROW, 0), True),
            "order must be an integer, got True",
            id="line_positions-True",
        ),
        pytest.param(
            lambda: line_positions(LineId(LineKind.ROW, 0), 2.5),
            "order must be an integer, got 2.5",
            id="line_positions-2.5",
        ),
        pytest.param(
            lambda: LinearConstraint((1, "a" * 100), (0, 0)),
            "latin coefficient 1 is not an integer: 'aaaaaaaaaaaaaaa...aaaaaaaaaaaaaaa'",
            id="LinearConstraint-long-coefficient",
        ),
        pytest.param(
            lambda: rotate_lines(sample(SuperposedGrid), "x" * 100, 1),
            "axis must be 'columns' or 'rows', got 'xxxxxxxxxxxxxxx...xxxxxxxxxxxxxxx'",
            id="rotate_lines-long-axis",
        ),
        pytest.param(
            lambda: rotate_lines(sample(SuperposedGrid), 10 ** 5000, 1),
            "axis must be 'columns' or 'rows', got 1000000000000000...0000000000000000",
            id="rotate_lines-huge-axis",
        ),
        # a record argument of the wrong type, refused before any other read
        pytest.param(
            lambda: evaluate(None, sample(ValueAssignment)),
            "pairs must be a SuperposedGrid, got None",
            id="evaluate-pairs-None",
        ),
        pytest.param(
            lambda: evaluate(sample(SuperposedGrid), None),
            "assignment must be a ValueAssignment, got None",
            id="evaluate-assignment-None",
        ),
        pytest.param(
            lambda: superpose(None, sample(SymbolGrid)),
            "latin must be a SymbolGrid, got None",
            id="superpose-latin-None",
        ),
        pytest.param(
            lambda: superpose(SymbolGrid(Role.LATIN, ((0, 1), (1, 0))), None),
            "greek must be a SymbolGrid, got None",
            id="superpose-greek-None",
        ),
        pytest.param(
            lambda: reflect_greek(None, Axis.MAIN_DIAGONAL),
            "latin must be a SymbolGrid, got None",
            id="reflect_greek-latin-None",
        ),
        pytest.param(
            lambda: rotate_lines(None, "columns", 1),
            "grid must be a SuperposedGrid, got None",
            id="rotate_lines-grid-None",
        ),
        pytest.param(
            lambda: diagonal_constraints(None),
            "pairs must be a SuperposedGrid, got None",
            id="diagonal_constraints-pairs-None",
        ),
        pytest.param(
            lambda: verify_latin(None),
            "grid must be a SymbolGrid, got None",
            id="verify_latin-grid-None",
        ),
        pytest.param(
            lambda: verify_orthogonality(None),
            "pairs must be a SuperposedGrid, got None",
            id="verify_orthogonality-pairs-None",
        ),
        pytest.param(
            lambda: line_positions(None, 3),
            "line must be a LineId, got None",
            id="line_positions-line-None",
        ),
        pytest.param(
            lambda: build_square("e3.reflect", None),
            "assignment must be a ValueAssignment, got None",
            id="build_square-assignment-None",
        ),
        # a container field that len() refuses, one row per field
        pytest.param(lambda: Square(None), "square cells must be a sequence, got None", id="Square-cells-None"),
        pytest.param(
            lambda: SymbolGrid(Role.LATIN, 5), "symbol grid cells must be a sequence, got 5", id="SymbolGrid-cells-5",
        ),
        pytest.param(
            lambda: SuperposedGrid(2.5), "superposed grid cells must be a sequence, got 2.5", id="SuperposedGrid-cells-2.5",
        ),
        pytest.param(
            lambda: ValueAssignment(None, (1,)), "latin values must be a sequence, got None",
            id="ValueAssignment-latin_values-None",
        ),
        pytest.param(
            lambda: ValueAssignment((0,), 5), "greek values must be a sequence, got 5",
            id="ValueAssignment-greek_values-5",
        ),
        pytest.param(
            lambda: LinearConstraint(None, (0,)), "latin coefficients must be a sequence, got None",
            id="LinearConstraint-latin-None",
        ),
        pytest.param(
            lambda: LinearConstraint((0,), 2.5), "greek coefficients must be a sequence, got 2.5",
            id="LinearConstraint-greek-2.5",
        ),
        pytest.param(
            lambda: Square([(1, 2), None]), "square row 1 must be a sequence, got None", id="Square-row-None",
        ),
        pytest.param(
            lambda: SuperposedGrid([[None]]), "cell (0, 0) pair must be a sequence, got None",
            id="SuperposedGrid-pair-None",
        ),
        # a family id or variant that does not hash is unknown, as None is
        pytest.param(lambda: family_figure(["x"]), UNKNOWN_LIST_ID, id="family_figure-family_id-list"),
        pytest.param(
            lambda: family_figure("e4.diag", ["x"]),
            "variant ['x'] does not apply to e4.diag (variants: c, d)",
            id="family_figure-variant-list",
        ),
        pytest.param(lambda: magic_figure(["x"]), UNKNOWN_LIST_ID, id="magic_figure-family_id-list"),
        pytest.param(
            lambda: magic_figure("e3.reflect", ["x"]),
            "variant ['x'] does not apply to e3.reflect (variants: c)",
            id="magic_figure-variant-list",
        ),
        pytest.param(
            lambda: build_square(["x"], sample(ValueAssignment)), UNKNOWN_LIST_ID, id="build_square-family_id-list",
        ),
        pytest.param(
            lambda: build_square("e3.reflect", sample(ValueAssignment), ["x"]),
            "variant ['x'] does not apply to e3.reflect (variants: c)",
            id="build_square-variant-list",
        ),
        pytest.param(lambda: census(["x"]), UNKNOWN_LIST_ID, id="census-family_id-list"),
        pytest.param(
            lambda: census("e3.reflect", ["x"]),
            "variant ['x'] does not apply to e3.reflect (variants: c)",
            id="census-variant-list",
        ),
        pytest.param(lambda: next(enumerate_family(["x"])), UNKNOWN_LIST_ID, id="enumerate_family-family_id-list"),
        pytest.param(
            lambda: next(enumerate_family("e3.reflect", ["x"])),
            "variant ['x'] does not apply to e3.reflect (variants: c)",
            id="enumerate_family-variant-list",
        ),
        pytest.param(lambda: subset_check(["x"], set()), UNKNOWN_LIST_ID, id="subset_check-family_id-list"),
        pytest.param(
            lambda: subset_check("e3.reflect", set(), ["x"]),
            "variant ['x'] does not apply to e3.reflect (variants: c)",
            id="subset_check-variant-list",
        ),
        # constraint systems, the oracle set, cells and pairs of the wrong shape
        pytest.param(
            lambda: constraint_system_basis(None),
            "constraints must be an iterable of LinearConstraint, got None",
            id="constraint_system_basis-None",
        ),
        pytest.param(
            lambda: constraint_system_basis(["x"]),
            "constraint 0 must be a LinearConstraint, got 'x'",
            id="constraint_system_basis-item",
        ),
        pytest.param(
            lambda: equivalent_systems(None, ()),
            "constraints must be an iterable of LinearConstraint, got None",
            id="equivalent_systems-first-None",
        ),
        pytest.param(
            lambda: equivalent_systems((), [None]),
            "constraint 0 must be a LinearConstraint, got None",
            id="equivalent_systems-second-item",
        ),
        pytest.param(
            lambda: next(solve_assignments(5, 3)),
            "constraints must be an iterable of LinearConstraint, got 5",
            id="solve_assignments-constraints-5",
        ),
        pytest.param(
            lambda: next(solve_assignments([(1, -1)], 2)),
            "constraint 0 must be a LinearConstraint, got (1, -1)",
            id="solve_assignments-constraints-item",
        ),
        pytest.param(
            lambda: subset_check("e3.reflect", None),
            "oracle squares must be an iterable of Square, got None",
            id="subset_check-oracle-None",
        ),
        pytest.param(
            lambda: subset_check("e3.reflect", [LO_SHU]),
            "oracle square 0 must be a Square, got ((2, 9, 4), (7, 5, 3), (6, 1, 8))",
            id="subset_check-oracle-item",
        ),
        pytest.param(
            lambda: dihedral_images(None), "square cells must be a sequence, got None", id="dihedral_images-None",
        ),
        pytest.param(
            lambda: dihedral_images(((1, 2), (3,))), "square row 1 has 1 cells, expected 2",
            id="dihedral_images-ragged",
        ),
        # a diagonal has one line, index 0; any other index names no line of the square
        pytest.param(
            lambda: LineId(LineKind.MAIN_DIAGONAL, 5), "main diagonal index must be 0, got 5",
            id="LineId-main-diagonal-5",
        ),
        pytest.param(
            lambda: LineId(LineKind.ANTI_DIAGONAL, -10 ** 600),
            "anti diagonal index must be 0, got -100000000000000...0000000000000000",
            id="LineId-anti-diagonal-huge",
        ),
        pytest.param(lambda: pair_name(None), "pair must be a sequence, got None", id="pair_name-None"),
        pytest.param(
            lambda: pair_name(()), "pair must hold a latin and a greek index, got ()", id="pair_name-empty",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_validation_messages_without_an_id_differ():
    # pytest takes an unnamed case's id from its message and numbers
    # repeated ids without a word, so a repeated message needs an explicit id
    (cases,) = [m.args[1] for m in test_validation_messages.pytestmark if m.name == "parametrize"]
    # a case is a plain tuple or a pytest.param, whose arguments are its values
    unnamed = [getattr(case, "values", case)[1] for case in cases if getattr(case, "id", None) is None]
    assert len(unnamed) == len(set(unnamed))


def test_generated_initializer():
    class Point(_Record):
        x: int
        y: int
        label: str = "origin"

    assert list(inspect.signature(Point).parameters) == ["x", "y", "label"]
    assert [p.default for p in inspect.signature(Point).parameters.values()] == [
        inspect.Parameter.empty, inspect.Parameter.empty, "origin",
    ]
    assert Point(1, 2) == Point(x=1, y=2, label="origin") == Point(1, 2, "origin")
    assert list(vars(Point(1, 2))) == ["x", "y", "label"]
    assert Point.__init__.__qualname__.endswith("Point.__init__")
    for make in (lambda: Point(1), lambda: Point(1, 2, z=3), lambda: Point(1, 2, "a", 4)):
        with pytest.raises(TypeError, match=r"Point\.__init__\(\)"):
            make()


def test_own_initializer_is_kept():
    def checked_init(self, value: int) -> None:
        if value < 0:
            raise ValueError("negative")
        self.__dict__["value"] = value

    class Checked(_Record):
        value: int
        __init__ = checked_init

    assert Checked.__init__ is checked_init
    assert checked_init.__qualname__.endswith("checked_init")
    assert Checked(1) == Checked(value=1)
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)


def test_post_init_sees_every_field_and_its_error_propagates():
    seen = []

    class Checked(_Record):
        low: int
        high: int = 9

        def _post_init(self) -> None:
            seen.append(dict(vars(self)))
            if self.low > self.high:
                raise ValueError("low above high")

    assert Checked(1) == Checked(low=1, high=9)
    assert seen == [{"low": 1, "high": 9}] * 2
    with pytest.raises(ValueError, match="low above high"):
        Checked(5, high=4)
    assert seen[-1] == {"low": 5, "high": 4}

    class Plain(_Record):
        low: int

    assert "_post_init" not in Plain.__init__.__code__.co_names
    assert "_post_init" in Checked.__init__.__code__.co_names


def test_every_package_record_has_the_generated_initializer():
    records = [
        cls for cls in _Record.__subclasses__() if cls.__module__.startswith("latinmagic")
    ]
    assert set(RECORDS) <= set(records)
    for cls in records:
        assert cls.__init__.__code__.co_filename == "<string>", cls.__qualname__
