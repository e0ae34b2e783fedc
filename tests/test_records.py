"""The package's immutable value types: construction, equality, hashing,
repr, immutability and the checks their initializers run."""
import inspect

import pytest

from latinmagic import (
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
    compose,
    decompose,
    diagonal_constraints,
    evaluate,
    line_positions,
    magic_constant,
    reflect_greek,
    rotate_lines,
    solve_assignments,
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
