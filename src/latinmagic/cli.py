"""Command line front end: gen, verify, enumerate, constraints, oracle, families.

Exit codes: 0 on success (and a Magic verdict), 1 when verification fails or
a family is expected to fail, 2 for usage and input errors, 141 when the
reader of stdout goes away.
"""
from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from math import isqrt

from . import enumeration
from .construct import (
    FAMILIES,
    OrthogonalityError,
    build_square,
    diagonal_constraints,
    editor_square,
    magic_figure,
    solve_assignments,
)
from .model import Square, ValueAssignment, _Record, _brief, _shorten, evaluate
from .verify import VerificationReport, Verdict, _flat, verify_magic


class SquareParseError(ValueError):
    """Input text could not be read as a square."""


# the values of --format; every format but text is structured
_FORMATS = ("text", "structured")


# CPython's default int_max_str_digits: longer integers are refused on
# every input path, so the interpreter's own limit can be lifted
_MAX_DIGITS = 4300


def _unlimited_ints(function):
    """function with int_max_str_digits lifted: a line sum of capped cells may run longer."""
    @functools.wraps(function)
    def lifted(*args, **kwargs):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return function(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)
    return lifted


# int() also takes other scripts' digits, "_" separators and padding
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(literal: str, where: str) -> int:
    """An ASCII decimal integer of at most _MAX_DIGITS digits, or SquareParseError naming where."""
    if not _INTEGER.fullmatch(literal):
        raise SquareParseError(f"invalid integer {_shorten(literal)!r} at {where}")
    digits = len(literal.lstrip("+-"))
    if digits > _MAX_DIGITS:
        raise SquareParseError(
            f"integer at {where} has {digits} digits, more than {_MAX_DIGITS}: {_shorten(literal)}"
        )
    return int(literal)


class _LongInteger(_Record):
    """A JSON integer literal too long to convert, kept for the error message.

    JSON hands literals over without their position, so the structured
    path reports one where the document's fields are checked.
    """

    literal: str

    def __repr__(self) -> str:
        return f"<{len(self.literal.lstrip('-'))}-digit integer>"


def _json_integer(literal: str) -> int | _LongInteger:
    # a JSON literal always matches _INTEGER, so only the cap can refuse it
    try:
        return _integer(literal, "")
    except SquareParseError:
        return _LongInteger(literal)


def _json_int(value, where: str) -> bool:
    """Whether a parsed JSON value is an int; an over-cap literal is refused, naming where."""
    if isinstance(value, _LongInteger):
        _integer(value.literal, where)
    return type(value) is int


class SquareDocument(_Record):
    """A square plus optional provenance metadata, ready to serialize."""

    order: int
    cells: tuple[tuple[int, ...], ...]
    family: str | None = None
    latin_values: tuple[int, ...] | None = None
    greek_values: tuple[int, ...] | None = None


@_unlimited_ints
def parse_square(text: str) -> SquareDocument:
    """Read a square from whitespace grid text or a structured document.

    Grid text holds one row per line with whitespace-separated integers;
    the order is the number of non-blank lines and every row must match it.
    Structured input is a JSON object with at least an "order" and "cells";
    its letter values come as both lists and a "family", or not at all.
    """
    text = text.removeprefix("\ufeff")
    stripped = text.strip()
    if not stripped:
        raise SquareParseError("empty input: expected a square grid")
    if stripped.startswith("{"):
        return _parse_structured(stripped)

    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            rows.append((lineno, tokens))
    order = len(rows)
    for lineno, tokens in rows:
        if len(tokens) != order:
            raise SquareParseError(
                f"ragged grid at line {lineno}: expected {order} cells, "
                f"found {len(tokens)}"
            )
    cells = []
    for lineno, tokens in rows:
        row = []
        for column, token in enumerate(tokens, start=1):
            row.append(_integer(token, f"line {lineno}, column {column}"))
        cells.append(tuple(row))
    return SquareDocument(order=order, cells=tuple(cells))


def _parse_structured(text: str) -> SquareDocument:
    import json

    try:
        data = json.loads(text, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise SquareParseError(f"invalid structured document: {exc}") from None
    except RecursionError:
        raise SquareParseError(
            "invalid structured document: nested too deeply"
        ) from None
    if "cells" not in data:
        raise SquareParseError("structured document is missing 'cells'")
    raw_cells = data["cells"]
    if not isinstance(raw_cells, list) or not raw_cells:
        raise SquareParseError("'cells' must be a non-empty list of rows")
    cells = []
    for i, row in enumerate(raw_cells):
        if not isinstance(row, list):
            raise SquareParseError(f"'cells' row {i} is not a list")
        for j, value in enumerate(row):
            if not _json_int(value, f"cell ({i}, {j})"):
                raise SquareParseError(f"cell ({i}, {j}) is not an integer: {_brief(value)}")
        cells.append(tuple(row))
    order = data.get("order", len(cells))
    if not _json_int(order, "'order'") or order != len(cells):
        raise SquareParseError(f"'order' is {_brief(order)} but 'cells' has {len(cells)} rows")
    for i, row in enumerate(cells):
        if len(row) != order:
            raise SquareParseError(
                f"ragged grid at row {i}: expected {order} cells, "
                f"found {len(row)}"
            )
    family = data.get("family")
    if "family" in data:
        if not isinstance(family, str):
            raise SquareParseError(
                f"'family' must be a string, got {_brief(family)}"
            )
        if family not in FAMILIES:
            known = ", ".join(FAMILIES)
            raise SquareParseError(
                f"'family' {_brief(family)} is not a known family "
                f"(known: {known})"
            )
        if FAMILIES[family].order != order:
            raise SquareParseError(
                f"'family' {family} has order {FAMILIES[family].order}, "
                f"but 'cells' has {order} rows"
            )
        for key in ("latin_values", "greek_values"):
            if key in data and not FAMILIES[family].figures:
                raise SquareParseError(
                    f"'{key}' does not apply: {family} is a fixed square "
                    "with no letter values"
                )
    latin = _letter_values(data, "latin_values", order)
    greek = _letter_values(data, "greek_values", order)
    if (latin is None) != (greek is None):
        missing = "greek_values" if greek is None else "latin_values"
        raise SquareParseError(
            f"'{missing}' is missing: give both letter-value lists, or neither"
        )
    if latin is not None and family is None:
        raise SquareParseError("letter values need a 'family' to rebuild the square from")
    return SquareDocument(
        order=order,
        cells=tuple(cells),
        family=family,
        latin_values=latin,
        greek_values=greek,
    )


def _letter_values(data: dict, key: str, order: int) -> tuple[int, ...] | None:
    if key not in data:
        return None
    values = data[key]
    # a list, not a generator: every over-cap literal is refused before a non-integer
    if not isinstance(values, list) or not all(
        [_json_int(v, f"'{key}' value {k}") for k, v in enumerate(values)]
    ):
        raise SquareParseError(f"'{key}' must be a list of integers")
    if len(values) != order:
        raise SquareParseError(
            f"'{key}' has {len(values)} values, expected one per letter ({order})"
        )
    return tuple(values)


def _provenance_mismatch(doc: SquareDocument) -> str | None:
    """Where the cells differ from the square their family and letter values build.

    None when the document carries no letter values, or when the cells
    match.  A document carries no variant, so a match with any
    figure of the family counts.  Only evaluation runs: the report says if it is magic.
    """
    if doc.latin_values is None:
        return None
    assignment = ValueAssignment(doc.latin_values, doc.greek_values)
    built, *others = (
        evaluate(figure, assignment).cells
        for figure in FAMILIES[doc.family].figures.values()
    )
    if doc.cells == built or doc.cells in others:
        return None
    i, j = next(
        (i, j)
        for i in range(doc.order)
        for j in range(doc.order)
        if doc.cells[i][j] != built[i][j]
    )
    return (
        f"cells do not match family {doc.family} with the given letter "
        f"values: cell ({i}, {j}) is {_brief(doc.cells[i][j])}, expected {built[i][j]}"
    )


def _grid_template(x: int, width: int) -> str:
    """x rows of x %-fields, each right-aligned to width, for a row-major tuple."""
    return "\n".join([" ".join([f"%{width}s"] * x)] * x)


def _grid_text(cells) -> str:
    flat = _flat(cells)
    return _grid_template(len(cells), max(len(str(value)) for value in flat)) % flat


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2, ensure_ascii=False)


@_unlimited_ints
def render(obj, fmt: str = "text") -> str:
    """Serialize a SquareDocument, VerificationReport, or FamilyCensus."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be {' or '.join(map(repr, _FORMATS))}, got {fmt!r}")
    if isinstance(obj, SquareDocument):
        return _render_document(obj, fmt)
    if isinstance(obj, VerificationReport):
        return _render_report(obj, fmt)
    if isinstance(obj, enumeration.FamilyCensus):
        return _render_census(obj, fmt)
    raise ValueError(f"cannot render object of type {type(obj).__name__}")


def _render_document(doc: SquareDocument, fmt: str) -> str:
    if fmt == "text":
        return _grid_text(doc.cells)
    return _json_text({key: value for key, value in vars(doc).items() if value is not None})


def _render_report(report: VerificationReport, fmt: str) -> str:
    if fmt != "text":
        payload = {
            "order": report.order,
            "expected_sum": report.expected_sum,
            "verdict": report.verdict.value,
            "bijection_ok": report.bijection_ok,
            "line_sums": {str(line): s for line, s in report.line_sums.items()},
            "violations": [str(line) for line in report.violations],
            "duplicate_values": [
                {"value": value, "positions": [list(p) for p in places]}
                for value, places in report.duplicate_values
            ],
        }
        return _json_text(payload)
    lines = [
        f"order: {report.order}",
        f"expected sum: {report.expected_sum}",
        f"verdict: {report.verdict.value}",
        f"bijection: {'ok' if report.bijection_ok else 'broken'}",
    ]
    if report.violations:
        lines.append("violations:")
        for line in report.violations:
            lines.append(f"  {line}: sum {report.line_sums[line]}")
    else:
        lines.append("violations: (none)")
    if report.duplicate_values:
        lines.append("duplicate values:")
        for value, places in report.duplicate_values:
            spots = ", ".join(str(p) for p in places)
            lines.append(f"  {value} at {spots}")
    return "\n".join(lines)


def _counts_text(counts, fmt: str) -> str:
    """(json key, text label, value) triples as one JSON object or as "label: value" lines."""
    if fmt != "text":
        return _json_text({key: value for key, _, value in counts})
    return "\n".join(f"{label}: {value}" for _, label, value in counts)


def _render_census(result: enumeration.FamilyCensus, fmt: str) -> str:
    return _counts_text([
        ("family", "family", result.family_id),
        ("assignments_total", "assignments", result.assignments_total),
        ("squares_distinct", "distinct squares", result.squares_distinct),
        ("squares_distinct_dihedral", "distinct squares up to symmetry", result.squares_distinct_dihedral),
    ], fmt)


def _read_input(path: str) -> str:
    """The text of a file or of stdin ('-'), decoded as strict UTF-8."""
    if path != "-":
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, _shorten(path)) from None
    elif sys.stdin is None:
        raise OSError("stdin is closed")
    elif hasattr(sys.stdin, "buffer"):
        data = sys.stdin.buffer.read()
    else:  # a text stream with no bytes under it is already decoded
        return sys.stdin.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SquareParseError(
            f"input is not UTF-8: {exc.reason} at byte offset {exc.start}"
        ) from None


def _csv_ints(text: str, flag: str) -> tuple[int, ...]:
    return tuple(_integer(part.strip(), f"{flag} value {k}") for k, part in enumerate(text.split(",")))


def _print_squares(flats, fmt: str, header: dict) -> None:
    """Audited row-major squares as grids separated by blank lines, streamed,
    or as one structured document.

    Every square of a listing has the first one's order x and holds
    1..x*x, so one %-template prints them all: in text each value is
    right-aligned to the width of x*x, as _grid_text aligns it, and the
    structured squares are laid out as json.dumps(indent=2) lays them out.
    """
    flats = iter(flats)
    first = next(flats, None)
    if first is None:
        if fmt != "text":
            print(_json_text({**header, "count": 0, "squares": []}))
        return
    x = isqrt(len(first))
    if fmt != "text":
        listed = [first, *flats]
        row = "[\n" + ",\n".join(["        %d"] * x) + "\n      ]"
        square = "[\n" + ",\n".join(["      " + row] * x) + "\n    ]"
        # json.dumps(indent=2) ends a non-empty object with "\n}"; the
        # squares go in as its last key
        head = _json_text({**header, "count": len(listed)}).removesuffix("\n}")
        body = ",\n    ".join([square % flat for flat in listed])
        print(head + ',\n  "squares": [\n    ' + body + "\n  ]\n}")
        return
    grid = _grid_template(x, len(str(x * x)))
    write = sys.stdout.write
    write(grid % first + "\n")
    grid = "\n" + grid + "\n"
    for flat in flats:
        write(grid % flat)


def _cmd_gen(args) -> int:
    family = FAMILIES.get(args.family)
    no_values = args.latin is None and args.greek is None and args.variant == "c"
    if family is not None and not family.figures and no_values:
        square, values = editor_square(), {}
    else:
        figure = magic_figure(args.family, args.variant)
        if (args.latin is None) != (args.greek is None):
            raise ValueError("provide both --latin and --greek, or neither")
        if args.latin is None:
            # the solver yields only assignments that meet the constraints
            assignment = next(solve_assignments(diagonal_constraints(figure), figure.order), None)
            if assignment is None:
                raise ValueError(f"family {args.family} admits no satisfying assignment")
            square = evaluate(figure, assignment)
        else:
            assignment = ValueAssignment(
                _csv_ints(args.latin, "--latin"), _csv_ints(args.greek, "--greek")
            )
            square = build_square(args.family, assignment, args.variant)
        # the document's letter-value fields are named as the assignment's
        values = vars(assignment)
    print(render(SquareDocument(square.order, square.cells, args.family, **values), args.format))
    return 0


def _cmd_verify(args) -> int:
    doc = parse_square(_read_input(args.input))
    mismatch = _provenance_mismatch(doc)
    report = verify_magic(Square(doc.cells))
    print(render(report, args.format))
    if mismatch is not None:
        print(f"error: {mismatch}", file=sys.stderr)
        return 1
    return 0 if report.verdict is Verdict.MAGIC else 1


def _cmd_enumerate(args) -> int:
    if args.count_only:
        print(render(enumeration.census(args.family, variant=args.variant), args.format))
        return 0
    figure = magic_figure(args.family, args.variant)
    listed = enumeration._figure_classes if args.dedup == "dihedral" else enumeration._figure_cells
    _print_squares(listed(figure, args.family), args.format, {"family": args.family})
    return 0


def _cmd_constraints(args) -> int:
    constraints = diagonal_constraints(magic_figure(args.family, args.variant))
    if args.format != "text":
        listed = [{"text": str(c), **vars(c)} for c in constraints]
        print(_json_text({"family": args.family, "constraints": listed}))
    else:
        print("\n".join(map(str, constraints)) or "(none)")
    return 0


def _cmd_oracle(args) -> int:
    order = _integer(args.order, "--order")
    classes = enumeration._oracle_classes(order)
    if args.count_only:
        count = sum(map(len, classes.values()))
        print(_counts_text([("order", "order", order), ("count", "squares", count)], args.format))
        return 0
    ordered = [flat for key in sorted(classes) for flat in sorted(classes[key])]
    _print_squares(ordered, args.format, {"order": order})
    return 0


def _cmd_families(args) -> int:
    width = max(len(family_id) for family_id in FAMILIES)
    for family in FAMILIES.values():
        print(f"{family.family_id.ljust(width)}  order {family.order}  {family.summary}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinmagic",
        description="Build, audit, and enumerate magic squares made from "
        "superposed Latin and Greek letter grids.",
    )
    formats = argparse.ArgumentParser(add_help=False)
    # argparse repeats an invalid choice back after the usage line, so the
    # value is shortened (a choice stays whole) and the usage names no choices
    formats.add_argument(
        "--format", choices=_FORMATS, type=_shorten, default="text",
        metavar="FORMAT", help=f"{' or '.join(_FORMATS)} (default: text)",
    )
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, help="family id, see 'families'")
    family.add_argument("--variant", default="c")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[family, formats], help="build one square from a family")
    p.add_argument("--latin", help="comma-separated Latin letter values in letter order")
    p.add_argument("--greek", help="comma-separated Greek letter values in letter order")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", parents=[formats], help="audit a square from a file or '-' (stdin)")
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("enumerate", parents=[family, formats], help="list every square a family produces")
    p.add_argument("--dedup", choices=("none", "dihedral"), default="none")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("constraints", parents=[family, formats], help="show a family's letter-value conditions")
    p.set_defaults(run=_cmd_constraints)

    p = sub.add_parser("oracle", parents=[formats], help="exhaustively list all magic squares of an order")
    p.add_argument("--order", required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(run=_cmd_oracle)

    sub.add_parser("families", help="list the known families").set_defaults(run=_cmd_families)
    return parser


@_unlimited_ints
def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: stop quietly, and send what is still buffered
        # to devnull so the interpreter's final flush stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OrthogonalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
