"""Command line behavior: parsing, rendering, subcommands, exit codes."""
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latinmagic
from latinmagic import (
    FAMILIES, Square, ValueAssignment, Verdict, dihedral_images, evaluate, verify_magic,
)
from latinmagic import cli as cli_module, construct
from latinmagic.cli import SquareDocument, SquareParseError, parse_square, render, run
from latinmagic.verify import _unflat
from helpers import DATA_DIR, load_square

GOLDEN_E3 = str(DATA_DIR / "golden_e3_reflect.txt")

E3_GRIDS = (
    "2 9 4\n7 5 3\n6 1 8",
    "2 7 6\n9 5 1\n4 3 8",
    "8 3 4\n1 5 9\n6 7 2",
    "8 1 6\n3 5 7\n4 9 2",
)


# the environment of a child interpreter that imports this latinmagic
_SOURCE_ROOT = str(Path(latinmagic.__file__).parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (_SOURCE_ROOT, os.environ.get("PYTHONPATH")))
    ),
}


def cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- parsing ---------------------------------------------------------------

def test_parse_grid_text():
    doc = parse_square("2 9 4\n7 5 3\n6 1 8\n")
    assert doc == SquareDocument(order=3, cells=((2, 9, 4), (7, 5, 3), (6, 1, 8)))


def test_parse_skips_blank_lines_and_handles_negatives():
    doc = parse_square("\n 1 -2 \n\n -3 4 \n")
    assert doc.order == 2
    assert doc.cells == ((1, -2), (-3, 4))


def test_parse_ragged_grid():
    with pytest.raises(SquareParseError) as info:
        parse_square("1 2\n3\n")
    assert str(info.value) == "ragged grid at line 2: expected 2 cells, found 1"


def test_parse_bad_integer():
    with pytest.raises(SquareParseError) as info:
        parse_square("1 x\n3 4\n")
    assert str(info.value) == "invalid integer 'x' at line 1, column 2"


@pytest.mark.parametrize("token", ["\u0668", "\uff18", "0_8", "8.0", "+-8", "-"])
def test_parse_accepts_only_ascii_decimal_integers(token):
    with pytest.raises(SquareParseError) as info:
        parse_square(f"2 7 6\n9 5 1\n4 3 {token}\n")
    assert str(info.value) == f"invalid integer {token!r} at line 3, column 3"


def test_parse_long_tokens_of_other_digits_are_invalid_integers():
    digit = "\u0668"
    with pytest.raises(SquareParseError) as info:
        parse_square(digit * 5000)
    shortened = digit * 16 + "..." + digit * 16
    assert str(info.value) == f"invalid integer {shortened!r} at line 1, column 1"


def test_parse_accepts_signed_integers():
    assert parse_square("+2 -7\n06 +0\n").cells == ((2, -7), (6, 0))


def test_parse_empty_input():
    with pytest.raises(SquareParseError, match="empty input"):
        parse_square("   \n  ")


def test_parse_structured_document():
    doc = parse_square(
        json.dumps(
            {
                "order": 3,
                "cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]],
                "family": "e3.reflect",
                "latin_values": [0, 6, 3],
                "greek_values": [1, 3, 2],
            }
        )
    )
    assert doc.order == 3
    assert doc.family == "e3.reflect"
    assert doc.latin_values == (0, 6, 3)
    assert doc.greek_values == (1, 3, 2)


def test_parse_structured_errors():
    cases = (
        "{not json",
        '{"cells": []}',
        '{"order": 3}',
        '{"order": 2, "cells": [[1, 2]]}',
        '{"cells": [[1, 2], [3]]}',
        '{"cells": [[1, "a"], [3, 4]]}',
        '{"cells": "nope"}',
        '{"order": true, "cells": [[1]]}',
        '{"cells": [[1]], "latin_values": ["x", 1.5]}',
        '{"cells": [[1]], "greek_values": [true]}',
        '{"cells": [[1]], "latin_values": 0}',
        '{"cells": [[1]], "greek_values": "1"}',
        '{"cells": [[1]], "family": 3}',
    )
    for text in cases:
        with pytest.raises(SquareParseError):
            parse_square(text)


def test_parse_errors_shorten_long_values():
    long = "x" * 10000
    cases = (
        f"1 {long}\n3 4\n",
        f'{{"cells": [["{long}"]]}}',
        f'{{"order": "{long}", "cells": [[1]]}}',
        f'{{"cells": [[1]], "family": ["{long}"]}}',
        f'{{"cells": [[1]], "family": "{long}"}}',
    )
    for text in cases:
        with pytest.raises(SquareParseError) as info:
            parse_square(text)
        assert "xxxx...xxxx" in str(info.value)
        assert len(str(info.value)) < 200


def test_parse_structured_defaults_order_from_cells():
    doc = parse_square('{"cells": [[1, 2], [3, 4]]}')
    assert doc.order == 2
    assert doc.family is None


# --- rendering -------------------------------------------------------------

def test_render_grid_aligns_columns():
    doc = SquareDocument(order=4, cells=load_square("golden_e4_rotated.txt").cells)
    assert render(doc) == " 8 10 15  1\n11  5  4 14\n 2 16  9  7\n13  3  6 12"


def test_render_structured_document_round_trips():
    doc = SquareDocument(
        order=3,
        cells=((2, 9, 4), (7, 5, 3), (6, 1, 8)),
        family="e3.reflect",
        latin_values=(0, 6, 3),
        greek_values=(1, 3, 2),
    )
    assert parse_square(render(doc, "structured")) == doc
    assert parse_square(render(doc)) == SquareDocument(order=3, cells=doc.cells)


def test_render_verification_report_text():
    report = verify_magic(load_square("golden_e3_reflect.txt"))
    assert render(report) == (
        "order: 3\n"
        "expected sum: 15\n"
        "verdict: Magic\n"
        "bijection: ok\n"
        "violations: (none)"
    )


def test_render_failing_report_text():
    report = verify_magic(Square(((9, 2, 4), (7, 5, 3), (6, 1, 8))))
    assert render(report) == (
        "order: 3\n"
        "expected sum: 15\n"
        "verdict: NotMagic\n"
        "bijection: ok\n"
        "violations:\n"
        "  column 0: sum 22\n"
        "  column 1: sum 8\n"
        "  main diagonal: sum 22"
    )


def test_render_report_structured():
    report = verify_magic(Square(((2, 9, 4), (7, 5, 3), (6, 1, 4))))
    payload = json.loads(render(report, "structured"))
    assert payload["verdict"] == "NotMagic"
    assert payload["bijection_ok"] is False
    assert payload["duplicate_values"] == [
        {"value": 4, "positions": [[0, 2], [2, 2]]}
    ]
    assert payload["line_sums"]["row 0"] == 15


def test_render_rejects_unknown_format_and_type():
    doc = SquareDocument(order=1, cells=((1,),))
    with pytest.raises(ValueError, match="format"):
        render(doc, "yaml")
    with pytest.raises(ValueError, match="cannot render"):
        render(42)


# --- gen -------------------------------------------------------------------

def test_gen_with_explicit_values(capsys):
    code, out, err = cli(
        capsys,
        "gen", "--family", "e3.reflect", "--latin", "0,6,3", "--greek", "1,3,2",
    )
    assert (code, err) == (0, "")
    assert out == "2 9 4\n7 5 3\n6 1 8\n"


def test_gen_defaults_to_first_assignment(capsys):
    code, out, _ = cli(capsys, "gen", "--family", "e3.reflect")
    assert code == 0
    assert out == "2 9 4\n7 5 3\n6 1 8\n"


def test_gen_structured_carries_metadata(capsys):
    code, out, _ = cli(
        capsys, "gen", "--family", "e3.reflect", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "order": 3,
        "cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]],
        "family": "e3.reflect",
        "latin_values": [0, 6, 3],
        "greek_values": [1, 3, 2],
    }


def test_gen_variant_d(capsys):
    code, out, _ = cli(
        capsys,
        "gen", "--family", "e4.diag", "--variant", "d",
        "--latin", "0,4,8,12", "--greek", "1,2,3,4",
    )
    assert code == 0
    report = verify_magic(parse_square_from_cli(out))
    assert report.verdict.value == "Magic"


def parse_square_from_cli(out):
    return Square(parse_square(out).cells)


def test_gen_editor_square(capsys):
    code, out, _ = cli(capsys, "gen", "--family", "e6.editor")
    assert code == 0
    assert parse_square_from_cli(out) == load_square("golden_e6_editor.txt")


def test_gen_editor_square_takes_no_values(capsys):
    code, _, err = cli(
        capsys,
        "gen", "--family", "e6.editor", "--latin", "0,6,12,18,24,30",
        "--greek", "1,2,3,4,5,6",
    )
    assert code == 2
    assert "fixed square" in err


def test_gen_shortens_a_long_value_argument(capsys):
    code, out, err = cli(
        capsys, "gen", "--family", "e3.reflect", "--latin", "9" * 5000 + ",0,3",
        "--greek", "1,3,2",
    )
    assert (code, out) == (2, "")
    assert "integer at --latin value 0 has 5000 digits" in err
    assert len(err) < 200


@pytest.mark.parametrize("latin", ["0,\u0666,3", "0,\uff16,3", "0,6_0,3", "0,,3"])
def test_gen_accepts_only_ascii_decimal_values(capsys, latin):
    code, out, err = cli(
        capsys, "gen", "--family", "e3.reflect", "--latin", latin, "--greek", "1,3,2"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: invalid integer {latin.split(',')[1]!r} at --latin value 1\n"
    )


def test_gen_values_may_be_padded_and_signed(capsys):
    code, out, _ = cli(
        capsys, "gen", "--family", "e3.reflect", "--latin", " 0, +6 ,3",
        "--greek", "1,3,2",
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["2", "9", "4"]


def test_gen_paired_family_fails_cleanly(capsys):
    code, out, err = cli(capsys, "gen", "--family", "e6.paired")
    assert code == 1
    assert out == ""
    assert "repeats letter pairs" in err
    assert "bβ" in err


def test_gen_constraint_violation_is_an_input_error(capsys):
    code, _, err = cli(
        capsys,
        "gen", "--family", "e3.reflect", "--latin", "0,6,3", "--greek", "2,1,3",
    )
    assert code == 2
    assert "error: assignment violates line constraint: 2γ = α+β" in err


def test_gen_builds_its_figure_once(capsys, monkeypatch):
    calls = {"verify_orthogonality": 0, "diagonal_constraints": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(construct, "verify_orthogonality")
    counted(construct, "diagonal_constraints")
    code, out, _ = cli(capsys, "gen", "--family", "e5.center")
    assert code == 0 and out
    assert calls == {"verify_orthogonality": 1, "diagonal_constraints": 1}


@pytest.mark.parametrize("values, built, evaluated", [
    (("--latin", "0,5,10,15,20", "--greek", "1,2,3,4,5"), 1, 0),
    ((), 0, 1),
])
def test_gen_builds_given_values_and_evaluates_solved_ones(
    capsys, monkeypatch, values, built, evaluated
):
    spies = []
    for module, name in (
        (construct, "build_square"), (cli_module, "evaluate"),
        (construct, "diagonal_constraints"),
    ):
        spies.append(mock.Mock(wraps=getattr(module, name)))
        monkeypatch.setattr(module, name, spies[-1])
    code, out, _ = cli(capsys, "gen", "--family", "e5.center", *values)
    assert code == 0 and out
    counts = [spy.call_count for spy in spies]
    assert (counts[0], counts[1], counts[2]) == (built, evaluated, 1)


def test_gen_argument_errors(capsys):
    assert cli(capsys, "gen", "--family", "e9.bogus")[0] == 2
    assert cli(capsys, "gen", "--family", "e3.reflect", "--latin", "0,6,3")[0] == 2
    assert cli(
        capsys, "gen", "--family", "e3.reflect", "--latin", "a,b,c",
        "--greek", "1,3,2",
    )[0] == 2
    assert cli(
        capsys, "gen", "--family", "e3.reflect", "--latin", "0,6",
        "--greek", "1,3,2",
    )[0] == 2
    assert cli(capsys, "gen", "--family", "e3.reflect", "--variant", "d")[0] == 2


def test_gen_reports_a_solver_with_no_assignment(capsys, monkeypatch):
    monkeypatch.setattr(construct, "solve_assignments", lambda constraints, x: iter(()))
    code, out, err = cli(capsys, "gen", "--family", "e3.reflect")
    assert (code, out) == (2, "")
    assert err == "error: family e3.reflect admits no satisfying assignment\n"


# --- verify ------------------------------------------------------------------

def test_verify_golden_file(capsys):
    code, out, err = cli(capsys, "verify", GOLDEN_E3)
    assert (code, err) == (0, "")
    assert "verdict: Magic" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    code, out, _ = cli(
        capsys, "verify", stdin="2 9 4\n7 5 3\n6 1 8\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert "verdict: Magic" in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    code, out, _ = cli(
        capsys, "verify", "-", stdin="9 2 4\n7 5 3\n6 1 8\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "verdict: NotMagic" in out
    assert "column 0: sum 22" in out


def test_verify_structured_output(capsys):
    code, out, _ = cli(capsys, "verify", GOLDEN_E3, "--format", "structured")
    assert code == 0
    assert json.loads(out)["verdict"] == "Magic"


def test_verify_missing_file(capsys):
    code, _, err = cli(capsys, "verify", str(DATA_DIR / "no_such_file.txt"))
    assert code == 2
    assert "error:" in err


def test_verify_rejects_bytes_that_are_not_utf8(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1\n\xff\xfe\n")))
    code, out, err = cli(capsys, "verify")
    assert (code, out) == (2, "")
    assert "not UTF-8" in err
    assert "byte offset 2" in err
    path = tmp_path / "square.txt"
    path.write_bytes(b"1\n\xff\xfe\n")
    assert cli(capsys, "verify", str(path)) == (code, out, err)


def test_verify_rejects_deeply_nested_document(capsys, monkeypatch):
    code, out, err = cli(
        capsys, "verify", stdin='{"cells": ' + "[" * 100000,
        monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert err == "error: invalid structured document: nested too deeply\n"


def test_verify_rejects_a_cells_row_that_is_not_a_list(capsys, monkeypatch):
    code, out, err = cli(
        capsys, "verify", stdin='{"cells": [1, 2]}', monkeypatch=monkeypatch
    )
    assert (code, out) == (2, "")
    assert err == "error: 'cells' row 0 is not a list\n"


def test_verify_text_report_lists_duplicate_values(capsys, monkeypatch):
    code, out, _ = cli(
        capsys, "verify", stdin="1 1 3\n4 5 6\n7 8 9\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert out.endswith("duplicate values:\n  1 at (0, 0), (0, 1)\n")


LO_SHU_DOCUMENT = {
    "cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]],
    "family": "e3.reflect",
    "latin_values": [0, 6, 3],
    "greek_values": [1, 3, 2],
}


def test_verify_rejects_bad_metadata_fields(capsys, monkeypatch):
    cells = LO_SHU_DOCUMENT["cells"]
    cases = (
        ({"family": "e9.bogus", "latin_values": [1]}, "'family' 'e9.bogus' is not a known family"),
        ({"family": "e4.diag"}, "'family' e4.diag has order 4, but 'cells' has 3 rows"),
        ({"latin_values": [0, 6]}, "'latin_values' has 2 values, expected one per letter (3)"),
        ({"greek_values": [1, 2, 3, 4]}, "'greek_values' has 4 values, expected one per letter (3)"),
    )
    for extra, message in cases:
        code, out, err = cli(
            capsys, "verify", stdin=json.dumps({"cells": cells, **extra}),
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "given, missing",
    [({"latin_values": [0, 0, 0]}, "greek_values"), ({"greek_values": [1, 3, 2]}, "latin_values")],
)
def test_verify_rejects_one_letter_value_list(capsys, monkeypatch, given, missing):
    document = {"cells": LO_SHU_DOCUMENT["cells"], "family": "e3.reflect", **given}
    code, out, err = cli(
        capsys, "verify", stdin=json.dumps(document), monkeypatch=monkeypatch
    )
    assert (code, out) == (2, "")
    assert err == f"error: '{missing}' is missing: give both letter-value lists, or neither\n"


def test_verify_rejects_letter_values_without_a_family(capsys, monkeypatch):
    document = {key: value for key, value in LO_SHU_DOCUMENT.items() if key != "family"}
    for fmt in ("text", "structured"):
        code, out, err = cli(
            capsys, "verify", "--format", fmt, stdin=json.dumps(document),
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err == "error: letter values need a 'family' to rebuild the square from\n"


@pytest.mark.parametrize("key", ["latin_values", "greek_values"])
def test_verify_rejects_letter_values_on_a_fixed_square(capsys, monkeypatch, key):
    document = {
        "cells": [list(row) for row in load_square("golden_e6_editor.txt").cells],
        "family": "e6.editor",
        key: [1, 2, 3, 4, 5, 6],
    }
    code, out, err = cli(
        capsys, "verify", stdin=json.dumps(document), monkeypatch=monkeypatch
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: '{key}' does not apply: e6.editor is a fixed square with no "
        "letter values\n"
    )


def test_verify_rebuilds_square_from_its_metadata(capsys, monkeypatch):
    code, out, err = cli(
        capsys, "verify", stdin=json.dumps(LO_SHU_DOCUMENT), monkeypatch=monkeypatch
    )
    assert (code, err) == (0, "")
    mirrored = {**LO_SHU_DOCUMENT, "cells": [[4, 9, 2], [3, 5, 7], [8, 1, 6]]}
    code, out, err = cli(
        capsys, "verify", stdin=json.dumps(mirrored), monkeypatch=monkeypatch
    )
    assert code == 1
    assert "verdict: Magic" in out
    assert err == (
        "error: cells do not match family e3.reflect with the given letter "
        "values: cell (0, 0) is 4, expected 2\n"
    )


def test_verify_accepts_every_generated_document(capsys, monkeypatch):
    checked = 0
    for family in FAMILIES.values():
        for variant in family.figures or ("c",):
            code, out, _ = cli(
                capsys, "gen", "--family", family.family_id, "--variant", variant,
                "--format", "structured",
            )
            if code:  # e6.paired repeats letter pairs
                continue
            assert cli(capsys, "verify", stdin=out, monkeypatch=monkeypatch)[0] == 0
            checked += 1
    assert checked == 11


FIGURES = [
    (family.family_id, figure)
    for family in FAMILIES.values()
    for figure in family.figures.values()
]


@settings(deadline=None)
@given(
    st.sampled_from(FIGURES),
    st.sampled_from(["text", "structured"]),
    st.data(),
)
def test_verify_reports_whatever_square_the_letter_values_make(named, fmt, data):
    # letter values that break a line condition, or a figure that repeats
    # letter pairs (e6.paired), give a square audited like any other
    family_id, figure = named
    x = figure.order
    latin = data.draw(st.permutations(range(0, x * x, x)))
    greek = data.draw(st.permutations(range(1, x + 1)))
    square = evaluate(figure, ValueAssignment(tuple(latin), tuple(greek)))
    document = {
        "cells": [list(row) for row in square.cells],
        "family": family_id,
        "latin_values": latin,
        "greek_values": greek,
    }
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(document))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["verify", "--format", fmt])
    report = verify_magic(square)
    assert code == (0 if report.verdict is Verdict.MAGIC else 1)
    assert (out.getvalue(), err.getvalue()) == (render(report, fmt) + "\n", "")


def test_verify_refuses_letter_values_that_are_not_permutations(capsys, monkeypatch):
    document = {**LO_SHU_DOCUMENT, "latin_values": [0, 3, 3]}
    code, out, err = cli(
        capsys, "verify", stdin=json.dumps(document), monkeypatch=monkeypatch
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: latin values must be a permutation of multiples of 3 (0..6), "
        "got [0, 3, 3]\n"
    )


def test_verify_rejects_oversized_integers(capsys, monkeypatch):
    big = "9" * 5000
    short = "9" * 16 + "..." + "9" * 16
    cases = (
        (f"1 2\n3 {big}\n", "line 2, column 2", short),
        (f'{{"cells": [[1, 2],\n  [3, -{big}]]}}', "cell (1, 1)", "-" + short[1:]),
        # the same digits earlier in a string do not move the position
        (f'{{"note": "{big}",\n "cells": [[{big}]]}}', "cell (0, 0)", short),
    )
    for text, where, token in cases:
        code, out, err = cli(capsys, "verify", stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == (
            f"error: integer at {where} has 5000 digits, more than 4300: {token}\n"
        )
        with pytest.raises(SquareParseError):
            parse_square(text)
    code, _, err = cli(
        capsys, "verify", stdin=f'{{"order": {big}, "cells": [[1]]}}',
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert err == (
        f"error: integer at 'order' has 5000 digits, more than 4300: {short}\n"
    )


def _verify_bytes(data: bytes) -> int:
    stdin = io.TextIOWrapper(io.BytesIO(data))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        return run(["verify", "-"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=20,
)
SQUARE_DOCUMENTS = st.fixed_dictionaries(
    {"cells": st.lists(st.lists(st.integers(-2, 20), max_size=5), max_size=5)},
    optional={
        "order": JSON_VALUES,
        "family": JSON_VALUES,
        "latin_values": JSON_VALUES,
        "greek_values": JSON_VALUES,
    },
)


@settings(deadline=None)
@given(st.binary())
def test_verify_fuzz_bytes(data):
    assert _verify_bytes(data) in (0, 1, 2)


@settings(deadline=None)
@given(JSON_VALUES | SQUARE_DOCUMENTS)
def test_verify_fuzz_json(value):
    assert _verify_bytes(json.dumps(value).encode("utf-8")) in (0, 1, 2)


def test_verify_bad_input(capsys, monkeypatch):
    code, _, err = cli(
        capsys, "verify", "-", stdin="1 2\n3\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "ragged grid at line 2" in err


# --- enumerate ---------------------------------------------------------------

def test_enumerate_lists_all_squares(capsys):
    code, out, _ = cli(capsys, "enumerate", "--family", "e3.reflect")
    assert code == 0
    assert out == "\n\n".join(E3_GRIDS) + "\n"


def test_enumerate_dihedral_dedup(capsys):
    code, out, _ = cli(
        capsys, "enumerate", "--family", "e3.reflect", "--dedup", "dihedral"
    )
    assert code == 0
    assert out == E3_GRIDS[0] + "\n"


# sha256 of the e5.diag dihedral listing on stdout, in each format
E5_DIHEDRAL_DIGESTS = {
    "text": "655ff9e18d30141f12dc1627f350490938f1c421b93c2f00f3ed28eaf848ff99",
    "structured": "ddeae8381a1ffc3ddf470b2c774403e1234ec4be4e72579fa75728616b9be006",
}


@pytest.mark.parametrize("fmt", sorted(E5_DIHEDRAL_DIGESTS))
def test_enumerate_dihedral_listing_is_pinned(capsys, fmt):
    code, out, _ = cli(
        capsys, "enumerate", "--family", "e5.diag", "--dedup", "dihedral",
        "--format", fmt,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == E5_DIHEDRAL_DIGESTS[fmt]


# sha256 of the full oracle listings on stdout, per order and format
ORACLE_LISTING_DIGESTS = {
    (3, "text"): "6faaf1fcca8e48b0cea925dac261863d33a3a661f4b6494171743f4c217e6591",
    (3, "structured"): "f229f8f00bdaa4afd08d86a2b84f98b26a7358db0af757227d4fb464c69f256b",
    (4, "text"): "8598dde3b187d85f87dc20c8cb8fa08769591e46f01b33fb1f8b2873682ba475",
    (4, "structured"): "eaf61f8203f045816e68c2c60e7b3369cb46e17220a60b3658c566de10c64822",
}


@pytest.mark.parametrize("order, fmt", sorted(ORACLE_LISTING_DIGESTS))
def test_oracle_listing_is_pinned(capsys, order, fmt):
    code, out, _ = cli(capsys, "oracle", "--order", str(order), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_LISTING_DIGESTS[order, fmt]


# the full oracle listings of orders 1 and 2: one square of one one-digit
# cell, and no square at all
ORACLE_SMALL_LISTINGS = {
    (1, "text"): "1\n",
    (1, "structured"): (
        '{\n  "order": 1,\n  "count": 1,\n  "squares": [\n    [\n      [\n'
        '        1\n      ]\n    ]\n  ]\n}\n'
    ),
    (2, "text"): "",
    (2, "structured"): '{\n  "order": 2,\n  "count": 0,\n  "squares": []\n}\n',
}


@pytest.mark.parametrize("order, fmt", sorted(ORACLE_SMALL_LISTINGS))
def test_oracle_listing_of_orders_one_and_two(capsys, order, fmt):
    code, out, _ = cli(capsys, "oracle", "--order", str(order), "--format", fmt)
    assert (code, out) == (0, ORACLE_SMALL_LISTINGS[order, fmt])


@given(st.integers(1, 6).flatmap(
    lambda x: st.lists(st.permutations(range(1, x * x + 1)).map(tuple), min_size=1, max_size=3)
))
def test_listing_templates_match_grid_text_and_json(flats):
    x = isqrt(len(flats[0]))
    grids = [_unflat(flat, x) for flat in flats]
    header = {"family": "e5.diag"}
    expected = {
        "text": "\n\n".join(cli_module._grid_text(cells) for cells in grids) + "\n",
        "structured": json.dumps(
            {**header, "count": len(grids), "squares": [[list(r) for r in g] for g in grids]},
            indent=2,
        ) + "\n",
    }
    for fmt, text in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_module._print_squares(iter(flats), fmt, header)
        assert out.getvalue() == text


@pytest.mark.parametrize("fmt", cli_module._FORMATS)
@pytest.mark.parametrize("x", [1, 3, 4, 10])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_block_writer_matches_grid_text_and_json_at_block_edges(x, blocks, extra, fmt):
    # square k holds 1..x*x shifted by k, so neighbouring squares differ
    size = blocks * cli_module._BLOCK + extra
    flats = [tuple((v + k) % (x * x) + 1 for v in range(x * x)) for k in range(size)]
    grids = [_unflat(flat, x) for flat in flats]
    header = {"order": x}
    if fmt == "text":
        expected = "\n\n".join(cli_module._grid_text(cells) for cells in grids) + "\n" if grids else ""
    else:
        squares = [[list(row) for row in cells] for cells in grids]
        expected = json.dumps({**header, "count": len(grids), "squares": squares}, indent=2) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_module._print_squares(iter(flats), fmt, header)
    assert out.getvalue() == expected


class _CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", sorted(E5_DIHEDRAL_DIGESTS))
def test_listing_takes_one_write_per_block(fmt):
    # 3,600 classes: the head with the first square, ceil(3599 / _BLOCK) blocks, the tail
    out = _CountingStdout()
    with contextlib.redirect_stdout(out):
        code = run(["enumerate", "--family", "e5.diag", "--dedup", "dihedral", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == E5_DIHEDRAL_DIGESTS[fmt]
    assert out.writes <= -(-3600 // cli_module._BLOCK) + 2


@given(st.integers(1, 6).flatmap(
    lambda x: st.lists(st.lists(st.integers(), min_size=x, max_size=x), min_size=x, max_size=x)
))
def test_text_grid_right_aligns_every_value_to_the_widest(rows):
    cells = tuple(map(tuple, rows))
    width = max(len(str(value)) for row in cells for value in row)
    expected = "\n".join(" ".join(str(value).rjust(width) for value in row) for row in cells)
    assert render(SquareDocument(len(cells), cells), "text") == expected


def test_enumerate_count_only(capsys):
    code, out, _ = cli(
        capsys, "enumerate", "--family", "e3.reflect", "--count-only"
    )
    assert code == 0
    assert out == (
        "family: e3.reflect\n"
        "assignments: 4\n"
        "distinct squares: 4\n"
        "distinct squares up to symmetry: 1\n"
    )


def test_enumerate_structured(capsys):
    code, out, _ = cli(
        capsys, "enumerate", "--family", "e3.reflect", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "e3.reflect"
    assert payload["count"] == 4
    assert payload["squares"][0] == [[2, 9, 4], [7, 5, 3], [6, 1, 8]]


def test_enumerate_structured_count_only(capsys):
    code, out, _ = cli(
        capsys,
        "enumerate", "--family", "e3.reflect", "--count-only",
        "--format", "structured",
    )
    assert code == 0
    assert json.loads(out)["assignments_total"] == 4


def test_enumerate_paired_family_exits_one(capsys):
    code, _, err = cli(capsys, "enumerate", "--family", "e6.paired")
    assert code == 1
    assert "repeats letter pairs" in err


def test_enumerate_editor_family_is_an_error(capsys):
    code, _, err = cli(capsys, "enumerate", "--family", "e6.editor")
    assert code == 2
    assert "use gen" in err


# --- constraints -------------------------------------------------------------

def test_constraints_text(capsys):
    code, out, _ = cli(capsys, "constraints", "--family", "e4.rotated")
    assert code == 0
    assert out == "b+c = a+d\nα+δ = β+γ\n"


def test_constraints_empty(capsys):
    code, out, _ = cli(capsys, "constraints", "--family", "e4.diag")
    assert code == 0
    assert out == "(none)\n"


def test_constraints_structured(capsys):
    code, out, _ = cli(
        capsys, "constraints", "--family", "e5.rotated", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "e5.rotated"
    assert [c["text"] for c in payload["constraints"]] == [
        "2c+2δ = a+e+α+γ",
        "2a+2ε = d+e+γ+δ",
    ]
    assert payload["constraints"][0]["latin"] == [-1, 0, 2, 0, -1]
    assert payload["constraints"][0]["greek"] == [-1, 0, -1, 2, 0]


def test_constraints_paired_family_exits_one(capsys):
    code, out, err = cli(capsys, "constraints", "--family", "e6.paired")
    assert (code, out) == (1, "")
    assert "repeats letter pairs" in err


def test_constraints_unknown_family(capsys):
    assert cli(capsys, "constraints", "--family", "nope")[0] == 2


# --- one exit code per family, whatever the subcommand ---------------------------

EXIT_CODE_COMMANDS = (
    ("gen",),
    ("gen", "--variant", "d"),
    ("constraints",),
    ("constraints", "--variant", "d"),
    ("enumerate", "--count-only"),
    ("enumerate", "--count-only", "--variant", "d"),
)

EXIT_CODES = {
    "e3.reflect": (0, 2, 0, 2, 0, 2),
    "e3.rotated": (0, 2, 0, 2, 0, 2),
    "e4.diag": (0, 0, 0, 0, 0, 0),
    "e4.rotated": (0, 2, 0, 2, 0, 2),
    "e4.block": (0, 2, 0, 2, 0, 2),
    "e4.interleave": (0, 2, 0, 2, 0, 2),
    "e5.diag": (0, 2, 0, 2, 0, 2),
    "e5.rotated": (0, 2, 0, 2, 0, 2),
    "e5.center": (0, 2, 0, 2, 0, 2),
    "e6.paired": (1, 2, 1, 2, 1, 2),
    "e6.editor": (0, 2, 2, 2, 2, 2),
    "e9.unknown": (2, 2, 2, 2, 2, 2),
}


def test_exit_code_matrix(capsys):
    assert list(EXIT_CODES)[:-1] == list(FAMILIES)
    for family_id, expected in EXIT_CODES.items():
        codes = tuple(
            cli(capsys, command[0], "--family", family_id, *command[1:])[0]
            for command in EXIT_CODE_COMMANDS
        )
        assert codes == expected, family_id


@pytest.mark.parametrize(
    "family_id, variants", [("e4.diag", "c, d"), ("e3.reflect", "c")]
)
@pytest.mark.parametrize(
    "command", [("gen",), ("constraints",), ("enumerate",), ("enumerate", "--count-only")]
)
def test_unknown_variant_fails_like_a_missing_one(capsys, command, family_id, variants):
    code, out, err = cli(
        capsys, command[0], "--family", family_id, *command[1:], "--variant", "zz"
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: variant 'zz' does not apply to {family_id} (variants: {variants})\n"
    )


def test_paired_family_fails_before_argument_pairing(capsys):
    code, _, err = cli(capsys, "gen", "--family", "e6.paired", "--latin", "0,6")
    assert code == 1
    assert "repeats letter pairs" in err


# --- oracle --------------------------------------------------------------------

def test_oracle_order_three_output(capsys):
    code, out, _ = cli(capsys, "oracle", "--order", "3")
    assert code == 0
    blocks = out.rstrip("\n").split("\n\n")
    assert len(blocks) == 8
    parsed = [Square(parse_square(block).cells) for block in blocks]
    expected = {Square(c) for c in dihedral_images(((2, 9, 4), (7, 5, 3), (6, 1, 8)))}
    assert set(parsed) == expected
    assert [s.cells for s in parsed] == sorted(s.cells for s in parsed)


def test_oracle_count_only(capsys):
    code, out, _ = cli(capsys, "oracle", "--order", "3", "--count-only")
    assert code == 0
    assert out == "order: 3\nsquares: 8\n"


def test_oracle_structured_count(capsys):
    code, out, _ = cli(
        capsys, "oracle", "--order", "2", "--count-only", "--format", "structured"
    )
    assert code == 0
    assert json.loads(out) == {"order": 2, "count": 0}


def test_oracle_rejects_large_orders(capsys):
    code, _, err = cli(capsys, "oracle", "--order", "9")
    assert code == 2
    assert "capped" in err
    assert cli(capsys, "oracle", "--order", "0")[0] == 2


@pytest.mark.parametrize("order", ["\uff13", " 3_0", "3.0", "", " 3", "3 "])
def test_oracle_order_takes_only_ascii_decimal_integers(capsys, order):
    code, out, err = cli(capsys, "oracle", "--order", order, "--count-only")
    assert code == 2
    assert out == ""
    assert err == f"error: invalid integer {order!r} at --order\n"


# --- families and usage ----------------------------------------------------------

def test_families_listing(capsys):
    code, out, _ = cli(capsys, "families")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == len(FAMILIES) == 11
    assert [line.split()[0] for line in lines] == list(FAMILIES)
    assert all("order" in line for line in lines)


def test_usage_errors(capsys):
    assert cli(capsys)[0] == 2
    assert cli(capsys, "gen")[0] == 2
    assert cli(capsys, "bogus")[0] == 2
    assert cli(capsys, "verify", GOLDEN_E3, "--format", "yaml")[0] == 2


def test_closed_stdout_ends_quietly():
    with subprocess.Popen(
        [sys.executable, "-m", "latinmagic", "enumerate", "--family", "e5.diag"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    ) as child:
        # far more than a pipe holds, so the child is still writing
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141
    assert first.split() == [b"5", b"9", b"13", b"17", b"21"]
    assert err == b""


def test_cli_import_leaves_out_fractions_and_decimal():
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, latinmagic.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))",
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert loaded.stdout == "[]\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # pytest imports both itself, so only a fresh interpreter can tell;
    # the baseline is what a bare interpreter loads in the same environment
    def loaded(code: str) -> set[str]:
        child = subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
            capture_output=True, text=True, env=CHILD_ENV, check=True,
        )
        return set(child.stdout.split())

    added = loaded("import latinmagic.cli") - loaded("pass")
    assert "latinmagic.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


def test_cli_import_loads_no_json():
    # text-format calls never need json; structured input and output import it
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; before = set(sys.modules); import latinmagic.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m == 'json' or m.startswith('json.')))",
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert loaded.stdout == "[]\n"


def test_a_clean_interpreter_imports_the_cli_without_typing():
    # -S: a site .pth may load typing before the package, hiding it from a baseline
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, latinmagic.cli; print('typing' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert loaded.stdout == "False\n"


@pytest.mark.parametrize("argv, executed", [
    ((), False),
    (("families",), False),
    (("gen", "--family", "e5.center"), False),
    (("verify", GOLDEN_E3), False),
    (("constraints", "--family", "e4.diag"), False),
    (("enumerate", "--family", "e4.diag", "--count-only"), True),
    (("oracle", "--order", "3", "--count-only"), True),
])
def test_only_enumerate_and_oracle_run_the_enumeration_module(argv, executed):
    # the import registers enumeration lazily; a lazy module's type becomes
    # ModuleType only once its source has run, and reading the type runs nothing
    child = subprocess.run(
        [
            sys.executable, "-c",
            "import contextlib, io, sys, types; import latinmagic.cli; argv = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = latinmagic.cli.run(argv) if argv else 0\n"
            "print(code, type(sys.modules['latinmagic.enumeration']) is types.ModuleType)",
            *argv,
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert child.stdout == f"0 {executed}\n"


TRANSCRIPT_INPUTS = Path(__file__).parent / "transcript_inputs"


@pytest.mark.parametrize("argv, executed", [
    ((), False),
    (("verify", GOLDEN_E3), False),
    (("verify", str(TRANSCRIPT_INPUTS / "lo_shu_bom.json")), False),
    (("oracle", "--order", "3", "--count-only"), False),
    (("families",), True),
    (("gen", "--family", "e5.center"), True),
    (("constraints", "--family", "e4.diag"), True),
    (("enumerate", "--family", "e4.diag", "--count-only"), True),
    (("verify", str(TRANSCRIPT_INPUTS / "e4_diag_c.json")), True),
])
def test_only_commands_that_read_a_family_run_the_construct_module(argv, executed):
    # as for enumeration above: construct is registered lazily, and a
    # structured document runs it only when it names a "family"
    child = subprocess.run(
        [
            sys.executable, "-c",
            "import contextlib, io, sys, types; import latinmagic.cli; argv = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = latinmagic.cli.run(argv) if argv else 0\n"
            "print(code, type(sys.modules['latinmagic.construct']) is types.ModuleType)",
            *argv,
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert child.stdout == f"0 {executed}\n"


def test_a_fresh_cli_exits_1_for_a_figure_with_repeated_pairs():
    # construct raises the error class that cli.run catches; both take it from verify
    child = subprocess.run(
        [sys.executable, "-m", "latinmagic", "gen", "--family", "e6.paired"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == (
        "error: figure repeats letter pairs: bβ at (2, 2), (3, 3), "
        "eε at (2, 3), (3, 2), so it is not enumerable\n"
    )


def test_cli_import_registers_every_submodule():
    # perfbench/spans.py reads each traced module from sys.modules, so none may
    # be missing from it after the CLI's import, lazy or not
    child = subprocess.run(
        [sys.executable, "-c", "import sys, latinmagic.cli; print(*sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    submodules = {f"latinmagic.{name}" for name in ("cli", "construct", "enumeration", "model", "verify")}
    assert submodules <= set(child.stdout.split())


def test_main_exits_with_run_code(capsys, monkeypatch):
    from latinmagic.cli import main

    monkeypatch.setattr("sys.argv", ["latinmagic", "families"])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic garbage collector switched on or off, and restored after."""
    saved = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if saved else gc.disable)()


def test_python_m_latinmagic_runs_without_the_cyclic_collector():
    # runpy runs __main__.py as python -m does, in a fresh interpreter whose collector is on
    child = subprocess.run(
        [
            sys.executable, "-c",
            "import gc, runpy, sys\n"
            "sys.argv = ['latinmagic', 'families']\n"
            "try:\n"
            "    runpy.run_module('latinmagic', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass\n"
            "sys.stderr.write(str(gc.isenabled()))\n",
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert child.stderr == "False"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["families"], 0),
    (["gen", "--family", "e4.diag", "--variant", "zz"], 2),
])
def test_run_leaves_the_cyclic_collector_as_it_found_it(capsys, enabled, argv, code):
    with collector(enabled):
        assert run(argv) == code
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_main_runs_the_command_without_the_cyclic_collector(monkeypatch, enabled):
    seen = []

    def spy(argv):
        seen.append((argv, gc.isenabled()))
        return 0

    monkeypatch.setattr("sys.argv", ["latinmagic", "families"])
    monkeypatch.setattr(cli_module, "run", spy)
    with collector(enabled):
        with pytest.raises(SystemExit) as info:
            cli_module.main()
        assert gc.isenabled() is enabled
    assert info.value.code == 0
    assert seen == [(["families"], False)]


@pytest.mark.parametrize("entry", [
    "runpy.run_module('latinmagic', run_name='__main__')",
    "latinmagic.cli.main()",
], ids=["python-m", "console-script"])
def test_main_freezes_the_heap_for_the_exit_collections(entry):
    # atexit runs its callbacks last in, first out: the probe, registered
    # before main, sees the heap after main's callback has run
    child = subprocess.run(
        [
            sys.executable, "-c",
            "import atexit, gc, runpy, sys, latinmagic.cli\n"
            "atexit.register(lambda: sys.stderr.write(str(gc.get_freeze_count() > 0)))\n"
            "sys.argv = ['latinmagic', 'families']\n"
            "try:\n"
            f"    {entry}\n"
            "except SystemExit:\n"
            "    pass\n",
        ],
        capture_output=True, text=True, env=CHILD_ENV, check=True,
    )
    assert child.stdout
    assert child.stderr == "True"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_heap_unfrozen_until_exit(monkeypatch, enabled):
    monkeypatch.setattr("sys.argv", ["latinmagic", "families"])
    monkeypatch.setattr(cli_module, "run", lambda argv: 0)
    frozen = gc.get_freeze_count()
    with collector(enabled):
        with pytest.raises(SystemExit):
            cli_module.main()
        assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen
