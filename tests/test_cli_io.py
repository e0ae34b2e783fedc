"""Command line edges: closed standard streams, the one integer cap, formats."""
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latinmagic import Square, verify_magic
from latinmagic.cli import SquareDocument, SquareParseError, _integer, parse_square, render, run
from test_cli import CHILD_ENV, GOLDEN_E3

NINES = "9" * 5000


def latinmagic_child(*argv, env=CHILD_ENV, close=None, input=None):
    """Run the CLI in a fresh interpreter, with file descriptor `close` shut."""
    return subprocess.run(
        [sys.executable, "-m", "latinmagic", *argv],
        input=input,
        stdout=None if close == 1 else subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        preexec_fn=None if close is None else (lambda: os.close(close)),
        timeout=60,
    )


def test_verify_with_stdin_closed_exits_two():
    child = latinmagic_child("verify", close=0)
    assert child.returncode == 2
    assert (child.stdout, child.stderr) == (b"", b"error: stdin is closed\n")


def test_verify_of_a_file_needs_no_stdin():
    child = latinmagic_child("verify", GOLDEN_E3, close=0)
    assert (child.returncode, child.stderr) == (0, b"")
    assert b"verdict: Magic\n" in child.stdout


@pytest.mark.parametrize("argv", [["verify"], ["verify", "-"]])
def test_verify_reads_a_text_only_stdin(capsys, monkeypatch, argv):
    with open(GOLDEN_E3, encoding="utf-8") as handle:
        monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert ("verdict: Magic\n" in out, err) == (True, "")


def test_families_with_stdout_closed_exits_two():
    child = latinmagic_child("families", close=1)
    assert child.returncode == 2
    assert child.stderr == b"error: stdout is closed\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("oracle", "--order", NINES), "--order"),
        (("gen", "--family", "e3.reflect", "--latin", f"{NINES},0,3", "--greek", "1,3,2"),
         "--latin"),
        (("gen", "--family", "e3.reflect", "--latin", "0,6,3", "--greek", f"1,{NINES},2"),
         "--greek"),
    ],
)
def test_integer_flags_are_capped_whatever_the_interpreter_allows(argv, flag):
    child = latinmagic_child(*argv, env={**CHILD_ENV, "PYTHONINTMAXSTRDIGITS": "0"})
    assert (child.returncode, child.stdout) == (2, b"")
    assert child.stderr.startswith(f"error: integer at {flag} ".encode())
    assert child.stderr.count(b"\n") == 1
    assert len(child.stderr) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "e3.reflect"),
        ("enumerate", "--family", "e3.reflect"),
        ("constraints", "--family", "e3.reflect"),
        ("oracle", "--order", "3"),
    ],
)
def test_unknown_format_is_a_usage_error(capsys, argv):
    assert run([*argv, "--format", "yaml"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --format: invalid choice: 'yaml'" in err


@pytest.mark.parametrize("command", ["gen", "enumerate", "constraints"])
def test_family_flag_help_is_shown_by_every_family_command(capsys, command):
    assert run([command, "--help"]) == 0
    assert "family id, see 'families'" in capsys.readouterr().out


def test_render_names_both_formats():
    with pytest.raises(ValueError) as info:
        render(SquareDocument(order=1, cells=((1,),)), "yaml")
    assert str(info.value) == "format must be 'text' or 'structured', got 'yaml'"


@pytest.mark.parametrize("fmt, shown", [
    ("y" * 100000, "'yyyyyyyyyyyyyyy...yyyyyyyyyyyyyyy'"),
    (10 ** 5000, "1000000000000000...0000000000000000"),
], ids=["long string", "huge int"])
def test_render_shortens_a_hostile_format(fmt, shown):
    with pytest.raises(ValueError) as info:
        render(SquareDocument(order=1, cells=((1,),)), fmt)
    assert str(info.value) == f"format must be 'text' or 'structured', got {shown}"


LONG = "9" * 4300
LO_SHU_WITH_LONG_VALUE = (
    '{"order": 3, "cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]], "family": "e3.reflect", '
    f'"latin_values": [{LONG}, 6, 3], "greek_values": [1, 3, 2]}}'
)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["oracle", "--order", LONG], None),
        (["oracle", "--order", f"-{LONG}"], None),
        (["gen", "--family", "e3.reflect", "--latin", f"{LONG},0,3", "--greek", "1,3,2"], None),
        (["gen", "--family", "e3.reflect", "--latin", "0,6,3", "--greek", f"{LONG},3,2"], None),
        (["verify"], LO_SHU_WITH_LONG_VALUE),
    ],
    ids=["order", "negative order", "latin", "greek", "verify latin_values"],
)
def test_library_messages_shorten_a_long_integer(capsys, monkeypatch, argv, stdin):
    # values of up to 4,300 digits pass the CLI's own cap and reach the library
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "999...999" in err


BOM = "\ufeff".encode()
LO_SHU_GRID = b"2 9 4\n7 5 3\n6 1 8\n"
LO_SHU_JSON = b'{\n  "order": 3,\n  "cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]]\n}\n'


def verify_bytes(capsys, monkeypatch, tmp_path, data, source, fmt="text"):
    """(exit code, stdout, stderr) of verify reading data from a path or stdin."""
    if source == "path":
        path = tmp_path / "square"
        path.write_bytes(data)
        argv = ["verify", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        argv = ["verify", "-"]
    code = run([*argv, "--format", fmt])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize("square", [LO_SHU_GRID, LO_SHU_JSON], ids=["grid", "json"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_verify_drops_a_leading_byte_order_mark(capsys, monkeypatch, tmp_path, source, square, fmt):
    plain = verify_bytes(capsys, monkeypatch, tmp_path, square, source, fmt)
    marked = verify_bytes(capsys, monkeypatch, tmp_path, BOM + square, source, fmt)
    assert marked == plain
    assert plain[0] == 0 and "\ufeff" not in plain[1]


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize(
    "data, message",
    [
        (BOM * 2 + LO_SHU_GRID, "invalid integer '\\ufeff2' at line 1, column 1"),
        (BOM * 2 + LO_SHU_JSON, "ragged grid at line 1: expected 4 cells, found 1"),
        (b"2 9 4\n7 " + BOM + b"5 3\n6 1 8\n", "invalid integer '\\ufeff5' at line 2, column 2"),
        (BOM + b"2 9 4\n\xff\n", "input is not UTF-8: invalid start byte at byte offset 9"),
    ],
    ids=["two marks", "two marks before json", "mark inside a row", "bad byte after a mark"],
)
def test_verify_keeps_any_other_byte_order_mark(capsys, monkeypatch, tmp_path, source, data, message):
    assert verify_bytes(capsys, monkeypatch, tmp_path, data, source) == (2, "", f"error: {message}\n")


LONG_NAME = "x" * 5000


@pytest.mark.parametrize(
    "command", [["gen"], ["constraints"], ["enumerate", "--count-only"]],
    ids=["gen", "constraints", "enumerate"],
)
@pytest.mark.parametrize(
    "names", [[LONG_NAME], ["e4.diag", "--variant", LONG_NAME]], ids=["family", "variant"]
)
def test_a_long_family_or_variant_is_shortened_in_the_error(capsys, command, names):
    assert run([command[0], "--family", *names, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert f"'{'x' * 15}...{'x' * 15}'" in err


LONG_VALUE = "x" * 100_000
SHORTENED = f"'{'x' * 16}...{'x' * 16}'"


def test_a_long_path_is_shortened_in_the_error(capsys):
    assert run(["verify", LONG_VALUE]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: [Errno ")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.endswith(f": {SHORTENED}\n")


def test_a_short_missing_path_is_named_whole(capsys):
    path = "tests/data/no_such_file.txt"
    assert run(["verify", path]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {path!r}\n")


@pytest.mark.parametrize(
    "argv, limit",
    # the usage takes 56 bytes for verify and 135, on two lines, for gen
    [(["verify"], 200), (["gen", "--family", "e4.diag"], 300)],
    ids=["verify", "gen"],
)
def test_a_long_format_is_shortened_in_the_usage_error(capsys, monkeypatch, argv, limit):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([*argv, "--format", LONG_VALUE]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage:")
    assert len(err.encode()) < limit
    assert f"argument --format: invalid choice: {SHORTENED}" in err


def test_a_long_cell_is_shortened_in_the_provenance_error(capsys, monkeypatch):
    document = (
        f'{{"cells": [[{LONG}, 9, 4], [7, 5, 3], [6, 1, 8]], "family": "e3.reflect", '
        '"latin_values": [0, 6, 3], "greek_values": [1, 3, 2]}'
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    assert run(["verify"]) == 1
    out, err = capsys.readouterr()
    assert "verdict: NotMagic\n" in out
    assert err == (
        "error: cells do not match family e3.reflect with the given letter values: "
        f"cell (0, 0) is {'9' * 16}...{'9' * 16}, expected 2\n"
    )


# three cells at the cap in row 0, whose sum 24 * (10**4300 - 1) / 9 has 4,301 digits
AT_CAP = ["9" * 4300, "8" * 4300, "7" * 4300]
AT_CAP_ROWS = [AT_CAP, ["4", "5", "6"], ["1", "2", "3"]]
AT_CAP_GRID = "".join(" ".join(row) + "\n" for row in AT_CAP_ROWS).encode()
AT_CAP_JSON = ('{"cells": [' + ", ".join(f"[{', '.join(row)}]" for row in AT_CAP_ROWS) + "]}").encode()
AT_CAP_ROW_SUM = "2" + "6" * 4299 + "4"


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize("square", [AT_CAP_GRID, AT_CAP_JSON], ids=["grid", "json"])
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_verify_reports_on_cells_at_the_cap(capsys, monkeypatch, tmp_path, source, square, fmt):
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, square, source, fmt)
    assert (code, err) == (1, "")
    if fmt == "text":
        assert "verdict: NotMagic\n" in out
        assert f"  row 0: sum {AT_CAP_ROW_SUM}\n" in out
    else:
        # str, since the test's own interpreter keeps its integer limit
        report = json.loads(out, parse_int=str)
        assert (report["verdict"], report["line_sums"]["row 0"]) == ("NotMagic", AT_CAP_ROW_SUM)


@pytest.mark.parametrize("signs", ["--", "+-"])
def test_a_long_token_with_two_signs_is_an_invalid_integer(capsys, monkeypatch, tmp_path, signs):
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, (signs + NINES).encode(), "stdin")
    assert (code, out) == (2, "")
    assert err == f"error: invalid integer '{signs}{'9' * 14}...{'9' * 16}' at line 1, column 1\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("source", ["path", "stdin"])
@pytest.mark.parametrize("key", ["latin_values", "greek_values"])
def test_a_long_letter_value_is_named_with_its_place(capsys, monkeypatch, tmp_path, source, key):
    lists = {"latin_values": "[0, 6, 3]", "greek_values": "[1, 3, 2]"}
    lists[key] = f"[1, {'9' * 4301}, 2]"
    document = (
        '{"cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]], "family": "e3.reflect", '
        + ", ".join(f'"{name}": {values}' for name, values in lists.items())
        + "}"
    ).encode()
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, document, source)
    assert (code, out) == (2, "")
    assert err == (
        f"error: integer at '{key}' value 1 has 4301 digits, more than 4300: "
        f"{'9' * 16}...{'9' * 16}\n"
    )


OVER_CAP = "9" * 4301


@pytest.mark.parametrize(
    "square, where",
    [
        (f"1 2\n3 {OVER_CAP}\n", "line 2, column 2"),
        (f'{{"cells": [[1, 2], [3, {OVER_CAP}]]}}', "cell (1, 1)"),
    ],
    ids=["grid", "json"],
)
def test_one_digit_over_the_cap_is_refused_with_its_place(capsys, monkeypatch, tmp_path, square, where):
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, square.encode(), "stdin")
    assert (code, out) == (2, "")
    assert err == f"error: integer at {where} has 4301 digits, more than 4300: {'9' * 16}...{'9' * 16}\n"


def test_an_over_cap_letter_value_is_refused_before_a_non_integer_ahead_of_it(capsys, monkeypatch, tmp_path):
    document = (
        '{"cells": [[2, 9, 4], [7, 5, 3], [6, 1, 8]], "family": "e3.reflect", '
        f'"latin_values": ["x", {OVER_CAP}, 3], "greek_values": [1, 3, 2]}}'
    ).encode()
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, document, "stdin")
    assert (code, out) == (2, "")
    assert err == (
        "error: integer at 'latin_values' value 1 has 4301 digits, more than 4300: "
        f"{'9' * 16}...{'9' * 16}\n"
    )


# a long literal where no integer check reaches it is shown by its length
@pytest.mark.parametrize(
    "document, message",
    [
        (f'{{"cells": [[1]], "family": {NINES}}}', "'family' must be a string, got <5000-digit integer>"),
        (f'{{"cells": [[1]], "order": [{NINES}]}}', "'order' is [<5000-digit integer>] but 'cells' has 1 rows"),
        (f'{{"cells": [[[{NINES}]]]}}', "cell (0, 0) is not an integer: [<5000-digit integer>]"),
    ],
    ids=["family", "order-list", "cell-list"],
)
def test_a_long_literal_out_of_place_is_shown_by_its_digits(capsys, monkeypatch, tmp_path, document, message):
    code, out, err = verify_bytes(capsys, monkeypatch, tmp_path, document.encode(), "stdin")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 200


# int() would also read the other scripts' digits, "_" and the padding
TOKEN_CHARS = "0123456789\u0668\uff18_+- "
# any mix of those, or a head, a run of ASCII digits (short, or 4,299 to
# 4,302 long) and a tail
TOKENS = st.text(TOKEN_CHARS, max_size=12) | st.builds(
    lambda head, digits, tail: head + digits + tail,
    st.sampled_from(["", "+", "-", "--", "+-", " ", "_", "\u0668"]),
    st.text("0123456789", min_size=1, max_size=6)
    | st.builds(lambda digit, count: digit * count, st.sampled_from("059"), st.integers(4299, 4302)),
    st.text(TOKEN_CHARS, max_size=2),
)


@settings(deadline=None)
@given(TOKENS, st.sampled_from(["line 3, column 2", "cell (0, 1)", "--order"]))
@example("+" + "9" * 4300, "--order")
@example("-" + "9" * 4301, "cell (0, 1)")
def test_integer_matches_reference(token, where):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # int() reads up to 4,300 digits under any PYTHONINTMAXSTRDIGITS
    try:
        if re.fullmatch(r"[+-]?[0-9]+", token) and len(token.lstrip("+-")) <= 4300:
            assert _integer(token, where) == int(token)
        else:
            with pytest.raises(SquareParseError) as info:
                _integer(token, where)
            assert where in str(info.value)
    finally:
        sys.set_int_max_str_digits(limit)


DEFAULT_LIMIT_ENV = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONINTMAXSTRDIGITS"}
LOW_LIMIT_ENV = {**DEFAULT_LIMIT_ENV, "PYTHONINTMAXSTRDIGITS": "640"}
THOUSAND = "9" * 1000


def default_and_low_limit(*argv, input=None):
    """(exit code, stdout, stderr) of a child under the default integer limit and under 640."""
    return [
        (child.returncode, child.stdout, child.stderr)
        for child in (latinmagic_child(*argv, env=env, input=input) for env in (DEFAULT_LIMIT_ENV, LOW_LIMIT_ENV))
    ]


@pytest.mark.parametrize(
    "square",
    [f"{THOUSAND} 9 4\n7 5 3\n6 1 8\n".encode(), f'{{"cells": [[{THOUSAND}, 9, 4], [7, 5, 3], [6, 1, 8]]}}'.encode()],
    ids=["grid", "json"],
)
def test_verify_ignores_the_interpreters_integer_limit(square):
    default, low = default_and_low_limit("verify", input=square)
    assert low == default
    assert default[0] == 1 and b"verdict: NotMagic\n" in default[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--order", THOUSAND),
        ("gen", "--family", "e3.reflect", "--latin", f"{THOUSAND},0,3", "--greek", "1,3,2"),
    ],
    ids=["order", "latin"],
)
def test_integer_flags_ignore_the_interpreters_integer_limit(argv):
    default, low = default_and_low_limit(*argv)
    assert low == default
    # the library's own message, not the flag's "expects an integer"
    assert default[0] == 2 and b"expects" not in default[2] and b"999...999" in default[2]


@pytest.fixture
def low_int_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "argv, stdin, code, printed",
    [
        (["verify"], AT_CAP_GRID.decode(), 1, "verdict: NotMagic"),
        (["gen", "--family", "e3.reflect", "--latin", f"{THOUSAND},0,3", "--greek", "1,3,2"], "", 2,
         f"error: latin values must be a permutation of multiples of 3 (0..6), got [{'9' * 16}...{'9' * 16}, 0, 3]"),
    ],
    ids=["verify", "gen"],
)
def test_run_restores_the_interpreters_integer_limit(capsys, monkeypatch, low_int_limit, argv, stdin, code, printed):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(argv) == code
    assert sys.get_int_max_str_digits() == 640
    assert printed in "".join(capsys.readouterr())


def test_run_lifts_the_interpreters_limit_only_while_a_command_runs(monkeypatch, low_int_limit):
    seen = []

    def broken(args):
        seen.append(sys.get_int_max_str_digits())
        raise RuntimeError("broken")

    monkeypatch.setattr("latinmagic.cli._cmd_families", broken)
    with pytest.raises(RuntimeError):
        run(["families"])
    assert (seen, sys.get_int_max_str_digits()) == ([0], 640)


def test_parse_square_ignores_the_interpreters_integer_limit(low_int_limit):
    doc = parse_square(THOUSAND + " 1\n2 3")
    assert (doc.order, doc.cells[0][0]) == (2, 10**1000 - 1)


# AT_CAP_ROWS as integers, built without a string conversion the limit would refuse
REPUNIT = (10**4300 - 1) // 9
AT_CAP_SQUARE = Square(((9 * REPUNIT, 8 * REPUNIT, 7 * REPUNIT), (4, 5, 6), (1, 2, 3)))


def test_render_ignores_the_interpreters_integer_limit(low_int_limit):
    report = verify_magic(AT_CAP_SQUARE)
    assert f"  row 0: sum {AT_CAP_ROW_SUM}\n" in render(report)
    assert json.loads(render(report, "structured"), parse_int=str)["line_sums"]["row 0"] == AT_CAP_ROW_SUM


def test_parse_square_restores_the_interpreters_integer_limit(low_int_limit):
    parse_square(THOUSAND)
    assert sys.get_int_max_str_digits() == 640
    with pytest.raises(SquareParseError):
        parse_square("x")
    assert sys.get_int_max_str_digits() == 640
