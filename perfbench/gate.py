"""Output gate: checks each CLI result with the benchmark's own few lines.

A checker takes (exit code, stdout, stderr), raises GateError when anything
is off and otherwise returns how many squares the operation produced.
Squares are audited here (rows, columns, both diagonals, values 1..x*x)
without importing latinmagic.
"""
from __future__ import annotations

import functools
import json
import re

from reference import CENSUS, FAMILY_ORDERS, GREEK, LATIN, ORACLE, PAIR_GRIDS, domains, evaluate


class GateError(Exception):
    """An operation's exit code or output is not what the gate expects."""


def magic_sum(x: int) -> int:
    return x * (x * x + 1) // 2


def line_sums(cells) -> tuple[list[int], list[int], list[int]]:
    """Row sums, column sums, and (main, anti) diagonal sums."""
    x = len(cells)
    rows = [sum(row) for row in cells]
    cols = [sum(row[j] for row in cells) for j in range(x)]
    diags = [sum(cells[i][i] for i in range(x)), sum(cells[i][x - 1 - i] for i in range(x))]
    return rows, cols, diags


def verdict(cells) -> str:
    """Magic, SemiMagic (rows and columns right, a diagonal wrong) or NotMagic."""
    x = len(cells)
    if sorted(v for row in cells for v in row) != list(range(1, x * x + 1)):
        return "NotMagic"
    rows, cols, diags = line_sums(cells)
    target = magic_sum(x)
    if any(s != target for s in rows + cols):
        return "NotMagic"
    return "Magic" if all(s == target for s in diags) else "SemiMagic"


def canonical(cells):
    """Lexicographic minimum of the square's eight rotations and reflections."""
    images = []
    for _ in range(4):
        images.append(cells)
        images.append(tuple(row[::-1] for row in cells))
        cells = tuple(zip(*cells[::-1]))
    return min(images)


@functools.cache
def valid_assignments(key) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Letter values that make a figure magic, in lexicographic order.

    Brute force over every pair of permutations, audited with verdict(), so
    the list depends on neither the program's constraints nor its solver.
    """
    x = len(PAIR_GRIDS[key])
    return tuple(
        (latin, greek)
        for latin, greek in domains(x)
        if verdict(evaluate(key, latin, greek)) == "Magic"
    )


@functools.cache
def family_classes(key) -> frozenset:
    """Canonical forms of every square a figure produces."""
    return frozenset(canonical(evaluate(key, l, g)) for l, g in valid_assignments(key))


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise GateError(reason)


def _exit(code: int, want: int, err: str) -> None:
    _require(code == want, f"exit code {code}, expected {want}: {err.strip()[-300:]}")
    _require("Traceback" not in err, "traceback on stderr")


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise GateError(f"stdout is not JSON: {exc}") from None


def parse_grids(text: str) -> list[tuple[tuple[int, ...], ...]]:
    """Whitespace grids separated by blank lines; each must be square."""
    grids = []
    for block in re.split(r"\n\s*\n", text.strip()):
        try:
            grid = tuple(tuple(int(t) for t in line.split()) for line in block.splitlines())
        except ValueError:
            raise GateError(f"not an integer grid: {block[:80]!r}") from None
        _require(bool(grid) and all(len(row) == len(grid) for row in grid), "grid is not square")
        grids.append(grid)
    return grids


def _cells(rows) -> tuple[tuple[int, ...], ...]:
    _require(isinstance(rows, list) and all(isinstance(r, list) for r in rows), "cells not a list of rows")
    return tuple(tuple(row) for row in rows)


def _fields(out: str) -> dict[str, str]:
    """`key: value` lines of a text report."""
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line and not line.startswith(" "))


# --- checkers -------------------------------------------------------------

def expect_error(want: int):
    """A rejected operation: the exit code, nothing on stdout, a message on stderr."""

    def check(code: int, out: str, err: str) -> int:
        _exit(code, want, err)
        _require(out == "", "stdout not empty on error")
        _require(err.startswith(("error:", "usage:")), f"unexpected stderr: {err[:120]!r}")
        return 0

    return check


def expect_square(cells, fmt: str, meta: dict | None = None):
    """`gen`: exactly the expected magic square, and its metadata when structured."""

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0, err)
        if fmt == "structured":
            doc = _json(out)
            got = _cells(doc.get("cells"))
            _require(doc.get("order") == len(cells), "wrong order")
            for name, value in (meta or {}).items():
                _require(doc.get(name) == value, f"{name} is {doc.get(name)!r}, expected {value!r}")
        else:
            grids = parse_grids(out)
            _require(len(grids) == 1, f"{len(grids)} squares printed, expected 1")
            got = grids[0]
        _require(got == cells, f"square {got} differs from expected {cells}")
        _require(verdict(got) == "Magic", "emitted square is not magic")
        return 1

    return check


def expect_report(cells, fmt: str):
    """`verify`: the verdict, line sums and exit code the gate works out itself."""
    want = verdict(cells)
    x = len(cells)
    rows, cols, diags = line_sums(cells)
    sums = sorted(rows + cols + diags)
    bijection = sorted(v for row in cells for v in row) == list(range(1, x * x + 1))

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0 if want == "Magic" else 1, err)
        if fmt == "structured":
            doc = _json(out)
            got = (doc.get("order"), doc.get("expected_sum"), doc.get("verdict"), doc.get("bijection_ok"))
            expected = (x, magic_sum(x), want, bijection)
            _require(sorted(doc.get("line_sums", {}).values()) == sums, "line sums differ")
            _require(len(doc.get("violations", ())) == sum(s != magic_sum(x) for s in sums), "violations differ")
        else:
            f = _fields(out)
            got = (f.get("order"), f.get("expected sum"), f.get("verdict"), f.get("bijection"))
            expected = (str(x), str(magic_sum(x)), want, "ok" if bijection else "broken")
        _require(got == expected, f"report {got} differs from {expected}")
        return 1

    return check


_TERM = re.compile(rf"^(\d*)([{LATIN}{GREEK}])$")


def _parse_constraint(text: str, x: int) -> tuple[int, ...]:
    """'2c+2δ = a+e+α+γ' as one coefficient vector, Latin then Greek."""
    vec = [0] * (2 * x)
    left, right = text.split(" = ")
    for side, sign in ((left, 1), (right, -1)):
        for term in side.split("+"):
            m = _TERM.match(term)
            _require(m is not None, f"unreadable term {term!r}")
            letter = m.group(2)
            alphabet, offset = (LATIN, 0) if letter in LATIN else (GREEK, x)
            _require(alphabet.index(letter) < x, f"letter {letter} outside order {x}")
            vec[offset + alphabet.index(letter)] += sign * int(m.group(1) or 1)
    return tuple(vec)


@functools.cache
def _same_solutions(key, system: tuple[tuple[int, ...], ...]) -> bool:
    """True when the system admits exactly the values that make the figure magic."""
    x = len(PAIR_GRIDS[key])
    solutions = (
        (latin, greek)
        for latin, greek in domains(x)
        if all(sum(c * v for c, v in zip(vec, latin + greek)) == 0 for vec in system)
    )
    return tuple(solutions) == valid_assignments(key)


def expect_constraints(key, fmt: str):
    """`constraints`: a system whose solutions are exactly the magic assignments."""
    x = len(PAIR_GRIDS[key])

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0, err)
        if fmt == "structured":
            doc = _json(out)
            _require(doc.get("family") == key[0], "wrong family")
            system = []
            for c in doc.get("constraints", ()):
                vec = tuple(c["latin"]) + tuple(c["greek"])
                _require(_parse_constraint(c["text"], x) == vec, f"text {c['text']!r} disagrees with coefficients")
                system.append(vec)
        elif out.strip() == "(none)":
            system = []
        else:
            system = [_parse_constraint(line, x) for line in out.splitlines()]
        _require(_same_solutions(key, tuple(system)), f"{key[0]} constraints admit the wrong assignments")
        return 0

    return check


def expect_families(code: int, out: str, err: str) -> int:
    """`families`: every family id with its order."""
    _exit(code, 0, err)
    listed = {}
    for line in out.splitlines():
        m = re.match(r"^(\S+)\s+order (\d+)\s+\S", line)
        _require(m is not None, f"unreadable families line {line!r}")
        listed[m.group(1)] = int(m.group(2))
    _require(listed == FAMILY_ORDERS, f"families {listed} differ")
    return 0


def expect_census(key, fmt: str):
    """`enumerate --count-only`: the exact published census of the figure."""
    want = CENSUS[key]

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0, err)
        if fmt == "structured":
            doc = _json(out)
            got = (doc.get("family"), doc.get("assignments_total"), doc.get("squares_distinct"), doc.get("squares_distinct_dihedral"))
        else:
            f = _fields(out)
            got = (f.get("family"), f.get("assignments"), f.get("distinct squares"), f.get("distinct squares up to symmetry"))
            got = got[:1] + tuple(int(v) if v and v.isdigit() else v for v in got[1:])
        _require(got == (key[0], *want), f"census {got} differs from {(key[0], *want)}")
        return want[0]

    return check


def _squares(out: str, fmt: str, header: dict):
    if fmt != "structured":
        return parse_grids(out)
    doc = _json(out)
    for name, value in header.items():
        _require(doc.get(name) == value, f"{name} is {doc.get(name)!r}, expected {value!r}")
    squares = [_cells(s) for s in doc.get("squares", ())]
    _require(doc.get("count") == len(squares), "count disagrees with the listing")
    return squares


def _audit_listing(squares, count: int, order: int, classes: int) -> None:
    _require(len(squares) == count, f"{len(squares)} squares listed, expected {count}")
    _require(all(len(s) == order and verdict(s) == "Magic" for s in squares), "a listed square is not magic")
    _require(len(set(squares)) == count, "a square is listed twice")
    _require(len({canonical(s) for s in squares}) == classes, "wrong number of dihedral classes")


def expect_dihedral_listing(key, fmt: str):
    """`enumerate --dedup dihedral`: one magic square from each class of the figure."""
    _, _, classes = CENSUS[key]
    order = len(PAIR_GRIDS[key])

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0, err)
        squares = _squares(out, fmt, {"family": key[0]})
        _audit_listing(squares, classes, order, classes)
        _require({canonical(s) for s in squares} == family_classes(key), "a square is not from the family")
        return len(squares)

    return check


def expect_oracle(order: int, fmt: str, count_only: bool):
    """`oracle`: the exact number of magic squares, each audited when listed."""
    count, classes = ORACLE[order]

    def check(code: int, out: str, err: str) -> int:
        _exit(code, 0, err)
        if not count_only:
            _audit_listing(_squares(out, fmt, {"order": order}), count, order, classes)
        elif fmt == "structured":
            _require(_json(out) == {"order": order, "count": count}, "oracle count differs")
        else:
            f = _fields(out)
            _require((f.get("order"), f.get("squares")) == (str(order), str(count)), "oracle count differs")
        return count

    return check
