"""The benchmark's workloads: seeded blocks of CLI calls, each with its gate check.

Each workload is an endless generator of blocks.  A block always holds the
same kinds of call in the same numbers, so a run that measures whole blocks
sees the same mix whatever the seed; the seed picks the order, the formats,
the letter values and the squares.  The program receives only these inputs.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import gate
from reference import CENSUS, FAMILY_ORDERS, GOLDENS, PAIR_GRIDS, evaluate

FORMATS = ("text", "structured")
FIGURE_KEYS = tuple(PAIR_GRIDS)
# Figures whose diagonals constrain the letter values, so some values break them.
CONSTRAINED = tuple(
    k for k in FIGURE_KEYS if CENSUS[k][0] < math.factorial(len(PAIR_GRIDS[k])) ** 2
)


@dataclass(frozen=True)
class Op:
    """One CLI call: the arguments after `latinmagic`, its stdin, and its gate check."""

    argv: tuple[str, ...]
    check: Callable[[int, str, str], int]
    stdin: str = ""


def _format(rng: random.Random) -> tuple[str, tuple[str, ...]]:
    """An output format and its flags; text is sometimes asked for explicitly."""
    fmt = rng.choice(FORMATS)
    if fmt == "text" and rng.random() < 0.5:
        return fmt, ()
    return fmt, ("--format", fmt)


def _family_args(key) -> tuple[str, ...]:
    family, variant = key
    return ("--family", family) + (("--variant", "d") if variant == "d" else ())


def _csv(values) -> str:
    return ",".join(map(str, values))


def _grid_text(cells) -> str:
    return "\n".join(" ".join(map(str, row)) for row in cells) + "\n"


def _image(rng: random.Random, cells):
    """A random one of the square's eight rotations and reflections."""
    for _ in range(rng.randrange(4)):
        cells = tuple(zip(*cells[::-1]))
    if rng.random() < 0.5:
        cells = tuple(row[::-1] for row in cells)
    return tuple(tuple(row) for row in cells)


def _family_square(rng: random.Random):
    """A random magic square of a random figure, with the values that build it."""
    key = rng.choice(FIGURE_KEYS)
    latin, greek = rng.choice(gate.valid_assignments(key))
    meta = {"family": key[0], "latin_values": list(latin), "greek_values": list(greek)}
    return key, evaluate(key, latin, greek), meta


def _magic_square(rng: random.Random):
    """A magic square plus the provenance a structured document may carry.

    Provenance is kept only where the cells are exactly what `gen` builds for
    it; a variant-d square or a rotated golden travels without it.
    """
    if rng.random() < 0.5:
        key, cells, meta = _family_square(rng)
        return cells, (meta if key[1] == "c" else {})
    return _image(rng, rng.choice(list(GOLDENS.values()))), {}


# --- interactive: short calls a person makes at a terminal ----------------------

def _gen_default(rng, key) -> Op:
    """`gen` without letter values: the program takes its first valid assignment."""
    fmt, flag = _format(rng)
    argv = ("gen", *_family_args(key), *flag)
    if key[0] == "e6.paired":
        return Op(argv, gate.expect_error(1))
    if key[0] == "e6.editor":
        return Op(argv, gate.expect_square(GOLDENS["e6_editor"], fmt, {"family": "e6.editor"}))
    latin, greek = gate.valid_assignments(key)[0]
    meta = {"family": key[0], "latin_values": list(latin), "greek_values": list(greek)}
    return Op(argv, gate.expect_square(evaluate(key, latin, greek), fmt, meta))


def _gen_explicit(rng) -> Op:
    """`gen --latin --greek` with values that make the figure magic."""
    fmt, flag = _format(rng)
    key, cells, meta = _family_square(rng)
    values = ("--latin", _csv(meta["latin_values"]), "--greek", _csv(meta["greek_values"]))
    return Op(("gen", *_family_args(key), *values, *flag), gate.expect_square(cells, fmt, meta))


def _gen_breaking(rng) -> Op:
    """`gen --latin --greek` with values that break one of the figure's line conditions."""
    key = rng.choice(CONSTRAINED)
    x = len(PAIR_GRIDS[key])
    valid = set(gate.valid_assignments(key))
    while True:
        latin = tuple(rng.sample(range(0, x * x, x), x))
        greek = tuple(rng.sample(range(1, x + 1), x))
        if (latin, greek) not in valid:
            break
    argv = ("gen", *_family_args(key), "--latin", _csv(latin), "--greek", _csv(greek))
    return Op(argv + _format(rng)[1], gate.expect_error(2))


def _gen_misuse(rng) -> Op:
    """`gen` called wrongly with integer arguments: every case exits 2."""
    key = rng.choice([k for k in FIGURE_KEYS if k[1] == "c"])
    family = key[0]
    latin, greek = rng.choice(gate.valid_assignments(key))
    other = rng.choice([k for k in FIGURE_KEYS if len(PAIR_GRIDS[k]) != len(latin)])
    other_latin, other_greek = gate.valid_assignments(other)[0]
    cases = (
        ("--family", family, "--latin", _csv(latin)),
        ("--family", family, "--latin", _csv(latin[:-1]), "--greek", _csv(greek[:-1])),
        ("--family", family, "--latin", _csv(latin[:1] * len(latin)), "--greek", _csv(greek)),
        ("--family", family, "--latin", _csv(other_latin), "--greek", _csv(other_greek)),
        ("--family", family, "--variant", "d") if family != "e4.diag" else ("--family", "e7.square"),
        ("--family", "e6.editor", "--latin", _csv(range(0, 36, 6)), "--greek", _csv(range(1, 7))),
        ("--family", "e5.nosuch"),
        ("--family", family, "--format", "xml"),
    )
    return Op(("gen", *rng.choice(cases)), gate.expect_error(2))


def _verify_stdin(rng, cells, meta=None) -> Op:
    """`verify` reading a grid or a structured document from stdin."""
    fmt, flag = _format(rng)
    if rng.random() < 0.5:
        doc = {"order": len(cells), "cells": [list(row) for row in cells], **(meta or {})}
        text = json.dumps(doc, indent=rng.choice((None, 2)), ensure_ascii=False)
    else:
        text = _grid_text(cells)
    argv = ("verify",) + (("-",) if rng.random() < 0.5 else ())
    return Op(argv + flag, gate.expect_report(cells, fmt), stdin=text)


def _verify_file(rng, name: str, goldens: dict[str, str]) -> Op:
    """`verify PATH` on one of the paper's squares."""
    fmt, flag = _format(rng)
    return Op(("verify", goldens[name], *flag), gate.expect_report(GOLDENS[name], fmt))


def _not_magic(rng):
    """A shuffled 1..x*x grid, sometimes with a repeated or out-of-range value."""
    x = rng.randrange(3, 7)
    values = rng.sample(range(1, x * x + 1), x * x)
    if rng.random() < 0.5:
        values[rng.randrange(x * x)] = rng.choice((0, -x, x * x + 1, values[0]))
    return tuple(tuple(values[i * x:(i + 1) * x]) for i in range(x))


def _semi_magic(rng):
    """A magic square with its rows reordered: rows and columns stay right."""
    cells, _ = _magic_square(rng)
    order = list(range(len(cells)))
    while order == sorted(order):
        rng.shuffle(order)
    return tuple(cells[i] for i in order)


def _malformed(rng) -> str:
    """Input `verify` must reject with exit 2: ragged, non-numeric, empty, bad JSON."""
    cells, _ = _magic_square(rng)
    rows = [list(map(str, row)) for row in cells]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    choice = rng.randrange(11)
    if choice == 0:
        rows[i].pop()
    elif choice == 1:
        rows.append(rows[i])
    elif choice == 2:
        rows[i][j] = rng.choice(("x", "3.5", "1e3", "--", "0x1F", "7,"))
    elif choice == 3:
        return rng.choice(("", "\n", "   \n\t\n"))
    else:
        lists = [list(row) for row in cells]
        return rng.choice((
            json.dumps({"order": len(cells)}),
            json.dumps({"cells": []}),
            json.dumps({"cells": lists[:-1] + [lists[-1][:-1]]}),
            json.dumps({"order": len(cells) + 1, "cells": lists}),
            json.dumps({"cells": [[str(v) for v in lists[0]]] + lists[1:]}),
            json.dumps({"cells": lists})[:-3],
            json.dumps({"cells": lists[0]}),
        ))
    return "\n".join(" ".join(row) for row in rows) + "\n"


def interactive(seed: int, goldens: dict[str, str]) -> Iterator[list]:
    """Blocks of 36 short calls: gen, verify, constraints and families.

    Per block: `gen` of every family plus e4.diag variant d, four `gen` with
    valid explicit values, two with values that break a line condition, one
    misused `gen`; `verify` of three goldens by path, four generated magic
    squares, two random non-magic and two semi-magic squares through stdin,
    and two malformed inputs; `constraints` of three figures; `families`.
    """
    rng = random.Random(f"interactive:{seed}")
    constraint_keys = list(FIGURE_KEYS) + [("e6.editor", "c")]
    rng.shuffle(constraint_keys)
    constraint_keys = itertools.cycle(constraint_keys)
    golden_names = sorted(goldens)
    rng.shuffle(golden_names)
    golden_names = itertools.cycle(golden_names)
    while True:
        ops = [_gen_default(rng, (family, "c")) for family in FAMILY_ORDERS]
        ops.append(_gen_default(rng, ("e4.diag", "d")))
        ops += [_gen_explicit(rng) for _ in range(4)]
        ops += [_gen_breaking(rng) for _ in range(2)]
        ops.append(_gen_misuse(rng))
        ops += [_verify_file(rng, next(golden_names), goldens) for _ in range(3)]
        ops += [_verify_stdin(rng, *_magic_square(rng)) for _ in range(4)]
        ops += [_verify_stdin(rng, _not_magic(rng)) for _ in range(2)]
        ops += [_verify_stdin(rng, _semi_magic(rng)) for _ in range(2)]
        ops += [
            Op(("verify", *_format(rng)[1]), gate.expect_error(2), stdin=_malformed(rng))
            for _ in range(2)
        ]
        for key in itertools.islice(constraint_keys, 3):
            fmt, flag = _format(rng)
            check = gate.expect_error(2) if key[0] == "e6.editor" else gate.expect_constraints(key, fmt)
            ops.append(Op(("constraints", *_family_args(key), *flag), check))
        ops.append(Op(("families",), gate.expect_families))
        rng.shuffle(ops)
        yield ops


# --- census: the enumeration hot path ------------------------------------------

def census(seed: int, goldens: dict[str, str]) -> Iterator[list]:
    """Blocks of 11 calls: `enumerate --count-only` of every enumerable figure
    (both e4.diag variants) and the e5.diag listing deduplicated by symmetry.

    The listing alternates text and structured output from block to block,
    so that any two blocks hold the run's largest child process.
    """
    rng = random.Random(f"census:{seed}")
    for listing_format in itertools.cycle(FORMATS):
        ops = []
        for key in CENSUS:
            fmt, flag = _format(rng)
            argv = ("enumerate", *_family_args(key), "--count-only", *flag)
            ops.append(Op(argv, gate.expect_census(key, fmt)))
        fmt, flag = listing_format, ("--format", listing_format)
        argv = ("enumerate", *_family_args(("e5.diag", "c")), "--dedup", "dihedral", *flag)
        ops.append(Op(argv, gate.expect_dihedral_listing(("e5.diag", "c"), fmt)))
        rng.shuffle(ops)
        yield ops


# --- oracle: the exhaustive search -----------------------------------------------

def oracle(seed: int, goldens: dict[str, str]) -> Iterator[list]:
    """Blocks of 2 calls: `oracle --order 4 --count-only` and the order-3 listing."""
    rng = random.Random(f"oracle:{seed}")
    while True:
        fmt4, flag4 = _format(rng)
        fmt3, flag3 = _format(rng)
        ops = [
            Op(("oracle", "--order", "4", "--count-only", *flag4), gate.expect_oracle(4, fmt4, True)),
            Op(("oracle", "--order", "3", *flag3), gate.expect_oracle(3, fmt3, False)),
        ]
        rng.shuffle(ops)
        yield ops


# name -> (block generator, blocks the traced in-process replay runs)
WORKLOADS = {
    "interactive": (interactive, 10),
    "census": (census, 1),
    "oracle": (oracle, 1),
}
