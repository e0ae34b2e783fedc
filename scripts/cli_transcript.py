"""Record the CLI transcript that tests/test_cli_transcript.py replays.

    PYTHONPATH=src python3 scripts/cli_transcript.py

Runs each call below through `latinmagic.cli.run` in-process, from the repo
root, with stdin the bytes of the named file (or none) under a text
wrapper, so the CLI reads `sys.stdin.buffer` as a real call does, and
writes one JSON line per call to tests/cli_transcript.jsonl: argv, stdin,
the exit code and the sha256 of stdout and of stderr.  Argparse words its
usage errors differently across Python versions, so for those the line
keeps only the first word of stderr, "usage:".  tests/test_cli_transcript.py
runs `record` on each line and expects the line back, and
scripts/replay_transcript.py runs each call through the installed
`latinmagic` script and builds its line with the same `outcome`.  A change
that alters an output on purpose regenerates the file and lists each
changed call.

The documents that `verify` reads by path from tests/transcript_inputs
stay out of tests/data, whose files are each read once by path and once
from stdin.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from latinmagic.cli import run
from latinmagic.construct import FAMILIES

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = ROOT / "tests" / "cli_transcript.jsonl"
DATA = "tests/data"
INPUTS = "tests/transcript_inputs"
FAMILY_IDS = (*FAMILIES, "e9.unknown")
FORMATS = ((), ("--format", "structured"))
USAGE = "usage:"


def calls() -> list[tuple[list[str], str | None]]:
    """(argv, stdin file or None) of every recorded call.

    The text-format gen, constraints and enumerate --count-only calls are
    the exit-code matrix of tests/test_cli.py.
    """
    listed = []
    for family in FAMILY_IDS:
        for variant in ((), ("--variant", "d")):
            for fmt in FORMATS:
                for command in (
                    ("gen",), ("constraints",), ("enumerate", "--count-only"),
                    ("enumerate",), ("enumerate", "--dedup", "dihedral"),
                ):
                    listed.append(([command[0], "--family", family, *command[1:], *variant, *fmt], None))
    for family, values in (
        ("e3.reflect", ("--latin", "0,6,3", "--greek", "1,3,2")),  # the Lo Shu
        ("e3.reflect", ("--latin", "0,3,6", "--greek", "1,3,2")),  # breaks 2c = a+b
        ("e3.reflect", ("--latin", "0,3,3", "--greek", "1,3,2")),  # not a permutation
        ("e3.reflect", ("--latin", "0,3", "--greek", "1,3,2")),
        ("e3.reflect", ("--latin", "0,4,8,12", "--greek", "1,2,3,4")),  # order 4 on order 3
        ("e3.reflect", ("--latin", "0,6,3")),
        ("e6.editor", ("--latin", "0,6,12,18,24,30", "--greek", "1,2,3,4,5,6")),
    ):
        for fmt in FORMATS:
            listed.append((["gen", "--family", family, *values, *fmt], None))
    # names long enough that an error echoing them whole would show it
    for command in (("gen",), ("constraints",), ("enumerate", "--count-only")):
        listed.append(([command[0], "--family", "x" * 100, *command[1:]], None))
    listed.append((["gen", "--family", "e4.diag", "--variant", "z" * 100], None))
    # a path past the file system's name limit, and a --format value, both
    # long enough that an error echoing them whole would show it
    listed.append((["verify", "x" * 1000], None))
    for command in (["verify"], ["gen", "--family", "e4.diag"]):
        listed.append(([*command, "--format", "y" * 1000], None))
    for name in sorted(os.listdir(ROOT / DATA)):
        for fmt in FORMATS:
            listed.append((["verify", f"{DATA}/{name}", *fmt], None))
            listed.append((["verify", "-", *fmt], f"{DATA}/{name}"))
    for name in sorted(os.listdir(ROOT / INPUTS)):
        for fmt in FORMATS:
            listed.append((["verify", f"{INPUTS}/{name}", *fmt], None))
    for order in ("0", "1", "2", "3", "4", "-1", "x"):
        for count in ((), ("--count-only",)):
            for fmt in FORMATS:
                listed.append((["oracle", "--order", order, *count, *fmt], None))
    listed.append((["families"], None))
    usage_errors = (
        [],
        ["gen"],
        ["bogus"],
        ["oracle"],
        ["verify", f"{DATA}/golden_e3_reflect.txt", "--format", "yaml"],
        ["enumerate", "--family", "e4.diag", "--dedup", "bogus"],
        ["oracle", "--order", "3", "--bogus"],
    )
    return listed + [(argv, None) for argv in usage_errors]


def outcome(argv: list[str], stdin: str | None, code: int, out: bytes, err: bytes) -> dict:
    """The transcript line of one call, from its exit code and output bytes."""
    usage = code == 2 and err.startswith(USAGE.encode())
    return {
        "argv": argv,
        "stdin": stdin,
        "code": code,
        "stdout": hashlib.sha256(out).hexdigest(),
        "stderr": USAGE if usage else hashlib.sha256(err).hexdigest(),
    }


def stdin_bytes(stdin: str | None) -> bytes:
    """The bytes a call reads on stdin: the named file's, or none."""
    return b"" if stdin is None else (ROOT / stdin).read_bytes()


def record(argv: list[str], stdin: str | None) -> dict:
    """Run one call in-process from the repo root and describe its outcome."""
    data = stdin_bytes(stdin)
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_cwd = sys.stdin, os.getcwd()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    finally:
        sys.stdin = saved_stdin
        os.chdir(saved_cwd)
    return outcome(argv, stdin, code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"))


def main() -> int:
    lines = [json.dumps(record(argv, stdin), ensure_ascii=False) for argv, stdin in calls()]
    TRANSCRIPT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{len(lines)} calls written to {TRANSCRIPT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
