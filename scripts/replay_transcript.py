"""Replay the CLI transcript through real processes of the installed script.

    python -m pip install -e .
    python3 scripts/replay_transcript.py

Runs every call of tests/cli_transcript.jsonl as `latinmagic <argv>` from
the repo root, with stdin the bytes of the named file (empty when none),
and compares the exit code and the sha256 of stdout and stderr with the
recorded line.  The line is built by scripts/cli_transcript.py's `outcome`,
as the in-process recorder builds it, so usage errors keep only "usage:".
Unlike the in-process replay, each call goes through start-up, `main`'s
`sys.exit` and the interpreter's final flush.  Prints the number of calls;
exits 1 and lists the calls that differ.
"""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cli_transcript", ROOT / "scripts" / "cli_transcript.py")
recorder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(recorder)


def replay(argv: list[str], stdin: str | None) -> dict:
    """Run one call as a process of the installed script and describe its outcome."""
    child = subprocess.run(
        ["latinmagic", *argv],
        input=recorder.stdin_bytes(stdin),
        capture_output=True,
        cwd=ROOT,
        timeout=120,
    )
    return recorder.outcome(argv, stdin, child.returncode, child.stdout, child.stderr)


def main() -> int:
    calls = [json.loads(line) for line in recorder.TRANSCRIPT.read_text(encoding="utf-8").splitlines()]
    differ = [call for call in calls if replay(call["argv"], call["stdin"]) != call]
    print(f"{len(calls)} calls replayed, {len(differ)} differ")
    for call in differ:
        print(f"  differs: argv={call['argv']!r} stdin={call['stdin']!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
