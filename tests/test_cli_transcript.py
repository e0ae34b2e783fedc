"""Replay the committed CLI transcript: every call gives the recorded exit
code and the recorded bytes on stdout and stderr.

tests/cli_transcript.jsonl holds one call per line; regenerate it with
`PYTHONPATH=src python3 scripts/cli_transcript.py` when an output changes
on purpose.
"""
import hashlib
import io
import json
from pathlib import Path

import pytest

from latinmagic.cli import run

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = [
    json.loads(line)
    for line in (ROOT / "tests" / "cli_transcript.jsonl").read_text(encoding="utf-8").splitlines()
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_transcript_covers_the_commands_and_every_data_file():
    commands = {call["argv"][0] for call in TRANSCRIPT if call["argv"]}
    assert {"gen", "constraints", "enumerate", "verify", "oracle", "families"} <= commands
    data = sorted(path.name for path in (ROOT / "tests" / "data").iterdir())
    assert sorted(
        Path(call["stdin"]).name for call in TRANSCRIPT if call["stdin"]
    ) == sorted(data * 2)


def replay(call, monkeypatch, capsys) -> dict:
    """The outcome of one call, in the transcript's terms."""
    stdin = "" if call["stdin"] is None else (ROOT / call["stdin"]).read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(list(call["argv"]))
    out, err = capsys.readouterr()
    # argparse's wording of usage errors varies across Python versions
    usage = call["stderr"] == "usage:" and err.startswith("usage:")
    return {
        **call,
        "code": code,
        "stdout": sha256(out),
        "stderr": "usage:" if usage else sha256(err),
    }


def test_every_call_matches_the_transcript(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    changed = [
        (call["argv"], call["stdin"])
        for call in TRANSCRIPT
        if replay(call, monkeypatch, capsys) != call
    ]
    assert changed == []
