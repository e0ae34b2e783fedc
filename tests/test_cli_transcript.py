"""Replay the committed CLI transcript: every call gives the recorded exit
code and the recorded bytes on stdout and stderr.

tests/cli_transcript.jsonl holds one call per line; regenerate it with
`PYTHONPATH=src python3 scripts/cli_transcript.py` when an output changes
on purpose.  The replay runs each call through that script's `record`, so
a call's outcome is defined in one place.
"""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cli_transcript", ROOT / "scripts" / "cli_transcript.py")
recorder = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(recorder)
TRANSCRIPT = [json.loads(line) for line in recorder.TRANSCRIPT.read_text(encoding="utf-8").splitlines()]


def test_transcript_covers_the_commands_and_every_data_file():
    commands = {call["argv"][0] for call in TRANSCRIPT if call["argv"]}
    assert {"gen", "constraints", "enumerate", "verify", "oracle", "families"} <= commands
    data = sorted(path.name for path in (ROOT / "tests" / "data").iterdir())
    assert sorted(
        Path(call["stdin"]).name for call in TRANSCRIPT if call["stdin"]
    ) == sorted(data * 2)


def test_every_call_matches_the_transcript():
    changed = [
        (call["argv"], call["stdin"])
        for call in TRANSCRIPT
        if recorder.record(call["argv"], call["stdin"]) != call
    ]
    assert changed == []


def test_the_transcript_records_every_call_in_order():
    # a call added to or dropped from calls() shows here before the file is regenerated
    assert [(call["argv"], call["stdin"]) for call in TRANSCRIPT] == recorder.calls()
