"""Same outputs, committed: every command of tests/golden/transcript.jsonl,
replayed through cli.main, prints what the transcript holds.  The
transcript pins behaviour as it is, faults included; a change that means to
alter an output rewrites it with tests/regenerate_transcript.py."""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from qck import cli
from transcript_commands import readme_commands

TRANSCRIPT = Path(__file__).parent / "golden" / "transcript.jsonl"
LINES = [json.loads(text) for text in TRANSCRIPT.read_text().splitlines()]


@pytest.mark.parametrize("line", LINES, ids=[f"{i:03d}-{line['argv'][0]}" for i, line in
                                               enumerate(LINES)])
def test_replay(line, tmp_path, monkeypatch, capsys):
    for name, text in line["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(line["stdin"] or ""))
    try:
        code = cli.main(list(line["argv"]))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert code == line["exit"]
    assert (err.splitlines() or [""])[-1] == line["stderr_last"]
    if "stdout_sha256" in line:
        assert hashlib.sha256(out.encode()).hexdigest() == line["stdout_sha256"]
    else:
        assert out == line["stdout"]


def test_every_readme_command_is_in_the_transcript():
    recorded = [(line["argv"], line["stdin"]) for line in LINES]
    commands = readme_commands()
    assert len(commands) >= 17
    assert [c for c in commands if c not in recorded] == []
