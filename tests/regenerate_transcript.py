"""Rewrite tests/golden/transcript.jsonl from fresh `python -m qck.cli` runs.

Run by hand, from the repository root, when a change to an output is meant:

    python tests/regenerate_transcript.py

and show the diff of the changed lines, with the reason, beside the change.
tests/test_transcript.py replays every line through cli.main and fails on
any difference.

A line holds argv, stdin (or null), the files the command reads (name ->
text, written into the working directory before the run), the exit code,
the stdout (or the SHA-256 of its UTF-8 bytes, when longer than LONG
characters) and the last line of stderr.  The commands are the
`cli_session` benchmark commands of seeds 1 and 2, every command in the
README's code blocks (README_FILES supplies the files they name), and the
edge commands of EDGE_COMMANDS, each once, in that order.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = ROOT / "tests" / "golden" / "transcript.jsonl"
LONG = 1000

sys.path.insert(0, str(ROOT / "tests"))
from transcript_commands import EDGE_COMMANDS, README_FILES, readme_commands  # noqa: E402


def session_commands(seed):
    """(argv, stdin, files) of the cli_session workload's commands at seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from cli_session import CliSession
    with tempfile.TemporaryDirectory() as workdir:
        session = CliSession(seed, workdir)
        prefix = str(Path(workdir)) + os.sep
        out = []
        for op in session.ops:
            files = {}
            argv = []
            for arg in op.argv:
                if arg.startswith(prefix):
                    arg = arg[len(prefix):]
                    files[arg] = (Path(workdir) / arg).read_text()
                argv.append(arg)
            out.append((argv, op.stdin, files))
    return out


def record(argv, stdin, files):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            Path(workdir, name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "qck.cli", *argv], input=stdin or "",
                              capture_output=True, text=True, env=env, cwd=workdir)
    line = {"argv": argv, "stdin": stdin, "files": files, "exit": proc.returncode}
    if len(proc.stdout) > LONG:
        line["stdout_sha256"] = hashlib.sha256(proc.stdout.encode()).hexdigest()
    else:
        line["stdout"] = proc.stdout
    line["stderr_last"] = (proc.stderr.splitlines() or [""])[-1]
    return line


def main():
    commands = session_commands(1) + session_commands(2)
    commands += [(argv, stdin, {name: README_FILES[name] for name in argv if name in README_FILES})
                 for argv, stdin in readme_commands()]
    commands += [(list(argv), stdin, files) for argv, stdin, files in EDGE_COMMANDS]
    seen, lines = set(), []
    for command in commands:
        key = json.dumps(command, sort_keys=True)
        if key not in seen:
            seen.add(key)
            lines.append(record(*command))
    TRANSCRIPT.write_text("".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines))
    print(f"{len(lines)} commands written to {TRANSCRIPT.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
