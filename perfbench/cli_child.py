"""One traced `qck` command: python3 cli_child.py STATS_FILE ARG...

Runs the command the way `python -m qck.cli ARG...` does: runpy imports the
qck package (which imports qck.cli), warns that qck.cli is already imported,
and runs cli.py a second time; that copy's `main` does the work. The tracer
is installed first, so the copy binds the wrapped functions of the other qck
modules, and the copy's own functions are wrapped before `main` runs. The
per-function aggregates go to STATS_FILE as JSON. Standard output, standard
error and the exit code are the command's own.
"""

import json
import runpy
import sys
from pathlib import Path

import tracer

COPY_NAME = "__qck_cli_main__"  # not "__main__", so that the copy does not call main itself


def main():
    stats_file, argv = Path(sys.argv[1]), sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        namespace = runpy.run_module("qck.cli", run_name=COPY_NAME)
        t.install_copy(namespace, "cli")
        code = namespace["main"](argv)
    finally:
        t.uninstall()
        stats_file.write_text(json.dumps(t.stats))
    return code


if __name__ == "__main__":
    sys.exit(main())
