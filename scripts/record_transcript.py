"""Print the ``--format record`` output of the README's command-line
examples and of the golden invocations of ``tests/test_cli.py``.

Each invocation runs ``davenport.cli.main`` in-process, from the source
tree named on the command line (default: this checkout), and prints its
argv, exit code, stdout and stderr. The invocations are always read from
this checkout, so two trees give transcripts of the same commands, and a
``diff`` of the two shows every record a change moves:

    python scripts/record_transcript.py > head.txt
    python scripts/record_transcript.py ../base > base.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def readme_examples() -> list[list[str]]:
    """The argv of each ``davenport ...`` line of the README's "Command
    line" block, its comment dropped."""
    text = (HERE / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    block = block.split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("davenport ")
    ]


def golden_invocations() -> list[list[str]]:
    """The argv of each entry of ``GOLDEN_RECORDS``, read without
    importing the test module."""
    tree = ast.parse((HERE / "tests" / "test_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN_RECORDS" for t in node.targets
        ):
            return [list(entry[0]) for entry in ast.literal_eval(node.value)]
    raise SystemExit("GOLDEN_RECORDS not found in tests/test_cli.py")


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE
    sys.path.insert(0, str(root.resolve() / "src"))
    from davenport.cli import main as cli_main

    for argv in readme_examples() + golden_invocations():
        argv = [*argv, "--format", "record"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        print(f"$ davenport {shlex.join(argv)}")
        print(f"exit: {code}")
        print(out.getvalue(), end="")
        print(f"stderr: {err.getvalue()!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
