"""Golden CLI output: stdout, stderr and exit code of every bundled fixture
under ``compute`` (all six methods), ``axioms`` and ``whatif --remove-edge``
(on the fixture's first edge), compared byte for byte against the files in
``tests/golden/``.

The goldens record what the engines printed when they were written; a change
that is meant to keep every allocation and check must leave them as they are.
To rewrite them after a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from edgeshapley.cli import METHODS, main
from edgeshapley.scenarios import fixture_names, load_scenario

GOLDEN = Path(__file__).parent / "golden"


def cases(name: str) -> list[list[str]]:
    """Arguments of every golden run on fixture ``name``, without ``--input``."""
    edge = load_scenario(fixture_path(name)).edge_game().graph.edges[0]
    runs = [
        ["compute", "--format", "json", "--method", method, "--samples", "20000"]
        for method in METHODS
    ]
    runs.append(["axioms", "--format", "json"])
    runs.append(["whatif", "--format", "json", "--remove-edge", edge.src, edge.dst])
    return runs


def fixture_path(name: str) -> str:
    return str(resources.files("edgeshapley") / "fixtures" / f"{name}.json")


def run_cli(name: str, args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*args, "--input", fixture_path(name)])
    return {"args": args, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", fixture_names())
def test_cli_output_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert [run["args"] for run in golden] == cases(name)
    for want in golden:
        assert run_cli(name, want["args"]) == want


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for name in fixture_names():
        runs = [run_cli(name, args) for args in cases(name)]
        text = json.dumps(runs, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_goldens()
