"""Text CLI output: stdout, stderr and exit code of every bundled fixture under
the renderers that ``tests/golden/`` (JSON only) does not reach, compared byte
for byte against the files in ``tests/text_output/``:

* ``compute`` as a table and as csv, with ``edge_shapley`` and ``closed_form``;
* ``whatif`` as a table, removing the first edge and removing the last node;
* ``axioms`` as a table.

To rewrite the files after a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_text_output.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from edgeshapley.scenarios import fixture_names, load_scenario

from test_golden import fixture_path, run_cli

TEXT_OUTPUT = Path(__file__).parent / "text_output"


def cases(name: str) -> list[list[str]]:
    """Arguments of every text run on fixture ``name``, without ``--input``."""
    graph = load_scenario(fixture_path(name)).graph
    edge = graph.edges[0]
    runs = [
        ["compute", "--format", fmt, "--method", method]
        for method in ("edge_shapley", "closed_form")
        for fmt in ("table", "csv")
    ]
    runs.append(["whatif", "--remove-edge", edge.src, edge.dst])
    runs.append(["whatif", "--remove-node", graph.nodes[-1]])
    runs.append(["axioms"])
    return runs


@pytest.mark.parametrize("name", fixture_names())
def test_text_output_matches_file(name):
    pinned = json.loads((TEXT_OUTPUT / f"{name}.json").read_text(encoding="utf-8"))
    assert [run["args"] for run in pinned] == cases(name)
    for want in pinned:
        assert run_cli(name, want["args"]) == want


def write_files():
    TEXT_OUTPUT.mkdir(exist_ok=True)
    for name in fixture_names():
        runs = [run_cli(name, args) for args in cases(name)]
        text = json.dumps(runs, indent=1, ensure_ascii=False) + "\n"
        (TEXT_OUTPUT / f"{name}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_files()
