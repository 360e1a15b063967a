"""Committed outputs of small commands, compared field by field.

``tests/golden/commands.json`` lists each command with its exit code and
stderr, run in ``tests/golden/inputs``; ``tests/golden/expected`` holds
its output.  Strings, integers, booleans, exit codes and stderr must
match exactly, floats within ``regenerate.RTOL`` relative plus
``regenerate.ATOL``.  ``python tests/golden/regenerate.py`` rewrites the
files and prints the fields that moved.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dbicc.cli import main

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
RECORD = json.loads((GOLDEN / "commands.json").read_text())


def test_the_record_lists_every_command():
    assert [(c["name"], c["argv"], c["simulated"]) for c in RECORD["commands"]] == [
        (name, argv, simulated) for name, argv, simulated in regenerate.COMMANDS
    ]


@pytest.mark.parametrize("case", RECORD["commands"], ids=lambda case: case["name"])
def test_outputs_match_the_golden_files(case, tmp_path, monkeypatch, capsys):
    if case["simulated"] and np.__version__ != RECORD["numpy"]:
        pytest.skip(f"simulated under numpy {RECORD['numpy']}, whose Generator streams "
                    f"numpy {np.__version__} may not keep (NEP 19)")
    monkeypatch.chdir(GOLDEN / "inputs")
    out = tmp_path / regenerate.output_name(case["name"], case["argv"])
    assert main([*case["argv"], "--out", str(out)]) == case["exit"]
    assert capsys.readouterr().err == case["stderr"]
    if case["output"] is None:
        assert not out.exists()
        return
    expected = (GOLDEN / "expected" / case["output"]).read_text()
    moved = regenerate.moved(regenerate.fields(expected, out.name),
                             regenerate.fields(out.read_text(), out.name))
    assert [row for row in moved if row[-1]] == []


@pytest.mark.parametrize("old, new, beyond", [
    (1.0, 1.0 + 2e-16, False),
    (1.0, 1.0 + 2e-12, True),
    (0.0, 1e-15, False),
    (0.0, 2e-15, True),
    (1, 1.0, True),  # an integer field that turns float
    (True, 1, True),
    ("a", "b", True),
    (None, 0.5, True),  # a field that appears
])
def test_only_a_float_may_move_and_only_within_the_bound(old, new, beyond):
    assert [row[-1] for row in regenerate.moved({"x": old}, {"x": new})] == [beyond]


def test_csv_cells_are_typed_by_row_and_column():
    text = "distance,threshold,rho_hat\nl2,0.0,\nl2,1,0.5\n"
    assert regenerate.fields(text, "sweep.csv") == {
        "row 1.distance": "l2", "row 1.threshold": 0.0, "row 1.rho_hat": "",
        "row 2.distance": "l2", "row 2.threshold": 1, "row 2.rho_hat": 0.5,
    }
