"""The re-freeze rules as a test: no maximum of the two grids falls.

``tools/frozen_grids.py`` runs ``tools/seesaw_grid.py``'s 216 adversary
seesaws and ``tools/c1_grid.py``'s 129 entries (C1, accessible information
and C_2) on this tree's ``src``, in a fresh interpreter, and this test
compares them with ``tests/frozen_grids.json``. Every value is a maximum, so
it may rise but never fall: each must be at least its frozen value - 1e-12,
and no ``converged`` flag may turn false. A rise passes here; the change
that makes it re-freezes the file with the same tool, run on its own
``src``, and lists each moved value in CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FROZEN = json.loads((ROOT / "tests" / "frozen_grids.json").read_text(encoding="utf-8"))
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    out = tmp_path_factory.mktemp("frozen") / "grids.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "frozen_grids.py"), str(ROOT / "src"),
                    str(out)], check=True)
    return json.loads(out.read_text(encoding="utf-8"))


def test_no_seesaw_value_falls(grids):
    now = grids["seesaw"]
    assert now.keys() == FROZEN["seesaw"].keys()
    falls = [f"{key}: {old!r} -> {now[key]!r}" for key, old in FROZEN["seesaw"].items()
             if now[key] < old - TOLERANCE]
    assert not falls, "eve_info fell below its frozen value:\n" + "\n".join(falls)


def test_no_c1_grid_value_falls_and_no_flag_turns_false(grids):
    now = grids["c1"]
    assert now.keys() == FROZEN["c1"].keys()
    falls = [f"{key}: {old['value']!r} -> {now[key]['value']!r}"
             for key, old in FROZEN["c1"].items() if now[key]["value"] < old["value"] - TOLERANCE]
    flips = [key for key, old in FROZEN["c1"].items() if old["converged"] and not now[key]["converged"]]
    assert not falls, "a value fell below its frozen value:\n" + "\n".join(falls)
    assert not flips, f"converged turned false: {' '.join(flips)}"
