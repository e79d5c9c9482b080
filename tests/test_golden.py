"""The equality set's outputs against the frozen ones in ``tests/golden/``.

``tools/equality_set.py`` runs a fixed list of CLI commands and writes, per
command, its ``--out`` file, its stdout without the wall-time line, its
stderr and its exit code. This test runs the set from this tree's ``src``
into a temporary directory, in a fresh interpreter, and compares it with the
golden files: the same file names, exit codes, error text and every other
non-numeric character exactly, numbers to 1e-9 absolute in ``--out`` files
and to 1e-6 in stdout (which prints six decimals). The tolerance leaves room
for another host's numpy and scipy to move the last digits of an optimizer's
output; byte-identity against a parent commit is checked with ``diff -r``.

Regeneration rule: ``python3 tools/equality_set.py src tests/golden``
rewrites the golden files, from the commit whose outputs are to be frozen.
A change that moves a golden value declares each moved value, old and new,
in CHANGES.md; one that adds a command to the set generates the new files
from its parent's ``src``, so that the change is checked against them.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
TOLERANCE = {".out": 1e-9, ".stdout": 1e-6}


def _mismatch(expected: str, actual: str, atol: float) -> str | None:
    """The first difference between two texts whose numbers may differ by ``atol``, or None."""
    want, got = NUMBER.split(expected), NUMBER.split(actual)
    if len(want) != len(got):
        return f"{len(want) // 2} numbers expected, {len(got) // 2} found"
    for i, (a, b) in enumerate(zip(want, got)):
        if i % 2 == 0 and a != b:
            return f"text {a!r} expected, {b!r} found"
        if i % 2 == 1 and abs(float(a) - float(b)) > atol:
            return f"number {a} expected, {b} found"
    return None


@pytest.fixture(scope="module")
def equality_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("equality-set")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "equality_set.py"), str(ROOT / "src"), str(out)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return out


def test_same_files(equality_set):
    assert sorted(p.name for p in equality_set.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())


def test_outputs_match_golden(equality_set):
    mismatches = []
    for golden in sorted(GOLDEN.iterdir()):
        expected = golden.read_text(encoding="utf-8")
        actual = (equality_set / golden.name).read_text(encoding="utf-8")
        atol = TOLERANCE.get(golden.suffix)
        if atol is None:
            problem = None if actual == expected else "text differs"
        else:
            problem = _mismatch(expected, actual, atol)
        if problem is not None:
            mismatches.append(f"{golden.name}: {problem}")
    assert not mismatches, "\n".join(mismatches)
