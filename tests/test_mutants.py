"""Every entry of the mutant list must still name one line of the package.

``tools/mutants.py`` applies each entry of ``MUTANTS`` (name, file, old
text, new text) by replacing the old text, so an entry whose old text no
longer occurs exactly once would test nothing, or the wrong line. The table
is read from the tool's syntax tree, not imported, and no mutant is run, so
a refactor that moves a mutated line fails here, in tier-1.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"


def mutant_table() -> tuple[tuple[str, str, str, str], ...]:
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == "MUTANTS":
                return ast.literal_eval(node.value)
    return ()


MUTANTS = mutant_table()


def test_table_found_with_unique_names():
    names = [m[0] for m in MUTANTS]
    assert names and len(set(names)) == len(names)


@pytest.mark.parametrize("name, path, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_names_one_line(name, path, old, new):
    assert path.startswith("src/qkdsim/")
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1, f"{name}: {old!r} in {path}"
    assert new != old
