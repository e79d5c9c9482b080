"""Every name the benchmark tracer wraps must exist in its package module.

``bench/tracing.py`` replaces each function in ``FUNCTIONS`` and the
``__init__`` of each class in ``CONSTRUCTORS`` with a timing wrapper, found by
``getattr``, so a rename or a deletion makes the traced benchmark pass fail.
The two tables are read from the file's syntax tree, not imported, so this
test loads neither the bench code nor scipy.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_tables() -> dict[str, dict[str, tuple[str, ...]]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "CONSTRUCTORS"):
                tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = traced_tables()
TRACED = [
    (table, layer, name)
    for table, layers in sorted(TABLES.items())
    for layer, names in layers.items()
    for name in names
]


def test_both_tables_found():
    assert set(TABLES) == {"FUNCTIONS", "CONSTRUCTORS"}
    assert TRACED


@pytest.mark.parametrize("table, layer, name", TRACED, ids=[f"{l}.{n}" for _, l, n in TRACED])
def test_traced_name_exists(table, layer, name):
    module = importlib.import_module(f"qkdsim.{layer}")
    obj = getattr(module, name, None)
    assert obj is not None, f"{table} names qkdsim.{layer}.{name}, which does not exist"
    if table == "CONSTRUCTORS":
        assert isinstance(obj, type)
