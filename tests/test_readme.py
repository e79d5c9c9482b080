"""README's library example runs and prints the numbers in its comments."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _six(token: str) -> str:
    return token if token in ("True", "False") else f"{float(token):.6f}"


def test_python_example_prints_its_comments():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    expected = [line.split("#", 1)[1].split() for line in block.splitlines() if "print(" in line]
    assert expected == [["0.811278", "0.645421", "True"], ["0.996078", "0.963003", "0.900789"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = [[_six(token) for token in line.split()] for line in out.getvalue().splitlines()]
    assert printed == expected
