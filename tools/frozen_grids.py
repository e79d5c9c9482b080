"""Freeze the maxima of the seesaw grid and of the C1 grid, or check them.

Usage: python3 tools/frozen_grids.py SRC OUT

Imports ``qkdsim`` from the package under SRC (a ``src`` directory), runs
``seesaw_grid.run_grid`` and ``c1_grid.run_grid`` and writes to the file OUT,
as JSON, every ``eve_info`` of the first (key ``seesaw``) and the value and
``converged`` flag of every entry of the second (key ``c1``). The frozen copy
is ``tests/frozen_grids.json``: ``tests/test_frozen_grids.py`` runs this tool
on the tree under test and requires every value to be at least its frozen
value - 1e-12 and no ``converged`` flag to turn false. A maximum may rise,
never fall; a change that raises one re-freezes the file with this tool, run
on its own ``src``, and lists each moved value in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

import c1_grid
import seesaw_grid


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src, out = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    import qkdsim

    if not os.path.abspath(qkdsim.__file__).startswith(src + os.sep):
        print(f"error: imported qkdsim from {qkdsim.__file__}, not {src}", file=sys.stderr)
        return 1
    c1 = {key: {"value": entry["value"], "converged": entry["converged"]}
          for key, entry in c1_grid.run_grid().items()}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seesaw": seesaw_grid.run_grid(), "c1": c1}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
