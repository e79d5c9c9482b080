"""Run the equality set: CLI commands whose outputs a refactor must keep byte-identical.

Usage: python3 tools/equality_set.py SRC OUTDIR

Imports ``qkdsim.cli.main`` from the package under SRC (a ``src`` directory)
and runs each command in-process with ``--out``, from OUTDIR as the working
directory. It first writes three scenario files there: ``three-mixed.json``,
three pure letters on two qubits, ``four-letter.json``, four real qubit
letters whose capacity puts no weight on its two middle letters, and
``three-qutrit.json``, three real qutrit letters. For command NN
it writes to OUTDIR the ``--out`` file (NN.out, absent when the command fails
before writing it), stdout without the ``wall time:`` line (NN.stdout), stderr
(NN.stderr) and the exit code (NN.exit); ``commands.txt`` lists the commands.
No file names OUTDIR, so compare two trees with ``diff -r OUTDIR_A OUTDIR_B``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

THREE_MIXED = "three-mixed.json"
THREE_MIXED_SCENARIO = {
    "format": "qkdsim-scenario-v1",
    "name": "three-mixed",
    "key_count": 2,
    "alphabet_size": 3,
    "states": {
        "0": [[0.6, 0], [0, 0], [0, 0], [0.8, 0]],
        "1": [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]],
        "2": [[0, 0], [0.6, 0], [0, 0.8], [0, 0]],
    },
    "channel": {"builtin": "identity"},
    "output_dims": [2, 2],
}
FOUR_LETTER = "four-letter.json"
FOUR_LETTER_SCENARIO = {
    "format": "qkdsim-scenario-v1",
    "name": "four-letter",
    "key_count": 2,
    "alphabet_size": 4,
    "states": {
        str(a): [[math.cos(t / 2), 0], [math.sin(t / 2), 0]]
        for a, t in enumerate((0.453, 1.608, 2.980, 2.986))
    },
    "channel": {"builtin": "identity"},
    "output_dims": [2, 1],
}
THREE_QUTRIT = "three-qutrit.json"
THREE_QUTRIT_SCENARIO = {
    "format": "qkdsim-scenario-v1",
    "name": "three-qutrit",
    "key_count": 2,
    "alphabet_size": 3,
    "states": {
        str(a): [[x, 0] for x in letter]
        for a, letter in enumerate(([1, 0, 0], [0.6, 0.8, 0], [0.48, 0.36, 0.8]))
    },
    "channel": {"builtin": "identity"},
    "output_dims": [1, 3],
}
SIM = ["simulate", "paper-example", "--overlap", "0.5", "-n", "3"]
COMMANDS = [
    *(SIM + ["--eve", "optimized", "--restarts", "2", "--seed", str(seed)] for seed in range(8)),
    SIM + ["--coder", "repetition", "--eve", "default"],
    ["simulate", "paper-example", "--overlap", "0.3", "-n", "3", "--coder", "random",
     "--eve", "optimized", "--restarts", "1", "--seed", "3"],
    # Five adversary slots: one-slot ascents over 4^5 outcome tuples, joint ascents over five frames.
    ["simulate", "paper-example", "--overlap", "0.3", "-n", "5", "--coder", "random",
     "--eve", "optimized", "--restarts", "2", "--seed", "1"],
    ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "1..6", "--seeds", "0..9",
     "--coder", "random", "--eve", "default", "--format", "json"],
    ["sweep", "paper-example", "--overlap", "0.3", "--n-range", "1..3", "--seeds", "0..5",
     "--coder", "random", "--eve", "optimized", "--restarts", "2", "--format", "json"],
    ["sweep", "bsc-pair", "0.1", "0.3", "--n-range", "1..4", "--seeds", "0..3",
     "--coder", "random", "--eve", "optimized", "--restarts", "2"],
    # Mixed receiver letters; most of these codebooks have a constant column.
    ["sweep", "bsc-pair", "0.1", "0.3", "--n-range", "5..8", "--seeds", "0..2",
     "--coder", "random", "--format", "json"],
    *(["analyze", "paper-example", "--overlap", s] for s in ("0.2", "0.5", "0.8")),
    ["analyze", "bsc-pair", "0.1", "0.3"],
    ["accessible", "paper-example", "--overlap", "0.5"],
    ["capacity", "paper-example", "--overlap", "0.5"],
    ["capacity", "bsc-pair", "0.1", "0.3"],
    # A sweep with a budget error cell, and a simulation that exceeds the budget.
    ["sweep", "paper-example", "--overlap", "0.5", "--n-range", "12..13", "--coder", "repetition"],
    ["simulate", "bsc-pair", "0.1", "0.3", "-n", "12"],
    # A three-letter alphabet; C1's prior puts no weight on letter 2.
    *([command, THREE_MIXED] for command in ("analyze", "accessible", "capacity")),
    ["simulate", THREE_MIXED, "-n", "2", "--coder", "random", "--eve", "optimized",
     "--restarts", "2", "--seed", "1"],
    # Four letters, two of them nearly equal: the capacity prior is [0.5, 0, 0, 0.5].
    ["capacity", FOUR_LETTER],
    # C1 on a qutrit: 3-row structured frames padded beside 9-row random frames.
    ["accessible", THREE_QUTRIT],
    # Nearly identical codewords: the codeword Gram matrix has an eigenvalue of
    # about 6e-12, just above the support floor.
    ["simulate", "paper-example", "--overlap", "0.999999999997", "-n", "2"],
]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    src, outdir = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    import qkdsim.cli

    if not os.path.abspath(qkdsim.cli.__file__).startswith(src + os.sep):
        print(f"error: imported qkdsim from {qkdsim.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    _write(THREE_MIXED, json.dumps(THREE_MIXED_SCENARIO, indent=2) + "\n")
    _write(FOUR_LETTER, json.dumps(FOUR_LETTER_SCENARIO, indent=2) + "\n")
    _write(THREE_QUTRIT, json.dumps(THREE_QUTRIT_SCENARIO, indent=2) + "\n")
    _write("commands.txt", "".join(" ".join(c) + "\n" for c in COMMANDS))
    for i, command in enumerate(COMMANDS, 1):
        base = f"{i:02d}"
        with contextlib.suppress(FileNotFoundError):
            os.remove(base + ".out")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qkdsim.cli.main(command + ["--out", base + ".out"])
            except SystemExit as exc:
                code = exc.code
        lines = out.getvalue().splitlines(keepends=True)
        _write(base + ".stdout", "".join(l for l in lines if not l.startswith("wall time:")))
        _write(base + ".stderr", err.getvalue())
        _write(base + ".exit", f"{code}\n")
        print(f"{i:02d} exit {code}: {' '.join(command)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
