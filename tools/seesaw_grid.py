"""Run the adversary's seesaw over a fixed grid and write or compare its values.

Usage: python3 tools/seesaw_grid.py SRC OUT
       python3 tools/seesaw_grid.py --diff BASE NEW

The first form imports ``qkdsim`` from the package under SRC (a ``src``
directory) and writes to the file OUT, as JSON keyed ``overlap/n/coder/seed``,
the ``eve_info`` of ``evaluate`` on ``eve_optimize`` for 216 runs:
``paper-example`` at overlaps 0.3, 0.5 and 0.7, block lengths n = 2..4, the
repetition code (coder ``rep``) and the random codebooks
``sample_codebook(2, n, 2, cs)`` for cs = 100, 101 (coder ``cs100``,
``cs101``), each under ``OptimizerConfig(restarts=2, seed=seed)`` for seeds
0..7. The equality set's golden files hold the seesaw's values at a few
points only; this grid shows what a change to the seesaw's schedule moved.

The second form prints every run whose value in NEW rises or falls by more
than 1e-12 against BASE, the count of each and the largest fall and rise
of any run, and exits 0.
"""

from __future__ import annotations

import itertools
import json
import os
import sys

OVERLAPS = (0.3, 0.5, 0.7)
BLOCK_LENGTHS = (2, 3, 4)
CODEBOOK_SEEDS = (100, 101)
SEEDS = range(8)
TOLERANCE = 1e-12


def run_grid() -> dict[str, float]:
    """``eve_info`` of the seesaw for every run of the grid, keyed
    ``overlap/n/coder/seed``; the package must be importable."""
    from qkdsim.information import OptimizerConfig
    from qkdsim.scenarios import paper_example
    from qkdsim.simulation import evaluate, eve_optimize, repetition_codebook, sample_codebook

    values = {}
    for s in OVERLAPS:
        sc = paper_example(s)
        for n in BLOCK_LENGTHS:
            books = {"rep": repetition_codebook(2, n)}
            books.update((f"cs{cs}", sample_codebook(2, n, 2, cs)) for cs in CODEBOOK_SEEDS)
            for (coder, book), seed in itertools.product(books.items(), SEEDS):
                strategy = eve_optimize(sc, book, OptimizerConfig(restarts=2, seed=seed))
                values[f"{s}/{n}/{coder}/{seed}"] = evaluate(sc, book, strategy).eve_info
    return values


def diff(base: dict[str, float], new: dict[str, float]) -> list[str]:
    """One line per run that moved by more than TOLERANCE, then a summary."""
    lines, rises, falls, low, high = [], 0, 0, 0.0, 0.0
    for key in base.keys() & new.keys():
        delta = new[key] - base[key]
        low, high = min(low, delta), max(high, delta)
        if abs(delta) > TOLERANCE:
            rises, falls = rises + (delta > 0), falls + (delta < 0)
            lines.append(f"{'rise' if delta > 0 else 'fall'} {key}: "
                         f"{base[key]!r} -> {new[key]!r} ({delta:+.3e})")
    lines.sort(key=lambda line: line.split()[1])
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        lines.append(f"runs in only one file: {' '.join(missing)}")
    lines.append(f"{len(base.keys() & new.keys())} runs compared: {rises} rises and "
                 f"{falls} falls beyond {TOLERANCE:g}; largest fall {low:.3e}, "
                 f"largest rise {high:.3e}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--diff":
        with open(argv[1], encoding="utf-8") as fh, open(argv[2], encoding="utf-8") as gh:
            print("\n".join(diff(json.load(fh), json.load(gh))))
        return 0
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 1
    src, out = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    import qkdsim

    if not os.path.abspath(qkdsim.__file__).startswith(src + os.sep):
        print(f"error: imported qkdsim from {qkdsim.__file__}, not {src}", file=sys.stderr)
        return 1
    values = run_grid()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} runs written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
