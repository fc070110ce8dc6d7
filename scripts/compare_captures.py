#!/usr/bin/env python3
"""Compare two ``capture_outputs.py`` trees and measure how far their sweeps drift.

Both trees must hold the same files.  Every file but a CSV must be
byte-identical.  A CSV must hold the same (sweep, solver, trial, seed) rows
in both trees; its powers may move.  For each CSV that differs, one line
gives the number of changed rows and the worst |change of power_watts|
divided by the largest power_watts of the same (sweep, trial) in BASE.
That divisor is the trial's strongest echo at that point (the estimation
CSVs have no ``no-irs`` row).  Exits 1 on any mismatch, or when a ratio
exceeds ``RTOL`` = 1e-12.  Usage::

    python3 scripts/compare_captures.py BASE NEW
"""

import argparse
import csv
import pathlib
import sys

RTOL = 1e-12


def _files(root: pathlib.Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _rows(path: pathlib.Path) -> dict:
    """power_watts and the raw line of each (sweep, solver, trial, seed) row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return {(float(row["sweep"]), row["solver"], int(row["trial"]), int(row["seed"])):
                (float(row["power_watts"]), row) for row in reader}


def _csv_drift(base: pathlib.Path, new: pathlib.Path):
    """(changed rows, total rows, worst ratio) of one CSV, or None when its
    rows do not match."""
    old_rows, new_rows = _rows(base), _rows(new)
    if old_rows.keys() != new_rows.keys():
        return None
    scale = {}
    for (sweep, _, trial, _), (watts, _) in old_rows.items():
        scale[sweep, trial] = max(scale.get((sweep, trial), 0.0), watts)
    changed, worst = 0, 0.0
    for key, (watts, row) in old_rows.items():
        new_watts, new_row = new_rows[key]
        if row == new_row:
            continue
        changed += 1
        delta = abs(new_watts - watts)
        top = scale[key[0], key[2]]
        worst = max(worst, delta / top if top > 0 else (float("inf") if delta else 0.0))
    return changed, len(old_rows), worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path, help="capture of the reference checkout")
    parser.add_argument("new", type=pathlib.Path, help="capture of the changed checkout")
    args = parser.parse_args()
    base_files, new_files = _files(args.base), _files(args.new)
    failed = False
    for name in sorted(base_files ^ new_files):
        print(f"{name}: only in {args.base if name in base_files else args.new}")
        failed = True
    for name in sorted(base_files & new_files):
        old, new = args.base / name, args.new / name
        if old.read_bytes() == new.read_bytes():
            continue
        if name.suffix != ".csv":
            print(f"{name}: differs")
            failed = True
            continue
        drift = _csv_drift(old, new)
        if drift is None:
            print(f"{name}: rows differ in (sweep, solver, trial, seed)")
            failed = True
            continue
        changed, total, worst = drift
        over = worst > RTOL
        print(f"{name}: {changed}/{total} rows changed, worst drift {worst:.3g}"
              + (f" > {RTOL:g}" if over else ""))
        failed |= over
    if not failed:
        print(f"{len(base_files)} files compared, no mismatch")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
