#!/usr/bin/env python3
"""Compare two experiment output trees file by file.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Walks both directories and compares every file byte for byte, with two
exceptions for what wall-clock time decides: trace CSVs (``trace_*.csv``)
are compared without their ``time_s`` column, and ``plot_time_*`` files are
skipped.  Prints each difference and each file present in only one tree,
then the number of files compared.  Exits 1 on any difference or missing
file, 0 otherwise, and 2 unless given two directories.  Standard library
only.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _files(root: Path) -> set[Path]:
    return {
        path.relative_to(root) for path in root.rglob("*")
        if path.is_file() and not path.name.startswith("plot_time_")
    }


def _without_time(data: bytes) -> list[list[bytes]]:
    rows = [line.split(b",") for line in data.split(b"\n")]
    if b"time_s" not in rows[0]:
        return rows
    col = rows[0].index(b"time_s")
    return [row[:col] + row[col + 1:] for row in rows]


def same(a: Path, b: Path) -> bool:
    """Whether ``a`` and ``b`` agree, trace CSVs up to their ``time_s`` column."""
    da, db = a.read_bytes(), b.read_bytes()
    if a.name.startswith("trace_") and a.suffix == ".csv":
        return _without_time(da) == _without_time(db)
    return da == db


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: compare_outputs.py PARENT_DIR CHANGE_DIR (two directories)",
              file=sys.stderr)
        return 2
    parent, change = Path(args[0]), Path(args[1])
    left, right = _files(parent), _files(change)
    problems = 0
    for rel in sorted(left ^ right):
        print(f"only in {parent if rel in left else change}: {rel}")
        problems += 1
    common = sorted(left & right)
    for rel in common:
        if not same(parent / rel, change / rel):
            print(f"differs: {rel}")
            problems += 1
    print(f"{len(common)} files compared, {problems} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
