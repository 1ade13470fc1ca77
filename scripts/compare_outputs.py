#!/usr/bin/env python3
"""Compare two experiment output trees file by file.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

Walks both directories and compares every file byte for byte, with two
exceptions for what wall-clock time decides: trace CSVs (``trace_*.csv``)
are compared without their ``time_s`` column, and ``plot_time_*`` files are
skipped.  Prints each difference and each file present in only one tree,
then the number of files compared.  Under a trace that differs it names
each differing column with its largest relative difference
|a - b| / max(|a|, |b|) and its largest absolute difference |a - b| over
the rows (each inf where a cell is not a finite number in one tree only),
or says that the header or row count differs.  The absolute one bounds a
column that sits near 0, where a relative measure bounds nothing.
Exits 1 on any difference or missing file, 0 otherwise, and 2 unless given
two directories.  Standard library only.
"""

from __future__ import annotations

import math
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


def _is_trace(path: Path) -> bool:
    return path.name.startswith("trace_") and path.suffix == ".csv"


def same(a: Path, b: Path) -> bool:
    """Whether ``a`` and ``b`` agree, trace CSVs up to their ``time_s`` column."""
    da, db = a.read_bytes(), b.read_bytes()
    if _is_trace(a):
        return _without_time(da) == _without_time(db)
    return da == db


def _diff(x: bytes, y: bytes) -> tuple[float, float]:
    """(|a - b|, |a - b| / max(|a|, |b|)) of two cells."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf, math.inf
    if a == b or a != a and b != b:
        return 0.0, 0.0
    gap = abs(a - b)
    if not math.isfinite(gap):
        return math.inf, math.inf
    return gap, gap / max(abs(a), abs(b))


def column_differences(a: Path, b: Path) -> list[str]:
    """One line per column in which the traces ``a`` and ``b`` differ, with
    its largest relative and absolute differences; one line if their shapes
    differ."""
    ra, rb = _without_time(a.read_bytes()), _without_time(b.read_bytes())
    if ra[0] != rb[0] or list(map(len, ra)) != list(map(len, rb)):
        return ["  header or row count differs"]
    rows = [(x, y) for x, y in zip(ra[1:], rb[1:]) if x != [b""]]  # not the last newline's
    lines = []
    for j, name in enumerate(ra[0]):
        pairs = [(x[j], y[j]) for x, y in rows if x[j] != y[j]]
        if pairs:
            gaps, rels = zip(*(_diff(x, y) for x, y in pairs))
            lines.append(f"  {name.decode()}: largest relative difference {max(rels):.3g}, "
                         f"absolute {max(gaps):.3g}")
    return lines


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
            if _is_trace(rel):
                print("\n".join(column_differences(parent / rel, change / rel)))
            problems += 1
    print(f"{len(common)} files compared, {problems} differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
