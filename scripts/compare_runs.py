#!/usr/bin/env python
"""Byte-compare the artifacts of two run directories.

Usage: compare_runs.py [--timing] RUN_A RUN_B

Every file under either directory is compared byte for byte, except
`checkpoints/` (its format may change between versions without changing
any result) and the `timing.txt` sidecar (wall-clock time). Prints each
file that differs or exists on one side only, and exits 1 if there is
any, else 0. A text file that differs is named with the line of its
first difference. With --timing it first prints both runs' `timing.txt`
values side by side with their ratio B/A; they never change the exit
status.
"""

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

SKIPPED_DIRS = ("checkpoints",)
SKIPPED_FILES = ("timing.txt",)


def artifacts(root: Path) -> set[str]:
    """Relative paths of the compared files under a run directory."""
    found = set()
    for path in root.rglob("*"):
        rel = path.relative_to(root)
        if (path.is_file() and rel.parts[0] not in SKIPPED_DIRS
                and rel.as_posix() not in SKIPPED_FILES):
            found.add(rel.as_posix())
    return found


def compare(run_a: Path, run_b: Path) -> list[str]:
    """One line per file that differs or is missing on one side."""
    in_a, in_b = artifacts(run_a), artifacts(run_b)
    problems = []
    for rel in sorted(in_a | in_b):
        if rel not in in_b:
            problems.append(f"only in {run_a}: {rel}")
        elif rel not in in_a:
            problems.append(f"only in {run_b}: {rel}")
        elif (a := (run_a / rel).read_bytes()) != (b := (run_b / rel).read_bytes()):
            line = first_difference(a, b)
            problems.append(f"differs: {rel}" + (f" (first at line {line})" if line else ""))
    return problems


def first_difference(a: bytes, b: bytes) -> int | None:
    """The 1-based number of the first line at which two different texts
    differ, or None when either is not UTF-8 text."""
    try:
        lines_a, lines_b = (data.decode("utf-8").splitlines(keepends=True) for data in (a, b))
    except UnicodeDecodeError:
        return None
    return next(n for n, (x, y) in enumerate(zip_longest(lines_a, lines_b), 1) if x != y)


def timing(run: Path) -> dict[str, str]:
    """A run's `timing.txt` values by key, in file order; empty without one."""
    path = run / "timing.txt"
    if not path.is_file():
        return {}
    return dict(line.split(" ", 1) for line in path.read_text(encoding="utf-8").splitlines()
                if line)


def timing_table(run_a: Path, run_b: Path) -> list[str]:
    """One line per timing key of either run: its value in A and in B and
    B / A, with "-" for a value one side lacks or a ratio over zero."""
    a, b = timing(run_a), timing(run_b)
    keys = list(dict.fromkeys([*a, *b]))
    width = max([len("timing"), *map(len, keys)])
    lines = [f"{'timing':<{width}}  {'A':>10}  {'B':>10}  {'B/A':>6}"]
    for key in keys:
        va, vb = a.get(key, "-"), b.get(key, "-")
        ratio = (f"{float(vb) / float(va):.3f}" if "-" not in (va, vb) and float(va)
                 else "-")
        lines.append(f"{key:<{width}}  {va:>10}  {vb:>10}  {ratio:>6}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    parser.add_argument("--timing", action="store_true",
                        help="also print both runs' timing.txt side by side")
    args = parser.parse_args(argv)
    for run in (args.run_a, args.run_b):
        if not run.is_dir():
            print(f"error: {run} is not a directory", file=sys.stderr)
            return 2
    if args.timing:
        for line in timing_table(args.run_a, args.run_b):
            print(line)
    problems = compare(args.run_a, args.run_b)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(artifacts(args.run_a))} file(s) identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
