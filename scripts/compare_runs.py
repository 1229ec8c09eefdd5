#!/usr/bin/env python
"""Byte-compare the artifacts of two run directories.

Usage: compare_runs.py RUN_A RUN_B

Every file under either directory is compared byte for byte, except
`checkpoints/` (its format may change between versions without changing
any result) and the `timing.txt` sidecar (wall-clock time). Prints each
file that differs or exists on one side only, and exits 1 if there is
any, else 0.
"""

import argparse
import sys
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
        elif (run_a / rel).read_bytes() != (run_b / rel).read_bytes():
            problems.append(f"differs: {rel}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_a", type=Path)
    parser.add_argument("run_b", type=Path)
    args = parser.parse_args(argv)
    for run in (args.run_a, args.run_b):
        if not run.is_dir():
            print(f"error: {run} is not a directory", file=sys.stderr)
            return 2
    problems = compare(args.run_a, args.run_b)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(artifacts(args.run_a))} file(s) identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
