#!/usr/bin/env python
"""Recompute a run's report cells from its per-instance audit logs.

Usage: verify_audit.py RUN_DIR [MODEL:CELL ...]

With no cell arguments, every report cell is checked, and once any cell
has an audit log, a cell without one is a mismatch. Exits nonzero if any
log is missing or any recomputed aggregate disagrees with the report.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout, installed or not

from rexeval.pipeline import AUDIT_DIR, RESULTS_FILE  # noqa: E402
from rexeval.report import AuditMismatch, EvaluationReport, verify_against_audit  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", help="run directory holding results.json and audit/")
    parser.add_argument("cells", nargs="*", metavar="MODEL:CELL",
                        help="specific cells to check, e.g. oracle:mrr_ae")
    args = parser.parse_args(argv)
    cells = [tuple(c.split(":", 1)) for c in args.cells] or None
    if cells is not None and any(len(c) != 2 or not all(c) for c in cells):
        print("error: cells must look like MODEL:CELL", file=sys.stderr)
        return 2

    run = Path(args.run_dir)
    report_path = run / RESULTS_FILE
    if not report_path.exists():
        print(f"error: no {RESULTS_FILE} in {run}", file=sys.stderr)
        return 1
    report = EvaluationReport.load(report_path)
    try:
        checked = verify_against_audit(report, run / AUDIT_DIR, cells=cells)
    except AuditMismatch as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 1
    if not checked:
        print("error: no audit logs found (was the run made with --audit?)",
              file=sys.stderr)
        return 1
    for model, key, reported, recomputed in checked:
        print(f"ok {model}:{key} reported={reported!r} recomputed={recomputed!r}")
    print(f"{len(checked)} cell(s) verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
