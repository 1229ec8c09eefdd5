#!/usr/bin/env python
"""Run the smoke configuration end to end (seconds, not minutes)."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout, installed or not

from rexeval.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run-all", "--config", str(ROOT / "fixtures" / "smoke.ini"),
                   *sys.argv[1:]]))
