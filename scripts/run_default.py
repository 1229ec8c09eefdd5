#!/usr/bin/env python
"""Run the full default configuration: 8k-review corpus, whole roster.

Trains three transformer variants and a recurrent model; expect a few
minutes of wall time. Extra CLI flags pass straight through, e.g.
--models oracle,random or --audit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout, installed or not

from rexeval.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run-all", "--config", str(ROOT / "configs" / "default.ini"),
                   *sys.argv[1:]]))
