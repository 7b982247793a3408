#!/usr/bin/env python3
"""Desk-scale sweep (CI-sized): 3 RRHs x 2 antennas, 6 users, 20 trials.

Writes results_desk.csv next to the repo root.  Takes about 3 s on two
cores (one BLAS thread per process, 2-vCPU virtual machine; README has the
measured figures).
"""

import sys
from pathlib import Path

from cran_maxmin.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.exit(cli_main([
        "sweep",
        "--config", str(ROOT / "configs" / "desk.json"),
        "--out", str(ROOT / "results_desk.csv"),
        "--threads", "2",
    ]))
